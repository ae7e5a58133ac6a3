"""List the public names of ``src/hmimo`` that only the tests reach.

    python docs/api_callers.py [ROOT]

ROOT is the repository root (default: the parent of this script's
directory); a ROOT without ``src/hmimo`` exits 2.  The public names are
the top-level functions and classes of each module under ``src/hmimo``,
and the methods of those classes, whose names do not start with an
underscore.

For each name it counts references in ``src/hmimo`` and ``docs/``, and
apart from those in ``perfbench/`` and those in ``tests/``.  A reference
is a name or an attribute that reads it, or a string constant equal to it
(the benchmark's tracer names the functions it wraps by string).  A
definition, an import, an ``__all__`` entry and a mention in a docstring
or comment are not references, and the package's ``__init__.py``, which
only exports names, and this script are not scanned.

An attribute read does not say which class's member it reads, so a
public method whose name another class of ``src/hmimo`` also defines (as
a method, a property or a class attribute such as a dataclass field) is
never counted as reached: it is listed under its own heading, "shared
name, check by hand", with its count of test references and the classes
that share the name.

It prints one line per other name that nothing outside ``tests/``
reaches, with its module and the count of test references, or "nothing
reaches it".  Then, under the heading "tests and perfbench/ only", the
names that only tests and the benchmark reach, with both counts, and last
the shared names.  Only the standard library is used.
"""

import argparse
import ast
import pathlib
import sys
from collections import Counter, defaultdict


def _public_names(tree):
    """The public top-level function and class names of a module, and the
    public method names of its public classes, as "name" or
    "Class.method"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}"


def _members(tree):
    """(class, the names it defines) per class of a module: its methods and
    properties and its class attributes, dataclass fields included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = set()
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(item.name)
                elif isinstance(item, ast.AnnAssign):
                    names.add(getattr(item.target, "id", None))
                elif isinstance(item, ast.Assign):
                    names.update(getattr(t, "id", None) for t in item.targets)
            yield node.name, names - {None}


def _references(tree):
    """A Counter of the identifiers a module reads: names, attributes and
    string constants that are identifiers, except the strings of an
    ``__all__``, which only export names."""
    exports = {id(node) for assign in ast.walk(tree)
               if isinstance(assign, ast.Assign)
               and any(getattr(t, "id", None) == "__all__" for t in assign.targets)
               for node in ast.walk(assign.value)}
    refs = Counter()
    for node in ast.walk(tree):
        if id(node) in exports:
            continue
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            refs[node.value] += 1
    return refs


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[1],
                        help="repository root (default: this script's parent's)")
    root = parser.parse_args(argv).root
    package = root / "src" / "hmimo"
    if not package.is_dir():
        parser.error(f"no src/hmimo under {root}")
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    outside, bench, inside_tests = Counter(), Counter(), Counter()
    for path in [*modules, *sorted((root / "docs").glob("**/*.py"))]:
        if path.name != pathlib.Path(__file__).name:
            outside.update(_references(_parse(path)))
    for path in sorted((root / "perfbench").glob("**/*.py")):
        bench.update(_references(_parse(path)))
    for path in sorted((root / "tests").glob("**/*.py")):
        inside_tests.update(_references(_parse(path)))
    definers = defaultdict(set)          # member name -> "module.Class"
    for path in modules:
        for cls, names in _members(_parse(path)):
            for name in names:
                definers[name].add(f"{path.stem}.{cls}")
    benched, shared = [], []
    for path in modules:
        for name in _public_names(_parse(path)):
            last = name.rsplit(".", 1)[-1]
            others = definers[last] - {f"{path.stem}.{name.split('.')[0]}"}
            if "." in name and others:
                shared.append(f"  {path.stem}.{name}: {inside_tests[last]} test "
                              f"references (also {', '.join(sorted(others))})")
            elif not outside[last] and bench[last]:
                benched.append(f"  {path.stem}.{name}: {bench[last]} perfbench/ "
                               f"references, {inside_tests[last]} test references")
            elif not outside[last]:
                print(f"{path.stem}.{name}: " + (
                    f"tests only ({inside_tests[last]} test references)"
                    if inside_tests[last] else "nothing reaches it"))
    if benched:
        print("tests and perfbench/ only:", *benched, sep="\n")
    if shared:
        print("shared name, check by hand:", *shared, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
