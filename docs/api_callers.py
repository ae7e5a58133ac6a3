"""List the public names of ``src/hmimo`` that only the tests reach.

    python docs/api_callers.py [ROOT]

ROOT is the repository root (default: the parent of this script's
directory); a ROOT without ``src/hmimo`` exits 2.  The public names are
the top-level functions and classes of each module under ``src/hmimo``,
and the methods of those classes, whose names do not start with an
underscore.

For each name it counts references in ``src/hmimo``, ``perfbench/`` and
``docs/``, and apart from those in ``tests/``.  A reference is a name or
an attribute that reads it, or a string constant equal to it (the
benchmark's tracer names the functions it wraps by string).  A
definition, an import, an ``__all__`` entry and a mention in a docstring
or comment are not references, and the package's ``__init__.py``, which
only exports names, and this script are not scanned.  A method counts
every attribute of its name, whatever object it is read from, so a
method that shares its name with another is reached where either is.

It prints one line per name that nothing outside ``tests/`` reaches,
with its module and the count of test references, or "nothing reaches
it".  Only the standard library is used.
"""

import argparse
import ast
import pathlib
import sys
from collections import Counter


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
    outside, inside_tests = Counter(), Counter()
    for path in [*modules, *sorted((root / "perfbench").glob("**/*.py")),
                 *sorted((root / "docs").glob("**/*.py"))]:
        if path.name != pathlib.Path(__file__).name:
            outside.update(_references(_parse(path)))
    for path in sorted((root / "tests").glob("**/*.py")):
        inside_tests.update(_references(_parse(path)))
    for path in modules:
        for name in _public_names(_parse(path)):
            last = name.rsplit(".", 1)[-1]
            if not outside[last]:
                print(f"{path.stem}.{name}: " + (
                    f"tests only ({inside_tests[last]} test references)"
                    if inside_tests[last] else "nothing reaches it"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
