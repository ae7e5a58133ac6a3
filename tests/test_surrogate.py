import tracemalloc

import numpy as np
import pytest

from hmimo import harness, surrogate
from hmimo.geometry import SurfaceGeometry, relative_grid
from hmimo.green import (POLARIZATIONS, QuadratureRule, WaveConfig,
                         approx_channel_batch, full_channel, patch_channel)
from hmimo.surrogate import (CoordinateBox, HybridNet, TrainConfig,
                             channel_first_derivs, channel_second_derivs,
                             expanded_channel,
                             generate_training_set, hybrid_channel, nmse_db,
                             stacked_channel, term_coefficients, train,
                             EXPANSION_BASIS, _output_partials)
from hmimo.signals import combine_channel, gen_combiner


def _random_net(nh):
    rng = np.random.default_rng(3)
    return HybridNet(
        w1=rng.normal(size=(nh, 3)), b1=rng.normal(size=nh),
        w2=rng.normal(size=(nh, 12)), b2=rng.normal(size=12),
        input_offset=np.array([0.0, 0.0, 30.0]),
        input_scale=np.array([1.5, 1.5, 10.0]),
        output_offset=rng.normal(size=12) * 1e-6,
        output_scale=np.abs(rng.normal(size=12)) * 1e-5,
        frequency=3e9)


def _parts(out):
    """A stacked_channel or per-pair result as a tuple of arrays."""
    return out if isinstance(out, tuple) else (out,)


def _slot_reference(net, xyz, wave, order):
    """``channel_derivs`` from the twelve real output slots: the value and
    its partials (K, 12, ...) from products of w2 and w1 columns, the output
    scale applied after each product, and the slots split into the six
    complex components before the rotation."""
    a = net._hidden(xyz)
    nh = net.hidden_count
    scale = net.output_scale
    slots = [(a @ net.w2 + net.b2) * scale + net.output_offset]
    gp = 1.0 - a**2
    w1s = net.w1 / net.input_scale[None, :]
    w2w1 = net.w2[:, :, None] * w1s[:, None, :]
    slots.append((gp @ w2w1.reshape(nh, 36)).reshape(-1, 12, 3)
                 * scale[None, :, None])
    w2w1w1 = w2w1[:, :, :, None] * w1s[:, None, None, :]
    slots.append((-2.0 * a * gp @ w2w1w1.reshape(nh, 108)).reshape(-1, 12, 3, 3)
                 * scale[None, :, None, None])
    phi = [d[:, :6] + 1j * d[:, 6:] for d in slots[:order + 1]]
    return surrogate._rotate(phi, xyz[:, None], wave)


@pytest.fixture(scope="module")
def net():
    return _random_net(7)


@pytest.fixture(scope="module")
def points():
    return np.array([[0.3, -0.2, 25.0], [0.7, 0.5, 35.0], [-1.1, 0.9, 21.0]])


class TestForward:
    def test_zero_hidden_weights_give_bias(self):
        n = HybridNet(w1=np.zeros((4, 3)), b1=np.zeros(4),
                      w2=np.zeros((4, 12)), b2=np.arange(12.0),
                      input_offset=np.zeros(3), input_scale=np.ones(3),
                      output_offset=np.zeros(12), output_scale=np.ones(12),
                      frequency=3e9)
        out = n.forward(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(out, np.arange(12.0))

    def test_output_affine_map(self):
        n = HybridNet(w1=np.zeros((4, 3)), b1=np.zeros(4),
                      w2=np.zeros((4, 12)), b2=np.ones(12),
                      input_offset=np.zeros(3), input_scale=np.ones(3),
                      output_offset=np.full(12, 5.0), output_scale=np.full(12, 2.0),
                      frequency=3e9)
        out = n.forward(np.zeros(3))
        assert np.array_equal(out, np.full(12, 7.0))

    def test_hidden_activation_is_tanh(self, net):
        x = np.array([[0.4, -0.3, 27.0]])
        xn = (x - net.input_offset) / net.input_scale
        manual = np.tanh(xn @ net.w1.T + net.b1)
        assert np.array_equal(net._hidden(x), manual)

    def test_phi_complex_layout(self, net, points):
        out = net.forward(points)
        phi = _output_partials(net, points, 0)[0]
        assert np.array_equal(phi.real, out[:, :6])
        assert np.array_equal(phi.imag, out[:, 6:])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            HybridNet(w1=np.zeros((4, 2)), b1=np.zeros(4),
                      w2=np.zeros((4, 12)), b2=np.zeros(12),
                      input_offset=np.zeros(3), input_scale=np.ones(3),
                      output_offset=np.zeros(12), output_scale=np.ones(12),
                      frequency=3e9)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            HybridNet(w1=np.full((4, 3), np.nan), b1=np.zeros(4),
                      w2=np.zeros((4, 12)), b2=np.zeros(12),
                      input_offset=np.zeros(3), input_scale=np.ones(3),
                      output_offset=np.zeros(12), output_scale=np.ones(12),
                      frequency=3e9)


class TestChannelMap:
    def test_rotation_factor(self, net, points, wave):
        h = hybrid_channel(net, points, wave)
        phi = _output_partials(net, points, 0)[0]
        r = np.linalg.norm(points, axis=-1)
        assert np.allclose(h, phi * np.exp(1j * wave.wavenumber * r)[:, None])


class TestStackedChannel:
    geom = SurfaceGeometry(3, 4, 2, 3, 0.05, 0.04, 0.01, 0.02)

    def test_rows_follow_channel_tensor(self, net, wave):
        # row k*N + n - 1, column m - 1 of the oracle's and the surrogate's
        # stacked channel, and of the surrogate's partials, is component k
        # (in POLARIZATIONS order) of patch pair (n, m)
        geom, q = self.geom, QuadratureRule(4)
        n_tx, m_rx = geom.n_patches, geom.m_patches
        entry = tuple(np.array([["xyz".index(c[0]), "xyz".index(c[1])]
                                for c in POLARIZATIONS]).T)
        p1s = np.array([[0.3, -0.2, 25.0], [-0.6, 0.4, 31.0]])
        rel = relative_grid(geom, p1s)
        pair_fns = (hybrid_channel, channel_first_derivs, channel_second_derivs)
        batch = [_parts(stacked_channel(net, geom, p1s, wave, order))
                 for order in range(3)]
        for b, p1 in enumerate(p1s):
            truth = full_channel(geom, p1, wave, q).stacked
            assert truth.shape == (6 * n_tx, m_rx)
            single = [_parts(stacked_channel(net, geom, p1, wave, order))
                      for order in range(3)]
            for n, m in np.ndindex(n_tx, m_rx):             # 0-based
                rows = np.arange(6) * n_tx + n
                block = patch_channel(m + 1, n + 1, geom, p1, wave, q)
                assert np.allclose(truth[rows, m], block[entry], rtol=1e-12, atol=0)
                for order, pair_fn in enumerate(pair_fns):
                    want = _parts(pair_fn(net, rel[b, n, m], wave))
                    for w, one, many in zip(want, single[order], batch[order]):
                        assert np.allclose(one[rows, m], w[0], rtol=1e-13, atol=0)
                        assert np.allclose(many[b, rows, m], w[0], rtol=1e-13,
                                           atol=0)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("hidden, rtol", [(7, 0.0), (50, 1e-13)])
    def test_batch_equals_single_calls(self, wave, order, hidden, rtol):
        # with 50 hidden units the BLAS products round a row differently
        # depending on how many rows the call holds, so a batch matches
        # single calls to round-off only; with 7 they match bit for bit
        net = _random_net(hidden)
        rng = np.random.default_rng(6)
        p1s = np.column_stack([rng.uniform(-1, 1, (4, 2)),
                               rng.uniform(20, 40, 4)]).reshape(2, 2, 3)
        f = gen_combiner(5, self.geom.m_patches, seed=2)
        eye = np.eye(self.geom.m_patches, dtype=complex)

        def check_combined(p1, plain):
            # behind F every output is the output without F combined in the
            # stacked layout, within 1e-13 of its largest entry; behind I it
            # is the output without F, bit for bit
            combined = _parts(stacked_channel(net, self.geom, p1, wave, order, f=f))
            same = _parts(stacked_channel(net, self.geom, p1, wave, order, f=eye))
            assert len(combined) == len(same) == order + 1
            for k, (h, g, g_eye) in enumerate(zip(plain, combined, same)):
                want = combine_channel(f, h, trailing=k)
                assert g.shape == want.shape
                assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))
                assert np.array_equal(g_eye, h)

        batch = _parts(stacked_channel(net, self.geom, p1s, wave, order))
        assert len(batch) == order + 1
        check_combined(p1s, batch)
        for idx in np.ndindex(2, 2):
            single = _parts(stacked_channel(net, self.geom, p1s[idx], wave, order))
            check_combined(p1s[idx], single)
            for b, s in zip(batch, single):
                assert b[idx].shape == s.shape
                if rtol == 0.0:
                    assert np.array_equal(b[idx], s)
                else:
                    assert np.max(np.abs(b[idx] - s)) <= rtol * np.max(np.abs(s))

    def test_bad_order_rejected(self, net, wave):
        with pytest.raises(ValueError, match="order"):
            stacked_channel(net, self.geom, [0.0, 0.0, 30.0], wave, 3)


def _ci_locations(count, seed):
    """Locations drawn uniformly from the ci prior box, (count, 3)."""
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(-1.0, 1.0, (count, 2)),
                            rng.uniform(20.0, 40.0, count)])


class TestExpandedChannel:
    @pytest.mark.parametrize("chains", [None, 16])
    def test_matches_per_pair_model(self, trained_net, small_geometry, wave,
                                    chains):
        # the expansion about the aperture centres reproduces the per-pair
        # surrogate far below the surrogate's own error against the truth
        # (about -50 dB): worst -73 dB and median -82 dB were measured (-71
        # and -80 dB behind the combiner); without the second-order terms
        # of phi the worst is -57 dB
        f = (None if chains is None
             else gen_combiner(chains, small_geometry.m_patches, seed=1))
        p1s = _ci_locations(200, seed=0)
        h0 = expanded_channel(trained_net, small_geometry, p1s, wave, 0, f)
        h, dh = expanded_channel(trained_net, small_geometry, p1s, wave, 1, f)
        ref, dref = stacked_channel(trained_net, small_geometry, p1s, wave, 1, f)
        assert np.array_equal(h0, h)
        for got, want in ((h, ref), (dh, dref)):
            assert got.shape == want.shape
            axes = tuple(range(1, want.ndim))
            err_db = 10 * np.log10(np.sum(np.abs(got - want) ** 2, axis=axes)
                                   / np.sum(np.abs(want) ** 2, axis=axes))
            assert np.max(err_db) <= -65.0

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("chains", [None, 5])
    def test_batch_equals_single_calls(self, trained_net, small_geometry, wave,
                                       order, chains):
        # a location's output does not depend on the batch it is evaluated
        # in, bit for bit, whatever the batch size (one included)
        f = (None if chains is None
             else gen_combiner(chains, small_geometry.m_patches, seed=2))
        p1s = _ci_locations(7, seed=4)
        net, geom = trained_net, small_geometry
        batch = _parts(expanded_channel(net, geom, p1s, wave, order, f))
        grid = _parts(expanded_channel(net, geom, p1s[:6].reshape(2, 3, 3), wave,
                                       order, f))
        for a, g in zip(batch, grid):
            assert np.array_equal(a[:6], g.reshape((6,) + a.shape[1:]))
        for sl in (slice(0, 1), slice(1, 3), slice(3, 7)):
            for a, part in zip(batch, _parts(expanded_channel(
                    net, geom, p1s[sl], wave, order, f))):
                assert np.array_equal(a[sl], part)
        for b, p1 in enumerate(p1s):
            single = _parts(expanded_channel(net, geom, p1, wave, order, f))
            assert len(single) == order + 1
            for a, one in zip(batch, single):
                assert one.shape == a.shape[1:]
                assert np.array_equal(a[b], one)

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("chains", [None, 24])
    def test_empty_batch(self, trained_net, small_geometry, wave, order, chains):
        # no location gives empty outputs of stacked_channel's shapes
        net, geom, p1s = trained_net, small_geometry, np.empty((0, 3))
        f = None if chains is None else gen_combiner(chains, geom.m_patches, seed=2)
        c, coef, coef1 = term_coefficients(net, geom, p1s)
        assert c.shape == (0, 3) and coef.shape == (0, 6, 6)
        assert coef1.shape == (0, 3, 3, 6)
        got = _parts(expanded_channel(net, geom, p1s, wave, order, f))
        want = _parts(stacked_channel(net, geom, p1s, wave, order, f))
        assert [a.shape for a in got] == [a.shape for a in want]

    @pytest.mark.parametrize("kind", ["trained", "random"])
    def test_value_row_equals_output_partials(self, request, small_geometry,
                                              kind):
        # every coefficient of the init is the per-pair kernel's partial at
        # the centre c, bit for bit, in the ascending axes that the basis
        # term names: coef's term (a, b) is the partial in a x's and b y's,
        # and coef1's term of coordinate j the partial in j once more
        net = (request.getfixturevalue("trained_net") if kind == "trained"
               else _random_net(50))
        c, coef, coef1 = term_coefficients(net, small_geometry,
                                           _ci_locations(40, seed=6))
        phi, dphi, d2phi = _output_partials(net, c[:, None], 2)
        parts = (phi[:, 0], dphi, d2phi)

        def partial(k, axes):
            return parts[len(axes)][(slice(None), k, *sorted(axes))]

        for t, (a, b, _) in enumerate(EXPANSION_BASIS):
            xy = (0,) * a + (1,) * b
            for k in range(6):
                assert np.array_equal(coef[:, t, k], partial(k, xy)), (t, k)
                for j in range(3 if t < 3 else 0):
                    assert np.array_equal(coef1[:, j, t, k],
                                          partial(k, (j,) + xy)), (j, t, k)

    def test_combiner_applied_to_plain_output(self, net, wave):
        geom = TestStackedChannel.geom
        f = gen_combiner(5, geom.m_patches, seed=2)
        p1s = _ci_locations(3, seed=5)
        h, dh = expanded_channel(net, geom, p1s, wave, 1)
        g, dg = expanded_channel(net, geom, p1s, wave, 1, f=f)
        assert np.array_equal(g, combine_channel(f, h))
        assert np.array_equal(dg, combine_channel(f, dh, trailing=1))

    def test_bad_order_rejected(self, net, wave):
        with pytest.raises(ValueError, match="order"):
            expanded_channel(net, TestStackedChannel.geom, [0.0, 0.0, 30.0], wave, 2)


class TestDerivatives:
    def test_first_matches_finite_difference(self, net, points, wave):
        h, dh = channel_first_derivs(net, points, wave)
        eps = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = eps
            fd = (hybrid_channel(net, points + e, wave)
                  - hybrid_channel(net, points - e, wave)) / (2 * eps)
            scale = np.max(np.abs(dh[:, :, j]))
            assert np.max(np.abs(dh[:, :, j] - fd)) < 1e-4 * scale

    def test_second_matches_finite_difference(self, net, points, wave):
        h, dh, d2h = channel_second_derivs(net, points, wave)
        eps = 1e-5
        scale = np.max(np.abs(d2h))
        for j in range(3):
            for l in range(3):
                ej = np.zeros(3)
                el = np.zeros(3)
                ej[j] = eps
                el[l] = eps
                fd = (hybrid_channel(net, points + ej + el, wave)
                      - hybrid_channel(net, points + ej - el, wave)
                      - hybrid_channel(net, points - ej + el, wave)
                      + hybrid_channel(net, points - ej - el, wave)) / (4 * eps * eps)
                assert np.max(np.abs(d2h[:, :, j, l] - fd)) < 1e-3 * scale

    def test_second_contains_first(self, net, points, wave):
        h0 = hybrid_channel(net, points, wave)
        h1, dh1 = channel_first_derivs(net, points, wave)
        h2, dh2, _ = channel_second_derivs(net, points, wave)
        assert np.array_equal(h0, h1)
        assert np.array_equal(h1, h2)
        assert np.array_equal(dh1, dh2)

    def test_jacobians_match_einsum_form(self, net, points):
        # the per-order block products against the direct einsum statement
        _, dphi, d2phi = _output_partials(net, points, 2)
        a = net._hidden(points)
        gp = 1.0 - a**2
        w1s = net.w1 / net.input_scale[None, :]
        d1 = np.einsum("ik,bi,ij->bkj", net.w2, gp, w1s)
        d2 = np.einsum("ik,bi,ij,il->bkjl", net.w2, -2.0 * a * gp, w1s, w1s)
        ref1 = d1 * net.output_scale[None, :, None]
        ref2 = d2 * net.output_scale[None, :, None, None]
        ref1, ref2 = (r[:, :6] + 1j * r[:, 6:] for r in (ref1, ref2))
        assert np.max(np.abs(dphi - ref1)) <= 1e-12 * np.max(np.abs(ref1))
        assert np.max(np.abs(d2phi - ref2)) <= 1e-12 * np.max(np.abs(ref2))

    @pytest.mark.parametrize("hidden", [7, 50])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_kernel_matches_slot_reference(self, wave, hidden, order):
        # one product per order with the cached blocks, viewed as complex,
        # against the output slots and partials formed from w2 and w1 with
        # the output map applied after, split into complex by copies, then
        # rotated: within 1e-13 of each array's largest entry
        net = _random_net(hidden)
        rng = np.random.default_rng(hidden)
        xyz = np.column_stack([rng.uniform(-1.5, 1.5, (40, 2)),
                               rng.uniform(20.0, 40.0, 40)])
        got = surrogate.channel_derivs(net, xyz, wave, order)
        want = _slot_reference(net, xyz, wave, order)
        assert len(got) == len(want) == order + 1
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

    def test_blocks_read_only(self, net):
        for block in net._partials_block:
            assert not block.flags.writeable

    def test_hessian_symmetric(self, net, points, wave):
        _, _, d2h = channel_second_derivs(net, points, wave)
        assert np.allclose(d2h, np.swapaxes(d2h, 2, 3), rtol=1e-12, atol=0)


class TestSerialization:
    def test_roundtrip_bitwise(self, net, tmp_path):
        path = tmp_path / "net.json"
        net.save(path)
        back = HybridNet.load(path)
        for name in ("w1", "b1", "w2", "b2", "input_offset", "input_scale",
                     "output_offset", "output_scale"):
            assert np.array_equal(getattr(net, name), getattr(back, name))
        assert back.frequency == net.frequency
        back.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_writes_format_v1(self, net, tmp_path):
        # the v1 layout, written out here once more so that a change to the
        # declaration in HybridNet shows as a format change
        import json
        path = tmp_path / "net.json"
        net.save(path)
        doc = json.loads(path.read_text())
        assert list(doc) == ["version", "hidden_count", "w1", "b1", "w2", "b2",
                             "input_scale", "input_offset", "output_scale",
                             "output_offset", "wave"]
        assert (doc["version"], doc["hidden_count"]) == (1, 7)
        assert doc["w1"] == net.w1.ravel().tolist()
        assert doc["w2"] == net.w2.ravel().tolist()
        assert doc["wave"] == {"frequency_hz": 3e9}

    def test_version_gate(self, net, tmp_path):
        import json
        path = tmp_path / "net.json"
        net.save(path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            HybridNet.load(path)


class TestCoordinateBox:
    def test_from_prior_spans(self):
        geom = SurfaceGeometry(10, 10, 5, 5, 0.05, 0.05, 0.01, 0.01)
        box = CoordinateBox.from_prior(geom, (-1, 1), (-1, 1), (20, 40))
        assert box.x == (-1 - 9 * 0.05, 1 + 4 * 0.01)
        assert box.y == (-1 - 9 * 0.05, 1 + 4 * 0.01)
        assert box.z == (20, 40)

    def test_sample_inside(self):
        box = CoordinateBox(x=(-1, 1), y=(-2, 2), z=(20, 40))
        pts = box.sample(np.random.default_rng(0), 1000)
        assert np.all(pts[:, 0] >= -1) and np.all(pts[:, 0] <= 1)
        assert np.all(pts[:, 1] >= -2) and np.all(pts[:, 1] <= 2)
        assert np.all(pts[:, 2] >= 20) and np.all(pts[:, 2] <= 40)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            CoordinateBox(x=(1, -1), y=(-1, 1), z=(20, 40))


class TestTargets:
    """``generate_training_set``'s targets against its oracle's components."""

    @pytest.fixture(scope="class")
    def samples(self, small_geometry, wave):
        box = CoordinateBox.from_prior(small_geometry, (-1, 1), (-1, 1), (20, 40))
        rel, t = generate_training_set(box, small_geometry, wave, QuadratureRule(2),
                                       50, seed=4, channel="approx")
        return rel, t, approx_channel_batch(rel, small_geometry, wave)

    def test_derotation_preserves_power(self, samples):
        rel, t, comps = samples
        assert rel.shape == (50, 3) and t.shape == (50, 12)
        # the components are ~1e-5 and smaller, so no absolute floor: every
        # sample's power must agree to round-off relative to itself
        np.testing.assert_allclose(np.sum(t**2, axis=1),
                                   np.sum(np.abs(comps)**2, axis=1),
                                   rtol=1e-12, atol=0)

    def test_rotation_inverse(self, samples, wave):
        rel, t, comps = samples
        r = np.linalg.norm(rel, axis=-1)
        back = (t[:, :6] + 1j * t[:, 6:]) * np.exp(1j * wave.wavenumber * r)[:, None]
        # element-wise relative: the cross-polar slots are 1e-3 to 1e-8 of
        # the co-polar ones and must come back as exactly
        np.testing.assert_allclose(back, comps, rtol=1e-12, atol=0)


def _normalised_split(inputs, targets, rng):
    """``train``'s validation split and normalisation, sample-major:
    (x_tr, t_tr, x_val, t_val)."""
    perm = rng.permutation(inputs.shape[0])
    n_val = int(round(surrogate.VAL_FRACTION * inputs.shape[0]))
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    in_lo, in_hi = inputs.min(axis=0), inputs.max(axis=0)
    in_off = 0.5 * (in_lo + in_hi)
    in_scale = 0.5 * (in_hi - in_lo)
    in_scale[in_scale == 0] = 1.0
    out_off = targets[tr_idx].mean(axis=0)
    out_scale = targets[tr_idx].std(axis=0)
    out_scale[out_scale == 0] = 1.0
    xn = (inputs - in_off) / in_scale
    tn = (targets - out_off) / out_scale
    return xn[tr_idx], tn[tr_idx], xn[val_idx], tn[val_idx]


def _adam_update(params, grads, m_acc, v_acc, step, total_steps):
    """``train``'s Adam step at the cosine-decayed rate, in place."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    frac = step / total_steps
    lr = (surrogate.LR_FINAL + 0.5 * (surrogate.LR - surrogate.LR_FINAL)
          * (1 + np.cos(np.pi * frac)))
    for p, g, m, v in zip(params, grads, m_acc, v_acc):
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g**2
        mh = m / (1 - beta1**step)
        vh = v / (1 - beta2**step)
        p -= lr * mh / (np.sqrt(vh) + eps)


def _reference_train(inputs, targets, cfg):
    """The trainer's loop with a fresh array for every intermediate, kept
    as the reference for ``train``: unit-major, with a ones row under the
    inputs and under the hidden outputs, so that W1 = [w1 | b1] and
    W2 = [w2; b2] carry the biases through the products.  Returns
    (w1, b1, w2, b2, loss curve)."""
    batch = surrogate.BATCH_SIZE

    def with_ones(rows):
        return np.vstack([rows, np.ones(rows.shape[1])])

    def ls_output_layer(x, W1, t):
        # normal equations summed over column blocks of BATCH_SIZE, in order
        gram, rhs = 0.0, 0.0
        for s in range(0, x.shape[1], batch):
            a = with_ones(np.tanh(W1 @ x[:, s:s + batch]))
            gram = gram + a @ a.T
            rhs = rhs + a @ t[:, s:s + batch].T
        return np.linalg.lstsq(gram, rhs, rcond=None)[0]

    rng = np.random.default_rng(cfg.seed)
    x_tr, t_tr, x_val, t_val = _normalised_split(inputs, targets, rng)
    x_tr, x_val = with_ones(x_tr.T), with_ones(x_val.T)
    t_tr, t_val = t_tr.T.copy(), t_val.T.copy()

    nh = cfg.hidden_count
    W1 = np.column_stack([rng.normal(scale=1.0, size=(nh, 3)),
                          rng.uniform(-1.0, 1.0, size=nh)])
    W2 = ls_output_layer(x_tr, W1, t_tr)
    params = [W1, W2]
    m_acc = [np.zeros_like(p) for p in params]
    v_acc = [np.zeros_like(p) for p in params]
    step = 0
    n_tr = x_tr.shape[1]
    steps_per_epoch = max(1, n_tr // batch)
    total_steps = cfg.epochs * steps_per_epoch
    loss_curve = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_tr)
        for k in range(steps_per_epoch):
            idx = order[k * batch:(k + 1) * batch]
            xb, tb = x_tr[:, idx], t_tr[:, idx]
            h = np.tanh(W1 @ xb)
            a = with_ones(h)
            err = W2.T @ a - tb
            g_W2 = a @ err.T / len(idx)
            back = (W2[:-1] @ err) * (1.0 - h**2)
            g_W1 = back @ xb.T / len(idx)
            step += 1
            _adam_update(params, [g_W1, g_W2], m_acc, v_acc, step, total_steps)
        if (epoch + 1) % surrogate.LS_REFIT_EVERY == 0:
            W2[...] = ls_output_layer(x_tr, W1, t_tr)
        val_pred = W2.T @ with_ones(np.tanh(W1 @ x_val))
        loss_curve.append(float(np.mean((val_pred - t_val) ** 2)))
    if cfg.epochs % surrogate.LS_REFIT_EVERY:
        W2 = ls_output_layer(x_tr, W1, t_tr)
    return W1[:, :3], W1[:, 3], W2[:-1], W2[-1], loss_curve


def _textbook_train(inputs, targets, cfg):
    """The textbook sample-major loop, with separate bias adds and
    bias-gradient means: ``train`` sums in another order, so it agrees with
    this loop to round-off only.  Returns (w1, b1, w2, b2)."""
    def ls_output_layer(x, w1, b1, tn):
        # normal equations summed over blocks of BATCH_SIZE rows, in row order
        gram, rhs = 0.0, 0.0
        for s in range(0, x.shape[0], surrogate.BATCH_SIZE):
            a = np.tanh(x[s:s + surrogate.BATCH_SIZE] @ w1.T + b1)
            block = np.concatenate([a, np.ones((a.shape[0], 1))], axis=1)
            gram = gram + block.T @ block
            rhs = rhs + block.T @ tn[s:s + surrogate.BATCH_SIZE]
        sol, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
        return sol[:-1], sol[-1]

    rng = np.random.default_rng(cfg.seed)
    x_tr, t_tr, _, _ = _normalised_split(inputs, targets, rng)

    nh = cfg.hidden_count
    w1 = rng.normal(scale=1.0, size=(nh, 3))
    b1 = rng.uniform(-1.0, 1.0, size=nh)
    w2, b2 = ls_output_layer(x_tr, w1, b1, t_tr)
    params = [w1, b1, w2, b2]
    m_acc = [np.zeros_like(p) for p in params]
    v_acc = [np.zeros_like(p) for p in params]
    step = 0
    batch = surrogate.BATCH_SIZE
    n_tr = x_tr.shape[0]
    steps_per_epoch = max(1, n_tr // batch)
    total_steps = cfg.epochs * steps_per_epoch
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_tr)
        for k in range(steps_per_epoch):
            idx = order[k * batch:(k + 1) * batch]
            xb, tb = x_tr[idx], t_tr[idx]
            a = np.tanh(xb @ w1.T + b1)
            err = a @ w2 + b2 - tb
            g_w2 = a.T @ err / len(idx)
            g_b2 = err.mean(axis=0)
            back = (err @ w2.T) * (1.0 - a**2)
            g_w1 = back.T @ xb / len(idx)
            g_b1 = back.mean(axis=0)
            step += 1
            _adam_update(params, [g_w1, g_b1, g_w2, g_b2], m_acc, v_acc, step,
                         total_steps)
        if (epoch + 1) % surrogate.LS_REFIT_EVERY == 0:
            w2[...], b2[...] = ls_output_layer(x_tr, w1, b1, t_tr)
    if cfg.epochs % surrogate.LS_REFIT_EVERY:
        w2, b2 = ls_output_layer(x_tr, w1, b1, t_tr)
    return w1, b1, w2, b2


def _small_fit(small_geometry, wave, count, hidden):
    """Samples of the closed-form channel and a fit of them by ``train``
    over LS_REFIT_EVERY + 5 epochs: (X, T, cfg, net, report)."""
    box = CoordinateBox.from_prior(small_geometry, (-1, 1), (-1, 1), (20, 40))
    X, T = generate_training_set(box, small_geometry, wave, QuadratureRule(2),
                                 count, seed=7, channel="approx")
    cfg = TrainConfig(hidden_count=hidden, epochs=surrogate.LS_REFIT_EVERY + 5,
                      seed=1)
    net, rep = train(X, T, cfg, wave.frequency)
    # 3000 samples train on more rows than a batch, 2000 on fewer
    assert (rep["train_count"] > surrogate.BATCH_SIZE) == (count == 3000)
    return X, T, cfg, net, rep


def _unit_major(x, t, w1, b1):
    """Normalised inputs (n, 3) and targets (n, 12) in ``train``'s layout,
    with W1 = [w1 | b1]: (x (4, n; ones last), the reader of a column slice
    of t (12, n), W1)."""
    tu = np.ascontiguousarray(t.T)
    return (np.vstack([x.T, np.ones(len(x))]), lambda cols: tu[:, cols],
            np.column_stack([w1, b1]))


@pytest.fixture(scope="module")
def ci_training_set():
    """The ci profile's 20k exact-oracle training samples and its training
    settings."""
    cfg = harness.PROFILES["ci"]
    return (*harness.training_data(cfg), cfg["training"])


class TestTraining:
    @pytest.mark.parametrize("count, hidden", [(3000, 8), (2000, 4)],
                             ids=["above-batch", "below-batch"])
    def test_matches_reference_loop(self, small_geometry, wave, count, hidden):
        # the fixed workspaces run the same operations in the same order as
        # a loop that allocates every intermediate, so they agree bit for bit
        X, T, cfg, net, rep = _small_fit(small_geometry, wave, count, hidden)
        *weights, curve = _reference_train(X, T, cfg)
        for name, ref in zip(("w1", "b1", "w2", "b2"), weights):
            assert np.array_equal(getattr(net, name), ref), name
        assert rep["val_loss_curve"] == curve

    @pytest.mark.parametrize("count, hidden", [(3000, 8), (2000, 4)],
                             ids=["above-batch", "below-batch"])
    def test_matches_textbook_loop_to_round_off(self, small_geometry, wave,
                                                count, hidden):
        # folding the biases into the products reorders sums only, so after
        # LS_REFIT_EVERY + 5 epochs each weight array is within 1e-8 of its
        # largest entry of the textbook loop's
        X, T, cfg, net, _ = _small_fit(small_geometry, wave, count, hidden)
        for name, ref in zip(("w1", "b1", "w2", "b2"), _textbook_train(X, T, cfg)):
            got = getattr(net, name)
            assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref)), name

    def test_memory_bounded(self, ci_training_set):
        # over one periodic output-layer refit on the 20k ci samples, no
        # (n_train, H)-sized array may be live: one such array of the 18k
        # training rows grows by 5.5 MiB from H = 10 to H = 50
        X, T, t = ci_training_set
        peaks = {}
        for hidden in (10, 50):
            tc = TrainConfig(hidden_count=hidden, epochs=surrogate.LS_REFIT_EVERY,
                             seed=t["seed"])
            tracemalloc.start()
            try:
                train(X, T, tc, harness.PROFILES["ci"]["wave"]["frequency"])
                peaks[hidden] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[50] - peaks[10] <= 5 * 2**20

    def test_working_memory_pinned(self, ci_training_set):
        # the traced peak of a ci fit: 7.25 MiB with three target copies and
        # a held-out workspace of its own, 5.33 MiB with one normalised copy,
        # 3.69 MiB with none, each batch and block normalised from the
        # caller's array (one epoch peaks as 150 do)
        X, T, t = ci_training_set
        tc = TrainConfig(hidden_count=t["hidden_count"], epochs=1, seed=t["seed"])
        tracemalloc.start()
        try:
            train(X, T, tc, harness.PROFILES["ci"]["wave"]["frequency"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20

    def test_caller_arrays_only_read(self):
        # every batch reads the caller's targets: read-only arrays are
        # accepted, and neither array is written to
        rng = np.random.default_rng(0)
        X, T = rng.normal(size=(3000, 3)), 100 * rng.normal(size=(3000, 12))
        x0, t0 = X.copy(), T.copy()
        X.flags.writeable = T.flags.writeable = False
        cfg = TrainConfig(hidden_count=4, epochs=21)
        net, rep = train(X, T, cfg, 3e9)
        assert np.array_equal(X, x0) and np.array_equal(T, t0)
        ref, ref_rep = train(x0, t0, cfg, 3e9)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(net, name), getattr(ref, name)), name
        assert rep == ref_rep

    def test_held_out_loss_over_several_blocks(self, small_geometry, wave):
        # with more held-out samples than a batch the loss is summed block
        # by block, which reorders np.mean's sum: the curve agrees with the
        # reference loop's one-shot loss to round-off, and the weights, which
        # do not read it, bit for bit
        box = CoordinateBox.from_prior(small_geometry, (-1, 1), (-1, 1), (20, 40))
        X, T = generate_training_set(box, small_geometry, wave, QuadratureRule(2),
                                     12 * surrogate.BATCH_SIZE, seed=7,
                                     channel="approx")
        cfg = TrainConfig(hidden_count=4, epochs=2, seed=1)
        net, rep = train(X, T, cfg, wave.frequency)
        assert rep["val_count"] > surrogate.BATCH_SIZE
        *weights, curve = _reference_train(X, T, cfg)
        for name, ref in zip(("w1", "b1", "w2", "b2"), weights):
            assert np.array_equal(getattr(net, name), ref), name
        np.testing.assert_allclose(rep["val_loss_curve"], curve, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("epochs, solves", [
        (0, 1), (surrogate.LS_REFIT_EVERY, 2), (surrogate.LS_REFIT_EVERY + 5, 3)])
    def test_refit_count(self, monkeypatch, epochs, solves):
        # an initial solve, one every LS_REFIT_EVERY epochs, and a final one
        # only if Adam has stepped since the last
        calls = []
        lstsq = np.linalg.lstsq

        def counting_lstsq(*args, **kwargs):
            calls.append(args)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        rng = np.random.default_rng(0)
        train(rng.normal(size=(2000, 3)), rng.normal(size=(2000, 12)),
              TrainConfig(hidden_count=4, epochs=epochs), 3e9)
        assert len(calls) == solves

    def test_refit_matches_full_design_lstsq(self, ci_training_set):
        # one refit at the ci settings (H = 50, w1 and b1 drawn as ``train``
        # draws them) against the SVD solve of the full (n, H + 1) design:
        # the Gram matrix squares the design's condition number (1.5e3
        # here, up to 3.6e3 over a ci fit's refits), so agreement to 1e-8
        # of the largest weight is round-off
        X, T, t = ci_training_set
        x = (X - 0.5 * (X.min(axis=0) + X.max(axis=0))) / (0.5 * np.ptp(X, axis=0))
        tn = (T - T.mean(axis=0)) / T.std(axis=0)
        rng = np.random.default_rng(t["seed"])
        nh = t["hidden_count"]
        w1, b1 = rng.normal(size=(nh, 3)), rng.uniform(-1.0, 1.0, size=nh)
        block = np.ones((nh + 1, surrogate.BATCH_SIZE))
        sol = surrogate._output_layer_lstsq(*_unit_major(x, tn, w1, b1), block)
        w2, b2 = sol[:-1], sol[-1]
        design = np.column_stack([np.tanh(x @ w1.T + b1), np.ones(len(x))])
        ref = np.linalg.lstsq(design, tn, rcond=None)[0]
        for got, want in ((w2, ref[:-1]), (b2, ref[-1])):
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    def test_refit_rank_deficient_design(self):
        # two identical hidden units make the Gram matrix singular; the
        # solve must stay finite and predict as the full-design solve does
        rng = np.random.default_rng(5)
        x, tn = rng.uniform(-1.0, 1.0, size=(3000, 3)), rng.normal(size=(3000, 12))
        w1, b1 = rng.normal(size=(8, 3)), rng.uniform(-1.0, 1.0, size=8)
        w1[1], b1[1] = w1[0], b1[0]
        block = np.ones((9, surrogate.BATCH_SIZE))
        sol = surrogate._output_layer_lstsq(*_unit_major(x, tn, w1, b1), block)
        w2, b2 = sol[:-1], sol[-1]
        assert np.all(np.isfinite(w2)) and np.all(np.isfinite(b2))
        design = np.column_stack([np.tanh(x @ w1.T + b1), np.ones(len(x))])
        ref = design @ np.linalg.lstsq(design, tn, rcond=None)[0]
        pred = design[:, :-1] @ w2 + b2
        assert np.max(np.abs(pred - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("change, message", [
        (lambda X, T: (X[:, :2], T), "inputs must be \\(K, 3\\)"),
        (lambda X, T: (X, T[:1000]), "targets must be \\(K, 12\\) for the K = 2000"),
        (lambda X, T: (X, T[:, :6]), "targets must be \\(K, 12\\)"),
        (lambda X, T: (np.where(np.arange(2000)[:, None] == 5, np.inf, X), T),
         "inputs hold non-finite values"),
        (lambda X, T: (X, np.where(np.arange(2000)[:, None] == 5, np.nan, T)),
         "targets hold non-finite values"),
    ], ids=["input-width", "target-rows", "target-width", "inf-input", "nan-target"])
    def test_bad_arrays_rejected(self, change, message):
        rng = np.random.default_rng(0)
        X, T = rng.normal(size=(2000, 3)), rng.normal(size=(2000, 12))
        with pytest.raises(ValueError, match=message):
            train(*change(X, T), TrainConfig(hidden_count=4, epochs=2), 3e9)

    @pytest.mark.parametrize("epochs", [0, 5])
    def test_constant_input_column(self, epochs):
        # a coordinate with no range is left unscaled instead of giving 0/0
        rng = np.random.default_rng(0)
        X, T = rng.normal(size=(3000, 3)), rng.normal(size=(3000, 12))
        X[:, 2] = 30.0
        net, rep = train(X, T, TrainConfig(hidden_count=8, epochs=epochs), 3e9)
        assert net.input_scale[2] == 1.0
        assert np.isfinite(rep["val_nmse_db"])
        for name in ("w1", "b1", "w2", "b2"):
            assert np.all(np.isfinite(getattr(net, name))), name

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_targets_normalised_in_double(self, dtype):
        # the in-place normalisation runs on a float64 copy whatever the
        # targets' dtype: the fit equals that of the same values as float64
        rng = np.random.default_rng(0)
        X, T = rng.normal(size=(2000, 3)), (100 * rng.normal(size=(2000, 12))).astype(dtype)
        cfg = TrainConfig(hidden_count=4, epochs=2)
        net, rep = train(X, T, cfg, 3e9)
        ref, ref_rep = train(X, T.astype(float), cfg, 3e9)
        for name in ("w1", "b1", "w2", "b2", "output_offset", "output_scale"):
            assert np.array_equal(getattr(net, name), getattr(ref, name)), name
        assert rep["val_loss_curve"] == ref_rep["val_loss_curve"]

    def test_small_fit_reaches_target(self, wave):
        geom = SurfaceGeometry(6, 6, 3, 3, 0.05, 0.05, 0.01, 0.01)
        box = CoordinateBox.from_prior(geom, (-1, 1), (-1, 1), (20, 40))
        X, T = generate_training_set(box, geom, wave, QuadratureRule(4),
                                     12000, seed=5)
        cfg = TrainConfig(hidden_count=30, epochs=80, seed=0)
        net, rep = train(X, T, cfg, wave.frequency)
        assert rep["val_nmse_db"] < -40.0

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            train(np.zeros((10, 3)), np.zeros((10, 12)), TrainConfig(), 3e9)

    def test_nmse_db_zero_error(self):
        t = np.ones((5, 12))
        assert nmse_db(t, t) == -np.inf

    def test_nmse_db_known_value(self):
        t = np.ones((1, 12))
        p = np.full((1, 12), 1.1)
        assert nmse_db(p, t) == pytest.approx(10 * np.log10(0.01), rel=1e-12)
