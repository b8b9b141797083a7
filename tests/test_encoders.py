import hashlib

import numpy as np
import pytest

from splinefield import autodiff as ad
from splinefield import dataio
from splinefield import encoders as enc
from splinefield.autodiff import ParamStore, Tape, Var
from splinefield.field import FieldConfig, SplineField

from gradcheck import fd_check


MLP_VARIANTS = ["siren-resfields", "pe-resfields", "coupled4d-baseline"]
ALL_KNOT_VARIANTS = ["siren-resfields", "pe-resfields", "triplanes", "triaxes"]


def _field(variant, rank=2, n_knots=3, seed=0) -> SplineField:
    cfg = FieldConfig(variant=variant, n_knots=n_knots, rank=rank, hidden=16, depth=2,
                      grid_levels=(4, 8), grid_channels=3)
    return SplineField(cfg, np.eye(3), seed=seed)


def _build(variant, rank=2, n_knots=3, seed=0):
    """An encoder and its store as the field builds them: the store also holds
    the field's codes and its decoder's parameters."""
    f = _field(variant, rank, n_knots, seed)
    return f.encoder, f.store


def _code(tape, store: ParamStore, knot_idx: int):
    """The code v_t the field hands the encoder at a knot: row knot_idx of the
    store's codes on the tape."""
    return ad.take(store.var("codes", tape), np.array(knot_idx))


def _randomized(f: SplineField, seed=99) -> SplineField:
    """Perturb the zero-initialised decoder so knot states depend on the features."""
    rng = np.random.default_rng(seed)
    for name in f.store.names():
        if name.startswith("dec."):
            f.store.value(name)[...] += rng.normal(0.0, 0.5, f.store.value(name).shape)
    return f


def _states(f: SplineField, knot_idx: int) -> np.ndarray:
    """The knot state at knot_idx for five fixed points, as one [5, 6] array."""
    points = np.random.default_rng(12).uniform(-1, 1, (5, 3))
    states = f.knot_states(Tape(), points, [knot_idx])
    return np.concatenate([s.value for s in states[knot_idx]], axis=1)


class TestTemporalCodes:
    """The field's per-knot codes, seen through `SplineField.knot_states`."""

    def test_rank_zero_is_empty(self):
        # the coupled baseline builds its encoder at rank 0 whatever rank says
        assert "codes" not in _field("coupled4d-baseline", rank=2).store.names()

    def test_zero_codes_give_zero_vector(self):
        # zero codes reduce every layer or grid to its base: the residual
        # stacks stop mattering and every knot gives the same state
        for variant in ALL_KNOT_VARIANTS:
            f = _randomized(_field(variant, rank=2))
            f.store.value("codes")[...] = 0.0
            want = _states(f, 0)
            rng = np.random.default_rng(13)
            for name in f.store.names():
                if name.endswith(("Wres", ".res")):
                    f.store.value(name)[...] = rng.normal(size=f.store.value(name).shape)
            for k in range(3):
                np.testing.assert_array_equal(_states(f, k), want, err_msg=variant)

    def test_init_scale_monte_carlo(self):
        # half-normal mean: E|x| = sigma * sqrt(2/pi) ~ 0.00798 for sigma 0.01
        codes = _field("siren-resfields", rank=100, n_knots=100, seed=1).store.value("codes")
        assert codes.shape == (100, 100)
        assert np.mean(np.abs(codes)) == pytest.approx(0.008, abs=5e-4)

    def test_index_out_of_range(self):
        for variant in ALL_KNOT_VARIANTS:
            for rank in (1, 2):
                f = _field(variant, rank=rank)
                for k in (-1, 3):
                    with pytest.raises(ValueError, match=r"out of range \[0, 3\)"):
                        f.knot_states(Tape(), np.zeros((1, 3)), [k])

    def test_differentiable_wrt_codes(self):
        f = _randomized(_field("siren-resfields", rank=2, n_knots=4))
        tape = Tape()
        dx, m = f.knot_states(tape, np.random.default_rng(14).uniform(-1, 1, (4, 3)), [1])[1]
        tape.backward(ad.vsum(ad.mul(dx, dx)))
        grad = f.store.grad("codes")
        assert np.all(grad[1] != 0)
        np.testing.assert_array_equal(np.delete(grad, 1, axis=0), np.zeros((3, 2)))


class TestTimeVariantLinear:
    """The MLP encoder's layer, input @ low_rank(W_base, W_res, v_t) + bias."""

    def test_zero_code_reduces_to_base(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        wb = rng.normal(size=(4, 2))
        wres = rng.normal(size=(2, 4, 2))
        b = rng.normal(size=2)
        tape = Tape()
        w = enc.low_rank(Var(wb, tape), Var(wres, tape), Var(np.zeros(2), tape))
        out = ad.forward_linear(Var(x, tape), w, Var(b, tape))
        np.testing.assert_allclose(out.value, x @ wb + b, atol=1e-14)

    def test_residual_cancellation(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4))
        wb = rng.normal(size=(4, 2))
        tape = Tape()
        w = enc.low_rank(Var(wb, tape), Var(-wb[None], tape), Var(np.ones(1), tape))
        out = ad.forward_linear(Var(x, tape), w, Var(np.zeros(2), tape))
        np.testing.assert_allclose(out.value, np.zeros((3, 2)), atol=1e-14)

    def test_matches_explicit_materialization(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 4))
        wb = rng.normal(size=(4, 3))
        wres = rng.normal(size=(3, 4, 3))
        b = rng.normal(size=3)
        vt = rng.normal(size=3)
        tape = Tape()
        w = enc.low_rank(Var(wb, tape), Var(wres, tape), Var(vt, tape))
        out = ad.forward_linear(Var(x, tape), w, Var(b, tape))
        w_explicit = wb + np.tensordot(vt, wres, axes=(0, 0))
        np.testing.assert_allclose(out.value, x @ w_explicit + b, atol=1e-12)


class TestPositionalEncoding:
    def test_zero_input_pattern(self):
        out = enc.positional_encode(np.zeros((1, 3)), 2)
        assert out.shape == (1, 15)
        # per coordinate: [0, sin0=0, cos0=1, sin1=0, cos1=1]
        expect = np.concatenate([np.zeros(3), np.zeros(3), np.ones(3),
                                 np.zeros(3), np.ones(3)])
        np.testing.assert_allclose(out[0], expect, atol=1e-15)

    def test_l0_with_input_is_identity(self):
        # the SIREN and coupled encoders' features: x itself, no copy
        x = np.random.default_rng(5).normal(size=(4, 3))
        assert enc.positional_encode(x, 0) is x

    def test_first_frequency_at_half(self):
        out = enc.positional_encode(np.full((1, 3), 0.5), 1)
        np.testing.assert_allclose(out[0, 3:6], np.ones(3), atol=1e-15)   # sin(pi/2)
        np.testing.assert_allclose(out[0, 6:], np.zeros(3), atol=1e-15)   # cos(pi/2)

    def test_out_dim(self):
        assert enc.positional_encode(np.zeros((2, 3)), 4).shape == (2, 27)
        assert enc.positional_encode(np.zeros((2, 3)), 2).shape == (2, 15)


def _encode(e, tape, store, x, v_t):
    """One knot's features of the points x: the encoder's spatial of x for
    that one knot, then the knot's modulation of it."""
    return e.encode(tape, store, e.spatial(tape, store, x, 1, slice(None)), v_t)


def _linear_sample(axis, u):
    """A [D, C] axis sampled linearly at grid coordinates u."""
    return ad.sample_grid(axis, ad.interp_matrix((u,), axis.value.shape[:1]))


class TestEncoders:
    @pytest.mark.parametrize("variant", ALL_KNOT_VARIANTS)
    def test_deterministic_and_time_varying(self, variant):
        e, store = _build(variant)
        x = np.random.default_rng(6).uniform(-1, 1, size=(4, 3))
        a, b, c = (_encode(e, t, store, x, _code(t, store, k)).value
                   for t, k in ((Tape(), 0), (Tape(), 0), (Tape(), 1)))
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)   # codes differ per knot

    @pytest.mark.parametrize("variant", ALL_KNOT_VARIANTS)
    def test_knot_index_validated(self, variant, monkeypatch):
        # the field checks the index once, before the encoder runs
        f = _field(variant)
        monkeypatch.setattr(f.encoder, "encode", lambda *a: pytest.fail("encoder ran"))
        for k in (-1, 3):
            with pytest.raises(ValueError, match=r"knot index -?\d out of range \[0, 3\)"):
                f.knot_states(Tape(), np.zeros((1, 3)), [k])

    @pytest.mark.parametrize("variant", ALL_KNOT_VARIANTS)
    def test_gradients_pass_fd_check(self, variant):
        e, store = _build(variant)
        x = np.random.default_rng(8).uniform(-0.9, 0.9, size=(3, 3))

        def loss(tape):
            out = _encode(e, tape, store, x, _code(tape, store, 1))
            return ad.vmean(ad.mul(out, out))

        err = fd_check(loss, store, samples=30, rng=np.random.default_rng(0))
        assert err < 1e-4


def _constant_grids(store: ParamStore, c: float) -> None:
    """Every grid base set to c and every residual stack to 0, so each knot's
    grids are the constant c whatever its code."""
    for name in store.names():
        if name.startswith("enc.grid"):
            store.value(name)[...] = c if name.endswith(".base") else 0.0


class TestTriplanes:
    def test_constant_planes_give_constant_cubed(self):
        e, store = _build("triplanes")
        c = 0.7
        _constant_grids(store, c)
        tape = Tape()
        out = _encode(e, tape, store, np.random.default_rng(9).uniform(-1, 1, (5, 3)),
                      _code(tape, store, 1))
        np.testing.assert_allclose(out.value, np.full(out.value.shape, c ** 3),
                                   atol=1e-12)

    def test_zero_plane_annihilates(self):
        e, store = _build("triplanes")
        store.value("enc.grid.L0.xy.base")[...] = 0.0
        store.value("enc.grid.L0.xy.res")[...] = 0.0
        tape = Tape()
        out = _encode(e, tape, store, np.zeros((2, 3)), _code(tape, store, 1))
        np.testing.assert_array_equal(out.value[:, :3], np.zeros((2, 3)))


class TestTriaxes:
    def test_constant_axes_give_constant_cubed(self):
        e, store = _build("triaxes")
        _constant_grids(store, 0.5)
        tape = Tape()
        out = _encode(e, tape, store, np.random.default_rng(11).uniform(-1, 1, (4, 3)),
                      _code(tape, store, 1))
        np.testing.assert_allclose(out.value, np.full(out.value.shape, 0.125),
                                   atol=1e-14)


def _lazy_encode(e, tape, store, x, v_t):
    """Oracle: sample each factor's base and every residual grid separately
    (1 + rank samples), then weight the residual samples by v_t. By linearity
    of interpolation this equals sampling the grid built at the knot."""
    feats = []
    for li, d in enumerate(e.levels):
        level = None
        for fname, axes in e.FACTORS:
            key = f"enc.grid.L{li}.{fname}"
            coords = [enc._to_grid_units(x[:, a], d) for a in axes]
            sample = ad.bilinear_sample if len(axes) == 2 else _linear_sample
            f = sample(store.var(f"{key}.base", tape), *coords)
            res = store.var(f"{key}.res", tape)
            for r in range(e.rank):
                f = ad.add(f, ad.mul(v_t[np.array(r)], sample(res[r], *coords)))
            level = f if level is None else ad.mul(level, f)
        feats.append(level)
    return ad.concat(feats, axis=1)


def _build_then_sample(e, tape, store, x, v_t):
    """Oracle: each factor's knot grid built with `low_rank` on the tape, then
    sampled bilinearly or linearly, at every knot."""
    feats = []
    for li, d in enumerate(e.levels):
        level = None
        for fname, axes in e.FACTORS:
            key = f"enc.grid.L{li}.{fname}"
            grid = enc.low_rank(store.var(f"{key}.base", tape), store.var(f"{key}.res", tape),
                                v_t)
            coords = [enc._to_grid_units(x[:, a], d) for a in axes]
            sample = ad.bilinear_sample if len(axes) == 2 else _linear_sample
            f = sample(grid, *coords)
            level = f if level is None else ad.mul(level, f)
        feats.append(level)
    return ad.concat(feats, axis=1)


# (variant, point count B, knots K, per level whether the rule samples
# first): case (a) where B is below the factor's cell count (16 and 64 for
# planes at levels (4, 8), 4 and 8 for axes) and 8 * B below K times it,
# build-then-sample (b) elsewhere
SIZE_RULE_SIDES = [("triplanes", 10, 8, [True, True]), ("triplanes", 30, 8, [False, True]),
                   ("triplanes", 70, 8, [False, False]), ("triplanes", 3, 2, [True, True]),
                   ("triplanes", 10, 2, [False, True]), ("triplanes", 20, 2, [False, False]),
                   ("triaxes", 3, 8, [True, True]), ("triaxes", 6, 8, [False, True]),
                   ("triaxes", 12, 8, [False, False]), ("triaxes", 1, 2, [False, True])]


def _knot_outputs(e, store, x, tape, route, knots):
    """Three knots' features for one point set; `route` is "spatial" (one
    spatial for `knots` knots, shared by the three) or "oracle"."""
    if route == "oracle":
        return [_build_then_sample(e, tape, store, x, _code(tape, store, k)) for k in range(3)]
    spatial = e.spatial(tape, store, x, knots, slice(None))
    return [e.encode(tape, store, spatial, _code(tape, store, k)) for k in range(3)]


class TestSizeRule:
    @pytest.mark.parametrize("variant, b, knots, below", SIZE_RULE_SIDES)
    def test_takes_the_case_its_size_picks(self, variant, b, knots, below):
        e, store = _build(variant, rank=2)
        x = np.random.default_rng(b).uniform(-1, 1, (b, 3))
        spatial = e.spatial(Tape(), store, x, knots, slice(None))
        assert [all(S is None for _, _, S in level) for level in spatial] == below
        assert [any(S is None for _, _, S in level) for level in spatial] == below
        for (base, res, S), (_, axes) in zip(spatial[0], e.FACTORS):
            want = (b, 3) if S is None else (4,) * len(axes) + (3,)
            assert base.shape == want and res.shape == (2,) + want

    @pytest.mark.parametrize("variant, b, knots, below", SIZE_RULE_SIDES)
    def test_values_and_gradients_match_build_then_sample(self, variant, b, knots, below):
        e, store = _build(variant, rank=2)
        rng = np.random.default_rng(b + 1)
        x = rng.uniform(-1.05, 1.05, (b, 3))
        w = rng.normal(size=(3, b, e.out_dim))
        names = [n for n in store.names() if not n.startswith("dec.")]
        results = []
        for route in ("spatial", "oracle"):
            store.zero_grad()
            tape = Tape()
            outs = _knot_outputs(e, store, x, tape, route, knots)
            loss = None
            for out, wk in zip(outs, w):
                term = ad.vsum(ad.mul(out, wk))
                loss = term if loss is None else loss + term
            tape.backward(loss)
            results.append(([o.value for o in outs],
                            {n: store.grad(n).copy() for n in names}))
        (got, got_grads), (want, want_grads) = results
        for g, wv in zip(got, want):
            np.testing.assert_allclose(g, wv, rtol=0, atol=1e-13 * np.abs(wv).max())
        assert {"codes"} < set(names)
        for name in names:
            assert np.any(want_grads[name] != 0), name
            np.testing.assert_allclose(got_grads[name], want_grads[name], rtol=0,
                                       atol=1e-13 * np.abs(want_grads[name]).max(),
                                       err_msg=name)

    @pytest.mark.parametrize("variant, b, knots, below", SIZE_RULE_SIDES)
    def test_gradients_pass_fd_check(self, variant, b, knots, below):
        e, store = _build(variant, rank=2)
        x = np.random.default_rng(b + 2).uniform(-0.95, 0.95, (b, 3))

        def loss(tape):
            a, _, c = _knot_outputs(e, store, x, tape, "spatial", knots)
            return ad.vmean(ad.mul(a, a)) + ad.vmean(ad.mul(a, c))

        assert fd_check(loss, store, samples=40, rng=np.random.default_rng(0)) < 1e-4


# factor names and the number of coordinates each factor's grid spans
GRID_FACTORS = {"triplanes": (("xy", "yz", "xz"), 2), "triaxes": (("x", "y", "z"), 1)}
# sha256 of the codes' and every encoder parameter's float64 bytes, in store
# order, for _build(variant)
GRID_INIT_SHA256 = {
    "triplanes": "3731420985563a74bd15a7296180b023b059b044f3a1885666b381b141b22b6c",
    "triaxes": "43a61d6e80d71c26094378608d88d3d7518cb2e3c7751d14f042e8addd8836d5",
}


def _materialized(store: ParamStore, level: int, factor: str, knot_idx: int) -> np.ndarray:
    """Explicit grid base + sum_r v_t[r] * res[r] in numpy; the oracle of
    the equivalence tests."""
    key = f"enc.grid.L{level}.{factor}"
    v = store.value("codes")[knot_idx]
    return store.value(f"{key}.base") + np.tensordot(v, store.value(f"{key}.res"), axes=(0, 0))


class TestGridEncoders:
    @pytest.mark.parametrize("variant", ["triplanes", "triaxes"])
    def test_encode_equals_sampling_materialized_grid(self, variant):
        e, store = _build(variant, rank=3)
        x = np.random.default_rng(10).uniform(-0.95, 0.95, size=(6, 3))
        tape = Tape()
        got = _encode(e, tape, store, x, _code(tape, store, 1)).value
        feats = []
        for li, d in enumerate(e.levels):
            level = None
            for fname, axes in e.FACTORS:
                grid = Var(_materialized(store, li, fname, 1), Tape())
                coords = [enc._to_grid_units(x[:, a], d) for a in axes]
                sample = ad.bilinear_sample if len(axes) == 2 else _linear_sample
                f = sample(grid, *coords).value
                level = f if level is None else level * f
            feats.append(level)
        np.testing.assert_allclose(got, np.concatenate(feats, axis=1), atol=1e-12)

    @pytest.mark.parametrize("rank", [1, 3])
    @pytest.mark.parametrize("variant", ["triplanes", "triaxes"])
    def test_values_and_gradients_match_lazy_sampling(self, variant, rank):
        e, store = _build(variant, rank=rank)
        rng = np.random.default_rng(15)
        x = rng.uniform(-1.1, 1.1, size=(7, 3))
        w = rng.normal(size=(7, e.out_dim))
        names = [n for n in store.names() if not n.startswith("dec.")]
        results = []
        for route in (lambda *a: _encode(e, *a), lambda *a: _lazy_encode(e, *a)):
            store.zero_grad()
            tape = Tape()
            out = route(tape, store, x, _code(tape, store, 2))
            tape.backward(ad.vsum(ad.mul(out, w)))
            results.append((out.value, {n: store.grad(n).copy() for n in names}))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for name in names:
            assert np.any(want_grads[name] != 0), name
            np.testing.assert_allclose(got_grads[name], want_grads[name], rtol=0,
                                       atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("variant", ["triplanes", "triaxes"])
    def test_same_seed_init_is_pinned(self, variant):
        _, store = _build(variant)
        names = [n for n in store.names() if not n.startswith("dec.")]
        factors, k = GRID_FACTORS[variant]
        want = [("codes", (3, 2))] + [
            (f"enc.grid.L{li}.{f}.{part}", (2,) * (part == "res") + (d,) * k + (3,))
            for li, d in enumerate((4, 8)) for f in factors for part in ("base", "res")]
        assert [(n, store.value(n).shape) for n in names] == want
        digest = hashlib.sha256()
        for n in names:
            digest.update(store.value(n).tobytes())
        assert digest.hexdigest() == GRID_INIT_SHA256[variant]


class TestCoupled4D:
    def test_time_changes_output_for_static_input(self):
        e, store = _build("coupled4d-baseline")
        x = np.zeros((2, 3))
        a, b = (e.encode(Tape(), store, enc.xyzt(x, t), None).value for t in (0.0, 1.0))
        assert not np.allclose(a, b)


# sha256 of the codes' and every encoder parameter's float64 bytes, in store
# order, for _build(variant)
MLP_INIT_SHA256 = {
    "siren-resfields": "74a62f0b99882a7aaa7787aec93b234aaf54de546dc31ab016967ec094d56703",
    "pe-resfields": "c5fed635f020829b9231f360096d4e043e293425edbf19911b1189d574df49a5",
    "coupled4d-baseline": "ca5783ce338f4a34bbfd327a8556b4dbf14fe4ea7c3bab0303f8c9766d9b3bd8",
}


class TestMLPEncoder:
    @pytest.mark.parametrize("variant", MLP_VARIANTS)
    def test_same_seed_init_is_pinned(self, variant):
        _, store = _build(variant)
        names = [n for n in store.names() if not n.startswith("dec.")]
        in_dim = {"siren-resfields": 3, "pe-resfields": 27, "coupled4d-baseline": 4}[variant]
        rank = 0 if variant == "coupled4d-baseline" else 2
        want = [("codes", (3, 2))] if rank else []
        for i, ci in enumerate((in_dim, 16)):
            want.append((f"enc.mlp.l{i}.Wb", (ci, 16)))
            if rank:
                want.append((f"enc.mlp.l{i}.Wres", (2, ci, 16)))
            want.append((f"enc.mlp.l{i}.b", (16,)))
        assert [(n, store.value(n).shape) for n in names] == want
        digest = hashlib.sha256()
        for n in names:
            digest.update(store.value(n).tobytes())
        assert digest.hexdigest() == MLP_INIT_SHA256[variant]


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=7)}
        path = tmp_path / "ckpt.bin"
        dataio.write_checkpoint(path, arrays, {"note": 1})
        back, header = dataio.read_checkpoint(path)
        assert header == {"note": 1}
        for k, v in arrays.items():
            np.testing.assert_allclose(back[k], v, atol=1e-6)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 20)
        with pytest.raises(dataio.FormatError):
            dataio.read_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        dataio.write_checkpoint(path, {"a": np.ones((4, 4))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(dataio.FormatError):
            dataio.read_checkpoint(path)

    def test_deterministic_bytes(self, tmp_path):
        arrays = {"z": np.ones(3), "a": np.zeros((2, 2))}
        p1, p2 = tmp_path / "1.bin", tmp_path / "2.bin"
        dataio.write_checkpoint(p1, arrays)
        dataio.write_checkpoint(p2, dict(reversed(list(arrays.items()))))
        assert p1.read_bytes() == p2.read_bytes()
