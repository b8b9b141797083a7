import hashlib

import numpy as np
import pytest

from splinefield import autodiff as ad
from splinefield import dataio
from splinefield import encoders as enc
from splinefield.autodiff import ParamStore, Tape, Var
from splinefield.field import FieldConfig, SplineField


def _codes(values) -> ParamStore:
    store = ParamStore()
    store.add("codes", values)
    return store


class TestTemporalCodes:
    def test_rank_zero_is_empty(self):
        codes = enc.init_temporal_codes(5, 0, np.random.default_rng(0))
        assert codes.shape == (5, 0)
        assert enc.materialize_code(Tape(), _codes(codes), 5, 2).value.size == 0
        assert enc.materialize_code(Tape(), ParamStore(), 5, 2) is None

    def test_zero_codes_give_zero_vector(self):
        v = enc.materialize_code(Tape(), _codes(np.zeros((4, 3))), 4, 1)
        np.testing.assert_array_equal(v.value, np.zeros(3))

    def test_init_scale_monte_carlo(self):
        # half-normal mean: E|x| = sigma * sqrt(2/pi) ~ 0.00798 for sigma 0.01
        codes = enc.init_temporal_codes(100, 100, np.random.default_rng(1))
        assert np.mean(np.abs(codes)) == pytest.approx(0.008, abs=5e-4)

    def test_index_out_of_range(self):
        for store in (_codes(np.zeros((4, 3))), ParamStore()):   # rank > 0 and rank 0
            with pytest.raises(ValueError):
                enc.materialize_code(Tape(), store, 4, 4)

    def test_differentiable_wrt_codes(self):
        store = _codes(np.arange(6.0).reshape(2, 3))
        tape = Tape()
        v = enc.materialize_code(tape, store, 2, 1)
        tape.backward(ad.vsum(v))
        np.testing.assert_array_equal(store.grad("codes"),
                                      [[0, 0, 0], [1, 1, 1]])


class TestTimeVariantLinear:
    def test_zero_code_reduces_to_base(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 4))
        wb = rng.normal(size=(4, 2))
        wres = rng.normal(size=(2, 4, 2))
        b = rng.normal(size=2)
        tape = Tape()
        out = enc.tv_linear_apply(Var(x, tape), Var(wb, tape), Var(wres, tape),
                                  Var(b, tape), Var(np.zeros(2), tape))
        np.testing.assert_allclose(out.value, x @ wb + b, atol=1e-14)

    def test_residual_cancellation(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 4))
        wb = rng.normal(size=(4, 2))
        tape = Tape()
        out = enc.tv_linear_apply(Var(x, tape), Var(wb, tape),
                                  Var(-wb[None], tape), Var(np.zeros(2), tape),
                                  Var(np.ones(1), tape))
        np.testing.assert_allclose(out.value, np.zeros((3, 2)), atol=1e-14)

    def test_matches_explicit_materialization(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 4))
        wb = rng.normal(size=(4, 3))
        wres = rng.normal(size=(3, 4, 3))
        b = rng.normal(size=3)
        vt = rng.normal(size=3)
        tape = Tape()
        out = enc.tv_linear_apply(Var(x, tape), Var(wb, tape), Var(wres, tape),
                                  Var(b, tape), Var(vt, tape))
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
        x = np.random.default_rng(5).normal(size=(4, 3))
        np.testing.assert_array_equal(enc.positional_encode(x, 0), x)

    def test_first_frequency_at_half(self):
        out = enc.positional_encode(np.full((1, 3), 0.5), 1)
        np.testing.assert_allclose(out[0, 3:6], np.ones(3), atol=1e-15)   # sin(pi/2)
        np.testing.assert_allclose(out[0, 6:], np.zeros(3), atol=1e-15)   # cos(pi/2)

    def test_out_dim(self):
        assert enc.positional_encode(np.zeros((2, 3)), 4).shape == (2, 27)
        assert enc.positional_encode(np.zeros((2, 3)), 2).shape == (2, 15)


MLP_VARIANTS = ["siren-resfields", "pe-resfields", "coupled4d-baseline"]


def _build(variant, rank=2, n_knots=3, seed=0):
    """An encoder and its store; an MLP encoder as the field builds it, with
    the zero-initialised decoder's parameters in the store too."""
    if variant in MLP_VARIANTS:
        cfg = FieldConfig(variant=variant, n_knots=n_knots, rank=rank, hidden=16, depth=2)
        f = SplineField(cfg, np.eye(3), seed=seed)
        return f.encoder, f.store
    store = ParamStore()
    rng = np.random.default_rng(seed)
    grid = enc.TriplaneEncoder if variant == "triplanes" else enc.TriaxesEncoder
    return grid(store, rng, n_knots, rank, levels=(4, 8), channels=3), store


ALL_KNOT_VARIANTS = ["siren-resfields", "pe-resfields", "triplanes", "triaxes"]


class TestEncoders:
    @pytest.mark.parametrize("variant", ALL_KNOT_VARIANTS)
    def test_deterministic_and_time_varying(self, variant):
        e, store = _build(variant)
        x = np.random.default_rng(6).uniform(-1, 1, size=(4, 3))
        a = e.encode(Tape(), store, x, 0).value
        b = e.encode(Tape(), store, x, 0).value
        c = e.encode(Tape(), store, x, 1).value
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)   # codes differ per knot

    @pytest.mark.parametrize("variant", ALL_KNOT_VARIANTS)
    def test_rank_zero_is_time_invariant(self, variant):
        e, store = _build(variant, rank=0)
        x = np.random.default_rng(7).uniform(-1, 1, size=(4, 3))
        a = e.encode(Tape(), store, x, 0).value
        c = e.encode(Tape(), store, x, 2).value
        np.testing.assert_array_equal(a, c)

    @pytest.mark.parametrize("variant", ALL_KNOT_VARIANTS)
    def test_knot_index_validated(self, variant):
        e, store = _build(variant)
        x = np.zeros((1, 3))
        with pytest.raises(ValueError):
            e.encode(Tape(), store, x, 3)

    @pytest.mark.parametrize("variant", ALL_KNOT_VARIANTS)
    def test_gradients_pass_fd_check(self, variant):
        e, store = _build(variant)
        x = np.random.default_rng(8).uniform(-0.9, 0.9, size=(3, 3))

        def loss(tape):
            out = e.encode(tape, store, x, 1)
            return ad.vmean(ad.mul(out, out))

        err = ad.fd_check(loss, store, samples=30, rng=np.random.default_rng(0))
        assert err < 1e-4


class TestTriplanes:
    def test_constant_planes_give_constant_cubed(self):
        e, store = _build("triplanes", rank=0)
        c = 0.7
        for name in store.names():
            if name.startswith("enc.grid"):
                store.set_value(name, np.full(store.value(name).shape, c))
        out = e.encode(Tape(), store, np.random.default_rng(9).uniform(-1, 1, (5, 3)), 0)
        np.testing.assert_allclose(out.value, np.full(out.value.shape, c ** 3),
                                   atol=1e-12)

    def test_zero_plane_annihilates(self):
        e, store = _build("triplanes", rank=0)
        store.set_value("enc.grid.L0.xy.base",
                        np.zeros(store.value("enc.grid.L0.xy.base").shape))
        out = e.encode(Tape(), store, np.zeros((2, 3)), 0)
        np.testing.assert_array_equal(out.value[:, :3], np.zeros((2, 3)))


class TestTriaxes:
    def test_constant_axes_give_constant_cubed(self):
        e, store = _build("triaxes", rank=0)
        for name in store.names():
            if name.startswith("enc.grid"):
                store.set_value(name, np.full(store.value(name).shape, 0.5))
        out = e.encode(Tape(), store, np.random.default_rng(11).uniform(-1, 1, (4, 3)), 0)
        np.testing.assert_allclose(out.value, np.full(out.value.shape, 0.125),
                                   atol=1e-14)


def _lazy_encode(e, tape, store, x, knot_idx):
    """Oracle: sample each factor's base and every residual grid separately
    (1 + rank samples), then weight the residual samples by v_t. By linearity
    of interpolation this equals sampling the grid built at the knot."""
    v_t = ad.take(store.var("codes", tape), np.array(knot_idx)) if e.rank > 0 else None
    feats = []
    for li, d in enumerate(e.levels):
        level = None
        for fname, axes in e.FACTORS:
            key = f"enc.grid.L{li}.{fname}"
            coords = [enc._to_grid_units(x[:, a], d) for a in axes]
            sample = ad.bilinear_sample if len(axes) == 2 else ad.linear_sample
            f = sample(store.var(f"{key}.base", tape), *coords)
            if e.rank > 0:
                res = store.var(f"{key}.res", tape)
                for r in range(e.rank):
                    f = ad.add(f, ad.mul(v_t[np.array(r)], sample(res[r], *coords)))
            level = f if level is None else ad.mul(level, f)
        feats.append(level)
    return ad.concat(feats, axis=1)


# factor names and the number of coordinates each factor's grid spans
GRID_FACTORS = {"triplanes": (("xy", "yz", "xz"), 2), "triaxes": (("x", "y", "z"), 1)}
# sha256 of every parameter's float64 bytes, in store order, for _build(variant)
GRID_INIT_SHA256 = {
    "triplanes": "3731420985563a74bd15a7296180b023b059b044f3a1885666b381b141b22b6c",
    "triaxes": "43a61d6e80d71c26094378608d88d3d7518cb2e3c7751d14f042e8addd8836d5",
}


def _materialized(e, store: ParamStore, level: int, factor: str,
                  knot_idx: int) -> np.ndarray:
    """Explicit grid base + sum_r v_t[r] * res[r] in numpy; the oracle of
    the equivalence tests."""
    key = f"enc.grid.L{level}.{factor}"
    p = store.value(f"{key}.base").copy()
    if e.rank > 0:
        v = store.value("codes")[knot_idx]
        p += np.tensordot(v, store.value(f"{key}.res"), axes=(0, 0))
    return p


class TestGridEncoders:
    @pytest.mark.parametrize("variant", ["triplanes", "triaxes"])
    def test_encode_equals_sampling_materialized_grid(self, variant):
        e, store = _build(variant, rank=3)
        x = np.random.default_rng(10).uniform(-0.95, 0.95, size=(6, 3))
        got = e.encode(Tape(), store, x, 1).value
        feats = []
        for li, d in enumerate(e.levels):
            level = None
            for fname, axes in e.FACTORS:
                grid = Var(_materialized(e, store, li, fname, 1), Tape())
                coords = [enc._to_grid_units(x[:, a], d) for a in axes]
                sample = ad.bilinear_sample if len(axes) == 2 else ad.linear_sample
                f = sample(grid, *coords).value
                level = f if level is None else level * f
            feats.append(level)
        np.testing.assert_allclose(got, np.concatenate(feats, axis=1), atol=1e-12)

    @pytest.mark.parametrize("rank", [0, 3])
    @pytest.mark.parametrize("variant", ["triplanes", "triaxes"])
    def test_values_and_gradients_match_lazy_sampling(self, variant, rank):
        e, store = _build(variant, rank=rank)
        rng = np.random.default_rng(15)
        x = rng.uniform(-1.1, 1.1, size=(7, 3))
        w = rng.normal(size=(7, e.out_dim))
        results = []
        for route in (e.encode, lambda *a: _lazy_encode(e, *a)):
            store.zero_grad()
            tape = Tape()
            out = route(tape, store, x, 2)
            tape.backward(ad.vsum(ad.mul(out, w)))
            results.append((out.value, {n: store.grad(n).copy() for n in store.names()}))
        (got, got_grads), (want, want_grads) = results
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for name in store.names():
            assert np.any(want_grads[name] != 0), name
            np.testing.assert_allclose(got_grads[name], want_grads[name], rtol=0,
                                       atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("variant", ["triplanes", "triaxes"])
    def test_same_seed_init_is_pinned(self, variant):
        _, store = _build(variant)
        factors, k = GRID_FACTORS[variant]
        want = [("codes", (3, 2))] + [
            (f"enc.grid.L{li}.{f}.{part}", (2,) * (part == "res") + (d,) * k + (3,))
            for li, d in enumerate((4, 8)) for f in factors for part in ("base", "res")]
        assert [(n, store.value(n).shape) for n in store.names()] == want
        digest = hashlib.sha256()
        for n in store.names():
            digest.update(store.value(n).tobytes())
        assert digest.hexdigest() == GRID_INIT_SHA256[variant]


class TestCoupled4D:
    def test_time_changes_output_for_static_input(self):
        e, store = _build("coupled4d-baseline")
        x = np.zeros((2, 3))
        a = e.encode(Tape(), store, x, None, 0.0).value
        b = e.encode(Tape(), store, x, None, 1.0).value
        assert not np.allclose(a, b)


# sha256 of every encoder parameter's float64 bytes, in store order, for _build(variant)
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
