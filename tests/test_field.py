import numpy as np
import pytest

from splinefield import autodiff as ad
from splinefield import dataio, spline, trainer
from splinefield.autodiff import Tape
from splinefield.field import VARIANTS, FieldConfig, SplineField

from gradcheck import fd_check


def _small_cfg(**kw):
    base = dict(variant="siren-resfields", n_knots=3, rank=2, hidden=16, depth=2)
    base.update(kw)
    return FieldConfig(**base)


def _points(n=6, seed=0):
    return np.random.default_rng(seed).uniform(-1, 1, size=(n, 3))


def _randomized(field, seed=99, scale=0.05):
    """Perturb the decoder so the field is not the identity."""
    rng = np.random.default_rng(seed)
    for name in field.store.names():
        if name.startswith("dec."):
            v = field.store.value(name)
            v += rng.normal(0, scale, v.shape)
    return field


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FieldConfig(variant="nope")
        with pytest.raises(ValueError):
            FieldConfig(n_knots=1)

    @pytest.mark.parametrize("bad", [dict(hidden=0), dict(depth=0), dict(grid_channels=0),
                                     dict(grid_levels=()), dict(grid_levels=(1, 8)),
                                     dict(w0=0.0), dict(w0=-5.0), dict(w0=np.nan),
                                     dict(w0=np.inf), dict(rank=-1)])
    def test_sizes_that_build_no_field_are_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            FieldConfig(**bad)

    @pytest.mark.parametrize("center, half", [((0.0, 0.0), 1.0), ((0.0, np.nan, 0.0), 1.0),
                                              ((0.0, 0.0, 0.0), 0.0),
                                              ((0.0, 0.0, 0.0), np.inf)])
    def test_bad_normalizer_is_rejected(self, center, half):
        with pytest.raises(ValueError, match="normalizer"):
            SplineField(_small_cfg(), _points(), normalizer=(center, half))

    @pytest.mark.parametrize("points, named", [
        (np.zeros((6, 2)), r"\[N_p, 3\]"), (np.zeros(3), r"\[N_p, 3\]"),
        (np.where(np.eye(6, 3) > 0, np.nan, 0.0), "finite"),
        (np.where(np.eye(6, 3) > 0, np.inf, 0.0), "finite")])
    def test_bad_canonical_points_are_rejected(self, points, named):
        with pytest.raises(ValueError, match=f"canonical points must be {named}"):
            SplineField(_small_cfg(), points)


class TestPredictKnot:
    def test_zero_init_decoder_gives_identity_states(self):
        f = SplineField(_small_cfg(), _points())
        tape = Tape()
        dx, m = f.predict_knot(tape, f.canonical, 0)
        np.testing.assert_array_equal(dx.value, np.zeros((6, 3)))
        np.testing.assert_array_equal(m.value, np.zeros((6, 3)))

    def test_deterministic(self):
        f = _randomized(SplineField(_small_cfg(), _points()))
        a = f.predict_knot(Tape(), f.canonical, 1)[0].value
        b = f.predict_knot(Tape(), f.canonical, 1)[0].value
        np.testing.assert_array_equal(a, b)

    def test_index_validation(self):
        f = SplineField(_small_cfg(), _points())
        with pytest.raises(ValueError):
            f.predict_knot(Tape(), f.canonical, 3)

    def test_coupled_variant_has_no_knots(self):
        f = SplineField(_small_cfg(variant="coupled4d-baseline"), _points())
        with pytest.raises(ValueError):
            f.predict_knot(Tape(), f.canonical, 0)

    def test_gradients_pass_fd_check(self):
        f = _randomized(SplineField(_small_cfg(), _points(4)))

        def loss(tape):
            dx, m = f.predict_knot(tape, f.canonical, 1)
            return ad.vmean(ad.mul(dx, dx)) + ad.vmean(ad.absolute(m))

        assert fd_check(loss, f.store, samples=30,
                        rng=np.random.default_rng(0)) < 1e-4


class TestDeform:
    def test_identity_field_returns_input(self):
        f = SplineField(_small_cfg(), _points())
        for t in (0.0, 0.37, 1.0):
            np.testing.assert_allclose(f.deform(f.canonical, t), f.canonical,
                                       atol=1e-15)

    def test_knot_time_query_equals_offset_prediction(self):
        f = _randomized(SplineField(_small_cfg(), _points()))
        for k in range(f.cfg.n_knots):
            t = k / (f.cfg.n_knots - 1)
            dx = f.predict_knot(Tape(), f.canonical, k)[0].value
            np.testing.assert_allclose(f.deform(f.canonical, t),
                                       f.canonical + dx, atol=1e-12)

    def test_mid_segment_matches_manual_composition(self):
        f = _randomized(SplineField(_small_cfg(), _points()))
        t = 0.63
        start, t_bar = spline.locate_segment(t, f.cfg.n_knots)
        dx0, m0 = f.predict_knot(Tape(), f.canonical, start)
        dx1, m1 = f.predict_knot(Tape(), f.canonical, start + 1)
        ends = (f.canonical + dx0.value, m0.value, f.canonical + dx1.value, m1.value)
        np.testing.assert_allclose(f.deform(f.canonical, t),
                                   spline.segment_derivative(ends, t_bar, 0),
                                   atol=1e-12)


class TestVelocityAcceleration:
    def test_identity_field_zero_velocity(self):
        f = SplineField(_small_cfg(), _points())
        np.testing.assert_allclose(f.velocity(f.canonical, 0.4), 0.0, atol=1e-15)
        np.testing.assert_allclose(f.acceleration(f.canonical, 0.4), 0.0, atol=1e-15)

    def test_velocity_at_knot_equals_tangent(self):
        f = _randomized(SplineField(_small_cfg(), _points()))
        m = f.predict_knot(Tape(), f.canonical, 1)[1].value
        t = 1 / (f.cfg.n_knots - 1)
        np.testing.assert_allclose(f.velocity(f.canonical, t), m, atol=1e-12)

    def test_velocity_matches_fd_of_deform(self):
        f = _randomized(SplineField(_small_cfg(), _points()))
        eps = 1e-6
        for t in (0.21, 0.52, 0.86):
            fd = (f.deform(f.canonical, t + eps)
                  - f.deform(f.canonical, t - eps)) / (2 * eps)
            v = f.velocity(f.canonical, t, physical=True)
            np.testing.assert_allclose(v, fd, rtol=1e-5, atol=1e-8)

    def test_acceleration_matches_fd_of_velocity(self):
        f = _randomized(SplineField(_small_cfg(), _points()))
        eps = 1e-6
        for t in (0.21, 0.86):
            # velocity is in t-bar units; its global-t derivative picks up
            # one factor of (n_knots - 1) relative to the t-bar acceleration
            fd = (f.velocity(f.canonical, t + eps)
                  - f.velocity(f.canonical, t - eps)) / (2 * eps)
            a = f.acceleration(f.canonical, t) * (f.cfg.n_knots - 1)
            np.testing.assert_allclose(a, fd, rtol=1e-4, atol=1e-8)

    def test_linear_in_tbar_motion_has_zero_acceleration(self):
        p0 = np.zeros((1, 3))
        p1 = np.ones((1, 3))
        ends = (p0, p1 - p0, p1, p1 - p0)
        np.testing.assert_allclose(spline.segment_derivative(ends, 0.3, 2), 0.0,
                                   atol=1e-14)


class TestAdvect:
    def test_dt_zero_equals_deform(self):
        f = _randomized(SplineField(_small_cfg(), _points()))
        np.testing.assert_allclose(f.advect(f.canonical, 0.8, 0.0),
                                   f.deform(f.canonical, 0.8), atol=1e-15)

    def test_identity_field_points_unchanged(self):
        f = SplineField(_small_cfg(), _points())
        np.testing.assert_allclose(f.advect(f.canonical, 1.0, 0.5),
                                   f.canonical, atol=1e-15)

    def test_validation(self):
        f = SplineField(_small_cfg(), _points())
        with pytest.raises(ValueError):
            f.advect(f.canonical, 1.5, 0.1)
        with pytest.raises(ValueError):
            f.advect(f.canonical, 0.5, -0.1)
        for dt in (np.nan, np.inf):
            with pytest.raises(ValueError, match="dt must be finite"):
                f.advect(f.canonical, 0.5, dt)


class TestNonFiniteQueryPoints:
    QUERIES = {"deform": lambda f, p: f.deform(p, 0.5),
               "velocity": lambda f, p: f.velocity(p, 0.5),
               "acceleration": lambda f, p: f.acceleration(p, 0.5),
               "advect": lambda f, p: f.advect(p, 0.5, 0.1)}

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_raises_for_every_variant(self, variant, bad, query):
        f = _randomized(SplineField(_small_cfg(variant=variant, grid_levels=(4, 8),
                                               grid_channels=4), _points()))
        pts = f.canonical.copy()
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="query points must be finite"):
            self.QUERIES[query](f, pts)


class TestQuinticField:
    def test_predict_knot_returns_curvature(self):
        f = SplineField(_small_cfg(quintic=True), _points())
        _, _, a = f.predict_knot(Tape(), f.canonical, 0)
        assert a.value.shape == (6, 3)

    def test_velocity_matches_fd(self):
        f = _randomized(SplineField(_small_cfg(quintic=True), _points()))
        eps = 1e-6
        t = 0.43
        fd = (f.deform(f.canonical, t + eps)
              - f.deform(f.canonical, t - eps)) / (2 * eps)
        np.testing.assert_allclose(f.velocity(f.canonical, t, physical=True), fd,
                                   rtol=1e-5, atol=1e-8)


class TestCoupledField:
    def test_deform_and_fd_velocity(self):
        f = _randomized(SplineField(_small_cfg(variant="coupled4d-baseline"),
                                    _points()))
        out = f.deform(f.canonical, 0.5)
        assert out.shape == (6, 3)
        assert np.all(np.isfinite(f.velocity(f.canonical, 0.5)))
        assert np.all(np.isfinite(f.acceleration(f.canonical, 0.5)))

    def test_times_outside_unit_interval_rejected(self):
        f = SplineField(_small_cfg(variant="coupled4d-baseline"), _points())
        with pytest.raises(ValueError):
            f.deform(f.canonical, 1.7)
        with pytest.raises(ValueError):
            f.velocity(f.canonical, [0.5, -3.0])


def _variant_cfg(variant, quintic=False):
    if variant in ("triplanes", "triaxes"):
        return FieldConfig(variant=variant, n_knots=4, rank=2, hidden=8,
                           grid_levels=(4, 8), grid_channels=3, quintic=quintic)
    return _small_cfg(variant=variant, n_knots=4, quintic=quintic)


_VARIANT_CASES = [("siren-resfields", False), ("pe-resfields", False),
                  ("triplanes", False), ("triaxes", False),
                  ("coupled4d-baseline", False), ("siren-resfields", True),
                  ("triplanes", True)]
_TIMES = [0.0, 0.1, 0.33, 0.34, 0.5, 0.9, 1.0]


def _count_knot_calls(monkeypatch) -> list:
    """Record the knot index of every SplineField.predict_knot call."""
    calls = []
    predict = SplineField.predict_knot

    def counting(self, tape, points, k):
        calls.append(k)
        return predict(self, tape, points, k)

    monkeypatch.setattr(SplineField, "predict_knot", counting)
    return calls


class TestMultiTimeQueries:
    @pytest.mark.parametrize("variant,quintic", _VARIANT_CASES)
    def test_sequence_equals_per_time_calls(self, variant, quintic):
        f = _randomized(SplineField(_variant_cfg(variant, quintic), _points(8)))
        queries = [lambda t: f.deform(f.canonical, t),
                   lambda t: f.velocity(f.canonical, t),
                   lambda t: f.velocity(f.canonical, t, physical=True),
                   lambda t: f.acceleration(f.canonical, t)]
        for query in queries:
            many = query(_TIMES)
            assert many.shape == (len(_TIMES), 8, 3)
            assert np.array_equal(many, np.stack([query(t) for t in _TIMES]))
            assert np.array_equal(query(np.asarray(_TIMES)), many)

    def test_scalar_time_keeps_point_shape(self):
        f = SplineField(_small_cfg(), _points())
        assert f.deform(f.canonical, 0.5).shape == (6, 3)
        assert f.deform(f.canonical, [0.5]).shape == (1, 6, 3)

    def test_every_time_is_validated(self):
        f = SplineField(_small_cfg(), _points())
        with pytest.raises(ValueError):
            f.deform(f.canonical, [0.2, 1.5])
        with pytest.raises(ValueError):
            f.velocity(f.canonical, [[0.2, 0.4]])
        with pytest.raises(ValueError):
            f.acceleration(f.canonical, [])

    def test_sequence_predicts_each_knot_once(self, monkeypatch):
        f = _randomized(SplineField(_small_cfg(n_knots=4), _points()))
        calls = _count_knot_calls(monkeypatch)
        f.deform(f.canonical, np.linspace(0.0, 1.0, 25))
        assert sorted(calls) == [0, 1, 2, 3]

    def test_evaluate_predicts_at_most_n_knots(self, monkeypatch):
        traj = dataio.gen_synthetic("composite", 40, 21, seed=0)
        split = dataio.split_frames(traj, dataio.SplitSpec(4, 0.5), seed=0)
        f = _randomized(SplineField(_small_cfg(n_knots=5), traj.positions[0]))
        expected, _ = trainer.evaluate(f, traj, split)
        calls = _count_knot_calls(monkeypatch)
        summary, _ = trainer.evaluate(f, traj, split)
        assert len(split.test_frames) == 15
        assert len(calls) <= f.cfg.n_knots
        assert summary == expected

    def test_advect_matches_separate_queries(self):
        f = _randomized(SplineField(_small_cfg(), _points()))
        expected = (f.deform(f.canonical, 0.7)
                    + f.velocity(f.canonical, 0.7, physical=True) * 0.25)
        assert np.array_equal(f.advect(f.canonical, 0.7, 0.25), expected)


class TestCheckpoint:
    @pytest.mark.parametrize("variant", ["siren-resfields", "triplanes",
                                         "coupled4d-baseline"])
    def test_save_load_round_trip(self, tmp_path, variant):
        cfg = _small_cfg(variant=variant)
        if variant == "triplanes":
            cfg = FieldConfig(variant=variant, n_knots=3, rank=2,
                              grid_levels=(4, 8), grid_channels=3)
        f = _randomized(SplineField(cfg, _points()))
        path = tmp_path / "field.ckpt"
        f.save(path)
        g = SplineField.load(path)
        assert g.cfg == f.cfg
        np.testing.assert_allclose(g.canonical, f.canonical, atol=1e-6)
        # f32 round trip: outputs agree to f32 precision, not bitwise
        np.testing.assert_allclose(g.deform(g.canonical, 0.4),
                                   f.deform(f.canonical, 0.4), atol=1e-4)

    def _rewrite(self, tmp_path, edit):
        path = tmp_path / "field.ckpt"
        SplineField(_small_cfg(), _points()).save(path)
        arrays, header = dataio.read_checkpoint(path)
        edit(arrays)
        dataio.write_checkpoint(path, arrays, header)
        return path

    def test_missing_array_is_format_error(self, tmp_path):
        path = self._rewrite(tmp_path, lambda a: a.pop("dec.l0.W"))
        with pytest.raises(dataio.FormatError, match="dec.l0.W"):
            SplineField.load(path)

    def test_misshaped_array_is_format_error(self, tmp_path):
        def shrink(arrays):
            arrays["enc.mlp.l1.Wb"] = arrays["enc.mlp.l1.Wb"][:, :3]
        path = self._rewrite(tmp_path, shrink)
        with pytest.raises(dataio.FormatError, match="enc.mlp.l1.Wb"):
            SplineField.load(path)

    def test_unexpected_array_is_format_error(self, tmp_path):
        path = self._rewrite(tmp_path, lambda a: a.update({"dec.l1.W": np.zeros((6, 6))}))
        with pytest.raises(dataio.FormatError, match="dec.l1.W"):
            SplineField.load(path)

    def test_save_is_deterministic(self, tmp_path):
        f = SplineField(_small_cfg(), _points())
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        f.save(p1)
        f.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
