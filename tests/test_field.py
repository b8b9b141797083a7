import re
import time
import tracemalloc

import numpy as np
import pytest

from splinefield import autodiff as ad
from splinefield import dataio, spline, trainer
from splinefield import field as field_module
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


def _state(f, tape, k):
    """Knot k's state on the field's canonical points, predicted alone."""
    return f.knot_states(tape, f.canonical, [k])[k]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FieldConfig(variant="nope")
        with pytest.raises(ValueError):
            FieldConfig(n_knots=1)

    @pytest.mark.parametrize("bad", [dict(hidden=0), dict(depth=0), dict(grid_channels=0),
                                     dict(grid_levels=()), dict(grid_levels=(1, 8)),
                                     dict(w0=0.0), dict(w0=-5.0), dict(w0=np.nan),
                                     dict(w0=np.inf), dict(rank=-1),
                                     # sizes are integers, quintic a bool, w0 a number,
                                     # grid_levels a list or tuple of integers
                                     dict(n_knots=3.0), dict(rank=True), dict(hidden=16.0),
                                     dict(depth=np.float64(2)), dict(pe_frequencies=4.0),
                                     dict(grid_channels=False), dict(grid_levels=(32, 64.0)),
                                     dict(quintic=0), dict(grid_levels=5),
                                     dict(w0=True), dict(w0="30")])
    def test_sizes_that_build_no_field_are_rejected(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            FieldConfig(**bad)

    def test_numpy_integer_sizes_are_accepted(self):
        cfg = FieldConfig(n_knots=np.int64(3), rank=np.int32(2), grid_levels=(np.int16(4), 8),
                          w0=np.float32(30))
        assert SplineField(cfg, _points()).store.value("codes").shape == (3, 2)

    def test_numpy_scalars_are_stored_as_python_values(self):
        cfg = FieldConfig(n_knots=np.int64(3), rank=np.uint8(2), w0=np.float32(30),
                          grid_levels=[np.int64(16), 32], quintic=np.True_)
        assert cfg == FieldConfig(n_knots=3, rank=2, w0=30.0, grid_levels=(16, 32), quintic=True)
        assert [type(getattr(cfg, k)) for k in ("n_knots", "rank", "w0", "quintic")] == \
            [int, int, float, bool]
        assert type(cfg.grid_levels) is tuple and set(map(type, cfg.grid_levels)) == {int}

    @pytest.mark.parametrize("value", [5, None, "16,32", b"16", 16.0, {16: 32}])
    def test_grid_levels_type_is_checked_before_conversion(self, value):
        message = f"grid_levels must be integers, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FieldConfig(grid_levels=value)

    @pytest.mark.parametrize("value", [10 ** 400, -(10 ** 400), 2 ** 1024 - 2 ** 970],
                             ids=["10**400", "-10**400", "2**1024-2**970"])
    def test_an_integer_past_float64_is_not_a_number(self, value):
        with pytest.raises(ValueError, match="^w0 must be a number, got "):
            FieldConfig(w0=value)
        assert FieldConfig(w0=2 ** 1024 - 2 ** 970 - 1).w0 == np.finfo(np.float64).max

    @pytest.mark.parametrize("value", [-3, 53, 100000])
    def test_pe_frequencies_outside_its_bound_is_rejected(self, value):
        with pytest.raises(ValueError, match=rf"pe_frequencies must be in \[0, 52\], "
                                             rf"got {value}"):
            FieldConfig(variant="pe-resfields", pe_frequencies=value)

    @pytest.mark.parametrize("center, half", [((0.0, 0.0), 1.0), ((0.0, np.nan, 0.0), 1.0),
                                              ((0.0, 0.0, 0.0), 0.0),
                                              ((0.0, 0.0, 0.0), np.inf),
                                              ((0.0, 0.0, 0.0), 1e-310),
                                              ((1e308, 0.0, 0.0), 0.5),
                                              # a bool or a string is not a number
                                              ((0.0, 0.0, 0.0), True),
                                              ((0.0, 0.0, 0.0), "0.5"),
                                              ((True, 0.0, 0.0), 0.5),
                                              (("0", 0.0, 0.0), 0.5)])
    def test_bad_normalizer_is_rejected(self, center, half):
        with pytest.raises(ValueError, match="normalizer"):
            SplineField(_small_cfg(), _points(), normalizer=(center, half))

    @pytest.mark.parametrize("key, value", [("half_extent", True), ("half_extent", "0.5"),
                                            ("center", [True, 0, 0]), ("center", ["0", 0, 0]),
                                            # an integer past float64
                                            ("half_extent", 10 ** 400),
                                            ("center", [10 ** 400, 0, 0])])
    def test_a_header_normalizer_that_is_not_numbers_is_refused(self, tmp_path, key, value):
        path = tmp_path / "field.ckpt"
        SplineField(_small_cfg(), _points()).save(path)
        arrays, header = dataio.read_checkpoint(path)
        dataio.write_checkpoint(path, arrays, {**header, key: value})
        with pytest.raises(dataio.FormatError, match="normalizer must be numbers"):
            SplineField.load(path)

    @pytest.mark.parametrize("points, named", [
        (np.zeros((6, 2)), r"\[N_p, 3\]"), (np.zeros(3), r"\[N_p, 3\]"),
        (np.where(np.eye(6, 3) > 0, np.nan, 0.0), "finite"),
        (np.where(np.eye(6, 3) > 0, np.inf, 0.0), "finite"),
        (np.zeros((0, 3)), r"\[N_p, 3\] with N_p >= 1")])
    def test_bad_canonical_points_are_rejected(self, points, named):
        with pytest.raises(ValueError, match=f"canonical points must be {named}"):
            SplineField(_small_cfg(), points)


class TestPredictKnot:
    def test_zero_init_decoder_gives_identity_states(self):
        f = SplineField(_small_cfg(), _points())
        x, m = _state(f, Tape(), 0)
        np.testing.assert_array_equal(x.value, f.canonical)
        np.testing.assert_array_equal(m.value, np.zeros((6, 3)))

    def test_deterministic(self):
        f = _randomized(SplineField(_small_cfg(), _points()))
        a = _state(f, Tape(), 1)[0].value
        b = _state(f, Tape(), 1)[0].value
        np.testing.assert_array_equal(a, b)

    def test_index_validation(self):
        f = SplineField(_small_cfg(), _points())
        with pytest.raises(ValueError, match="out of range"):
            _state(f, Tape(), 3)

    def test_coupled_variant_has_no_knots(self):
        f = SplineField(_small_cfg(variant="coupled4d-baseline"), _points())
        assert f.knot_states(Tape(), f.canonical, [0, 1]) == {}
        with pytest.raises(ValueError, match="no knot states"):
            f.predict_knot(Tape(), None, 0)

    def test_gradients_pass_fd_check(self):
        f = _randomized(SplineField(_small_cfg(), _points(4)))

        def loss(tape):
            dx, m = _state(f, tape, 1)
            return ad.vmean(ad.mul(dx, dx)) + ad.vmean(ad.absolute(m))

        assert fd_check(loss, f.store, samples=30,
                        rng=np.random.default_rng(0)) < 1e-4


class TestDeform:
    def test_identity_field_returns_input(self):
        f = SplineField(_small_cfg(), _points())
        for t in (0.0, 0.37, 1.0):
            np.testing.assert_allclose(f.deform(f.canonical, t), f.canonical,
                                       atol=1e-15)

    def test_knot_time_query_equals_the_knot_position(self):
        for variant, quintic in _SPLINE_CASES:
            f = _randomized(SplineField(_variant_cfg(variant, quintic), _points()))
            for k in range(f.cfg.n_knots):
                t = k / (f.cfg.n_knots - 1)
                np.testing.assert_allclose(f.deform(f.canonical, t),
                                           _state(f, Tape(), k)[0].value, atol=1e-12,
                                           err_msg=f"{variant} quintic={quintic} knot {k}")

    def test_mid_segment_matches_manual_composition(self):
        f = _randomized(SplineField(_small_cfg(), _points()))
        t = 0.63
        start, t_bar = spline.locate_segment(t, f.cfg.n_knots)
        ends = (*_state(f, Tape(), start), *_state(f, Tape(), start + 1))
        np.testing.assert_allclose(f.deform(f.canonical, t),
                                   spline.segment_derivative([e.value for e in ends], t_bar, 0),
                                   atol=1e-12)

    @pytest.mark.parametrize("quintic, nodes", [(False, 7), (True, 11)])
    def test_a_query_of_listed_knots_records_only_the_segment_basis(self, quintic, nodes):
        # one product per end state and the adds that sum them: the states
        # already hold the knot positions, so nothing adds the points again
        f = SplineField(_small_cfg(quintic=quintic), _points())
        tape = Tape()
        states = f.knot_states(tape, f.canonical, [1, 2])
        before = len(tape._nodes)
        f.deform_var(tape, f.canonical, 0.8, states)
        assert len(tape._nodes) - before == nodes


class TestVelocityAcceleration:
    def test_identity_field_zero_velocity(self):
        f = SplineField(_small_cfg(), _points())
        np.testing.assert_allclose(f.velocity(f.canonical, 0.4), 0.0, atol=1e-15)
        np.testing.assert_allclose(f.acceleration(f.canonical, 0.4), 0.0, atol=1e-15)

    def test_velocity_at_knot_equals_tangent(self):
        f = _randomized(SplineField(_small_cfg(), _points()))
        m = _state(f, Tape(), 1)[1].value
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

    @pytest.mark.parametrize("from_t, dt, named", [
        ("abc", 0.1, "from_t"), (np.array([0.2, 0.3]), 0.1, "from_t"), ([0.5], 0.1, "from_t"),
        (True, 0.1, "from_t"), (None, 0.1, "from_t"), (0.5, "x", "dt"), (0.5, True, "dt"),
        (0.5, np.array([0.1, 0.2]), "dt"), (0.5, None, "dt")])
    def test_a_non_number_is_a_value_error_naming_it(self, from_t, dt, named):
        f = SplineField(_small_cfg(), _points())
        with pytest.raises(ValueError, match=f"^{named} must be a number, got "):
            f.advect(f.canonical, from_t, dt)


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


class TestQueryPointShapes:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_points_that_are_not_n_by_3_raise_naming_the_shape(self, variant):
        f = _randomized(SplineField(_small_cfg(variant=variant, grid_levels=(4, 8),
                                               grid_channels=4), _points()))
        for shape in ((3,), (5, 2), (2, 3, 1), (5, 4)):
            for name, query in TestNonFiniteQueryPoints.QUERIES.items():
                with pytest.raises(ValueError, match=re.escape(
                        f"query points must be [N, 3], got shape {shape}")):
                    query(f, np.zeros(shape))


class TestQuinticField:
    def test_predict_knot_returns_curvature(self):
        f = SplineField(_small_cfg(quintic=True), _points())
        _, _, a = _state(f, Tape(), 0)
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
_SPLINE_CASES = [(v, q) for v in VARIANTS if v != "coupled4d-baseline" for q in (False, True)]
_TIMES = [0.0, 0.1, 0.33, 0.34, 0.5, 0.9, 1.0]


def _count_knot_calls(monkeypatch) -> list:
    """Record the knot index of every SplineField.predict_knot call."""
    calls = []
    predict = SplineField.predict_knot

    def counting(self, tape, spatial, k, memo=None):
        calls.append(k)
        return predict(self, tape, spatial, k, memo)

    monkeypatch.setattr(SplineField, "predict_knot", counting)
    return calls


def _spy_spatial(monkeypatch, f) -> list:
    """Per call of f's encoder `spatial`, [its knots argument, the knots then
    predicted from what it returned, in order]; other fields go unrecorded."""
    made = []
    spatial, predict = f.encoder.spatial, SplineField.predict_knot

    def spying(tape, store, x_norm, knots, rows):
        made.append([spatial(tape, store, x_norm, knots, rows), knots, []])
        return made[-1][0]

    def counting(self, tape, sp, k, memo=None):
        for m in made:
            if m[0] is sp:
                m[2].append(k)
        return predict(self, tape, sp, k, memo)

    monkeypatch.setattr(f.encoder, "spatial", spying)
    monkeypatch.setattr(SplineField, "predict_knot", counting)
    return made


class TestArrayQueries:
    """A query runs the training code on arrays, with no tape and no Var."""

    @pytest.mark.parametrize("variant, quintic", _VARIANT_CASES)
    def test_deform_var_with_no_tape_returns_an_array(self, variant, quintic):
        f = _randomized(SplineField(_variant_cfg(variant, quintic), _points()))
        out = f.deform_var(None, f.canonical, 0.63)
        assert type(out) is np.ndarray
        want = f.deform_var(Tape(), f.canonical, 0.63).value
        assert out.shape == want.shape and out.tobytes() == want.tobytes()
        assert out.tobytes() == f.deform(f.canonical, 0.63).tobytes()

    @pytest.mark.parametrize("variant, quintic", _VARIANT_CASES)
    def test_a_query_makes_no_var(self, variant, quintic, monkeypatch):
        f = _randomized(SplineField(_variant_cfg(variant, quintic), _points(8)))
        traj = dataio.TrajectorySet(np.stack([f.canonical + 0.01 * i for i in range(5)]))
        split = dataio.split_frames(traj, dataio.SplitSpec(2, 0.5), seed=0)
        made, init = [], ad.Var.__init__

        def counted(self, *args):
            made.append(1)
            init(self, *args)

        monkeypatch.setattr(ad.Var, "__init__", counted)
        f.deform(f.canonical, [0.2, 0.7])
        f.velocity(_points(5, seed=1), 0.4)
        trainer.evaluate(f, traj, split, k=3)
        assert made == []
        f.deform_var(Tape(), f.canonical, 0.2)      # the counter sees a tape's Vars
        assert made


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

    @pytest.mark.parametrize("variant", ["siren-resfields", "pe-resfields", "triplanes"])
    def test_sequence_computes_the_spatial_encoding_once(self, monkeypatch, variant):
        # once per call, told how many knots will modulate it: the size rule's input
        f = _randomized(SplineField(_variant_cfg(variant, False), _points(8)))
        calls = []
        spatial = f.encoder.spatial

        def counting(tape, store, x_norm, knots, rows):
            calls.append((len(x_norm), knots))
            return spatial(tape, store, x_norm, knots, rows)
        monkeypatch.setattr(f.encoder, "spatial", counting)
        f.deform(f.canonical, np.linspace(0.0, 1.0, 25))
        f.deform(f.canonical, [0.1, 0.2, 0.3])
        f.velocity(f.canonical, 0.3)
        f.advect(f.canonical, 0.3, 0.1)
        assert calls == [(8, 4), (8, 2), (8, 2), (8, 2)]

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

    @pytest.mark.parametrize("variant,loaded", [("siren-resfields", False),
                                                ("siren-resfields", True),
                                                ("triplanes", False), ("triplanes", True)])
    def test_a_scalar_time_is_a_sequence_of_one(self, tmp_path, variant, loaded):
        f = _randomized(SplineField(_variant_cfg(variant), _points(8)))
        if loaded:
            f.save(tmp_path / "f.ckpt")
            f = SplineField.load(tmp_path / "f.ckpt")
        for query in (f.deform, f.velocity, f.acceleration):
            for t in (0, 0.37, 1.0):
                want = query(f.canonical, [t])[0]
                for scalar in (t, np.float64(t), np.array(t)):
                    got = query(f.canonical, scalar)
                    assert got.shape == (8, 3) and np.array_equal(got, want), (query, t)

    def test_a_non_numeric_time_is_a_value_error(self):
        f = SplineField(_small_cfg(), _points())
        for query in (f.deform, f.velocity, f.acceleration):
            with pytest.raises(ValueError, match="abc"):
                query(f.canonical, "abc")
            for bad in (True, [0.2, "0.3"], [0.2, None], [[0.2], [0.3, 0.4]]):
                with pytest.raises(ValueError, match="^t_query must be a number"):
                    query(f.canonical, bad)

    def test_each_spatial_is_made_for_the_knots_predicted_from_it(self, monkeypatch):
        # a seeded field: one spatial per call, its knots in first-use order
        f = _randomized(SplineField(_variant_cfg("triplanes"), _points(8)))
        made = _spy_spatial(monkeypatch, f)
        pts = _points(5, seed=1)
        f.deform(pts, [0.9, 0.1, 0.4])
        f.deform(pts, [0.1])
        f.velocity(pts, 0.5)
        f.advect(pts, 0.2, 0.1)
        assert [(knots, ks) for _, knots, ks in made] == [
            (4, [2, 3, 0, 1]), (2, [0, 1]), (2, [1, 2]), (2, [0, 1])]

    def test_a_repeated_knot_is_predicted_once(self, monkeypatch):
        f = _randomized(SplineField(_variant_cfg("triplanes"), _points(8)))
        made = _spy_spatial(monkeypatch, f)
        states = f.knot_states(Tape(), _points(5, seed=1), [1, 1, 0])
        assert list(states) == [1, 0]
        assert [(knots, ks) for _, knots, ks in made] == [(2, [1, 0])]

    def test_a_query_predicts_in_the_order_its_times_read_the_knots(self, monkeypatch):
        f = _randomized(SplineField(_small_cfg(n_knots=6), _points()))
        calls = _count_knot_calls(monkeypatch)
        f.velocity(f.canonical, [0.5, 0.95, 0.05, 0.5, 0.45])
        assert calls == [2, 3, 4, 5, 0, 1]

    def test_advect_matches_separate_queries(self):
        f = _randomized(SplineField(_small_cfg(), _points()))
        expected = (f.deform(f.canonical, 0.7)
                    + f.velocity(f.canonical, 0.7, physical=True) * 0.25)
        assert np.array_equal(f.advect(f.canonical, 0.7, 0.25), expected)


_BLOCK_CASES = [(v, False) for v in VARIANTS] + [
    (v, True) for v in VARIANTS if v != "coupled4d-baseline"]


def _every_query(f, pts) -> list:
    """Every plain-array query of pts: multi-time, single-time and streamed."""
    return [f.deform(pts, _TIMES), f.velocity(pts, _TIMES), f.acceleration(pts, _TIMES),
            f.velocity(pts, _TIMES, physical=True), f.deform(pts, 0.62),
            f.velocity(pts, 0.3), f.acceleration(pts, 1.0), f.advect(pts, 0.3, 0.25),
            np.stack(list(f.deform_frames(pts, _TIMES)))]


def _rows_sum_alike(f, n) -> bool:
    """Whether this BLAS sums each row of an [n, ci] @ [ci, co] matmul alike
    in every block of `_blocks(n)` and in the whole matrix, for each layer
    weight of f: the assumption under which a blocked query is bitwise the
    unblocked call. It held with OpenBLAS 0.3.31 on an AVX-512 Xeon; a BLAS
    that sums a small or odd block by another kernel moves the last bits."""
    rng = np.random.default_rng(0)
    for name in f.store.names():
        if name.endswith((".W", ".Wb")):
            a, w = rng.normal(size=(n, f.store.value(name).shape[0])), f.store.value(name)
            if not np.array_equal(np.concatenate([a[r] @ w for r in field_module._blocks(n)]),
                                  a @ w):
                return False
    return True


def _assert_blocked_equal(blocked, whole, bitwise):
    """Blocked query outputs against the unblocked ones: bitwise where the
    BLAS sums rows alike (`_rows_sum_alike`), else up to rounding."""
    for i, (got, want) in enumerate(zip(blocked, whole)):
        if bitwise:
            assert np.array_equal(got, want), i
        else:
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12, err_msg=str(i))


def _spy_blocks(monkeypatch) -> list:
    """The spatial argument of every SplineField.predict_knot call."""
    seen = []
    predict = SplineField.predict_knot

    def spying(self, tape, spatial, k, memo=None):
        seen.append(spatial)
        return predict(self, tape, spatial, k, memo)

    monkeypatch.setattr(SplineField, "predict_knot", spying)
    return seen


class TestQueryBlocks:
    @pytest.mark.parametrize("variant,quintic", _BLOCK_CASES)
    def test_blocked_queries_equal_the_unblocked_call(self, monkeypatch, variant, quintic):
        # 300 points in blocks of at most 64: five blocks of 60 rows
        pts = _points(300, seed=4)
        f = _randomized(SplineField(_variant_cfg(variant, quintic), pts))
        monkeypatch.setattr(field_module, "QUERY_BLOCK", 10 ** 9)
        whole = _every_query(f, pts)
        monkeypatch.setattr(field_module, "QUERY_BLOCK", 64)
        _assert_blocked_equal(_every_query(f, pts), whole, _rows_sum_alike(f, 300))
        calls = _count_knot_calls(monkeypatch)
        f.deform(pts, _TIMES)
        assert len(calls) == (0 if variant == "coupled4d-baseline" else 5 * f.cfg.n_knots)

    @pytest.mark.parametrize("variant,quintic", [("siren-resfields", False),
                                                 ("pe-resfields", True),
                                                 ("triplanes", False), ("triplanes", True),
                                                 ("triaxes", False),
                                                 ("coupled4d-baseline", False)])
    def test_one_point_past_a_block_keeps_the_bits(self, monkeypatch, variant, quintic):
        # two blocks of about 2048 rows; with OpenBLAS 0.3.31 on an AVX-512
        # Xeon, blocks of 4096 and 1 moved the bits: a lone row took another kernel
        n = field_module.QUERY_BLOCK + 1
        pts = _points(n, seed=4)
        f = _randomized(SplineField(_variant_cfg(variant, quintic), pts))
        # every spline variant keeps its bits; the coupled baseline's decoder
        # product keeps them only where the BLAS sums the real blocks' rows
        # alike, so it is probed before the bound is lifted
        blocked = f.deform(pts, _TIMES)
        alike = variant != "coupled4d-baseline" or _rows_sum_alike(f, n)
        monkeypatch.setattr(field_module, "QUERY_BLOCK", 10 ** 9)
        _assert_blocked_equal([blocked], [f.deform(pts, _TIMES)], alike)

    def test_every_grid_block_takes_the_case_of_the_whole_set(self, monkeypatch):
        # 600 points sample each level-32 plane at every knot, case (b); a
        # block of 60, below the plane's 1024 cells, would alone take case (a)
        cfg = FieldConfig(variant="triplanes", n_knots=4, rank=2, hidden=8,
                          grid_levels=(4, 32), grid_channels=3)
        pts = _points(600, seed=5)
        f = _randomized(SplineField(cfg, pts))
        monkeypatch.setattr(field_module, "QUERY_BLOCK", 10 ** 9)
        whole = _every_query(f, pts)
        monkeypatch.setattr(field_module, "QUERY_BLOCK", 64)
        seen = _spy_blocks(monkeypatch)
        blocked = _every_query(f, pts)
        # case (b) in every block: each factor's S, of the block's 60 rows
        assert {S is not None and S.shape[0] for spatial in seen for level in spatial
                for _, _, S in level} == {60}
        _assert_blocked_equal(blocked, whole, _rows_sum_alike(f, 600))

    def test_a_block_reads_its_rows_of_the_case_a_samples(self, monkeypatch):
        # 300 points and four knots sample each level-32 plane once, case (a),
        # and each level-4 plane per knot, case (b)
        cfg = FieldConfig(variant="triplanes", n_knots=4, rank=2, hidden=8,
                          grid_levels=(4, 32), grid_channels=3)
        pts = _points(300, seed=5)
        f = _randomized(SplineField(cfg, pts))
        monkeypatch.setattr(field_module, "QUERY_BLOCK", 10 ** 9)
        whole = f.deform(pts, _TIMES)
        monkeypatch.setattr(field_module, "QUERY_BLOCK", 64)
        seen = _spy_blocks(monkeypatch)
        blocked = f.deform(pts, _TIMES)
        assert len(seen) == 5 * 4
        for coarse, fine in seen:
            assert all(S.shape[0] == 60 for _, _, S in coarse)
            assert all(S is None and base.shape[0] == 60 and res.shape[1] == 60
                       for base, res, S in fine)
        _assert_blocked_equal([blocked], [whole], _rows_sum_alike(f, 300))

    def test_a_block_bounds_the_live_memory_of_every_variant(self, monkeypatch):
        # each block makes its own spatial, so no query holds the whole set's
        # PE features or interpolation matrices, and the coupled baseline's
        # MLP runs per block too: with blocks of 256 of 3000 points every
        # variant peaks near siren, whose spatial is the points
        monkeypatch.setattr(field_module, "QUERY_BLOCK", 256)
        pts = _points(3000, seed=6)
        peaks = {}
        for variant in VARIANTS:
            f = SplineField(_small_cfg(variant=variant, grid_levels=(8, 16), grid_channels=4),
                            pts)
            f.deform(pts[:8], 0.5)
            tracemalloc.start()
            try:
                f.deform(pts, 0.5)
                peaks[variant] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        siren = peaks.pop("siren-resfields")
        assert all(peak < 1.4 * siren for peak in peaks.values()), (siren, peaks)

    @pytest.mark.parametrize("variant,quintic", _BLOCK_CASES)
    def test_a_blocked_tape_equals_the_one_block_tape(self, monkeypatch, variant, quintic):
        # 300 points in blocks of at most 64: the tape records five blocks of
        # 60 rows, whose loss and gradients differ from one block's only in
        # the order they are summed, so each gradient entry is held to its
        # array's largest (a sum that cancels loses its relative digits); the
        # coupled baseline's second difference would magnify that by 1e6
        pts = _points(300, seed=4)
        f = _randomized(SplineField(_variant_cfg(variant, quintic), pts))
        weights = np.random.default_rng(7).normal(size=(300, 3))
        encode, encodes = f.encoder.encode, []
        monkeypatch.setattr(f.encoder, "encode", lambda *a: encodes.append(a) or encode(*a))
        queries = [f.deform_var, f.velocity_var]
        if variant != "coupled4d-baseline":
            queries.append(f.acceleration_var)

        def loss_and_grads():
            tape, states, loss = Tape(), {}, 0.0
            for var in queries:
                loss = ad.add(loss, ad.vsum(ad.mul(var(tape, pts, 0.4, states=states), weights)))
            f.store.zero_grad()
            tape.backward(loss)
            return loss.value, {n: f.store.grad(n).copy() for n in f.store.names()}

        monkeypatch.setattr(field_module, "QUERY_BLOCK", 10 ** 9)
        whole = loss_and_grads()
        one_block = len(encodes)
        encodes.clear()
        monkeypatch.setattr(field_module, "QUERY_BLOCK", 64)
        blocked = loss_and_grads()
        assert len(encodes) == 5 * one_block
        np.testing.assert_allclose(blocked[0], whole[0], rtol=1e-12)
        for name, grad in whole[1].items():
            np.testing.assert_allclose(blocked[1][name], grad, rtol=1e-12,
                                       atol=1e-12 * np.abs(grad).max(), err_msg=name)

    @pytest.mark.parametrize("variant", ["siren-resfields", "pe-resfields", "triplanes",
                                         "triaxes"])
    def test_a_knot_modulates_its_tensors_once_per_call(self, monkeypatch, variant):
        # 600 points and four knots: every factor takes case (b), whose grid,
        # like an MLP layer's weight, is one low_rank per knot in any block count
        cfg = FieldConfig(variant=variant, n_knots=4, rank=2, hidden=8, depth=2,
                          grid_levels=(4, 32), grid_channels=3)
        pts = _points(600, seed=5)
        f = _randomized(SplineField(cfg, pts))
        stack_sum, sums = ad.weighted_stack_sum, []
        monkeypatch.setattr(ad, "weighted_stack_sum",
                            lambda v, s: sums.append(v) or stack_sum(v, s))
        per_knot = cfg.depth if variant.endswith("resfields") else 2 * 3   # layers, factors
        for block in (10 ** 9, 64):     # one block, then ten of 60 rows
            monkeypatch.setattr(field_module, "QUERY_BLOCK", block)
            sums.clear()
            f.deform(pts, _TIMES)
            assert len(sums) == per_knot * cfg.n_knots, block

    def test_blocks_share_one_even_size_within_the_bound(self, monkeypatch):
        monkeypatch.setattr(field_module, "QUERY_BLOCK", 64)
        for n in (0, 1, 63, 64, 65, 129, 300, 1001):
            rows = field_module._blocks(n)
            sizes = [len(range(n)[r]) for r in rows]
            assert sum(sizes) == n and max(sizes) <= 64, n
            assert len(set(sizes[:-1])) <= 1 and all(s % 2 == 0 for s in sizes[:-1]), n
        # one point past the bound splits in about two halves, not in the
        # bound and a lone row, which took another BLAS kernel
        monkeypatch.setattr(field_module, "QUERY_BLOCK", 4096)
        first, last = (len(range(4097)[r]) for r in field_module._blocks(4097))
        assert 2 * last >= first


_PAST_THE_BUDGET = [dict(hidden=8, depth=10 ** 7), dict(hidden=1, rank=1, depth=10 ** 7),
                    dict(variant="triplanes", grid_levels=(2 ** 20,)),
                    dict(variant="triaxes", grid_channels=2 ** 40),
                    dict(n_knots=2 ** 40), dict(hidden=2 ** 62)]
_BUDGET_MESSAGE = (r"^the size keys \(n_knots, rank, hidden, depth, pe_frequencies, grid_levels, "
                   r"grid_channels\) declare over 134217728 parameter values or over 65536 arrays$")


class TestParameterBudget:
    @pytest.mark.parametrize("bad", _PAST_THE_BUDGET, ids=["depth", "many-arrays", "plane-level",
                                                           "axis-channels", "n_knots", "hidden"])
    def test_a_size_past_the_budget_is_refused_before_any_draw(self, monkeypatch, bad):
        monkeypatch.setattr(ad.ParamStore, "add", lambda *a: pytest.fail("a parameter was drawn"))
        cfg = FieldConfig(**bad)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=_BUDGET_MESSAGE):
            SplineField(cfg, _points())
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("name, slack", [("PARAM_BUDGET", 0), ("PARAM_BUDGET", -1),
                                             ("PARAM_ARRAYS", 0), ("PARAM_ARRAYS", -1)])
    def test_a_field_at_the_budget_builds(self, monkeypatch, name, slack):
        store = SplineField(_small_cfg(), _points()).store
        at = {"PARAM_BUDGET": sum(store.value(n).size for n in store.names()),
              "PARAM_ARRAYS": len(store.names())}[name]
        monkeypatch.setattr(field_module, name, at + slack)
        if slack:
            with pytest.raises(ValueError, match="the size keys"):
                SplineField(_small_cfg(), _points())
        else:
            SplineField(_small_cfg(), _points())

    def test_a_header_size_past_the_budget_is_a_format_error(self, tmp_path):
        path = tmp_path / "field.ckpt"
        SplineField(_small_cfg(), _points()).save(path)
        arrays, header = dataio.read_checkpoint(path)
        dataio.write_checkpoint(path, arrays,
                                {**header, "config": {**header["config"], "depth": 10 ** 7}})
        with pytest.raises(dataio.FormatError, match="declare over 134217728 parameter values"):
            SplineField.load(path)


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

    @pytest.mark.parametrize("value", [5, None, "16,32"])
    def test_a_header_grid_levels_that_is_not_a_list_names_the_key(self, tmp_path, value):
        path = tmp_path / "field.ckpt"
        SplineField(_small_cfg(), _points()).save(path)
        arrays, header = dataio.read_checkpoint(path)
        dataio.write_checkpoint(path, arrays,
                                {**header, "config": {**header["config"], "grid_levels": value}})
        with pytest.raises(dataio.FormatError, match="grid_levels must be integers"):
            SplineField.load(path)

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

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        path = self._rewrite(tmp_path, lambda a: None)
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("load drew"))
        g = SplineField.load(path)
        assert g.store.names() == [name for name, _, _ in g.params()]

    def test_a_parameter_beyond_float32_is_refused_before_writing(self, tmp_path):
        f = SplineField(_small_cfg(), _points())
        f.store.value("dec.l0.W")[1, 2] = 1e39
        path = tmp_path / "field.ckpt"
        with pytest.raises(ValueError, match="'dec.l0.W' is not finite in float32"):
            f.save(path)
        assert not path.exists()

    def test_a_load_converts_each_array_once(self, tmp_path):
        path = tmp_path / "field.ckpt"
        f = _randomized(SplineField(FieldConfig(variant="triplanes", n_knots=3, rank=2,
                                                grid_levels=(32, 64), grid_channels=8),
                                    _points()))
        f.save(path)
        arrays, _ = dataio.read_checkpoint(path)
        for a in arrays.values():
            assert a.dtype == np.float32 and not a.flags.writeable
        tracemalloc.start()
        try:
            g = SplineField.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(g.canonical, arrays.pop("__canonical__"))
        for name, a in arrays.items():
            assert g.store.value(name).dtype == np.float64
            assert np.array_equal(g.store.value(name), a)
        # the file's bytes, then the float64 parameters, with no gradient
        # buffer; a bytes copy of each section and a float64 copy ahead of
        # the store's own peaked 20 % higher
        wide = 8 * sum(a.size for a in arrays.values())
        assert peak < path.stat().st_size + wide + (256 << 10)
        # queries run on arrays with no tape, which make no buffer either
        g.deform(g.canonical, 0.4)
        traj = dataio.TrajectorySet(np.stack([g.canonical] * 5))
        trainer.evaluate(g, traj, dataio.split_frames(traj, dataio.SplitSpec(2, 0.5), seed=0),
                         k=3)
        assert g.store._grads == {}

    def test_save_is_deterministic(self, tmp_path):
        f = SplineField(_small_cfg(), _points())
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        f.save(p1)
        f.save(p2)
        assert p1.read_bytes() == p2.read_bytes()


_CACHED_CASES = [("siren-resfields", False), ("pe-resfields", False), ("triplanes", False),
                 ("triaxes", False), ("siren-resfields", True)]
# (name, query on a field and a point set); every order of these on one
# loaded field must give what each gives on a fresh load
_QUERIES = [
    ("deform", lambda f, p: f.deform(p, 0.37)),
    ("deform-seq", lambda f, p: f.deform(p, _TIMES)),
    ("velocity", lambda f, p: f.velocity(p, 0.9)),
    ("velocity-seq-physical", lambda f, p: f.velocity(p, _TIMES, physical=True)),
    ("acceleration", lambda f, p: f.acceleration(p, 0.1)),
    ("acceleration-seq", lambda f, p: f.acceleration(p, _TIMES[::-1])),
    ("advect", lambda f, p: f.advect(p, 0.5, 0.2)),
]


def _saved(tmp_path, variant, quintic):
    path = tmp_path / f"{variant}-{quintic}.ckpt"
    _randomized(SplineField(_variant_cfg(variant, quintic), _points(8))).save(path)
    return path


def _assert_same(got, want, variant):
    if variant in ("triplanes", "triaxes"):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    else:
        assert np.array_equal(got, want)


class TestLoadedFieldKnotCache:
    @pytest.mark.parametrize("variant,quintic", _CACHED_CASES)
    def test_a_loaded_field_refuses_writes(self, tmp_path, variant, quintic):
        g = SplineField.load(_saved(tmp_path, variant, quintic))
        for name in g.store.names():
            with pytest.raises(ValueError, match="read-only"):
                g.store.value(name)[...] += 1.0
        for frozen in (g.canonical, g.center):
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 0.5

    @pytest.mark.parametrize("variant,quintic", _CACHED_CASES)
    def test_every_query_order_equals_a_fresh_load(self, tmp_path, monkeypatch, variant,
                                                    quintic):
        path = _saved(tmp_path, variant, quintic)
        want = {}
        for name, query in _QUERIES:
            fresh = SplineField.load(path)
            want[name] = query(fresh, fresh.canonical)
        calls = _count_knot_calls(monkeypatch)
        for order in (_QUERIES, _QUERIES[::-1], _QUERIES[3:] + _QUERIES[:3]):
            g = SplineField.load(path)
            calls.clear()
            for name, query in order:
                _assert_same(query(g, g.canonical), want[name], variant)
            # and a copy of the canonical points is the same point set
            for name, query in order:
                _assert_same(query(g, g.canonical.copy()), want[name], variant)
            assert sorted(calls) == list(range(g.cfg.n_knots))

    @pytest.mark.parametrize("variant,quintic", _CACHED_CASES)
    def test_other_points_bypass_the_cache(self, tmp_path, monkeypatch, variant, quintic):
        g = SplineField.load(_saved(tmp_path, variant, quintic))
        # the same arrays in a field built without load: no cache, no freeze
        twin = SplineField(g.cfg, g.canonical,
                           arrays={n: g.store.value(n) for n in g.store.names()},
                           normalizer=(g.center, g.half_extent))
        g.deform(g.canonical, _TIMES)
        calls = _count_knot_calls(monkeypatch)
        for points in (g.canonical[:5], g.canonical[::-1], g.canonical + 1e-3):
            for name, query in _QUERIES:
                calls.clear()
                got = query(g, points)
                assert calls, name
                assert np.array_equal(got, query(twin, points)), name
        calls.clear()
        g.deform(g.canonical, _TIMES)
        assert calls == []

    def test_each_spatial_is_made_for_the_knots_predicted_from_it(self, tmp_path,
                                                                   monkeypatch):
        # a partial canonical query, then a full one: the second makes a new
        # spatial for the knots the first left, and a third makes none
        path = _saved(tmp_path, "triplanes", False)
        g = SplineField.load(path)
        made = _spy_spatial(monkeypatch, g)
        before = g.deform(g.canonical, 0.0)
        assert [(knots, ks) for _, knots, ks in made] == [(2, [0, 1])]
        g.deform(g.canonical, np.linspace(1.0, 0.0, 2 * g.cfg.n_knots))
        assert [(knots, ks) for _, knots, ks in made] == [(2, [0, 1]), (2, [2, 3])]
        assert np.array_equal(g.deform(g.canonical, 0.0), before)
        for name, query in _QUERIES:
            fresh = SplineField.load(path)
            assert np.array_equal(query(g, g.canonical), query(fresh, fresh.canonical)), name
        assert len(made) == 2

    def test_a_cached_scalar_query_runs_no_block_loop_or_generator(self, tmp_path,
                                                                     monkeypatch):
        g = SplineField.load(_saved(tmp_path, "siren-resfields", False))
        want = [g.deform(g.canonical, t) for t in _TIMES]

        def fail(*args, **kwargs):
            raise AssertionError("a cached scalar query ran a block loop")
        monkeypatch.setattr(field_module, "_blocks", fail)
        for t, frame in zip(_TIMES, want):
            assert np.array_equal(g.deform(g.canonical, t), frame)

    @pytest.mark.parametrize("variant,quintic", _CACHED_CASES)
    def test_a_seeded_field_recomputes(self, variant, quintic):
        f = _randomized(SplineField(_variant_cfg(variant, quintic), _points(8)))
        before = f.deform(f.canonical, 0.37)
        _randomized(f, seed=7)      # an in-place decoder edit, as Adam makes
        assert not np.allclose(f.deform(f.canonical, 0.37), before)
