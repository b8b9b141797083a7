import os
import re
import subprocess
import sys
import tracemalloc
import types
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp

from splinefield import autodiff as ad
from splinefield import dataio, encoders, losses, metrics, trainer
from splinefield import field as field_module
from splinefield.autodiff import ParamStore, Tape
from splinefield.dataio import SplitSpec, TrajectorySet, parse_config, split_frames
from splinefield.field import FieldConfig, SplineField
from splinefield.trainer import Adam, TrainConfig, train

from gradcheck import fd_check


def _store_with(theta):
    store = ParamStore()
    store.add("theta", np.asarray(theta, dtype=np.float64))
    return store


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        store = _store_with([1.0, 2.0])
        opt = Adam(store)
        for _ in range(3):
            store.zero_grad()
            opt.step(0.1)
        np.testing.assert_array_equal(store.value("theta"), [1.0, 2.0])

    def test_first_step_magnitude_is_lr(self):
        # bias correction makes the first update exactly lr for constant g
        store = _store_with([0.0])
        opt = Adam(store)
        store.grad("theta")[:] = 7.3
        opt.step(0.05)
        assert abs(store.value("theta")[0]) == pytest.approx(0.05, rel=1e-6)

    def test_quadratic_bowl_converges(self):
        store = _store_with([1.0, -0.5])
        opt = Adam(store)
        for _ in range(500):
            store.zero_grad()
            store.grad("theta")[:] = 2.0 * store.value("theta")
            opt.step(1e-2)
        assert np.max(np.abs(store.value("theta"))) < 1e-3

    def test_nonfinite_gradient_aborts_with_group_name(self):
        store = _store_with([1.0])
        opt = Adam(store)
        store.grad("theta")[:] = np.nan
        with pytest.raises(Exception, match="theta"):
            opt.step(1e-3)

    def test_grid_parameters_get_boosted_lr(self):
        store = ParamStore()
        store.add("codes", np.zeros(2))
        store.add("enc.grid.L0.xy.base", np.zeros(2))
        store.add("enc.mlp.l0.Wb", np.zeros(2))
        opt = Adam(store)
        assert opt.lr_for("codes", 1e-3) == pytest.approx(1e-2)
        assert opt.lr_for("enc.grid.L0.xy.base", 1e-3) == pytest.approx(1e-2)
        assert opt.lr_for("enc.mlp.l0.Wb", 1e-3) == pytest.approx(1e-3)


class _FormerAdam(Adam):
    """The per-name Adam with whole-array temporaries that the blocked,
    in-place step replaced; the oracle of its bitwise tests."""

    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for name in self.store.names():
            g = self.store.grad(name)
            if not np.all(np.isfinite(g)):
                raise trainer.DivergenceError(
                    f"non-finite gradient in parameter group {name!r}")
            m = self._m[name]
            v = self._v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
            self.store.value(name)[...] -= self.lr_for(name, lr) * update


class TestBlockedAdam:
    SIZES = {"codes": (3, 4), "enc.grid.L0.xy.base": (Adam.BLOCK,),
             "enc.grid.L0.xy.res": (2, Adam.BLOCK + 17), "dec.l0.W": (Adam.BLOCK - 1,),
             "dec.l0.b": (5,)}

    def _stores(self):
        rng = np.random.default_rng(11)
        stores = ParamStore(), ParamStore()
        for name, shape in self.SIZES.items():
            value = rng.normal(size=shape)
            for store in stores:
                store.add(name, value)
        return stores

    def test_bitwise_equal_to_former_adam(self):
        new, old = self._stores()
        opt_new, opt_old = Adam(new), _FormerAdam(old)
        rng = np.random.default_rng(12)
        for step in range(5):
            for name, shape in self.SIZES.items():
                g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
                new.grad(name)[...] = g
                old.grad(name)[...] = g
            lr = 3e-3 * (1.0 - 0.15 * step)
            opt_new.step(lr)
            opt_old.step(lr)
        for name in self.SIZES:
            np.testing.assert_array_equal(new.value(name), old.value(name), err_msg=name)
            np.testing.assert_array_equal(opt_new._m[name], opt_old._m[name], err_msg=name)
            np.testing.assert_array_equal(opt_new._v[name], opt_old._v[name], err_msg=name)

    def test_step_returns_gradient_norms(self):
        store, _ = self._stores()
        rng = np.random.default_rng(13)
        for name, shape in self.SIZES.items():
            store.grad(name)[...] = rng.normal(size=shape)
        norms = Adam(store).step(1e-3)
        assert list(norms) == list(self.SIZES)
        for name in self.SIZES:
            assert norms[name] == pytest.approx(np.linalg.norm(store.grad(name)), rel=1e-12)

    def test_overflowing_squares_are_not_divergence(self):
        store = _store_with([1.0, 2.0])
        store.grad("theta")[:] = [3e200, -4e200]
        with np.errstate(over="ignore"):
            norms = Adam(store).step(1e-3)
        assert norms["theta"] == pytest.approx(5e200, rel=1e-12)
        assert np.all(np.isfinite(store.value("theta")))

    def test_norms_do_not_depend_on_the_blas_thread_count(self):
        # a BLAS dot product splits a 2**20-element sum by thread; "big" takes
        # the overflow fallback
        script = "\n".join([
            "import numpy as np", "from splinefield.autodiff import ParamStore",
            "from splinefield.trainer import Adam",
            "store, g = ParamStore(), np.random.default_rng(0).normal(size=1 << 20)",
            "for name, scale in (('small', 1e3), ('big', 1e200)):",
            "    store.add(name, np.zeros(g.size))", "    store.grad(name)[:] = g * scale",
            "with np.errstate(over='ignore'):",
            "    print(repr(Adam(store).grad_norms()))"])
        src = os.path.dirname(os.path.dirname(os.path.abspath(trainer.__file__)))
        out = [subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src,
                                              "OPENBLAS_NUM_THREADS": n}).stdout
               for n in ("1", "2")]
        assert out[0] == out[1] and "'big': 1." in out[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_gradient_names_group_and_updates_nothing(self, bad):
        store = ParamStore()
        store.add("a", [1.0, 2.0])
        store.add("b", [3.0, 4.0])
        store.grad("a")[:] = 0.5
        store.grad("b")[1] = bad
        opt = Adam(store)
        with pytest.raises(trainer.DivergenceError, match="'b'"):
            opt.step(1e-3)
        np.testing.assert_array_equal(store.value("a"), [1.0, 2.0])
        assert opt.t == 0


class TestRunConfigParsing:
    def test_key_value_overrides(self):
        cfg = parse_config(TrainConfig, ["steps=50", "lr=0.01", "variant=triplanes",
                                         "quintic=true"])
        assert (cfg.steps, cfg.lr, cfg.variant, cfg.quintic) == \
            (50, 0.01, "triplanes", True)

    def test_bad_key(self):
        with pytest.raises(ValueError, match="'nonsense'") as exc:
            parse_config(TrainConfig, ["nonsense=1"])
        assert ", ".join(f.name for f in fields(TrainConfig)) in str(exc.value)

    def test_bad_format(self):
        with pytest.raises(ValueError):
            parse_config(TrainConfig, ["steps"])

    def test_false_boolean(self):
        assert parse_config(TrainConfig, ["quintic=off"],
                            TrainConfig(quintic=True)).quintic is False

    def test_bad_boolean(self):
        with pytest.raises(ValueError, match="^quintic must be a bool, got 'maybe'$"):
            parse_config(TrainConfig, ["quintic=maybe"])

    @pytest.mark.parametrize("spelling, value", [
        *((s, True) for s in ("1", "true", "yes", "on")),
        *((s, False) for s in ("0", "false", "no", "off"))])
    @pytest.mark.parametrize("case", [str.lower, str.upper, str.title])
    def test_boolean_spellings(self, spelling, value, case):
        base = TrainConfig(quintic=not value)
        assert parse_config(TrainConfig, [f"quintic={case(spelling)}"], base).quintic is value

    @pytest.mark.parametrize("raw", ["", "2", "y", " on"])
    def test_other_booleans_fail_with_the_type_message(self, raw):
        with pytest.raises(ValueError) as exc:
            parse_config(TrainConfig, [f"quintic={raw}"])
        assert str(exc.value) == f"quintic must be a bool, got {raw!r}"

    @pytest.mark.parametrize("name, value", [("alpha", -1.0), ("alpha", float("nan")),
                                             ("beta", float("inf")), ("beta", -0.5)])
    def test_bad_loss_weight_rejected_on_build(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("k", [0, -3])
    def test_knn_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="knn_k"):
            TrainConfig(knn_k=k)
        with pytest.raises(ValueError, match="knn_k"):
            parse_config(TrainConfig, [f"knn_k={k}"])


class TestConfigTypes:
    @pytest.mark.parametrize("bad, message", [
        (dict(steps=2.5), "steps must be an integer, got 2.5"),
        (dict(steps=True), "steps must be an integer, got True"),
        (dict(lr="0.1"), "lr must be a number, got '0.1'")])
    def test_a_key_of_the_wrong_type_is_named_at_construction(self, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(**bad)

    @pytest.mark.parametrize("key", [f.name for f in fields(TrainConfig)])
    def test_every_key_checks_the_type_of_its_default(self, key):
        default = getattr(TrainConfig(), key)
        wrong = {bool: 1, int: True, float: "1", str: 1, tuple: (1.5,)}[type(default)]
        with pytest.raises(ValueError, match=f"^{key} must be "):
            TrainConfig(**{key: wrong})
        assert getattr(TrainConfig(**{key: default}), key) == default

    def test_numbers_of_other_types_are_accepted(self):
        cfg = TrainConfig(steps=np.int64(3), lr=1, alpha=np.float32(0.5), seed=np.uint8(2))
        assert (cfg.steps, cfg.lr, cfg.alpha, cfg.seed) == (3, 1, 0.5, 2)

    def test_a_fit_configured_with_numpy_scalars_saves_the_python_header(self, tmp_path):
        numpy_keys = dict(steps=np.int64(2), lr=np.float32(0.5), n_knots=np.int32(3),
                          rank=np.uint8(2), w0=np.float32(30), quintic=np.True_,
                          grid_levels=[np.int64(4), 8], batch_points=np.int16(6), knn_k=4)
        python_keys = dict(steps=2, lr=0.5, n_knots=3, rank=2, w0=30.0, quintic=True,
                           grid_levels=(4, 8), batch_points=6, knn_k=4)
        traj = dataio.gen_synthetic("composite", 30, 9, seed=0)
        split = split_frames(traj, SplitSpec(stride=2, supervised_fraction=0.5), seed=0)
        blobs = []
        for keys in (numpy_keys, python_keys):
            fld, _ = train(traj, split, TrainConfig(hidden=8, depth=2, **keys))
            path = tmp_path / f"{len(blobs)}.ckpt"
            fld.save(path)
            blobs.append((dataio.read_checkpoint(path)[1], path.read_bytes()))
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]


class TestOneDefault:
    """Each field key has one default and one check, in FieldConfig, and each
    of TrainConfig's own keys changes a fit."""

    def test_field_config_is_the_field_keys_with_derived_knots(self):
        got = TrainConfig().field_config(30)
        assert type(got) is FieldConfig and got == FieldConfig(n_knots=15)

    def test_train_config_declares_only_n_knots_of_the_field_keys(self):
        assert issubclass(TrainConfig, FieldConfig)
        assert {"n_knots"} == set(TrainConfig.__annotations__) & \
            {f.name for f in fields(FieldConfig)}

    def test_every_field_key_is_a_run_config_key(self):
        cfg = TrainConfig()
        for f in fields(FieldConfig):
            value = getattr(cfg, f.name)
            raw = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            assert getattr(parse_config(TrainConfig, [f"{f.name}={raw}"]), f.name) == value

    def test_every_key_round_trips_off_its_default(self):
        off = dict(variant="triplanes", n_knots=5, rank=3, hidden=12, depth=2, w0=12.5,
                   pe_frequencies=2, grid_levels=(8, 16), grid_channels=4, quintic=True,
                   steps=7, lr=0.003, alpha=0.5, beta=0.02, knot_factor=3, seed=11,
                   batch_points=9, knn_k=6)
        assert set(off) == {f.name for f in fields(TrainConfig)}
        default = TrainConfig()
        assert all(getattr(default, k) != v for k, v in off.items())
        raw = [f"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
               for k, v in off.items()]
        assert parse_config(TrainConfig, raw) == TrainConfig(**off)

    # every key TrainConfig declares, off the tiny fit's value; on this split
    # (7 training frames, 15 supervised points) knot_factor 2 derives 3 knots
    # and 3 derives 2
    TRAIN_KEYS_OFF = dict(n_knots=4, steps=3, lr=0.003, alpha=0.5, beta=0.02, knot_factor=3,
                          seed=1, batch_points=6, knn_k=4)

    @staticmethod
    def _tiny_fit(tmp_path, **off):
        """(losses and gradient norms of every step, checkpoint bytes) of a 2-step fit."""
        traj = dataio.gen_synthetic("composite", 30, 13, seed=0)
        split = split_frames(traj, SplitSpec(stride=2, supervised_fraction=0.5), seed=0)
        fld, log = train(traj, split, TrainConfig(**{"steps": 2, "rank": 2, "hidden": 8, "depth": 2, **off}))
        fld.save(tmp_path / "fit.ckpt")
        return ([(r["recon"], r["lv"], r["lacc"], r["total"], r["grad_norms"])
                 for r in log.rows], (tmp_path / "fit.ckpt").read_bytes())

    @pytest.mark.parametrize("key", TrainConfig.__annotations__)
    def test_every_train_key_changes_the_fit(self, tmp_path, key):
        # a key that no code reads leaves the run log and the checkpoint alone
        default = self._tiny_fit(tmp_path)
        off = self._tiny_fit(tmp_path, **{key: self.TRAIN_KEYS_OFF[key]})
        assert off[0] != default[0] or off[1] != default[1]


def _tiny_run(steps=15, kind="rigid-translate", **kw):
    traj = dataio.gen_synthetic(kind, 30, 9, seed=0)
    split = split_frames(traj, SplitSpec(stride=2, supervised_fraction=0.5), seed=0)
    base = dict(steps=steps, rank=2, hidden=16, depth=2, knn_k=4, seed=0)
    base.update(kw)
    return traj, split, TrainConfig(**base)


def _step_grads(monkeypatch):
    """A list that gets a copy of every parameter's gradient as each Adam
    step of `train` reads it; the field `train` returns holds none. It spies
    on whatever class `trainer.Adam` names when called."""
    seen = []
    step = trainer.Adam.step
    monkeypatch.setattr(trainer.Adam, "step", lambda opt, *a: seen.append(
        {n: opt.store.grad(n).copy() for n in opt.store.names()}) or step(opt, *a))
    return seen


class TestTrain:
    def test_loss_decreases(self):
        traj, split, cfg = _tiny_run(steps=60)
        _, log = train(traj, split, cfg)
        assert log.rows[-1]["total"] < log.rows[0]["total"]

    def test_identical_seeds_identical_runlog(self):
        traj, split, cfg = _tiny_run()
        _, log1 = train(traj, split, cfg)
        _, log2 = train(traj, split, cfg)
        for r1, r2 in zip(log1.rows, log2.rows):
            assert r1["total"] == r2["total"]
            assert r1["recon"] == r2["recon"]

    def test_rank_zero_is_refused_for_every_variant(self):
        # a spline field's knots differ only by their codes, so rank 0 would
        # predict one state at every knot; the coupled baseline ignores rank
        for variant in field_module.VARIANTS:
            with pytest.raises(ValueError, match=r"^rank must be >= 1, got 0$"):
                TrainConfig(variant=variant, rank=0)

    def test_knot_count_resolution(self):
        assert TrainConfig(knot_factor=2).field_config(30).n_knots == 15
        assert TrainConfig(n_knots=7).field_config(30).n_knots == 7

    def test_runlog_csv(self, tmp_path):
        traj, split, cfg = _tiny_run(steps=3)
        fld, log = train(traj, split, cfg)
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_bytes().decode().splitlines()
        assert lines[0].split(",") == [
            "step", "recon", "lv", "lacc", "total", "wallclock_ms", "forward_ms",
            "backward_ms", "optimizer_ms", *(f"gn:{n}" for n in fld.store.names())]
        assert len(lines) == 4
        # the six columns written before the phase times and norms, unchanged
        former = ["step,recon,lv,lacc,total,wallclock_ms"] + [
            f"{r['step']},{r['recon']!r},{r['lv']!r},{r['lacc']!r},{r['total']!r},"
            f"{r['wallclock_ms']:.3f}" for r in log.rows]
        assert [",".join(line.split(",")[:6]) for line in lines] == former

    def test_runlog_csv_row(self, tmp_path):
        log = trainer.RunLog()
        log.record(4, 0.5, 0.25, 0.125, 1.0, 12.3456, 1.5, 2.25, 0.0625,
                   {"codes": 3.0, "dec.l0.W": 0.1})
        path = tmp_path / "log.csv"
        log.write_csv(path)
        assert path.read_bytes() == (
            b"step,recon,lv,lacc,total,wallclock_ms,forward_ms,backward_ms,optimizer_ms,"
            b"gn:codes,gn:dec.l0.W\r\n"
            b"4,0.5,0.25,0.125,1.0,12.346,1.500,2.250,0.062,3.0,0.1\r\n")

    def test_unweighted_terms_leave_total_equal_to_recon(self):
        traj, split, cfg = _tiny_run(steps=4, alpha=0.0, beta=0.0)
        _, log = train(traj, split, cfg)
        assert [r["total"] for r in log.rows] == [r["recon"] for r in log.rows]
        assert {(r["lv"], r["lacc"]) for r in log.rows} == {(0.0, 0.0)}

    @pytest.mark.parametrize("batch_points", [0, 6])
    def test_total_sums_the_weighted_terms_in_order(self, batch_points):
        traj, split, cfg = _tiny_run(steps=4, alpha=0.7, beta=0.3, batch_points=batch_points)
        _, log = train(traj, split, cfg)
        # the decoder starts at zero offsets, so only step 0 has no motion to penalize
        assert all(r["lv"] > 0 and r["lacc"] > 0 for r in log.rows[1:])
        assert [r["total"] for r in log.rows] == [
            r["recon"] + cfg.alpha * r["lv"] + cfg.beta * r["lacc"] for r in log.rows]

    def test_batched_points_run(self):
        traj, split, cfg = _tiny_run(steps=5, batch_points=6)
        _, log = train(traj, split, cfg)
        assert len(log.rows) == 5


class _Perturbed(SplineField):
    """A field whose decoder output is not zero at init, so that knot states
    differ between points and a misaligned slice shows in the gradients."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        rng = np.random.default_rng(7)
        for name in self.store.names():
            value = self.store.value(name)
            value += rng.normal(0.0, 0.05, value.shape)


def _three_cache_step(traj, split, cfg):
    """The former training step, one dict of knot states per loss term: recon
    frames, velocity closure and acceleration. Returns (total, {group: gradient})."""
    rng = np.random.default_rng(cfg.seed)
    canonical = traj.positions[0]
    fld = _Perturbed(cfg.field_config(len(split.train_frames)), canonical, seed=cfg.seed)
    sup = np.asarray(split.supervised)
    sup_pts = canonical[sup]
    graph = losses.build_knn(sup_pts, cfg.knn_k) if cfg.alpha > 0 else None
    train_frames = np.asarray(split.train_frames)

    tape = Tape()
    if cfg.batch_points and cfg.batch_points < sup.shape[0]:
        rows = np.sort(rng.choice(sup.shape[0], cfg.batch_points, replace=False))
    else:
        rows = np.arange(sup.shape[0])
    batch_pts = sup_pts[rows]
    n_f = min(trainer.FRAMES_PER_STEP, train_frames.shape[0])
    frame_ids = rng.choice(train_frames.shape[0], n_f, replace=False)
    states = {}
    recon = None
    for fi in train_frames[frame_ids]:
        pred = fld.deform_var(tape, batch_pts, traj.frame_time(int(fi)), states=states)
        term = losses.recon_loss_l1(pred, traj.positions[fi][sup[rows]])
        recon = term if recon is None else recon + term
    recon = recon * (1.0 / n_f)
    lv = lacc = 0.0
    if cfg.alpha > 0 or cfg.beta > 0:
        t_rand = float(rng.uniform(0.0, 1.0))
        if cfg.alpha > 0:
            needed, loc_rows, loc_nbrs, w_rows = graph.subgraph_closure(rows)
            vel = fld.velocity_var(tape, sup_pts[needed], t_rand, states={})
            lv = losses.velocity_loss_rows(vel, loc_rows, loc_nbrs, w_rows)
        if cfg.beta > 0:
            acc = fld.acceleration_var(tape, batch_pts, t_rand, states={})
            lacc = losses.acceleration_loss(acc)
    total = recon + cfg.alpha * lv if cfg.alpha > 0 else recon
    total = total + cfg.beta * lacc if cfg.beta > 0 else total
    fld.store.zero_grad()
    tape.backward(total)
    return float(total.value), {n: fld.store.grad(n).copy() for n in fld.store.names()}


class _KnotCalls:
    """Per step: (knot index, point count) of every predict_knot call in
    `steps`; (point count, knots argument, knots predicted from it) of every
    encoder `spatial` in `spatials`; the time of every derivative_var in `times`."""

    def __init__(self, monkeypatch):
        self.steps, self.spatials, self.times = [], [], []
        made = []       # (spatial, its record), to find the one a knot reads
        predict, derivative = SplineField.predict_knot, SplineField.derivative_var
        tape_cls = trainer.Tape

        def spying(spatial):
            def spy(enc, tape, store, x_norm, knots, rows):
                out = spatial(enc, tape, store, x_norm, knots, rows)
                made.append((out, (len(x_norm), knots, [])))
                self.spatials[-1].append(made[-1][1])
                return out
            return spy

        def counting(fld, tape, spatial, knot_idx, memo=None):
            n_points, _, predicted = next(rec for sp, rec in made if sp is spatial)
            predicted.append(knot_idx)
            self.steps[-1].append((knot_idx, n_points))
            return predict(fld, tape, spatial, knot_idx, memo)

        def reading(fld, tape, points, t_query, order, states=None):
            self.times[-1].append(t_query)
            return derivative(fld, tape, points, t_query, order, states)

        def step_tape():
            for per_step in (self.steps, self.spatials, self.times):
                per_step.append([])
            return tape_cls()

        for cls in (encoders.MLPEncoder, encoders.TriplaneEncoder):
            monkeypatch.setattr(cls, "spatial", spying(cls.spatial))
        monkeypatch.setattr(SplineField, "predict_knot", counting)
        monkeypatch.setattr(SplineField, "derivative_var", reading)
        monkeypatch.setattr(trainer, "Tape", step_tape)


# (batch_points, alpha, beta): with and without a sliced velocity closure
_STEP_CASES = [(0, 1.0, 0.01), (6, 1.0, 0.01), (6, 0.0, 0.01), (6, 1.0, 0.0), (6, 0.0, 0.0)]


class TestSharedKnotStates:
    @pytest.mark.parametrize("batch_points", [0, 6])
    def test_each_knot_runs_at_most_once_per_step(self, monkeypatch, batch_points):
        traj, split, cfg = _tiny_run(steps=12, kind="composite", n_knots=4,
                                     batch_points=batch_points)
        calls = _KnotCalls(monkeypatch)
        train(traj, split, cfg)
        n_sup = len(split.supervised)
        batch = batch_points or n_sup
        assert len(calls.steps) == 12
        for step in calls.steps:
            knots = [k for k, _ in step]
            assert len(knots) == len(set(knots))
            # only the two knots around t_rand run on the velocity closure
            on_closure = [n for _, n in step if n != batch]
            assert len(on_closure) <= 2
            assert all(batch < n <= n_sup for n in on_closure)
        sizes = {n for step in calls.steps for _, n in step}
        assert batch in sizes and (len(sizes) > 1) == bool(batch_points)

    @pytest.mark.parametrize("batch_points", [0, 6])
    def test_grid_factors_are_sampled_once_per_point_set(self, monkeypatch, batch_points):
        # 15 supervised points: every triplanes factor (32 * 32 or 64 * 64
        # cells) samples its base and residual stack in `spatial`, once per
        # point set of the step, and no knot samples a grid
        traj, split, cfg = _tiny_run(steps=3, variant="triplanes", n_knots=4,
                                     batch_points=batch_points)
        calls = _KnotCalls(monkeypatch)
        for name in ("interp_matrix", "sample_grid", "sample_stack"):
            def counting(*args, _name=name, _counted=getattr(ad, name)):
                calls.steps[-1].append((_name, None))
                return _counted(*args)
            monkeypatch.setattr(ad, name, counting)
        train(traj, split, cfg)
        factors = 2 * 3
        for step in calls.steps:
            names = [k for k, _ in step]
            knots = [(k, n) for k, n in step if isinstance(k, int)]
            point_sets = {n for _, n in knots}
            assert len(knots) >= 3
            for name in ("interp_matrix", "sample_grid", "sample_stack"):
                assert names.count(name) == factors * len(point_sets)
            assert len(point_sets) == 1 or batch_points

    @pytest.mark.parametrize("batch_points,alpha,beta", _STEP_CASES)
    def test_each_cache_predicts_the_knots_it_was_made_for(self, monkeypatch, batch_points,
                                                           alpha, beta):
        # each encoder spatial, the cached work of one point set, is made for
        # the knots predicted from it, the size-rule input: a sliced step's
        # batch spatial counts only the knots not sliced in from the closure
        monkeypatch.setattr(trainer, "FRAMES_PER_STEP", 2)
        traj, split, cfg = _tiny_run(steps=6, kind="composite", variant="triplanes",
                                     grid_levels=(4, 8), grid_channels=3, n_knots=6,
                                     batch_points=batch_points, alpha=alpha, beta=beta)
        calls = _KnotCalls(monkeypatch)
        train(traj, split, cfg)
        batch = batch_points or len(split.supervised)
        sliced = 0
        for made in calls.spatials:
            assert all(knots == len(predicted) for _, knots, predicted in made)
            sizes = [n for n, _, _ in made]
            if sizes[0] > batch:    # the velocity closure, then the batch if it needs more
                sliced += 1
                assert made[0][1] == 2 and sizes[1:] in ([], [batch])
            else:
                assert sizes == [batch]
        assert bool(sliced) == bool(batch_points and alpha)

    @pytest.mark.parametrize("batch_points,alpha,beta", _STEP_CASES)
    def test_knots_are_predicted_in_first_use_order(self, monkeypatch, batch_points, alpha,
                                                    beta):
        # the order the terms read them: velocity, the frames, acceleration
        monkeypatch.setattr(trainer, "FRAMES_PER_STEP", 3)
        traj, split, cfg = _tiny_run(steps=6, kind="composite", n_knots=6,
                                     batch_points=batch_points, alpha=alpha, beta=beta)
        calls = _KnotCalls(monkeypatch)
        train(traj, split, cfg)
        for step, times in zip(calls.steps, calls.times):
            first_use = []
            for t in times:
                start = min(int(t * (cfg.n_knots - 1)), cfg.n_knots - 2)
                first_use += [k for k in (start, start + 1) if k not in first_use]
            assert [k for k, _ in step] == first_use

    @pytest.mark.parametrize("batch_points,quintic,alpha,beta", [
        (0, False, 1.0, 0.01), (6, False, 1.0, 0.01), (0, True, 1.0, 0.01),
        (6, True, 1.0, 0.01), (6, False, 0.0, 0.01), (6, False, 1.0, 0.0),
        (0, True, 1.0, 0.0)])
    def test_gradients_match_three_cache_step(self, monkeypatch, batch_points, quintic,
                                              alpha, beta):
        # a non-rigid scene, so that a misaligned row shows in the recon term,
        # which reads every training frame and so the knots around t_rand too
        monkeypatch.setattr(trainer, "FRAMES_PER_STEP", 9)
        traj, split, cfg = _tiny_run(steps=1, kind="composite", batch_points=batch_points,
                                     n_knots=4, quintic=quintic, alpha=alpha, beta=beta)
        monkeypatch.setattr(trainer, "SplineField", _Perturbed)
        seen = _step_grads(monkeypatch)
        _, log = train(traj, split, cfg)
        total, grads = _three_cache_step(traj, split, cfg)
        assert log.rows[0]["total"] == pytest.approx(total, rel=1e-12, abs=0)
        assert len(seen) == 1 and list(seen[0]) == list(grads)
        for name, g in grads.items():
            tol = 1e-12 * max(np.max(np.abs(g)), 1e-300)
            np.testing.assert_allclose(seen[0][name], g, rtol=0, atol=tol, err_msg=name)

    def test_sliced_knot_states_pass_fd_check(self):
        traj, split, cfg = _tiny_run(quintic=True, n_knots=4)
        sup_pts = traj.positions[0][np.asarray(split.supervised)]
        fld = SplineField(cfg.field_config(len(split.train_frames)), traj.positions[0], seed=3)
        rng = np.random.default_rng(3)
        for name in fld.store.names():
            fld.store.value(name)[...] = rng.normal(0.0, 0.05, fld.store.value(name).shape)
        graph = losses.build_knn(sup_pts, cfg.knn_k)
        rows = np.array([1, 4, 7, 8, 12])
        needed, loc_rows, loc_nbrs, w_rows = graph.subgraph_closure(rows)
        assert len(needed) > len(rows)

        def loss(tape):
            closure = {}
            vel = fld.velocity_var(tape, sup_pts[needed], 0.4, states=closure)
            lv = losses.velocity_loss_rows(vel, loc_rows, loc_nbrs, w_rows)
            states = {k: tuple(ad.take(s, loc_rows) for s in state)
                      for k, state in closure.items()}
            pos = fld.deform_var(tape, sup_pts[rows], 0.9, states=states)
            acc = fld.acceleration_var(tape, sup_pts[rows], 0.4, states=states)
            # smooth terms only: an L1 kink would fail the central difference
            return lv + ad.vmean(ad.mul(pos, pos)) + ad.vmean(ad.mul(acc, acc))

        assert fd_check(loss, fld.store, samples=40,
                        rng=np.random.default_rng(0)) < 1e-4


def _flush_per_call_var(store, name, tape):
    """The former ParamStore.var: a new leaf per call, flushed into the
    store's gradient by its own closure."""
    v = ad.Var(store.value(name), tape)

    def flush():
        if v.grad is not None:
            store.grad(name)[...] += v.grad

    tape.record(flush)
    return v


def _outer_product_stack_sum(v, stack):
    """The former weighted_stack_sum, whose backward builds the full
    [rank, ...] product for the stack."""
    tape = next(x.tape for x in (v, stack) if isinstance(x, ad.Var))
    vv, sv = ad._val(v), ad._val(stack)
    out = ad.Var(np.tensordot(vv, sv, axes=(0, 0)), tape)

    def bw():
        if out.grad is None:
            return
        g = out.grad
        ad._accum(v.slot if isinstance(v, ad.Var) else None,
                  np.tensordot(sv, g, axes=(tuple(range(1, sv.ndim)), tuple(range(g.ndim)))))
        ad._accum(stack.slot if isinstance(stack, ad.Var) else None,
                  vv.reshape((-1,) + (1,) * g.ndim) * g[None, ...])

    tape.record(bw)
    return out


class TestOneLeafPerTape:
    VARIANTS = [("siren-resfields", False), ("pe-resfields", False), ("triplanes", False),
                ("triaxes", False), ("coupled4d-baseline", False), ("siren-resfields", True)]

    @pytest.mark.parametrize("variant,quintic", VARIANTS)
    def test_fit_bitwise_equal_to_flush_per_call(self, monkeypatch, variant, quintic):
        traj, split, cfg = _tiny_run(steps=3, kind="composite", variant=variant,
                                     quintic=quintic, batch_points=6)
        monkeypatch.setattr(trainer, "SplineField", _Perturbed)
        seen = _step_grads(monkeypatch)
        fld, log = train(traj, split, cfg)
        with monkeypatch.context() as m:
            m.setattr(ParamStore, "var", _flush_per_call_var)
            m.setattr(ad, "weighted_stack_sum", _outer_product_stack_sum)
            m.setattr(trainer, "Adam", _FormerAdam)
            ref_seen = _step_grads(m)
            ref, ref_log = train(traj, split, cfg)
        assert [r["total"] for r in log.rows] == [r["total"] for r in ref_log.rows]
        assert len(seen) == len(ref_seen) == 3
        for name in ref.store.names():
            np.testing.assert_array_equal(fld.store.value(name), ref.store.value(name),
                                          err_msg=name)
            for grads, ref_grads in zip(seen, ref_seen):
                np.testing.assert_array_equal(grads[name], ref_grads[name], err_msg=name)

    @pytest.mark.parametrize("variant, nodes", [("siren-resfields", 115), ("triplanes", 147)])
    def test_fit_step_tape_nodes_are_pinned(self, monkeypatch, variant, nodes):
        """Tape nodes per fit step. Making a leaf or an interpolation matrix
        records none, and sampling a stack records one node in all."""
        counts = []
        backward = Tape.backward
        monkeypatch.setattr(Tape, "backward", lambda tape, out: counts.append(
            len(tape._nodes)) or backward(tape, out))
        train(*_tiny_run(steps=3, kind="composite", variant=variant, batch_points=6))
        assert counts == [nodes] * 3

    def test_runlog_rows_carry_gradient_norms(self, monkeypatch):
        seen = _step_grads(monkeypatch)
        traj, split, cfg = _tiny_run(steps=3)
        fld, log = train(traj, split, cfg)
        assert len(seen) == 3
        for row, grads in zip(log.rows, seen):
            assert list(row["grad_norms"]) == fld.store.names()
            for name, g in grads.items():
                assert row["grad_norms"][name] == pytest.approx(np.linalg.norm(g), rel=1e-12)


class TestTrainedFieldGradients:
    @pytest.mark.parametrize("variant", ["siren-resfields", "triplanes"])
    def test_returned_field_holds_no_gradient_buffer(self, variant):
        fld, _ = train(*_tiny_run(steps=2, variant=variant, batch_points=6))
        assert fld.store._grads == {}

    def test_train_leaves_alive_its_float64_parameters(self):
        traj, split, cfg = _tiny_run(steps=2, kind="composite", variant="triplanes",
                                     grid_levels=(32, 64), grid_channels=8, batch_points=6)
        tracemalloc.start()
        try:
            fld, _ = train(traj, split, cfg)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the parameters, then the canonical points and the run log; the
        # gradients, as wide as the parameters, and Adam's moments are gone
        wide = 8 * sum(fld.store.value(n).size for n in fld.store.names())
        assert wide > (2 << 20)
        assert retained < wide + (256 << 10)


def _held_bytes(nodes, params, through_vars=True) -> int:
    """The bytes of the distinct arrays reachable from a tape's closures,
    through their cells, containers, sparse matrices and slotted objects,
    not counting `params` (ids of parameter arrays) or what a tape holds. A
    view counts as its base. With through_vars False a Var is not entered:
    what is left is what the gradient rules themselves captured."""
    seen, arrays, todo = set(), {}, list(nodes)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (Tape, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if id(obj) not in params:
                arrays[id(obj)] = obj.nbytes
        elif isinstance(obj, types.FunctionType):
            todo += [c.cell_contents for c in obj.__closure__ or ()]
        elif isinstance(obj, (list, tuple)):
            todo += obj
        elif isinstance(obj, dict):
            todo += obj.values()
        elif sp.issparse(obj):
            todo += [obj.data, obj.indices, obj.indptr]
        elif through_vars or not isinstance(obj, ad.Var):
            todo += [getattr(obj, a, None) for a in getattr(type(obj), "__slots__", ())]
    return sum(arrays.values())


class TestTapeHoldsWhatBackwardReads:
    """At the start of Tape.backward on a fit step, the closures on the tape
    hold the arrays their rules read and no forward value besides: no Var
    is reachable from them."""

    @pytest.mark.parametrize("variant", ["siren-resfields", "triplanes"])
    def test_fit_step_holds_only_what_rules_read(self, monkeypatch, variant):
        traj = dataio.gen_synthetic("composite", 240, 9, seed=3)
        split = split_frames(traj, SplitSpec(stride=2, supervised_fraction=0.5), seed=3)
        cfg = TrainConfig(steps=1, variant=variant, hidden=32, grid_levels=(8, 16),
                          grid_channels=4, knn_k=4)
        made, held, backward = [], [], Tape.backward

        class Kept(SplineField):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        def measured(tape, out):
            store = made[0].store
            params = {id(a) for n in store.names() for a in (store.value(n), store.grad(n))}
            held.append([_held_bytes(tape._nodes, params, through) for through in (True, False)])
            return backward(tape, out)

        monkeypatch.setattr(trainer, "SplineField", Kept)
        monkeypatch.setattr(Tape, "backward", measured)
        train(traj, split, cfg)
        (total, read), = held
        assert read > 0
        assert total <= 1.02 * read, f"{variant}: tape holds {total} bytes, rules read {read}"


class TestBlasThreadCount:
    """Same-seed fits are byte-identical at any BLAS thread count."""

    def test_fit_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # 5000 points, all supervised: the step's [5000, 64] products are large
        # enough for OpenBLAS to split them between threads
        script = "\n".join([
            "import sys", "from splinefield import dataio, trainer",
            "traj = dataio.gen_synthetic('composite', 5000, 30, seed=0)",
            "split = dataio.split_frames(traj, dataio.SplitSpec(4, 1.0), seed=0)",
            "fld, _ = trainer.train(traj, split, trainer.TrainConfig(steps=3))",
            "fld.save(sys.argv[1])"])
        src = os.path.dirname(os.path.dirname(os.path.abspath(trainer.__file__)))
        paths = {n: tmp_path / f"threads{n}.ckpt" for n in ("1", "2")}
        runs = [subprocess.Popen([sys.executable, "-c", script, str(path)],
                                 env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": n})
                for n, path in paths.items()]
        try:
            assert [run.wait(timeout=120) for run in runs] == [0, 0]
        finally:
            for run in runs:
                run.kill()
        assert paths["1"].read_bytes() == paths["2"].read_bytes()


class TestTrainBoundaries:
    def _sparse(self):
        traj = dataio.gen_synthetic("composite", 200, 9, seed=0)
        split = split_frames(traj, SplitSpec(stride=2, supervised_fraction=0.25), seed=0)
        assert len(split.supervised) == 50
        return traj, split

    def test_points_whose_squared_distances_overflow_are_refused(self):
        # a float64 trajectory can hold what no f32 file can: the KNN graph's
        # d² would overflow, and the tree once made that an IndexError
        traj = dataio.gen_synthetic("composite", 200, 9, seed=0)
        traj = TrajectorySet(traj.positions.astype(np.float64) * 1e200)
        split = split_frames(traj, SplitSpec(4, 0.5), seed=0)
        with pytest.raises(ValueError, match="points span .*: d² overflows float64"):
            train(traj, split, TrainConfig(steps=2, hidden=8))

    @pytest.mark.parametrize("k", [50, 60])
    def test_knn_k_not_below_supervised_count_rejected(self, k):
        traj, split = self._sparse()
        cfg = TrainConfig(steps=1, rank=2, hidden=16, depth=2, knn_k=k)
        with pytest.raises(ValueError, match=f"{k}.*50 supervised"):
            train(traj, split, cfg)

    def test_knn_k_unused_without_velocity_term(self):
        traj, split = self._sparse()
        cfg = TrainConfig(steps=2, rank=2, hidden=16, depth=2, knn_k=50, alpha=0.0)
        _, log = train(traj, split, cfg)
        assert [r["lv"] for r in log.rows] == [0.0, 0.0]

    @pytest.mark.parametrize("fault, message", [
        ("loss", "non-finite loss at step 2"),
        ("gradient", "non-finite gradient in parameter group '.*' at step 2")])
    def test_divergence_names_the_step_and_updates_nothing(self, monkeypatch, fault,
                                                           message):
        traj, split, cfg = _tiny_run(steps=4)
        clean, _ = train(traj, split, TrainConfig(**{**vars(cfg), "steps": 2}))
        made, calls = [], []
        recon = losses.recon_loss_l1

        class Kept(SplineField):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        def faulty(pred, gt):
            term = recon(pred, gt)
            calls.append(None)
            if len(calls) <= 2 * min(trainer.FRAMES_PER_STEP, len(split.train_frames)):
                return term                 # steps 0 and 1 run clean
            if fault == "loss":
                return ad.mul(term, np.nan)
            return ad._op(term.value, lambda g, s: ad._accum(s, np.full_like(g, np.nan)), term)
        monkeypatch.setattr(trainer, "SplineField", Kept)
        monkeypatch.setattr(losses, "recon_loss_l1", faulty)
        with pytest.raises(trainer.DivergenceError, match=message):
            train(traj, split, cfg)
        for name in clean.store.names():
            np.testing.assert_array_equal(made[0].store.value(name),
                                          clean.store.value(name), err_msg=name)

    def test_runlog_rows_carry_phase_times(self):
        traj, split, cfg = _tiny_run(steps=3)
        _, log = train(traj, split, cfg)
        for row in log.rows:
            for key in ("forward_ms", "backward_ms", "optimizer_ms"):
                assert np.isfinite(row[key]) and row[key] > 0
            assert row["forward_ms"] + row["backward_ms"] + row["optimizer_ms"] \
                <= row["wallclock_ms"]

    def test_record_keeps_positional_arguments(self):
        log = trainer.RunLog()
        log.record(0, 1.0, 0.5, 0.25, 2.0, 3.0, 0.5, 1.5, 0.25, {"a": 1.0})
        assert [log.rows[0][k] for k in ("step", "total", "wallclock_ms", "forward_ms",
                                         "backward_ms", "optimizer_ms", "grad_norms")] \
            == [0, 2.0, 3.0, 0.5, 1.5, 0.25, {"a": 1.0}]


class _Replay:
    """A field stand-in whose deform_frames looks up the ground-truth frame at each time."""

    def __init__(self, traj):
        self.traj, self.canonical = traj, traj.positions[0]

    def deform_frames(self, pts, times):
        idx = np.rint(np.asarray(times) * (self.traj.n_frames - 1)).astype(int)
        return (self.traj.positions[i] for i in idx)


class TestEvaluate:
    def test_ground_truth_replay_scores_zero_epe(self):
        # a field is replaced by direct ground-truth lookup via a stub
        traj = dataio.gen_synthetic("bending-sheet", 200, 12, seed=1)
        split = split_frames(traj, SplitSpec(stride=4, supervised_fraction=0.5))
        summary, rows = trainer.evaluate(_Replay(traj), traj, split)
        assert summary["epe"] == 0.0
        assert len(rows) == len(split.test_frames)
        gt_scores = metrics.morans_i_sequence(traj.positions[list(split.test_frames)], k=10)
        assert summary["mean_I"] == pytest.approx(
            np.mean([s for s in gt_scores if s is not None]), rel=1e-12)

    def test_still_transitions_are_reported_as_skipped(self):
        base = np.random.default_rng(2).normal(size=(30, 3))
        steps = np.minimum(np.arange(12), 6)[:, None, None]   # still from frame 6
        traj = dataio.TrajectorySet(base + steps * np.array([0.1, 0.0, 0.0]))
        split = dataio.Split(train_frames=(0, 4, 8), test_frames=(1, 3, 6, 7, 9),
                             supervised=np.arange(30))
        summary, rows = trainer.evaluate(_Replay(traj), traj, split, k=5)
        assert summary["skipped"] == [6, 7]
        assert [r["mean_I"] is None for r in rows] == [False, False, True, True, True]
        assert summary["mean_I"] == pytest.approx(1.0, abs=1e-12)
        assert summary["n_frames"] == 5

    def test_one_held_out_frame_has_no_transition(self):
        traj = dataio.gen_synthetic("rigid-translate", 30, 5, seed=0)
        split = dataio.Split(train_frames=(0, 1, 3, 4), test_frames=(2,),
                             supervised=np.arange(30))
        summary, rows = trainer.evaluate(_Replay(traj), traj, split, k=5)
        assert np.isnan(summary["mean_I"])
        assert summary["skipped"] == [] and summary["n_frames"] == 1
        assert [(r["frame_idx"], r["mean_I"], r["epe"]) for r in rows] == [(2, None, 0.0)]

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_bad_scale_fails_before_deforming(self, scale):
        traj = dataio.gen_synthetic("rigid-translate", 30, 5, seed=0)
        split = dataio.Split(train_frames=(0, 2, 4), test_frames=(1, 3),
                             supervised=np.arange(30))

        class NoDeform(_Replay):
            def deform_frames(self, pts, times):
                raise AssertionError("deform ran before the scale was checked")
        with pytest.raises(ValueError, match=r"scale must be finite and > 0 \(--scale\)"):
            trainer.evaluate(NoDeform(traj), traj, split, scale=scale)

    @pytest.mark.parametrize("kw, match", [
        (dict(k=2.5), "integer K"), (dict(k=10.0), "integer K"), (dict(k=True), "integer K"),
        (dict(k="5"), "integer K"), (dict(scale=True), r"scale must be a number \(--scale\)"),
        (dict(scale="1e4"), r"scale must be a number \(--scale\)"),
        (dict(scale=None), r"scale must be a number \(--scale\)")])
    def test_a_k_or_scale_of_the_wrong_type_fails_before_deforming(self, kw, match):
        traj = dataio.gen_synthetic("rigid-translate", 30, 5, seed=0)
        split = dataio.Split(train_frames=(0, 2, 4), test_frames=(1, 3),
                             supervised=np.arange(30))

        class NoDeform(_Replay):
            def deform_frames(self, pts, times):
                raise AssertionError("deform ran before k and scale were checked")
        with pytest.raises(ValueError, match=match):
            trainer.evaluate(NoDeform(traj), traj, split, **kw)

    def test_each_transition_is_scored_by_morans_i_sequence(self, monkeypatch):
        # the benchmark times Moran's I through this one function
        traj = dataio.gen_synthetic("composite", 40, 13, seed=2)
        split = split_frames(traj, SplitSpec(stride=4, supervised_fraction=0.5))
        seen, score = [], metrics.morans_i_sequence

        def spying(positions, k):
            seen.append([np.array(p) for p in positions])
            return score(positions, k)
        monkeypatch.setattr(metrics, "morans_i_sequence", spying)
        summary, rows = trainer.evaluate(_Replay(traj), traj, split, k=5)
        frames = list(split.test_frames)
        assert len(seen) == len(frames) - 1 >= 2
        for pair, a, b in zip(seen, frames[:-1], frames[1:]):
            assert len(pair) == 2
            assert np.array_equal(pair[0], traj.positions[a])
            assert np.array_equal(pair[1], traj.positions[b])
        assert summary["mean_I"] == np.mean([r["mean_I"] for r in rows[:-1]])

    def test_split_arithmetic(self):
        traj = dataio.gen_synthetic("rigid-translate", 20, 120, seed=0)
        split = split_frames(traj, SplitSpec(stride=4, supervised_fraction=0.25))
        assert len(split.test_frames) == 90

    def test_peak_memory_is_below_one_stack_of_the_frames(self, monkeypatch):
        # the frames stream, so what grows with T is the [T, N] error array;
        # small point blocks, for the knot predictions and for Moran's I,
        # keep the rest, the knot states and two frames, in view
        traj = dataio.gen_synthetic("composite", 3000, 41, seed=0)
        split = split_frames(traj, SplitSpec(stride=4, supervised_fraction=0.25))
        fld = SplineField(FieldConfig(n_knots=4, rank=4), traj.positions[0])
        w = fld.store.value("dec.l0.W")
        w += np.random.default_rng(1).normal(0.0, 0.05, w.shape)
        monkeypatch.setattr(field_module, "QUERY_BLOCK", 256, raising=False)
        monkeypatch.setattr(metrics, "_BLOCK", 256)
        tracemalloc.start()
        try:
            summary, _ = trainer.evaluate(fld, traj, split, k=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary["skipped"] == []
        # the predictions, their copy of the ground truth, the motion vectors
        # and the squared errors were each one such stack
        assert peak < len(split.test_frames) * traj.n_points * 3 * 8

    def test_report_matches_direct_metric_calls(self):
        traj, split, cfg = _tiny_run(steps=10)
        fld, _ = train(traj, split, cfg)
        summary, rows = trainer.evaluate(fld, traj, split, scale=1e4)
        t0 = split.test_frames[0]
        direct = metrics.epe(fld.deform(fld.canonical, traj.frame_time(t0)),
                             traj.positions[t0], scale=1e4)
        assert rows[0]["epe"] == pytest.approx(direct, rel=1e-12)


@pytest.fixture(scope="module")
def file_and_wide(tmp_path_factory):
    """A scene read from its file, f32, and the same positions as float64."""
    path = tmp_path_factory.mktemp("scene") / "scene.traj"
    dataio.write_traj(path, dataio.gen_synthetic("composite", 160, 13, seed=3))
    read = dataio.read_traj(path)
    assert read.positions.dtype == np.float32
    return read, TrajectorySet(read.positions.astype(np.float64))


class TestFloat32Trajectory:
    """Every consumer of a trajectory computes in float64, to which f32
    converts exactly, so the f32 positions `read_traj` keeps fit and score
    as their float64 copy does, to the byte."""

    @pytest.mark.parametrize("kw", [
        {}, {"variant": "pe-resfields", "quintic": True},
        {"variant": "triplanes"}, {"variant": "triaxes"}, {"variant": "coupled4d-baseline"},
        {"variant": "triplanes", "batch_points": 30}],
        ids=["siren", "pe-quintic", "triplanes", "triaxes", "coupled4d", "triplanes-batch"])
    def test_a_fit_and_its_evaluation_match_the_float64_copy(self, file_and_wide, tmp_path,
                                                             kw):
        got = []
        for traj in file_and_wide:
            split = split_frames(traj, SplitSpec(4, 0.25), seed=3)
            fld, log = train(traj, split, TrainConfig(steps=3, seed=3, **kw))
            ckpt, report = tmp_path / "fit.ckpt", tmp_path / "report.csv"
            fld.save(ckpt)
            summary, rows = trainer.evaluate(SplineField.load(ckpt), traj, split)
            metrics.write_report(report, rows)
            got.append((ckpt.read_bytes(), summary, rows, report.read_bytes(),
                        [(r["total"], r["grad_norms"]) for r in log.rows]))
        assert got[0] == got[1]
