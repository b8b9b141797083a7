from dataclasses import fields

import numpy as np
import pytest

from splinefield import autodiff as ad
from splinefield import dataio, losses, metrics, trainer
from splinefield.autodiff import ParamStore, Tape
from splinefield.dataio import SplitSpec, split_frames
from splinefield.field import SplineField
from splinefield.trainer import Adam, TrainConfig, parse_run_config, train

from gradcheck import fd_check


def _store_with(theta):
    store = ParamStore()
    store.add("theta", np.asarray(theta, dtype=np.float64))
    return store


class TestAdam:
    def test_zero_gradients_leave_parameters_unchanged(self):
        store = _store_with([1.0, 2.0])
        opt = Adam(store, TrainConfig(lr=0.1))
        for _ in range(3):
            store.zero_grad()
            opt.step()
        np.testing.assert_array_equal(store.value("theta"), [1.0, 2.0])

    def test_first_step_magnitude_is_lr(self):
        # bias correction makes the first update exactly lr for constant g
        store = _store_with([0.0])
        opt = Adam(store, TrainConfig(lr=0.05))
        store.grad("theta")[:] = 7.3
        opt.step()
        assert abs(store.value("theta")[0]) == pytest.approx(0.05, rel=1e-6)

    def test_quadratic_bowl_converges(self):
        store = _store_with([1.0, -0.5])
        opt = Adam(store, TrainConfig(lr=1e-2))
        for _ in range(500):
            store.zero_grad()
            store.grad("theta")[:] = 2.0 * store.value("theta")
            opt.step()
        assert np.max(np.abs(store.value("theta"))) < 1e-3

    def test_nonfinite_gradient_aborts_with_group_name(self):
        store = _store_with([1.0])
        opt = Adam(store, TrainConfig())
        store.grad("theta")[:] = np.nan
        with pytest.raises(Exception, match="theta"):
            opt.step()

    def test_grid_parameters_get_boosted_lr(self):
        store = ParamStore()
        store.add("codes", np.zeros(2))
        store.add("enc.grid.L0.xy.base", np.zeros(2))
        store.add("enc.mlp.l0.Wb", np.zeros(2))
        opt = Adam(store, TrainConfig(lr=1e-3, grid_lr_mult=10))
        assert opt.lr_for("codes") == pytest.approx(1e-2)
        assert opt.lr_for("enc.grid.L0.xy.base") == pytest.approx(1e-2)
        assert opt.lr_for("enc.mlp.l0.Wb") == pytest.approx(1e-3)


class _FormerAdam(Adam):
    """The per-name Adam with whole-array temporaries that the blocked,
    in-place step replaced; the oracle of its bitwise tests."""

    def step(self, lr_scale: float = 1.0) -> None:
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for name in self.store.names():
            g = self.store.grad(name)
            if not np.all(np.isfinite(g)):
                raise trainer.DivergenceError(
                    f"non-finite gradient in parameter group {name!r}")
            m = self._m[name]
            v = self._v[name]
            m *= c.beta1
            m += (1.0 - c.beta1) * g
            v *= c.beta2
            v += (1.0 - c.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + c.eps)
            self.store.value(name)[...] -= self.lr_for(name, lr_scale) * update


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
        cfg = TrainConfig(lr=3e-3, grid_lr_mult=10.0)
        opt_new, opt_old = Adam(new, cfg), _FormerAdam(old, cfg)
        rng = np.random.default_rng(12)
        for step in range(5):
            for name, shape in self.SIZES.items():
                g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3)
                new.grad(name)[...] = g
                old.grad(name)[...] = g
            lr_scale = 1.0 - 0.15 * step
            opt_new.step(lr_scale)
            opt_old.step(lr_scale)
        for name in self.SIZES:
            np.testing.assert_array_equal(new.value(name), old.value(name), err_msg=name)
            np.testing.assert_array_equal(opt_new._m[name], opt_old._m[name], err_msg=name)
            np.testing.assert_array_equal(opt_new._v[name], opt_old._v[name], err_msg=name)

    def test_step_returns_gradient_norms(self):
        store, _ = self._stores()
        rng = np.random.default_rng(13)
        for name, shape in self.SIZES.items():
            store.grad(name)[...] = rng.normal(size=shape)
        norms = Adam(store, TrainConfig()).step()
        assert list(norms) == list(self.SIZES)
        for name in self.SIZES:
            assert norms[name] == pytest.approx(np.linalg.norm(store.grad(name)), rel=1e-12)

    def test_overflowing_squares_are_not_divergence(self):
        store = _store_with([1.0, 2.0])
        store.grad("theta")[:] = [3e200, -4e200]
        with np.errstate(over="ignore"):
            norms = Adam(store, TrainConfig()).step()
        assert norms["theta"] == pytest.approx(5e200, rel=1e-12)
        assert np.all(np.isfinite(store.value("theta")))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_gradient_names_group_and_updates_nothing(self, bad):
        store = ParamStore()
        store.add("a", [1.0, 2.0])
        store.add("b", [3.0, 4.0])
        store.grad("a")[:] = 0.5
        store.grad("b")[1] = bad
        opt = Adam(store, TrainConfig())
        with pytest.raises(trainer.DivergenceError, match="'b'"):
            opt.step()
        np.testing.assert_array_equal(store.value("a"), [1.0, 2.0])
        assert opt.t == 0


class TestRunConfigParsing:
    def test_key_value_overrides(self):
        cfg = parse_run_config(["steps=50", "lr=0.01", "variant=triplanes",
                                "quintic=true"])
        assert (cfg.steps, cfg.lr, cfg.variant, cfg.quintic) == \
            (50, 0.01, "triplanes", True)

    def test_bad_key(self):
        with pytest.raises(ValueError, match="'nonsense'") as exc:
            parse_run_config(["nonsense=1"])
        assert ", ".join(f.name for f in fields(TrainConfig)) in str(exc.value)

    def test_bad_format(self):
        with pytest.raises(ValueError):
            parse_run_config(["steps"])

    def test_false_boolean(self):
        assert parse_run_config(["quintic=off"], TrainConfig(quintic=True)).quintic is False

    def test_bad_boolean(self):
        with pytest.raises(ValueError, match="bad boolean for quintic: 'maybe'"):
            parse_run_config(["quintic=maybe"])

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
            parse_run_config([f"knn_k={k}"])


def _tiny_run(steps=15, kind="rigid-translate", **kw):
    traj = dataio.gen_synthetic(kind, 30, 9, seed=0)
    split = split_frames(traj, SplitSpec(stride=2, supervised_fraction=0.5), seed=0)
    base = dict(steps=steps, rank=2, hidden=16, depth=2, knn_k=4, seed=0)
    base.update(kw)
    return traj, split, TrainConfig(**base)


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

    def test_rank_zero_plateaus_on_motion(self):
        # time-invariant encoding cannot distinguish knots: recon stays high
        traj, split, cfg = _tiny_run(steps=120, rank=0, alpha=0.0, beta=0.0)
        _, log = train(traj, split, cfg)
        moved = np.linalg.norm(traj.positions[-1, 0] - traj.positions[0, 0])
        assert log.rows[-1]["recon"] > 0.02 * moved

    def test_knot_count_resolution(self):
        assert trainer.resolve_n_knots(TrainConfig(knot_factor=2), 30) == 15
        assert trainer.resolve_n_knots(TrainConfig(n_knots=7), 30) == 7

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
    """The former training step, one knot cache per loss term: recon frames,
    velocity closure and acceleration. Returns (total, {group: gradient})."""
    rng = np.random.default_rng(cfg.seed)
    canonical = traj.positions[0]
    n_knots = trainer.resolve_n_knots(cfg, len(split.train_frames))
    fld = _Perturbed(trainer._field_config(cfg, n_knots), canonical, seed=cfg.seed)
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
    n_f = min(cfg.frames_per_step, train_frames.shape[0])
    frame_ids = rng.choice(train_frames.shape[0], n_f, replace=False)
    knot_cache = {}
    recon = None
    for fi in train_frames[frame_ids]:
        pred = fld.deform_var(tape, batch_pts, traj.frame_time(int(fi)),
                              knot_cache=knot_cache)
        term = losses.recon_loss_l1(pred, traj.positions[fi][sup[rows]])
        recon = term if recon is None else recon + term
    recon = recon * (1.0 / n_f)
    lv = lacc = 0.0
    if cfg.alpha > 0 or cfg.beta > 0:
        t_rand = float(rng.uniform(0.0, 1.0))
        if cfg.alpha > 0:
            needed, loc_rows, loc_nbrs, w_rows = graph.subgraph_closure(rows)
            vel = fld.velocity_var(tape, sup_pts[needed], t_rand, knot_cache={})
            lv = losses.velocity_loss_rows(vel, loc_rows, loc_nbrs, w_rows)
        if cfg.beta > 0:
            acc = fld.acceleration_var(tape, batch_pts, t_rand, knot_cache={})
            lacc = losses.acceleration_loss(acc, mode=cfg.accel_mode)
    total = losses.total_loss(recon, lv, lacc, cfg.alpha, cfg.beta)
    fld.store.zero_grad()
    tape.backward(total)
    return float(total.value), {n: fld.store.grad(n).copy() for n in fld.store.names()}


class _KnotCalls:
    """Records (knot index, point count) of every predict_knot call, per step."""

    def __init__(self, monkeypatch):
        self.steps = []
        predict = SplineField.predict_knot
        tape_cls = trainer.Tape

        def counting(fld, tape, points, knot_idx):
            self.steps[-1].append((knot_idx, len(points)))
            return predict(fld, tape, points, knot_idx)

        def step_tape():
            self.steps.append([])
            return tape_cls()

        monkeypatch.setattr(SplineField, "predict_knot", counting)
        monkeypatch.setattr(trainer, "Tape", step_tape)


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

    @pytest.mark.parametrize("batch_points,quintic,alpha,beta", [
        (0, False, 1.0, 0.01), (6, False, 1.0, 0.01), (0, True, 1.0, 0.01),
        (6, True, 1.0, 0.01), (6, False, 0.0, 0.01), (6, False, 1.0, 0.0),
        (0, True, 1.0, 0.0)])
    def test_gradients_match_three_cache_step(self, monkeypatch, batch_points, quintic,
                                              alpha, beta):
        # a non-rigid scene, so that a misaligned row shows in the recon term,
        # which reads every training frame and so the knots around t_rand too
        traj, split, cfg = _tiny_run(steps=1, kind="composite", batch_points=batch_points,
                                     frames_per_step=9, n_knots=4, quintic=quintic,
                                     alpha=alpha, beta=beta)
        monkeypatch.setattr(trainer, "SplineField", _Perturbed)
        fld, log = train(traj, split, cfg)
        total, grads = _three_cache_step(traj, split, cfg)
        assert log.rows[0]["total"] == pytest.approx(total, rel=1e-12, abs=0)
        for name, g in grads.items():
            tol = 1e-12 * max(np.max(np.abs(g)), 1e-300)
            np.testing.assert_allclose(fld.store.grad(name), g, rtol=0, atol=tol,
                                       err_msg=name)

    def test_sliced_knot_states_pass_fd_check(self):
        traj, split, cfg = _tiny_run(quintic=True)
        sup_pts = traj.positions[0][np.asarray(split.supervised)]
        fld = SplineField(trainer._field_config(cfg, 4), traj.positions[0], seed=3)
        rng = np.random.default_rng(3)
        for name in fld.store.names():
            fld.store.value(name)[...] = rng.normal(0.0, 0.05, fld.store.value(name).shape)
        graph = losses.build_knn(sup_pts, cfg.knn_k)
        rows = np.array([1, 4, 7, 8, 12])
        needed, loc_rows, loc_nbrs, w_rows = graph.subgraph_closure(rows)
        assert len(needed) > len(rows)

        def loss(tape):
            cache = {}
            vel = fld.velocity_var(tape, sup_pts[needed], 0.4, knot_cache=cache)
            lv = losses.velocity_loss_rows(vel, loc_rows, loc_nbrs, w_rows)
            cache = {k: tuple(ad.take(s, loc_rows) for s in state)
                     for k, state in cache.items()}
            pos = fld.deform_var(tape, sup_pts[rows], 0.9, knot_cache=cache)
            acc = fld.acceleration_var(tape, sup_pts[rows], 0.4, knot_cache=cache)
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
    tape = ad._tape_of(v, stack)
    vv, sv = ad._val(v), ad._val(stack)
    out = ad.Var(np.tensordot(vv, sv, axes=(0, 0)), tape)

    def bw():
        if out.grad is None:
            return
        g = out.grad
        ad._accum(v, np.tensordot(sv, g, axes=(tuple(range(1, sv.ndim)),
                                               tuple(range(g.ndim)))))
        ad._accum(stack, vv.reshape((-1,) + (1,) * g.ndim) * g[None, ...])

    tape.record(bw)
    return out


class TestOneLeafPerTape:
    VARIANTS = [("siren-resfields", False), ("pe-resfields", False), ("triplanes", False),
                ("triaxes", False), ("coupled4d-baseline", False), ("siren-resfields", True)]

    @pytest.mark.parametrize("variant,quintic", VARIANTS)
    def test_fit_bitwise_equal_to_flush_per_call(self, monkeypatch, variant, quintic):
        traj, split, cfg = _tiny_run(steps=3, kind="composite", variant=variant,
                                     quintic=quintic, batch_points=6, lr_decay=0.5)
        monkeypatch.setattr(trainer, "SplineField", _Perturbed)
        fld, log = train(traj, split, cfg)
        with monkeypatch.context() as m:
            m.setattr(ParamStore, "var", _flush_per_call_var)
            m.setattr(ad, "weighted_stack_sum", _outer_product_stack_sum)
            m.setattr(trainer, "Adam", _FormerAdam)
            ref, ref_log = train(traj, split, cfg)
        assert [r["total"] for r in log.rows] == [r["total"] for r in ref_log.rows]
        for name in ref.store.names():
            np.testing.assert_array_equal(fld.store.value(name), ref.store.value(name),
                                          err_msg=name)
            np.testing.assert_array_equal(fld.store.grad(name), ref.store.grad(name),
                                          err_msg=name)

    @pytest.mark.parametrize("variant", ["siren-resfields", "triplanes"])
    def test_fit_step_makes_one_leaf_per_parameter(self, monkeypatch, variant):
        leaves = []
        var = ParamStore.var

        def counting_var(store, name, tape):
            leaf = var(store, name, tape)
            leaves.append((tape, name, leaf))
            return leaf

        monkeypatch.setattr(ParamStore, "var", counting_var)
        traj, split, cfg = _tiny_run(steps=2, kind="composite", variant=variant)
        fld, _ = train(traj, split, cfg)
        tapes = {id(t) for t, _, _ in leaves}
        assert len(tapes) == 2
        for tape_id in tapes:
            per_name = {}
            for t, name, leaf in leaves:
                if id(t) == tape_id:
                    per_name.setdefault(name, set()).add(id(leaf))
            assert sorted(per_name) == sorted(fld.store.names())
            assert all(len(ids) == 1 for ids in per_name.values())
            assert len([n for t, n, _ in leaves if id(t) == tape_id]) > len(per_name)

    def test_runlog_rows_carry_gradient_norms(self, monkeypatch):
        norms = []
        step = Adam.step
        monkeypatch.setattr(Adam, "step", lambda opt, *a: norms.append(
            {n: float(np.linalg.norm(opt.store.grad(n))) for n in opt.store.names()})
            or step(opt, *a))
        traj, split, cfg = _tiny_run(steps=3)
        fld, log = train(traj, split, cfg)
        assert len(norms) == 3
        for row, want in zip(log.rows, norms):
            assert list(row["grad_norms"]) == fld.store.names()
            for name, value in want.items():
                assert row["grad_norms"][name] == pytest.approx(value, rel=1e-12)


class TestTrainBoundaries:
    def _sparse(self):
        traj = dataio.gen_synthetic("composite", 200, 9, seed=0)
        split = split_frames(traj, SplitSpec(stride=2, supervised_fraction=0.25), seed=0)
        assert len(split.supervised) == 50
        return traj, split

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
            if len(calls) <= 2 * min(cfg.frames_per_step, len(split.train_frames)):
                return term                 # steps 0 and 1 run clean
            if fault == "loss":
                return ad.mul(term, np.nan)
            return ad._op(term.value, term.tape,
                          lambda g: ad._accum(term, np.full_like(g, np.nan)))
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
    """A field stand-in whose deform looks up the ground-truth frame at each time."""

    def __init__(self, traj):
        self.traj, self.canonical = traj, traj.positions[0]

    def deform(self, pts, times):
        idx = np.rint(np.asarray(times) * (self.traj.n_frames - 1)).astype(int)
        return self.traj.positions[idx]


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

    def test_split_arithmetic(self):
        traj = dataio.gen_synthetic("rigid-translate", 20, 120, seed=0)
        split = split_frames(traj, SplitSpec(stride=4, supervised_fraction=0.25))
        assert len(split.test_frames) == 90

    def test_report_matches_direct_metric_calls(self):
        traj, split, cfg = _tiny_run(steps=10)
        fld, _ = train(traj, split, cfg)
        summary, rows = trainer.evaluate(fld, traj, split, scale=1e4)
        t0 = split.test_frames[0]
        direct = metrics.epe(fld.deform(fld.canonical, traj.frame_time(t0)),
                             traj.positions[t0], scale=1e4)
        assert rows[0]["epe"] == pytest.approx(direct, rel=1e-12)
