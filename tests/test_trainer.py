import numpy as np
import pytest

from splinefield import dataio, trainer
from splinefield.autodiff import ParamStore
from splinefield.dataio import SplitSpec, split_frames
from splinefield.trainer import Adam, TrainConfig, parse_run_config, train


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


class TestRunConfigParsing:
    def test_key_value_overrides(self):
        cfg = parse_run_config(["steps=50", "lr=0.01", "variant=triplanes",
                                "quintic=true"])
        assert (cfg.steps, cfg.lr, cfg.variant, cfg.quintic) == \
            (50, 0.01, "triplanes", True)

    def test_bad_key(self):
        with pytest.raises(ValueError):
            parse_run_config(["nonsense=1"])

    def test_bad_format(self):
        with pytest.raises(ValueError):
            parse_run_config(["steps"])

    @pytest.mark.parametrize("k", [0, -3])
    def test_knn_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="knn_k"):
            TrainConfig(knn_k=k)
        with pytest.raises(ValueError, match="knn_k"):
            parse_run_config([f"knn_k={k}"])


def _tiny_run(steps=15, **kw):
    traj = dataio.gen_synthetic("rigid-translate", 30, 9, seed=0)
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
        _, log = train(traj, split, cfg)
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,recon,lv,lacc,total,wallclock_ms"
        assert len(lines) == 4

    def test_batched_points_run(self):
        traj, split, cfg = _tiny_run(steps=5, batch_points=6)
        _, log = train(traj, split, cfg)
        assert len(log.rows) == 5


class TestEvaluate:
    def test_ground_truth_replay_scores_zero_epe(self):
        # a field is replaced by direct ground-truth lookup via a stub
        traj = dataio.gen_synthetic("bending-sheet", 200, 12, seed=1)
        split = split_frames(traj, SplitSpec(stride=4, supervised_fraction=0.5))

        class Replay:
            canonical = traj.positions[0]

            def deform(self, pts, times):
                idx = np.rint(np.asarray(times) * (traj.n_frames - 1)).astype(int)
                return traj.positions[idx]

        summary, rows = trainer.evaluate(Replay(), traj, split)
        assert summary["epe"] == 0.0
        assert len(rows) == len(split.test_frames)
        gt_rep = __import__("splinefield.metrics", fromlist=["x"]) \
            .morans_i_sequence(traj.positions[list(split.test_frames)], k=10)
        assert summary["mean_I"] == pytest.approx(gt_rep.mean, rel=1e-12)

    def test_still_transitions_are_reported_as_skipped(self):
        base = np.random.default_rng(2).normal(size=(30, 3))
        steps = np.minimum(np.arange(12), 6)[:, None, None]   # still from frame 6
        traj = dataio.TrajectorySet(base + steps * np.array([0.1, 0.0, 0.0]))
        split = split_frames(traj, SplitSpec(stride=4, supervised_fraction=1.0))

        class Replay:
            canonical = traj.positions[0]

            def deform(self, pts, times):
                idx = np.rint(np.asarray(times) * (traj.n_frames - 1)).astype(int)
                return traj.positions[idx]

        frames = [1, 3, 6, 7, 9]
        summary, rows = trainer.evaluate(Replay(), traj, split, frames=frames, k=5)
        assert summary["skipped"] == [6, 7]
        assert [r["mean_I"] is None for r in rows] == [False, False, True, True, True]
        assert summary["mean_I"] == pytest.approx(1.0, abs=1e-12)
        assert summary["n_frames"] == 5

    def test_split_arithmetic(self):
        traj = dataio.gen_synthetic("rigid-translate", 20, 120, seed=0)
        split = split_frames(traj, SplitSpec(stride=4, supervised_fraction=0.25))
        assert len(split.test_frames) == 90

    def test_report_matches_direct_metric_calls(self):
        from splinefield import metrics
        traj, split, cfg = _tiny_run(steps=10)
        fld, _ = train(traj, split, cfg)
        summary, rows = trainer.evaluate(fld, traj, split, scale=1e4)
        t0 = split.test_frames[0]
        direct = metrics.epe(fld.deform(fld.canonical, traj.frame_time(t0)),
                             traj.positions[t0], scale=1e4)
        assert rows[0]["epe"] == pytest.approx(direct, rel=1e-12)
