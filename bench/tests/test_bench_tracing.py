import gc
import itertools

import numpy as np
import pytest

import tracing
import workload
from splinefield import autodiff, dataio, encoders, field, losses, metrics, trainer
from splinefield.dataio import SplitSpec


def _fake_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


class TestSelfTime:
    def test_children_are_subtracted_from_their_parent_only(self):
        tr = tracing.Tracer(clock=_fake_clock())
        tr.begin_root("step")          # t=0
        a = tr.begin("a")              # t=1
        b = tr.begin("b")              # t=2
        tr.end(b)                      # t=3
        c = tr.begin("c")              # t=4
        tr.end(c)                      # t=5
        tr.end(a)                      # t=6
        tr.end_root()                  # t=7
        by_name = dict(zip((s[tracing.NAME] for s in tr.spans),
                           tracing.self_times(tr.spans)))
        assert by_name == {"step": 2.0, "a": 3.0, "b": 1.0, "c": 1.0}

    def test_spans_of_one_root_share_its_id(self):
        tr = tracing.Tracer(clock=_fake_clock())
        for _ in range(2):
            with tr.root("query"):
                tr.end(tr.begin("x"))
        assert [s[tracing.ROOT] for s in tr.spans] == [0, 0, 1, 1]
        assert [s[tracing.PARENT] for s in tr.spans] == [None, 0, None, 2]

    def test_per_root_sums_calls_and_self_time(self):
        tr = tracing.Tracer(clock=_fake_clock())
        for _ in range(2):
            with tr.root("step"):
                outer = tr.begin("outer")
                tr.end(tr.begin("inner"))
                tr.end(outer)
        n_roots, table = tracing.per_root(tr)
        assert n_roots["step"] == 2
        assert table["step"]["outer"] == [2, 6.0, 4.0]
        assert table["step"]["inner"] == [2, 2.0, 2.0]

    def test_out_of_order_end_raises(self):
        tr = tracing.Tracer(clock=_fake_clock())
        a = tr.begin("a")
        tr.begin("b")
        with pytest.raises(RuntimeError):
            tr.end(a)


PATCHED = [
    (autodiff.Tape, "backward"), (autodiff.Tape, "record"),
    (autodiff, "bilinear_sample"), (autodiff, "matmul"),
    (autodiff, "weighted_stack_sum"), (encoders.SirenResFieldsEncoder, "encode"),
    (encoders.TriplaneEncoder, "encode"), (field.SplineField, "predict_knot"),
    (field.SplineField, "deform_var"), (field.SplineField, "load"),
    (field.SplineField, "save"), (losses, "build_knn"), (metrics, "epe"),
    (metrics, "morans_i_sequence"), (trainer, "Tape"), (trainer.Adam, "step"),
    (trainer.RunLog, "record"), (dataio, "read_traj"), (dataio, "export_ply"),
]


def _tiny_problem():
    traj = dataio.gen_synthetic("composite", 40, 9, seed=0)
    split = dataio.split_frames(traj, SplitSpec(4, 0.5), seed=0)
    cfg = trainer.TrainConfig(steps=3, hidden=8, depth=2, rank=2, knn_k=4)
    return traj, split, cfg


class TestInstall:
    def test_uninstall_restores_the_original_objects(self):
        before = {(o, a): vars(o)[a] for o, a in PATCHED}
        callbacks = list(gc.callbacks)
        tr = tracing.Tracer()
        tr.install()
        try:
            assert all(vars(o)[a] is not before[(o, a)] for o, a in PATCHED)
        finally:
            tr.uninstall()
        assert all(vars(o)[a] is before[(o, a)] for o, a in PATCHED)
        assert gc.callbacks == callbacks

    def test_untraced_calls_after_uninstall_record_nothing(self):
        traj, split, cfg = _tiny_problem()
        tr = tracing.Tracer()
        tr.install()
        tr.uninstall()
        trainer.train(traj, split, cfg)
        assert tr.spans == [] and not tr.counts

    def test_traced_fit_matches_untraced_and_marks_steps(self):
        traj, split, cfg = _tiny_problem()
        _, plain = trainer.train(traj, split, cfg)
        tr = tracing.Tracer()
        tr.install()
        try:
            with tr.root("setup"):
                _, traced = trainer.train(traj, split, cfg)
        finally:
            tr.uninstall()
        assert [r["total"] for r in traced.rows] == [r["total"] for r in plain.rows]
        n_roots, table = tracing.per_root(tr)
        assert n_roots["step"] == cfg.steps and n_roots["setup"] == 1
        assert "losses.build_knn" in table["setup"]
        assert table["step"]["autodiff.backward"][0] == cfg.steps
        layers = tracing.layer_metrics(tr, "step")
        assert set(tracing.LAYER_METRICS) <= set(layers)
        assert layers["autodiff.tape_nodes"] > 0
        assert layers["trainer.forward_ms"] > 0
        assert len(tr.rss) == cfg.steps

    def test_bilinear_backward_closures_are_timed_inside_backward(self):
        tr = tracing.Tracer()
        tr.install()
        try:
            with tr.root("step"):
                tape = autodiff.Tape()
                plane = autodiff.Var(np.ones((4, 4, 2)), tape)
                out = autodiff.bilinear_sample(plane, np.array([0.5, 2.0]),
                                               np.array([1.5, 0.0]))
                tape.backward(autodiff.vsum(out))
        finally:
            tr.uninstall()
        names = [s[tracing.NAME] for s in tr.spans]
        bw = tr.spans[names.index("autodiff.bw_bilinear_sample")]
        assert tr.spans[bw[tracing.PARENT]][tracing.NAME] == "autodiff.backward"
        assert names.count("autodiff.bilinear_sample") == 1


class TestGate:
    def test_reference_mismatch_counts_as_failure(self):
        gate = workload.Gate({"losses": [1.0, 2.0]})
        gate.check("losses", [1.0, 2.0 * (1 + 1e-6)], each=True)
        assert (gate.attempted, gate.failed) == (2, 1)

    def test_reordered_sums_pass(self):
        gate = workload.Gate({"eval": [1000.0, 0.8]})
        gate.check("eval", [1000.0 * (1 + 1e-12), 0.8])
        assert (gate.attempted, gate.failed) == (1, 0)

    def test_run_must_agree_with_its_first_value(self):
        gate = workload.Gate(None)
        gate.check("deform0", [1.0, 2.0, 0.0], scale=1.0)
        gate.check("deform0", [1.0, 2.0, 0.5], scale=1.0)
        assert (gate.attempted, gate.failed) == (2, 1)

    def test_non_finite_fails(self):
        gate = workload.Gate(None)
        gate.check("eval", [float("nan"), 0.5])
        assert gate.failed == 1
