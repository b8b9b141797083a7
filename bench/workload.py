"""Run one benchmark workload in this process and write its result as JSON.

    python3 bench/workload.py --workload fit-mlp --seed 0 --seconds 30 \
        --trace 0 --result out.json [--reference bench/reference.json]

bench/run.py starts this in a fresh process per run, with BLAS threads
pinned, after the fixtures exist. Each workload is one caller in a closed
loop: the next operation starts when the previous one returned. The
workload seed makes the inputs (scene, split, query times); TrainConfig
keeps its defaults, seed included, apart from the variant and step count.

fit-mlp / fit-grid: repeated fits of TrainConfig(steps=FIT_STEPS) on the
2000-point fixture (read_traj, split_frames, train), then one save, the
evaluates and the flow frames on the last fitted field. The first fit of a
run is warm-up and is not timed: the process heap grows to its plateau
during it (see the memory note in bench/README.md).
query: load + read_traj + split_frames (SETUP_REPS times), one evaluate, a
stream of deform calls at seeded times, then the flow frames.

The amount of work is set by --seconds through the nominal rates below,
not by a clock, so two commits given the same --seconds do the same work
and their memory peaks and spans compare like for like.

Every fit step's total loss, the evaluate summary and digests of the deform
and flow outputs are checked against the recorded reference for the seed,
when there is one, and against the first value seen in this run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

import fixtures
import stats
import tracing
from splinefield import dataio, trainer
from splinefield.field import SplineField

WORKLOADS = ("fit-mlp", "fit-grid", "query")
FIT_VARIANTS = {"fit-mlp": "siren-resfields", "fit-grid": "triplanes"}
FIT_STEPS = {"fit-mlp": 40, "fit-grid": 8}        # steps per fit
STEPS_PER_SECOND = {"fit-mlp": 8.0, "fit-grid": 0.9}   # nominal, sizes a run
DEFORMS_PER_SECOND = 5.0   # nominal; leaves room for the 10 000-point evaluate
SETUP_REPS = 3             # timed set-ups per run, at least
EVAL_REPS = {"fit-mlp": 5, "fit-grid": 1, "query": 1}  # a 2 s evaluate is noisy alone
FLOW_FRAMES = 8            # the flow command's default frame count
DEFORM_TIMES = 16          # distinct seeded query times, cycled
REL_TOL = 1e-9             # reference agreement, relative
SPLIT = dataio.SplitSpec(fixtures.STRIDE, fixtures.SUPERVISED_FRACTION)
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".out")


@dataclass(frozen=True)
class Size:
    """How much of each operation one pass of a workload runs."""
    timed: int         # timed fits after the warm-up fit, or deform calls
    setups: int        # query set-ups
    evals: int
    flow: bool


def size(workload: str, seconds: float, least: int, evals: int, flow: bool) -> Size:
    """Operation counts for --seconds at the nominal rates, `least` at least."""
    if workload == "query":
        timed = max(DEFORM_TIMES, round(seconds * DEFORMS_PER_SECOND))
    else:
        timed = max(least, round(seconds * STEPS_PER_SECOND[workload] / FIT_STEPS[workload]))
    return Size(timed, max(least, 1), evals, flow)


def digest(a) -> list:
    """Order-independent fingerprint of an array: [sum |a|, sum a^2, sum a]."""
    a = np.asarray(a, dtype=np.float64)
    return [float(np.abs(a).sum()), float((a * a).sum()), float(a.sum())]


class Gate:
    """Counts operations and checks their outputs.

    Each value is compared with the reference for this seed, if recorded,
    and with the first value seen under the same key in this run."""

    def __init__(self, reference: dict | None):
        self.reference = reference or {}
        self.observed = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, what: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        if len(self.errors) < 10:
            self.errors.append(what)

    def check(self, key: str, values: list, each: bool = False, ok: bool = True,
              scale: float = 0.0) -> None:
        """One operation producing `values`, or one per value when `each`.

        Values agree within REL_TOL of the larger magnitude, or of `scale`
        when that is larger (for sums that can cancel to near zero)."""
        first = self.observed.setdefault(key, values)
        ref = self.reference.get(key)
        if ref is not None and len(ref) != len(values):
            self.fail(f"{key}: {len(values)} values, reference has {len(ref)}")
            return

        wants = [first] if ref is None else [first, ref]

        def agrees(i):
            v = values[i]
            return math.isfinite(v) and all(
                abs(v - w[i]) <= REL_TOL * max(abs(v), abs(w[i]), scale) for w in wants)

        groups = [[i] for i in range(len(values))] if each else [range(len(values))]
        for group in groups:
            if ok and all(agrees(i) for i in group):
                self.attempted += 1
            else:
                self.fail(f"{key}{list(group)} = {[values[i] for i in group]!r}")


def _now() -> float:
    return time.perf_counter()


def evaluate(fld, traj, split, n, tracer, gate) -> list:
    """n evaluates over the held-out frames; returns their seconds."""
    secs = []
    for _ in range(n):
        t0 = _now()
        try:
            with tracer.root("evaluate"):
                summary, _ = trainer.evaluate(fld, traj, split)
        except Exception as e:      # noqa: BLE001 - a failed op is counted
            gate.fail(f"evaluate: {e!r}")
            continue
        secs.append(_now() - t0)
        gate.check("eval", [summary["epe"], summary["mean_I"]])
    return secs


def flow(fld, tracer, gate, prefix) -> list:
    """The flow command's per-frame work; returns per-frame milliseconds."""
    frame_ms = []
    for j, t in enumerate(np.linspace(0.0, 1.0, FLOW_FRAMES)):
        t = float(t)
        path = f"{prefix}_{j:04d}.ply"
        t0 = _now()
        try:
            with tracer.root("flow_frame"):
                pts = fld.deform(fld.canonical, t)
                vel = fld.velocity(fld.canonical, t)
                dataio.export_ply(path, pts, dataio.flow_colors(vel))
        except Exception as e:      # noqa: BLE001
            gate.fail(f"flow frame {j}: {e!r}")
            continue
        frame_ms.append((_now() - t0) * 1e3)
        gate.check(f"flow{j}", digest(pts) + digest(vel), scale=1.0,
                   ok=os.path.getsize(path) > 0)
    return frame_ms


def run_fit(name, paths, seed, n: Size, tracer, gate) -> dict:
    cfg = trainer.TrainConfig(steps=FIT_STEPS[name], variant=FIT_VARIANTS[name])
    setup_s, step_ms = [], []
    fld = traj = split = None
    for rep in range(1 + n.timed):
        tracer.begin_root("setup")
        t0 = _now()
        traj = dataio.read_traj(paths["fit_traj"])
        split = dataio.split_frames(traj, SPLIT, seed=seed)
        t1 = _now()
        try:
            fld, log = trainer.train(traj, split, cfg)
        except Exception as e:      # noqa: BLE001
            gate.fail(f"fit {rep}: {e!r}", cfg.steps)
            continue
        finally:
            tracer.end_root()
        train_s = _now() - t1
        gate.check("losses", [row["total"] for row in log.rows], each=True)
        if rep == 0:
            continue
        wall_ms = [row["wallclock_ms"] for row in log.rows]
        setup_s.append(t1 - t0 + train_s - wall_ms[-1] / 1e3)
        step_ms.extend(np.diff(wall_ms, prepend=0.0).tolist())
    if fld is None:
        raise RuntimeError("every fit failed: " + "; ".join(gate.errors))

    with tracer.root("save"):
        fld.save(os.path.join(OUT_DIR, f"{name}.ckpt"))
    eval_s = evaluate(fld, traj, split, n.evals, tracer, gate)
    frame_ms = flow(fld, tracer, gate, os.path.join(OUT_DIR, f"{name}-flow")) if n.flow else []
    return {"setup_s": setup_s, "op_ms": step_ms, "eval_s": eval_s, "flow_ms": frame_ms}


def run_query(paths, seed, n: Size, tracer, gate) -> dict:
    setup_s = []
    for _ in range(n.setups):
        with tracer.root("setup"):
            t0 = _now()
            fld = SplineField.load(paths["query_ckpt"])
            traj = dataio.read_traj(paths["query_traj"])
            split = dataio.split_frames(traj, SPLIT, seed=seed)
            setup_s.append(_now() - t0)
    eval_s = evaluate(fld, traj, split, n.evals, tracer, gate)

    times = np.random.default_rng(seed).uniform(0.0, 1.0, DEFORM_TIMES)
    deform_ms = []
    for i in range(n.timed):
        k = i % DEFORM_TIMES
        t0 = _now()
        try:
            with tracer.root("deform"):
                tracer.sample_rss()
                out = fld.deform(fld.canonical, float(times[k]))
        except Exception as e:      # noqa: BLE001
            gate.fail(f"deform {k}: {e!r}")
            continue
        deform_ms.append((_now() - t0) * 1e3)
        gate.check(f"deform{k}", digest(out), scale=1.0)

    frame_ms = flow(fld, tracer, gate, os.path.join(OUT_DIR, "query-flow")) if n.flow else []
    return {"setup_s": setup_s, "op_ms": deform_ms, "eval_s": eval_s, "flow_ms": frame_ms}


def run(workload, paths, seed, n: Size, tracer, gate) -> dict:
    if workload == "query":
        return run_query(paths, seed, n, tracer, gate)
    return run_fit(workload, paths, seed, n, tracer, gate)


def end_to_end(workload, m: dict) -> tuple:
    """(metrics gated in BENCHMARK.json, the report under the per-workload
    names: [value, unit, sample count], value None for an unsupported tail)."""
    op = "fit_step" if workload != "query" else "deform"
    gated = {
        "setup_s": stats.median(m["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_p50": stats.median(m["op_ms"]),
        "eval_s": stats.median(m["eval_s"]),
    }
    report = {
        "setup_s": [gated["setup_s"], "s", len(m["setup_s"])],
        "peak_rss_mb": [gated["peak_rss_mb"], "MiB", 1],
        f"{op}_ms_p50": [gated["op_ms_p50"], "ms", len(m["op_ms"])],
        f"{op}_ms_p90": [stats.tail_percentile(m["op_ms"], 90), "ms", len(m["op_ms"])],
        "eval_s": [gated["eval_s"], "s", len(m["eval_s"])],
        "flow_frame_ms_p50": [stats.median(m["flow_ms"]), "ms", len(m["flow_ms"])],
    }
    return gated, report


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SDF_THREADS")}
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": threads}


def main() -> int:
    p = argparse.ArgumentParser(description="run one benchmark workload")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    p.add_argument("--reference", default=None, help="reference.json to check against")
    p.add_argument("--record", action="store_true",
                   help="one short untimed pass that only collects outputs")
    args = p.parse_args()

    reference = None
    if args.reference:
        with open(args.reference, encoding="utf-8") as f:
            reference = json.load(f).get(args.workload, {}).get(str(args.seed))
    os.makedirs(OUT_DIR, exist_ok=True)
    paths = fixtures.fixture_paths(args.seed)
    gate = Gate(reference)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(),
              "reference": reference is not None}
    wl, seed = args.workload, args.seed

    if args.record:
        run(wl, paths, seed, size(wl, 0, 0, 1, True), tracing.NullTracer(), gate)
    elif args.trace:
        # traced pass first, in a fresh process, so RSS growth shows; then
        # the main operations again untraced, with every wrapper removed
        half = args.seconds / 2.0
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run(wl, paths, seed, size(wl, half, 1, 1, True), tracer, gate)
        finally:
            tracer.uninstall()
        plain = run(wl, paths, seed, size(wl, half, 1, 0, False), tracing.NullTracer(), gate)
        layers = tracing.layer_metrics(tracer, "deform" if wl == "query" else "step")
        layers["trace_overhead_frac"] = (stats.median(traced["op_ms"])
                                         / stats.median(plain["op_ms"]) - 1.0)
        n_roots, table = tracing.per_root(tracer)
        result["per_layer"] = layers
        result["spans"] = {kind: {"roots": n_roots[kind], "layers": rows}
                           for kind, rows in table.items()}
        tracer.write(os.path.join(OUT_DIR, f"spans-{wl}-seed{seed}.jsonl"))
    else:
        n = size(wl, args.seconds, SETUP_REPS, EVAL_REPS[wl], True)
        m = run(wl, paths, seed, n, tracing.NullTracer(), gate)
        result["end_to_end"], result["report"] = end_to_end(wl, m)
        result["samples"] = m

    result.update(attempted=gate.attempted, failed=gate.failed, errors=gate.errors,
                  observed=gate.observed)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
