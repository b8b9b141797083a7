"""Spans around the public entry points of each splinefield module.

The traced run installs wrappers from here; the program itself carries no
tracing. Each span records its name, start, end, parent span and the id of
the root operation (one fit step, one query) it belongs to. Spans stay in
memory and are written out when the run ends.

`Tracer.install` replaces module and class attributes with timing wrappers
and `Tracer.uninstall` puts back the exact objects it replaced, so code run
afterwards calls the original functions.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import os
import time
from collections import Counter, defaultdict

# Span fields, stored as lists so `end` can be filled in place.
NAME, START, END, PARENT, ROOT = range(5)

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Resident set size of this process in MiB, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[1]) * _PAGE_MB


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent, root]
        self.roots = {}          # root id -> span index
        self.counts = Counter()  # (root kind, name) -> count
        self.gc_pauses = []      # (root kind, seconds, generation)
        self.rss = []            # MiB at each Adam step or query
        self._stack = []
        self._root = None        # span index of the open root
        self._gc_start = None
        self._gc_kind = None
        self._in_bilinear = 0
        self._patched = []       # (owner, attr, original object)

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[self._root][ROOT] if self._root is not None else None
        self.spans.append([name, self.clock(), None, parent, root])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]!r} ended out of order")
        self._stack.pop()
        self.spans[idx][END] = self.clock()

    def begin_root(self, kind: str) -> None:
        """Close the open root operation, if any, and open a new one."""
        self.end_root()
        if self._stack:
            raise RuntimeError("a root operation cannot start inside a span")
        root_id = len(self.roots)
        idx = len(self.spans)
        self.spans.append([kind, self.clock(), None, None, root_id])
        self._stack.append(idx)
        self._root = idx
        self.roots[root_id] = idx

    def end_root(self) -> None:
        if self._root is not None:
            self.end(self._root)
            self._root = None

    @contextlib.contextmanager
    def root(self, kind: str):
        self.begin_root(kind)
        try:
            yield
        finally:
            self.end_root()

    def root_kind(self):
        return self.spans[self._root][NAME] if self._root is not None else None

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.root_kind(), name)] += n

    def sample_rss(self) -> None:
        self.rss.append(rss_mb())

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapper

    def _replace(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, owner, attr, name) -> None:
        self._replace(owner, attr, self._timed(name, vars(owner)[attr]))

    def _on_gc(self, phase, info) -> None:
        now = self.clock()
        if phase == "start":
            self._gc_start, self._gc_kind = now, self.root_kind()
        elif self._gc_start is not None:
            self.gc_pauses.append((self._gc_kind, now - self._gc_start,
                                   info["generation"]))
            self._gc_start = None

    def install(self) -> None:
        """Wrap the public entry points of every splinefield module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        from splinefield import (autodiff, dataio, encoders, field, losses,
                                 metrics, trainer)
        tracer = self

        # autodiff: backward sweep, tape node count, hot primitives, and the
        # backward closures that bilinear_sample hands to Tape.record
        self._wrap(autodiff.Tape, "backward", "autodiff.backward")
        record = autodiff.Tape.record

        def counting_record(tape, fn):
            tracer.count("autodiff.tape_nodes")
            if tracer._in_bilinear:
                fn = tracer._timed("autodiff.bw_bilinear_sample", fn)
            return record(tape, fn)
        self._replace(autodiff.Tape, "record", counting_record)

        sample = autodiff.bilinear_sample

        @functools.wraps(sample)
        def bilinear(*args, **kwargs):
            tracer._in_bilinear += 1
            try:
                return sample(*args, **kwargs)
            finally:
                tracer._in_bilinear -= 1
        self._replace(autodiff, "bilinear_sample",
                      self._timed("autodiff.bilinear_sample", bilinear))
        self._wrap(autodiff, "matmul", "autodiff.matmul")
        self._wrap(autodiff, "weighted_stack_sum", "autodiff.weighted_stack_sum")

        # encoders: every encoder class's encode
        for cls in vars(encoders).values():
            if isinstance(cls, type) and "encode" in vars(cls):
                self._wrap(cls, "encode", "encoders.encode")

        # field: knot predictions, the spline combine, checkpoints
        for attr in ("predict_knot", "deform_var", "velocity_var", "acceleration_var"):
            self._wrap(field.SplineField, attr, f"field.{attr}")
        save = field.SplineField.save

        @functools.wraps(save)
        def traced_save(fld, path):
            save(fld, path)
            tracer.count("field.checkpoint_bytes", os.path.getsize(path))
        self._replace(field.SplineField, "save", self._timed("field.save", traced_save))
        load = vars(field.SplineField)["load"].__func__

        @functools.wraps(load)
        def traced_load(cls, path):
            tracer.count("field.checkpoint_bytes", os.path.getsize(path))
            return load(cls, path)
        self._replace(field.SplineField, "load",
                      classmethod(self._timed("field.load", traced_load)))

        # losses
        for attr in ("build_knn", "recon_loss_l1", "velocity_loss_rows",
                     "acceleration_loss"):
            self._wrap(losses, attr, f"losses.{attr}")
        self._wrap(losses.NeighborGraph, "subgraph_closure", "losses.subgraph_closure")

        # metrics
        self._wrap(metrics, "morans_i_sequence", "metrics.morans_i_sequence")
        self._wrap(metrics, "epe", "metrics.epe")

        # trainer: a step opens with the loop's Tape() and closes at
        # RunLog.record; Adam.step also samples RSS
        tape_cls = trainer.Tape

        def step_tape():
            tracer.begin_root("step")
            return tape_cls()
        self._replace(trainer, "Tape", step_tape)
        log_record = trainer.RunLog.record

        @functools.wraps(log_record)
        def traced_log_record(log, *args, **kwargs):
            log_record(log, *args, **kwargs)
            tracer.end_root()
        self._replace(trainer.RunLog, "record", traced_log_record)
        adam_step = trainer.Adam.step

        @functools.wraps(adam_step)
        def traced_adam_step(opt, *args, **kwargs):
            tracer.sample_rss()
            return adam_step(opt, *args, **kwargs)
        self._replace(trainer.Adam, "step", self._timed("trainer.adam", traced_adam_step))

        # dataio
        for attr in ("read_traj", "split_frames", "export_ply", "flow_colors"):
            self._wrap(dataio, attr, f"dataio.{attr}")

        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every replaced attribute; the program runs untraced again."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self.end_root()

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write spans and counters as JSON lines."""
        with open(path, "w", encoding="utf-8") as f:
            counts = [[kind, name, n] for (kind, name), n in self.counts.items()]
            f.write(json.dumps({"counts": counts, "rss_mb": self.rss,
                                "gc_pauses": self.gc_pauses}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


class NullTracer:
    """Stands in for a Tracer in the untraced run."""

    @contextlib.contextmanager
    def root(self, kind):
        yield

    def begin_root(self, kind):
        pass

    def end_root(self):
        pass

    def sample_rss(self):
        pass


# -- analysis ----------------------------------------------------------------


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(idx)
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, reach = 0.0, lo
        for c in sorted(children[idx], key=lambda i: spans[i][START]):
            c_lo, c_hi = max(spans[c][START], reach), min(spans[c][END], hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out.append((hi - lo) - covered)
    return out


def per_root(tracer: Tracer):
    """Per root kind: how many roots, and for each span name inside them the
    call count, total seconds and self seconds summed over those roots."""
    selfs = self_times(tracer.spans)
    n_roots = Counter(tracer.spans[i][NAME] for i in tracer.roots.values())
    table = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
    for idx, span in enumerate(tracer.spans):
        if span[ROOT] is None or span[END] is None:
            continue
        kind = tracer.spans[tracer.roots[span[ROOT]]][NAME]
        row = table[kind][span[NAME]]
        row[0] += 1
        row[1] += span[END] - span[START]
        row[2] += selfs[idx]
    return n_roots, table


# Per-layer metric -> (span or counter name, statistic, root kind). A root
# kind of None means the workload's main operation: a fit step on the fit
# workloads, a deform query on query. Values are per root of that kind.
LAYER_METRICS = {
    "autodiff.backward_ms": ("autodiff.backward", "ms", None),
    "autodiff.tape_nodes": ("autodiff.tape_nodes", "count", None),
    "autodiff.bilinear_sample_ms": ("autodiff.bilinear_sample", "ms", None),
    "autodiff.bilinear_sample_calls": ("autodiff.bilinear_sample", "calls", None),
    "autodiff.bw_bilinear_sample_ms": ("autodiff.bw_bilinear_sample", "ms", None),
    "autodiff.matmul_ms": ("autodiff.matmul", "ms", None),
    "autodiff.weighted_stack_sum_ms": ("autodiff.weighted_stack_sum", "ms", None),
    "encoders.encode_ms": ("encoders.encode", "ms", None),
    "encoders.encode_calls": ("encoders.encode", "calls", None),
    "field.predict_knot_ms": ("field.predict_knot", "ms", None),
    "field.predict_knot_calls": ("field.predict_knot", "calls", None),
    "field.load_ms": ("field.load", "ms", "setup"),
    "field.save_ms": ("field.save", "ms", "save"),
    "losses.build_knn_ms": ("losses.build_knn", "ms", "setup"),
    "losses.recon_ms": ("losses.recon_loss_l1", "ms", None),
    "losses.velocity_ms": ("losses.velocity_loss_rows", "ms", None),
    "losses.accel_ms": ("losses.acceleration_loss", "ms", None),
    "losses.subgraph_closure_ms": ("losses.subgraph_closure", "ms", None),
    "metrics.morans_i_ms": ("metrics.morans_i_sequence", "ms", "evaluate"),
    "metrics.epe_ms": ("metrics.epe", "ms", "evaluate"),
    "trainer.adam_ms": ("trainer.adam", "ms", None),
    "dataio.read_traj_ms": ("dataio.read_traj", "ms", "setup"),
    "dataio.split_frames_ms": ("dataio.split_frames", "ms", "setup"),
    "dataio.export_ply_ms": ("dataio.export_ply", "ms", "flow_frame"),
    "dataio.flow_colors_ms": ("dataio.flow_colors", "ms", "flow_frame"),
}
_COMBINE_SPANS = ("field.deform_var", "field.velocity_var", "field.acceleration_var")


def layer_metrics(tracer: Tracer, main_kind: str) -> dict:
    """Every per-layer metric of a finished traced run, as {name: value}."""
    n_roots, table = per_root(tracer)

    def per(kind, total):
        return total / n_roots[kind] if n_roots[kind] else 0.0

    out = {}
    for metric, (name, stat, kind) in LAYER_METRICS.items():
        kind = kind or main_kind
        if stat == "count":
            total = tracer.counts[(kind, name)]
        else:
            calls, secs, _ = table[kind].get(name, (0, 0.0, 0.0))
            total = calls if stat == "calls" else secs * 1e3
        out[metric] = per(kind, total)

    main = table[main_kind]
    out["field.combine_self_ms"] = per(
        main_kind, sum(main[n][2] for n in _COMBINE_SPANS if n in main) * 1e3)
    # a root is a span of its own kind, so table["step"]["step"] is step time
    step_ms = per("step", table["step"].get("step", (0, 0.0))[1] * 1e3)
    busy_ms = out["autodiff.backward_ms"] + out["trainer.adam_ms"]
    out["trainer.forward_ms"] = step_ms - busy_ms if n_roots["step"] else 0.0
    ckpt_calls = sum(table[k].get(n, (0,))[0]
                     for k, n in (("setup", "field.load"), ("save", "field.save")))
    ckpt_bytes = sum(n for (k, name), n in tracer.counts.items()
                     if name == "field.checkpoint_bytes")
    out["field.checkpoint_bytes"] = ckpt_bytes / ckpt_calls if ckpt_calls else 0.0
    pauses = [s for kind, s, _ in tracer.gc_pauses if kind == main_kind]
    out["autodiff.gc_pause_ms"] = per(main_kind, sum(pauses) * 1e3)
    out["autodiff.gc_collections"] = per(main_kind, len(pauses))
    out["autodiff.rss_growth_mb"] = max(tracer.rss) - tracer.rss[0] if tracer.rss else 0.0
    return out
