"""Gradient-descent fitting of a spline deformation field to trajectories.

Training supervises the field at a random subset of frames per step with
an L1 reconstruction term, plus velocity-coherence and acceleration
penalties sampled at a random time. A step predicts each knot's state (the
tuple of Vars `SplineField.predict_knot` returns) once: the two knots around
that time run on the velocity term's neighbor closure and each Var of their
states is sliced to the batch rows, and all three terms share those states.
Parameters update with Adam; grid and temporal-code parameters get a 10x
learning rate. Adam's squared-norm pass per gradient checks finiteness and
gives the run log's per-group gradient norms; its update runs in place, in
cache-sized blocks. The run log also times each step's phases.

A non-finite loss or gradient raises DivergenceError naming the step (and,
for a gradient, the parameter group) before any parameter is updated.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from . import autodiff as ad
from . import losses
from . import metrics
from . import spline
from .autodiff import ParamStore, Tape
from .dataio import Split, TrajectorySet
from .field import FieldConfig, SplineField


class DivergenceError(RuntimeError):
    """Non-finite values encountered during optimization."""


@dataclass
class TrainConfig:
    steps: int = 2000
    lr: float = 1e-3
    lr_decay: float = 1.0       # final lr fraction, cosine-annealed over steps
    grid_lr_mult: float = 10.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    alpha: float = 1.0
    beta: float = 0.01
    accel_mode: str = "l1"
    knot_factor: int = 2
    n_knots: int = 0            # 0 means derive from knot_factor
    rank: int = 8
    variant: str = "siren-resfields"
    hidden: int = 64
    depth: int = 3
    w0: float = 30.0
    quintic: bool = False
    seed: int = 0
    batch_points: int = 0       # 0 means use every supervised point
    frames_per_step: int = 4
    knn_k: int = 10

    def __post_init__(self):
        for name, ok, want in [
                ("knn_k", self.knn_k >= 1, ">= 1 (--K-neighbors)"),
                ("steps", self.steps >= 1, ">= 1"), ("lr_decay", 0 < self.lr_decay <= 1, "in (0, 1]"),
                ("frames_per_step", self.frames_per_step >= 1, ">= 1"),
                ("batch_points", self.batch_points >= 0, ">= 0"),
                ("lr", np.isfinite(self.lr) and self.lr > 0, "finite and > 0"),
                ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
                ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
                ("eps", np.isfinite(self.eps) and self.eps > 0, "finite and > 0"),
                ("grid_lr_mult", np.isfinite(self.grid_lr_mult) and self.grid_lr_mult >= 0,
                 "finite and >= 0"),
                ("alpha", np.isfinite(self.alpha) and self.alpha >= 0, "finite and >= 0"),
                ("beta", np.isfinite(self.beta) and self.beta >= 0, "finite and >= 0"),
                ("accel_mode", self.accel_mode in losses.ACCEL_MODES, f"in {losses.ACCEL_MODES}"),
                ("knot_factor", self.knot_factor >= 1, ">= 1"),
                ("n_knots", self.n_knots == 0 or self.n_knots >= 2, "0 or >= 2")]:
            if not ok:
                raise ValueError(f"{name} must be {want}, got {getattr(self, name)!r}")
        _field_config(self, 2)      # FieldConfig checks variant, rank, hidden, depth, w0


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def parse_run_config(pairs, base: TrainConfig | None = None) -> TrainConfig:
    """Build a TrainConfig from key=value strings."""
    cfg = base or TrainConfig()
    values = {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        if key not in values:
            raise ValueError(f"unknown config key {key!r}; valid keys: {', '.join(values)}")
        cur = values[key]
        if isinstance(cur, bool):
            low = raw.lower()
            if low in _BOOL_TRUE:
                values[key] = True
            elif low in _BOOL_FALSE:
                values[key] = False
            else:
                raise ValueError(f"bad boolean for {key}: {raw!r}")
        elif isinstance(cur, int):
            values[key] = int(raw)
        elif isinstance(cur, float):
            values[key] = float(raw)
        else:
            values[key] = raw
    return TrainConfig(**values)


class Adam:
    """Adam with per-name state and learning rates, in place in BLOCK-sized blocks."""

    BLOCK = 1 << 15

    def __init__(self, store: ParamStore, cfg: TrainConfig):
        self.store = store
        self.cfg = cfg
        self.t = 0
        self._m = {n: np.zeros_like(store.value(n)) for n in store.names()}
        self._v = {n: np.zeros_like(store.value(n)) for n in store.names()}
        self._scratch = np.empty((2, self.BLOCK))

    def lr_for(self, name: str, lr_scale: float = 1.0) -> float:
        lr = self.cfg.lr * lr_scale
        if name == "codes" or "enc.grid" in name:
            return lr * self.cfg.grid_lr_mult
        return lr

    def grad_norms(self) -> dict:
        """{name: gradient L2 norm}; a NaN or inf raises DivergenceError naming its group."""
        norms = {}
        for name in self.store.names():
            g = self.store.grad(name).reshape(-1)
            norms[name] = float(np.sqrt(g @ g))
            if not np.isfinite(norms[name]):
                if not np.all(np.isfinite(g)):
                    raise DivergenceError(f"non-finite gradient in parameter group {name!r}")
                top = np.abs(g).max()       # finite entries whose squares overflow
                norms[name] = float(top * np.sqrt((g / top) @ (g / top)))
        return norms

    def step(self, lr_scale: float = 1.0) -> dict:
        """One Adam update of every parameter; returns the gradient norms."""
        norms = self.grad_norms()
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for name in self.store.names():
            lr = self.lr_for(name, lr_scale)
            p, g = self.store.value(name).reshape(-1), self.store.grad(name).reshape(-1)
            m, v = self._m[name].reshape(-1), self._v[name].reshape(-1)
            for lo in range(0, p.size, self.BLOCK):
                blk = slice(lo, lo + self.BLOCK)
                gb, mb, vb = g[blk], m[blk], v[blk]
                s, u = self._scratch[:, :gb.size]
                mb *= c.beta1
                mb += np.multiply(1.0 - c.beta1, gb, out=s)
                vb *= c.beta2
                vb += np.multiply(np.multiply(1.0 - c.beta2, gb, out=s), gb, out=s)
                np.sqrt(np.divide(vb, bc2, out=s), out=s)
                s += c.eps
                np.divide(np.divide(mb, bc1, out=u), s, out=u)
                p[blk] -= np.multiply(lr, u, out=u)
        return norms


@dataclass
class RunLog:
    rows: list = dc_field(default_factory=list)

    def record(self, step, recon, lv, lacc, total, wallclock_ms, forward_ms,
               backward_ms, optimizer_ms, grad_norms) -> None:
        """One row per step: losses, forward (to the loss)/backward/Adam ms, grad norms."""
        self.rows.append({"step": step, "recon": recon, "lv": lv,
                          "lacc": lacc, "total": total,
                          "wallclock_ms": wallclock_ms, "forward_ms": forward_ms,
                          "backward_ms": backward_ms, "optimizer_ms": optimizer_ms,
                          "grad_norms": grad_norms})

    @property
    def final_total(self) -> float:
        return self.rows[-1]["total"] if self.rows else float("nan")

    def write_csv(self, path) -> None:
        """The losses and wallclock, then the phase times and one `gn:<group>`
        gradient-norm column per parameter group, in store order."""
        terms = ("recon", "lv", "lacc", "total")
        times = ("wallclock_ms", "forward_ms", "backward_ms", "optimizer_ms")
        groups = list(self.rows[0]["grad_norms"]) if self.rows else []
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["step", *terms, *times, *(f"gn:{g}" for g in groups)])
            for r in self.rows:
                writer.writerow([r["step"], *(repr(r[k]) for k in terms),
                                 *(f"{r[k]:.3f}" for k in times),
                                 *(repr(r["grad_norms"][g]) for g in groups)])


def resolve_n_knots(cfg: TrainConfig, n_train_frames: int) -> int:
    return cfg.n_knots or spline.knot_count(n_train_frames, cfg.knot_factor)


def _field_config(cfg: TrainConfig, n_knots: int) -> FieldConfig:
    return FieldConfig(variant=cfg.variant, n_knots=n_knots, rank=cfg.rank,
                       hidden=cfg.hidden, depth=cfg.depth, w0=cfg.w0,
                       quintic=cfg.quintic)


def train(traj: TrajectorySet, split: Split, cfg: TrainConfig):
    """Fit a SplineField to the training frames. Returns (field, run log)."""
    rng = np.random.default_rng(cfg.seed)
    canonical = traj.positions[0]
    n_knots = resolve_n_knots(cfg, len(split.train_frames))
    fld = SplineField(_field_config(cfg, n_knots), canonical, seed=cfg.seed)

    sup = np.asarray(split.supervised)
    sup_pts = canonical[sup]
    if cfg.alpha > 0:
        if sup.shape[0] <= cfg.knn_k:
            raise ValueError(f"knn_k (--K-neighbors) {cfg.knn_k} needs more than "
                             f"{sup.shape[0]} supervised points")
        graph = losses.build_knn(sup_pts, cfg.knn_k)

    train_frames = np.asarray(split.train_frames)
    opt = Adam(fld.store, cfg)
    log = RunLog()
    t0 = time.perf_counter()

    for step in range(cfg.steps):
        tape = Tape()
        t_step = time.perf_counter()
        if cfg.batch_points and cfg.batch_points < sup.shape[0]:
            rows = np.sort(rng.choice(sup.shape[0], cfg.batch_points, replace=False))
        else:
            rows = np.arange(sup.shape[0])
        batch_pts = sup_pts[rows]
        n_f = min(cfg.frames_per_step, train_frames.shape[0])
        frame_ids = rng.choice(train_frames.shape[0], n_f, replace=False)
        if cfg.alpha > 0 or cfg.beta > 0:
            t_rand = float(rng.uniform(0.0, 1.0))

        # one knot state per knot: the two around t_rand run on the velocity
        # closure and are sliced to the batch rows, the rest on the batch
        knot_cache = {}
        lv = lacc = 0.0
        if cfg.alpha > 0:
            needed, loc_rows, loc_nbrs, w_rows = graph.subgraph_closure(rows)
            vel = fld.velocity_var(tape, sup_pts[needed], t_rand, knot_cache=knot_cache)
            lv = losses.velocity_loss_rows(vel, loc_rows, loc_nbrs, w_rows)
            if len(needed) > len(rows):
                knot_cache = {k: tuple(ad.take(s, loc_rows) for s in state)
                              for k, state in knot_cache.items()}
        recon = None
        for fi in train_frames[frame_ids]:
            t_q = traj.frame_time(int(fi))
            pred = fld.deform_var(tape, batch_pts, t_q, knot_cache=knot_cache)
            gt = traj.positions[fi][sup[rows]]
            term = losses.recon_loss_l1(pred, gt)
            recon = term if recon is None else recon + term
        recon = recon * (1.0 / n_f)
        if cfg.beta > 0:
            acc = fld.acceleration_var(tape, batch_pts, t_rand, knot_cache=knot_cache)
            lacc = losses.acceleration_loss(acc, mode=cfg.accel_mode)

        total = losses.total_loss(recon, lv, lacc, cfg.alpha, cfg.beta)
        if not np.isfinite(total.value):
            raise DivergenceError(f"non-finite loss at step {step}")

        t_fwd = time.perf_counter()
        fld.store.zero_grad()
        tape.backward(total)
        if cfg.lr_decay < 1.0 and cfg.steps > 1:
            frac = step / (cfg.steps - 1)
            lr_scale = cfg.lr_decay + (1.0 - cfg.lr_decay) \
                * 0.5 * (1.0 + np.cos(np.pi * frac))
        else:
            lr_scale = 1.0
        t_bwd = time.perf_counter()
        try:
            norms = opt.step(lr_scale)
        except DivergenceError as e:
            raise DivergenceError(f"{e} at step {step}") from None
        t_opt = time.perf_counter()

        log.record(step, float(_scalar(recon)), float(_scalar(lv)),
                   float(_scalar(lacc)), float(total.value),
                   (time.perf_counter() - t0) * 1e3, forward_ms=(t_fwd - t_step) * 1e3,
                   backward_ms=(t_bwd - t_fwd) * 1e3, optimizer_ms=(t_opt - t_bwd) * 1e3,
                   grad_norms=norms)
    return fld, log


def _scalar(x) -> float:
    return float(x.value) if isinstance(x, ad.Var) else float(x)


def evaluate(field: SplineField, traj: TrajectorySet, split: Split,
             k: int = 10, scale: float = 1e4):
    """End-point error and motion coherence on the split's held-out frames.

    All frames are deformed by one multi-time `field.deform` call, which runs
    without recording a tape and predicts each knot once. Moran's I scores the
    transitions between consecutive held-out frames, so with stride 4 the
    3 -> 5 transition spans training frame 4. Returns (summary dict with
    `epe`, `mean_I`, `n_frames` and `skipped`, the frames whose outgoing
    transition had no motion; per-frame rows, each with its outgoing
    transition's `mean_I`, None on the last). A trajectory whose point
    count differs from the field's canonical points, or a `k` outside
    [2, point count), is a ValueError, raised before anything is deformed."""
    n = field.canonical.shape[0]
    if traj.n_points != n:
        raise ValueError(f"trajectory has {traj.n_points} points, checkpoint has {n}")
    if not 2 <= k < n:
        raise ValueError(f"Moran's I needs 2 <= K < {n} (the point count), got K={k}")
    frames = list(split.test_frames)
    if not frames:
        raise ValueError("no frames to evaluate")
    preds = field.deform(field.canonical, [traj.frame_time(t) for t in frames])
    gts = traj.positions[frames]
    scores = metrics.morans_i_sequence(preds, k=k) if len(frames) >= 2 else []
    rows = [{"frame_idx": t, "mean_I": score,
             "epe": metrics.epe(preds[j], gts[j], scale=scale), "n_points": n}
            for j, (t, score) in enumerate(zip(frames, scores + [None]))]
    scored = [s for s in scores if s is not None]
    summary = {"epe": metrics.epe(preds, gts, scale=scale),
               "mean_I": float(np.mean(scored)) if scored else float("nan"),
               "n_frames": len(frames),
               "skipped": [t for t, s in zip(frames, scores) if s is None]}
    return summary, rows
