"""Gradient-descent fitting of a spline deformation field to trajectories.

Each step supervises up to FRAMES_PER_STEP random training frames with an
L1 reconstruction term, plus velocity-coherence and acceleration penalties
sampled at a random time. A step predicts each knot's state (position,
tangent[, curvature], see `SplineField.knot_states`) once, in the order its
terms read them: the random time's two knots for the velocity term, then
the frames', then the random time's for the acceleration term. With a batch
smaller than the velocity term's neighbor closure, those two knots run on
the closure and each Var of their states is sliced to the batch rows;
`SplineField.knot_states` then predicts the batch's other knots from one
encoder `spatial` per block of the batch, made for that many knots (see
`encoders.TriplaneEncoder`), and all three terms share the states. The step
computes the velocity term only for alpha > 0 and the acceleration term only
for beta > 0, and sums recon + alpha * lv + beta * lacc over the terms it
computed.
Parameters update with Adam at the constant rate cfg.lr; grid and
temporal-code parameters get a 10x rate (Adam.GRID_LR_MULT); Adam's BETA1,
BETA2 and EPS are constants too. Its squared-norm pass per gradient checks
finiteness and gives the run log's per-group gradient norms; its update runs
in place, in cache-sized blocks. The run log also times each step's phases.

A non-finite loss or gradient raises DivergenceError naming the step (and,
for a gradient, the parameter group) before any parameter is updated.

`TrainConfig` takes its field keys, with their one default and check, from
`FieldConfig`; its n_knots of 0 means derive the count from knot_factor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field, fields

import numpy as np

from . import autodiff as ad
from . import dataio
from . import losses
from . import metrics
from . import spline
from .autodiff import ParamStore, Tape
from .dataio import Split, TrajectorySet, is_int, is_number
from .field import FieldConfig, SplineField


FRAMES_PER_STEP = 4


class DivergenceError(RuntimeError):
    """Non-finite values encountered during optimization."""


@dataclass
class TrainConfig(FieldConfig):
    """The training keys; the field keys come from FieldConfig, but an
    n_knots of 0 here means derive it (see `field_config`)."""

    n_knots: int = 0
    steps: int = 2000
    lr: float = 1e-3
    alpha: float = 1.0
    beta: float = 0.01
    knot_factor: int = 2
    seed: int = 0
    batch_points: int = 0       # 0 means use every supervised point
    knn_k: int = 10

    def _checks(self):
        yield from [
                ("knn_k", self.knn_k >= 1, ">= 1 (--K-neighbors)"),
                ("steps", self.steps >= 1, ">= 1"),
                ("batch_points", self.batch_points >= 0, ">= 0"), ("seed", self.seed >= 0, ">= 0"),
                ("lr", np.isfinite(self.lr) and self.lr > 0, "finite and > 0"),
                ("alpha", np.isfinite(self.alpha) and self.alpha >= 0, "finite and >= 0"),
                ("beta", np.isfinite(self.beta) and self.beta >= 0, "finite and >= 0"),
                ("knot_factor", self.knot_factor >= 1, ">= 1")]
        self.field_config(2)        # the field keys: FieldConfig raises on a bad one

    def field_config(self, n_train_frames: int) -> FieldConfig:
        """The FieldConfig of the field this run fits; an n_knots of 0 becomes
        spline.knot_count(n_train_frames, knot_factor)."""
        keys = {f.name: getattr(self, f.name) for f in fields(FieldConfig)}
        keys["n_knots"] = self.n_knots or spline.knot_count(n_train_frames, self.knot_factor)
        return FieldConfig(**keys)


class Adam:
    """Adam with per-name state and learning rates, in place in BLOCK-sized blocks."""

    BLOCK = 1 << 15
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
    GRID_LR_MULT = 10.0

    def __init__(self, store: ParamStore):
        self.store = store
        self.t = 0
        self._m = {n: np.zeros_like(store.value(n)) for n in store.names()}
        self._v = {n: np.zeros_like(store.value(n)) for n in store.names()}
        self._scratch = np.empty((2, self.BLOCK))

    def lr_for(self, name: str, lr: float) -> float:
        if name == "codes" or "enc.grid" in name:
            return lr * self.GRID_LR_MULT
        return lr

    def grad_norms(self) -> dict:
        """{name: gradient L2 norm}; a NaN or inf raises DivergenceError naming its group."""
        norms = {}
        for name in self.store.names():
            g = self.store.grad(name).reshape(-1)
            # einsum's summation order, unlike a BLAS dot's, ignores the thread count
            norms[name] = float(np.sqrt(np.einsum("i,i->", g, g)))
            if not np.isfinite(norms[name]):
                if not np.all(np.isfinite(g)):
                    raise DivergenceError(f"non-finite gradient in parameter group {name!r}")
                top = np.abs(g).max()       # finite entries whose squares overflow
                norms[name] = float(top * np.sqrt(np.einsum("i,i->", g / top, g / top)))
        return norms

    def step(self, lr: float) -> dict:
        """One Adam update of every parameter at base rate lr; returns the gradient norms."""
        norms = self.grad_norms()
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for name in self.store.names():
            group_lr = self.lr_for(name, lr)
            p, g = self.store.value(name).reshape(-1), self.store.grad(name).reshape(-1)
            m, v = self._m[name].reshape(-1), self._v[name].reshape(-1)
            for lo in range(0, p.size, self.BLOCK):
                blk = slice(lo, lo + self.BLOCK)
                gb, mb, vb = g[blk], m[blk], v[blk]
                s, u = self._scratch[:, :gb.size]
                mb *= self.BETA1
                mb += np.multiply(1.0 - self.BETA1, gb, out=s)
                vb *= self.BETA2
                vb += np.multiply(np.multiply(1.0 - self.BETA2, gb, out=s), gb, out=s)
                np.sqrt(np.divide(vb, bc2, out=s), out=s)
                s += self.EPS
                np.divide(np.divide(mb, bc1, out=u), s, out=u)
                p[blk] -= np.multiply(group_lr, u, out=u)
        return norms


@dataclass
class RunLog:
    """One row per step; a fit logs at least one, as TrainConfig checks steps >= 1."""

    rows: list = dc_field(default_factory=list)

    def record(self, step, recon, lv, lacc, total, wallclock_ms, forward_ms,
               backward_ms, optimizer_ms, grad_norms) -> None:
        """One row per step: losses, forward (to the loss)/backward/Adam ms, grad norms."""
        self.rows.append({"step": step, "recon": recon, "lv": lv,
                          "lacc": lacc, "total": total,
                          "wallclock_ms": wallclock_ms, "forward_ms": forward_ms,
                          "backward_ms": backward_ms, "optimizer_ms": optimizer_ms,
                          "grad_norms": grad_norms})

    def write_csv(self, path) -> None:
        """The losses and wallclock, then the phase times and one `gn:<group>`
        gradient-norm column per parameter group, in store order."""
        terms = ("recon", "lv", "lacc", "total")
        times = ("wallclock_ms", "forward_ms", "backward_ms", "optimizer_ms")
        groups = list(self.rows[0]["grad_norms"])
        dataio._write_csv(path, ["step", *terms, *times, *(f"gn:{g}" for g in groups)], (
            [r["step"], *(repr(r[k]) for k in terms), *(f"{r[k]:.3f}" for k in times),
             *(repr(r["grad_norms"][g]) for g in groups)] for r in self.rows))


def train(traj: TrajectorySet, split: Split, cfg: TrainConfig):
    """Fit a SplineField to the training frames. Returns (field, run log).
    The returned field holds no gradients: read a step's inside the loop."""
    rng = np.random.default_rng(cfg.seed)
    fld = SplineField(cfg.field_config(len(split.train_frames)), traj.positions[0], seed=cfg.seed)

    sup = np.asarray(split.supervised)
    sup_pts = fld.canonical[sup]    # float64, whatever the trajectory's dtype
    if cfg.alpha > 0:
        if sup.shape[0] <= cfg.knn_k:
            raise ValueError(f"knn_k (--K-neighbors) {cfg.knn_k} needs more than "
                             f"{sup.shape[0]} supervised points")
        graph = losses.build_knn(sup_pts, cfg.knn_k)

    train_frames = np.asarray(split.train_frames)
    opt = Adam(fld.store)
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
        n_f = min(FRAMES_PER_STEP, train_frames.shape[0])
        frame_ids = rng.choice(train_frames.shape[0], n_f, replace=False)
        frame_times = [traj.frame_time(int(fi)) for fi in train_frames[frame_ids]]
        read = frame_times      # the times the terms read, in their order
        if cfg.alpha > 0 or cfg.beta > 0:
            t_rand = float(rng.uniform(0.0, 1.0))
            read = [t_rand] * (cfg.alpha > 0) + frame_times + [t_rand] * (cfg.beta > 0)
        knots = spline.segment_knots(read, fld.cfg.n_knots)

        states = {}
        lv = lacc = 0.0
        if cfg.alpha > 0:
            needed, loc_rows, loc_nbrs, w_rows = graph.subgraph_closure(rows)
            # a closure beyond the batch predicts t_rand's knots, sliced to the batch
            sliced = len(needed) > len(rows)
            closure = {} if sliced else fld.knot_states(tape, batch_pts, knots, states)
            vel = fld.velocity_var(tape, sup_pts[needed], t_rand, states=closure)
            lv = losses.velocity_loss_rows(vel, loc_rows, loc_nbrs, w_rows)
            if sliced:
                states = {k: tuple(ad.take(s, loc_rows) for s in state)
                          for k, state in closure.items()}
        fld.knot_states(tape, batch_pts, knots, states)
        recon = None
        for fi, t_q in zip(train_frames[frame_ids], frame_times):
            pred = fld.deform_var(tape, batch_pts, t_q, states=states)
            gt = traj.positions[fi][sup[rows]]
            term = losses.recon_loss_l1(pred, gt)
            recon = term if recon is None else recon + term
        recon = recon * (1.0 / n_f)
        if cfg.beta > 0:
            acc = fld.acceleration_var(tape, batch_pts, t_rand, states=states)
            lacc = losses.acceleration_loss(acc)

        total = recon + cfg.alpha * lv if cfg.alpha > 0 else recon
        total = total + cfg.beta * lacc if cfg.beta > 0 else total
        if not np.isfinite(total.value):
            raise DivergenceError(f"non-finite loss at step {step}")

        t_fwd = time.perf_counter()
        fld.store.zero_grad()
        tape.backward(total)
        t_bwd = time.perf_counter()
        try:
            norms = opt.step(cfg.lr)
        except DivergenceError as e:
            raise DivergenceError(f"{e} at step {step}") from None
        t_opt = time.perf_counter()

        log.record(step, float(_scalar(recon)), float(_scalar(lv)),
                   float(_scalar(lacc)), float(total.value),
                   (time.perf_counter() - t0) * 1e3, forward_ms=(t_fwd - t_step) * 1e3,
                   backward_ms=(t_bwd - t_fwd) * 1e3, optimizer_ms=(t_opt - t_bwd) * 1e3,
                   grad_norms=norms)
    fld.store.drop_grads()
    return fld, log


def _scalar(x) -> float:
    return float(x.value) if isinstance(x, ad.Var) else float(x)


def evaluate(field: SplineField, traj: TrajectorySet, split: Split,
             k: int = 10, scale: float = 1e4):
    """End-point error and motion coherence on the split's held-out frames.

    The frames stream from one `field.deform_frames` generator, whose call
    predicts each knot once without recording a tape. Of the predicted
    frames only the current one and the one before it are kept, next to the
    knot states and one [T, N] array of per-point errors: the summary EPE is
    that array's mean and each row's EPE its row's. Scoring a transition
    makes one more frame-sized temporary, the difference of its two frames
    in `morans_i_sequence`, and a frame's EPE one, each freed before the
    next frame. Moran's I scores the transitions between
    consecutive held-out frames, so with stride 4 the 3 -> 5 transition
    spans training frame 4. Returns (summary dict with `epe`, `mean_I`,
    `n_frames` and `skipped`, the frames whose outgoing transition had no
    motion; per-frame rows, each with its outgoing transition's `mean_I`,
    None on the last). A trajectory whose point
    count differs from the field's canonical points, a `k` not an integer in
    [2, point count) or a `scale` not a number, finite and > 0 raises
    ValueError before any deform."""
    n = field.canonical.shape[0]
    if traj.n_points != n:
        raise ValueError(f"trajectory has {traj.n_points} points, checkpoint has {n}")
    if not (is_int(k) and 2 <= k < n):
        raise ValueError(f"Moran's I needs an integer K with 2 <= K < {n} (the point count), "
                         f"got K={k!r}")
    if not is_number(scale):
        raise ValueError(f"scale must be a number (--scale), got {scale!r}")
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be finite and > 0 (--scale), got {scale}")
    frames = list(split.test_frames)
    if not frames:
        raise ValueError("no frames to evaluate")
    preds = field.deform_frames(field.canonical, [traj.frame_time(t) for t in frames])
    errors = np.empty((len(frames), n))
    rows, prev = [], None
    for j, (t, pred) in enumerate(zip(frames, preds)):
        if prev is not None:
            rows[-1]["mean_I"] = metrics.morans_i_sequence((prev, pred), k=k)[0]
        err = metrics.epe(pred, traj.positions[t], scale, out=errors[j])
        rows.append({"frame_idx": t, "mean_I": None, "epe": err, "n_points": n})
        prev = pred
    scored = [r["mean_I"] for r in rows[:-1] if r["mean_I"] is not None]
    summary = {"epe": float(np.mean(errors)) * scale,
               "mean_I": float(np.mean(scored)) if scored else float("nan"),
               "n_frames": len(frames),
               "skipped": [r["frame_idx"] for r in rows[:-1] if r["mean_I"] is None]}
    return summary, rows
