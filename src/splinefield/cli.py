"""Command line interface.

Subcommands: gen (synthetic scenes), fit (train a field), eval (metrics on
held-out frames), interp (deform to arbitrary times), advect (extrapolate
past a query time), flow (velocity-colored point clouds).

Exit codes: 0 success, 1 I/O failure, 2 bad usage or validation, 3
optimization divergence. Set SDF_THREADS=0 for a deterministic run (the
implementation is single threaded regardless).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import dataio, metrics, trainer
from .dataio import FormatError, SplitSpec, TrajectorySet
from .field import DivergenceError, SplineField

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


def _threads() -> int:
    raw = os.environ.get("SDF_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"SDF_THREADS must be an integer, got {raw!r}") from None
    if n < 0:
        raise ValueError(f"SDF_THREADS must be >= 0, got {n}")
    return n


def with_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="splinefield",
                                description="spline deformation fields for "
                                            "dense point trajectories")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic trajectory file")
    g.add_argument("--kind", required=True, choices=dataio.SYNTHETIC_KINDS)
    g.add_argument("--points", type=int, default=1000)
    g.add_argument("--frames", type=int, default=60)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    f = sub.add_parser("fit", help="fit a field to a trajectory file")
    f.add_argument("--traj", required=True)
    f.add_argument("--out", required=True, help="checkpoint path")
    f.add_argument("--log-csv", default=None)
    f.add_argument("--stride", type=int, default=4)
    f.add_argument("--frac", type=float, default=0.25,
                   help="supervised point fraction")
    f.add_argument("--steps", type=int, default=2000)
    f.add_argument("--lr", type=float, default=1e-3)
    f.add_argument("--alpha", type=float, default=1.0)
    f.add_argument("--beta", type=float, default=0.01)
    f.add_argument("--K", type=int, default=2,
                   help="frames per spline knot")
    f.add_argument("--K-neighbors", type=int, default=10)
    f.add_argument("--variant", default="siren-resfields")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--set", action="append", default=[], metavar="key=value",
                   help="extra training config overrides")

    e = sub.add_parser("eval", help="score a checkpoint on held-out frames")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--traj", required=True)
    e.add_argument("--stride", type=int, default=4)
    e.add_argument("--frac", type=float, default=0.25)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--K-neighbors", type=int, default=10)
    e.add_argument("--scale", type=float, default=1e4)
    e.add_argument("--report", default=None, help="per-frame CSV path")

    i = sub.add_parser("interp", help="deform canonical points to new times")
    i.add_argument("--ckpt", required=True)
    i.add_argument("--times", required=True,
                   help="comma-separated times in [0, 1]")
    i.add_argument("--out", required=True, help="trajectory file of results")

    a = sub.add_parser("advect", help="extrapolate along velocity")
    a.add_argument("--ckpt", required=True)
    a.add_argument("--from-t", type=float, required=True)
    a.add_argument("--dt", type=float, required=True)
    a.add_argument("--out", required=True, help="PLY of advected points")

    fl = sub.add_parser("flow", help="export velocity-colored point clouds")
    fl.add_argument("--ckpt", required=True)
    fl.add_argument("--frames", type=int, default=8,
                    help="number of evenly spaced times")
    fl.add_argument("--out-prefix", required=True)
    return p


def _cmd_gen(args) -> int:
    traj = dataio.gen_synthetic(args.kind, args.points, args.frames, args.seed)
    dataio.write_traj(args.out, traj)
    print(f"wrote {args.out}: T={traj.n_frames}, N_p={traj.n_points}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    traj = dataio.read_traj(args.traj)
    split = dataio.split_frames(traj, SplitSpec(args.stride, args.frac),
                                seed=args.seed)
    base = trainer.TrainConfig(steps=args.steps, lr=args.lr, alpha=args.alpha,
                               beta=args.beta, knot_factor=args.K,
                               knn_k=args.K_neighbors, variant=args.variant,
                               seed=args.seed)
    cfg = trainer.parse_run_config(args.set, base)
    n_knots = trainer.resolve_n_knots(cfg, len(split.train_frames))
    print(f"fitting {cfg.variant}: {len(split.train_frames)} train frames, "
          f"{split.supervised.shape[0]} supervised points, {n_knots} knots")
    try:
        fld, log = trainer.train(traj, split, cfg)
    except DivergenceError as e:
        print(f"error: optimization diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    fld.save(args.out)
    if args.log_csv:
        log.write_csv(args.log_csv)
    print(f"wrote {args.out}: final loss {log.final_total:.6g}")
    if log.rows:
        med = {k: np.median([r[k] for r in log.rows])
               for k in ("forward_ms", "backward_ms", "optimizer_ms")}
        print("median step ms: " + " ".join(f"{k[:-3]}={v:.3f}" for k, v in med.items()))
    return EXIT_OK


def _cmd_eval(args) -> int:
    if not (np.isfinite(args.scale) and args.scale > 0):
        raise ValueError(f"--scale must be finite and > 0, got {args.scale}")
    fld = SplineField.load(args.ckpt)
    traj = dataio.read_traj(args.traj)
    split = dataio.split_frames(traj, SplitSpec(args.stride, args.frac),
                                seed=args.seed)
    summary, rows = trainer.evaluate(fld, traj, split, k=args.K_neighbors,
                                     scale=args.scale)
    if args.report:
        metrics.write_report(args.report, rows)
    print(f"epe={summary['epe']:.6g} mean_I={summary['mean_I']:.6g} "
          f"frames={summary['n_frames']} skipped={len(summary['skipped'])}")
    return EXIT_OK


def _parse_times(raw: str) -> list:
    times = [float(s) for s in raw.split(",") if s.strip()]
    if not times:
        raise ValueError("no times given")
    for t in times:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"time {t} outside [0, 1]")
    return times


def _cmd_interp(args) -> int:
    fld = SplineField.load(args.ckpt)
    times = _parse_times(args.times)
    dataio.write_traj(args.out, TrajectorySet(fld.deform(fld.canonical, times)))
    print(f"wrote {args.out}: {len(times)} frames")
    return EXIT_OK


def _cmd_advect(args) -> int:
    fld = SplineField.load(args.ckpt)
    pts = fld.advect(fld.canonical, args.from_t, args.dt)
    dataio.export_ply(args.out, pts)
    print(f"wrote {args.out}: {pts.shape[0]} points")
    return EXIT_OK


def _cmd_flow(args) -> int:
    if args.frames < 1:
        raise ValueError("--frames must be >= 1")
    fld = SplineField.load(args.ckpt)
    times = np.linspace(0.0, 1.0, args.frames)
    pts = fld.deform(fld.canonical, times)
    vel = fld.velocity(fld.canonical, times)
    for j in range(args.frames):
        dataio.export_ply(f"{args.out_prefix}_{j:04d}.ply", pts[j],
                          dataio.flow_colors(vel[j]))
    print(f"wrote {args.frames} PLY files at {args.out_prefix}_*.ply")
    return EXIT_OK


_COMMANDS = {"gen": _cmd_gen, "fit": _cmd_fit, "eval": _cmd_eval,
             "interp": _cmd_interp, "advect": _cmd_advect, "flow": _cmd_flow}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _threads()
        return _COMMANDS[args.command](args)
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        return with_usage(str(e))


if __name__ == "__main__":
    sys.exit(main())
