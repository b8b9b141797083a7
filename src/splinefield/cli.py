"""Command line interface.

Subcommands: gen (synthetic scenes), fit (train a field), eval (metrics on
held-out frames, then its own wall time on a line of its own), interp
(deform to arbitrary times), advect (extrapolate past a query time) and flow
(velocity-colored point clouds), both writing binary little-endian PLY.

`fit --set key=value` takes any TrainConfig or FieldConfig key, grid_levels
as a comma list (`--set grid_levels=16,32`) and a bool as 1/true/yes/on or
0/false/no/off in any case (`--set quintic=on`). A flag of fit or eval that
sets a TrainConfig or SplitSpec field has that field's default, and no other;
eval's `--K-neighbors` and `--scale` have `trainer.evaluate`'s. eval scores
the frames `--stride` holds out, so it takes no `--frac` or `--seed`.

Exit codes: 0 success, 1 I/O failure, 2 bad usage, validation or a failed
allocation (a size too large for memory), 3 optimization divergence. Every
subcommand lists the paths it will write (`--out`, `fit --log-csv`, `eval
--report`, `flow`'s `<prefix>_NNNN.ply` for each NNNN below `--frames`, which
is 1 to 10000 so that the four digits sort in frame order) and checks them
before it reads or computes anything. An output whose real path, or that of
its temp file (the path + ".part", renamed to the path once written), is also
an input (`--traj`, `--ckpt`) or another output's exits 2; one that cannot be
written, or that names no file (an empty path or one ending in a separator),
exits 1, before a fit's first step or a query's first knot. Set
SDF_THREADS=0 for a deterministic run (the implementation is single
threaded regardless).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import dataio, metrics, trainer
from .dataio import FormatError, SplitSpec
from .field import SplineField
from .trainer import DivergenceError, TrainConfig

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3
MAX_FRAMES = 10_000     # flow's frame names hold four digits


def _threads() -> int:
    raw = os.environ.get("SDF_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"SDF_THREADS must be an integer, got {raw!r}") from None
    if n < 0:
        raise ValueError(f"SDF_THREADS must be >= 0, got {n}")
    return n


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

    f = sub.add_parser("fit", help="fit a field to a trajectory file",
                       argument_default=argparse.SUPPRESS)
    f.add_argument("--traj", required=True)
    f.add_argument("--out", required=True, help="checkpoint path")
    f.add_argument("--log-csv", default=None)
    f.add_argument("--stride", type=int)
    f.add_argument("--frac", type=float, dest="supervised_fraction",
                   help="supervised point fraction")
    f.add_argument("--steps", type=int)
    f.add_argument("--lr", type=float)
    f.add_argument("--alpha", type=float)
    f.add_argument("--beta", type=float)
    f.add_argument("--K", type=int, dest="knot_factor", help="frames per spline knot")
    f.add_argument("--K-neighbors", type=int, dest="knn_k")
    f.add_argument("--variant")
    f.add_argument("--seed", type=int)
    f.add_argument("--set", action="append", default=[], metavar="key=value",
                   help="any TrainConfig or FieldConfig key, e.g. rank=4, grid_levels=16,32 "
                        "(a comma list) or quintic=on (1/true/yes/on or 0/false/no/off)")

    e = sub.add_parser("eval", help="score a checkpoint on held-out frames",
                       argument_default=argparse.SUPPRESS)
    e.add_argument("--ckpt", required=True)
    e.add_argument("--traj", required=True)
    e.add_argument("--stride", type=int)
    e.add_argument("--K-neighbors", type=int, dest="k")
    e.add_argument("--scale", type=float)
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
    a.add_argument("--out", required=True, help="binary little-endian PLY of advected points")

    fl = sub.add_parser("flow", help="velocity-colored binary little-endian PLY point clouds")
    fl.add_argument("--ckpt", required=True)
    fl.add_argument("--frames", type=int, default=8,
                    help=f"number of evenly spaced times, 1 to {MAX_FRAMES}")
    fl.add_argument("--out-prefix", required=True)
    return p


def _cmd_gen(args) -> int:
    traj = dataio.gen_synthetic(args.kind, args.points, args.frames, args.seed)
    dataio.write_traj(args.out, traj)
    print(f"wrote {args.out}: T={traj.n_frames}, N_p={traj.n_points}")
    return EXIT_OK


def _check_output(path: str) -> None:
    """An OSError naming path unless a file can be written there."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.basename(path) in ("", ".", ".."):
        raise OSError(f"cannot write {path!r}: it names no file")
    if os.path.isdir(path):
        raise OSError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(parent):
        raise OSError(f"cannot write {path}: no directory {parent}")
    if not os.access(parent, os.W_OK):
        raise OSError(f"cannot write {path}: directory {parent} is not writable")


def _check_distinct(outputs, inputs) -> None:
    """A ValueError naming the first output whose real path, or that of its
    temp file, an input or an earlier output (or its temp file) has."""
    seen = {os.path.realpath(p): "an input" for p in inputs}
    for path in outputs:
        part = f"{path}{dataio.PART_SUFFIX}"
        for claim, name, owner in ((path, "it", "another output"),
                                   (part, f"its temp file {part}", f"the temp file of {path}")):
            real = os.path.realpath(claim)
            if real in seen:
                raise ValueError(f"cannot write {path}: {name} is also {seen[real]}")
            seen[real] = owner


def _given(args, cls) -> dict:
    """The flags given on the command line that set a field of dataclass cls."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _cmd_fit(args) -> int:
    traj = dataio.read_traj(args.traj)
    cfg = dataio.parse_config(TrainConfig, args.set, TrainConfig(**_given(args, TrainConfig)))
    split = dataio.split_frames(traj, SplitSpec(**_given(args, SplitSpec)), seed=cfg.seed)
    n_knots = cfg.field_config(len(split.train_frames)).n_knots
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
    print(f"wrote {args.out}: final loss {log.rows[-1]['total']:.6g}")
    med = {k: np.median([r[k] for r in log.rows])
           for k in ("forward_ms", "backward_ms", "optimizer_ms")}
    print("median step ms: " + " ".join(f"{k[:-3]}={v:.3f}" for k, v in med.items()))
    return EXIT_OK


def _cmd_eval(args) -> int:
    t0 = time.perf_counter()
    fld = SplineField.load(args.ckpt)
    traj = dataio.read_traj(args.traj)
    split = dataio.split_frames(traj, SplitSpec(**_given(args, SplitSpec)))
    given = {n: getattr(args, n) for n in ("k", "scale") if hasattr(args, n)}
    summary, rows = trainer.evaluate(fld, traj, split, **given)
    if args.report:
        metrics.write_report(args.report, rows)
    print(f"epe={summary['epe']:.6g} mean_I={summary['mean_I']:.6g} "
          f"frames={summary['n_frames']} skipped={len(summary['skipped'])}")
    print(f"eval wall time: {time.perf_counter() - t0:.3f} s")
    return EXIT_OK


def _parse_times(raw: str) -> list:
    times = []
    for s in filter(str.strip, raw.split(",")):
        try:
            times.append(float(s))
        except ValueError:
            raise ValueError(f"--times entry {s.strip()!r} is not a number") from None
    if not times:
        raise ValueError("no times given")
    for t in times:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"time {t} outside [0, 1]")
    return times


def _cmd_interp(args) -> int:
    times = _parse_times(args.times)
    fld = SplineField.load(args.ckpt)
    dataio.write_traj(args.out, fld.deform_frames(fld.canonical, times))
    print(f"wrote {args.out}: {len(times)} frames")
    return EXIT_OK


def _cmd_advect(args) -> int:
    fld = SplineField.load(args.ckpt)
    pts = fld.advect(fld.canonical, args.from_t, args.dt)
    dataio.export_ply(args.out, pts)
    print(f"wrote {args.out}: {pts.shape[0]} points")
    return EXIT_OK


def _frame_paths(args) -> list:
    """flow's `<prefix>_NNNN.ply` for each NNNN below --frames, once --frames is in range."""
    if not 1 <= args.frames <= MAX_FRAMES:
        raise ValueError(f"--frames must be in [1, {MAX_FRAMES}], got {args.frames}")
    return [f"{args.out_prefix}_{j:04d}.ply" for j in range(args.frames)]


def _cmd_flow(args) -> int:
    fld = SplineField.load(args.ckpt)
    times = np.linspace(0.0, 1.0, args.frames)
    # deform_frames predicts every knot; each velocity reads the field's states
    for path, t, pts in zip(_frame_paths(args), times, fld.deform_frames(fld.canonical, times)):
        dataio.export_ply(path, pts, dataio.flow_colors(fld.velocity(fld.canonical, t)))
    print(f"wrote {args.frames} PLY files at {args.out_prefix}_*.ply")
    return EXIT_OK


_COMMANDS = {"gen": _cmd_gen, "fit": _cmd_fit, "eval": _cmd_eval,
             "interp": _cmd_interp, "advect": _cmd_advect, "flow": _cmd_flow}
# the paths each subcommand writes; main checks them before any work starts
_OUTPUTS = {"gen": lambda a: [a.out], "fit": lambda a: [a.out, a.log_csv],
            "eval": lambda a: [a.report], "interp": lambda a: [a.out],
            "advect": lambda a: [a.out], "flow": _frame_paths}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _threads()
        outputs = [p for p in _OUTPUTS[args.command](args) if p is not None]
        inputs = [getattr(args, a) for a in ("traj", "ckpt") if hasattr(args, a)]
        _check_distinct(outputs, inputs)
        for path in outputs:
            _check_output(path)
        return _COMMANDS[args.command](args)
    except (FormatError, OSError, ValueError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_USAGE if isinstance(e, (ValueError, MemoryError)) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
