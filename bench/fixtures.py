"""Deterministic benchmark inputs, built from the workload seed and cached.

Fit workloads read a composite-scene trajectory of 2000 points; the query
workload reads a 10 000-point one plus a siren-resfields checkpoint from a
short fit on it. Files are written under bench/.cache, keyed by seed and by
FIXTURE_VERSION, and each is renamed into place only when complete.

    python3 bench/fixtures.py --workload query --seed 3
"""

from __future__ import annotations

import argparse
import os

FIXTURE_VERSION = 2
FRAMES = 60
FIT_POINTS = 2000
QUERY_POINTS = 10000
CKPT_STEPS = 20           # the query checkpoint's short fit
CKPT_BATCH_POINTS = 500
STRIDE = 4
SUPERVISED_FRACTION = 0.25

CACHE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".cache")


def fixture_paths(seed: int) -> dict:
    d = os.path.join(CACHE_DIR, f"v{FIXTURE_VERSION}", f"seed{seed}")
    return {"fit_traj": os.path.join(d, f"composite-{FIT_POINTS}.traj"),
            "query_traj": os.path.join(d, f"composite-{QUERY_POINTS}.traj"),
            "query_ckpt": os.path.join(d, "siren-resfields.ckpt")}


def _publish(path, write) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _ensure_traj(path, n_points: int, seed: int) -> None:
    from splinefield import dataio
    if not os.path.exists(path):
        traj = dataio.gen_synthetic("composite", n_points, FRAMES, seed)
        _publish(path, lambda p: dataio.write_traj(p, traj))


def _ensure_ckpt(path, traj_path, seed: int) -> None:
    from splinefield import dataio, trainer
    if os.path.exists(path):
        return
    traj = dataio.read_traj(traj_path)
    split = dataio.split_frames(traj, dataio.SplitSpec(STRIDE, SUPERVISED_FRACTION),
                                seed=seed)
    cfg = trainer.TrainConfig(steps=CKPT_STEPS, batch_points=CKPT_BATCH_POINTS,
                              variant="siren-resfields")
    fld, _ = trainer.train(traj, split, cfg)
    _publish(path, fld.save)


def build(workload: str, seed: int) -> dict:
    """Make sure the workload's input files exist; return all fixture paths."""
    paths = fixture_paths(seed)
    if workload == "query":
        _ensure_traj(paths["query_traj"], QUERY_POINTS, seed)
        _ensure_ckpt(paths["query_ckpt"], paths["query_traj"], seed)
    else:
        _ensure_traj(paths["fit_traj"], FIT_POINTS, seed)
    return paths


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    build(args.workload, args.seed)


if __name__ == "__main__":
    main()
