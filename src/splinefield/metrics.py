"""Evaluation metrics: end-point error and Moran's-I spatial coherence.

The coherence score measures spatial autocorrelation of frame-to-frame
motion vectors. Each point's neighborhood is the point and its K - 1
nearest others by (d², index) (`losses.knn_indices`) at the frame's start
positions, whose inverse distances weight the pairs; the score is
normalized by the neighborhood's motion energy:

    I_i = (K / sum_jk w_jk) * (sum_jk w_jk <v_j, v_k>) / (sum_j ||v_j||^2)

This yields exactly 1 for uniform motion and ~0 for independent noise.
Neighborhoods are per frame, not the velocity loss's canonical ones: the
score asks whether points near each other when a motion starts move alike,
and canonical neighbors can drift apart in a deformed frame.
A sequence is scored per transition between consecutive frames, its motion
vectors the difference of the two, with None for a transition that has no
motion. `trainer.evaluate` passes the held-out frames one transition at a
time, so a transition may span training frames between them, and has `epe`
write each frame's per-point errors into one [T, N] array; it also holds
eval's default K and EPE scale, which are required here.
"""

from __future__ import annotations

import csv

import numpy as np

from splinefield.dataio import is_int
from splinefield.losses import knn_indices

ZERO_MOTION_EPS = 1e-12
_BLOCK = 4096      # points per pair-kernel block; bounds temporaries to O(block*K)


def _block_scores(p: np.ndarray, v: np.ndarray, k: int) -> np.ndarray:
    """I_i of a [3, K, B] neighbor-major block of positions and vectors, for
    the points with pair weight and motion energy. Each unordered pair is
    visited once, one neighbor offset at a time; w and <v_j, v_k> are
    symmetric with no weight on the diagonal, so both sums are doubled."""
    num, wsum = np.zeros(p.shape[2]), np.zeros(p.shape[2])
    for o in range(1, k):
        dp = p[:, o:] - p[:, :-o]
        dist = np.sqrt(np.einsum("ckn,ckn->kn", dp, dp))
        # coincident points contribute no pair weight
        w = np.divide(1.0, dist, out=np.zeros_like(dist), where=dist > 0)
        dots = np.einsum("ckn,ckn->kn", v[:, o:], v[:, :-o])
        dots *= w
        num += dots.sum(axis=0)
        wsum += w.sum(axis=0)
    num, wsum = 2.0 * num, 2.0 * wsum
    energy = np.einsum("ckn,ckn->n", v, v)
    valid = (wsum > 0) & (energy > ZERO_MOTION_EPS ** 2)
    return (k / wsum[valid]) * num[valid] / energy[valid]


def morans_i_frame(positions: np.ndarray, vectors: np.ndarray, k: int):
    """Mean Moran's I of one frame's motion vectors, or None if the frame
    has no motion (all vectors below 1e-12)."""
    if not (is_int(k) and k >= 2):
        raise ValueError(f"Moran's I needs an integer K >= 2 neighbors, got K={k!r}: "
                         "a neighborhood of one point has no pairs")
    positions = np.asarray(positions, dtype=np.float64)
    vectors = np.asarray(vectors, dtype=np.float64)
    if positions.shape != vectors.shape or positions.ndim != 2:
        raise ValueError("positions and vectors must both be [N_p, 3]")
    if np.all(np.linalg.norm(vectors, axis=1) < ZERO_MOTION_EPS):
        return None
    if len(positions) <= k:
        raise ValueError(f"need more points than K: N={len(positions)}, K={k}")
    nbhd = np.vstack([np.arange(len(positions)), knn_indices(positions, k - 1).T])   # [K, N]
    blocks = [nbhd[:, b:b + _BLOCK] for b in range(0, nbhd.shape[1], _BLOCK)]
    scores = np.concatenate([_block_scores(positions.T[:, cols], vectors.T[:, cols], k)
                             for cols in blocks])
    if scores.size == 0:
        return None
    return float(np.mean(scores))


def morans_i_sequence(positions, k: int) -> list:
    """Mean Moran's I of each consecutive-frame transition of a [T, N_p, 3]
    trajectory, or of a sequence of its [N_p, 3] frames: T - 1 entries, the
    one for frames t -> t+1 at index t, each None if that transition has no
    motion."""
    if len(positions) < 2:
        raise ValueError(f"Moran's I needs at least two frames, got {len(positions)}")
    return [morans_i_frame(a, np.subtract(b, a, dtype=np.float64), k)
            for a, b in zip(positions[:-1], positions[1:])]


def epe(pred: np.ndarray, gt: np.ndarray, scale: float, out=None) -> float:
    """Mean Euclidean end-point error over all (point, frame) pairs, scaled;
    `out`, if given, receives the per-pair errors (pred's shape without its
    last axis)."""
    if np.shape(pred) != np.shape(gt):
        raise ValueError(f"shape mismatch: {np.shape(pred)} vs {np.shape(gt)}")
    # np.linalg.norm's sum of squares, in float64 and in place: one temporary
    sq = np.subtract(pred, gt, dtype=np.float64)
    sq *= sq
    return float(np.mean(np.sqrt(sq.sum(axis=-1), out=out))) * scale


def write_report(path, rows) -> None:
    """CSV metric report: frame_idx, mean_I, epe, n_points."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["frame_idx", "mean_I", "epe", "n_points"])
        for r in rows:
            writer.writerow([r["frame_idx"],
                             "" if r.get("mean_I") is None else repr(float(r["mean_I"])),
                             repr(float(r["epe"])), r["n_points"]])
