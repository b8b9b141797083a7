"""Evaluation metrics: end-point error and Moran's-I spatial coherence.

The coherence score measures spatial autocorrelation of frame-to-frame
motion vectors. For each point we gather the K nearest points at the
frame's start positions (the point itself is always its own nearest
neighbor, so a neighborhood holds K points including the center), weight
pairs by inverse distance, and normalize by the neighborhood's motion
energy:

    I_i = (K / sum_jk w_jk) * (sum_jk w_jk <v_j, v_k>) / (sum_j ||v_j||^2)

This yields exactly 1 for uniform motion and ~0 for independent noise.
A sequence is scored per transition between consecutive frames, with None for
a transition that has no motion; `trainer.evaluate` passes the held-out
frames, so a transition may span training frames between them.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.spatial import cKDTree

ZERO_MOTION_EPS = 1e-12
_BLOCK = 4096      # points per pair-kernel block; bounds temporaries to O(block*K)


def motion_vectors(positions: np.ndarray) -> np.ndarray:
    """Consecutive-frame differences of a [T, N_p, 3] trajectory."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 3 or positions.shape[0] < 2:
        raise ValueError(f"need [T>=2, N_p, 3] positions, got {positions.shape}")
    return positions[1:] - positions[:-1]


def _neighborhoods(positions: np.ndarray, k: int) -> np.ndarray:
    """K-point neighborhoods (self included) per point."""
    n = positions.shape[0]
    if n <= k:
        raise ValueError(f"need more points than K: N={n}, K={k}")
    return cKDTree(positions).query(positions, k=k)[1]


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


def morans_i_frame(positions: np.ndarray, vectors: np.ndarray, k: int = 10):
    """Mean Moran's I of one frame's motion vectors, or None if the frame
    has no motion (all vectors below 1e-12)."""
    if k < 2:
        raise ValueError(f"Moran's I needs K >= 2 neighbors, got K={k}: "
                         "a neighborhood of one point has no pairs")
    positions = np.asarray(positions, dtype=np.float64)
    vectors = np.asarray(vectors, dtype=np.float64)
    if positions.shape != vectors.shape or positions.ndim != 2:
        raise ValueError("positions and vectors must both be [N_p, 3]")
    if np.all(np.linalg.norm(vectors, axis=1) < ZERO_MOTION_EPS):
        return None
    nbhd = _neighborhoods(positions, k).T   # [K, N]
    blocks = [nbhd[:, b:b + _BLOCK] for b in range(0, nbhd.shape[1], _BLOCK)]
    scores = np.concatenate([_block_scores(positions.T[:, cols], vectors.T[:, cols], k)
                             for cols in blocks])
    if scores.size == 0:
        return None
    return float(np.mean(scores))


def morans_i_sequence(positions: np.ndarray, k: int = 10) -> list:
    """Mean Moran's I of each consecutive-frame transition of a [T, N_p, 3]
    trajectory: T - 1 entries, the one for frames t -> t+1 at index t, each
    None if that transition has no motion."""
    vectors = motion_vectors(positions)
    return [morans_i_frame(positions[t], vectors[t], k) for t in range(vectors.shape[0])]


def epe(pred: np.ndarray, gt: np.ndarray, scale: float = 1e4) -> float:
    """Mean Euclidean end-point error over all (point, frame) pairs, scaled."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    return float(np.mean(np.linalg.norm(pred - gt, axis=-1))) * scale


def write_report(path, rows) -> None:
    """CSV metric report: frame_idx, mean_I, epe, n_points."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["frame_idx", "mean_I", "epe", "n_points"])
        for r in rows:
            writer.writerow([r["frame_idx"],
                             "" if r.get("mean_I") is None else repr(float(r["mean_I"])),
                             repr(float(r["epe"])), r["n_points"]])
