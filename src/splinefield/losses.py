"""Reconstruction, velocity-coherence, and acceleration losses over KNN
neighborhoods.

The velocity loss penalizes squared velocity differences between each point
and its k nearest canonical-space neighbors, weighted by normalized inverse
distance. The acceleration loss is the mean absolute component of the
analytic acceleration (an L2-norm alternative is available via `mode`).
Each loss takes Vars and returns a scalar Var.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from splinefield import autodiff as ad
from splinefield.autodiff import Var

DIST_EPS = 1e-8        # distance floor; also guards duplicate points
ACCEL_MODES = ("l1", "l2")


@dataclass(frozen=True)
class NeighborGraph:
    """k nearest neighbors per point with normalized inverse-distance weights."""

    indices: np.ndarray   # [N_p, k] int
    weights: np.ndarray   # [N_p, k] float, rows sum to 1

    def subgraph_closure(self, rows: np.ndarray):
        """Close a batch over its neighbors for batched loss evaluation.

        Returns (needed_global_ids, local_rows, local_nbrs, weight_rows):
        velocities evaluated for `needed_global_ids` can be indexed with the
        local arrays to reproduce the loss restricted to `rows`.
        """
        rows = np.asarray(rows)
        needed = np.unique(np.concatenate([rows, self.indices[rows].ravel()]))
        remap = np.full(int(needed.max()) + 1, -1, dtype=np.int64)
        remap[needed] = np.arange(len(needed))
        return needed, remap[rows], remap[self.indices[rows]], self.weights[rows]


def knn_indices(points: np.ndarray, k: int) -> np.ndarray:
    """Exact k nearest neighbors (self excluded), ties broken by ascending index.

    k-d tree candidates are re-sorted by exact (d², index); a row whose k-th d²
    is not clearly below its farthest candidate's is re-queried with twice as many."""
    n = points.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < N neighbors: N={n}, k={k}")
    tree = cKDTree(points)
    out = np.empty((n, k), dtype=np.int64)
    todo, c = np.arange(n), k + 2    # self, k neighbors and one to spare
    while todo.size:
        c = min(c, n)
        idx = tree.query(points[todo], k=c)[1]
        d2 = np.sum((points[todo, None, :] - points[idx]) ** 2, axis=2)
        far = d2.max(axis=1)
        d2[idx == todo[:, None]] = np.inf
        order = np.lexsort((idx, d2), axis=1)[:, :k]
        out[todo] = np.take_along_axis(idx, order, axis=1)
        kth = np.take_along_axis(d2, order[:, -1:], axis=1)[:, 0]
        todo = todo[(kth * (1.0 + 1e-9) >= far) & (c < n)]
        c *= 2
    return out


def build_knn(points: np.ndarray, k: int) -> NeighborGraph:
    """KNN graph with row-normalized inverse-distance weights."""
    points = np.asarray(points, dtype=np.float64)
    idx = knn_indices(points, k)
    d = np.linalg.norm(points[:, None, :] - points[idx], axis=2)
    w = 1.0 / (d + DIST_EPS)
    w /= w.sum(axis=1, keepdims=True)
    return NeighborGraph(indices=idx, weights=w)


def velocity_loss_rows(velocities: Var, rows, nbrs, weights) -> Var:
    """Mean over `rows` of sum_j w_ij ||v_i - v_j||^2; `velocities` is [N, 3]
    covering both the rows and their neighbor indices `nbrs`."""
    rows = np.asarray(rows)
    vi = ad.take(velocities, rows[:, None])     # [R, 1, 3]
    vn = ad.take(velocities, nbrs)
    diff = ad.add(vi, ad.mul(vn, -1.0))
    sq = ad.vsum(ad.mul(diff, diff), axis=2)
    return ad.vmean(ad.vsum(ad.mul(sq, weights), axis=1))


def acceleration_loss(accels: Var, mode: str = "l1") -> Var:
    """Mean |a|: per-component absolute mean ('l1', default) or mean norm ('l2')."""
    if mode == "l1":
        return ad.vmean(ad.absolute(accels))
    if mode == "l2":
        return ad.vmean(ad.sqrt(ad.vsum(ad.mul(accels, accels), axis=1), eps=1e-24))
    raise ValueError(f"unknown mode {mode!r}")


def recon_loss_l1(pred: Var, gt) -> Var:
    """Mean absolute componentwise error."""
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    return ad.vmean(ad.absolute(ad.add(pred, -gt)))


def total_loss(recon, lv, lacc, alpha: float, beta: float):
    """recon + alpha * lv + beta * lacc (works on Vars and floats)."""
    out = recon
    if alpha != 0.0:
        out = out + alpha * lv
    if beta != 0.0:
        out = out + beta * lacc
    return out
