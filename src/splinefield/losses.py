"""Reconstruction, velocity-coherence, and acceleration losses over KNN
neighborhoods.

The velocity loss penalizes squared velocity differences between each point
and its k nearest canonical-space neighbors, weighted by normalized inverse
distance. The acceleration loss is the mean absolute component of the
analytic acceleration. Each loss takes Vars and returns a scalar Var, or
takes arrays and returns a 0-d array. Which terms a step computes, and their
weighted sum, are the trainer's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from splinefield import autodiff as ad
from splinefield.autodiff import Var
from splinefield.dataio import is_int

DIST_EPS = 1e-8        # distance floor; also guards duplicate points


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
        nbrs = self.indices[rows]
        needed, local = np.unique(np.concatenate([rows, nbrs.ravel()]), return_inverse=True)
        return needed, local[:len(rows)], local[len(rows):].reshape(nbrs.shape), self.weights[rows]


def knn_indices(points: np.ndarray, k: int) -> np.ndarray:
    """Exact k nearest neighbors (self excluded), ties broken by ascending index.

    One k-d tree query takes k + 2 candidates a row: self, k and a spare. A row
    whose self comes first and whose tree distances rise by over a relative 1e-9
    through the spare keeps the tree's order: the margin dwarfs the rounding
    between tree distances and exact d², so it is the (d², index) order. A row
    with k or more coincident others gets the k lowest-index ones (grouped by
    one np.unique, made only if the query shows a zero distance). The others
    re-sort their candidates by exact (d², index), re-queried with twice as
    many while the k-th d² is not clearly below the farthest's. Points whose
    squared distances overflow float64 raise ValueError, as the tree would
    report such a neighbour missing, with index N."""
    n = points.shape[0]
    if not (is_int(k) and 1 <= k < n):
        raise ValueError(f"need an integer 1 <= k < N neighbors: N={n}, k={k!r}")
    with np.errstate(over="ignore"):    # every d² is at most the span's squared norm
        if not np.isfinite(np.sum(np.square(np.ptp(points, axis=0), dtype=np.float64))):
            raise ValueError(f"points span {np.ptp(points, axis=0)}: d² overflows float64")
    tree = cKDTree(points)
    dist, idx = tree.query(points, k=min(k + 2, n))
    dist *= (1.0 + 1e-9) ** -np.arange(idx.shape[1])   # a rise of 1e-9 or less is now none
    out, rows = idx[:, 1:k + 1], np.arange(n)          # a view: no copy of the [N, k] answer
    todo = rows[(idx[:, 0] != rows) | np.any(dist[:, 1:] <= dist[:, :-1], axis=1)]
    if np.any(dist[:, 1] == 0):
        _, group, count = np.unique(points, axis=0, return_inverse=True, return_counts=True)
        big, todo = rows[count[group] > k], todo[count[group[todo]] <= k]
        lowest = np.argsort(group, kind="stable")[(np.cumsum(count) - count)[group[big], None]
                                                  + np.arange(k + 1)]
        out[big] = np.sort(np.where(lowest == big[:, None], n, lowest), axis=1)[:, :k]
    idx = idx[todo]
    while todo.size:
        d2 = np.sum((points[todo, None, :] - points[idx]) ** 2, axis=2)
        far = d2.max(axis=1)
        d2[idx == todo[:, None]] = np.inf
        order = np.lexsort((idx, d2), axis=1)[:, :k]
        out[todo] = np.take_along_axis(idx, order, axis=1)
        kth = np.take_along_axis(d2, order[:, -1:], axis=1)[:, 0]
        todo = todo[(kth * (1.0 + 1e-9) >= far) & (idx.shape[1] < n)]
        idx = tree.query(points[todo], k=min(2 * idx.shape[1], n))[1]
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


def acceleration_loss(accels: Var) -> Var:
    """Mean absolute component of the accelerations."""
    return ad.vmean(ad.absolute(accels))


def recon_loss_l1(pred: Var, gt) -> Var:
    """Mean absolute componentwise error."""
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    return ad.vmean(ad.absolute(ad.add(pred, -gt)))
