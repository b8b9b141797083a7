"""The brute-force KNN oracle the KNN and Moran's I tests compare against."""

import numpy as np


def brute_knn(points, k):
    """Exhaustive k nearest neighbors, self excluded, ties by ascending index."""
    n = points.shape[0]
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.lexsort((np.broadcast_to(np.arange(n), (n, n)), d2), axis=1)[:, :k]
