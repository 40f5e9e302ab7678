"""Cluster-quality metrics.

These metrics feed two consumers:

* the DDQN reward, which trades off intra-group similarity (users in one
  multicast group should have similar channel conditions and preferences)
  against the number of groups (each group costs a separate multicast
  channel); and
* the evaluation harness, which compares grouping strategies.
"""

from __future__ import annotations

import numpy as np


def pairwise_euclidean(points: np.ndarray) -> np.ndarray:
    """Full pairwise Euclidean distance matrix of shape ``(n, n)``."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    squared = np.sum(points**2, axis=1)
    dist_sq = squared[:, None] + squared[None, :] - 2.0 * points @ points.T
    np.maximum(dist_sq, 0.0, out=dist_sq)
    return np.sqrt(dist_sq)


def inertia(points: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    """Within-cluster sum of squared distances to the assigned centroid."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    labels = np.asarray(labels, dtype=int)
    centroids = np.atleast_2d(np.asarray(centroids, dtype=np.float64))
    if labels.shape[0] != points.shape[0]:
        raise ValueError("labels and points must have the same length")
    return float(np.sum((points - centroids[labels]) ** 2))


def silhouette_score(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient over all points.

    Returns 0.0 when there is a single cluster (the coefficient is undefined
    there); returns values in ``[-1, 1]`` otherwise.  Singleton clusters get
    a silhouette of 0 for their lone member, following scikit-learn, and so
    does a point whose mean intra- and nearest-cluster distances are both 0.

    Exactness contract: the score is bit-identical to the per-point
    definition, which sums ``distances[i, labels == c]`` for every point
    ``i`` and cluster ``c``.  Each cluster's columns are gathered once into
    a C-contiguous ``(n, size)`` block, and every row of that block is
    reduced with its own ``row.sum()``: the same values, in the same order,
    through the same NumPy call as the per-point form (whose ``.mean()`` is
    that sum divided by the member count).  A single
    ``distances[:, mask].sum(axis=1)`` is not used: that block is laid out
    column-major, and its axis reduction adds the values in another order,
    which moves the last bit of most sums and so could flip a DDQN reward.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    labels = np.asarray(labels, dtype=int)
    unique, own = np.unique(labels, return_inverse=True)
    if unique.shape[0] < 2:
        return 0.0
    distances = pairwise_euclidean(points)
    n = points.shape[0]
    counts = np.bincount(own)
    # sums[i, c]: summed distance from point i to the members of cluster c.
    sums = np.empty((n, unique.shape[0]), dtype=np.float64)
    for column, cluster in enumerate(unique):
        block = distances.compress(labels == cluster, axis=1)
        sums[:, column] = [row.sum() for row in block]
    rows = np.arange(n)
    own_count = counts[own]
    a = sums[rows, own] / np.maximum(own_count - 1, 1)
    means = sums / counts
    means[rows, own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.zeros(n, dtype=np.float64)
    np.divide(b - a, denom, out=scores, where=(own_count > 1) & (denom != 0))
    return float(scores.mean())


def davies_bouldin_index(points: np.ndarray, labels: np.ndarray) -> float:
    """Davies-Bouldin index (lower is better); 0.0 for a single cluster."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    labels = np.asarray(labels, dtype=int)
    unique = np.unique(labels)
    k = unique.shape[0]
    if k < 2:
        return 0.0
    centroids = np.vstack([points[labels == c].mean(axis=0) for c in unique])
    scatters = np.array(
        [
            float(np.mean(np.linalg.norm(points[labels == c] - centroids[i], axis=1)))
            for i, c in enumerate(unique)
        ]
    )
    index = 0.0
    for i in range(k):
        worst = 0.0
        for j in range(k):
            if i == j:
                continue
            separation = float(np.linalg.norm(centroids[i] - centroids[j]))
            if separation == 0:
                ratio = np.inf
            else:
                ratio = (scatters[i] + scatters[j]) / separation
            worst = max(worst, ratio)
        index += worst
    return float(index / k)
