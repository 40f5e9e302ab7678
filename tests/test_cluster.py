"""Unit tests for K-means++, cluster metrics and the baseline groupers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    AgglomerativeGrouper,
    FixedKGrouper,
    KMeansPlusPlus,
    RandomGrouper,
    SingleGroupGrouper,
    davies_bouldin_index,
    inertia,
    kmeans_plus_plus_init,
    pairwise_euclidean,
    silhouette_score,
)


@pytest.fixture
def rng():
    return np.random.default_rng(5)


@pytest.fixture
def three_blobs(rng):
    """Three well-separated Gaussian blobs (30 points, 2-D)."""
    centres = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    points = np.vstack([c + rng.normal(0, 0.4, size=(10, 2)) for c in centres])
    labels = np.repeat(np.arange(3), 10)
    return points, labels


class TestPairwiseAndInertia:
    def test_pairwise_symmetric_zero_diagonal(self, rng):
        points = rng.normal(size=(6, 3))
        distances = pairwise_euclidean(points)
        np.testing.assert_allclose(distances, distances.T)
        np.testing.assert_allclose(np.diag(distances), 0.0, atol=1e-6)

    def test_pairwise_known_value(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        distances = pairwise_euclidean(points)
        assert distances[0, 1] == pytest.approx(5.0)

    def test_inertia_zero_when_points_equal_centroids(self):
        points = np.array([[1.0, 1.0], [2.0, 2.0]])
        labels = np.array([0, 1])
        assert inertia(points, labels, points) == pytest.approx(0.0)

    def test_inertia_known_value(self):
        points = np.array([[0.0], [2.0]])
        labels = np.array([0, 0])
        centroids = np.array([[1.0]])
        assert inertia(points, labels, centroids) == pytest.approx(2.0)


class TestSilhouetteAndDaviesBouldin:
    def test_silhouette_high_for_separated_blobs(self, three_blobs):
        points, labels = three_blobs
        assert silhouette_score(points, labels) > 0.8

    def test_silhouette_lower_for_random_labels(self, three_blobs, rng):
        points, labels = three_blobs
        shuffled = rng.permutation(labels)
        assert silhouette_score(points, shuffled) < silhouette_score(points, labels)

    def test_silhouette_single_cluster_is_zero(self, three_blobs):
        points, _ = three_blobs
        assert silhouette_score(points, np.zeros(len(points), dtype=int)) == 0.0

    def test_silhouette_in_range(self, rng):
        points = rng.normal(size=(20, 3))
        labels = rng.integers(0, 3, size=20)
        score = silhouette_score(points, labels)
        assert -1.0 <= score <= 1.0

    def test_davies_bouldin_lower_for_true_labels(self, three_blobs, rng):
        points, labels = three_blobs
        shuffled = rng.permutation(labels)
        assert davies_bouldin_index(points, labels) < davies_bouldin_index(points, shuffled)


def _per_point_silhouette(points, labels):
    """The per-point silhouette definition that ``silhouette_score`` must reproduce bit for bit."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    labels = np.asarray(labels, dtype=int)
    unique = np.unique(labels)
    if unique.shape[0] < 2:
        return 0.0
    distances = pairwise_euclidean(points)
    n = points.shape[0]
    scores = np.zeros(n, dtype=np.float64)
    for i in range(n):
        own = labels[i]
        own_mask = labels == own
        own_count = int(own_mask.sum())
        if own_count <= 1:
            scores[i] = 0.0
            continue
        a = distances[i, own_mask].sum() / (own_count - 1)
        b = np.inf
        for other in unique:
            if other == own:
                continue
            other_mask = labels == other
            b = min(b, float(distances[i, other_mask].mean()))
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())


#: Non-contiguous (and negative) cluster ids.
_LABEL_IDS = np.array([-4, 0, 3, 9, 10, 27, 64, 1000])


def _silhouette_cases():
    """``(name, points, labels)`` covering sizes on both sides of NumPy's
    8-wide unrolled and 128-wide blocked summation, 1-10 dimensions and the
    singleton, ``denom == 0`` and single-cluster rules."""
    rng = np.random.default_rng(20231)
    cases = []
    for n in (2, 3, 7, 8, 9, 16, 31, 64, 127, 129, 200, 257, 500):
        d = int(rng.integers(1, 11))
        k = int(rng.integers(2, min(n, len(_LABEL_IDS)) + 1))
        ids = rng.choice(_LABEL_IDS, size=k, replace=False)
        points = rng.normal(0.0, rng.uniform(0.1, 50.0), size=(n, d))
        cases.append((f"random-n{n}-d{d}-k{k}", points, rng.choice(ids, size=n)))
    for n in (5, 40, 300):
        d = int(rng.integers(1, 11))
        points = rng.normal(size=(n, d))
        labels = rng.choice(_LABEL_IDS[1:4], size=n)
        labels[int(rng.integers(n))] = _LABEL_IDS[0]
        cases.append((f"singleton-n{n}-d{d}", points, labels))
    for n in (12, 60, 450):
        # A third of the points sit on one integer-valued location (so their
        # distances are exactly 0) and make up two clusters of their own:
        # for each of them the intra- and nearest-cluster means are both 0.
        d = int(rng.integers(1, 11))
        points = rng.normal(size=(n, d))
        third = n // 3
        points[:third] = rng.integers(-3, 4, size=d)
        labels = rng.choice(_LABEL_IDS[2:5], size=n)
        labels[:third] = np.where(np.arange(third) % 2 == 0, _LABEL_IDS[0], _LABEL_IDS[1])
        cases.append((f"duplicates-n{n}-d{d}", points, labels))
    for n in (2, 50):
        points = rng.normal(size=(n, 3))
        cases.append((f"single-cluster-n{n}", points, np.full(n, _LABEL_IDS[3])))
    return cases


class TestSilhouetteExactness:
    @pytest.mark.parametrize(
        "points,labels",
        [pytest.param(points, labels, id=name) for name, points, labels in _silhouette_cases()],
    )
    def test_equals_per_point_definition(self, points, labels):
        assert silhouette_score(points, labels) == _per_point_silhouette(points, labels)


class TestKMeansPlusPlus:
    def test_recovers_blobs(self, three_blobs, rng):
        points, labels = three_blobs
        result = KMeansPlusPlus(3, restarts=4).fit(points, rng=rng)
        assert result.num_clusters == 3
        # Every true blob should map to exactly one predicted cluster.
        for blob in range(3):
            blob_labels = result.labels[labels == blob]
            assert len(np.unique(blob_labels)) == 1

    def test_labels_cover_all_points(self, three_blobs, rng):
        points, _ = three_blobs
        result = KMeansPlusPlus(3).fit(points, rng=rng)
        assert result.labels.shape == (points.shape[0],)
        assert set(np.unique(result.labels)) <= {0, 1, 2}

    def test_inertia_decreases_with_more_clusters(self, three_blobs, rng):
        points, _ = three_blobs
        inertia_2 = KMeansPlusPlus(2, restarts=4).fit(points, rng=rng).inertia
        inertia_3 = KMeansPlusPlus(3, restarts=4).fit(points, rng=rng).inertia
        assert inertia_3 < inertia_2

    def test_cluster_sizes_sum_to_points(self, three_blobs, rng):
        points, _ = three_blobs
        result = KMeansPlusPlus(3).fit(points, rng=rng)
        assert result.cluster_sizes().sum() == points.shape[0]

    def test_too_few_points_raises(self, rng):
        with pytest.raises(ValueError):
            KMeansPlusPlus(5).fit(np.zeros((3, 2)), rng=rng)

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            KMeansPlusPlus(0)
        with pytest.raises(ValueError):
            KMeansPlusPlus(2, max_iterations=0)

    def test_reports_the_lloyd_iterations_it_ran(self, three_blobs):
        points, _ = three_blobs
        for seed in range(5):
            result = KMeansPlusPlus(3, restarts=2).fit(points, rng=np.random.default_rng(seed))
            assert 1 <= result.iterations <= 100
            if result.converged:
                assert result.iterations < 100

    def test_iterations_capped_without_convergence(self, rng):
        points = rng.normal(size=(200, 2))
        result = KMeansPlusPlus(8, max_iterations=1, tolerance=0.0, restarts=1).fit(
            points, rng=rng
        )
        assert result.iterations == 1
        assert not result.converged

    def test_seeding_returns_distinct_centroids_for_blobs(self, three_blobs, rng):
        points, _ = three_blobs
        centroids = kmeans_plus_plus_init(points, 3, rng)
        assert centroids.shape == (3, 2)
        distances = pairwise_euclidean(centroids)
        off_diagonal = distances[np.triu_indices(3, k=1)]
        assert np.all(off_diagonal > 1.0)

    def test_seeding_rejects_too_many_clusters(self, rng):
        with pytest.raises(ValueError):
            kmeans_plus_plus_init(np.zeros((2, 2)), 3, rng)

    def test_deterministic_given_rng_seed(self, three_blobs):
        points, _ = three_blobs
        a = KMeansPlusPlus(3).fit(points, rng=np.random.default_rng(0))
        b = KMeansPlusPlus(3).fit(points, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(a.labels, b.labels)


class TestBaselineGroupers:
    def test_single_group(self, three_blobs):
        points, _ = three_blobs
        labels = SingleGroupGrouper().group(points)
        assert set(labels) == {0}

    def test_random_grouper_covers_all_groups(self, three_blobs, rng):
        points, _ = three_blobs
        labels = RandomGrouper(4).group(points, rng=rng)
        assert set(labels) == {0, 1, 2, 3}

    def test_random_grouper_too_few_points(self, rng):
        with pytest.raises(ValueError):
            RandomGrouper(5).group(np.zeros((3, 2)), rng=rng)

    def test_fixed_k_grouper_matches_kmeans_quality(self, three_blobs, rng):
        points, _ = three_blobs
        labels = FixedKGrouper(3).group(points, rng=rng)
        assert silhouette_score(points, labels) > 0.8

    def test_agglomerative_recovers_blobs(self, three_blobs):
        points, labels = three_blobs
        predicted = AgglomerativeGrouper(3).group(points)
        assert silhouette_score(points, predicted) > 0.8

    def test_agglomerative_rejects_invalid(self):
        with pytest.raises(ValueError):
            AgglomerativeGrouper(0)
