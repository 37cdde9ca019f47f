import itertools

import numpy as np
import pytest

from towersim.errors import DomainError, NumericError
from towersim.partitioner import (
    affinity_from_embeddings,
    constrained_kmeans,
    distance_from_affinity,
    mds_embed,
    naive_assignment,
    partition_score,
    size_window,
    stress,
    stress_gradient,
)


def planted_blocks(rng, block_sizes, dim=16, noise=0.15):
    """Unit-norm features clustered around orthogonal anchors."""
    anchors = np.eye(dim)
    rows, labels = [], []
    for b, size in enumerate(block_sizes):
        for _ in range(size):
            v = anchors[b] + noise * rng.normal(size=dim)
            rows.append(v / np.linalg.norm(v))
            labels.append(b)
    return np.array(rows), np.array(labels)


# ---------------------------------------------------------------- affinity


def test_affinity_self_similarity():
    feats = np.array([[1.0, 2.0], [1.0, 2.0]])
    affinity = affinity_from_embeddings(feats)
    assert affinity[0, 1] == pytest.approx(1.0)
    assert np.allclose(np.diag(affinity), 1.0)


def test_affinity_orthogonal_and_opposite():
    feats = np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0]])
    affinity = affinity_from_embeddings(feats)
    assert affinity[0, 1] == pytest.approx(0.0)
    assert affinity[0, 2] == pytest.approx(1.0)  # abs of -1


def test_affinity_zero_row_rejected():
    with pytest.raises(DomainError):
        affinity_from_embeddings(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_affinity_properties_random(rng):
    feats = rng.normal(size=(10, 6))
    affinity = affinity_from_embeddings(feats)
    assert np.allclose(affinity, affinity.T)
    assert np.all((affinity >= 0) & (affinity <= 1))
    assert np.allclose(np.diag(affinity), 1.0)


# ---------------------------------------------------------------- distance


def test_distance_strategies():
    affinity = np.array([[1.0, 1.0], [1.0, 1.0]])
    coherent = distance_from_affinity(affinity, "coherent")
    assert coherent[0, 1] == 0.0  # similar features end up close
    diverse = distance_from_affinity(affinity, "diverse")
    assert diverse[0, 1] == 1.0  # similar features pushed apart
    assert diverse[0, 0] == 0.0  # diagonal forced to zero


def test_distance_of_identity_affinity():
    coherent = distance_from_affinity(np.eye(3), "coherent")
    off = coherent[~np.eye(3, dtype=bool)]
    assert np.all(off == 1.0)


def test_distance_complementarity(rng):
    affinity = affinity_from_embeddings(rng.normal(size=(6, 4)))
    total = (
        distance_from_affinity(affinity, "coherent")
        + distance_from_affinity(affinity, "diverse")
    )
    off_diag = total[~np.eye(6, dtype=bool)]
    assert np.allclose(off_diag, 1.0)
    assert np.all(np.diag(total) == 0.0)


def test_distance_unknown_strategy():
    with pytest.raises(DomainError):
        distance_from_affinity(np.eye(2), "random")


# ---------------------------------------------------------------- stress


def test_stress_gradient_matches_finite_differences(rng):
    for _ in range(10):
        pts = rng.uniform(-1, 1, (6, 2))
        target = rng.uniform(0.5, 2.0, (6, 6))
        target = 0.5 * (target + target.T)
        np.fill_diagonal(target, 0.0)
        grad = stress_gradient(pts, target)
        eps = 1e-6
        for i, j in [(0, 0), (2, 1), (5, 0)]:
            shift = np.zeros_like(pts)
            shift[i, j] = eps
            numeric = (stress(pts + shift, target) - stress(pts - shift, target)) / (2 * eps)
            assert abs(grad[i, j] - numeric) / max(abs(numeric), 1e-8) < 1e-5


# ---------------------------------------------------------------- mds


def test_mds_two_points_zero_distance():
    dist = np.zeros((2, 2))
    result = mds_embed(dist, 2, steps=500)
    assert result.final_stress <= 1e-8
    assert np.linalg.norm(result.coords[0] - result.coords[1]) <= 1e-4


def test_mds_recovers_planar_configuration(rng):
    pts = rng.uniform(0, 1, (10, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    result = mds_embed(dist, 2, steps=5000)
    assert result.final_stress <= 1e-20
    assert result.final_stress <= 1e-3


def test_mds_equilateral_triangle():
    dist = np.ones((3, 3)) - np.eye(3)
    result = mds_embed(dist, 2, steps=3000)
    coords = result.coords
    for i in range(3):
        for j in range(i + 1, 3):
            d = np.linalg.norm(coords[i] - coords[j])
            assert abs(d - 1.0) <= 1e-3


def test_mds_deterministic():
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = mds_embed(dist, 2, steps=200)
    b = mds_embed(dist, 2, steps=200)
    assert np.array_equal(a.coords, b.coords)
    assert a.final_stress == b.final_stress


def test_mds_validation():
    with pytest.raises(DomainError):
        mds_embed(np.zeros((1, 1)), 2)
    with pytest.raises(DomainError):
        mds_embed(np.zeros((3, 3)), 0)
    for bad in (np.nan, np.inf):
        dist = np.ones((3, 3)) - np.eye(3)
        dist[0, 1] = dist[1, 0] = bad
        with pytest.raises(NumericError):
            mds_embed(dist, 2)


def test_mds_endpoint_never_worse_than_start(rng):
    for seed in range(3):
        affinity = affinity_from_embeddings(rng.normal(size=(8, 5)))
        dist = distance_from_affinity(affinity, "coherent")
        result = mds_embed(dist, 2, steps=800)
        assert result.final_stress < result.initial_stress
        assert result.final_stress == stress(result.coords, dist)


def test_mds_pads_dimensions_beyond_points():
    dist = np.ones((3, 3)) - np.eye(3)
    for n_dims in (3, 5):
        result = mds_embed(dist, n_dims)
        assert result.coords.shape == (3, n_dims)
        assert np.array_equal(result.coords[:, 2:], np.zeros((3, n_dims - 2)))
        assert result.final_stress <= 1e-20


def test_mds_coincident_points():
    result = mds_embed(np.zeros((4, 4)), 3)
    assert np.array_equal(result.coords, np.zeros((4, 3)))
    assert result.final_stress == 0.0 and result.initial_stress == 0.0


# ---------------------------------------------------------------- kmeans


def test_size_window_balanced():
    assert size_window(26, 8, 1.0) == (3, 4)
    assert size_window(8, 2, 2.0) == (4, 8)


def test_constrained_kmeans_size_window_26_8(rng):
    points = rng.normal(size=(26, 2))
    assignment = constrained_kmeans(points, 8, balance=1.0, seed=0)
    assert sorted(assignment.sizes()) == [3, 3, 3, 3, 3, 3, 4, 4]


def test_constrained_kmeans_singletons():
    points = np.arange(10.0).reshape(5, 2)
    assignment = constrained_kmeans(points, 5, seed=1)
    assert assignment.sizes() == [1, 1, 1, 1, 1]


def test_constrained_kmeans_recovers_blobs_vs_bruteforce(rng):
    # Two tight blobs of 4 points; brute force over all balanced 2-partitions
    # confirms the blob split minimizes the k-means objective.
    blob_a = rng.normal(size=(4, 2)) * 0.05 + np.array([0.0, 0.0])
    blob_b = rng.normal(size=(4, 2)) * 0.05 + np.array([10.0, 10.0])
    points = np.vstack([blob_a, blob_b])

    def objective(group):
        rest = [i for i in range(8) if i not in group]
        cost = 0.0
        for members in (list(group), rest):
            centroid = points[members].mean(axis=0)
            cost += ((points[members] - centroid) ** 2).sum()
        return cost

    best = min(itertools.combinations(range(8), 4), key=objective)
    assert set(best) in ({0, 1, 2, 3}, {4, 5, 6, 7})

    assignment = constrained_kmeans(points, 2, balance=1.0, seed=3)
    groups = [set(g) for g in assignment.towers()]
    assert {0, 1, 2, 3} in groups and {4, 5, 6, 7} in groups


def test_constrained_kmeans_deterministic(rng):
    points = rng.normal(size=(12, 3))
    a = constrained_kmeans(points, 4, seed=7)
    b = constrained_kmeans(points, 4, seed=7)
    assert a.tower_of == b.tower_of


def test_constrained_kmeans_window_random_instances(rng):
    for _ in range(30):
        n = int(rng.integers(4, 65))
        towers = int(rng.integers(1, min(n, 16) + 1))
        balance = float(rng.choice([1.0, 2.0]))
        points = rng.normal(size=(n, 2))
        assignment = constrained_kmeans(points, towers, balance, seed=int(rng.integers(1000)))
        lo, hi = size_window(n, towers, balance)
        sizes = assignment.sizes()
        assert sum(sizes) == n
        assert min(sizes) >= max(lo, 1)
        assert max(sizes) <= hi


def test_constrained_kmeans_validation():
    with pytest.raises(DomainError):
        constrained_kmeans(np.zeros((3, 2)), 4)
    with pytest.raises(DomainError):
        constrained_kmeans(np.zeros((4, 2)), 2, balance=0.5)


# ---------------------------------------------------------------- naive/score


def test_naive_assignment_strided_26_8():
    towers = naive_assignment(26, 8).towers()
    assert towers == [
        [0, 8, 16, 24], [1, 9, 17, 25], [2, 10, 18], [3, 11, 19],
        [4, 12, 20], [5, 13, 21], [6, 14, 22], [7, 15, 23],
    ]


def test_naive_assignment_edges():
    assert naive_assignment(4, 4).towers() == [[0], [1], [2], [3]]
    assert naive_assignment(6, 2).towers() == [[0, 2, 4], [1, 3, 5]]
    with pytest.raises(DomainError):
        naive_assignment(3, 4)


def test_partition_score_edges():
    affinity = np.ones((4, 4))
    singles = naive_assignment(4, 4)
    assert partition_score(singles, affinity, "coherent") == 0.0
    one_tower = naive_assignment(4, 1)
    assert partition_score(one_tower, affinity, "coherent") == 1.0


def test_partition_score_prefers_block_structure(rng):
    feats, labels = planted_blocks(rng, [4, 4])
    affinity = affinity_from_embeddings(feats)
    from towersim.partitioner import TowerAssignment

    aligned = TowerAssignment(tuple(int(l) for l in labels), 2)
    naive = naive_assignment(8, 2)
    assert partition_score(aligned, affinity, "coherent") > partition_score(
        naive, affinity, "coherent"
    )


def test_full_pipeline_recovers_planted_blocks(rng):
    feats, labels = planted_blocks(rng, [4, 4, 4, 4], noise=0.12)
    affinity = affinity_from_embeddings(feats)
    dist = distance_from_affinity(affinity, "coherent")
    coords = mds_embed(dist, 2, steps=2000).coords
    assignment = constrained_kmeans(coords, 4, balance=1.0, seed=2)
    towers = [set(g) for g in assignment.towers()]
    expected = [set(np.flatnonzero(labels == b)) for b in range(4)]
    for block in expected:
        assert block in towers
