"""Learned tower partitioner: affinity, distances, MDS embedding, clustering.

The pipeline turns feature embeddings into an affinity matrix (absolute
cosine similarity), converts it to distances under the diverse (f(I)=I) or
coherent (f(I)=1-I) strategy, embeds features in a low-dimensional Euclidean
space by minimizing squared stress with SMACOF from a classical-MDS start,
and partitions the coordinates with a balance-constrained k-means whose
assignment step is solved exactly as a min-cost matching. A strided
round-robin assignment is provided as the naive baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConstraintError, DomainError, NumericError

DIVERSE = "diverse"
COHERENT = "coherent"
STRATEGIES = (DIVERSE, COHERENT)

_FORBIDDEN = 1e15  # matching penalty that no admissible slot can reach


def _normalize_rows(mat: np.ndarray, what: str) -> np.ndarray:
    # Each row is first divided by the power of two of its largest magnitude:
    # exact, so rows in range keep their bits, and no square over- or underflows.
    mat = np.ldexp(mat, -np.frexp(np.abs(mat).max(axis=1, keepdims=True))[1])
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    if np.any(norms == 0):
        bad = int(np.argwhere(norms[:, 0] == 0)[0][0])
        raise DomainError(f"{what} {bad} has zero norm")
    return mat / norms


def affinity_from_embeddings(features: np.ndarray) -> np.ndarray:
    """Absolute cosine similarity between feature embedding rows, in [0, 1]."""
    if features.ndim != 2 or features.shape[0] < 1:
        raise DomainError(f"expected a (features, dim) matrix, got {features.shape}")
    unit = _normalize_rows(np.asarray(features, dtype=np.float64), "feature row")
    return np.clip(np.abs(unit @ unit.T), 0.0, 1.0)


def distance_from_affinity(affinity: np.ndarray, strategy: str) -> np.ndarray:
    """Map affinity to distances: diverse keeps I, coherent uses 1 - I.

    The diagonal is forced to zero either way (a nonzero self-distance is
    meaningless for the embedding), and residual asymmetry is averaged out.
    """
    if strategy not in STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}")
    dist = np.array(affinity, dtype=np.float64)
    if strategy == COHERENT:
        dist = 1.0 - dist
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def _pairwise(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate differences x_i - x_j and Euclidean distances ||x_i - x_j||."""
    diff = coords[:, None, :] - coords[None, :, :]
    return diff, np.sqrt((diff ** 2).sum(axis=2))


def _stress_of(d: np.ndarray, dist: np.ndarray) -> float:
    return float(np.triu((d - dist) ** 2, k=1).sum())


def stress(coords: np.ndarray, dist: np.ndarray) -> float:
    """Sum over pairs i<j of (||x_i - x_j|| - dist_ij)^2."""
    return _stress_of(_pairwise(coords)[1], dist)


def stress_gradient(coords: np.ndarray, dist: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Gradient of the stress: sum_j 2 (d_ij - D_ij) (x_i - x_j) / max(d_ij, eps)."""
    diff, d = _pairwise(coords)
    coef = 2.0 * (d - dist) / np.maximum(d, eps)
    np.fill_diagonal(coef, 0.0)
    return (coef[:, :, None] * diff).sum(axis=1)


@dataclass
class EmbeddedCoords:
    coords: np.ndarray
    final_stress: float
    initial_stress: float


def _classical_start(dist: np.ndarray, n_dims: int) -> np.ndarray:
    """Torgerson start: top eigenvectors of the double-centred -D^2/2.

    Negative eigenvalues are clipped to zero and each column's sign is fixed
    so its largest-magnitude entry is positive; columns beyond the number of
    points are zero.
    """
    n = dist.shape[0]
    sq = dist ** 2
    gram = -0.5 * (sq - sq.mean(axis=0) - sq.mean(axis=1)[:, None] + sq.mean())
    values, vectors = np.linalg.eigh(gram)
    k = min(n_dims, n)
    top = vectors[:, ::-1][:, :k] * np.sqrt(np.clip(values[::-1][:k], 0.0, None))
    rows = np.abs(top).argmax(axis=0)
    top *= np.where(top[rows, np.arange(k)] < 0, -1.0, 1.0)
    coords = np.zeros((n, n_dims))
    coords[:, :k] = top
    return coords


def mds_embed(dist: np.ndarray, n_dims: int = 2, steps: int = 5000) -> EmbeddedCoords:
    """Embed features so pairwise Euclidean distances approximate ``dist``.

    SMACOF (de Leeuw 1977): from the classical-MDS start, repeat the Guttman
    transform X <- B(X) X / n, with B_ij = -dist_ij / d_ij off the diagonal
    (0 where d_ij = 0) and rows summing to zero. Each transform minimises a
    quadratic majoriser of the stress, so the stress never rises in exact
    arithmetic; iteration stops after ``steps`` transforms or at the first
    one that does not lower it, and the lowest-stress iterate is returned.
    Deterministic, with no step size.
    """
    n = dist.shape[0]
    if dist.shape != (n, n) or n < 2:
        raise DomainError(f"distance matrix must be square with >= 2 rows, got {dist.shape}")
    if n_dims < 1:
        raise DomainError("n_dims must be >= 1")
    if not np.all(np.isfinite(dist)):
        raise NumericError("distance matrix has non-finite entries")
    coords = _classical_start(dist, n_dims)
    d = _pairwise(coords)[1]
    initial = best = _stress_of(d, dist)
    for _ in range(steps):
        ratio = np.divide(dist, d, out=np.zeros_like(d), where=d > 0)
        b = -ratio
        b[np.diag_indices(n)] = ratio.sum(axis=1)
        candidate = b @ coords / n
        d_next = _pairwise(candidate)[1]
        value = _stress_of(d_next, dist)
        if not value < best:
            break
        coords, d, best = candidate, d_next, value
    return EmbeddedCoords(coords, best, initial)


@dataclass(frozen=True)
class TowerAssignment:
    """Feature -> tower map over ``num_towers`` towers."""

    tower_of: tuple[int, ...]
    num_towers: int

    def towers(self) -> list[list[int]]:
        groups: list[list[int]] = [[] for _ in range(self.num_towers)]
        for feat, tower in enumerate(self.tower_of):
            groups[tower].append(feat)
        return groups

    def sizes(self) -> list[int]:
        return [len(g) for g in self.towers()]


def size_window(num_features: int, num_towers: int, balance: float) -> tuple[int, int]:
    """Allowed per-tower sizes: [floor(F/T), max(ceil(F/T), balance*floor(F/T))]."""
    lo = num_features // num_towers
    hi = max(math.ceil(num_features / num_towers), int(balance * lo))
    return lo, hi


def _constrained_assign(
    points: np.ndarray, centroids: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Min-cost feature->cluster matching with cluster loads in [lo, hi].

    Clusters expose ``hi`` slots each; dummy rows pad the matching square and
    may only occupy the slots beyond ``lo``, which forces every cluster to
    keep at least ``lo`` real features while the matching stays globally
    optimal.
    """
    n, k = points.shape[0], centroids.shape[0]
    sq = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    slots = np.repeat(np.arange(k), hi)
    cost = np.empty((k * hi, k * hi))
    cost[:n] = sq[:, slots]
    extra = (np.arange(k * hi) % hi) >= lo
    cost[n:] = np.where(extra, 0.0, _FORBIDDEN)
    rows, cols = linear_sum_assignment(cost)
    labels = np.empty(n, dtype=np.int64)
    for r, c in zip(rows, cols):
        if r < n:
            labels[r] = slots[c]
    return labels


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centroids = [points[rng.integers(points.shape[0])]]
    for _ in range(1, k):
        d2 = np.min(
            ((points[:, None, :] - np.array(centroids)[None, :, :]) ** 2).sum(axis=2),
            axis=1,
        )
        total = d2.sum()
        if total == 0:
            centroids.append(points[rng.integers(points.shape[0])])
            continue
        centroids.append(points[rng.choice(points.shape[0], p=d2 / total)])
    return np.array(centroids)


def constrained_kmeans(
    points: np.ndarray,
    num_towers: int,
    balance: float = 1.0,
    max_iters: int = 50,
    seed: int = 0,
) -> TowerAssignment:
    """Balance-constrained k-means over embedded feature coordinates.

    Alternates an exact capacity-constrained assignment (min-cost matching
    with per-cluster loads inside the size window) with centroid updates,
    stopping when the assignment is stable. Deterministic for a fixed seed.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if num_towers < 1 or n < num_towers:
        raise DomainError(f"need >= {num_towers} features, got {n}")
    if balance < 1:
        raise DomainError("balance must be >= 1")
    lo, hi = size_window(n, num_towers, balance)
    if num_towers * hi < n:
        raise ConstraintError(
            f"capacity {num_towers}*{hi} cannot hold {n} features"
        )
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(points, num_towers, rng)
    labels = _constrained_assign(points, centroids, lo, hi)
    for _ in range(max_iters):
        centroids = np.array(
            [points[labels == t].mean(axis=0) for t in range(num_towers)]
        )
        new_labels = _constrained_assign(points, centroids, lo, hi)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return TowerAssignment(tuple(int(t) for t in labels), num_towers)


def naive_assignment(num_features: int, num_towers: int) -> TowerAssignment:
    """Strided round-robin baseline: feature f goes to tower f mod num_towers."""
    if num_features < num_towers:
        raise DomainError(f"need >= {num_towers} features, got {num_features}")
    return TowerAssignment(
        tuple(f % num_towers for f in range(num_features)), num_towers
    )


def partition_score(
    assignment: TowerAssignment, affinity: np.ndarray, strategy: str
) -> float:
    """Mean within-tower affinity (coherent) or dissimilarity 1-I (diverse).

    Towers without pairs contribute nothing; an empty pair set scores 0.
    """
    if strategy not in STRATEGIES:
        raise DomainError(f"unknown strategy {strategy!r}")
    values = []
    for members in assignment.towers():
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                value = affinity[a, b]
                values.append(1.0 - value if strategy == DIVERSE else value)
    return float(np.mean(values)) if values else 0.0
