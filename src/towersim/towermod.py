"""Per-tower dense modules: forward math, widths, compression, pair counts.

Two flavors mirror the interaction styles of the two open-source
recommendation models they attach to: a linear ensemble (dlrm) and a small
stack of gated-residual cross layers with a projection (dcn). Weights are
derived from seeds; nothing here trains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, check_minimums

DLRM = "dlrm"
DCN = "dcn"
KINDS = (DLRM, DCN)
# The TMConfig fields that size a tower module, in field order, each with its
# minimum; the bounds are the same for every kind.
SIZES = {"out_dim": 1, "per_feature_outputs": 0, "flat_outputs": 0, "cross_layers": 1}


@dataclass(frozen=True)
class TMConfig:
    """Tower module configuration.

    For the dlrm flavor the output width is out_dim * (per_feature_outputs *
    num_features + flat_outputs): one projection applied per feature plus one
    over the flattened feature block. For the dcn flavor it is num_features *
    out_dim. A tower without a module has no TMConfig.
    """

    kind: str
    out_dim: int = 64
    per_feature_outputs: int = 1
    flat_outputs: int = 0
    cross_layers: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DomainError(f"kind: unknown tower module kind {self.kind!r}")
        check_minimums(vars(self), SIZES)
        if self.kind == DLRM and self.per_feature_outputs + self.flat_outputs < 1:
            raise DomainError("per_feature_outputs: plus flat_outputs must be >= 1 for dlrm")


@dataclass(frozen=True)
class DLRMWeights:
    w_flat: np.ndarray  # (flat_outputs*out_dim, num_features*in_dim)
    b_flat: np.ndarray
    w_feat: np.ndarray  # (per_feature_outputs*out_dim, in_dim)
    b_feat: np.ndarray


@dataclass(frozen=True)
class DCNWeights:
    cross: tuple[tuple[np.ndarray, np.ndarray], ...]  # per layer (W: MxM, b: M)
    w_proj: np.ndarray  # (num_features*out_dim, M)
    b_proj: np.ndarray


def _uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def init_tm_weights(cfg: TMConfig, num_features: int, in_dim: int, salt: int = 0):
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights for a tower.

    ``salt`` keeps towers with identical shapes from sharing weights.
    """
    rng = np.random.default_rng([cfg.seed, salt, num_features, in_dim])
    if cfg.kind == DLRM:
        flat_in = num_features * in_dim
        return DLRMWeights(
            w_flat=_uniform(rng, (cfg.flat_outputs * cfg.out_dim, flat_in), flat_in),
            b_flat=_uniform(rng, (cfg.flat_outputs * cfg.out_dim,), flat_in),
            w_feat=_uniform(rng, (cfg.per_feature_outputs * cfg.out_dim, in_dim), in_dim),
            b_feat=_uniform(rng, (cfg.per_feature_outputs * cfg.out_dim,), in_dim),
        )
    m = num_features * in_dim
    cross = tuple(
        (_uniform(rng, (m, m), m), _uniform(rng, (m,), m))
        for _ in range(cfg.cross_layers)
    )
    return DCNWeights(
        cross=cross,
        w_proj=_uniform(rng, (num_features * cfg.out_dim, m), m),
        b_proj=_uniform(rng, (num_features * cfg.out_dim,), m),
    )


def tm_output_width(cfg: TMConfig, num_features: int, in_dim: int) -> int:
    if cfg.kind == DLRM:
        return cfg.out_dim * (cfg.per_feature_outputs * num_features + cfg.flat_outputs)
    return num_features * cfg.out_dim


def tm_dlrm_forward(embs: np.ndarray, cfg: TMConfig, weights: DLRMWeights) -> np.ndarray:
    """Linear-ensemble forward: concat(flat-block projection, per-feature projection).

    embs is (batch, num_features, in_dim); output is (batch, out_dim *
    (per_feature_outputs*num_features + flat_outputs)).
    """
    if embs.ndim != 3:
        raise ShapeError(f"embs must be 3-D, got {embs.shape}")
    batch, num_features, in_dim = embs.shape
    if weights.w_flat.shape[1] != num_features * in_dim:
        raise ShapeError(
            f"w_flat expects input width {weights.w_flat.shape[1]}, "
            f"got {num_features * in_dim}"
        )
    if weights.w_feat.shape[1] != in_dim:
        raise ShapeError(f"w_feat expects input width {weights.w_feat.shape[1]}, got {in_dim}")
    flat = embs.reshape(batch, num_features * in_dim)
    o1 = flat @ weights.w_flat.T + weights.b_flat
    o2 = (embs @ weights.w_feat.T + weights.b_feat).reshape(batch, -1)
    return np.concatenate([o1, o2], axis=1)


def crossnet_layer(x0: np.ndarray, xl: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gated residual cross layer: x0 * (xl @ w.T + b) + xl (elementwise product)."""
    if x0.shape != xl.shape:
        raise ShapeError(f"x0 {x0.shape} and xl {xl.shape} must match")
    m = x0.shape[-1]
    if w.shape != (m, m) or b.shape != (m,):
        raise ShapeError(f"cross layer weights {w.shape}/{b.shape} do not match width {m}")
    return x0 * (xl @ w.T + b) + xl


def tm_dcn_forward(embs: np.ndarray, cfg: TMConfig, weights: DCNWeights) -> np.ndarray:
    """Cross-layer stack over the flattened features, then a projection.

    embs is (batch, num_features, in_dim); output is (batch, num_features*out_dim).
    """
    if embs.ndim != 3:
        raise ShapeError(f"embs must be 3-D, got {embs.shape}")
    batch, num_features, in_dim = embs.shape
    x0 = embs.reshape(batch, num_features * in_dim)
    xl = x0
    for w, b in weights.cross:
        xl = crossnet_layer(x0, xl, w, b)
    if weights.w_proj.shape[1] != x0.shape[1]:
        raise ShapeError(
            f"projection expects input width {weights.w_proj.shape[1]}, got {x0.shape[1]}"
        )
    return xl @ weights.w_proj.T + weights.b_proj


def tm_forward(embs: np.ndarray, cfg: TMConfig, weights) -> np.ndarray:
    if cfg.kind == DLRM:
        return tm_dlrm_forward(embs, cfg, weights)
    return tm_dcn_forward(embs, cfg, weights)


def tm_weight_jvp(embs: np.ndarray, cfg: TMConfig, weights, direction) -> np.ndarray:
    """Directional derivative of tm_forward w.r.t. the weights.

    ``direction`` carries the same field shapes as ``weights``. Checked in
    tests against central finite differences.
    """
    batch, num_features, in_dim = embs.shape
    if cfg.kind == DLRM:
        flat = embs.reshape(batch, num_features * in_dim)
        d1 = flat @ direction.w_flat.T + direction.b_flat
        d2 = (embs @ direction.w_feat.T + direction.b_feat).reshape(batch, -1)
        return np.concatenate([d1, d2], axis=1)
    # dcn: propagate tangents through xl -> x0 * (xl W^T + b) + xl.
    x0 = embs.reshape(batch, num_features * in_dim)
    xl = x0
    dxl = np.zeros_like(x0)
    for (w, b), (dw, db) in zip(weights.cross, direction.cross):
        new_xl = crossnet_layer(x0, xl, w, b)
        dxl = x0 * (dxl @ w.T + xl @ dw.T + db) + dxl
        xl = new_xl
    return xl @ direction.w_proj.T + direction.b_proj + dxl @ weights.w_proj.T


def tm_flops(cfg: TMConfig, num_features: int, in_dim: int, batch: int) -> float:
    """Multiply-add count of one forward pass (2 flops per multiply-add)."""
    if cfg.kind == DLRM:
        flat = num_features * in_dim
        return 2.0 * batch * (
            flat * cfg.flat_outputs * cfg.out_dim
            + num_features * in_dim * cfg.per_feature_outputs * cfg.out_dim
        )
    m = num_features * in_dim
    per_layer = 2.0 * batch * m * m + 3.0 * batch * m
    return cfg.cross_layers * per_layer + 2.0 * batch * m * num_features * cfg.out_dim


def compression_ratio(
    tower_widths: list[int], tower_feature_counts: list[int], in_dim: int
) -> float:
    """Savings factor (total_features*in_dim) / sum(tower output widths).

    1.0 means passthrough; 2.0 means the compressed exchange moves half the
    bytes. Stated as a savings factor so larger is more compression.
    """
    if len(tower_widths) != len(tower_feature_counts):
        raise DomainError("tower_widths and tower_feature_counts must align")
    total_out = sum(tower_widths)
    total_features = sum(tower_feature_counts)
    if total_out <= 0 or total_features * in_dim <= 0:
        raise DomainError("widths and feature counts must be positive")
    return (total_features * in_dim) / total_out


def balanced_group_sizes(total: int, groups: int) -> list[int]:
    base, extra = divmod(total, groups)
    return [base + (1 if i < extra else 0) for i in range(groups)]


def interaction_pairs(
    num_features: int, num_towers: int, reduction_ratio: float
) -> tuple[float, float]:
    """Pairwise-interaction counts: flat model vs hierarchical tower model.

    Flat: C(F, 2). Hierarchical: within-tower pairs over balanced tower sizes
    plus pairs among the reduced global set of r*F compressed features. With
    num_towers=1 and r=1 the hierarchical count is twice the flat count (the
    tower term already equals the flat term); that degenerate corner is
    reported as-is.
    """
    if num_towers < 1:
        raise DomainError("num_towers must be >= 1")
    if not 0 < reduction_ratio <= 1:
        raise DomainError("reduction_ratio must be in (0, 1]")
    flat = num_features * (num_features - 1) / 2
    within = sum(s * (s - 1) / 2 for s in balanced_group_sizes(num_features, num_towers))
    reduced = reduction_ratio * num_features
    hierarchical = within + reduced * (reduced - 1) / 2
    return flat, hierarchical
