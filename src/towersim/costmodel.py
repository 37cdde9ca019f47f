"""Alpha-beta latency model with a world-size efficiency table.

A collective over w ranks moving S bytes per rank costs
alpha + S * (w-1)/w / (beta * efficiency(w)); efficiency is a non-increasing
table keyed by world size (collective throughput degrades as groups grow).
A trace is a list of collectives, each with its rank group and its matrix of
message sizes, so it carries its own structure: each (label, group) pair is
costed as one collective at the group's size, on the scale-out link when its
ranks sit on more than one host and on the scale-up link otherwise. Disjoint
concurrent groups of one step label (the per-tower step-d and per-class
step-f collectives) cost their maximum, not their sum, because they use
disjoint links under full-bisection networks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, ReportError
from .simnet import CommTrace

INTRA = "intra"
CROSS = "cross"
# The CostParams fields that are positive rates, in field order.
RATES = ("alpha_up", "alpha_out", "beta_up", "beta_out", "compute_rate")


def default_efficiency(max_world: int = 4096, flat_until: int = 8, decay: float = 0.8) -> dict[int, float]:
    """1.0 up to ``flat_until`` ranks, then ``decay`` per world doubling."""
    table = {1: 1.0, flat_until: 1.0}
    world, eff = flat_until, 1.0
    while world < max_world:
        world *= 2
        eff *= decay
        table[world] = eff
    return table


@dataclass(frozen=True)
class CostParams:
    """Link and compute rates; bandwidth defaults follow current-generation
    accelerator hosts (450 GB/s scale-up, 400 Gbps scale-out).

    Latencies (alpha) are seconds, bandwidths (beta) bytes/second. The
    scale-up (intra-host) link is expected to be at least as fast as the
    scale-out link; a slower scale-up link is unusual but legal, so it only
    warns.
    """

    alpha_up: float = 2e-6
    alpha_out: float = 1e-5
    beta_up: float = 450e9
    beta_out: float = 50e9
    compute_rate: float = 989e12
    efficiency: dict[int, float] = field(default_factory=default_efficiency)

    def __post_init__(self) -> None:
        for name in RATES:
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if self.beta_up < self.beta_out:
            warnings.warn(
                "scale-up bandwidth below scale-out bandwidth; unusual cluster",
                stacklevel=3,
            )
        worlds = sorted(self.efficiency)
        if not worlds:
            raise DomainError("efficiency table is empty")
        last = None
        for w in worlds:
            f = self.efficiency[w]
            if not 0 < f <= 1:
                raise DomainError(f"efficiency({w}) = {f} outside (0, 1]")
            if last is not None and f > last:
                raise DomainError("efficiency table must be non-increasing")
            last = f


def efficiency_at(table: dict[int, float], world: int) -> float:
    """Factor for a world size; absent sizes use the nearest smaller entry."""
    smaller = [w for w in table if w <= world]
    if not smaller:
        return table[min(table)]
    return table[max(smaller)]


def collective_latency(
    world: int, per_rank_bytes: float, link: str, params: CostParams
) -> float:
    """Seconds for one collective; single-rank groups are free.

    All-to-all and reduce-scatter share this formula: each puts (w-1)/w of a
    rank's bytes on the wire.
    """
    if link not in (INTRA, CROSS):
        raise DomainError(f"unknown link {link!r}")
    if world < 1:
        raise DomainError("world must be >= 1")
    if per_rank_bytes < 0:
        raise DomainError("bytes must be >= 0")
    if world == 1:
        return 0.0
    alpha = params.alpha_up if link == INTRA else params.alpha_out
    beta = params.beta_up if link == INTRA else params.beta_out
    wire = per_rank_bytes * (world - 1) / world
    return alpha + wire / (beta * efficiency_at(params.efficiency, world))


@dataclass
class CostBreakdown:
    per_step: dict[str, float]
    exposed_comm: float
    compute: float

    @property
    def total(self) -> float:
        return self.exposed_comm + self.compute


_COMPUTE_STEPS = ("b", "e")


def pipeline_cost(
    trace: CommTrace,
    params: CostParams,
    flops: Optional[dict[str, float]] = None,
) -> CostBreakdown:
    """Cost a traced exchange run.

    Per step label, the collectives over one rank group are costed as one
    collective at the group's size, with the maximum bytes any of its ranks
    sent in them, on the cross-host link if its ranks span hosts; concurrent
    groups of one label contribute their maximum. ``flops`` adds compute
    seconds for the local steps (lookup "b", tower modules "e").
    """
    sent: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}
    for c in trace.collectives:
        key = (c.label, c.group)
        sent[key] = sent.get(key, 0) + c.nbytes.sum(axis=1)
    per_step: dict[str, float] = {}
    for (label, group), rows in sent.items():
        seconds = 0.0
        if rows.max() > 0:
            link = CROSS if len({trace.topo.host_of(r) for r in group}) > 1 else INTRA
            seconds = collective_latency(len(group), int(rows.max()), link, params)
        per_step[label] = max(per_step.get(label, 0.0), seconds)
    exposed = sum(per_step.values())
    compute = 0.0
    for label, work in (flops or {}).items():
        if label not in _COMPUTE_STEPS:
            raise ReportError(f"unknown compute step {label!r}")
        seconds = work / params.compute_rate
        per_step[label] = seconds
        compute += seconds
    per_step = {k: per_step[k] for k in sorted(per_step)}
    return CostBreakdown(per_step, exposed, compute)


def speedup_report(baseline: CostBreakdown, tower: CostBreakdown) -> dict[str, float]:
    """Total times of both pipelines and the tower pipeline's speedup."""
    if baseline.total <= 0:
        raise DomainError("baseline total must be positive")
    return {
        "baseline_s": baseline.total,
        "tower_s": tower.total,
        "speedup": baseline.total / tower.total if tower.total > 0 else float("inf"),
    }
