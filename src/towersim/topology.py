"""Logical cluster model: hosts, ranks, peer classes, and rank orderings.

Ranks are numbered 0..G-1 in contiguous blocks per host, so the host of a
rank is ``rank // ranks_per_host``. A *peer class* is the set of ranks that
share the same local index on their host; peer classes are what the
tower-transformed exchange communicates across hosts with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, check_minimums

SELF = "self"
INTRA_HOST = "intra_host"
CROSS_HOST = "cross_host"


@dataclass(frozen=True)
class ClusterTopology:
    """Logical cluster: host count and ranks per host.

    Link rates live in ``costmodel.CostParams``.
    """

    num_hosts: int
    ranks_per_host: int

    def __post_init__(self) -> None:
        check_minimums(vars(self), {"num_hosts": 1, "ranks_per_host": 1})

    @property
    def world_size(self) -> int:
        return self.num_hosts * self.ranks_per_host

    def host_of(self, rank: int) -> int:
        self.check_rank(rank)
        return rank // self.ranks_per_host

    def check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise DomainError(f"rank {rank} out of range 0..{self.world_size - 1}")


@dataclass(frozen=True)
class TowerLayout:
    """Tower count and how many hosts each tower spans.

    With ``hosts_per_tower`` h, a tower owns a contiguous block of h hosts
    (one "super-host" of ranks_per_host * h ranks). The world must tile
    exactly into towers.
    """

    num_towers: int
    hosts_per_tower: int = 1

    def __post_init__(self) -> None:
        check_minimums(vars(self), {"num_towers": 1, "hosts_per_tower": 1})

    def validate_for(self, topo: ClusterTopology) -> None:
        group = topo.ranks_per_host * self.hosts_per_tower
        if topo.world_size % group != 0:
            raise DomainError(
                f"world size {topo.world_size} not divisible by "
                f"ranks_per_host*hosts_per_tower = {group}"
            )
        if topo.world_size // group != self.num_towers:
            raise DomainError(
                f"num_towers {self.num_towers} != world/{group} "
                f"= {topo.world_size // group}"
            )

    def group_width(self, topo: ClusterTopology) -> int:
        """Ranks per tower (the super-host width)."""
        return topo.ranks_per_host * self.hosts_per_tower

    def tower_ranks(self, tower: int, topo: ClusterTopology) -> list[int]:
        if not 0 <= tower < self.num_towers:
            raise DomainError(f"tower {tower} out of range 0..{self.num_towers - 1}")
        width = self.group_width(topo)
        return list(range(tower * width, (tower + 1) * width))


def class_order(topo: ClusterTopology, layout: TowerLayout) -> tuple[int, ...]:
    """Ranks grouped by peer class: all ranks with local index 0, then 1, ...

    Local index is taken within the tower's super-host (so class c of width w
    is {c, c+w, c+2w, ...}). Consecutive chunks of num_towers entries are
    exactly the peer-class collective groups; the exchange permutes its
    destination blocks into this order before the intra-tower shuffle.
    """
    layout.validate_for(topo)
    width = layout.group_width(topo)
    return tuple(r for c in range(width) for r in class_members(c, topo, layout))


def class_members(cls: int, topo: ClusterTopology, layout: TowerLayout) -> list[int]:
    """Ranks at local index ``cls`` of every tower, ascending (= tower order)."""
    width = layout.group_width(topo)
    if not 0 <= cls < width:
        raise DomainError(f"class {cls} out of range 0..{width - 1}")
    return [t * width + cls for t in range(layout.num_towers)]


def link_classes(group: Sequence[int], topo: ClusterTopology) -> np.ndarray:
    """Link class (self, intra_host or cross_host) of every (src, dst) pair
    of a group of distinct ranks, as a square array indexed by position."""
    host = np.array([topo.host_of(rank) for rank in group])
    links = np.where(host[:, None] == host[None, :], INTRA_HOST, CROSS_HOST)
    np.fill_diagonal(links, SELF)
    return links
