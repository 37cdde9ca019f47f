"""Deterministic in-memory message passing over ranks with byte accounting.

Collectives here are functional: they move payloads and log traffic, they do
not model time. Each collective also registers the rank group it ran over on
its trace, so the cost model derives latency from the trace alone. Byte
accounting uses a fixed 4-byte element width (single-precision wire format)
regardless of the in-memory dtype.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .embedding import Bags
from .errors import DomainError, ProtocolError, ShapeError
from .topology import CROSS_HOST, INTRA_HOST, ClusterTopology, link_class

BYTES_PER_ELEMENT = 4


class Tagged(NamedTuple):
    """A payload with free metadata; only ``data`` counts toward wire bytes."""

    tag: object
    data: object


def payload_nbytes(payload) -> int:
    """Wire size of a payload: 4 bytes per array element or index.

    Accepts arrays, index bags (their lengths are free metadata), (nested)
    lists/tuples of those, Tagged wrappers (tag is metadata, free), and None
    (empty).
    """
    if payload is None:
        return 0
    if isinstance(payload, Tagged):
        return payload_nbytes(payload.data)
    if isinstance(payload, np.ndarray):
        return int(payload.size) * BYTES_PER_ELEMENT
    if isinstance(payload, Bags):
        return int(payload.values.size) * BYTES_PER_ELEMENT
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(item) for item in payload)
    raise ProtocolError(f"cannot size payload of type {type(payload).__name__}")


class TraceEntry(NamedTuple):
    label: str
    src: int
    dst: int
    nbytes: int
    link: str


class CommTrace:
    """Append-only log of simulated messages for one run.

    ``groups[label]`` holds the distinct rank groups the collectives under
    that label ran over, in first-use order.
    """

    def __init__(self, topo: ClusterTopology):
        self.topo = topo
        self.entries: list[TraceEntry] = []
        self.groups: dict[str, dict[tuple[int, ...], None]] = {}

    def add_group(self, label: str, group: Sequence[int]) -> None:
        self.groups.setdefault(label, {})[tuple(group)] = None

    def record(self, label: str, src: int, dst: int, nbytes: int) -> None:
        self.entries.append(
            TraceEntry(label, src, dst, nbytes, link_class(src, dst, self.topo))
        )

    def byte_totals(self, label: Optional[str] = None) -> tuple[int, int]:
        """(intra_host, cross_host) byte sums; self messages never count."""
        intra = cross = 0
        for e in self.entries:
            if label is not None and e.label != label:
                continue
            if e.link == INTRA_HOST:
                intra += e.nbytes
            elif e.link == CROSS_HOST:
                cross += e.nbytes
        return intra, cross

    def labels(self) -> list[str]:
        seen: dict[str, None] = {}
        for e in self.entries:
            seen.setdefault(e.label, None)
        return list(seen)

    def sent_by_rank(self, label: str) -> dict[int, int]:
        """Total bytes each src sent under a label, self messages included."""
        out: dict[int, int] = {}
        for e in self.entries:
            if e.label == label:
                out[e.src] = out.get(e.src, 0) + e.nbytes
        return out

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for e in self.entries:
                fh.write(f"{e.label}\t{e.src}\t{e.dst}\t{e.nbytes}\t{e.link}\n")

    @staticmethod
    def load(path, topo: ClusterTopology) -> "CommTrace":
        """Messages only: the file holds no collective groups, so a loaded
        trace cannot be costed."""
        trace = CommTrace(topo)
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                label, src, dst, nbytes, link = line.rstrip("\n").split("\t")
                trace.entries.append(
                    TraceEntry(label, int(src), int(dst), int(nbytes), link)
                )
        return trace


def _check_group(group: Sequence[int]) -> None:
    if len(set(group)) != len(group):
        raise DomainError(f"duplicate rank in group {list(group)}")
    if not group:
        raise DomainError("empty group")


def all_to_all(
    group: Sequence[int],
    sends: dict[int, Sequence],
    label: str,
    trace: CommTrace,
) -> dict[int, list]:
    """Exchange payloads between all group members.

    ``sends[rank]`` lists one payload per destination, in group order. Every
    member receives one payload per source, in group order. All |group|^2
    messages (self included) are traced.
    """
    _check_group(group)
    for rank in group:
        if rank not in sends:
            raise ProtocolError(f"rank {rank} supplied no payloads for {label!r}")
        if len(sends[rank]) != len(group):
            raise ProtocolError(
                f"rank {rank} supplied {len(sends[rank])} payloads for "
                f"{label!r}, expected {len(group)}"
            )
    trace.add_group(label, group)
    # Outer loop over sources in group order, so receivers end up holding
    # payloads ordered by source position.
    received: dict[int, list] = {rank: [] for rank in group}
    for src in group:
        for j, dst in enumerate(group):
            payload = sends[src][j]
            trace.record(label, src, dst, payload_nbytes(payload))
            received[dst].append(payload)
    return received


def reduce_scatter(
    group: Sequence[int],
    sends: dict[int, Sequence[Optional[np.ndarray]]],
    label: str,
    trace: CommTrace,
) -> dict[int, np.ndarray]:
    """Elementwise-sum the shards addressed to each member and deliver them.

    ``sends[rank]`` lists one array (or None) per destination in group order;
    ranks absent from ``sends`` contribute nothing. Shards addressed to the
    same destination must share a shape, and every destination needs at least
    one contribution. Summation runs in group order so results are
    reproducible bit for bit.
    """
    _check_group(group)
    size = len(group)
    for rank, shards in sends.items():
        if rank not in group:
            raise ProtocolError(f"sender {rank} not in group for {label!r}")
        if len(shards) != size:
            raise ProtocolError(
                f"rank {rank} supplied {len(shards)} shards for {label!r}, "
                f"expected {size}"
            )
    trace.add_group(label, group)
    out: dict[int, np.ndarray] = {}
    for j, dst in enumerate(group):
        total: Optional[np.ndarray] = None
        for src in group:
            shard = sends.get(src, [None] * size)[j]
            if shard is None:
                continue
            trace.record(label, src, dst, payload_nbytes(shard))
            if total is None:
                total = np.array(shard, dtype=np.float64, copy=True)
            else:
                if shard.shape != total.shape:
                    raise ShapeError(
                        f"reduce_scatter {label!r}: shard for dst {dst} has "
                        f"shape {shard.shape}, expected {total.shape}"
                    )
                total = total + shard
        if total is None:
            raise ProtocolError(f"no contribution for destination {dst} in {label!r}")
        out[dst] = total
    return out
