"""Deterministic in-memory message passing over ranks with byte accounting.

Collectives here are functional: they move payloads and log traffic, they do
not model time. Each collective appends one record to its trace, holding
the bytes each group member sent each other member; everything else about
the traffic is derived from those records. Byte accounting uses a fixed
4-byte element width (single-precision wire format) regardless of the
in-memory dtype.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .embedding import Bags
from .errors import DomainError, ProtocolError, ShapeError
from .topology import CROSS_HOST, INTRA_HOST, ClusterTopology, link_classes

BYTES_PER_ELEMENT = 4


def payload_nbytes(payload) -> int:
    """Wire size of a payload: 4 bytes per array element or index.

    Accepts arrays, index bags (their lengths are free metadata), (nested)
    lists, tuples and dicts of those (a dict's keys, like the shard ids that
    name an exchange message's pieces, are free), and None (empty).
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.size) * BYTES_PER_ELEMENT
    if isinstance(payload, Bags):
        return int(payload.values.size) * BYTES_PER_ELEMENT
    if isinstance(payload, dict):
        payload = payload.values()
    elif not isinstance(payload, (list, tuple)):
        raise ProtocolError(f"cannot size payload of type {type(payload).__name__}")
    return sum(payload_nbytes(item) for item in payload)


ALL_TO_ALL = "all_to_all"
REDUCE_SCATTER = "reduce_scatter"


class Message(NamedTuple):  # one line of trace.log
    label: str
    src: int
    dst: int
    nbytes: int
    link: str


class Collective(NamedTuple):
    """One collective over ``group``.

    ``nbytes[i, j]`` is what ``group[i]`` sent ``group[j]``, and
    ``present[i, j]`` whether that message exists: a reduce-scatter
    contribution that was never supplied is absent, every all-to-all message
    is present. ``kind`` fixes the message order: sources outer for an
    all-to-all, destinations outer for a reduce-scatter.
    """

    label: str
    kind: str
    group: tuple[int, ...]
    nbytes: np.ndarray
    present: np.ndarray

    def columns(self, topo: ClusterTopology) -> tuple[list, list, list, list]:
        """Source, destination, bytes and link of each message, in order."""
        if self.kind == REDUCE_SCATTER:
            dst, src = np.nonzero(self.present.T)
        else:
            src, dst = np.nonzero(self.present)
        group, links = np.array(self.group), link_classes(self.group, topo)
        return (group[src].tolist(), group[dst].tolist(),
                self.nbytes[src, dst].tolist(), links[src, dst].tolist())


class CommTrace:
    """The collectives of one run, in the order they ran.

    Messages, byte totals, labels and the ``trace.log`` lines are all derived
    from this list.
    """

    def __init__(self, topo: ClusterTopology):
        self.topo = topo
        self.collectives: list[Collective] = []

    @property
    def entries(self) -> list[Message]:
        """Every message, in ``trace.log`` order."""
        return [Message(c.label, *row) for c in self.collectives
                for row in zip(*c.columns(self.topo))]

    def byte_totals(self, label: Optional[str] = None) -> tuple[int, int]:
        """(intra_host, cross_host) byte sums; self messages never count."""
        intra = cross = 0
        for c in self.collectives:
            if label is not None and c.label != label:
                continue
            links = link_classes(c.group, self.topo)
            intra += int(c.nbytes[links == INTRA_HOST].sum())
            cross += int(c.nbytes[links == CROSS_HOST].sum())
        return intra, cross

    def labels(self) -> list[str]:
        return list(dict.fromkeys(c.label for c in self.collectives))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for c in self.collectives:
                fh.writelines(
                    f"{c.label}\t{src}\t{dst}\t{nbytes}\t{link}\n"
                    for src, dst, nbytes, link in zip(*c.columns(self.topo))
                )


def _check_group(group: Sequence[int], topo: ClusterTopology) -> None:
    if len(set(group)) != len(group):
        raise DomainError(f"duplicate rank in group {list(group)}")
    if not group:
        raise DomainError("empty group")
    for rank in group:
        topo.check_rank(rank)


def all_to_all(
    group: Sequence[int],
    sends: dict[int, Sequence],
    label: str,
    trace: CommTrace,
) -> dict[int, list]:
    """Exchange payloads between all group members.

    ``sends[rank]`` lists one payload per destination, in group order. Every
    member receives one payload per source, in group order. The trace gets
    one collective holding all |group|^2 message sizes, self included.
    """
    _check_group(group, trace.topo)
    for rank in group:
        if rank not in sends:
            raise ProtocolError(f"rank {rank} supplied no payloads for {label!r}")
        if len(sends[rank]) != len(group):
            raise ProtocolError(
                f"rank {rank} supplied {len(sends[rank])} payloads for "
                f"{label!r}, expected {len(group)}"
            )
    nbytes = np.array([[payload_nbytes(p) for p in sends[src]] for src in group])
    trace.collectives.append(Collective(
        label, ALL_TO_ALL, tuple(group), nbytes, np.ones(nbytes.shape, dtype=bool)
    ))
    # Receivers hold payloads ordered by source position.
    return {dst: [sends[src][j] for src in group] for j, dst in enumerate(group)}


def reduce_scatter(
    group: Sequence[int],
    sends: dict[int, Sequence[Optional[np.ndarray]]],
    label: str,
    trace: CommTrace,
) -> dict[int, np.ndarray]:
    """Elementwise-sum the shards addressed to each member and deliver them.

    ``sends[rank]`` lists one array (or None) per destination in group order;
    ranks absent from ``sends`` contribute nothing, and neither contribution
    is a message. Shards addressed to the same destination must share a
    shape, and every destination needs at least one contribution. Summation
    runs in group order so results are reproducible bit for bit.
    """
    _check_group(group, trace.topo)
    size = len(group)
    for rank, row in sends.items():
        if rank not in group:
            raise ProtocolError(f"sender {rank} not in group for {label!r}")
        if len(row) != size:
            raise ProtocolError(
                f"rank {rank} supplied {len(row)} shards for {label!r}, "
                f"expected {size}"
            )
    # shards[i][j]: what group[i] addressed to group[j], None if nothing.
    shards = [sends.get(src, [None] * size) for src in group]
    present = np.array([[s is not None for s in row] for row in shards])
    nbytes = np.array([[payload_nbytes(s) for s in row] for row in shards])
    out: dict[int, np.ndarray] = {}
    for j, dst in enumerate(group):
        column = [row[j] for row in shards if row[j] is not None]
        if not column:
            raise ProtocolError(f"no contribution for destination {dst} in {label!r}")
        total = np.array(column[0], dtype=np.float64, copy=True)
        for shard in column[1:]:
            if shard.shape != total.shape:
                raise ShapeError(
                    f"reduce_scatter {label!r}: shard for dst {dst} has "
                    f"shape {shard.shape}, expected {total.shape}"
                )
            total = total + shard
        out[dst] = total
    trace.collectives.append(
        Collective(label, REDUCE_SCATTER, tuple(group), nbytes, present)
    )
    return out
