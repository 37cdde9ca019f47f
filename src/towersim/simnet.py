"""Deterministic in-memory message passing over ranks with byte accounting.

Collectives here are functional: they move payloads and log traffic, they do
not model time. Each sender gives a collective a {destination: payload}
dict and each receiver gets {source: payload}, so a pair with nothing to
send is never built. Each collective appends one record to its trace, the
bytes each group member sent each other member; everything else about the
traffic is derived from those records. Byte accounting uses a fixed
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

    ``nbytes[i, j]`` is what ``group[i]`` sent ``group[j]``. Every pair of
    an all-to-all is a message, one its sender left out being 0 bytes; a
    reduce-scatter's messages are its nonzero entries, since it takes no
    empty contribution. ``kind`` fixes the message order: sources outer for
    an all-to-all, destinations outer for a reduce-scatter.
    """

    label: str
    kind: str
    group: tuple[int, ...]
    nbytes: np.ndarray

    def columns(self, topo: ClusterTopology) -> tuple[list, list, list, list]:
        """Source, destination, bytes and link of each message, in order."""
        if self.kind == REDUCE_SCATTER:
            dst, src = np.nonzero(self.nbytes.T)
        else:
            src, dst = np.indices(self.nbytes.shape).reshape(2, -1)
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


def _byte_matrix(group: Sequence[int], sends: dict[int, dict], label: str,
                 topo: ClusterTopology) -> np.ndarray:
    """``nbytes[i, j]``: the size of what ``group[i]`` sends ``group[j]``, 0
    for a pair left out, once the group and every sender and destination in
    ``sends`` are checked."""
    if len(set(group)) != len(group):
        raise DomainError(f"duplicate rank in group {list(group)}")
    if not group:
        raise DomainError("empty group")
    for rank in group:
        topo.check_rank(rank)
    position = {rank: i for i, rank in enumerate(group)}
    nbytes = np.zeros((len(group), len(group)), dtype=np.int64)
    for src, row in sends.items():
        if src not in position or not position.keys() >= row.keys():
            raise ProtocolError(f"rank {src} sends {label!r} outside its group")
        for dst, payload in row.items():
            nbytes[position[src], position[dst]] = payload_nbytes(payload)
    return nbytes


def all_to_all(
    group: Sequence[int],
    sends: dict[int, dict[int, object]],
    label: str,
    trace: CommTrace,
) -> dict[int, dict[int, object]]:
    """Exchange payloads between all group members.

    ``sends[src]`` is ``{destination: payload}``; every member supplies one,
    leaving out what it has nothing for. Each member receives ``{source:
    payload}``, sources in group order. The trace gets one collective of all
    |group|^2 message sizes, self included, a pair left out being 0 bytes.
    """
    nbytes = _byte_matrix(group, sends, label, trace.topo)
    for rank in group:
        if rank not in sends:
            raise ProtocolError(f"rank {rank} supplied no payloads for {label!r}")
    trace.collectives.append(Collective(label, ALL_TO_ALL, tuple(group), nbytes))
    received: dict[int, dict] = {dst: {} for dst in group}
    for src in group:
        for dst, payload in sends[src].items():
            received[dst][src] = payload
    return received


def reduce_scatter(
    group: Sequence[int],
    sends: dict[int, dict[int, np.ndarray]],
    label: str,
    trace: CommTrace,
) -> dict[int, np.ndarray]:
    """Elementwise-sum the shards addressed to each member and deliver them.

    ``sends[src]`` is ``{destination: shard}``; a pair left out, like a rank
    absent from ``sends``, contributes nothing and is no message. Shards
    addressed to the same destination must share a shape and hold at least
    one element, and every destination needs at least one. Summation runs
    in group order so results are reproducible bit for bit.
    """
    nbytes = _byte_matrix(group, sends, label, trace.topo)
    out: dict[int, np.ndarray] = {}
    for dst in group:
        column = [sends[src][dst] for src in group if dst in sends.get(src, ())]
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
        if not total.size:
            raise ShapeError(f"reduce_scatter {label!r}: empty shard for dst {dst}")
        out[dst] = total
    trace.collectives.append(Collective(label, REDUCE_SCATTER, tuple(group), nbytes))
    return out
