import numpy as np
import pytest

from towersim.embedding import Bags
from towersim.errors import DomainError, ProtocolError, ShapeError
from towersim.simnet import (
    CommTrace,
    Tagged,
    all_to_all,
    payload_nbytes,
    reduce_scatter,
)
from towersim.topology import ClusterTopology


def two_host_topo(per_host=2):
    return ClusterTopology(num_hosts=2, ranks_per_host=per_host)


def test_payload_sizes():
    assert payload_nbytes(np.zeros((3, 2))) == 24
    assert payload_nbytes(Bags.from_lists([[0, 1], [2]])) == 12
    assert payload_nbytes(Tagged("meta", np.zeros(2))) == 8
    assert payload_nbytes(None) == 0
    assert payload_nbytes([]) == 0
    with pytest.raises(ProtocolError):
        payload_nbytes("not a payload")


def test_all_to_all_two_ranks():
    trace = CommTrace(two_host_topo(1))
    # x_ij denotes the payload rank i addresses to rank j.
    sends = {
        0: [np.array([0.0, 0.0]), np.array([0.0, 1.0])],
        1: [np.array([1.0, 0.0]), np.array([1.0, 1.0])],
    }
    out = all_to_all([0, 1], sends, "x", trace)
    assert np.array_equal(out[0][0], sends[0][0])
    assert np.array_equal(out[0][1], sends[1][0])
    assert np.array_equal(out[1][0], sends[0][1])
    assert np.array_equal(out[1][1], sends[1][1])


def test_all_to_all_identity_world():
    topo = ClusterTopology(num_hosts=1, ranks_per_host=1)
    trace = CommTrace(topo)
    out = all_to_all([0], {0: [np.arange(3.0)]}, "x", trace)
    assert np.array_equal(out[0][0], np.arange(3.0))
    assert trace.byte_totals() == (0, 0)  # self only
    assert len(trace.entries) == 1


def test_all_to_all_wire_bytes_enumeration():
    # 4 ranks on 2 hosts, 8-byte payloads everywhere: 4*3*8 = 96 on wire,
    # per rank 1 intra pair and 2 cross pairs -> intra 32, cross 64.
    topo = two_host_topo()
    trace = CommTrace(topo)
    group = [0, 1, 2, 3]
    payload = np.zeros(2)
    all_to_all(group, {r: [payload] * 4 for r in group}, "x", trace)
    intra, cross = trace.byte_totals()
    assert (intra, cross) == (32, 64)
    assert intra + cross == 96
    assert len(trace.entries) == 16
    # One record per collective, in the order they ran.
    all_to_all([2, 3], {r: [payload] * 2 for r in (2, 3)}, "x", trace)
    all_to_all(group, {r: [payload] * 4 for r in group}, "x", trace)
    assert [c.group for c in trace.collectives] == [(0, 1, 2, 3), (2, 3), (0, 1, 2, 3)]


def test_all_to_all_errors():
    trace = CommTrace(two_host_topo())
    with pytest.raises(ProtocolError):
        all_to_all([0, 1], {0: [None, None]}, "x", trace)
    with pytest.raises(ProtocolError):
        all_to_all([0, 1], {0: [None], 1: [None, None]}, "x", trace)
    with pytest.raises(DomainError):
        all_to_all([0, 0], {0: [None, None]}, "x", trace)
    assert trace.collectives == []  # a rejected collective records nothing


def test_byte_totals_empty_and_self_only():
    topo = two_host_topo()
    trace = CommTrace(topo)
    assert trace.byte_totals() == (0, 0)
    all_to_all([1], {1: [np.zeros(16)]}, "x", trace)
    assert trace.byte_totals() == (0, 0)


def test_byte_totals_label_filter():
    topo = two_host_topo()
    trace = CommTrace(topo)
    all_to_all([0, 1], {0: [None, np.zeros(2)], 1: [None, None]}, "a", trace)
    all_to_all([0, 2], {0: [None, np.zeros(2)], 2: [None, None]}, "b", trace)
    assert trace.byte_totals("a") == (8, 0)
    assert trace.byte_totals("b") == (0, 8)
    assert trace.byte_totals() == (8, 8)


def test_reduce_scatter_two_term_sum():
    trace = CommTrace(two_host_topo(1))
    sends = {
        0: [np.array([1.0, 2.0]), np.array([9.0, 9.0])],
        1: [np.array([3.0, 4.0]), np.array([9.0, 9.0])],
    }
    out = reduce_scatter([0, 1], sends, "d", trace)
    assert np.array_equal(out[0], [4.0, 6.0])
    assert np.array_equal(out[1], [18.0, 18.0])
    [record] = trace.collectives
    assert (record.label, record.group) == ("d", (0, 1))
    assert record.nbytes.tolist() == [[8, 8], [8, 8]]


def test_reduce_scatter_trace_lines_destination_outer(tmp_path):
    # Lines run destinations outer, sources inner, both in group order; a
    # rank missing from ``sends`` and a None shard log no line.
    topo = two_host_topo()
    sends = {
        3: [np.zeros(1), np.zeros(2), np.zeros(3)],
        1: [np.zeros(1), None, np.zeros(3)],
    }
    trace = CommTrace(topo)
    reduce_scatter([3, 0, 1], sends, "d", trace)
    trace.save(tmp_path / "trace.log")
    assert (tmp_path / "trace.log").read_text() == (
        "d\t3\t3\t4\tself\n"
        "d\t1\t3\t4\tcross_host\n"
        "d\t3\t0\t8\tcross_host\n"
        "d\t3\t1\t12\tcross_host\n"
        "d\t1\t1\t12\tself\n"
    )


def test_reduce_scatter_single_rank_identity():
    topo = ClusterTopology(num_hosts=1, ranks_per_host=1)
    out = reduce_scatter([0], {0: [np.array([5.0])]}, "d", CommTrace(topo))
    assert np.array_equal(out[0], [5.0])


def test_reduce_scatter_three_equal_shards():
    # Brute-force oracle: all shards addressed to rank 1 equal [1, 1].
    topo = ClusterTopology(num_hosts=3, ranks_per_host=1)
    ones = np.ones(2)
    sends = {r: [ones, ones, ones] for r in range(3)}
    out = reduce_scatter([0, 1, 2], sends, "d", CommTrace(topo))
    assert np.array_equal(out[1], [3.0, 3.0])


def test_reduce_scatter_matches_gather_sum_oracle(rng):
    for _ in range(20):
        size = int(rng.integers(1, 9))
        topo = ClusterTopology(num_hosts=size, ranks_per_host=1)
        group = list(range(size))
        sends = {
            r: [rng.normal(size=(2, 3)) for _ in group]
            for r in group
            if rng.random() < 0.8 or r == 0
        }
        got = reduce_scatter(group, sends, "d", CommTrace(topo))
        for j, dst in enumerate(group):
            expected = np.zeros((2, 3))
            for src in group:  # gather then sum, in the same group order
                if src in sends:
                    expected = expected + sends[src][j]
            assert np.allclose(got[dst], expected, rtol=0, atol=0)


def test_reduce_scatter_shape_mismatch():
    topo = two_host_topo(1)
    sends = {0: [np.zeros(2), np.zeros(2)], 1: [np.zeros(3), np.zeros(2)]}
    trace = CommTrace(topo)
    with pytest.raises(ShapeError):
        reduce_scatter([0, 1], sends, "d", trace)
    assert trace.collectives == []


def test_reduce_scatter_missing_destination():
    topo = two_host_topo(1)
    with pytest.raises(ProtocolError):
        reduce_scatter([0, 1], {0: [np.zeros(2), None]}, "d", CommTrace(topo))


def test_all_to_all_is_pure_permutation(rng):
    # Every payload arrives exactly where it was addressed, by identity.
    topo = ClusterTopology(num_hosts=2, ranks_per_host=3)
    group = [5, 0, 3, 2]  # group order need not be rank order
    payloads = {src: [rng.normal(size=(2, 2)) for _ in group] for src in group}
    out = all_to_all(group, payloads, "x", CommTrace(topo))
    for i, src in enumerate(group):
        for j, dst in enumerate(group):
            assert out[dst][i] is payloads[src][j]


def test_determinism():
    def run():
        topo = two_host_topo()
        trace = CommTrace(topo)
        group = [0, 1, 2, 3]
        sends = {r: [np.full((2, 2), r * 4 + j) for j in range(4)] for r in group}
        out = all_to_all(group, sends, "x", trace)
        return out, trace.entries

    out1, entries1 = run()
    out2, entries2 = run()
    assert entries1 == entries2
    for rank in out1:
        for a, b in zip(out1[rank], out2[rank]):
            assert np.array_equal(a, b)

