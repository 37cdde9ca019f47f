import numpy as np
import pytest

from towersim.embedding import Bags
from towersim.errors import DomainError, ProtocolError, ShapeError
from towersim.simnet import (
    CommTrace,
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
    assert payload_nbytes({"meta": np.zeros(2)}) == 8
    assert payload_nbytes(None) == 0
    assert payload_nbytes([]) == 0
    with pytest.raises(ProtocolError):
        payload_nbytes("not a payload")


def test_all_to_all_two_ranks():
    trace = CommTrace(two_host_topo(1))
    # x_ij denotes the payload rank i addresses to rank j.
    sends = {
        0: {0: np.array([0.0, 0.0]), 1: np.array([0.0, 1.0])},
        1: {0: np.array([1.0, 0.0]), 1: np.array([1.0, 1.0])},
    }
    out = all_to_all([0, 1], sends, "x", trace)
    assert np.array_equal(out[0][0], sends[0][0])
    assert np.array_equal(out[0][1], sends[1][0])
    assert np.array_equal(out[1][0], sends[0][1])
    assert np.array_equal(out[1][1], sends[1][1])


def test_all_to_all_identity_world():
    topo = ClusterTopology(num_hosts=1, ranks_per_host=1)
    trace = CommTrace(topo)
    out = all_to_all([0], {0: {0: np.arange(3.0)}}, "x", trace)
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
    all_to_all(group, {r: dict.fromkeys(group, payload) for r in group}, "x", trace)
    intra, cross = trace.byte_totals()
    assert (intra, cross) == (32, 64)
    assert intra + cross == 96
    assert len(trace.entries) == 16
    # One record per collective, in the order they ran.
    all_to_all([2, 3], {r: dict.fromkeys((2, 3), payload) for r in (2, 3)}, "x", trace)
    all_to_all(group, {r: dict.fromkeys(group, payload) for r in group}, "x", trace)
    assert [c.group for c in trace.collectives] == [(0, 1, 2, 3), (2, 3), (0, 1, 2, 3)]


def test_all_to_all_errors():
    trace = CommTrace(two_host_topo())
    with pytest.raises(ProtocolError):
        all_to_all([0, 1], {0: {0: None, 1: None}}, "x", trace)
    with pytest.raises(ProtocolError, match="rank 1 sends 'x' outside its group"):
        all_to_all([0, 1], {0: {0: None}, 1: {0: None, 2: None}}, "x", trace)
    with pytest.raises(DomainError):
        all_to_all([0, 0], {0: {0: None, 1: None}}, "x", trace)
    assert trace.collectives == []  # a rejected collective records nothing


def test_byte_totals_empty_and_self_only():
    topo = two_host_topo()
    trace = CommTrace(topo)
    assert trace.byte_totals() == (0, 0)
    all_to_all([1], {1: {1: np.zeros(16)}}, "x", trace)
    assert trace.byte_totals() == (0, 0)


def test_byte_totals_label_filter():
    topo = two_host_topo()
    trace = CommTrace(topo)
    all_to_all([0, 1], {0: {0: None, 1: np.zeros(2)}, 1: {0: None, 1: None}}, "a", trace)
    all_to_all([0, 2], {0: {0: None, 2: np.zeros(2)}, 2: {0: None, 2: None}}, "b", trace)
    assert trace.byte_totals("a") == (8, 0)
    assert trace.byte_totals("b") == (0, 8)
    assert trace.byte_totals() == (8, 8)


def test_reduce_scatter_two_term_sum():
    trace = CommTrace(two_host_topo(1))
    sends = {
        0: {0: np.array([1.0, 2.0]), 1: np.array([9.0, 9.0])},
        1: {0: np.array([3.0, 4.0]), 1: np.array([9.0, 9.0])},
    }
    out = reduce_scatter([0, 1], sends, "d", trace)
    assert np.array_equal(out[0], [4.0, 6.0])
    assert np.array_equal(out[1], [18.0, 18.0])
    [record] = trace.collectives
    assert (record.label, record.group) == ("d", (0, 1))
    assert record.nbytes.tolist() == [[8, 8], [8, 8]]


def test_reduce_scatter_trace_lines_destination_outer(tmp_path):
    # Lines run destinations outer, sources inner, both in group order; a
    # rank missing from ``sends`` and a pair left out log no line.
    topo = two_host_topo()
    sends = {
        3: {3: np.zeros(1), 0: np.zeros(2), 1: np.zeros(3)},
        1: {1: np.zeros(3), 3: np.zeros(1)},
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


def test_all_to_all_pair_left_out_is_a_zero_byte_line(tmp_path):
    # Rank 1 sends nothing and rank 0 only to rank 1: each pair left out is
    # received as nothing and logged as a 0-byte message.
    trace = CommTrace(two_host_topo(1))
    payload = np.zeros(2)
    out = all_to_all([0, 1], {0: {1: payload}, 1: {}}, "x", trace)
    assert out == {0: {}, 1: {0: payload}}
    trace.save(tmp_path / "trace.log")
    assert (tmp_path / "trace.log").read_text() == (
        "x\t0\t0\t0\tself\n"
        "x\t0\t1\t8\tcross_host\n"
        "x\t1\t0\t0\tcross_host\n"
        "x\t1\t1\t0\tself\n"
    )


def test_reduce_scatter_pair_left_out_is_no_line(tmp_path):
    trace = CommTrace(two_host_topo(1))
    sends = {0: {0: np.array([1.0]), 1: np.array([2.0])}, 1: {1: np.array([3.0])}}
    out = reduce_scatter([0, 1], sends, "d", trace)
    assert out[0].tolist() == [1.0] and out[1].tolist() == [5.0]
    trace.save(tmp_path / "trace.log")
    assert (tmp_path / "trace.log").read_text() == (
        "d\t0\t0\t4\tself\n"
        "d\t0\t1\t4\tcross_host\n"
        "d\t1\t1\t4\tself\n"
    )


def test_reduce_scatter_rejects_an_empty_contribution():
    # Its record could not show it: a reduce-scatter's messages are its
    # nonzero byte counts.
    trace = CommTrace(two_host_topo(1))
    sends = {r: {0: np.zeros((2, 0)), 1: np.zeros((2, 0))} for r in (0, 1)}
    with pytest.raises(ShapeError, match="reduce_scatter 'd': empty shard for dst 0"):
        reduce_scatter([0, 1], sends, "d", trace)
    assert trace.collectives == []


def test_reduce_scatter_single_rank_identity():
    topo = ClusterTopology(num_hosts=1, ranks_per_host=1)
    out = reduce_scatter([0], {0: {0: np.array([5.0])}}, "d", CommTrace(topo))
    assert np.array_equal(out[0], [5.0])


def test_reduce_scatter_three_equal_shards():
    # Brute-force oracle: all shards addressed to rank 1 equal [1, 1].
    topo = ClusterTopology(num_hosts=3, ranks_per_host=1)
    ones = np.ones(2)
    sends = {r: dict.fromkeys(range(3), ones) for r in range(3)}
    out = reduce_scatter([0, 1, 2], sends, "d", CommTrace(topo))
    assert np.array_equal(out[1], [3.0, 3.0])


def test_reduce_scatter_matches_gather_sum_oracle(rng):
    for _ in range(20):
        size = int(rng.integers(1, 9))
        topo = ClusterTopology(num_hosts=size, ranks_per_host=1)
        group = list(range(size))
        sends = {
            r: {dst: rng.normal(size=(2, 3)) for dst in group}
            for r in group
            if rng.random() < 0.8 or r == 0
        }
        got = reduce_scatter(group, sends, "d", CommTrace(topo))
        for j, dst in enumerate(group):
            expected = np.zeros((2, 3))
            for src in group:  # gather then sum, in the same group order
                if src in sends:
                    expected = expected + sends[src][dst]
            assert np.allclose(got[dst], expected, rtol=0, atol=0)


def test_reduce_scatter_shape_mismatch():
    topo = two_host_topo(1)
    sends = {0: {0: np.zeros(2), 1: np.zeros(2)}, 1: {0: np.zeros(3), 1: np.zeros(2)}}
    trace = CommTrace(topo)
    with pytest.raises(ShapeError):
        reduce_scatter([0, 1], sends, "d", trace)
    assert trace.collectives == []


def test_reduce_scatter_missing_destination():
    topo = two_host_topo(1)
    with pytest.raises(ProtocolError):
        reduce_scatter([0, 1], {0: {0: np.zeros(2)}}, "d", CommTrace(topo))


def test_all_to_all_is_pure_permutation(rng):
    # Every payload arrives exactly where it was addressed, by identity.
    topo = ClusterTopology(num_hosts=2, ranks_per_host=3)
    group = [5, 0, 3, 2]  # group order need not be rank order
    payloads = {src: {dst: rng.normal(size=(2, 2)) for dst in group} for src in group}
    out = all_to_all(group, payloads, "x", CommTrace(topo))
    for src in group:
        for dst in group:
            assert out[dst][src] is payloads[src][dst]
    assert all(list(received) == group for received in out.values())  # group order


def test_determinism():
    def run():
        topo = two_host_topo()
        trace = CommTrace(topo)
        group = [0, 1, 2, 3]
        sends = {r: {j: np.full((2, 2), r * 4 + j) for j in group} for r in group}
        out = all_to_all(group, sends, "x", trace)
        return out, trace.entries

    out1, entries1 = run()
    out2, entries2 = run()
    assert entries1 == entries2
    for rank in out1:
        for a, b in zip(out1[rank].values(), out2[rank].values()):
            assert np.array_equal(a, b)

