import pytest

from towersim.errors import DomainError
from towersim.topology import (
    ClusterTopology,
    TowerLayout,
    class_members,
    class_order,
    link_classes,
    peer_order,
)


# With one host per tower, peer class c is every host's local rank c.


def test_class_members_forced_by_definition():
    topo = ClusterTopology(num_hosts=2, ranks_per_host=2)
    assert class_members(1, topo, TowerLayout(2)) == [1, 3]


def test_class_members_walkthrough_example():
    topo = ClusterTopology(num_hosts=2, ranks_per_host=2)
    assert class_members(0, topo, TowerLayout(2)) == [0, 2]


def test_class_members_enumeration_oracle():
    # Enumerate g in 0..8 with g % 4 == 1.
    topo = ClusterTopology(num_hosts=2, ranks_per_host=4)
    expected = [g for g in range(8) if g % 4 == 5 % 4]
    assert expected == [1, 5]
    assert class_members(1, topo, TowerLayout(2)) == expected


def test_class_members_out_of_range():
    topo = ClusterTopology(num_hosts=2, ranks_per_host=2)
    layout = TowerLayout(2)
    with pytest.raises(DomainError):
        class_members(2, topo, layout)
    with pytest.raises(DomainError):
        class_members(-1, topo, layout)


def test_class_members_partition_ranks():
    for hosts, per_host, hpt in [(1, 1, 1), (2, 2, 1), (3, 4, 1), (4, 2, 2), (8, 1, 4)]:
        topo = ClusterTopology(num_hosts=hosts, ranks_per_host=per_host)
        layout = TowerLayout(hosts // hpt, hpt)
        seen = []
        for cls in range(layout.group_width(topo)):
            members = class_members(cls, topo, layout)
            assert len(members) == layout.num_towers
            seen.extend(members)
        assert sorted(seen) == list(range(topo.world_size))


def test_peer_order_paper_example():
    topo = ClusterTopology(num_hosts=2, ranks_per_host=2)
    assert peer_order(topo, TowerLayout(2)) == (0, 2, 1, 3)


def test_peer_order_singleton():
    topo = ClusterTopology(num_hosts=1, ranks_per_host=1)
    assert peer_order(topo, TowerLayout(1)) == (0,)


def test_peer_order_key_with_tiebreak():
    # Key (g % 2, g // 4) collides within a host; ascending rank breaks ties.
    topo = ClusterTopology(num_hosts=2, ranks_per_host=4)
    assert peer_order(topo, TowerLayout(2)) == (0, 2, 4, 6, 1, 3, 5, 7)


def test_peer_order_is_bijection_and_host_stable():
    for hosts, per_host, hpt in [(2, 2, 1), (4, 4, 1), (4, 2, 2), (8, 4, 1), (16, 4, 1)]:
        topo = ClusterTopology(num_hosts=hosts, ranks_per_host=per_host)
        towers = topo.world_size // (per_host * hpt)
        order = peer_order(topo, TowerLayout(towers, hpt))
        assert sorted(order) == list(range(topo.world_size))
        for host in range(hosts):
            members = [g for g in order if g // per_host == host]
            assert members == sorted(members)


def test_class_order_groups_peer_classes():
    topo = ClusterTopology(num_hosts=2, ranks_per_host=4)
    layout = TowerLayout(2)
    order = class_order(topo, layout)
    assert order == (0, 4, 1, 5, 2, 6, 3, 7)
    # Consecutive chunks of num_towers entries are the class collectives.
    for cls in range(4):
        chunk = list(order[cls * 2:(cls + 1) * 2])
        assert chunk == class_members(cls, topo, layout)


def test_class_order_matches_peer_order_when_square():
    # num_towers == group width: both keys coincide.
    topo = ClusterTopology(num_hosts=2, ranks_per_host=2)
    layout = TowerLayout(2)
    assert class_order(topo, layout) == peer_order(topo, layout)


def test_link_class():
    topo = ClusterTopology(num_hosts=3, ranks_per_host=2)
    group = [5, 0, 1, 4, 2]  # group order need not be rank order
    links = link_classes(group, topo)
    assert links.shape == (5, 5)
    assert links[1, 2] == links[2, 1] == "intra_host"  # ranks 0 and 1
    assert links[0, 3] == "intra_host"  # ranks 5 and 4
    assert links[1, 4] == links[0, 1] == "cross_host"
    assert [links[i, i] for i in range(5)] == ["self"] * 5
    assert (links == "intra_host").sum() == 4
    with pytest.raises(DomainError):
        link_classes([0, 6], topo)


def test_layout_validation():
    topo = ClusterTopology(num_hosts=3, ranks_per_host=2)
    with pytest.raises(DomainError):
        TowerLayout(2).validate_for(topo)  # 6 % 4 != 0 via num_towers mismatch
    with pytest.raises(DomainError):
        TowerLayout(3, hosts_per_tower=2).validate_for(topo)
    TowerLayout(3).validate_for(topo)


def test_tower_rank_helpers():
    topo = ClusterTopology(num_hosts=4, ranks_per_host=2)
    layout = TowerLayout(2, hosts_per_tower=2)
    assert layout.group_width(topo) == 4
    assert layout.tower_ranks(1, topo) == [4, 5, 6, 7]
    assert layout.tower_of_rank(3, topo) == 0
