import random

import pytest

from failprop.topology import (
    CONTROLLER,
    CORE_SWITCH,
    EDGE_SWITCH,
    Network,
    TopologyError,
    barabasi_albert,
    connected_components,
    erdos_renyi,
    generate_topology,
    grid,
    load_edge_list,
    ring,
    serialize_edge_list,
    validate,
)


def test_ring_structure():
    net = ring(6)
    assert net.node_count == 6
    assert net.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)})
    assert net.neighbors(0) == {1, 5}


def test_ring_two_nodes_is_single_edge():
    assert ring(2).edges == frozenset({(0, 1)})


def test_grid_structure():
    net = grid(2, 3)
    # 0 1 2
    # 3 4 5
    assert net.node_count == 6
    assert net.edge_count() == 7
    assert net.neighbors(4) == {1, 3, 5}


def test_er_extremes():
    assert erdos_renyi(10, 0.0).edge_count() == 0
    assert erdos_renyi(10, 1.0).edge_count() == 45


def test_er_deterministic_per_seed():
    a = erdos_renyi(20, 0.3, seed=5)
    b = erdos_renyi(20, 0.3, seed=5)
    c = erdos_renyi(20, 0.3, seed=6)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_ba_degree_floor_and_edge_count():
    net = barabasi_albert(30, 2, seed=9)
    assert net.node_count == 30
    # complete core on m+1 nodes, then m edges per newcomer
    assert net.edge_count() == 3 + 27 * 2
    assert min(len(net.adj[v]) for v in range(30)) >= 2


def test_generate_topology_dispatch_and_errors():
    assert generate_topology("ring", [8]).node_count == 8
    assert generate_topology("er", [10, 0.5], seed=3).node_count == 10
    with pytest.raises(TopologyError, match="unknown generator"):
        generate_topology("torus", [3, 3])
    with pytest.raises(TopologyError, match="parameter"):
        generate_topology("ring", [3, 3])
    with pytest.raises(TopologyError):
        generate_topology("ba", [5, 9])


def test_network_rejects_bad_construction():
    with pytest.raises(TopologyError, match="self-loop"):
        Network.from_edges(3, [(1, 1)])
    with pytest.raises(TopologyError, match="duplicate"):
        Network.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(TopologyError):
        Network.from_edges(3, [(0, 5)])
    with pytest.raises(TopologyError, match="role"):
        Network.from_edges(2, [(0, 1)], roles={0: "router"})


def test_controller_pref_validation():
    roles = {0: EDGE_SWITCH, 1: CONTROLLER}
    Network.from_edges(2, [(0, 1)], roles, {0: [1]})  # fine
    with pytest.raises(TopologyError, match="not a switch"):
        Network.from_edges(2, [(0, 1)], {0: CONTROLLER, 1: CONTROLLER}, {0: [1]})
    with pytest.raises(TopologyError, match="not controller"):
        Network.from_edges(2, [(0, 1)], {0: EDGE_SWITCH, 1: EDGE_SWITCH}, {0: [1]})
    with pytest.raises(TopologyError, match="duplicate controller"):
        Network.from_edges(2, [(0, 1)], roles, {0: [1, 1]})


def test_load_edge_list_basic():
    net = load_edge_list("0 1\n1 2   # comment\n\n# full comment line\n2 3\n")
    assert net.node_count == 4
    assert net.edges == frozenset({(0, 1), (1, 2), (2, 3)})
    assert net.aliases is None


def test_load_edge_list_sections():
    text = """
0 1
1 2
0 3
[nodes]
count=5
[roles]
0=edge_switch
1=core_switch
3=controller
[controllers]
0:3
1:3
"""
    net = load_edge_list(text)
    assert net.node_count == 5  # node 4 isolated, declared via count
    assert net.roles[0] == EDGE_SWITCH
    assert net.roles[1] == CORE_SWITCH
    assert net.roles[3] == CONTROLLER
    assert net.roles[4] == "generic"
    assert net.controller_prefs == {0: (3,), 1: (3,)}


def test_load_edge_list_name_aliases():
    net = load_edge_list("zrh par\npar lon\n[roles]\nzrh=edge_switch\n")
    assert net.node_count == 3
    assert net.aliases == {"zrh": 0, "par": 1, "lon": 2}
    assert net.edges == frozenset({(0, 1), (1, 2)})
    assert net.roles[0] == EDGE_SWITCH


def test_load_edge_list_errors():
    with pytest.raises(TopologyError, match="line 1"):
        load_edge_list("0 1 2\n")
    with pytest.raises(TopologyError, match="self-loop"):
        load_edge_list("3 3\n")
    with pytest.raises(TopologyError, match="duplicate edge"):
        load_edge_list("0 1\n1 0\n")
    with pytest.raises(TopologyError, match="not contiguous"):
        load_edge_list("0 2\n")
    with pytest.raises(TopologyError, match="exceeds declared count"):
        load_edge_list("0 5\n[nodes]\ncount=3\n")
    with pytest.raises(TopologyError, match="unknown section"):
        load_edge_list("0 1\n[weights]\n")
    with pytest.raises(TopologyError, match="unknown role"):
        load_edge_list("0 1\n[roles]\n0=hub\n")
    with pytest.raises(TopologyError, match="empty edge list"):
        load_edge_list("# nothing here\n")


def test_load_edge_list_roles_override():
    net = load_edge_list("0 1\n", roles={1: CONTROLLER})
    assert net.roles[1] == CONTROLLER
    net = load_edge_list("a b\n", roles={"b": CONTROLLER})
    assert net.roles[1] == CONTROLLER
    with pytest.raises(TopologyError, match="unknown node"):
        load_edge_list("a b\n", roles={"c": CONTROLLER})


def test_isolated_node_round_trip():
    # er(10, 0) has no edges at all; count must survive serialization
    net = erdos_renyi(10, 0.0)
    again = load_edge_list(serialize_edge_list(net))
    assert again.node_count == 10
    assert again.edge_count() == 0


def test_serialize_round_trip_preserves_everything():
    text = """
0 1
1 2
0 3
[roles]
0=edge_switch
1=core_switch
3=controller
[controllers]
0:3
1:3
"""
    net = load_edge_list(text)
    again = load_edge_list(serialize_edge_list(net))
    assert again.node_count == net.node_count
    assert again.edges == net.edges
    assert again.roles == net.roles
    assert again.controller_prefs == net.controller_prefs


def test_serialize_round_trip_generated():
    for seed in range(5):
        net = barabasi_albert(25, 2, seed=seed)
        again = load_edge_list(serialize_edge_list(net))
        assert again.edges == net.edges
        assert again.node_count == net.node_count


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def test_connected_components_against_union_find():
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randrange(2, 40)
        p = rng.random() * 0.2
        net = erdos_renyi(n, p, seed=trial)
        uf = _UnionFind(n)
        for u, v in net.edges:
            uf.union(u, v)
        expected = {}
        for v in range(n):
            expected.setdefault(uf.find(v), set()).add(v)
        got = connected_components(net)
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected.values()))


def test_connected_components_induced_subset():
    net = ring(6)
    comps = connected_components(net, nodes={0, 1, 3, 4})
    assert sorted(map(sorted, comps)) == [[0, 1], [3, 4]]


def test_validate_clean_graph():
    report = validate(barabasi_albert(20, 2, seed=1))
    assert report.ok
    assert report.warnings == []


def test_validate_warns_on_disconnected_dp():
    net = load_edge_list("0 1\n2 3\n")
    report = validate(net)
    assert report.ok
    assert any("DP disconnected" in w for w in report.warnings)


def test_validate_warns_on_unassigned_switch():
    text = "0 1\n0 2\n[roles]\n0=edge_switch\n1=edge_switch\n2=controller\n[controllers]\n0:2\n"
    report = validate(load_edge_list(text))
    assert report.ok
    assert any("unassigned switch 1" in w for w in report.warnings)
    assert not any("unassigned switch 0" in w for w in report.warnings)


def test_controllers_not_counted_in_dp_warning():
    # DP side (non-controllers) is connected even though the controller
    # hangs off one side only
    text = "0 1\n1 2\n[roles]\n2=controller\n"
    report = validate(load_edge_list(text))
    assert not any("DP disconnected" in w for w in report.warnings)


def test_generate_topology_rejects_non_integer_sizes():
    with pytest.raises(TopologyError, match="ring parameter n must be an integer, got 10.7"):
        generate_topology("ring", [10.7])
    with pytest.raises(TopologyError, match="parameter m must be an integer"):
        generate_topology("ba", [10, 2.9])
    with pytest.raises(TopologyError, match="parameter cols must be an integer"):
        generate_topology("grid", [3, 2.5])
    with pytest.raises(TopologyError, match="parameter n must be an integer"):
        generate_topology("er", [12.5, 0.5])
    # integral floats are sizes, er's p stays a probability
    assert generate_topology("ring", [10.0]).node_count == 10
    assert generate_topology("er", [10.0, 0.5], 3) == generate_topology("er", [10, 0.5], 3)


def test_load_edge_list_reports_negative_id():
    with pytest.raises(TopologyError, match="negative node id -1"):
        load_edge_list("-1 0\n")
    with pytest.raises(TopologyError, match="negative node id -2"):
        load_edge_list("0 1\n1 -2\n[nodes]\ncount=3\n")
