import gc
import random

import pytest

from failprop.topology import (
    CONTROLLER,
    CORE_SWITCH,
    EDGE_SWITCH,
    GeneratorParamError,
    Network,
    TopologyError,
    _resolve,
    _scan,
    barabasi_albert,
    connected_components,
    erdos_renyi,
    generate_topology,
    grid,
    load_edge_list,
    ring,
    serialize_edge_list,
    split_sections,
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


def test_er_edge_count_is_binomial():
    # seed and bound fixed before the first run: the edge count is
    # Binomial(1,999,000, 0.002), mean 3,998 and sd 63.2, checked to 5 sd
    net = erdos_renyi(2000, 0.002, seed=11)
    assert abs(net.edge_count() - 3998) <= 5 * 63.2


def test_er_each_pair_is_an_edge_with_probability_p():
    # over seeds 0..1999 each of the 10 pairs of 5 nodes is an edge
    # Binomial(2000, 0.3) times: mean 600, sd 20.5, checked to 5 sd
    hits = dict.fromkeys(((u, v) for u in range(5) for v in range(u + 1, 5)), 0)
    for seed in range(2000):
        for e in erdos_renyi(5, 0.3, seed=seed).edges:
            hits[e] += 1
    assert all(abs(k - 600) <= 5 * 20.5 for k in hits.values())


def test_er_subnormal_p_gives_no_edges():
    assert erdos_renyi(10, 5e-324).edge_count() == 0


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
    with pytest.raises(TopologyError, match=r"^node_count must be >= 1$"):
        Network(0, (), frozenset())
    with pytest.raises(TopologyError, match=r"^roles has 2 entries for 3 nodes$"):
        Network(3, ("generic",) * 2, frozenset())
    for v in (3, -1):
        with pytest.raises(TopologyError, match=rf"^unknown node id {v}$"):
            ring(3).neighbors(v)


@pytest.mark.parametrize("edges,msg", [
    ({(0, 1), (2, 1)}, r"edge \(2, 1\) out of range or not normalized"),
    ({(0, 1), (1, 1)}, "self-loop at node 1"),
    ({(0, 3)}, r"edge \(0, 3\) out of range"),
    ({(-1, 2)}, r"edge \(-1, 2\) out of range"),
])
def test_network_names_the_bad_edge(edges, msg):
    # edges are checked when the Network is made, though adj is built later
    with pytest.raises(TopologyError, match=msg):
        Network(3, ("generic",) * 3, frozenset(edges))


def test_adjacency_is_built_on_first_read_and_kept():
    net = Network.from_edges(4, [(2, 0), (1, 0), (3, 2)])
    assert "adj" not in vars(net)
    assert net.adj == ((1, 2), (0,), (0, 3), (2,))
    assert vars(net)["adj"] is net.adj
    assert net.neighbors(2) == {0, 3}
    # a Network without edges has an empty tuple per node, and equality
    # does not look at the adjacency
    assert Network(2, ("generic",) * 2, frozenset()).adj == ((), ())
    assert net == Network.from_edges(4, [(0, 1), (0, 2), (2, 3)])


@pytest.mark.parametrize("enabled", [True, False])
def test_load_edge_list_leaves_the_collector_as_it_found_it(enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert load_edge_list("0 1\n1 2\n").node_count == 3
        assert gc.isenabled() is enabled
        with pytest.raises(TopologyError, match="line 2:"):
            load_edge_list("0 1\n1 2 3\n")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_controller_pref_validation():
    roles = {0: EDGE_SWITCH, 1: CONTROLLER}
    Network.from_edges(2, [(0, 1)], roles, {0: [1]})  # fine
    with pytest.raises(TopologyError, match="not a switch"):
        Network.from_edges(2, [(0, 1)], {0: CONTROLLER, 1: CONTROLLER}, {0: [1]})
    with pytest.raises(TopologyError, match="not controller"):
        Network.from_edges(2, [(0, 1)], {0: EDGE_SWITCH, 1: EDGE_SWITCH}, {0: [1]})
    with pytest.raises(TopologyError, match="duplicate controller"):
        Network.from_edges(2, [(0, 1)], roles, {0: [1, 1]})
    with pytest.raises(TopologyError, match="unknown controller id 5$"):
        Network.from_edges(2, [(0, 1)], roles, {0: [5]})


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
    warnings = validate(barabasi_albert(20, 2, seed=1))
    assert warnings == []


def test_validate_warns_on_disconnected_dp():
    net = load_edge_list("0 1\n2 3\n")
    warnings = validate(net)
    assert any("DP disconnected" in w for w in warnings)


def test_validate_warns_on_unassigned_switch():
    text = "0 1\n0 2\n[roles]\n0=edge_switch\n1=edge_switch\n2=controller\n[controllers]\n0:2\n"
    warnings = validate(load_edge_list(text))
    assert any("unassigned switch 1" in w for w in warnings)
    assert not any("unassigned switch 0" in w for w in warnings)


def test_controllers_not_counted_in_dp_warning():
    # DP side (non-controllers) is connected even though the controller
    # hangs off one side only
    text = "0 1\n1 2\n[roles]\n2=controller\n"
    warnings = validate(load_edge_list(text))
    assert not any("DP disconnected" in w for w in warnings)


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


def test_load_edge_list_rejects_repeated_keys():
    with pytest.raises(TopologyError,
                       match=r"line 5: repeated role for node 0 \(first on line 4\)"):
        load_edge_list("0 1\n0 2\n[roles]\n0=edge_switch\n0=controller\n")
    # 00 and 0 are one node
    with pytest.raises(TopologyError, match="line 5: repeated role for node 00"):
        load_edge_list("0 1\n[roles]\n1=controller\n0=edge_switch\n00=core_switch\n")
    text = ("0 1\n0 2\n[roles]\n0=edge_switch\n1=controller\n2=controller\n"
            "[controllers]\n0:1\n0:2\n")
    with pytest.raises(TopologyError, match=r"line 9: repeated controller list for switch 0 "
                                            r"\(first on line 8\)"):
        load_edge_list(text)
    with pytest.raises(TopologyError, match="line 4: repeated count= in"):
        load_edge_list("0 1\n[nodes]\ncount=3\ncount=4\n")
    # a repeated section header alone is no repeated key
    net = load_edge_list("0 1\n[roles]\n0=edge_switch\n[roles]\n1=controller\n")
    assert net.roles == (EDGE_SWITCH, CONTROLLER)


def test_load_edge_list_aliases_follow_first_appearance():
    text = ("b c\nc a\n[roles]\nd=controller\n[controllers]\ne:d\nb:d\n"
            "[roles]\ne=edge_switch\nb=edge_switch\n")
    net = load_edge_list(text)
    assert list(net.aliases.items()) == [("b", 0), ("c", 1), ("a", 2), ("d", 3), ("e", 4)]
    assert net.controller_prefs == {4: (3,), 0: (3,)}
    # a switch first named in [controllers] comes before its controllers
    # (roles are left out: a [roles] line would name x, y and z first)
    *_, aliases = _resolve(*_scan("a b\n[controllers]\nx:y,z\n"))
    assert list(aliases) == ["a", "b", "x", "y", "z"]


def test_load_edge_list_reports_the_first_bad_line():
    with pytest.raises(TopologyError, match="line 2: expected 'u v'"):
        load_edge_list("0 1\n0 1 2\n[weights]\n")
    with pytest.raises(TopologyError, match="line 3: expected 'switch:ctrl"):
        load_edge_list("0 1\n[controllers]\n0;1\n[roles]\n0 controller\n")
    with pytest.raises(TopologyError, match="line 3: bad node count"):
        load_edge_list("0 1\n[nodes]\ncount=x\n[roles]\n0 controller\n[nodes]\nsize=3\n")


def test_load_edge_list_integer_spellings_go_through_int():
    net = load_edge_list("01 +2\n-0 2\n[nodes]\ncount=3\n")
    assert net.aliases is None
    assert net.edges == frozenset({(1, 2), (0, 2)})
    with pytest.raises(TopologyError, match="line 2: duplicate edge 2 01"):
        load_edge_list("1 2\n2 01\n")


def test_load_edge_list_half_header_is_a_malformed_line():
    with pytest.raises(TopologyError, match=r"line 2: expected 'u v', got '\[roles'"):
        load_edge_list("0 1\n[roles\n0=controller\n")
    with pytest.raises(TopologyError, match=r"line 3: expected 'id=role', got 'nodes\]'"):
        load_edge_list("0 1\n[roles]\nnodes]\n")


@pytest.mark.parametrize("header", ["[]", "[ ]"])
def test_load_edge_list_rejects_an_empty_section_header(header):
    # an empty header is named "" like the edge part, but is not its continuation
    with pytest.raises(TopologyError, match=r"line 2: unknown section \[\]"):
        load_edge_list(f"0 1\n{header}\n1 2\n")


@pytest.mark.parametrize("line", ["0:1,,", "0:1,", "0:,1", "0: 1 , ,2", "0:,"])
def test_load_edge_list_rejects_an_empty_controller_item(line):
    text = f"0 1\n[roles]\n1=controller\n[controllers]\n{line}\n[roles]\n0 edge\n"
    with pytest.raises(TopologyError, match=f"line 5: empty controller item, got '{line}'"):
        load_edge_list(text)


@pytest.mark.parametrize("text, line", [
    ("0 1\n[roles]\n=controller\n", "=controller"),
    ("0 1\n[roles]\n1=controller\n[controllers]\n:1\n", ":1"),
    # the id comes first on its line, before the empty item
    ("0 1\n[roles]\n1=controller\n[controllers]\n :1,\n", ":1,"),
])
def test_load_edge_list_rejects_an_empty_node_id(text, line):
    lineno = text.count("\n")
    with pytest.raises(TopologyError, match=f"line {lineno}: empty node id, got '{line}'"):
        load_edge_list(text)


@pytest.mark.parametrize("text", [
    "10 11\n11 12\n[roles]\n11=edge_switch\n10=controller\n12=controller\n"
    "[controllers]\n11:10,12\n10:11\n",
    # names of more than one character: CPython caches one-character strings
    "ca sw\nsw cb\n[roles]\nsw = edge_switch\nca=controller\ncb=controller\n"
    "[controllers]\nsw:ca, cb\nca : sw\n",
])
def test_scan_returns_one_string_object_per_distinct_token(text):
    # each token text occurs as an edge end, a role id, a switch and a controller
    _, ends, _, role_ids, role_names, _, switches, prefs, _ = _scan(text)
    toks = [*ends, *role_ids, *role_names, *switches, *(c for cs in prefs for c in cs)]
    assert len(set(toks)) == 5
    assert len({id(t) for t in toks}) == len(set(toks))


def test_split_sections_keeps_line_numbers_and_drops_blanks():
    parts = split_sections("0 1  # edge\n\n[ Roles ]\n# only a comment\n0=controller\n[nodes]\n")
    assert parts == [
        ("", 0, [1], ["0 1"]),
        ("roles", 3, [5], ["0=controller"]),
        ("nodes", 6, [], []),
    ]


@pytest.mark.parametrize("kind,params,msg", [
    ("moebius", [4], "unknown generator 'moebius'"),
    ("erdos_renyi", [10, 0.5], "unknown generator 'erdos_renyi'"),
    ("barabasi_albert", [10, 2], "unknown generator 'barabasi_albert'"),
    ("ring", [], "ring takes 1 parameter"),
    ("ring", [1], "ring needs n >= 2"),
    ("grid", [1, 1], "grid needs rows, cols >= 1"),
    ("er", [10, 1.5], "erdos_renyi needs 0 <= p <= 1"),
    ("ba", [5, 9], "barabasi_albert needs 1 <= m < n"),
    ("ba", [10, 2.5], "parameter m must be an integer"),
    ("er", [1, 0.5], "erdos_renyi needs n >= 2"),
    ("ba", [1, 1], "barabasi_albert needs n >= 2"),
])
def test_every_bad_generator_argument_is_a_generator_param_error(kind, params, msg):
    with pytest.raises(GeneratorParamError, match=msg):
        generate_topology(kind, params)
