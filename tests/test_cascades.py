import re

import pytest

from failprop.cascades import (
    Demand,
    HorizontalScenario,
    Injection,
    ScenarioError,
    VerticalScenario,
    assign_switches,
    compute_loads,
    route_demand,
    run_horizontal,
    run_vertical,
    validate_horizontal,
    validate_vertical,
)
from failprop.topology import Network, load_edge_list, ring

INF = float("inf")


def star_net(n_switches, prefs):
    """n_switches switches, controllers appended after them, star CP wiring."""
    n_ctrl = max(len(p) for p in prefs.values())
    ctrl_ids = list(range(n_switches, n_switches + n_ctrl))
    pairs = [(sw, c) for sw in range(n_switches) for c in ctrl_ids]
    roles = {sw: "edge_switch" for sw in range(n_switches)}
    roles.update({c: "controller" for c in ctrl_ids})
    resolved = {sw: [ctrl_ids[i] for i in p] for sw, p in prefs.items()}
    return Network.from_edges(n_switches + n_ctrl, pairs, roles, resolved)


def line_dp_net():
    text = """
0 1
1 2
2 3
3 4
[roles]
0=edge_switch
1=core_switch
2=core_switch
3=core_switch
4=edge_switch
"""
    return load_edge_list(text)


def parallel_paths_net():
    text = """
0 1
1 2
2 5
0 3
3 4
4 5
[roles]
0=edge_switch
5=edge_switch
1=core_switch
2=core_switch
3=core_switch
4=core_switch
"""
    return load_edge_list(text)


# --- scenario validation -----------------------------------------------------

def test_scenario_rejects_bad_numbers():
    with pytest.raises(ScenarioError, match="finite"):
        VerticalScenario({0: -1.0}, {})
    with pytest.raises(ScenarioError, match="finite"):
        VerticalScenario({}, {0: INF})
    with pytest.raises(ScenarioError, match="attack rate"):
        VerticalScenario({}, {}, attack=(0, -5.0))
    with pytest.raises(ScenarioError, match="volume"):
        HorizontalScenario({}, demands=[(0, 1, -2.0)])
    with pytest.raises(ScenarioError, match="injection volume"):
        HorizontalScenario({}, injection=(0, 1, INF))


@pytest.mark.parametrize("make,msg", [
    (lambda: VerticalScenario({"7": 1.0}, {}), "controller_capacity key '7' is not a node id"),
    (lambda: HorizontalScenario({1.0: 5.0}), "node_capacity key 1.0 is not a node id"),
    (lambda: VerticalScenario({}, {}, attack=("0", 5.0)), "attack target '0' is not a node id"),
    (lambda: VerticalScenario({}, {None: 1.0}), "base_rate key None is not a node id"),
], ids=["map-key", "float-key", "attack-target", "rate-key"])
def test_scenario_rejects_an_id_that_is_not_an_int(make, msg):
    with pytest.raises(ScenarioError, match=f"^{re.escape(msg)}$"):
        make()


# switches 0 and 1, controller 2
STAR = star_net(2, {0: [0], 1: [0]})
# the data-plane line 0-1-2-3 with controller 4 beside node 1
CTRL_LINE = load_edge_list("0 1\n1 2\n2 3\n1 4\n[roles]\n0=edge_switch\n1=core_switch\n"
                           "2=core_switch\n3=edge_switch\n4=controller\n")


def _horizontal(capacity=None, demands=(), injection=None):
    return validate_horizontal(CTRL_LINE, HorizontalScenario(capacity or {}, demands, injection))


@pytest.mark.parametrize("make,msg", [
    # every amount: finite and >= 0
    (lambda: VerticalScenario({2: -1.0}, {}),
     "controller_capacity[2] must be finite and >= 0, got -1.0"),
    (lambda: VerticalScenario({}, {0: INF}), "base_rate[0] must be finite and >= 0, got inf"),
    (lambda: HorizontalScenario({3: float("nan")}),
     "node_capacity[3] must be finite and >= 0, got nan"),
    (lambda: VerticalScenario({}, {}, attack=(0, -5.0)),
     "attack rate must be finite and >= 0, got -5.0"),
    (lambda: HorizontalScenario({}, demands=[(0, 1, -1.0)]),
     "demand 0->1 volume must be finite and >= 0, got -1.0"),
    (lambda: HorizontalScenario({}, injection=(0, 1, -1.0)),
     "injection volume must be finite and >= 0, got -1.0"),
    # a switch is a node with a switch role
    (lambda: validate_vertical(STAR, VerticalScenario({}, {5: 1.0})), "rate key 5 is not a switch"),
    (lambda: validate_vertical(STAR, VerticalScenario({}, {2: 1.0})), "rate key 2 is not a switch"),
    (lambda: validate_vertical(STAR, VerticalScenario({}, {}, attack=(5, 1.0))),
     "attack target 5 is not a switch"),
    (lambda: validate_vertical(STAR, VerticalScenario({}, {}, attack=(2, 1.0))),
     "attack target 2 is not a switch"),
    # capacity keys and flow ends are node ids; flow ends are data-plane nodes
    (lambda: _horizontal({5: 1.0}), "capacity key 5 is not a node id"),
    (lambda: _horizontal({-1: 1.0}), "capacity key -1 is not a node id"),
    (lambda: _horizontal(demands=[(9, 0, 1.0)]), "demand src 9 is not a node id"),
    (lambda: _horizontal(demands=[(0, -1, 1.0)]), "demand dst -1 is not a node id"),
    (lambda: _horizontal(demands=[(4, 0, 1.0)]),
     "demand src 4 is a controller, not a data-plane node"),
    (lambda: _horizontal(demands=[(0, 4, 1.0)]),
     "demand dst 4 is a controller, not a data-plane node"),
    (lambda: _horizontal(demands=[(2, 2, 1.0)]), "demand src and dst are both 2"),
    (lambda: _horizontal(injection=(-1, 0, 1.0)), "injection entry -1 is not a node id"),
    (lambda: _horizontal(injection=(0, 9, 1.0)), "injection exit 9 is not a node id"),
    (lambda: _horizontal(injection=(4, 0, 1.0)),
     "injection entry 4 is a controller, not a data-plane node"),
    (lambda: _horizontal(injection=(0, 4, 1.0)),
     "injection exit 4 is a controller, not a data-plane node"),
    (lambda: _horizontal(injection=(3, 3, 1.0)), "injection entry and exit are both 3"),
    # precedence: capacity keys, then each demand end by end, then the injection
    (lambda: _horizontal({7: 1.0}, demands=[(9, 0, 1.0)]), "capacity key 7 is not a node id"),
    (lambda: _horizontal(demands=[(9, 4, 1.0)]), "demand src 9 is not a node id"),
    (lambda: _horizontal(demands=[(4, 9, 1.0)]),
     "demand src 4 is a controller, not a data-plane node"),
    (lambda: _horizontal(demands=[(0, 1, 1.0), (2, 2, 1.0)], injection=(9, 0, 1.0)),
     "demand src and dst are both 2"),
])
def test_scenario_error_messages(make, msg):
    with pytest.raises(ScenarioError, match=f"^{re.escape(msg)}$"):
        make()


@pytest.mark.parametrize("capacity,injection,warnings", [
    ({4: 1.0, 1: 2.0}, None, ["capacity on controller 4 has no effect"]),
    ({1: 2.0}, (0, 3, 1.0), []),
    ({4: 1.0}, (1, 3, 1.0), ["capacity on controller 4 has no effect",
                             "injection endpoint 1 is not an edge switch"]),
    ({}, (2, 1, 1.0), ["injection endpoint 2 is not an edge switch",
                       "injection endpoint 1 is not an edge switch"]),
])
def test_validate_horizontal_warnings(capacity, injection, warnings):
    assert _horizontal(capacity, demands=[(0, 3, 1.0)], injection=injection) == warnings


def test_validate_vertical_role_checks():
    net = star_net(2, {0: [0], 1: [0]})  # switches 0,1; controller 2
    sc = VerticalScenario({2: 10.0}, {0: 1.0, 1: 1.0})
    assert validate_vertical(net, sc) == []
    with pytest.raises(ScenarioError, match="not a controller"):
        validate_vertical(net, VerticalScenario({0: 10.0}, {}))
    with pytest.raises(ScenarioError, match="not a switch"):
        validate_vertical(net, VerticalScenario({}, {2: 1.0}))
    with pytest.raises(ScenarioError, match="attack target"):
        validate_vertical(net, VerticalScenario({}, {}, attack=(2, 5.0)))


def test_vertical_rejects_negative_node_ids():
    # controller 0, switches 1 and 2: a negative id must not index from the end
    roles = {0: "controller", 1: "edge_switch", 2: "edge_switch"}
    net = Network.from_edges(3, [(0, 1), (0, 2)], roles, {1: [0], 2: [0]})
    for sc, msg in (
        (VerticalScenario({-3: 1.0}, {1: 2.0}), "capacity key -3 is not a controller"),
        (VerticalScenario({}, {-1: 5.0, 1: 1.0}), "rate key -1 is not a switch"),
        (VerticalScenario({}, {}, attack=(-1, 5.0)), "attack target -1 is not a switch"),
    ):
        with pytest.raises(ScenarioError, match=msg):
            run_vertical(net, sc)


def test_validate_vertical_requires_controllers():
    net = ring(4)
    with pytest.raises(ScenarioError, match="no controller"):
        validate_vertical(net, VerticalScenario({}, {}))


def test_validate_vertical_warns_on_missing_prefs():
    text = "0 1\n0 2\n1 2\n[roles]\n0=edge_switch\n1=edge_switch\n2=controller\n[controllers]\n0:2\n"
    net = load_edge_list(text)
    warnings = validate_vertical(net, VerticalScenario({}, {}))
    assert any("switch 1" in w for w in warnings)


def test_validate_horizontal_checks():
    net = line_dp_net()
    assert validate_horizontal(net, HorizontalScenario({1: 5.0})) == []
    with pytest.raises(ScenarioError, match="src and dst"):
        validate_horizontal(net, HorizontalScenario({}, demands=[(2, 2, 1.0)]))
    with pytest.raises(ScenarioError, match="not a node id"):
        validate_horizontal(net, HorizontalScenario({}, demands=[(0, 9, 1.0)]))
    # injection endpoints that are not edge switches: warned, not fatal
    warnings = validate_horizontal(net, HorizontalScenario({}, injection=(1, 3, 2.0)))
    assert len(warnings) == 2
    with pytest.raises(ScenarioError, match=r"^capacity key 5 is not a node id$"):
        validate_horizontal(net, HorizontalScenario({5: 1.0}))
    with pytest.raises(ScenarioError, match=r"^injection entry and exit are both 0$"):
        validate_horizontal(net, HorizontalScenario({}, injection=(0, 0, 2.0)))
    ctrl = load_edge_list("0 1\n1 2\n[roles]\n2=controller\n")
    with pytest.raises(ScenarioError, match="controller"):
        validate_horizontal(ctrl, HorizontalScenario({}, demands=[(0, 2, 1.0)]))


# --- switch assignment -------------------------------------------------------

def test_assign_switches_prefers_first_live():
    net = star_net(1, {0: [0, 1]})  # controllers 1, 2
    assert assign_switches(net, set()) == {0: 1}
    assert assign_switches(net, {1}) == {0: 2}
    assert assign_switches(net, {1, 2}) == {0: None}


def test_assign_switches_empty_pref_list_is_orphaned():
    text = "0 1\n[roles]\n0=edge_switch\n1=controller\n"
    net = load_edge_list(text)
    assert assign_switches(net, set()) == {0: None}


# --- vertical cascade --------------------------------------------------------

def test_vertical_under_capacity_single_quiet_round():
    net = star_net(5, {sw: [0] for sw in range(5)})
    sc = VerticalScenario({5: 100.0}, {sw: 10.0 for sw in range(5)})
    tr = run_vertical(net, sc)
    assert len(tr.rounds) == 1
    assert tr.failed == frozenset()
    assert tr.rounds[0].loads == {5: 50.0}


def test_vertical_attack_overloads_single_controller():
    net = star_net(5, {sw: [0] for sw in range(5)})
    sc = VerticalScenario({5: 100.0}, {sw: 10.0 for sw in range(5)}, attack=(0, 200.0))
    tr = run_vertical(net, sc)
    assert tr.rounds[0].loads == {5: 250.0}
    assert len(tr.rounds) == 2
    assert tr.failed == {5}
    assert tr.orphaned_switches == {0, 1, 2, 3, 4}


def test_vertical_failover_chain():
    # 6 switches split 3/3 over two controllers with mutual backup
    prefs = {sw: [0, 1] for sw in range(3)}
    prefs.update({sw: [1, 0] for sw in range(3, 6)})
    net = star_net(6, prefs)
    sc = VerticalScenario({6: 100.0, 7: 100.0}, {sw: 10.0 for sw in range(6)},
                          attack=(0, 150.0))
    tr = run_vertical(net, sc)
    assert tr.rounds[0].loads == {6: 180.0, 7: 30.0}
    assert tr.rounds[0].failed_now == {6}
    assert tr.rounds[1].loads == {7: 210.0}
    assert tr.rounds[1].failed_now == {7}
    assert len(tr.rounds) == 3
    assert tr.failed == {6, 7}
    assert tr.orphaned_switches == frozenset(range(6))


def test_vertical_no_attack_under_capacity_nothing_fails():
    prefs = {sw: [0, 1] for sw in range(4)}
    net = star_net(4, prefs)
    sc = VerticalScenario({4: 41.0, 5: 41.0}, {sw: 10.0 for sw in range(4)})
    tr = run_vertical(net, sc)
    assert tr.failed == frozenset()


def test_vertical_capacity_above_total_rate_never_fails():
    # capacity above the sum of all effective rates: safe for any prefs
    for flip in (False, True):
        prefs = {sw: ([1, 0] if flip else [0, 1]) for sw in range(4)}
        net = star_net(4, prefs)
        sc = VerticalScenario({4: 1000.0, 5: 1000.0},
                              {sw: 10.0 for sw in range(4)}, attack=(2, 900.0))
        tr = run_vertical(net, sc)
        assert tr.failed == frozenset()


def test_vertical_missing_rate_defaults_to_zero():
    net = star_net(2, {0: [0], 1: [0]})
    tr = run_vertical(net, VerticalScenario({2: 5.0}, {0: 3.0}))
    assert tr.rounds[0].loads == {2: 3.0}


def test_vertical_csv_format():
    net = star_net(1, {0: [0]})
    sc = VerticalScenario({1: 1.0}, {0: 5.0})
    lines = run_vertical(net, sc).csv().splitlines()
    assert lines[0] == "round,controller,load,capacity,status"
    assert lines[1] == "1,1,5,1,failed"
    assert lines[2] == "2,1,,1,down"


# --- routing -----------------------------------------------------------------

def test_route_unique_path():
    net = load_edge_list("0 1\n1 2\n")
    assert route_demand(net, {0, 1, 2}, 0, 2) == [0, 1, 2]


def test_route_tie_break_smallest_sequence():
    net = ring(4)
    assert route_demand(net, {0, 1, 2, 3}, 0, 2) == [0, 1, 2]


def test_route_detour_after_failure():
    net = ring(4)
    assert route_demand(net, {0, 2, 3}, 0, 2) == [0, 3, 2]


def test_route_misroute_picks_largest_sequence():
    net = ring(4)
    assert route_demand(net, {0, 1, 2, 3}, 0, 2, misroute=True) == [0, 3, 2]


def test_route_unreachable_and_errors():
    net = load_edge_list("0 1\n2 3\n")
    assert route_demand(net, {0, 1, 2, 3}, 0, 3) is None
    assert route_demand(net, {0, 3}, 0, 3) is None
    assert route_demand(net, {1, 2, 3}, 0, 3) is None  # src not alive
    with pytest.raises(ScenarioError):
        route_demand(net, {0, 1}, 1, 1)


@pytest.mark.parametrize("misroute", [False, True])
def test_route_ignores_alive_ids_that_are_not_nodes(misroute):
    net = ring(4)
    # -1 is not node 3 (which is down here), and 7 is no node of ring(4)
    assert route_demand(net, {0, 2, -1}, 0, 2, misroute) is None
    assert route_demand(net, {0, 1, 2, 7}, 0, 2, misroute) == [0, 1, 2]
    # compute_loads builds the round's marks itself, where a -1 would mark node 3
    sc = HorizontalScenario({}, demands=[(0, 2, 1.0)], misroute=misroute)
    assert compute_loads(net, {0, 2, -1}, sc).dropped == (("demand", 0, 2, 1.0),)
    assert compute_loads(net, {0, 1, 2, 7}, sc).paths == ([0, 1, 2],)


def test_route_endpoint_that_is_not_a_node_is_unreachable():
    net = ring(4)
    alive = {-1, 0, 1, 2, 3, 7}
    for src, dst in ((7, 0), (-1, 0), (0, 7), (0, -1)):
        assert route_demand(net, alive, src, dst) is None


def test_route_always_shortest_and_lexicographic_on_random_graphs():
    import random as _random
    from failprop.topology import erdos_renyi

    def all_shortest(net, alive, src, dst):
        # brute-force enumeration, only workable on tiny graphs
        best = []
        stack = [[src]]
        while stack:
            path = stack.pop()
            cur = path[-1]
            if best and len(path) > len(best[0]):
                continue
            if cur == dst:
                if not best or len(path) < len(best[0]):
                    best = [path]
                elif len(path) == len(best[0]):
                    best.append(path)
                continue
            for u in net.adj[cur]:
                if u in alive and u not in path:
                    stack.append(path + [u])
        return best

    rng = _random.Random(3)
    for trial in range(15):
        net = erdos_renyi(8, 0.45, seed=trial)
        alive = set(range(8))
        src, dst = rng.sample(range(8), 2)
        got = route_demand(net, alive, src, dst)
        options = all_shortest(net, alive, src, dst)
        if not options:
            assert got is None
            continue
        shortest = min(len(p) for p in options)
        assert got == min(p for p in options if len(p) == shortest)
        worst = route_demand(net, alive, src, dst, misroute=True)
        assert worst == max(p for p in options if len(p) == shortest)


# --- load computation --------------------------------------------------------

def test_compute_loads_single_demand():
    net = load_edge_list("0 1\n1 2\n")
    lm = compute_loads(net, {0, 1, 2}, HorizontalScenario({}, demands=[(0, 2, 5.0)]))
    assert lm.load == {0: 5.0, 1: 5.0, 2: 5.0}
    assert lm.dropped == ()


def test_compute_loads_no_demands():
    net = ring(4)
    lm = compute_loads(net, set(range(4)), HorizontalScenario({}))
    assert lm.load == {v: 0.0 for v in range(4)}


def test_compute_loads_crossing_demands_sum():
    net = load_edge_list("0 1\n1 2\n1 3\n")
    sc = HorizontalScenario({}, demands=[(0, 2, 3.0), (3, 2, 4.0)])
    lm = compute_loads(net, {0, 1, 2, 3}, sc)
    assert lm.load[1] == 7.0
    assert lm.load[0] == 3.0 and lm.load[3] == 4.0 and lm.load[2] == 7.0


def test_compute_loads_conservation():
    net = parallel_paths_net()
    sc = HorizontalScenario({}, demands=[(0, 5, 2.0), (1, 4, 3.0)], injection=(0, 5, 7.0))
    alive = {v for v in range(net.node_count)}
    lm = compute_loads(net, alive, sc)
    total = 0.0
    for kind, src, dst, vol in [("d", 0, 5, 2.0), ("d", 1, 4, 3.0), ("i", 0, 5, 7.0)]:
        path = route_demand(net, alive, src, dst)
        total += vol * len(path)
    assert sum(lm.load.values()) == total


def test_compute_loads_records_dropped():
    net = load_edge_list("0 1\n2 3\n")
    sc = HorizontalScenario({}, demands=[(0, 3, 5.0)], injection=(0, 1, 2.0))
    lm = compute_loads(net, {0, 1, 2, 3}, sc)
    assert lm.dropped == (("demand", 0, 3, 5.0),)
    assert lm.load == {0: 2.0, 1: 2.0, 2: 0.0, 3: 0.0}


# --- horizontal cascade ------------------------------------------------------

def test_horizontal_infinite_capacity_single_round():
    net = parallel_paths_net()
    tr = run_horizontal(net, HorizontalScenario({}, injection=(0, 5, 1000.0)))
    assert len(tr.rounds) == 1
    assert tr.failed == frozenset()


def test_horizontal_line_cascade():
    net = line_dp_net()
    sc = HorizontalScenario({1: 10.0, 2: 10.0, 3: 10.0}, injection=(0, 4, 20.0))
    tr = run_horizontal(net, sc)
    assert tr.rounds[0].failed_now == {1, 2, 3}
    assert tr.rounds[1].failed_now == frozenset()
    assert tr.rounds[1].dropped == (("injection", 0, 4, 20.0),)
    assert len(tr.rounds) == 2
    assert tr.failed == {1, 2, 3}


def test_horizontal_parallel_paths_two_wave_cascade():
    net = parallel_paths_net()
    sc = HorizontalScenario({v: 10.0 for v in (1, 2, 3, 4)}, injection=(0, 5, 15.0))
    tr = run_horizontal(net, sc)
    assert tr.rounds[0].failed_now == {1, 2}
    assert tr.rounds[1].failed_now == {3, 4}
    assert tr.rounds[2].failed_now == frozenset()
    assert tr.rounds[2].dropped == (("injection", 0, 5, 15.0),)
    assert len(tr.rounds) == 3
    assert tr.failed == {1, 2, 3, 4}


def test_horizontal_load_equal_capacity_survives():
    net = line_dp_net()
    sc = HorizontalScenario({1: 20.0, 2: 20.0, 3: 20.0}, injection=(0, 4, 20.0))
    tr = run_horizontal(net, sc)
    assert tr.failed == frozenset()


def test_horizontal_controllers_never_route():
    # controller 3 sits between 0 and 2 but data traffic must not use it
    text = "0 3\n3 2\n0 1\n1 2\n[roles]\n3=controller\n0=edge_switch\n2=edge_switch\n1=core_switch\n"
    net = load_edge_list(text)
    sc = HorizontalScenario({}, injection=(0, 2, 5.0))
    tr = run_horizontal(net, sc)
    assert 3 not in tr.rounds[0].loads
    assert tr.rounds[0].loads[1] == 5.0


def test_horizontal_injection_volume_monotone_failed_set():
    terminal = {}
    for vol in (5.0, 15.0, 25.0):
        net = parallel_paths_net()
        sc = HorizontalScenario({v: 10.0 for v in (1, 2, 3, 4)}, injection=(0, 5, vol))
        terminal[vol] = run_horizontal(net, sc).failed
    assert terminal[5.0] <= terminal[15.0] <= terminal[25.0]


def test_horizontal_round_bound():
    net = parallel_paths_net()
    sc = HorizontalScenario({v: 10.0 for v in (1, 2, 3, 4)}, injection=(0, 5, 15.0))
    tr = run_horizontal(net, sc)
    assert len(tr.rounds) <= net.node_count


def test_horizontal_misroute_flips_first_wave():
    net = parallel_paths_net()
    sc = HorizontalScenario({v: 10.0 for v in (1, 2, 3, 4)}, injection=(0, 5, 15.0),
                            misroute=True)
    tr = run_horizontal(net, sc)
    assert tr.rounds[0].failed_now == {3, 4}
    assert tr.rounds[1].failed_now == {1, 2}


def test_horizontal_per_round_flows_routed_or_dropped():
    net = parallel_paths_net()
    sc = HorizontalScenario({v: 10.0 for v in (1, 2, 3, 4)},
                            demands=[(0, 5, 1.0)], injection=(0, 5, 15.0))
    tr = run_horizontal(net, sc)
    alive = {v for v in range(net.node_count) if net.roles[v] != "controller"}
    for rnd in tr.rounds:
        for kind, src, dst, vol in [("demand", 0, 5, 1.0), ("injection", 0, 5, 15.0)]:
            routable = route_demand(net, alive, src, dst) is not None
            assert routable == ((kind, src, dst, vol) not in rnd.dropped)
        alive -= rnd.failed_now


def test_horizontal_csv_and_dropped_log():
    net = line_dp_net()
    sc = HorizontalScenario({1: 10.0, 2: 10.0, 3: 10.0}, injection=(0, 4, 20.0))
    tr = run_horizontal(net, sc)
    lines = tr.csv().splitlines()
    assert lines[0] == "round,node,load,capacity,status"
    assert "1,1,20,10,failed" in lines
    assert "2,1,,10,down" in lines
    assert "1,0,20,inf,ok" in lines
    dropped = tr.dropped_csv().splitlines()
    assert dropped == ["round,kind,src,dst,volume", "2,injection,0,4,20"]


def test_dropped_csv_rejected_for_vertical():
    net = star_net(1, {0: [0]})
    tr = run_vertical(net, VerticalScenario({1: 10.0}, {0: 1.0}))
    with pytest.raises(ScenarioError):
        tr.dropped_csv()


def test_terminal_json_round_trips_as_json():
    import json
    net = line_dp_net()
    sc = HorizontalScenario({1: 10.0, 2: 10.0, 3: 10.0}, injection=(0, 4, 20.0))
    payload = json.loads(run_horizontal(net, sc).terminal_json())
    assert payload["kind"] == "horizontal"
    assert payload["failed_nodes"] == [1, 2, 3]
    assert payload["rounds"] == 2
