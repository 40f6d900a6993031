import pytest

from failprop.cascades import HorizontalScenario, VerticalScenario, run_horizontal, run_vertical
from failprop.epidemic import EpidemicParams, SimulationTrace, StateVector, run
from failprop.metrics import (
    MetricsError,
    StabilizationResult,
    SweepResult,
    dp_connectivity,
    outbreak_size,
    stabilization_time,
    threshold_sweep,
)
from failprop.topology import Network, load_edge_list, ring


def complete(n):
    return Network.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def make_trace(node_count, counts, events):
    return SimulationTrace(node_count, counts, events, ("S",) * node_count)


# --- outbreak size -----------------------------------------------------------

def test_outbreak_size_empty():
    tr = make_trace(10, [(10, 0, 0, 0)], [])
    assert outbreak_size(tr) == 0.0


def test_outbreak_size_full_sweep():
    net = ring(7)
    tr = run(net, {0}, EpidemicParams("SI", beta=1.0), 10, stop="fixed_ticks")
    assert outbreak_size(tr) == 1.0


def test_outbreak_size_counts_distinct_infected_nodes():
    events = [(0, 0, "S", "I"), (1, 0, "I", "S"), (2, 0, "S", "I"), (2, 3, "S", "I")]
    tr = make_trace(10, [(9, 1, 0, 0)], events)
    assert outbreak_size(tr) == 0.2  # nodes 0 and 3, re-entry not double counted


# --- dp connectivity ---------------------------------------------------------

def test_dp_connectivity_all_susceptible_connected():
    net = ring(6)
    assert dp_connectivity(net, StateVector(("S",) * 6, 0)) == 1.0


def test_dp_connectivity_infected_nodes_still_forward():
    net = ring(6)
    assert dp_connectivity(net, StateVector(("I",) * 6, 0)) == 1.0


def test_dp_connectivity_single_disabled_on_ring4():
    net = ring(4)
    sv = StateVector(("D", "S", "S", "S"), 0)
    assert dp_connectivity(net, sv) == 3 / 4


def test_dp_connectivity_two_disabled_split_ring6():
    net = ring(6)
    states = ["S"] * 6
    states[0] = states[3] = "D"
    assert dp_connectivity(net, StateVector(tuple(states), 0)) == 2 / 6


def test_dp_connectivity_everything_down():
    net = ring(4)
    assert dp_connectivity(net, StateVector(("D",) * 4, 0)) == 0.0


def test_dp_connectivity_disconnected_graph():
    net = load_edge_list("0 1\n2 3\n3 4\n")
    assert dp_connectivity(net, StateVector(("S",) * 5, 0)) == 3 / 5


def test_dp_connectivity_length_mismatch():
    with pytest.raises(MetricsError):
        dp_connectivity(ring(4), StateVector(("S",) * 3, 0))


# --- stabilization time ------------------------------------------------------

def test_stabilization_all_quiet_from_start():
    tr = make_trace(5, [(5, 0, 0, 0)] * 4, [])
    res = stabilization_time(tr)
    assert res.tick == 0 and res.stabilized


def test_stabilization_si_frontier_depth():
    net = load_edge_list("0 1\n1 2\n2 3\n")
    tr = run(net, {3}, EpidemicParams("SI", beta=1.0), 10, stop="fixed_ticks")
    res = stabilization_time(tr)
    assert res.tick == 3 and res.stabilized


def test_stabilization_still_moving_at_horizon():
    # ends on an I = 1 row: an all-S row would be absorbed, so stabilized;
    # node 0 is infected at each odd tick and recovers at each even one
    counts = [(5 - (t % 2), t % 2, 0, 0) for t in range(100)]
    events = [(t, 0, "I", "S") if t % 2 == 0 else (t, 0, "S", "I") for t in range(1, 100)]
    tr = make_trace(5, counts, events)
    res = stabilization_time(tr)
    assert res.tick == 99 and not res.stabilized


def test_stabilization_reads_the_moves_not_the_counts():
    # the run ends on two equal (2, 8, 0, 0) rows, but at tick 60 two nodes
    # are infected while another recovers, so it has not stabilized
    tr = run(ring(10), {0}, EpidemicParams("SIS", beta=0.5, delta1=0.2), 60,
             stop="fixed_ticks", rng_seed=2)
    assert tr.counts[-2] == tr.counts[-1] == (2, 8, 0, 0)
    assert stabilization_time(tr) == StabilizationResult(60, False)


@pytest.mark.parametrize("model, params", [
    ("SIS", {"beta": 0.3, "delta1": 0.5}),
    ("SIR", {"beta": 0.5, "delta1": 0.5}),
    ("SID", {"beta": 0.4, "delta1": 0.1, "tau": 0.2, "gamma": 0.05}),
])
def test_stabilization_of_a_run_that_died_out(model, params):
    # the last row (no I, no D) differs from the row before it, but it is a
    # fixed point: the run stabilized at the tick it died out
    tr = run(ring(10), {0}, EpidemicParams(model, **params), 200, rng_seed=42)
    assert tr.final_tick < 200 and tr.counts[-1][1] == tr.counts[-1][3] == 0
    assert tr.counts[-2] != tr.counts[-1]
    assert stabilization_time(tr) == StabilizationResult(tr.final_tick, True)


def test_stabilization_single_row():
    tr = make_trace(3, [(3, 0, 0, 0)], [])
    assert stabilization_time(tr) == stabilization_time(tr)
    assert stabilization_time(tr).tick == 0


# --- cascade failed fraction -------------------------------------------------

def test_failed_fraction_vertical_counts_orphans():
    text = "0 1\n0 2\n[roles]\n0=edge_switch\n1=controller\n2=controller\n[controllers]\n0:1,2\n"
    net = load_edge_list(text)
    sc = VerticalScenario({1: 1.0, 2: 1.0}, {0: 5.0})
    tr = run_vertical(net, sc)
    # both controllers die under the 5-unit rate, switch 0 is orphaned
    assert tr.failed_fraction() == 3 / 3


def test_failed_fraction_horizontal():
    text = "0 1\n1 2\n2 3\n3 4\n[roles]\n0=edge_switch\n4=edge_switch\n"
    net = load_edge_list(text)
    sc = HorizontalScenario({1: 10.0, 2: 10.0, 3: 10.0}, injection=(0, 4, 20.0))
    assert run_horizontal(net, sc).failed_fraction() == 3 / 5


# --- threshold sweep ---------------------------------------------------------

def test_sweep_beta_zero_infects_only_seed():
    net = ring(10)
    p = EpidemicParams("SIS", beta=0.0, delta1=0.2)
    res = threshold_sweep(net, {0}, p, [0.0], n_runs=10, max_ticks=50,
                          epsilon=0.2, base_seed=1)
    assert res.response[0] == pytest.approx(0.1)
    assert res.stderr[0] == pytest.approx(0.0, abs=1e-12)
    assert res.threshold_estimate is None  # 0.1 does not exceed 0.2


def test_sweep_beta_one_si_connected():
    net = ring(10)
    p = EpidemicParams("SI", beta=0.5)
    res = threshold_sweep(net, {0}, p, [1.0], n_runs=5, max_ticks=20,
                          epsilon=0.05, base_seed=1, stop="fixed_ticks")
    assert res.response == (1.0,)
    assert res.threshold_estimate == 1.0


def test_sweep_rejects_bad_grid():
    net = ring(5)
    p = EpidemicParams("SIS", beta=0.1, delta1=0.2)
    with pytest.raises(MetricsError, match="nonempty"):
        threshold_sweep(net, {0}, p, [], n_runs=2, max_ticks=10)
    with pytest.raises(MetricsError, match="increasing"):
        threshold_sweep(net, {0}, p, [0.3, 0.2], n_runs=2, max_ticks=10)
    with pytest.raises(MetricsError, match="epsilon"):
        threshold_sweep(net, {0}, p, [0.1], n_runs=2, max_ticks=10, epsilon=1.5)


def test_sweep_deterministic():
    net = ring(12)
    p = EpidemicParams("SIS", beta=0.1, delta1=0.3)
    a = threshold_sweep(net, {0}, p, [0.1, 0.4], n_runs=15, max_ticks=60, base_seed=4)
    b = threshold_sweep(net, {0}, p, [0.1, 0.4], n_runs=15, max_ticks=60, base_seed=4)
    assert a == b


def test_sweep_csv_format():
    res = SweepResult(grid=(0.1, 0.4), response=(0.02, 0.75), stderr=(0.01, 0.05),
                      n_runs=30, epsilon=0.05)
    lines = res.csv().splitlines()
    assert lines[0] == "param,mean_outbreak,stderr,n_runs"
    assert lines[1] == "0.1,0.02,0.01,30"
    assert lines[2] == "0.4,0.75,0.05,30"
    assert lines[3] == "threshold_estimate=0.4"


def test_sweep_csv_reports_missing_threshold():
    res = SweepResult(grid=(0.1,), response=(0.0,), stderr=(0.0,), n_runs=3,
                      epsilon=0.05)
    assert res.csv().splitlines()[-1] == "threshold_estimate=none"


def test_sweep_separates_die_out_from_endemic():
    # complete graph, SIS: far below vs far above the takeover point
    net = complete(20)
    p = EpidemicParams("SIS", beta=0.1, delta1=0.2)
    res = threshold_sweep(net, {0}, p, [0.005, 0.02, 0.08], n_runs=120,
                          max_ticks=200, base_seed=6, stop="fixed_ticks")
    assert res.response[0] < res.response[2]
    assert res.response[2] - res.response[0] > 0.3
    assert res.threshold_estimate is not None
