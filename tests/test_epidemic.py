import json
import random
import re
from pathlib import Path

import pytest

from failprop.epidemic import (
    EpidemicError,
    EpidemicParams,
    StateVector,
    infection_probability,
    initial_state,
    monte_carlo,
    run,
    step,
)
from failprop.rng import derive_seed
from failprop.topology import Network, barabasi_albert, load_edge_list, ring

DATA = Path(__file__).parent / "data"


def path_net(n):
    return Network.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Network.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def one_node():
    return load_edge_list("[nodes]\ncount=1\n")


# --- parameter validation ----------------------------------------------------

def test_params_families():
    EpidemicParams("SI", beta=0.5)
    EpidemicParams("SIS", beta=0.5, delta1=0.3)
    EpidemicParams("SIR", beta=0.5, delta1=0.3)
    EpidemicParams("SID", beta=0.5, delta1=0.3, tau=0.4, gamma=0.1)


@pytest.mark.parametrize("bad", [-0.1, 1.5])
def test_params_beta_range(bad):
    with pytest.raises(EpidemicError, match="beta"):
        EpidemicParams("SI", beta=bad)


def test_params_family_constraints():
    with pytest.raises(EpidemicError, match="SI has no recovery"):
        EpidemicParams("SI", beta=0.5, delta1=0.1)
    with pytest.raises(EpidemicError, match="no D state"):
        EpidemicParams("SIS", beta=0.5, delta1=0.1, tau=0.1)
    with pytest.raises(EpidemicError, match="no D state"):
        EpidemicParams("SIR", beta=0.5, delta1=0.1, gamma=0.1)
    with pytest.raises(EpidemicError, match="tau \\+ delta1"):
        EpidemicParams("SID", beta=0.5, delta1=0.6, tau=0.5)
    with pytest.raises(EpidemicError, match="unknown model"):
        EpidemicParams("SEIR", beta=0.5)


# --- infection probability ---------------------------------------------------

def test_infection_probability_known_values():
    assert infection_probability(0, 0.7) == 0.0
    assert infection_probability(3, 1.0) == 1.0
    assert infection_probability(2, 0.5) == 0.75


def test_infection_probability_monotone():
    for beta in (0.1, 0.5, 0.9):
        vals = [infection_probability(k, beta) for k in range(12)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
    for k in (1, 3, 7):
        vals = [infection_probability(k, b / 10) for b in range(11)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_infection_probability_rejects_negative_k():
    with pytest.raises(EpidemicError):
        infection_probability(-1, 0.5)


# --- single step -------------------------------------------------------------

def test_step_all_susceptible_is_fixed():
    net = ring(8)
    sv = StateVector(("S",) * 8, 0)
    p = EpidemicParams("SID", beta=0.9, delta1=0.1, tau=0.5, gamma=0.3)
    out = step(net, sv, p, random.Random(1))
    assert out.states == sv.states
    assert out.tick == 1


def test_step_si_beta_one_path():
    net = path_net(3)
    sv = initial_state(net, {0})
    out = step(net, sv, EpidemicParams("SI", beta=1.0), random.Random(0))
    # node 2 is two hops out; a node infected this tick must not transmit yet
    assert out.states == ("I", "I", "S")


def test_step_disabled_neighbors_do_not_transmit():
    net = path_net(2)
    sv = StateVector(("D", "S"), 0)
    p = EpidemicParams("SID", beta=1.0, delta1=0.0, tau=0.0, gamma=0.0)
    out = step(net, sv, p, random.Random(2))
    assert out.states == ("D", "S")


@pytest.mark.parametrize("k,beta", [(1, 0.3), (3, 0.3), (5, 0.1)])
def test_step_infects_at_the_law_ac02_enumerates(k, beta):
    # an S centre with k I leaves and two D leaves, which must not count;
    # with no exits the centre's only draw is its infection
    net = Network.from_edges(k + 3, [(0, v) for v in range(1, k + 3)])
    sv = StateVector(("S",) + ("I",) * k + ("D", "D"), 0)
    p = EpidemicParams("SID", beta=beta, delta1=0.0, tau=0.0, gamma=0.0)
    rng = random.Random(1)
    n = 20_000
    hits = sum(step(net, sv, p, rng).states[0] == "I" for _ in range(n))
    law = infection_probability(k, beta)
    assert abs(hits / n - law) < 5 * (law * (1 - law) / n) ** 0.5


def test_step_sid_exit_split():
    p = EpidemicParams("SID", beta=0.0, delta1=0.2, tau=0.3, gamma=0.25)
    net = one_node()
    rng = random.Random(5)
    tally = {"S": 0, "I": 0, "D": 0}
    sv = StateVector(("I",), 0)
    n = 100_000
    for _ in range(n):
        tally[step(net, sv, p, rng).states[0]] += 1
    assert abs(tally["D"] / n - 0.30) < 0.01
    assert abs(tally["S"] / n - 0.20) < 0.01
    assert abs(tally["I"] / n - 0.50) < 0.01


def test_step_draw_order_is_reproducible():
    # transition draws for every I first (id order), then one infection
    # draw per exposed S; replay the same stream by hand
    net = path_net(4)
    sv = StateVector(("I", "S", "I", "S"), 3)
    p = EpidemicParams("SIS", beta=0.6, delta1=0.4)
    seed = 77
    out = step(net, sv, p, random.Random(seed))

    rng = random.Random(seed)
    expect = ["I", "S", "I", "S"]
    if rng.random() < 0.4:
        expect[0] = "S"
    if rng.random() < 0.4:
        expect[2] = "S"
    if rng.random() < 1 - (1 - 0.6) ** 2:  # node 1 sees both infected ends
        expect[1] = "I"
    if rng.random() < 0.6:  # node 3 sees one
        expect[3] = "I"
    assert out.states == tuple(expect)
    assert out.tick == 4


def test_step_transition_draw_consumed_even_at_zero_rates():
    # an I node in SIS consumes its draw even with delta1=0, keeping the
    # stream alignment independent of parameter values
    net = path_net(2)
    sv = StateVector(("I", "S"), 0)
    seed = 123
    out = step(net, sv, EpidemicParams("SIS", beta=0.5, delta1=0.0), random.Random(seed))
    rng = random.Random(seed)
    rng.random()  # the I node's wasted exit draw
    expected_infect = rng.random() < 0.5
    assert (out.states[1] == "I") == expected_infect


class CountingRandom(random.Random):
    """A Random that counts its random() calls."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


# states with an exit in each model; these draw once per tick
_EXITS = {"SI": set(), "SIS": {"I"}, "SIR": {"I"}, "SID": {"I", "D"}}


def _contract_draws(net, states, model):
    """Draws the module contract assigns to one tick from `states`."""
    exits = sum(st in _EXITS[model] for st in states)
    exposed = sum(st == "S" and any(states[u] == "I" for u in net.adj[v])
                  for v, st in enumerate(states))
    return exits + exposed


@pytest.mark.parametrize("p", [
    EpidemicParams("SI", beta=0.0),
    EpidemicParams("SI", beta=0.3),
    EpidemicParams("SI", beta=1.0),
    EpidemicParams("SIS", beta=0.0, delta1=0.0),
    EpidemicParams("SIS", beta=0.3, delta1=0.2),
    EpidemicParams("SIS", beta=1.0, delta1=1.0),
    EpidemicParams("SIR", beta=0.0, delta1=0.0),
    EpidemicParams("SIR", beta=0.3, delta1=0.2),
    EpidemicParams("SIR", beta=1.0, delta1=1.0),
    EpidemicParams("SID", beta=0.0, delta1=0.0, tau=0.0, gamma=0.0),
    EpidemicParams("SID", beta=0.4, delta1=0.1, tau=0.2, gamma=0.05),
    EpidemicParams("SID", beta=1.0, delta1=0.5, tau=0.5, gamma=1.0),
], ids=repr)
def test_step_draws_once_per_active_exit_and_exposed_node(p):
    net = barabasi_albert(60, 2, seed=3)
    sv = initial_state(net, {0, 17})
    rng = CountingRandom(5)
    for _ in range(15):
        before, expect = rng.calls, _contract_draws(net, sv.states, p.model)
        sv = step(net, sv, p, rng)
        assert rng.calls - before == expect


@pytest.mark.parametrize("states, p, draws", [
    (("I", "I", "I"), EpidemicParams("SIS", beta=1.0, delta1=0.5), 3),
    (("I", "I", "I"), EpidemicParams("SI", beta=1.0), 0),
    (("I", "R", "S"), EpidemicParams("SIR", beta=1.0, delta1=0.5), 1),
    (("D", "S", "D"), EpidemicParams("SID", beta=1.0, delta1=0.5, tau=0.5, gamma=0.0), 2),
    (("S", "S", "S"), EpidemicParams("SID", beta=1.0, delta1=0.5, tau=0.5, gamma=1.0), 0),
])
def test_step_without_exposed_nodes_draws_only_for_exits(states, p, draws):
    # path 0-1-2: no S node has an I neighbor
    rng = CountingRandom(5)
    out = step(path_net(3), StateVector(states, 0), p, rng)
    assert rng.calls == draws
    assert all(a == b or a != "S" for a, b in zip(states, out.states))


def test_step_rejects_bad_input():
    net = path_net(3)
    p = EpidemicParams("SID", beta=0.5, delta1=0.1, tau=0.1, gamma=0.1)
    with pytest.raises(EpidemicError, match="entries"):
        step(net, StateVector(("S", "S"), 0), p, random.Random(0))
    with pytest.raises(EpidemicError, match="illegal"):
        step(net, StateVector(("S", "R", "S"), 0), p, random.Random(0))
    with pytest.raises(EpidemicError, match="illegal"):
        step(net, StateVector(("S", "D", "S"), 0), EpidemicParams("SI", beta=0.5),
             random.Random(0))
    # a state that is none of S/I/R/D, found from the counts alone
    with pytest.raises(EpidemicError, match="node 1: state 'X' illegal for SID"):
        step(net, StateVector(("I", "X", "S"), 0), p, random.Random(0))


# --- full runs ---------------------------------------------------------------

def test_run_rejects_bad_arguments():
    # run checks its own arguments, monte_carlo its batch's once, before any
    # replica starts; both name the first bad one in the same words, and the
    # last two entries have two faults each, so the order of the checks shows
    p = EpidemicParams("SI", beta=0.5)
    for seeds, max_ticks, stop, msg in [
        ({0}, 10, "never", "stop must be 'absorb' or 'fixed_ticks', got 'never'"),
        ({0}, 0, "absorb", "max_ticks must be >= 1, got 0"),
        (set(), 10, "absorb", "seeds must be nonempty"),
        ({0, 9}, 10, "absorb", "seed 9 is not a node id"),
        ({-1}, 10, "absorb", "seed -1 is not a node id"),
        (set(), 0, "absorb", "seeds must be nonempty"),
        ({9}, 10, "never", "stop must be 'absorb' or 'fixed_ticks', got 'never'"),
    ]:
        for entry in (run, monte_carlo):
            with pytest.raises(EpidemicError, match=f"^{re.escape(msg)}$"):
                entry(ring(4), seeds, p, max_ticks, stop)


@pytest.mark.parametrize("seeds,msg", [([4], "seed 4 is not a node id"),
                                       ([0, -2], "seed -2 is not a node id")])
def test_initial_state_names_a_seed_that_is_not_a_node(seeds, msg):
    with pytest.raises(EpidemicError, match=f"^{re.escape(msg)}$"):
        initial_state(ring(4), seeds)


def test_derive_seed_rejects_a_negative_replica_index():
    assert derive_seed(3, 0) != derive_seed(3, 1)
    with pytest.raises(ValueError, match=r"^replica index must be >= 0$"):
        derive_seed(3, -1)


def test_run_tick0_reflects_seeds():
    net = ring(5)
    tr = run(net, {1, 3}, EpidemicParams("SI", beta=0.0), 5, stop="fixed_ticks")
    assert tr.counts[0] == (3, 2, 0, 0)
    assert tr.events[:2] == [(0, 1, "S", "I"), (0, 3, "S", "I")]


def test_run_fixed_ticks_row_count():
    net = ring(5)
    tr = run(net, {0}, EpidemicParams("SIS", beta=0.2, delta1=0.3), 40,
             stop="fixed_ticks", rng_seed=4)
    assert len(tr.counts) == 41


def test_run_absorb_stops_at_clear_state():
    net = ring(5)
    tr = run(net, {0}, EpidemicParams("SIS", beta=0.0, delta1=1.0), 50, rng_seed=1)
    # recovery is certain and nothing spreads: I is gone after one step
    assert tr.counts[-1] == (5, 0, 0, 0)
    assert len(tr.counts) == 2


def test_run_sis_beta_zero_i_count_nonincreasing():
    net = complete(6)
    tr = run(net, set(range(6)), EpidemicParams("SIS", beta=0.0, delta1=0.3),
             500, rng_seed=8)
    i_counts = [row[1] for row in tr.counts]
    assert all(a >= b for a, b in zip(i_counts, i_counts[1:]))
    assert i_counts[-1] == 0


def test_run_after_absorption_rows_frozen():
    net = ring(6)
    tr = run(net, {0}, EpidemicParams("SIR", beta=0.3, delta1=0.5), 80,
             stop="fixed_ticks", rng_seed=13)
    rows = tr.counts
    # find absorption (no I; SIR has no D) and check the tail never moves
    for k, row in enumerate(rows):
        if row[1] == 0:
            assert all(later == row for later in rows[k:])
            break
    else:
        pytest.fail("run never absorbed within the horizon")


def test_run_si_frontier_matches_bfs():
    net = ring(9)
    tr = run(net, {0}, EpidemicParams("SI", beta=1.0), 10, stop="fixed_ticks")
    first = {}
    for t, v, _, to in tr.events:
        if to == "I":
            first.setdefault(v, t)
    assert first == {0: 0, 1: 1, 8: 1, 2: 2, 7: 2, 3: 3, 6: 3, 4: 4, 5: 4}


def test_run_determinism_and_seed_sensitivity():
    net = ring(10)
    p = EpidemicParams("SID", beta=0.4, delta1=0.1, tau=0.2, gamma=0.05)
    a = run(net, {0}, p, 200, rng_seed=42)
    b = run(net, {0}, p, 200, rng_seed=42)
    c = run(net, {0}, p, 200, rng_seed=43)
    assert a.counts == b.counts and a.events == b.events
    assert a.counts != c.counts or a.events != c.events


def test_run_matches_golden_trace():
    net = ring(10)
    p = EpidemicParams("SID", beta=0.4, delta1=0.1, tau=0.2, gamma=0.05)
    tr = run(net, {0}, p, 200, stop="absorb", rng_seed=42)
    assert tr.counts_csv() == (DATA / "golden-sid-ring10-counts.csv").read_text()
    assert tr.events_csv() == (DATA / "golden-sid-ring10-events.csv").read_text()


# Written by the step from before the single transition pass; SI, SIS and
# SIR on one seeded BA graph, as a run's CSVs and a 4-replica batch.
GOLDEN_BA60 = {
    "si": EpidemicParams("SI", beta=0.08),
    "sis": EpidemicParams("SIS", beta=0.15, delta1=0.3),
    "sir": EpidemicParams("SIR", beta=0.25, delta1=0.2),
}


@pytest.mark.parametrize("name", GOLDEN_BA60)
def test_run_and_monte_carlo_match_golden_ba60(name):
    net = barabasi_albert(60, 2, seed=3)
    p = GOLDEN_BA60[name]
    tr = run(net, {0, 17}, p, 40, stop="fixed_ticks", rng_seed=11)
    assert tr.counts_csv() == (DATA / f"golden-{name}-ba60-counts.csv").read_text()
    assert tr.events_csv() == (DATA / f"golden-{name}-ba60-events.csv").read_text()
    agg = monte_carlo(net, {0, 17}, p, 40, stop="absorb", n_runs=4, base_seed=11)
    mc = json.dumps(agg.as_dict(), indent=1) + "\n"
    assert mc == (DATA / f"golden-{name}-ba60-mc.json").read_text()


def test_trace_csv_shapes():
    net = path_net(3)
    tr = run(net, {0}, EpidemicParams("SI", beta=1.0), 3, stop="fixed_ticks")
    lines = tr.counts_csv().splitlines()
    assert lines[0] == "tick,S,I,R,D"
    assert lines[1] == "0,2,1,0,0"
    assert tr.events_csv().splitlines()[0] == "tick,node,from,to"


def test_ever_infected_property():
    net = path_net(3)
    tr = run(net, {0}, EpidemicParams("SI", beta=1.0), 5, stop="fixed_ticks")
    assert tr.ever_infected == {0, 1, 2}


# --- monte carlo -------------------------------------------------------------

def test_monte_carlo_single_run_equals_run():
    net = ring(8)
    p = EpidemicParams("SIS", beta=0.3, delta1=0.2)
    agg = monte_carlo(net, {0}, p, 30, "fixed_ticks", n_runs=1, base_seed=5)
    tr = run(net, {0}, p, 30, "fixed_ticks", derive_seed(5, 0))
    assert [tuple(map(float, row)) for row in tr.counts] == agg.mean_counts
    assert agg.outbreak_sizes == [len(tr.ever_infected) / 8]


def test_monte_carlo_complete_infection():
    net = complete(5)
    agg = monte_carlo(net, {2}, EpidemicParams("SI", beta=1.0), 10, "fixed_ticks",
                      n_runs=8, base_seed=0)
    assert all(size == 1.0 for size in agg.outbreak_sizes)
    assert agg.mean_counts[-1][1] == 5.0


def test_monte_carlo_independent_of_parallelism():
    net = ring(12)
    p = EpidemicParams("SID", beta=0.5, delta1=0.2, tau=0.3, gamma=0.2)
    serial = monte_carlo(net, {0, 6}, p, 60, "absorb", n_runs=16, base_seed=9, n_jobs=1)
    threaded = monte_carlo(net, {0, 6}, p, 60, "absorb", n_runs=16, base_seed=9, n_jobs=4)
    assert serial.as_dict() == threaded.as_dict()


def test_monte_carlo_rejects_zero_runs():
    with pytest.raises(EpidemicError, match="n_runs"):
        monte_carlo(ring(4), {0}, EpidemicParams("SI", beta=0.5), 10, n_runs=0)


def _plain_sis_endemic_fraction(n, beta, delta1, n_runs, ticks, tail, seed0):
    # deliberately simple rewrite of the same chain, different code path
    rng_master = random.Random(seed0)
    totals = 0.0
    samples = 0
    for _ in range(n_runs):
        rng = random.Random(rng_master.randrange(2 ** 60))
        infected = {0}
        history = []
        for _ in range(ticks):
            nxt = set()
            for v in range(n):
                if v in infected:
                    if rng.random() >= delta1:
                        nxt.add(v)
                else:
                    # complete graph: every other infected node is a neighbor
                    k = len(infected - {v})
                    if k and rng.random() < 1 - (1 - beta) ** k:
                        nxt.add(v)
            infected = nxt
            history.append(len(infected))
        totals += sum(history[-tail:]) / tail / n
        samples += 1
    return totals / samples


def test_monte_carlo_sis_endemic_level_matches_plain_rewrite():
    # both implementations should settle on the same endemic plateau
    n, beta, delta1 = 20, 0.3, 0.1
    net = complete(n)
    agg = monte_carlo(net, {0}, EpidemicParams("SIS", beta=beta, delta1=delta1),
                      500, "fixed_ticks", n_runs=200, base_seed=31)
    ours = sum(row[1] for row in agg.mean_counts[-100:]) / 100 / n
    reference = _plain_sis_endemic_fraction(n, beta, delta1, 200, 500, 100, seed0=7)
    assert ours > 0.5
    assert reference > 0.5
    assert abs(ours - reference) < 0.05
