"""Property tests for the epidemic kernel and the cascade engines.

`reference_step` is a verbatim copy of the full-scan `step` that visited
every node twice per tick; it is kept here as the oracle for the
active-set kernel, which must consume the same draws and produce the same
states on any graph, model and legal state vector.

`reference_route_demand`, `reference_compute_loads`,
`reference_assign_switches`, the two reference round loops and
`reference_csv` copy the cascade engines from when every round rerouted
every flow with a full BFS and reassigned every switch; they are the
oracles for the incremental rounds, which must produce the same traces
byte for byte.
"""

import random
from collections import deque

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from failprop.cascades import (
    INF,
    CascadeTrace,
    HorizontalRound,
    HorizontalScenario,
    HorizontalTerminal,
    ScenarioError,
    VerticalRound,
    VerticalScenario,
    VerticalTerminal,
    _all_flows,
    _fmt,
    assign_switches,
    compute_loads,
    route_demand,
    run_horizontal,
    run_vertical,
    validate_horizontal,
    validate_vertical,
)
from failprop.epidemic import (
    MODELS,
    EpidemicError,
    EpidemicParams,
    StateVector,
    initial_state,
    monte_carlo,
    run,
    step,
)
from failprop.rng import derive_seed
from failprop.topology import CONTROLLER, ROLES, SWITCH_ROLES, Network

S, I, R, D = "S", "I", "R", "D"

_LEGAL = {
    "SI": frozenset((S, I)),
    "SIS": frozenset((S, I)),
    "SIR": frozenset((S, I, R)),
    "SID": frozenset((S, I, D)),
}


def reference_step(net: Network, sv: StateVector, p: EpidemicParams, rng: random.Random) -> StateVector:
    """One synchronous update; consumes draws per the module contract."""
    cur = sv.states
    n = net.node_count
    if len(cur) != n:
        raise EpidemicError(f"state vector has {len(cur)} entries for {n} nodes")
    legal = _LEGAL[p.model]
    nxt = list(cur)
    model = p.model
    infected: list[int] = []

    for v in range(n):
        st = cur[v]
        if st == S:
            continue
        if st == I:
            infected.append(v)
            if model == "SID":
                u = rng.random()
                if u < p.tau:
                    nxt[v] = D
                elif u < p.tau + p.delta1:
                    nxt[v] = S
            elif model == "SIS":
                if rng.random() < p.delta1:
                    nxt[v] = S
            elif model == "SIR":
                if rng.random() < p.delta1:
                    nxt[v] = R
            # SI: absorbing, no draw
        elif st == D and model == "SID":
            if rng.random() < p.gamma:
                nxt[v] = S
        elif st == R and model == "SIR":
            pass
        elif st not in legal:
            raise EpidemicError(f"node {v}: state {st!r} illegal for {model}")

    if infected:
        pressure = [0] * n
        for v in infected:
            for u in net.adj[v]:
                pressure[u] += 1
        comp = 1.0 - p.beta
        for v in range(n):
            if cur[v] == S and pressure[v]:
                if rng.random() < 1.0 - comp ** pressure[v]:
                    nxt[v] = I

    return StateVector(tuple(nxt), sv.tick + 1)


def reference_trajectory(net, seeds, p, max_ticks, stop, rng_seed):
    """State vectors of one run, stepped by the oracle with run's stop rule."""
    sv = initial_state(net, seeds)
    rng = random.Random(rng_seed)
    states = [sv]
    while sv.tick < max_ticks and (I in sv.states or D in sv.states):
        sv = reference_step(net, sv, p, rng)
        states.append(sv)
    return states


# --- strategies --------------------------------------------------------------

# zero and one often: draws must be consumed whatever the rate
probs = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


@st.composite
def networks(draw, max_nodes=9):
    n = draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Network.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def params(draw, models=MODELS):
    model = draw(st.sampled_from(models))
    beta = draw(probs)
    if model == "SI":
        return EpidemicParams(model, beta)
    delta1 = draw(probs)
    if model != "SID":
        return EpidemicParams(model, beta, delta1)
    tau = draw(probs)
    assume(tau + delta1 <= 1.0)
    return EpidemicParams(model, beta, delta1, tau, draw(probs))


def states_for(n, model):
    return st.lists(st.sampled_from(sorted(_LEGAL[model])), min_size=n, max_size=n)


# --- step against the oracle ---------------------------------------------------

@settings(deadline=None)
@given(st.data(), networks(), params(), st.integers(0, 2**32))
def test_step_matches_full_scan_reference(data, net, p, seed):
    states = tuple(data.draw(states_for(net.node_count, p.model)))
    tick = data.draw(st.integers(0, 50))
    new_rng, ref_rng = random.Random(seed), random.Random(seed)
    new = ref = StateVector(states, tick)
    # chain a few ticks so the kernel also runs on its own carried active set
    for _ in range(data.draw(st.integers(1, 6))):
        new = step(net, new, p, new_rng)
        ref = reference_step(net, ref, p, ref_rng)
        assert new == ref
        assert new.states == ref.states and new.tick == ref.tick
        assert new_rng.getstate() == ref_rng.getstate()


@settings(deadline=None)
@given(st.data(), networks(), st.lists(params(), min_size=1, max_size=4),
       st.integers(0, 2**32))
def test_step_matches_reference_when_models_change_or_states_are_illegal(data, net, ps, seed):
    # any mix of S/I/R/D, and a possibly different model each tick: the
    # kernel must raise exactly where the oracle raises
    states = tuple(data.draw(st.lists(st.sampled_from((S, I, R, D)),
                                      min_size=net.node_count, max_size=net.node_count)))
    new_rng, ref_rng = random.Random(seed), random.Random(seed)
    new = ref = StateVector(states, 0)
    for p in ps:
        try:
            ref = reference_step(net, ref, p, ref_rng)
        except EpidemicError as exc:
            expected = str(exc)
        else:
            expected = None
        try:
            new = step(net, new, p, new_rng)
        except EpidemicError as exc:
            assert str(exc) == expected
            return
        assert expected is None
        assert new == ref
        assert new_rng.getstate() == ref_rng.getstate()


# --- run -------------------------------------------------------------------

@st.composite
def runs(draw):
    net = draw(networks())
    p = draw(params())
    seeds = draw(st.sets(st.integers(0, net.node_count - 1), min_size=1))
    stop = draw(st.sampled_from(("absorb", "fixed_ticks")))
    return net, seeds, p, draw(st.integers(1, 25)), stop


@settings(deadline=None)
@given(runs(), st.integers(0, 2**32))
def test_run_counts_and_events_match_full_diff(case, seed):
    net, seeds, p, max_ticks, stop = case
    n = net.node_count
    tr = run(net, seeds, p, max_ticks, stop, seed)
    traj = reference_trajectory(net, seeds, p, max_ticks, stop, seed)

    for row in tr.counts:
        assert sum(row[1:]) == n
    recount = [(sv.tick, *sv.counts()) for sv in traj]
    assert tr.counts[:len(traj)] == recount
    if stop == "fixed_ticks":
        assert [row[0] for row in tr.counts] == list(range(max_ticks + 1))
        assert all(row[1:] == recount[-1][1:] for row in tr.counts[len(traj):])
    else:
        assert len(tr.counts) == len(traj)

    diff = [(0, v, S, I) for v in sorted(seeds)]
    for prev, cur in zip(traj, traj[1:]):
        diff += [(cur.tick, v, a, b)
                 for v, (a, b) in enumerate(zip(prev.states, cur.states)) if a != b]
    assert tr.events == diff
    assert tr.final_states == traj[-1].states


# --- streaming Monte Carlo ---------------------------------------------------

def brute_force_aggregate(traces, n):
    """Aggregate held traces the obvious way: pad each with its final row."""
    length = max(len(tr.counts) for tr in traces)
    padded = [[tr.counts[min(t, len(tr.counts) - 1)][1:] for t in range(length)]
              for tr in traces]
    columns = [[[rows[t][j] for rows in padded] for j in range(4)] for t in range(length)]
    return {
        "node_count": n,
        "n_runs": len(traces),
        "ticks": list(range(length)),
        "mean_counts": [[sum(c) / len(traces) for c in cols] for cols in columns],
        "min_counts": [[min(c) for c in cols] for cols in columns],
        "max_counts": [[max(c) for c in cols] for cols in columns],
        "outbreak_sizes": [len(tr.ever_infected) / n for tr in traces],
    }


def check_streaming_matches_brute_force(net, seeds, p, max_ticks, n_runs, base_seed):
    agg = monte_carlo(net, seeds, p, max_ticks, "absorb", n_runs=n_runs, base_seed=base_seed)
    traces = [run(net, seeds, p, max_ticks, "absorb", derive_seed(base_seed, i))
              for i in range(n_runs)]
    got = agg.as_dict()
    expected = brute_force_aggregate(traces, net.node_count)
    assert {k: got[k] for k in expected} == expected
    assert agg.replica0.counts == traces[0].counts
    assert agg.replica0.events == traces[0].events
    return traces


@settings(deadline=None)
@given(runs(), st.integers(1, 6), st.integers(0, 2**32))
def test_streaming_monte_carlo_matches_brute_force(case, n_runs, base_seed):
    net, seeds, p, max_ticks, _ = case
    check_streaming_matches_brute_force(net, seeds, p, max_ticks, n_runs, base_seed)


def test_streaming_monte_carlo_ragged_replicas():
    # replicas absorb at different ticks, and a later replica outlasts the
    # earlier ones, so both carry-forward directions are exercised
    net = Network.from_edges(6, [(i, i + 1) for i in range(5)])
    p = EpidemicParams("SIR", beta=0.6, delta1=0.4)
    traces = check_streaming_matches_brute_force(net, {0}, p, 40, 12, 3)
    lengths = [len(tr.counts) for tr in traces]
    assert len(set(lengths)) > 1
    assert any(b > max(lengths[:i]) for i, b in enumerate(lengths) if i)


# --- cascade oracles: full recomputation every round ---------------------------

def reference_route_demand(net, alive, src, dst, misroute=False):
    """Deterministic shortest path from src to dst inside `alive`."""
    if src == dst:
        raise ScenarioError(f"route endpoints are both {src}")
    if src not in alive or dst not in alive:
        return None
    dist = {dst: 0}
    queue = deque([dst])
    while queue:
        v = queue.popleft()
        for u in net.adj[v]:
            if u in alive and u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    if src not in dist:
        return None
    pick = max if misroute else min
    path = [src]
    cur = src
    while cur != dst:
        cur = pick(u for u in net.adj[cur] if u in alive and dist.get(u, -1) == dist[cur] - 1)
        path.append(cur)
    return path


def reference_compute_loads(net, alive, sc):
    """Route every flow over `alive` from scratch; (load, dropped, paths)."""
    load = {v: 0.0 for v in alive}
    dropped = []
    paths = []
    for kind, src, dst, volume in _all_flows(sc):
        path = reference_route_demand(net, alive, src, dst, sc.misroute)
        paths.append(path)
        if path is None:
            dropped.append((kind, src, dst, volume))
            continue
        for v in path:
            load[v] += volume
    return load, tuple(dropped), tuple(paths)


def reference_assign_switches(net, failed_controllers):
    out = {}
    for sw in net.switches():
        out[sw] = next(
            (c for c in net.controller_prefs.get(sw, ()) if c not in failed_controllers),
            None,
        )
    return out


def reference_effective_rate(sc, sw):
    rate = sc.base_rate.get(sw, 0.0)
    if sc.attack is not None and sc.attack[0] == sw:
        rate += sc.attack[1]
    return rate


def reference_run_vertical(net, sc):
    warnings = validate_vertical(net, sc)
    failed = set()
    rounds = []
    while True:
        assignment = reference_assign_switches(net, failed)
        loads = {c: 0.0 for c in net.controllers() if c not in failed}
        for sw, c in assignment.items():
            if c is not None:
                loads[c] += reference_effective_rate(sc, sw)
        now = frozenset(
            c for c, load in loads.items()
            if load > sc.controller_capacity.get(c, INF)
        )
        rounds.append(VerticalRound(len(rounds) + 1, assignment, loads, now, frozenset(failed)))
        if not now:
            break
        failed |= now
    last = rounds[-1]
    terminal = VerticalTerminal(
        failed_controllers=frozenset(failed),
        orphaned_switches=frozenset(sw for sw, c in last.assignment.items() if c is None),
        assignment=last.assignment,
        loads=last.loads,
        rounds=len(rounds),
    )
    return CascadeTrace("vertical", net, sc, tuple(rounds), terminal, tuple(warnings))


def reference_run_horizontal(net, sc):
    warnings = validate_horizontal(net, sc)
    alive = {v for v in range(net.node_count) if net.roles[v] != CONTROLLER}
    failed = set()
    rounds = []
    while True:
        load, dropped, _ = reference_compute_loads(net, alive, sc)
        now = frozenset(
            v for v, x in load.items()
            if x > sc.node_capacity.get(v, INF)
        )
        rounds.append(HorizontalRound(len(rounds) + 1, load, dropped, now, frozenset(failed)))
        if not now:
            break
        failed |= now
        alive -= now
    last = rounds[-1]
    terminal = HorizontalTerminal(
        failed_nodes=frozenset(failed),
        loads=last.loads,
        dropped=last.dropped,
        rounds=len(rounds),
    )
    return CascadeTrace("horizontal", net, sc, tuple(rounds), terminal, tuple(warnings))


def reference_csv(trace):
    """CascadeTrace.csv as it was, with subjects and capacities per row."""
    if trace.kind == "vertical":
        subjects = trace.net.controllers()
        caps = trace.scenario.controller_capacity
        header = "round,controller,load,capacity,status"
    else:
        subjects = tuple(v for v in range(trace.net.node_count)
                         if trace.net.roles[v] != CONTROLLER)
        caps = trace.scenario.node_capacity
        header = "round,node,load,capacity,status"
    lines = [header]
    for rnd in trace.rounds:
        for subject in subjects:
            if subject in rnd.failed_before:
                load, status = "", "down"
            elif subject in rnd.failed_now:
                load, status = _fmt(rnd.loads[subject]), "failed"
            else:
                load, status = _fmt(rnd.loads[subject]), "ok"
            lines.append(f"{rnd.index},{subject},{load},{_fmt(caps.get(subject, INF))},{status}")
    return "\n".join(lines) + "\n"


def exact(mapping):
    """Keys in order and float values bit for bit."""
    return [(k, float(v).hex()) for k, v in mapping.items()]


# --- cascade strategies ----------------------------------------------------------

# 0 and small integers often (ties between loads and capacities), and
# fractions whose sums round, so summation order shows
amounts = st.one_of(st.sampled_from((0.0, 1.0, 2.0, 3.0)), st.floats(0.0, 5.0))


@st.composite
def sparse_networks(draw, max_nodes=12):
    # long paths with ties reached through different parents: the case where
    # a route search stopped too early picks the wrong tied path
    n = draw(st.integers(2, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Network.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True,
                                                max_size=2 * n)))


@st.composite
def grids(draw):
    # many equal-length paths, ids shuffled so either tie-break can matter
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    label = draw(st.permutations(range(rows * cols)))
    edges = [(label[r * cols + c], label[r * cols + c + 1])
             for r in range(rows) for c in range(cols - 1)]
    edges += [(label[r * cols + c], label[(r + 1) * cols + c])
              for r in range(rows - 1) for c in range(cols)]
    return Network.from_edges(rows * cols, edges)


route_networks = st.one_of(networks(), sparse_networks(), grids())


@st.composite
def capacity_maps(draw, keys):
    return {k: draw(amounts) for k in keys if draw(st.booleans())}


@st.composite
def horizontal_cases(draw):
    net = draw(route_networks)
    roles = draw(st.lists(st.sampled_from(ROLES), min_size=net.node_count,
                          max_size=net.node_count))
    net = Network.from_edges(net.node_count, net.edges, dict(enumerate(roles)))
    dp = [v for v in range(net.node_count) if net.roles[v] != CONTROLLER]
    assume(len(dp) >= 2)
    pairs = st.tuples(st.sampled_from(dp), st.sampled_from(dp)).filter(lambda p: p[0] != p[1])
    flows = draw(st.lists(st.tuples(pairs, amounts), max_size=8))
    # repeat some flows verbatim: duplicate pairs must each keep their own path
    flows += draw(st.lists(st.sampled_from(flows), max_size=3)) if flows else []
    demands = [(s, d, vol) for (s, d), vol in flows]
    injection = None
    if draw(st.booleans()):
        (entry, exit_), vol = draw(pairs), draw(amounts)
        injection = (entry, exit_, vol)
    sc = HorizontalScenario(draw(capacity_maps(list(range(net.node_count)))),
                            demands, injection, draw(st.booleans()))
    return net, sc


@st.composite
def vertical_cases(draw):
    n_sw = draw(st.integers(1, 8))
    n_ctrl = draw(st.integers(1, 4))
    n = n_sw + n_ctrl
    switches, ctrls = list(range(n_sw)), list(range(n_sw, n))
    roles = {sw: draw(st.sampled_from(SWITCH_ROLES)) for sw in switches}
    roles.update({c: CONTROLLER for c in ctrls})
    prefs = {}
    for sw in switches:
        if draw(st.integers(0, 3)):  # a switch without a preference list is rare
            prefs[sw] = draw(st.permutations(ctrls))[:draw(st.integers(0, n_ctrl))]
    net = Network.from_edges(n, [(sw, c) for sw in switches for c in ctrls], roles, prefs)
    attack = None
    if draw(st.booleans()):
        attack = (draw(st.sampled_from(switches)), draw(amounts))
    sc = VerticalScenario(draw(capacity_maps(ctrls)), draw(capacity_maps(switches)), attack)
    return net, sc


# --- cascades against the oracles ------------------------------------------------

# cheap examples, and the tie that an early stop gets wrong is rare outside grids
@settings(deadline=None, max_examples=500)
@given(st.data(), st.one_of(route_networks, grids()), st.booleans())
def test_early_exit_route_matches_full_bfs(data, net, misroute):
    assume(net.node_count >= 2)
    nodes = range(net.node_count)
    alive = data.draw(st.one_of(st.just(set(nodes)), st.sets(st.sampled_from(nodes))))
    src, dst = data.draw(st.lists(st.integers(0, net.node_count - 1),
                                  min_size=2, max_size=2, unique=True))
    assert route_demand(net, alive, src, dst, misroute) == \
        reference_route_demand(net, alive, src, dst, misroute)


@settings(deadline=None)
@given(st.data(), horizontal_cases())
def test_incremental_loads_match_recompute_over_shrinking_alive_sets(data, case):
    net, sc = case
    alive = {v for v in range(net.node_count) if net.roles[v] != CONTROLLER}
    lm = None
    for _ in range(data.draw(st.integers(1, 5))):
        lm = compute_loads(net, alive, sc, lm)
        full = compute_loads(net, alive, sc)
        load, dropped, paths = reference_compute_loads(net, alive, sc)
        assert exact(lm.load) == exact(full.load) == exact(load)
        assert lm.dropped == full.dropped == dropped
        assert lm.paths == full.paths == paths
        # remove any nodes, not only overloaded ones: reuse may not depend on why
        if alive:
            alive = alive - data.draw(st.sets(st.sampled_from(sorted(alive))))


@settings(deadline=None)
@given(st.data(), vertical_cases())
def test_incremental_assignment_matches_full_over_growing_failed_sets(data, case):
    net, _ = case
    ctrls = list(net.controllers())
    failed = set()
    prev = None
    for _ in range(data.draw(st.integers(1, 5))):
        got = assign_switches(net, failed, prev)
        expected = reference_assign_switches(net, failed)
        assert list(got.items()) == list(expected.items())
        assert assign_switches(net, failed) == expected
        prev = got
        failed = failed | data.draw(st.sets(st.sampled_from(ctrls)))


def check_same_trace(got, expected):
    assert got.csv() == reference_csv(expected)
    assert got.terminal_json() == expected.terminal_json()
    if got.kind == "horizontal":
        assert got.dropped_csv() == expected.dropped_csv()
    for a, b in zip(got.rounds, expected.rounds):
        assert exact(a.loads) == exact(b.loads)
    assert len(got.rounds) == len(expected.rounds)


@settings(deadline=None)
@given(horizontal_cases())
def test_horizontal_run_matches_full_recompute_oracle(case):
    net, sc = case
    check_same_trace(run_horizontal(net, sc), reference_run_horizontal(net, sc))


@settings(deadline=None)
@given(vertical_cases())
def test_vertical_run_matches_full_recompute_oracle(case):
    net, sc = case
    got, expected = run_vertical(net, sc), reference_run_vertical(net, sc)
    check_same_trace(got, expected)
    for a, b in zip(got.rounds, expected.rounds):
        assert list(a.assignment.items()) == list(b.assignment.items())


@settings(deadline=None)
@given(st.data(), vertical_cases())
def test_vertical_failed_set_is_monotone_in_switch_rates(data, case):
    # a switch's first live controller under F stays its first live one under
    # any F' >= F while that controller survives, so higher rates can only
    # fail more controllers (not so for horizontal cascades, where a dropped
    # flow can unload nodes downstream)
    net, sc = case
    more = {sw: sc.base_rate.get(sw, 0.0) + data.draw(amounts) for sw in net.switches()}
    higher = VerticalScenario(sc.controller_capacity, more, sc.attack)
    low = run_vertical(net, sc).terminal.failed_controllers
    high = run_vertical(net, higher).terminal.failed_controllers
    assert low <= high
