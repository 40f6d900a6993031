"""Property tests for the epidemic kernel.

`reference_step` is a verbatim copy of the full-scan `step` that visited
every node twice per tick; it is kept here as the oracle for the
active-set kernel, which must consume the same draws and produce the same
states on any graph, model and legal state vector.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from failprop.topology import Network

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
