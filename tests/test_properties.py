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

`reference_load_edge_list`, `reference_from_edges` and
`reference_network_checks` copy the edge-list parser and the Network
checks from when they converted every token twice and checked every line,
edge and preference in a loop, with two checks added since: an empty item
in a controller list and an empty node id in `[roles]` or `[controllers]`
are errors, and a gap in the ids names at most the first 10 missing ids
(with their count when more are missing) instead of every one. The bulk
checks must give the same Network or raise the same error with the same
message. `reference_split_sections` cuts each line at its first `#` as
that parser did; `split_sections`, which cuts comments from the whole
text at once, must give the same parts on any line breaks.

`brute_force_route` enumerates every simple path, so `route_demand` is
also checked against the definition of the path it must return rather
than only against an earlier BFS; serial `monte_carlo` is the oracle for
replicas run in worker processes, and serial `threshold_sweep` for grid
points run in worker processes.

`reference_terminal_json` copies `CascadeTrace.terminal_json` from when the
pure-Python indented JSON encoder wrote the whole summary; the summary the C
encoder writes must have the same bytes.

`reference_events_csv` copies the cascade `events.csv` renderer from when
the command line held it; `CascadeTrace.events_csv` must give the same text.

`reference_render_resolved` copies `render_resolved` from when it resolved
and parsed every raw node token of the config a second time; rendering from
the seed ids or the scenario the run resolved must give the same text.
"""

import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter, deque
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import failprop.cascades
import failprop.epidemic

from failprop.cascades import (
    INF,
    CascadeTrace,
    HorizontalRound,
    HorizontalScenario,
    ScenarioError,
    VerticalRound,
    VerticalScenario,
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
from failprop.config import (
    ConfigError,
    _as_float,
    build_horizontal_scenario,
    build_network,
    build_vertical_scenario,
    load_config,
    parse_config,
    render_resolved,
    resolve_node,
    resolve_seeds,
)
from failprop.epidemic import (
    MODELS,
    EpidemicError,
    EpidemicParams,
    StateVector,
    initial_state,
    map_tasks,
    monte_carlo,
    run,
    step,
)
from failprop.metrics import threshold_sweep
from failprop.rng import derive_seed
from failprop.topology import (
    CONTROLLER,
    EDGE_SWITCH,
    GENERIC,
    ROLES,
    SWITCH_ROLES,
    Network,
    TopologyError,
    barabasi_albert,
    grid,
    load_edge_list,
    ring,
    serialize_edge_list,
    split_sections,
)

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
        assert sum(row) == n
    recount = [sv.counts() for sv in traj]
    assert tr.counts[:len(traj)] == recount
    if stop == "fixed_ticks":
        assert len(tr.counts) == max_ticks + 1
        assert all(row == recount[-1] for row in tr.counts[len(traj):])
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
    padded = [[tr.counts[min(t, len(tr.counts) - 1)] for t in range(length)]
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


@settings(deadline=None)
@given(runs(), st.integers(0, 2**32))
def test_population_is_conserved_and_states_stay_in_the_model(case, seed):
    net, seeds, p, max_ticks, stop = case
    tr = run(net, seeds, p, max_ticks, stop, seed)
    assert all(s + i + r + d == net.node_count for s, i, r, d in tr.counts)
    seen = {state for _, _, a, b in tr.events for state in (a, b)}
    seen |= {state for row in tr.counts for state, c in zip("SIRD", row) if c}
    assert seen <= _LEGAL[p.model]


# --- counts-only replicas ------------------------------------------------------

@pytest.mark.parametrize("stop", ("absorb", "fixed_ticks"))
@pytest.mark.parametrize("model", MODELS)
@settings(deadline=None)
@given(data=st.data(), base_seed=st.integers(0, 2**32), i=st.integers(0, 5))
def test_counts_only_replica_matches_run(model, stop, data, base_seed, i):
    # SIS and SID re-infect nodes, so the outbreak size must count distinct ids
    net = data.draw(networks())
    p = data.draw(params(models=(model,)))
    seeds = data.draw(st.sets(st.integers(0, net.node_count - 1), min_size=1))
    max_ticks = data.draw(st.integers(1, 25))
    tr = run(net, seeds, p, max_ticks, stop, derive_seed(base_seed, i))
    job = (net, initial_state(net, seeds), p, max_ticks, stop, base_seed)
    assert failprop.epidemic._replica(job, i) == (tr.counts, len(tr.ever_infected))


@settings(deadline=None)
@given(runs(), st.integers(0, 2**32), st.integers(0, 5))
def test_counts_only_replica_matches_full_scan_oracle(case, base_seed, i):
    # the replica writes each tick over one state list; the oracle copies
    # and scans every node, so a node written too early shows up here
    net, seeds, p, max_ticks, stop = case
    traj = reference_trajectory(net, seeds, p, max_ticks, stop, derive_seed(base_seed, i))
    rows = [sv.counts() for sv in traj]
    if stop == "fixed_ticks":
        rows += [rows[-1]] * (max_ticks + 1 - len(rows))
    infected = {v for sv in traj for v, x in enumerate(sv.states) if x == I}
    job = (net, initial_state(net, seeds), p, max_ticks, stop, base_seed)
    assert failprop.epidemic._replica(job, i) == (rows, len(infected))


def test_counts_only_replicas_never_call_step(monkeypatch):
    net = barabasi_albert(40, 2, seed=5)
    p = EpidemicParams("SID", beta=0.3, delta1=0.1, tau=0.2, gamma=0.3)
    job = (net, initial_state(net, {0, 7}), p, 30, "fixed_ticks", 9)
    expected = [failprop.epidemic._replica(job, i) for i in range(1, 4)]

    def no_step(*args):
        raise AssertionError("step called")

    monkeypatch.setattr(failprop.epidemic, "step", no_step)
    assert [failprop.epidemic._replica(job, i) for i in range(1, 4)] == expected


@pytest.mark.parametrize("stop", ("absorb", "fixed_ticks"))
def test_monte_carlo_steps_only_replica_0(monkeypatch, stop):
    calls = []
    original = failprop.epidemic.step

    def counting_step(net, sv, p, rng):
        calls.append(sv.tick)
        return original(net, sv, p, rng)

    monkeypatch.setattr(failprop.epidemic, "step", counting_step)
    p = EpidemicParams("SIS", beta=0.3, delta1=0.4)
    agg = monte_carlo(ring(12), {0, 6}, p, 60, stop, n_runs=4, base_seed=2, n_jobs=1)
    # one call per tick replica 0 simulated: none for the rows carried past
    # its absorption, none for replicas 1..3
    simulated = [t for t, (_, i, _, d) in enumerate(agg.replica0.counts) if i or d]
    assert calls == simulated and len(simulated) < 60  # replica 0 absorbed early


@settings(deadline=None)
@given(st.data(), networks(), st.lists(params(), min_size=1, max_size=4),
       st.integers(0, 2**32))
def test_step_carries_the_counts_of_its_states(data, net, ps, seed):
    # a tracked start or a hand-built one, a possibly different model for each
    # stretch of ticks, and the carried counts dropped at random ticks so the
    # next step must count a hand-built vector itself
    n = net.node_count
    if data.draw(st.booleans()):
        sv = initial_state(net, data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        assert sv._counts == sv.counts()
    else:
        sv = StateVector(tuple(data.draw(states_for(n, ps[0].model))), data.draw(st.integers(0, 9)))
    assert sv._active == [v for v, x in enumerate(sv.states) if x in "ID"]
    rng = random.Random(seed)
    for p in ps:
        for _ in range(data.draw(st.integers(1, 4))):
            if data.draw(st.booleans()):
                sv = StateVector(sv.states, sv.tick)
            try:
                sv = step(net, sv, p, rng)
            except EpidemicError:  # a state the new model does not have
                assert not set(sv.states) <= _LEGAL[p.model]
                return
            assert sv._counts == sv.counts()
            assert sv._active == [v for v, x in enumerate(sv.states) if x in "ID"]


# --- Monte Carlo in worker processes -------------------------------------------

# every example with n_runs > 1 forks workers, a few ms, so examples are few
@pytest.mark.parametrize("stop", ("absorb", "fixed_ticks"))
@pytest.mark.parametrize("model", MODELS)
@settings(deadline=None, max_examples=5)
@given(data=st.data(), n_runs=st.integers(1, 6), n_jobs=st.integers(2, 3),
       base_seed=st.integers(0, 2**32))
def test_monte_carlo_in_worker_processes_matches_serial(model, stop, data, n_runs, n_jobs,
                                                        base_seed):
    net = data.draw(networks())
    p = data.draw(params(models=(model,)))
    seeds = data.draw(st.sets(st.integers(0, net.node_count - 1), min_size=1))
    max_ticks = data.draw(st.integers(1, 25))
    serial = monte_carlo(net, seeds, p, max_ticks, stop, n_runs, base_seed, n_jobs=1)
    pooled = monte_carlo(net, seeds, p, max_ticks, stop, n_runs, base_seed, n_jobs=n_jobs)
    assert pooled.as_dict() == serial.as_dict()
    assert pooled.replica0.counts == serial.replica0.counts
    assert pooled.replica0.events == serial.replica0.events
    assert pooled.replica0.final_states == serial.replica0.final_states


def test_pooled_monte_carlo_runs_only_replica_0_in_the_caller(monkeypatch):
    seeds_used = []
    original = failprop.epidemic.run

    def counting_run(net, seeds, p, max_ticks, stop, rng_seed):
        seeds_used.append(rng_seed)
        return original(net, seeds, p, max_ticks, stop, rng_seed)

    monkeypatch.setattr(failprop.epidemic, "run", counting_run)
    p = EpidemicParams("SIS", beta=0.5, delta1=0.2)
    agg = monte_carlo(ring(12), {0}, p, 30, "fixed_ticks", n_runs=5, base_seed=4, n_jobs=2)
    assert seeds_used == [derive_seed(4, 0)]
    assert len(agg.outbreak_sizes) == 5


@pytest.mark.parametrize("bad", [{"stop": "never"}, {"max_ticks": 0}, {"seeds": set()}])
def test_pooled_monte_carlo_raises_what_serial_raises(bad):
    args = {"net": ring(6), "seeds": {0}, "p": EpidemicParams("SI", beta=0.5),
            "max_ticks": 10, "stop": "absorb", **bad}
    messages = []
    for n_jobs in (1, 2):
        with pytest.raises(EpidemicError) as exc:
            monte_carlo(**args, n_runs=3, n_jobs=n_jobs)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("n_jobs", (0, -4))
def test_n_jobs_below_one_is_an_error(n_jobs):
    p = EpidemicParams("SI", beta=0.5)
    message = f"n_jobs must be >= 1, got {n_jobs}"
    for n_runs in (1, 3):
        with pytest.raises(EpidemicError, match=message):
            monte_carlo(ring(6), {0}, p, 10, n_runs=n_runs, n_jobs=n_jobs)
    with pytest.raises(EpidemicError, match=message):
        threshold_sweep(ring(6), {0}, p, [0.1, 0.2], n_runs=2, max_ticks=10, n_jobs=n_jobs)


# every pooled example forks workers, a few ms, so examples are few
@pytest.mark.parametrize("n_runs, points", [(1, 3), (3, 1), (3, 4)])
@settings(deadline=None, max_examples=3)
@given(data=st.data(), base_seed=st.integers(0, 2**32))
def test_threshold_sweep_in_worker_processes_matches_serial(n_runs, points, data, base_seed):
    net = data.draw(networks())
    template = data.draw(params())
    seeds = data.draw(st.sets(st.integers(0, net.node_count - 1), min_size=1))
    grid = sorted(data.draw(st.sets(probs, min_size=points, max_size=points)))
    stop = data.draw(st.sampled_from(("absorb", "fixed_ticks")))
    args = (net, seeds, template, grid, n_runs, data.draw(st.integers(1, 25)), 0.05, base_seed,
            stop)
    serial = threshold_sweep(*args, n_jobs=1)
    for n_jobs in (2, 3):
        assert threshold_sweep(*args, n_jobs=n_jobs) == serial


def _fail_on_task_2(job, task):
    if task == 2:
        raise EpidemicError(f"{job}: task {task} failed")
    return task


@pytest.fixture
def forks(monkeypatch):
    """The pid of every worker process forked while the test runs. A ninth
    fork fails before it starts a process, so a broken cap on the worker
    count cannot start thousands of them."""
    started = []
    real_fork = os.fork

    def spy():
        assert len(started) < 8, "more than 8 workers forked"
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return started


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_pool_per_command_and_no_worker_left(forks, monkeypatch):
    def workers(call, *args, **kwargs):
        forks.clear()
        try:
            call(*args, **kwargs)
        finally:
            assert_no_child_left()
        return len(forks)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the worker counts below, on any host
    p = EpidemicParams("SIS", beta=0.4, delta1=0.3)
    sweep = (ring(10), {0}, p)
    assert workers(threshold_sweep, *sweep, [0.1, 0.2, 0.3], n_runs=3, max_ticks=20,
                   n_jobs=2) == 2
    assert workers(threshold_sweep, *sweep, [0.1, 0.2, 0.3], n_runs=3, max_ticks=20,
                   n_jobs=5) == 2
    assert workers(threshold_sweep, *sweep, [0.2], n_runs=3, max_ticks=20, n_jobs=2) == 0
    assert workers(monte_carlo, *sweep, 20, n_runs=1, n_jobs=2) == 0
    assert workers(monte_carlo, *sweep, 20, n_runs=4, n_jobs=2) == 2
    # the caller raises before any worker starts, then a worker raises
    with pytest.raises(EpidemicError, match="stop must be"):
        workers(monte_carlo, *sweep, 20, "never", n_runs=4, n_jobs=2)

    def drain():
        with map_tasks(_fail_on_task_2, "job", range(5), 2) as results:
            return list(results)

    with pytest.raises(EpidemicError, match="job: task 2 failed"):
        workers(drain)
    assert len(forks) == 2


@pytest.mark.parametrize("call, bad", [
    (monte_carlo, {"max_ticks": 0}),
    (monte_carlo, {"stop": "bogus"}),
    (monte_carlo, {"seeds": set()}),
    (monte_carlo, {"seeds": {3, 12, 10}}),
    (monte_carlo, {"n_runs": 0}),
    (threshold_sweep, {"n_runs": 0}),
    (threshold_sweep, {"stop": "x"}),
    (threshold_sweep, {"max_ticks": 0}),
    (threshold_sweep, {"seeds": {-1, 0}}),
    (threshold_sweep, {"grid": [0.1, 1.5]}),
])
def test_bad_arguments_raise_before_any_pool_starts(forks, call, bad):
    args = {"net": ring(10), "seeds": {0}, "max_ticks": 20, "stop": "absorb", "n_runs": 3}
    if call is monte_carlo:
        args["p"] = EpidemicParams("SIS", beta=0.4, delta1=0.3)
    else:
        args.update(template=EpidemicParams("SIS", beta=0.4, delta1=0.3), grid=[0.1, 0.2, 0.3])
    args.update(bad)
    messages = []
    for n_jobs in (1, 2):
        with pytest.raises(ValueError) as exc:
            call(**args, n_jobs=n_jobs)
        messages.append(str(exc.value))
    assert forks == []
    assert messages[0] == messages[1]


def test_caller_failure_inside_the_pool_block_leaves_no_worker(forks, monkeypatch):
    # arguments are checked before any worker starts, so make replica 0 fail
    # in the caller while the workers run replicas 1..3
    def failing_run(*args):
        raise EpidemicError("replica 0 failed")

    monkeypatch.setattr(failprop.epidemic, "run", failing_run)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers, on any host
    p = EpidemicParams("SIS", beta=0.4, delta1=0.3)
    with pytest.raises(EpidemicError, match="replica 0 failed"):
        monte_carlo(ring(10), {0}, p, 20, n_runs=4, n_jobs=2)
    assert len(forks) == 2
    assert_no_child_left()


def _sleep(seconds, task):
    time.sleep(seconds)


def test_leaving_the_block_kills_the_running_workers(forks):
    start = time.monotonic()
    with pytest.raises(EpidemicError, match="caller failed"):
        with map_tasks(_sleep, 30, range(2), 2):
            raise EpidemicError("caller failed")
    assert time.monotonic() - start < 10
    assert_no_child_left()


def _slow_first(job, task):
    if task == 0:
        time.sleep(job)
    return os.getpid()


def test_a_free_worker_takes_the_next_task(forks, monkeypatch):
    # the worker on task 0 sleeps; the other takes every later task meanwhile,
    # where a fixed split would leave half of them behind task 0
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers, on any host
    with map_tasks(_slow_first, 1.5, range(6), 2) as results:
        first, *rest = results
    assert set(rest) == {rest[0]} and rest[0] != first
    assert sorted({first, *rest}) == sorted(forks)
    assert_no_child_left()


def _on_alarm(signum, frame):
    raise TimeoutError("map_tasks did not finish in 60 s")


_ran = 0  # tasks run so far, in each forked worker's own copy


def _counted(job, task):
    global _ran
    _ran += 1
    return task, os.getpid(), _ran, bytes(job)


def test_many_workers_take_every_task_once(forks, monkeypatch):
    # more workers than cores, more task numbers than a pipe holds and results
    # that fill the workers' pipes long before the last number is fed, so the
    # caller waits to feed them while its readers take results; a lost task
    # hangs the run, a task run twice shows in the workers' counts, and a
    # result filed under the wrong task shows in the order
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    n = 20_000
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    signal.alarm(60)
    try:
        ran = {}  # pid -> tasks it had run by its latest result
        with map_tasks(_counted, 1000, range(n), 8) as results:
            for t, (task, pid, count, _) in enumerate(results):
                assert task == t
                ran[pid] = max(ran.get(pid, 0), count)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        sys.setswitchinterval(interval)
    assert sum(ran.values()) == n
    assert len(forks) == 8
    assert_no_child_left()


def _big_result(job, task):
    return time.monotonic(), bytes(job)


def test_workers_finish_while_the_caller_is_busy(forks, monkeypatch):
    # results larger than a pipe holds are read as they come, so no worker
    # waits for the caller to reach them
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with map_tasks(_big_result, 1 << 18, range(6), 2) as results:
        time.sleep(1.5)
        busy_until = time.monotonic()
        done = [t for t, _ in results]
    assert max(done) < busy_until
    assert_no_child_left()


DEAD_WORKER = """
import os, sys
import failprop.epidemic
from failprop.cli import main

def exits(job, task):
    os._exit(1)

def is_killed(job, task):
    os.kill(os.getpid(), 9)

# 20,000 task numbers outgrow the pipe, so the workers die while it is fed
for fn, n in ((exits, 5), (is_killed, 5), (exits, 20_000)):
    try:
        with failprop.epidemic.map_tasks(fn, None, range(n), 2) as results:
            list(results)
    except RuntimeError as exc:
        print(exc)
failprop.epidemic._replica = exits
code = main(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
sys.exit(code)
"""


def test_a_dead_worker_fails_the_run_instead_of_hanging_it(tmp_path):
    (tmp_path / "exp.cfg").write_text(
        "[topology]\ngenerate=ring:8\n[model]\nmodel=SIS\nbeta=0.4\ndelta1=0.3\nseeds=0\n"
        "[run]\nmax_ticks=10\nn_runs=4\nn_jobs=2\n")
    src = str(Path(failprop.epidemic.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", DEAD_WORKER, "epidemic", "--config", "exp.cfg",
                           "--out", "out"], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=20)
    worker = r"worker [01] \(pid \d+\) ended without a result \(wait status {}\)"
    lines = proc.stdout.splitlines()
    assert len(lines) == 4
    assert re.fullmatch(worker.format(256), lines[0])  # exit status 1
    assert re.fullmatch(worker.format(9), lines[1])  # SIGKILL
    assert re.fullmatch(worker.format(256), lines[2])
    assert lines[3] == "no child left"
    assert proc.returncode == 4
    [line] = proc.stderr.splitlines()
    assert re.fullmatch("failprop: unexpected error: RuntimeError\\('{}'\\)".format(
        worker.format(256)), line)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cpus, n_jobs, n_runs, size", [
    (2, 5000, 5000, 2),
    (4, 3, 10, 3),
    (8, 16, 6, 5),
    (None, 4, 4, 1),
])
def test_worker_count_is_capped_by_the_cpu_count(forks, monkeypatch, cpus, n_jobs, n_runs,
                                                 size):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    p = EpidemicParams("SIS", beta=0.4, delta1=0.3)
    pooled = monte_carlo(ring(10), {0}, p, 5, n_runs=n_runs, n_jobs=n_jobs)
    assert len(forks) == size
    assert pooled == monte_carlo(ring(10), {0}, p, 5, n_runs=n_runs, n_jobs=1)
    assert_no_child_left()


def test_without_fork_the_tasks_run_in_the_caller(monkeypatch):
    monkeypatch.delattr(os, "fork")
    p = EpidemicParams("SIS", beta=0.4, delta1=0.3)
    pooled = monte_carlo(ring(10), {0}, p, 20, n_runs=4, n_jobs=2)
    assert pooled == monte_carlo(ring(10), {0}, p, 20, n_runs=4, n_jobs=1)
    with pytest.raises(EpidemicError, match="job: task 2 failed"):
        with map_tasks(_fail_on_task_2, "job", range(5), 2) as results:
            assert next(results) == 0  # each task runs as the caller reaches it
            list(results)


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


def brute_force_route(net, alive, src, dst, misroute=False):
    """The fewest-hop simple path inside `alive`, ties broken by comparing
    node-id sequences (largest when misroute), found by listing every path."""
    paths = []

    def extend(path):
        if path[-1] == dst:
            paths.append(path)
            return
        for u in net.adj[path[-1]]:
            if u in alive and u not in path:
                extend(path + [u])

    if src in alive and dst in alive:
        extend([src])
    if not paths:
        return None
    hops = min(map(len, paths))
    tied = [path for path in paths if len(path) == hops]
    return max(tied) if misroute else min(tied)


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
        rounds.append(VerticalRound(assignment, loads, now))  # every switch picks again
        if not now:
            break
        failed |= now
    return CascadeTrace("vertical", net, sc, tuple(rounds), tuple(warnings))


def reference_run_horizontal(net, sc):
    warnings = validate_horizontal(net, sc)
    alive = {v for v in range(net.node_count) if net.roles[v] != CONTROLLER}
    rounds = []
    while True:
        load, dropped, _ = reference_compute_loads(net, alive, sc)
        now = frozenset(
            v for v, x in load.items()
            if x > sc.node_capacity.get(v, INF)
        )
        rounds.append(HorizontalRound(load, dropped, now))
        if not now:
            break
        alive -= now
    return CascadeTrace("horizontal", net, sc, tuple(rounds), tuple(warnings))


def reference_csv(trace):
    """CascadeTrace.csv as it was, with subjects and capacities per row; a
    subject is down once an earlier round has failed it, whatever the loads
    hold."""
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
    down = set()
    for r, rnd in enumerate(trace.rounds, 1):
        for subject in subjects:
            if subject in down:
                load, status = "", "down"
            elif subject in rnd.failed_now:
                load, status = _fmt(rnd.loads[subject]), "failed"
            else:
                load, status = _fmt(rnd.loads[subject]), "ok"
            lines.append(f"{r},{subject},{load},{_fmt(caps.get(subject, INF))},{status}")
        down |= rnd.failed_now
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

small_route_networks = st.one_of(networks(max_nodes=8), sparse_networks(max_nodes=8),
                                 grids().filter(lambda net: net.node_count <= 8))


@settings(deadline=None, max_examples=300)
@given(st.data(), small_route_networks, st.booleans())
def test_route_demand_matches_brute_force_enumeration(data, net, misroute):
    assume(net.node_count >= 2)
    nodes = range(net.node_count)
    alive = data.draw(st.one_of(st.just(set(nodes)), st.sets(st.sampled_from(nodes))))
    src, dst = data.draw(st.lists(st.integers(0, net.node_count - 1),
                                  min_size=2, max_size=2, unique=True))
    assert route_demand(net, alive, src, dst, misroute) == \
        brute_force_route(net, alive, src, dst, misroute)


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
    # any switches, in any order and passed once as an iterator, get the
    # oracle's pick for each, in the order given; the default is every switch
    net, _ = case
    ctrls = list(net.controllers())
    failed = set()
    for _ in range(data.draw(st.integers(1, 5))):
        expected = reference_assign_switches(net, failed)
        assert list(assign_switches(net, failed).items()) == list(expected.items())
        some = data.draw(st.permutations(net.switches()))
        some = some[:data.draw(st.integers(0, len(some)))]
        got = assign_switches(net, failed, iter(some))
        assert list(got.items()) == [(sw, expected[sw]) for sw in some]
        failed = failed | data.draw(st.sets(st.sampled_from(ctrls)))


def check_picks_fold_to_the_oracle(got, expected):
    # the engine's picks over rounds 1..r, folded in order, are the oracle's
    # round-r map from scratch: keys in switch order, values equal
    assignment = {}
    for a, b in zip(got.rounds, expected.rounds, strict=True):
        assignment.update(a.picked)
        assert list(assignment.items()) == list(b.picked.items())


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


def test_horizontal_run_on_a_40x40_grid_matches_the_oracles(monkeypatch):
    # the drawn grids are at most 4x4; this one is the size of the benchmark's
    # cascade: 1 node in 10 has capacity 2 and 150 unit demands cross it
    rng = random.Random(1600)
    net = grid(40, 40)
    n = net.node_count
    caps = {v: 2.0 for v in rng.sample(range(n), n // 10)}
    demands = [(*rng.sample(range(n), 2), 1.0) for _ in range(150)]
    calls = []

    def recording_route(net, alive, src, dst, misroute=False):
        path = route_demand(net, alive, src, dst, misroute)
        calls.append((frozenset(alive), src, dst, misroute, path))
        return path

    monkeypatch.setattr(failprop.cascades, "route_demand", recording_route)
    sc = HorizontalScenario(caps, demands)
    trace = run_horizontal(net, sc)
    assert len(trace.rounds) > 2
    routed = {}
    for alive, src, dst, _, path in calls:
        routed.setdefault(alive, []).append((src, dst, path))
    # each round against a full reroute; the calls made in a round are checked
    # against the oracle's path for the same flow over the same alive set
    alive = set(range(n))
    for rnd in trace.rounds:
        load, dropped, paths = reference_compute_loads(net, alive, sc)
        assert exact(rnd.loads) == exact(load)
        assert rnd.dropped == dropped
        oracle = {(d.src, d.dst): path for d, path in zip(sc.demands, paths)}
        for src, dst, path in routed.pop(frozenset(alive), ()):
            assert path == oracle[src, dst]
        alive -= rnd.failed_now
    assert not routed
    calls.clear()
    run_horizontal(net, HorizontalScenario(caps, demands, misroute=True))
    assert calls
    for alive, src, dst, misroute, path in calls:
        assert path == reference_route_demand(net, alive, src, dst, misroute)


@pytest.mark.parametrize("misroute", [False, True])
def test_horizontal_run_routes_the_flows_that_crossed_a_failed_node(monkeypatch, misroute):
    # the model fixes the number of route_demand calls, which the benchmark's
    # tracer counts: round 1 routes every flow, and round r > 1 exactly the
    # flows whose round r - 1 path holds a node that failed in round r - 1
    rng = random.Random(1600)
    net = grid(40, 40)
    n = net.node_count
    caps = {v: 2.0 for v in rng.sample(range(n), n // 10)}
    demands = [(*rng.sample(range(n), 2), 1.0) for _ in range(150)]
    sc = HorizontalScenario(caps, demands, misroute=misroute)
    calls = Counter()

    def counting_route(net, alive, src, dst, misroute=False):
        calls[frozenset(alive)] += 1
        return route_demand(net, alive, src, dst, misroute)

    monkeypatch.setattr(failprop.cascades, "route_demand", counting_route)
    trace = run_horizontal(net, sc)
    expected = Counter()
    alive = frozenset(range(n))
    last = None  # the round before: its oracle paths and its failed_now
    for rnd in trace.rounds:
        if last is None:
            expected[alive] = len(demands)
        else:
            paths, failed = last
            expected[alive] = sum(p is not None and not failed.isdisjoint(p) for p in paths)
        last = reference_compute_loads(net, set(alive), sc)[2], rnd.failed_now
        alive -= rnd.failed_now
    assert len(trace.rounds) > 2
    assert calls == expected


@settings(deadline=None)
@given(vertical_cases())
def test_vertical_run_matches_full_recompute_oracle(case):
    net, sc = case
    got, expected = run_vertical(net, sc), reference_run_vertical(net, sc)
    check_same_trace(got, expected)
    check_picks_fold_to_the_oracle(got, expected)


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
    low = run_vertical(net, sc).failed
    high = run_vertical(net, higher).failed
    assert low <= high


def vertical_2000():
    """32 controllers, 2000 switches with 6 preferences each and rates like
    1.377, and an attacked switch that overloads its controllers in turn."""
    rng = random.Random(2000)
    n_ctrl, n_sw = 32, 2000
    ctrls = list(range(n_ctrl))
    switches = range(n_ctrl, n_ctrl + n_sw)
    roles = {**dict.fromkeys(ctrls, CONTROLLER), **dict.fromkeys(switches, EDGE_SWITCH)}
    prefs = {sw: rng.sample(ctrls, 6) for sw in switches}
    net = Network.from_edges(n_ctrl + n_sw, [(prefs[sw][0], sw) for sw in switches],
                             roles, prefs)
    rates = {sw: round(rng.uniform(0.1, 3.0), 3) for sw in switches}
    primary = dict.fromkeys(ctrls, 0.0)
    for sw in switches:
        primary[prefs[sw][0]] += rates[sw]
    mean = sum(primary.values()) / n_ctrl
    # the attacked switch overloads each of its 6 controllers in turn; the
    # others absorb their switches
    caps = {c: round(mean * rng.uniform(1.5, 2.0), 3) for c in ctrls}
    return net, VerticalScenario(caps, rates, (rng.choice(switches), 2.5 * mean))


def test_vertical_run_with_2000_switches_matches_the_oracle_bit_for_bit():
    # The drawn cases have at most 8 switches, and the benchmark's rates
    # are integers, whose sums are exact in any order. Here each of 32
    # controllers holds dozens of switches with rates like 1.377, which no
    # binary float holds exactly, so a load summed in another order than
    # switch order differs in its last bits.
    net, sc = vertical_2000()
    got, expected = run_vertical(net, sc), reference_run_vertical(net, sc)
    assert len(expected.rounds) >= 4
    assert 0 < len(expected.failed) < len(net.controllers())
    check_same_trace(got, expected)
    check_picks_fold_to_the_oracle(got, expected)


def test_vertical_run_reassigns_the_switches_of_the_failed_controllers(monkeypatch):
    # the model fixes what assign_switches is given, and the benchmark's
    # tracer counts its calls: round 1 maps every switch, and round r > 1
    # exactly the switches whose round r - 1 controller failed in round r - 1
    net, sc = vertical_2000()
    calls = []

    def recording_assign(net, failed_controllers, switches=None):
        if switches is not None:
            switches = list(switches)
        calls.append(switches)
        return assign_switches(net, failed_controllers, switches)

    monkeypatch.setattr(failprop.cascades, "assign_switches", recording_assign)
    trace = run_vertical(net, sc)
    rounds = reference_run_vertical(net, sc).rounds
    assert len(rounds) >= 4
    assert len(calls) == len(trace.rounds) == len(rounds)
    assert calls[0] is None
    assert list(trace.rounds[0].picked) == list(net.switches())
    for prev, got, rnd in zip(rounds, calls[1:], trace.rounds[1:]):
        expected = [sw for sw, c in prev.picked.items() if c in prev.failed_now]
        assert expected
        assert sorted(got) == expected
        assert list(rnd.picked) == got


def reference_terminal_json(trace):
    """CascadeTrace.terminal_json as it was: the pure-Python indented encoder."""
    last = trace.rounds[-1]
    if trace.kind == "vertical":
        assignment = {}
        for rnd in trace.rounds:
            assignment.update(rnd.picked)
        payload = {
            "kind": "vertical",
            "rounds": len(trace.rounds),
            "failed_controllers": sorted(trace.failed),
            "orphaned_switches": sorted(trace.orphaned_switches),
            "assignment": {str(sw): c for sw, c in assignment.items()},
            "loads": {str(c): load for c, load in last.loads.items()},
        }
    else:
        payload = {
            "kind": "horizontal",
            "rounds": len(trace.rounds),
            "failed_nodes": sorted(trace.failed),
            "dropped": [list(d) for d in last.dropped],
            "loads": {str(v): load for v, load in last.loads.items()},
        }
    if trace.warnings:
        payload["warnings"] = list(trace.warnings)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# floats whose text shows an encoder's choices: exponents, signed zero, inf
json_floats = st.one_of(st.sampled_from((0.0, -0.0, 1e16, 1.5e-7, 1e-300, INF, 2.5)),
                        st.floats(allow_nan=False))
node_ids = st.integers(0, 10**6)


@st.composite
def drawn_terminals(draw):
    """Fixed points an engine may never produce: a round that fails any ids,
    then a last round with any loads, picks, dropped flows and warnings,
    repeated 1-99 times."""
    failed = frozenset(draw(st.sets(node_ids, max_size=6)))
    loads = draw(st.dictionaries(node_ids, json_floats, max_size=8))
    warnings = tuple(draw(st.lists(st.text(max_size=12), max_size=3)))
    count = draw(st.integers(1, 99))
    if draw(st.booleans()):
        first, picked = (draw(st.dictionaries(node_ids, st.one_of(st.none(), node_ids),
                                              max_size=8)) for _ in range(2))
        rounds = (VerticalRound(first, {}, failed),
                  *(VerticalRound(picked, loads, frozenset()),) * count)
        return CascadeTrace("vertical", ring(3), None, rounds, warnings)
    flow = st.tuples(st.sampled_from(("demand", "injection")), node_ids, node_ids, json_floats)
    rounds = (HorizontalRound({}, (), failed),
              *(HorizontalRound(loads, tuple(draw(st.lists(flow, max_size=3))),
                                frozenset()),) * count)
    return CascadeTrace("horizontal", ring(3), None, rounds, warnings)


@settings(deadline=None, max_examples=200)
@given(st.one_of(drawn_terminals(),
                 vertical_cases().map(lambda case: run_vertical(*case)),
                 horizontal_cases().map(lambda case: run_horizontal(*case))))
def test_terminal_json_matches_the_indented_encoder(trace):
    assert trace.terminal_json() == reference_terminal_json(trace)


@settings(deadline=None, max_examples=200)
@given(st.one_of(vertical_cases().map(lambda case: run_vertical(*case)),
                 horizontal_cases().map(lambda case: run_horizontal(*case))))
def test_the_last_round_is_the_fixed_point(trace):
    # the quiet last round holds every failure, and a switch is orphaned
    # exactly when each controller it prefers has failed, whatever the
    # assignment says
    assert trace.rounds[-1].failed_now == frozenset()
    assert trace.failed == frozenset().union(*(rnd.failed_now for rnd in trace.rounds))
    if trace.kind == "vertical":
        prefs = trace.net.controller_prefs
        assert trace.orphaned_switches == {
            sw for sw in trace.net.switches() if trace.failed.issuperset(prefs.get(sw, ()))
        }


@settings(deadline=None, max_examples=200)
@given(st.one_of(vertical_cases().map(lambda case: run_vertical(*case)),
                 horizontal_cases().map(lambda case: run_horizontal(*case))))
def test_a_round_loads_exactly_the_subjects_no_earlier_round_failed(trace):
    # csv writes a subject missing from a round's loads as down, so the loads
    # cover exactly the controllers (or data-plane nodes) that failed in no
    # earlier round, and a round fails only subjects it loads
    net = trace.net
    up = set(net.controllers() if trace.kind == "vertical" else
             (v for v in range(net.node_count) if net.roles[v] != CONTROLLER))
    for rnd in trace.rounds:
        assert rnd.loads.keys() == up
        assert rnd.failed_now <= up
        up -= rnd.failed_now


def reference_events_csv(trace):
    event = "controller_failed" if trace.kind == "vertical" else "node_failed"
    lines = ["round,event,subject"]
    for r, rnd in enumerate(trace.rounds, 1):
        lines += [f"{r},{event},{v}" for v in sorted(rnd.failed_now)]
    if trace.kind == "vertical":
        last = len(trace.rounds)
        lines += [
            f"{last},switch_orphaned,{sw}"
            for sw in sorted(trace.orphaned_switches)
        ]
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=200)
@given(st.one_of(vertical_cases().map(lambda case: run_vertical(*case)),
                 horizontal_cases().map(lambda case: run_horizontal(*case))))
def test_cascade_events_csv_matches_the_reference(trace):
    assert trace.events_csv() == reference_events_csv(trace)


def test_vertical_path_never_builds_the_adjacency():
    # the vertical engine reads roles and preference lists only
    cfg = load_config("fig5a-vertical")
    net = build_network(cfg)
    sc = build_vertical_scenario(cfg, net)
    trace = run_vertical(net, sc)
    trace.csv()
    trace.events_csv()
    trace.terminal_json()
    render_resolved(cfg, scenario=sc, aliases=net.aliases)
    assert trace.failed
    assert "adj" not in vars(net)


def test_pooled_runs_build_the_adjacency_before_the_pool_starts(monkeypatch):
    # built in the caller, forked workers share it instead of each building it
    seen = []
    real_fork = os.fork

    def checking_fork():
        seen.append("adj" in vars(net))
        return real_fork()

    monkeypatch.setattr(os, "fork", checking_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # the fork counts below, on any host
    p = EpidemicParams("SIS", beta=0.4, delta1=0.3)
    net = ring(10)
    monte_carlo(net, {0}, p, 20, n_runs=4, n_jobs=2)
    net = ring(10)
    threshold_sweep(net, {0}, p, [0.1, 0.2], n_runs=2, max_ticks=20, n_jobs=2)
    assert seen == [True, True, True]


# --- edge-list parser against the line-by-line oracle ----------------------------

_REF_SECTIONS = ("nodes", "roles", "controllers")


def _ref_err(lineno, msg):
    return TopologyError(f"line {lineno}: {msg}")


def reference_network_checks(node_count, roles, edges, controller_prefs):
    """Network.__post_init__ when it checked every role, edge and preference
    in a loop; returns the adjacency it stored."""
    n = node_count
    if n < 1:
        raise TopologyError("node_count must be >= 1")
    if len(roles) != n:
        raise TopologyError(f"roles has {len(roles)} entries for {n} nodes")
    for v, role in enumerate(roles):
        if role not in ROLES:
            raise TopologyError(f"node {v}: unknown role {role!r}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        u, v = e
        if u == v:
            raise TopologyError(f"self-loop at node {u}")
        if not (0 <= u < v < n):
            raise TopologyError(f"edge {e} out of range or not normalized")
        adj[u].append(v)
        adj[v].append(u)
    for sw, prefs in controller_prefs.items():
        if not (0 <= sw < n):
            raise TopologyError(f"controller_prefs: unknown switch id {sw}")
        if roles[sw] not in SWITCH_ROLES:
            raise TopologyError(
                f"controller_prefs: node {sw} has role {roles[sw]}, not a switch"
            )
        if len(set(prefs)) != len(prefs):
            raise TopologyError(f"controller_prefs: duplicate controller for switch {sw}")
        for c in prefs:
            if not (0 <= c < n):
                raise TopologyError(f"controller_prefs: unknown controller id {c}")
            if roles[c] != CONTROLLER:
                raise TopologyError(
                    f"controller_prefs: node {c} has role {roles[c]}, not controller"
                )
    return tuple(tuple(sorted(x)) for x in adj)


def reference_from_edges(node_count, pairs, roles=None, controller_prefs=None, aliases=None):
    """Network.from_edges with that loop; returns the fields of the
    Network it built."""
    seen: set[tuple[int, int]] = set()
    for u, v in pairs:
        if u == v:
            raise TopologyError(f"self-loop at node {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise TopologyError(f"duplicate edge {u} {v}")
        seen.add(e)
    role_list = [GENERIC] * node_count
    for v, role in (roles or {}).items():
        if not (0 <= v < node_count):
            raise TopologyError(f"role for unknown node id {v}")
        role_list[v] = role
    prefs = {sw: tuple(cs) for sw, cs in (controller_prefs or {}).items()}
    role_tuple, edges = tuple(role_list), frozenset(seen)
    adj = reference_network_checks(node_count, role_tuple, edges, prefs)
    return node_count, role_tuple, edges, prefs, aliases, adj


def reference_load_edge_list(source):
    """load_edge_list when it read line by line, taking the last of
    repeated [roles], [controllers] and count= lines."""
    text = source if isinstance(source, str) else source.read()
    section = ""
    edge_tokens: list[tuple[int, str, str]] = []  # (lineno, u, v)
    role_lines: list[tuple[int, str, str]] = []  # (lineno, token, role)
    pref_lines: list[tuple[int, str, list[str]]] = []  # (lineno, token, [tokens])
    declared_count: int | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _REF_SECTIONS:
                raise _ref_err(lineno, f"unknown section [{section}]")
            continue
        if section == "":
            parts = line.split()
            if len(parts) != 2:
                raise _ref_err(lineno, f"expected 'u v', got {line!r}")
            edge_tokens.append((lineno, parts[0], parts[1]))
        elif section == "nodes":
            key, sep, value = line.partition("=")
            if sep != "=" or key.strip() != "count":
                raise _ref_err(lineno, f"expected 'count=N' in [nodes], got {line!r}")
            count = value.strip()
            try:
                if "_" in count or not count.isascii():  # int() would read these
                    raise ValueError(count)
                declared_count = int(count)
            except ValueError:
                raise _ref_err(lineno, f"bad node count {count!r}") from None
            if declared_count < 1:
                raise _ref_err(lineno, "node count must be >= 1")
        elif section == "roles":
            token, sep, role = line.partition("=")
            if sep != "=":
                raise _ref_err(lineno, f"expected 'id=role', got {line!r}")
            if not token.strip():
                raise _ref_err(lineno, f"empty node id, got {line!r}")
            role_lines.append((lineno, token.strip(), role.strip()))
        elif section == "controllers":
            token, sep, rest = line.partition(":")
            if sep != ":":
                raise _ref_err(lineno, f"expected 'switch:ctrl,ctrl,...', got {line!r}")
            if not token.strip():
                raise _ref_err(lineno, f"empty node id, got {line!r}")
            if rest and not all(t.strip() for t in rest.split(",")):
                raise _ref_err(lineno, f"empty controller item, got {line!r}")
            ctrls = [t.strip() for t in rest.split(",") if t.strip()]
            pref_lines.append((lineno, token.strip(), ctrls))

    node_tokens: list[str] = []
    for _, u, v in edge_tokens:
        node_tokens.extend((u, v))
    for _, t, _ in role_lines:
        node_tokens.append(t)
    for _, t, cs in pref_lines:
        node_tokens.append(t)
        node_tokens.extend(cs)

    def _is_int(tok: str) -> bool:
        if "_" in tok or not tok.isascii():  # int() would read these
            return False
        try:
            int(tok)
            return True
        except ValueError:
            return False

    integer_mode = all(_is_int(t) for t in node_tokens)
    aliases: dict[str, int] | None = None
    if integer_mode:
        resolve = {t: int(t) for t in node_tokens}
    else:
        # names get dense ids in order of first appearance
        aliases = {}
        for t in node_tokens:
            if t not in aliases:
                aliases[t] = len(aliases)
        resolve = aliases

    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, ut, vt in edge_tokens:
        u, v = resolve[ut], resolve[vt]
        if u == v:
            raise _ref_err(lineno, f"self-loop at node {ut}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise _ref_err(lineno, f"duplicate edge {ut} {vt}")
        seen.add(e)
        pairs.append(e)

    ids = sorted(set(resolve[t] for t in node_tokens)) if node_tokens else []
    if ids and ids[0] < 0:
        raise TopologyError(f"negative node id {ids[0]}")
    if declared_count is not None:
        n = declared_count
        if ids and ids[-1] >= n:
            raise TopologyError(f"node id {ids[-1]} exceeds declared count {n}")
    else:
        if not ids:
            raise TopologyError("empty edge list and no [nodes] count")
        n = ids[-1] + 1
        if len(ids) != n or ids[0] != 0:
            # the first 10 missing ids, and their count when there are more
            present, missing, v = set(ids), [], 0
            while len(missing) < min(10, n - len(ids)):
                if v not in present:
                    missing.append(v)
                v += 1
            if n - len(ids) > 10:
                missing = f"{n - len(ids)} ids, first {missing}"
            raise TopologyError(f"node ids not contiguous from 0 (missing {missing})")

    role_map: dict[int, str] = {}
    for lineno, token, role in role_lines:
        if role not in ROLES:
            raise _ref_err(lineno, f"unknown role {role!r}")
        v = resolve[token]
        if v >= n:
            raise _ref_err(lineno, f"dangling role id {token}")
        role_map[v] = role

    prefs: dict[int, Iterable[int]] = {}
    for lineno, token, ctrls in pref_lines:
        sw = resolve[token]
        if sw >= n:
            raise _ref_err(lineno, f"dangling switch id {token}")
        cs = []
        for ct in ctrls:
            c = resolve[ct]
            if c >= n:
                raise _ref_err(lineno, f"dangling controller id {ct}")
            cs.append(c)
        prefs[sw] = cs

    return reference_from_edges(n, pairs, role_map, prefs, aliases)


def outcome(fn, *args):
    """A parse result as comparable data: the Network's fields, with alias
    and preference order, and its adjacency; or the error class and text."""
    try:
        got = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle's error is the expectation
        return type(exc), str(exc)
    if isinstance(got, Network):
        got = (got.node_count, got.roles, got.edges, got.controller_prefs, got.aliases, got.adj)
    n, roles, edges, prefs, aliases, adj = got
    return n, roles, edges, list(prefs.items()), aliases and list(aliases.items()), adj


PLANTS = (
    "self-loop", "duplicate edge", "negative id", "gap in ids", "dangling id", "unknown role",
    "duplicate controller", "non-controller preference", "non-switch preference",
    "new nodes in [controllers]", "bad edge line", "unknown section", "half a header",
    "bad role line", "bad controllers line", "bad count", "empty controller item",
    "empty node id",
    # twice as likely: each needs a document that passes every earlier check
    "duplicate controller", "non-controller preference", "new nodes in [controllers]",
    "half a header", "bad count",
)


@st.composite
def edge_documents(draw):
    """Edge-list text: integer, name and mixed tokens, comments, blank
    lines, empty and repeated section headers, and up to two planted errors.
    No node gets two [roles] or [controllers] lines and there is at most one
    count= line: the oracle let the last of those win, where load_edge_list
    rejects them."""
    n = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(("int", "names", "mixed")))
    named = {v: mode == "names" or (mode == "mixed" and draw(st.booleans()))
             for v in range(-1, n + 2)}
    # in one document of four, spellings that int() reads but that are not
    # numbers (`1_0`, a non-ASCII digit) and so make the file names-mode
    odd = draw(st.integers(0, 3)) == 0

    def tok(v):
        if named[v]:
            return f"n{v}"
        # int() reads all of these; as names (in mixed mode) they differ
        spellings = [str(v)] * 3 + ([f"0{v}", f"+{v}"] if v >= 0 else [])
        spellings += ["-0"] if v == 0 else []
        spellings += [f"{v}_0", chr(0x660 + v)] if odd and v >= 0 else []
        return draw(st.sampled_from(spellings))

    def pad():
        return draw(st.sampled_from(("", "", " ", "\t")))

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    edges = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        edges.append(f"{tok(u)}{draw(st.sampled_from((' ', '  ', chr(9))))}{tok(v)}")
    # room for the extra names that mixed spellings make, most of the time
    count = draw(st.sampled_from((None, n, n + 3, n + 3)))
    role_ids = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=n // 2, max_size=n))
    weighted = st.sampled_from(ROLES + (CONTROLLER, EDGE_SWITCH))
    roles = [(v, draw(weighted)) for v in role_ids]
    if draw(st.integers(0, 2)):
        # mostly switches with lists of distinct controllers
        if len(roles) >= 2:
            # at least one of each, so that lists are not empty
            roles[:2] = [(roles[0][0], CONTROLLER), (roles[1][0], EDGE_SWITCH)]
        switches = [v for v, r in roles if r in SWITCH_ROLES]
        ctrls = [v for v, r in roles if r == CONTROLLER]
        pref_ids = []
        if switches:
            pref_ids = draw(st.lists(st.sampled_from(switches), unique=True, min_size=1))
        prefs = [(sw, draw(st.permutations(ctrls))[:draw(st.integers(min(1, len(ctrls)),
                                                                     len(ctrls)))])
                 for sw in pref_ids]
    else:
        pref_ids = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        prefs = [(sw, draw(st.lists(st.integers(0, n - 1), max_size=3))) for sw in pref_ids]

    # up to two planted errors, so the first of two line errors must win
    k = draw(st.integers(0, 2))
    planted = draw(st.lists(st.sampled_from(PLANTS), unique=True, min_size=k, max_size=k))
    ctrl_ids = [v for v, r in roles if r == CONTROLLER]
    for plant in planted:
        if plant == "self-loop":
            v = draw(st.integers(0, n - 1))
            edges.insert(draw(st.integers(0, len(edges))), f"{tok(v)} {tok(v)}")
        elif plant == "duplicate edge" and edges:
            i = draw(st.integers(0, len(edges) - 1))
            edges.insert(draw(st.integers(i + 1, len(edges))),
                         " ".join(reversed(edges[i].split())))
        elif plant == "negative id":
            edges.insert(draw(st.integers(0, len(edges))), f"{tok(-1)} {tok(0)}")
        elif plant == "gap in ids":
            edges.append(f"{tok(0)} {tok(n + 1)}")
        elif plant == "dangling id":
            roles.append((n + 1, draw(st.sampled_from(ROLES))))
        elif plant == "unknown role":
            roles.append((n, "hub"))
        elif plant == "bad edge line":
            edges.insert(draw(st.integers(0, len(edges))), draw(st.sampled_from(("0", "0 1 2"))))
        elif plant == "duplicate controller" and any(cs for _, cs in prefs):
            sw, cs = draw(st.sampled_from([p for p in prefs if p[1]]))
            cs.insert(draw(st.integers(0, len(cs))), draw(st.sampled_from(cs)))
        elif plant == "non-controller preference" and prefs:
            sw, cs = draw(st.sampled_from(prefs))
            others = [v for v in range(n) if v not in ctrl_ids]
            if others:
                cs.insert(draw(st.integers(0, len(cs))), draw(st.sampled_from(others)))
        elif plant == "non-switch preference":
            others = [v for v in range(n) if v not in pref_ids
                      and dict(roles).get(v) not in SWITCH_ROLES]
            if others:
                prefs.insert(draw(st.integers(0, len(prefs))), (draw(st.sampled_from(others)),
                                                                ctrl_ids[:1]))
        elif plant == "new nodes in [controllers]":
            # in names mode the switch's id comes before its controller's
            prefs.append((n + 1, [n]))
            count = None

    role_lines = [f"{tok(v)}{pad()}={pad()}{role}" for v, role in roles]
    pref_lines = []
    empty_at = -1  # the preference line given an empty item
    if "empty controller item" in planted and prefs:
        empty_at = draw(st.integers(0, len(prefs) - 1))
    for i, (sw, cs) in enumerate(prefs):
        sep = draw(st.sampled_from((",", ",", ", ", " ,")))
        tail = draw(st.sampled_from(("", "", " ")))
        items = [tok(c) for c in cs]
        # `sw:1,,2`, `sw:1,`, `sw:,1`; an empty list needs two items to show a comma
        for _ in range(2 if i == empty_at and not items else int(i == empty_at)):
            items.insert(draw(st.integers(0, len(items))), draw(st.sampled_from(("", " "))))
        pref_lines.append(f"{tok(sw)}{pad()}:{pad()}{sep.join(items)}{tail}")
    count_lines = [] if count is None else [f"count{pad()}={pad()}{count}"]
    if "bad role line" in planted:
        role_lines.insert(draw(st.integers(0, len(role_lines))), "0 controller")
    if "bad controllers line" in planted:
        pref_lines.insert(draw(st.integers(0, len(pref_lines))), "0;1")
    if "empty node id" in planted:
        # `:0,` has an empty item too; its id is the first error on the line
        if draw(st.booleans()):
            role_lines.insert(draw(st.integers(0, len(role_lines))), f"{pad()}={pad()}controller")
        else:
            rest = draw(st.sampled_from(("", tok(0), f"{tok(0)},")))
            pref_lines.insert(draw(st.integers(0, len(pref_lines))), f"{pad()}:{pad()}{rest}")
    if "bad count" in planted:
        count_lines = [draw(st.sampled_from(("count=x", "count=0", "count=-1", "count=1_0",
                                             "count=\u0663", "size=3", "count")))]

    def header(name):
        return draw(st.sampled_from((f"[{name}]", f"[ {name} ]", f"[{name.upper()}]")))

    blocks = []  # section headers with their lines; a section may come twice
    for name, lines in (("nodes", count_lines), ("roles", role_lines),
                        ("controllers", pref_lines)):
        if lines or draw(st.booleans()):
            cut = draw(st.integers(0, len(lines)))
            blocks.append([header(name)] + lines[:cut])
            if cut < len(lines) or draw(st.integers(0, 3)) == 0:
                blocks.append([header(name)] + lines[cut:])
    blocks = draw(st.permutations(blocks))
    if "unknown section" in planted:
        blocks.insert(draw(st.integers(0, len(blocks))), ["[weights]", "0=1"])

    out = []
    for line in edges + [line for block in blocks for line in block]:
        extra = draw(st.sampled_from(("", "", "", "blank", "comment", "note")))
        if extra == "blank":
            out.append(draw(st.sampled_from(("", "   "))))
        elif extra == "comment":
            out.append(draw(st.sampled_from(("# a comment", "#[roles]", "  # 0 0"))))
        out.append(line + ("  # note: 0:1" if extra == "note" else ""))
    if "half a header" in planted:
        # not a header: a malformed line of whatever section it lands in
        out.insert(draw(st.integers(0, len(out))), draw(st.sampled_from(("[roles", "nodes]"))))
    return "\n".join(out) + draw(st.sampled_from(("\n", "")))


# a document that reaches a given late check is rare among all documents
@settings(deadline=None, max_examples=1000)
@given(edge_documents())
def test_load_edge_list_matches_line_by_line_oracle(text):
    assert outcome(load_edge_list, text) == outcome(reference_load_edge_list, text)


def reference_split_sections(text):
    """split_sections when it read each line as `raw.split("#", 1)[0]`."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    parts = []
    name, head, linenos, kept = "", 0, [], []
    for lineno, line in enumerate(lines, start=1):
        if line[:1] == "[" and line[-1:] == "]":
            parts.append((name, head, linenos, kept))
            name, head, linenos, kept = line[1:-1].strip().lower(), lineno, [], []
        elif line:
            linenos.append(lineno)
            kept.append(line)
    parts.append((name, head, linenos, kept))
    return parts


# every break str.splitlines knows, and "" for no break; \x1f, which
# strip() removes but which breaks no line, is line text
LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029", "")


@settings(deadline=None, max_examples=1000)
@given(st.lists(st.tuples(st.text(st.sampled_from("0aR= \t\x1f#[]"), max_size=6),
                          st.sampled_from(LINE_BREAKS)), max_size=12)
       .map(lambda lines: "".join(map("".join, lines))))
# `\r#\n` is two line breaks: a comment cut away must not join them, or
# every later line number shifts; drawn texts rarely hold the trap
@example("\r#\n0\n")
@example("[R]\r# 0\n0 a\r\n#\x85a")
def test_split_sections_matches_line_by_line_reading(text):
    assert split_sections(text) == reference_split_sections(text)


@settings(deadline=None)
@given(st.data(), st.integers(1, 6))
def test_from_edges_matches_oracle(data, n):
    nodes = st.integers(0, n - 1)
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = []
    if all_pairs:
        chosen = data.draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=8))
    pairs = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in chosen]
    bad = data.draw(st.sampled_from((None, None, "self-loop", "duplicate", "out of range")))
    if bad == "self-loop":
        pairs.insert(data.draw(st.integers(0, len(pairs))), (n - 1, n - 1))
    elif bad == "duplicate" and pairs:
        u, v = data.draw(st.sampled_from(pairs))
        pairs.append(data.draw(st.sampled_from(((u, v), (v, u)))))
    elif bad == "out of range":
        # one only: with more, the one reported depends on set order
        pairs.append(data.draw(st.sampled_from(((-1, 0), (0, n), (n, n + 1)))))
    roles = data.draw(st.dictionaries(nodes, st.sampled_from(ROLES + (CONTROLLER, EDGE_SWITCH)),
                                      max_size=n))
    if data.draw(st.integers(0, 4)) == 0:
        key = data.draw(st.sampled_from((-1, 0, n)))
        roles[key] = data.draw(st.sampled_from(ROLES + ("router",)))
    # preference keys mostly switches and entries mostly controllers, so the
    # checks past the first one are reached
    switches = [v for v, r in roles.items() if r in SWITCH_ROLES] or [-1]
    ctrls = [v for v, r in roles.items() if r == CONTROLLER] or [n]
    prefs = data.draw(st.dictionaries(
        st.one_of(st.sampled_from(switches), st.integers(-1, n)),
        st.lists(st.one_of(st.sampled_from(ctrls), st.integers(-1, n)), max_size=3),
        max_size=3,
    ))
    lazy = data.draw(st.booleans())  # pairs may come from a generator

    def build(fn):
        return outcome(fn, n, iter(pairs) if lazy else list(pairs), roles, prefs)

    assert build(Network.from_edges) == build(reference_from_edges)


@st.composite
def annotated_networks(draw):
    n = draw(st.integers(1, 8))
    roles = draw(st.lists(st.sampled_from(ROLES), min_size=n, max_size=n))
    ctrls = [v for v, r in enumerate(roles) if r == CONTROLLER]
    prefs = {}
    for v, r in enumerate(roles):
        if r in SWITCH_ROLES and draw(st.booleans()):
            prefs[v] = draw(st.permutations(ctrls))[:draw(st.integers(0, len(ctrls)))]
    linked = draw(st.integers(1, n))  # nodes linked.. n-1 are isolated
    pairs = [(u, v) for u in range(linked) for v in range(u + 1, linked)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Network.from_edges(n, edges, dict(enumerate(roles)), prefs)


@settings(deadline=None)
@given(annotated_networks())
def test_edge_list_round_trip_is_byte_identical(net):
    text = serialize_edge_list(net)
    again = load_edge_list(text)
    assert serialize_edge_list(again) == text
    assert again == net


# ---------------------------------------------------------------------------
# resolved-config.txt


def reference_id(net, token, name):
    """The id of the node a token names, with zeros put in front while the
    plain id is another node's alias."""
    v = resolve_node(net, token, name)
    text = str(v)
    while net.aliases and text in net.aliases and net.aliases[text] != v:
        text = "0" + text
    return text


def reference_render_resolved(cfg, net):
    """Canonical text for the effective experiment; reloading it reproduces
    the run (defaults written out, aliases replaced by ids, seed explicit).
    The output directory and n_jobs are deliberately left out: where
    results land and the (ignored) job count are not part of the
    experiment."""
    lines: list[str] = ["[topology]"]
    if cfg.topology_generate is not None:
        lines.append(f"generate={cfg.topology_generate}")
        lines.append(f"gen_seed={cfg.gen_seed}")
    else:
        lines.append(f"file={(cfg.base_dir / cfg.topology_file).resolve()}")

    if cfg.model is not None:
        p = cfg.model
        lines += [
            "", "[model]",
            f"model={p.model}",
            f"beta={_fmt(p.beta)}",
            f"delta1={_fmt(p.delta1)}",
            f"tau={_fmt(p.tau)}",
            f"gamma={_fmt(p.gamma)}",
            "seeds=" + ",".join(reference_id(net, t, "seeds") for t in cfg.seed_tokens),
        ]

    lines += [
        "", "[run]",
        f"max_ticks={cfg.max_ticks}",
        f"n_runs={cfg.n_runs}",
        f"rng_seed={cfg.rng_seed}",
        f"stop={cfg.stop}",
        f"epsilon={_fmt(cfg.epsilon)}",
    ]

    if cfg.grid is not None:
        lines += ["", "[sweep]", "grid=" + ",".join(_fmt(b) for b in cfg.grid)]

    if cfg.scenario_kind is not None:
        lines += ["", "[scenario]", f"kind={cfg.scenario_kind}"]
        if cfg.scenario_kind == "horizontal":
            lines.append(f"misroute={'true' if cfg.misroute else 'false'}")
        if cfg.capacity_lines:
            lines += ["", "[capacity]"]
            lines += [
                f"{reference_id(net, k, 'capacity')}={_fmt(_as_float(v, 'capacity'))}"
                for k, v in cfg.capacity_lines
            ]
        if cfg.rate_lines:
            lines += ["", "[rate]"]
            lines += [
                f"{reference_id(net, k, 'rate')}={_fmt(_as_float(v, 'rate'))}"
                for k, v in cfg.rate_lines
            ]
        if cfg.attack_line is not None:
            k, v = cfg.attack_line
            lines += ["", "[attack]",
                      f"{reference_id(net, k, 'attack')}={_fmt(_as_float(v, 'attack'))}"]
        if cfg.demand_lines:
            lines += ["", "[demand]"]
            lines += [
                ",".join((
                    reference_id(net, s, "demand src"),
                    reference_id(net, d, "demand dst"),
                    _fmt(_as_float(vol, "demand volume")),
                ))
                for s, d, vol in cfg.demand_lines
            ]
        if cfg.injection_line is not None:
            e, x, vol = cfg.injection_line
            lines += ["", "[injection]",
                      ",".join((
                          reference_id(net, e, "injection entry"),
                          reference_id(net, x, "injection exit"),
                          _fmt(_as_float(vol, "injection volume")),
                      ))]

    return "\n".join(lines) + "\n"


def spelled(x):
    """A number as a config might spell it: integral values sometimes with
    a fractional part written out, others in repr form."""
    return st.sampled_from([str(x), f"{x}.0"]) if isinstance(x, int) else st.just(repr(x))


def spelled_amounts(hi=60.0):
    return st.one_of(st.integers(0, int(hi)), st.floats(0, hi)).flatmap(spelled)


def spelled_probabilities(hi=1.0):
    return st.one_of(st.sampled_from([0, 1] if hi >= 1 else [0]),
                     st.floats(0, hi)).flatmap(spelled)


@st.composite
def topologies(draw):
    """(the [topology] lines, edge-list text or None, per-node spellings,
    ambiguous tokens).

    A node is spelled by id (`3`, `+3`, `03`) or by alias, integer-named
    aliases included, whenever the spelling names no other node. The
    ambiguous tokens are the integer-named aliases of nodes with another
    id, such as `5` for node 1: a reference to one is an error."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 7))
        names = draw(st.lists(
            st.one_of(st.from_regex(r"[a-z][a-z0-9_-]{0,3}", fullmatch=True),
                      st.integers(0, 9).map(str), st.integers(0, 9).map("0{}".format)),
            min_size=n, max_size=n, unique=True,
        ))
        if all(name.isdigit() for name in names):
            names[0] = "sw"
        order = draw(st.permutations(range(1, n)))
        edges = [(names[draw(st.integers(0, v - 1))], names[v]) for v in order]
        text = "".join(f"{u} {v}\n" for u, v in edges)
        aliases = load_edge_list(text).aliases
        lines = ["file=net.edges"]
    else:
        kind = draw(st.sampled_from(["ring", "grid", "ba"]))
        if kind == "ring":
            params = [draw(st.integers(3, 7))]
        elif kind == "grid":
            params = [draw(st.integers(1, 3)), draw(st.integers(2, 3))]
        else:
            params = [draw(st.integers(3, 7)), draw(st.integers(1, 2))]
        n = params[0] * params[1] if kind == "grid" else params[0]
        text, aliases = None, {}
        lines = ["generate=" + ":".join([kind, *map(str, params)]),
                 f"gen_seed={draw(st.integers(0, 99))}"]
    spellings = []
    for v in range(n):
        options = [t for t in (str(v), f"+{v}", f"0{v}") if aliases.get(t, v) == v]
        options += [name for name, u in aliases.items()
                    if u == v and not (name.isdigit() and int(name) != v)]
        spellings.append(list(dict.fromkeys(options)))
    ambiguous = [name for name, u in aliases.items() if name.isdigit() and int(name) != u]
    return lines, text, spellings, ambiguous


@st.composite
def experiments(draw):
    """(config text, edge-list text or None) of an epidemic, sweep,
    vertical or horizontal experiment."""
    topology, edges, spellings, ambiguous = draw(topologies())
    n = len(spellings)
    kind = draw(st.sampled_from(["epidemic", "sweep", "vertical", "horizontal"]))

    def node(v=None):
        if ambiguous and draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from(ambiguous))
        v = draw(st.integers(0, n - 1)) if v is None else v
        return draw(st.sampled_from(spellings[v]))

    def node_values(name):
        nodes = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        if not nodes and draw(st.booleans()):
            return []
        keys = dict.fromkeys(node(v) for v in nodes)  # an ambiguous token may come twice
        return ["", f"[{name}]"] + [f"{k}={draw(spelled_amounts())}" for k in keys]

    lines = ["[topology]", *topology]
    if kind in ("epidemic", "sweep"):
        model = draw(st.sampled_from(MODELS))
        delta1 = draw(spelled_probabilities(0.5)) if model != "SI" else "0"
        tau, gamma = "0", "0"
        if model == "SID":
            tau, gamma = draw(spelled_probabilities(0.5)), draw(spelled_probabilities())
        nodes = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1, max_size=4))
        seeds = dict.fromkeys(node(v) for v in nodes)  # an ambiguous token may come twice
        lines += ["", "[model]", f"model={model}", f"beta={draw(spelled_probabilities())}",
                  f"delta1={delta1}", f"tau={tau}", f"gamma={gamma}",
                  "seeds=" + draw(st.sampled_from([",", " , "])).join(seeds)]
    if kind == "sweep":
        grid = sorted(draw(st.lists(st.floats(0.01, 1), min_size=1, max_size=4, unique=True)))
        lines += ["", "[sweep]", "grid=" + ",".join(map(repr, grid))]
    if draw(st.booleans()):
        lines += ["", "[run]", f"max_ticks={draw(st.integers(1, 500))}",
                  f"n_runs={draw(st.integers(1, 50))}", f"rng_seed={draw(st.integers(0, 2**32))}",
                  f"stop={draw(st.sampled_from(['absorb', 'fixed_ticks']))}",
                  f"epsilon={draw(st.floats(0.01, 0.99).flatmap(spelled))}",
                  f"n_jobs={draw(st.integers(1, 4))}"]
    if kind in ("vertical", "horizontal"):
        lines += ["", "[scenario]", f"kind={kind}"]
        if kind == "horizontal" and draw(st.booleans()):
            flag = draw(st.sampled_from(["true", "false", "yes", "no", "1", "0"]))
            lines.append(f"misroute={flag}")
        lines += node_values("capacity")
    if kind == "vertical":
        lines += node_values("rate")
        if draw(st.booleans()):
            lines += ["", "[attack]", f"{node()}={draw(spelled_amounts(200))}"]
    if kind == "horizontal":
        demands = [f"{node()} , {node()},{draw(spelled_amounts())}"
                   for _ in range(draw(st.integers(0, 4)))]
        if demands:
            lines += ["", "[demand]", *demands]
        if draw(st.booleans()):
            lines += ["", "[injection]", f"{node()},{node()} , {draw(spelled_amounts(200))}"]
    if draw(st.booleans()):
        lines += ["", "[output]", "dir=results"]
    return "\n".join(lines) + "\n", edges


def resolved(cfg, net):
    """The seed ids or the scenario a run resolves from `cfg`."""
    if cfg.scenario_kind == "vertical":
        return build_vertical_scenario(cfg, net)
    if cfg.scenario_kind == "horizontal":
        return build_horizontal_scenario(cfg, net)
    return resolve_seeds(cfg, net)


def render(cfg, values, net):
    if cfg.scenario_kind is None:
        return render_resolved(cfg, values, aliases=net.aliases)
    return render_resolved(cfg, scenario=values, aliases=net.aliases)


def ambiguity_errors(cfg, net):
    """The error text of each node token of `cfg` that is the alias of one
    node and the `int()` spelling of another id."""
    tokens = [*cfg.seed_tokens, *(k for k, _ in cfg.capacity_lines),
              *(k for k, _ in cfg.rate_lines), *(cfg.attack_line or ())[:1],
              *(t for s, d, _ in cfg.demand_lines for t in (s, d)),
              *(cfg.injection_line or ())[:2]]
    found = set()
    for t in map(str.strip, tokens):
        if net.aliases and t in net.aliases:
            try:
                v = int(t)
            except ValueError:
                continue
            if v != net.aliases[t]:
                found.add(f"{t!r} is ambiguous: alias {t!r} (node {net.aliases[t]}) or node id {v}")
    return found


@settings(deadline=None)
@given(experiments())
def test_render_resolved_matches_token_oracle_and_is_a_fixed_point(case):
    text, edges = case
    with tempfile.TemporaryDirectory() as d:
        if edges is not None:
            (Path(d) / "net.edges").write_text(edges)
        cfg = parse_config(text, base_dir=d)
        net = build_network(cfg)
        expected = ambiguity_errors(cfg, net)
        if expected:
            with pytest.raises(ConfigError) as exc:
                resolved(cfg, net)
            assert str(exc.value).split(": ", 1)[1] in expected
            return
        values = resolved(cfg, net)
        once = render(cfg, values, net)
        assert once == reference_render_resolved(cfg, net)
        cfg2 = parse_config(once, base_dir=d)
        net2 = build_network(cfg2)
        values2 = resolved(cfg2, net2)
        assert repr(values2) == repr(values)
        assert render(cfg2, values2, net2) == once
