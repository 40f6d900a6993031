"""Acceptance suite: one test per shipped guarantee, oracle-checked.

Each test states its independent oracle inline (solved linear system,
exhaustive enumeration, BFS, or a hand-enumerated fixed point) and
compares the engine against it. Runtime-limited tests assert their
budget too.
"""

import json
import math
import random
import time
from collections import deque

import numpy as np
import pytest

from failprop.cascades import (
    HorizontalScenario,
    VerticalScenario,
    run_horizontal,
    run_vertical,
)
from failprop.cli import main
from failprop.epidemic import (
    EpidemicParams,
    StateVector,
    infection_probability,
    initial_state,
    monte_carlo,
    run,
    step,
)
from failprop.metrics import dp_connectivity
from failprop.rng import derive_seed
from failprop.topology import Network, barabasi_albert, erdos_renyi, load_edge_list, ring


def test_ac01_isolated_node_occupancy_matches_stationary_distribution():
    # Oracle: stationary distribution of the 3-state chain with the S state
    # re-seeded to I deterministically, solved as a linear system. The
    # engine makes zero draws for an isolated S node, so the forced
    # re-seed consumes nothing from the stream and the comparison is exact.
    tau, delta1, gamma = 0.3, 0.2, 0.25
    P = np.array([
        [0.0, 1.0, 0.0],
        [delta1, 1.0 - tau - delta1, tau],
        [gamma, 0.0, 1.0 - gamma],
    ])
    A = P.T - np.eye(3)
    A[2] = 1.0
    pi_s, pi_i, pi_d = np.linalg.solve(A, [0.0, 0.0, 1.0])

    p = EpidemicParams(model="SID", beta=0.4, delta1=delta1, tau=tau, gamma=gamma)
    net = Network.from_edges(1, [])
    rng = random.Random(derive_seed(7, 0))
    sv = initial_state(net, {0})
    chunks, chunk = 10, 10 ** 5
    ticks = chunks * chunk
    occ = {"S": 0, "I": 0, "R": 0, "D": 0}
    # the same bookkeeping with one draw in place of `step`: the budget is a
    # ratio to this loop's time, so a slower or busier host moves both. The
    # two loops alternate chunk by chunk and the fastest chunk of each counts,
    # so load that lands on one loop and not the other does not move it
    draw = random.Random(0).random
    seen = dict.fromkeys(occ, 0)
    elapsed, calibration = [], []
    for _ in range(chunks):
        start = time.process_time()
        for _ in range(chunk):
            state = sv.states[0]
            occ[state] += 1
            if state == "S":
                sv = StateVector(states=("I",), tick=sv.tick + 1)
            else:
                sv = step(net, sv, p, rng)
        elapsed.append(time.process_time() - start)
        start = time.process_time()
        for _ in range(chunk):
            state = sv.states[0]
            seen[state] += 1
            draw()
        calibration.append(time.process_time() - start)

    assert occ["R"] == 0
    assert abs(occ["S"] / ticks - pi_s) <= 0.005
    assert abs(occ["I"] / ticks - pi_i) <= 0.005
    assert abs(occ["D"] / ticks - pi_d) <= 0.005
    # ten ratios of this form measured 53.9-58.8 (55.6, 58.0, 56.6, 58.8, 57.9,
    # 57.9, 55.9, 57.6, 53.9, 56.5; Python 3.11.7 on a shared 2-core VM)
    assert min(elapsed) / min(calibration) < 65.0


def test_ac02_infection_probability_matches_bernoulli_enumeration():
    # Oracle: sum the probability of every joint outcome of k independent
    # transmission attempts that contains at least one success.
    for beta in (0.1, 0.5, 0.9):
        for k in range(11):
            brute = 0.0
            for mask in range(1, 2 ** k):
                hits = bin(mask).count("1")
                brute += beta ** hits * (1.0 - beta) ** (k - hits)
            assert infection_probability(k, beta) == pytest.approx(brute, abs=1e-12)


def test_ac03_certain_transmission_front_tracks_bfs_distance():
    net = erdos_renyi(50, 0.1, seed=1)
    p = EpidemicParams(model="SI", beta=1.0)
    trace = run(net, {0}, p, max_ticks=60, stop="fixed_ticks", rng_seed=3)

    first: dict[int, int] = {}
    for tick, node, _frm, to in trace.events:
        if to == "I" and node not in first:
            first[node] = tick

    dist = {0: 0}
    frontier = deque([0])
    while frontier:
        v = frontier.popleft()
        for w in net.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                frontier.append(w)

    for v in range(net.node_count):
        if v in dist:
            assert first[v] == dist[v]
        else:
            assert v not in first


def test_ac04_sid_population_is_conserved_every_tick():
    net = barabasi_albert(50, 2, seed=11)
    master = random.Random(2024)
    for i in range(100):
        tau = master.uniform(0.0, 0.7)
        delta1 = master.uniform(0.0, max(0.0, 0.99 - tau))
        p = EpidemicParams(
            model="SID",
            beta=master.uniform(0.05, 0.95),
            delta1=delta1,
            tau=tau,
            gamma=master.uniform(0.05, 1.0),
        )
        seeds = set(master.sample(range(50), master.randrange(1, 6)))
        trace = run(net, seeds, p, max_ticks=60, stop="absorb",
                    rng_seed=derive_seed(9001, i))
        for s, inf, r, d in trace.counts:
            assert r == 0
            assert s + inf + d == 50


def test_ac05_mean_outbreak_grows_with_transmissibility():
    net = barabasi_albert(50, 2, seed=5)
    start = time.monotonic()
    results = []
    for i, beta in enumerate((0.1, 0.3, 0.5)):
        p = EpidemicParams(model="SIR", beta=beta, delta1=0.2)
        stats = monte_carlo(net, {0}, p, max_ticks=500, stop="absorb",
                            n_runs=500, base_seed=derive_seed(77, i))
        results.append((stats.mean_outbreak, stats.stderr_outbreak))
    elapsed = time.monotonic() - start

    for (m_lo, se_lo), (m_hi, se_hi) in zip(results, results[1:]):
        assert m_hi > m_lo
        assert m_hi - m_lo > 2.0 * math.sqrt(se_lo ** 2 + se_hi ** 2)
    assert elapsed < 60.0


def _star_cp_net(n_switches: int, prefs: dict[int, list[int]]) -> Network:
    n_ctrl = max(len(p) for p in prefs.values())
    ctrl_ids = list(range(n_switches, n_switches + n_ctrl))
    pairs = [(sw, c) for sw in range(n_switches) for c in ctrl_ids]
    roles = {sw: "edge_switch" for sw in range(n_switches)}
    roles.update({c: "controller" for c in ctrl_ids})
    resolved = {sw: [ctrl_ids[i] for i in p] for sw, p in prefs.items()}
    return Network.from_edges(n_switches + n_ctrl, pairs, roles, resolved)


def test_ac06_controller_overload_fixed_points_match_hand_enumeration():
    # Oracle A: 5 switches at rate 10 on one controller of capacity 100.
    # Total load 50 <= 100, so nothing fails and the quiet round is round 1.
    net = _star_cp_net(5, {sw: [0] for sw in range(5)})
    calm = run_vertical(net, VerticalScenario({5: 100.0}, {sw: 10.0 for sw in range(5)}))
    assert len(calm.rounds) == 1
    assert calm.failed == frozenset()
    assert calm.orphaned_switches == frozenset()
    assert calm.rounds[0].loads == {5: 50.0}

    # Oracle B: adding 200 to one switch lifts the load to 250 > 100; the
    # controller fails in round 1, round 2 is quiet, all switches orphaned.
    hit = run_vertical(net, VerticalScenario({5: 100.0},
                                             {sw: 10.0 for sw in range(5)},
                                             attack=(0, 200.0)))
    assert hit.rounds[0].loads == {5: 250.0}
    assert hit.rounds[0].failed_now == {5}
    assert len(hit.rounds) == 2
    assert hit.failed == {5}
    assert hit.orphaned_switches == frozenset(range(5))

    # Oracle C: 6 switches split 3/3 over two mutually-backing controllers,
    # attack 150 on a switch of the first. Round 1: 30+150=180 > 100, first
    # fails. Round 2: everything fails over, 60+150=210 > 100, second fails.
    prefs = {sw: [0, 1] for sw in range(3)}
    prefs.update({sw: [1, 0] for sw in range(3, 6)})
    net2 = _star_cp_net(6, prefs)
    sc2 = VerticalScenario({6: 100.0, 7: 100.0}, {sw: 10.0 for sw in range(6)},
                           attack=(0, 150.0))
    chain = run_vertical(net2, sc2)
    assert chain.rounds[0].loads == {6: 180.0, 7: 30.0}
    assert chain.rounds[0].failed_now == {6}
    assert chain.rounds[1].loads == {7: 210.0}
    assert chain.rounds[1].failed_now == {7}
    assert chain.rounds[2].failed_now == frozenset()
    assert len(chain.rounds) == 3
    assert chain.failed == {6, 7}
    assert chain.orphaned_switches == frozenset(range(6))


LINE_DP = """
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

PARALLEL_DP = """
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


def test_ac07_data_plane_overflow_rounds_match_hand_enumeration():
    # Oracle A: volume 20 over the only path of a 5-node line loads every
    # core to 20 > 10, so all three fail in round 1; with the line cut the
    # flow is dropped in the quiet round 2.
    net = load_edge_list(LINE_DP)
    sc = HorizontalScenario({1: 10.0, 2: 10.0, 3: 10.0}, injection=(0, 4, 20.0))
    tr = run_horizontal(net, sc)
    assert tr.rounds[0].failed_now == {1, 2, 3}
    assert tr.rounds[0].dropped == ()
    assert tr.rounds[0].loads == {0: 20.0, 1: 20.0, 2: 20.0, 3: 20.0, 4: 20.0}
    assert tr.rounds[1].failed_now == frozenset()
    assert tr.rounds[1].dropped == (("injection", 0, 4, 20.0),)
    assert len(tr.rounds) == 2
    assert tr.failed == {1, 2, 3}

    # Oracle B: two equal-length core paths of capacity 10, volume 15. The
    # tie-break picks cores 1,2 first (round 1 failures), the reroute kills
    # cores 3,4 (round 2), then the flow has no path and is dropped.
    net2 = load_edge_list(PARALLEL_DP)
    sc2 = HorizontalScenario({1: 10.0, 2: 10.0, 3: 10.0, 4: 10.0},
                             injection=(0, 5, 15.0))
    tr2 = run_horizontal(net2, sc2)
    assert tr2.rounds[0].failed_now == {1, 2}
    assert tr2.rounds[0].loads == {0: 15.0, 1: 15.0, 2: 15.0, 3: 0.0, 4: 0.0, 5: 15.0}
    assert tr2.rounds[1].failed_now == {3, 4}
    assert tr2.rounds[1].loads == {0: 15.0, 3: 15.0, 4: 15.0, 5: 15.0}
    assert tr2.rounds[2].failed_now == frozenset()
    assert tr2.rounds[2].dropped == (("injection", 0, 5, 15.0),)
    assert len(tr2.rounds) == 3
    assert tr2.failed == {1, 2, 3, 4}


EPI_CFG = """
[topology]
generate=ba:40:2

[model]
model=SIS
beta=0.3
delta1=0.2
seeds=0,1

[run]
max_ticks=80
n_runs=8
rng_seed=31
stop=fixed_ticks
"""

SWEEP_CFG = EPI_CFG + """
[sweep]
grid=0.05,0.2,0.6
"""


def _read_all(directory, names):
    return {n: (directory / n).read_bytes() for n in names}


def test_ac08_reruns_byte_identical_across_parallelism(tmp_path):
    cfg = tmp_path / "epi.cfg"
    cfg.write_text(EPI_CFG)
    epi_files = ("trace.csv", "events.csv", "summary.json", "resolved-config.txt")

    outs = {}
    for label, jobs in (("serial", "1"), ("serial2", "1"), ("par", "4")):
        d = tmp_path / f"epi-{label}"
        assert main(["epidemic", "--config", str(cfg), "--out", str(d),
                     "--jobs", jobs]) == 0
        outs[label] = _read_all(d, epi_files)
    assert outs["serial"] == outs["serial2"]
    assert outs["serial"] == outs["par"]

    # rerunning from the resolved config reproduces the exact bytes
    resolved = tmp_path / "epi-serial" / "resolved-config.txt"
    d = tmp_path / "epi-resolved"
    assert main(["epidemic", "--config", str(resolved), "--out", str(d)]) == 0
    assert _read_all(d, epi_files) == outs["serial"]

    swp = tmp_path / "swp.cfg"
    swp.write_text(SWEEP_CFG)
    sweeps = {}
    for label, jobs in (("serial", "1"), ("par", "4")):
        d = tmp_path / f"swp-{label}"
        assert main(["sweep", "--config", str(swp), "--out", str(d),
                     "--jobs", jobs]) == 0
        sweeps[label] = _read_all(d, ("sweep.csv", "summary.json"))
    assert sweeps["serial"] == sweeps["par"]

    casc_files = ("trace.csv", "events.csv", "summary.json", "dropped.csv")
    runs = []
    for label in ("a", "b"):
        d = tmp_path / f"casc-{label}"
        assert main(["cascade", "--config", "fig5b-horizontal", "--out", str(d)]) == 0
        runs.append(_read_all(d, casc_files))
    assert runs[0] == runs[1]


def test_ac09_connectivity_counts_largest_component_without_down_nodes():
    net = ring(6)
    all_infected = StateVector(states=("I",) * 6, tick=0)
    assert dp_connectivity(net, all_infected) == 1.0

    # cutting 0 and 3 out of the ring leaves {1,2} and {4,5}
    cut = StateVector(states=("D", "I", "I", "D", "I", "I"), tick=0)
    assert dp_connectivity(net, cut) == 2 / 6


def test_ac10_endemic_occupancy_separates_transmissibility_regimes():
    edges = [(u, v) for u in range(20) for v in range(u + 1, 20)]
    net = Network.from_edges(20, edges)
    start = time.monotonic()
    tail_fraction = {}
    for i, beta in enumerate((0.005, 0.08)):
        p = EpidemicParams(model="SIS", beta=beta, delta1=0.2)
        stats = monte_carlo(net, {0}, p, max_ticks=500, stop="fixed_ticks",
                            n_runs=300, base_seed=derive_seed(55, i))
        tail = stats.mean_counts[-100:]
        assert len(tail) == 100
        tail_fraction[beta] = sum(row[1] for row in tail) / (100 * net.node_count)
    elapsed = time.monotonic() - start

    assert tail_fraction[0.005] < 0.02
    assert tail_fraction[0.08] > 0.3
    assert elapsed < 60.0
