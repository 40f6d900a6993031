"""Exact-chain oracle for the stochastic engine.

The README's model is a Markov chain over joint node states: given the
tick-t states, each node's tick-t+1 state is drawn independently, an S
node with k I-neighbours is infected with probability 1 - (1 - beta)^k,
R and D nodes never transmit, and an SID I node leaves to D with tau and
to S with delta1. On graphs of at most 6 nodes the chain has at most 3^6
joint states, so its distribution can be carried forward exactly. These
tests compare the exact expected (S, I, R, D) counts at every tick with
the Monte Carlo means, at 5 standard errors. The standard error comes
from the exact variance of each count, which is at most n^2/4, so it
never exceeds n/(2 sqrt(R)).
"""

from collections import defaultdict
from itertools import product

import pytest

from failprop.epidemic import EpidemicParams, monte_carlo
from failprop.topology import Network, barabasi_albert, ring

STATES = "SIRD"


def path(n):
    return Network.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def star(n):
    return Network.from_edges(n, [(0, v) for v in range(1, n)])


def node_law(p, x, k):
    """(next state, probability) pairs for one node in state x with k I-neighbours."""
    if x == "S":
        hit = 1.0 - (1.0 - p.beta) ** k
        return [("I", hit), ("S", 1.0 - hit)]
    if x == "I":
        if p.model == "SI":
            return [("I", 1.0)]
        if p.model == "SIS":
            return [("S", p.delta1), ("I", 1.0 - p.delta1)]
        if p.model == "SIR":
            return [("R", p.delta1), ("I", 1.0 - p.delta1)]
        return [("D", p.tau), ("S", p.delta1), ("I", 1.0 - p.tau - p.delta1)]
    if x == "D":
        return [("S", p.gamma), ("D", 1.0 - p.gamma)]
    return [("R", 1.0)]


def exact_counts(net, seeds, p, ticks):
    """Per tick t = 0..ticks, the exact mean and variance of each of S, I, R, D."""
    n = net.node_count
    nbrs = [sorted(net.adj[v]) for v in range(n)]
    dist = {tuple("I" if v in seeds else "S" for v in range(n)): 1.0}
    moments = []
    for t in range(ticks + 1):
        moments.append([_moments(dist, c) for c in STATES])
        if t == ticks:
            break
        nxt = defaultdict(float)
        for joint, q in dist.items():
            laws = [[(y, r) for y, r in node_law(p, x, sum(joint[u] == "I" for u in nbrs[v]))
                     if r > 0.0]
                    for v, x in enumerate(joint)]
            for outcome in product(*laws):
                w = q
                for _, r in outcome:
                    w *= r
                nxt[tuple(y for y, _ in outcome)] += w
        dist = nxt
    return moments, dist


def _moments(dist, c):
    mean = sum(q * joint.count(c) for joint, q in dist.items())
    return mean, sum(q * (joint.count(c) - mean) ** 2 for joint, q in dist.items())


# (graph, seeds, params, ticks, replicas, base seed), all fixed before the first run
CASES = {
    "SI-path6": (path(6), {0}, EpidemicParams("SI", beta=0.5), 8, 1500, 101),
    "SIS-star6": (star(6), {1}, EpidemicParams("SIS", beta=0.6, delta1=0.3), 10, 1500, 102),
    "SIR-ba6": (barabasi_albert(6, 2, seed=3), {5}, EpidemicParams("SIR", beta=0.5, delta1=0.3),
                10, 1500, 103),
    "SID-ring5": (ring(5), {0, 2}, EpidemicParams("SID", beta=0.5, delta1=0.1, tau=0.35,
                                                  gamma=0.25), 10, 1500, 104),
    "SID-star5": (star(5), {0}, EpidemicParams("SID", beta=0.6, delta1=0.05, tau=0.5,
                                               gamma=0.1), 8, 1500, 105),
}


@pytest.mark.parametrize("case", CASES)
def test_monte_carlo_means_match_the_exact_chain(case):
    net, seeds, p, ticks, replicas, base_seed = CASES[case]
    moments, final = exact_counts(net, seeds, p, ticks)
    agg = monte_carlo(net, seeds, p, ticks, "fixed_ticks", n_runs=replicas, base_seed=base_seed)
    assert len(agg.mean_counts) == ticks + 1
    for t, (row, exact) in enumerate(zip(agg.mean_counts, moments)):
        for c, got, (mean, var) in zip(STATES, row, exact):
            bound = 5 * (var / replicas) ** 0.5 + 1e-9
            assert abs(got - mean) <= bound, f"tick {t} {c}: {got} vs exact {mean} (+-{bound})"
    if p.model == "SIR":
        # S is never re-entered, so a run's outbreak is 1 - S_T/n
        n = net.node_count
        mean, var = moments[-1][0]
        bound = 5 * (var / replicas) ** 0.5 / n + 1e-9
        assert abs(agg.mean_outbreak - (1 - mean / n)) <= bound
    assert abs(sum(final.values()) - 1.0) < 1e-9
