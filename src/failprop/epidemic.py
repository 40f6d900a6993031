"""Discrete-time stochastic compartment dynamics on a Network.

Four model families over node states S/I/R/D:

    SI    S -> I                      (infection only, I absorbing)
    SIS   S -> I -> S                 (recovery with delta1)
    SIR   S -> I -> R                 (immunizing recovery with delta1)
    SID   S -> I -> D -> S, I -> S    (control-plane repair delta1,
                                       takedown tau, node repair gamma)

Updates are synchronous: every transition at tick t+1 is computed from
the tick-t states. A node infected at tick t+1 transmits no earlier than
tick t+2, and D/R neighbors never transmit.

Randomness contract, relied on for reproducibility: per tick, the I and
D nodes are visited in ascending id order and each consumes one
transition draw whenever its state has an exit in the model, regardless
of parameter values (SI's I and SIR's R never draw; S never draws here).
Then the exposed S nodes, those with at least one infected neighbor, are
visited in ascending id order and each consumes one infection draw. This
is the same stream as a full id-ascending scan of every node, since the
skipped nodes never drew. Competing I-exits in SID use a single uniform
u: u < tau goes to D, tau <= u < tau+delta1 goes to S.

A tick therefore costs O(active nodes + their degree) in Python, where
the active nodes are the I and D nodes; only the state tuple itself is
copied whole, at C speed.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field

from .rng import derive_seed
from .topology import Network

S = "S"
I = "I"
R = "R"
D = "D"

MODELS = ("SI", "SIS", "SIR", "SID")

# states a node may hold, per model
_LEGAL = {
    "SI": frozenset((S, I)),
    "SIS": frozenset((S, I)),
    "SIR": frozenset((S, I, R)),
    "SID": frozenset((S, I, D)),
}

# column of each state in a (tick, S, I, R, D) counts row
_COLUMN = {S: 1, I: 2, R: 3, D: 4}


class EpidemicError(ValueError):
    pass


def _check_prob(name: str, value: float):
    if not 0.0 <= value <= 1.0:
        raise EpidemicError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class EpidemicParams:
    """Model family plus rates; unused rates must stay at 0.

    beta: per-neighbor per-tick infection probability.
    delta1: I-exit back to S (SIS/SID) or to R (SIR).
    tau: I -> D takedown probability (SID only).
    gamma: D -> S repair probability (SID only).
    """

    model: str
    beta: float
    delta1: float = 0.0
    tau: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise EpidemicError(f"unknown model {self.model!r} (choices: {', '.join(MODELS)})")
        _check_prob("beta", self.beta)
        _check_prob("delta1", self.delta1)
        _check_prob("tau", self.tau)
        _check_prob("gamma", self.gamma)
        if self.model == "SI" and (self.delta1 or self.tau or self.gamma):
            raise EpidemicError("SI has no recovery: delta1, tau, gamma must be 0")
        if self.model in ("SIS", "SIR") and (self.tau or self.gamma):
            raise EpidemicError(f"{self.model} has no D state: tau and gamma must be 0")
        if self.model == "SID" and self.tau + self.delta1 > 1.0:
            raise EpidemicError(
                f"SID needs tau + delta1 <= 1, got {self.tau} + {self.delta1}"
            )


@dataclass(frozen=True)
class StateVector:
    """Per-node states at one tick; index is the node id.

    A vector made by `step` or `initial_state` also carries the states
    it can hold (`_kinds`), its I/D node ids in ascending order
    (`_active`) and, from `step`, the ids whose state that step changed
    (`_changed`). A hand-built vector has none of these, so the next
    `step` derives the active ids with one validating scan. Equality and
    hashing see only states and tick.
    """

    states: tuple[str, ...]
    tick: int = 0
    _kinds: frozenset[str] | None = field(default=None, init=False, repr=False, compare=False)
    _active: list[int] | None = field(default=None, init=False, repr=False, compare=False)
    _changed: list[int] | None = field(default=None, init=False, repr=False, compare=False)

    def counts(self) -> tuple[int, int, int, int]:
        st = self.states
        return (st.count(S), st.count(I), st.count(R), st.count(D))


def initial_state(net: Network, seeds) -> StateVector:
    seeds = sorted(set(seeds))
    states = [S] * net.node_count
    for v in seeds:
        if not (0 <= v < net.node_count):
            raise EpidemicError(f"seed {v} is not a node id")
        states[v] = I
    return _tracked(tuple(states), 0, frozenset((S, I)), seeds)


def infection_probability(k: int, beta: float) -> float:
    """Chance an S node with k infected neighbors catches at least one hit."""
    if k < 0:
        raise EpidemicError(f"neighbor count must be >= 0, got {k}")
    _check_prob("beta", beta)
    if k == 0:
        return 0.0
    return 1.0 - (1.0 - beta) ** k


def _active_ids(states: tuple[str, ...], model: str) -> list[int]:
    """Ascending I/D ids; raises on the first state illegal for the model."""
    legal = _LEGAL[model]
    active = []
    for v, st in enumerate(states):
        if st != S:
            if st not in legal:
                raise EpidemicError(f"node {v}: state {st!r} illegal for {model}")
            if st != R:
                active.append(v)
    return active


def step(net: Network, sv: StateVector, p: EpidemicParams, rng: random.Random) -> StateVector:
    """One synchronous update; consumes draws per the module contract."""
    cur = sv.states
    n = net.node_count
    if len(cur) != n:
        raise EpidemicError(f"state vector has {len(cur)} entries for {n} nodes")
    model = p.model
    legal = _LEGAL[model]
    if sv._kinds is not None and sv._kinds <= legal:
        active = sv._active
    else:
        active = _active_ids(cur, model)
    nxt = list(cur)
    draw = rng.random

    # transition pass: every I/D node in id order, one draw each (none in SI)
    if model == "SID":
        infected, moved = [], []
        tau, exit_s, gamma = p.tau, p.tau + p.delta1, p.gamma
        for v in active:
            if cur[v] == I:
                infected.append(v)
                u = draw()
                if u < tau:
                    nxt[v] = D
                    moved.append(v)
                elif u < exit_s:
                    nxt[v] = S
                    moved.append(v)
            elif draw() < gamma:
                nxt[v] = S
                moved.append(v)
    else:
        # only SID has D nodes, so every active node is infected
        infected = active
        if model == "SI":
            moved = []
        else:
            delta1 = p.delta1
            moved = [v for v in active if draw() < delta1]
            to = S if model == "SIS" else R
            for v in moved:
                nxt[v] = to
    if moved:
        active = [v for v in active if nxt[v] == I or nxt[v] == D]

    # infection pass: every S neighbor of an I node in id order, one draw each
    adj = net.adj
    pressure = Counter([u for v in infected for u in adj[v] if cur[u] == S])
    comp = 1.0 - p.beta
    caught = [v for v in sorted(pressure) if draw() < 1.0 - comp ** pressure[v]]
    for v in caught:
        nxt[v] = I

    if caught:
        active = sorted(active + caught)
    return _tracked(tuple(nxt), sv.tick + 1, legal, active, sorted(moved + caught))


def _tracked(states, tick, kinds, active, changed=None) -> StateVector:
    """A StateVector that carries its possible states, I/D ids and changed ids."""
    sv = StateVector(states, tick)
    object.__setattr__(sv, "_kinds", kinds)
    object.__setattr__(sv, "_active", active)
    object.__setattr__(sv, "_changed", changed)
    return sv


@dataclass
class SimulationTrace:
    """Full record of one run: per-tick counts plus the state-change log."""

    node_count: int
    model: str
    counts: list[tuple[int, int, int, int, int]]  # (tick, S, I, R, D)
    events: list[tuple[int, int, str, str]]  # (tick, node, from, to)
    final_states: tuple[str, ...]

    @property
    def final_tick(self) -> int:
        return self.counts[-1][0]

    @property
    def ever_infected(self) -> set[int]:
        return {v for _, v, _, to in self.events if to == I}

    def counts_csv(self) -> str:
        lines = ["tick,S,I,R,D"]
        lines += [f"{t},{s},{i},{r},{d}" for t, s, i, r, d in self.counts]
        return "\n".join(lines) + "\n"

    def events_csv(self) -> str:
        lines = ["tick,node,from,to"]
        lines += [f"{t},{v},{a},{b}" for t, v, a, b in self.events]
        return "\n".join(lines) + "\n"


def run(
    net: Network,
    seeds,
    p: EpidemicParams,
    max_ticks: int,
    stop: str = "absorb",
    rng_seed: int = 0,
) -> SimulationTrace:
    """Simulate from the seeded state until absorption or the tick budget.

    stop="absorb" ends the run at the first tick with no I and no D nodes
    (still capped by max_ticks); stop="fixed_ticks" always produces rows
    for ticks 0..max_ticks. Identical arguments give identical traces.
    """
    seeds = set(seeds)
    if not seeds:
        raise EpidemicError("seeds must be nonempty")
    if max_ticks < 1:
        raise EpidemicError(f"max_ticks must be >= 1, got {max_ticks}")
    if stop not in ("absorb", "fixed_ticks"):
        raise EpidemicError(f"stop must be 'absorb' or 'fixed_ticks', got {stop!r}")

    sv = initial_state(net, seeds)
    rng = random.Random(rng_seed)
    events = [(0, v, S, I) for v in sorted(seeds)]
    row = [0, net.node_count - len(seeds), len(seeds), 0, 0]  # tick, S, I, R, D
    counts = [tuple(row)]

    while sv.tick < max_ticks:
        if row[2] == 0 and row[4] == 0:  # no I, no D: nothing left to draw
            if stop == "fixed_ticks":
                counts.extend((t, *row[1:]) for t in range(sv.tick + 1, max_ticks + 1))
            break
        prev = sv.states
        sv = step(net, sv, p, rng)
        t = row[0] = sv.tick
        cur = sv.states
        for v in sv._changed:
            a, b = prev[v], cur[v]
            events.append((t, v, a, b))
            row[_COLUMN[a]] -= 1
            row[_COLUMN[b]] += 1
        counts.append(tuple(row))

    return SimulationTrace(net.node_count, p.model, counts, events, sv.states)


def _mean(xs) -> float:
    return sum(xs) / len(xs)


def _stderr(xs) -> float:
    n = len(xs)
    if n < 2:
        return 0.0
    m = _mean(xs)
    var = sum((x - m) ** 2 for x in xs) / (n - 1)
    return (var / n) ** 0.5


@dataclass
class AggregateStats:
    """Replica-order-independent summary of a Monte Carlo batch.

    Per-tick rows are aligned to the longest replica; shorter replicas
    are extended by carrying their final row forward, which is exact for
    absorbed runs (an absorbed state never changes again).
    """

    node_count: int
    n_runs: int
    ticks: list[int]
    mean_counts: list[tuple[float, float, float, float]]  # per tick (S, I, R, D)
    min_counts: list[tuple[int, int, int, int]]
    max_counts: list[tuple[int, int, int, int]]
    outbreak_sizes: list[float] = field(default_factory=list)  # fraction, per replica
    # replica 0's full trace, for callers that report one run; not in as_dict()
    replica0: SimulationTrace | None = field(default=None, repr=False, compare=False)

    @property
    def mean_outbreak(self) -> float:
        return _mean(self.outbreak_sizes)

    @property
    def stderr_outbreak(self) -> float:
        return _stderr(self.outbreak_sizes)

    def as_dict(self) -> dict:
        return {
            "node_count": self.node_count,
            "n_runs": self.n_runs,
            "ticks": self.ticks,
            "mean_counts": [list(row) for row in self.mean_counts],
            "min_counts": [list(row) for row in self.min_counts],
            "max_counts": [list(row) for row in self.max_counts],
            "outbreak_sizes": self.outbreak_sizes,
            "mean_outbreak": self.mean_outbreak,
            "stderr_outbreak": self.stderr_outbreak,
        }

    def json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


def monte_carlo(
    net: Network,
    seeds,
    p: EpidemicParams,
    max_ticks: int,
    stop: str = "absorb",
    n_runs: int = 1,
    base_seed: int = 0,
    n_jobs: int = 1,
) -> AggregateStats:
    """Run n_runs independent replicas and aggregate their traces.

    Replica i always uses the seed derived from (base_seed, i). Each
    replica is folded into integer running sums, mins and maxs as soon as
    it ends, which is exact in any order, so memory holds one trace (plus
    replica 0's) and O(ticks + n_runs) numbers. n_jobs is accepted and
    ignored: replicas run one after another, as threads do not speed up
    this pure-Python loop.
    """
    if n_runs < 1:
        raise EpidemicError(f"n_runs must be >= 1, got {n_runs}")

    n = net.node_count
    sums: list[list[int]] = []  # per tick: S, I, R, D summed over replicas
    mins: list[list[int]] = []  # every count lies in [0, n], so n and 0 are
    maxs: list[list[int]] = []  # the identities of min and max
    # aggregate of the final rows of the replicas folded so far: a replica
    # that ended earlier sits at its final row for every later tick
    end_sum, end_min, end_max = [0] * 4, [n] * 4, [0] * 4
    outbreak_sizes = []
    replica0 = None
    for i in range(n_runs):
        tr = run(net, seeds, p, max_ticks, stop, derive_seed(base_seed, i))
        if replica0 is None:
            replica0 = tr
        rows = tr.counts
        while len(sums) < len(rows):
            sums.append(end_sum[:])
            mins.append(end_min[:])
            maxs.append(end_max[:])
        last = rows[-1]
        for t in range(len(sums)):
            row = rows[t] if t < len(rows) else last
            _fold(sums[t], mins[t], maxs[t], row)
        _fold(end_sum, end_min, end_max, last)
        outbreak_sizes.append(len(tr.ever_infected) / n)

    return AggregateStats(
        node_count=n,
        n_runs=n_runs,
        ticks=list(range(len(sums))),
        mean_counts=[tuple(x / n_runs for x in row) for row in sums],
        min_counts=[tuple(row) for row in mins],
        max_counts=[tuple(row) for row in maxs],
        outbreak_sizes=outbreak_sizes,
        replica0=replica0,
    )


def _fold(sums: list[int], mins: list[int], maxs: list[int], row) -> None:
    """Add one (tick, S, I, R, D) row into per-compartment sum/min/max."""
    for j in range(4):
        x = row[j + 1]
        sums[j] += x
        if x < mins[j]:
            mins[j] = x
        if x > maxs[j]:
            maxs[j] = x
