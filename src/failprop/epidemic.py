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

A tick is two passes. The transition pass visits the active (I and D)
nodes once, moving each and building the next tick's active list as it
goes; the infection pass visits the S neighbors of the I nodes. Each
pass pairs its nodes with draws made in C (`_with_draws`), exactly one
per node in id order, and 1 - (1 - beta)**k is computed once per
distinct k in the tick. A tick therefore costs O(active nodes + their
degree) in Python. One kernel, `_advance`, writes a tick over the state
list it reads; `step` wraps it around a copy. Replica 0 goes through
`step`, which copies the states every tick for the event log; the other
replicas copy nothing per tick. Both carry the next (S, I, R, D) counts,
tallied from the moves made, so no caller recounts states.

With n_jobs > 1, `monte_carlo` and `threshold_sweep` hand their replicas
or grid points to `map_tasks`, which forks its worker processes itself,
with no process pool: each inherits the batch by the fork and pipes back
only its results, so every output is the same for any n_jobs.
"""

from __future__ import annotations

import contextlib
import os
import random
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import partial, reduce
from itertools import chain, repeat, starmap
from operator import add

from .rng import derive_seed
from .topology import InputError, Network

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


class EpidemicError(InputError):
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
        for f in fields(self)[1:]:  # the rates, in field order
            _check_prob(f.name, getattr(self, f.name))
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

    Every vector carries its I/D node ids in ascending order (`_active`)
    and its (S, I, R, D) counts (`_counts`): `step` and `initial_state`
    pass them in, and `__post_init__` derives them for a hand-built
    vector. One made by `step` also carries the ids that step moved out
    of I or D (`_moved`) and, in ascending order, the S ids it infected
    (`_caught`). Equality and hashing see only states and tick.
    """

    states: tuple[str, ...]
    tick: int = 0
    _active: list[int] = field(default=None, kw_only=True, repr=False, compare=False)
    _counts: tuple[int, int, int, int] = field(default=None, kw_only=True, repr=False,
                                               compare=False)
    _moved: list[int] | None = field(default=None, kw_only=True, repr=False, compare=False)
    _caught: list[int] | None = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        if self._counts is None:
            object.__setattr__(self, "_counts", self.counts())
            object.__setattr__(self, "_active",
                               [v for v, x in enumerate(self.states) if x == I or x == D])

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
    return StateVector(tuple(states), 0, _active=seeds,
                       _counts=(net.node_count - len(seeds), len(seeds), 0, 0))


def infection_probability(k: int, beta: float) -> float:
    """Chance an S node with k infected neighbors catches at least one hit."""
    if k < 0:
        raise EpidemicError(f"neighbor count must be >= 0, got {k}")
    _check_prob("beta", beta)
    if k == 0:
        return 0.0
    return 1.0 - (1.0 - beta) ** k


def step(net: Network, sv: StateVector, p: EpidemicParams, rng: random.Random) -> StateVector:
    """One synchronous update; consumes draws per the module contract."""
    cur = sv.states
    n = net.node_count
    if len(cur) != n:
        raise EpidemicError(f"state vector has {len(cur)} entries for {n} nodes")
    model = p.model
    s, i, r, d = sv._counts
    # a state other than S/I/R/D, or one the model does not have
    if s + i + r + d != n or (r and model != "SIR") or (d and model != "SID"):
        legal = _LEGAL[model]
        v = next(v for v, x in enumerate(cur) if x not in legal)
        raise EpidemicError(f"node {v}: state {cur[v]!r} illegal for {model}")
    nxt = list(cur)
    active, counts, moved, caught = _advance(net.adj, nxt, sv._active, sv._counts, p, rng)
    return StateVector(tuple(nxt), sv.tick + 1, _active=active, _counts=counts,
                       _moved=moved, _caught=caught)


def _advance(adj, states, active, counts, p, rng):
    """Write tick t+1 over the tick-t `states`, given its ascending I/D ids
    and (S, I, R, D) counts; return those of t+1, the ids moved out of I or
    D and the ascending ids caught. The infection pass reads tick t, so only
    I -> D, which never makes a node S, is written before it."""
    model = p.model
    s, i, r, d = counts
    back, to = [], S  # moves written after the exposure count, and their state

    # transition pass: every I/D node in id order, one draw each (none in
    # SI); the nodes that stay I or D form the next active list as it goes
    if model == "SID":
        infected, kept, down, cured, repaired = [], [], [], [], []
        tau, exit_s, gamma = p.tau, p.tau + p.delta1, p.gamma
        for v, u in _with_draws(active, rng):
            if states[v] == I:
                infected.append(v)
                if u < tau:
                    states[v] = D
                    down.append(v)
                elif u < exit_s:
                    cured.append(v)
                    continue
            elif u < gamma:
                repaired.append(v)
                continue
            kept.append(v)
        active = kept
        back = cured + repaired
        moved = down + back
        s += len(back)
        i -= len(down) + len(cured)
        d += len(down) - len(repaired)
    else:
        # only SID has D nodes, so every active node is infected
        infected = active
        moved = []
        if model != "SI":
            kept = []
            delta1 = p.delta1
            for v, u in _with_draws(active, rng):
                if u < delta1:
                    moved.append(v)
                else:
                    kept.append(v)
            active, back = kept, moved
            i -= len(moved)
            if model == "SIS":
                s += len(moved)
            else:
                to, r = R, r + len(moved)

    # infection pass: every S neighbor of an I node in id order, one draw
    # each, against infection_probability(k) computed once per distinct count k
    pressure = Counter([u for v in infected for u in adj[v] if states[u] == S])
    hit = {k: infection_probability(k, p.beta) for k in set(pressure.values())}
    caught = [v for v, u in _with_draws(sorted(pressure), rng) if u < hit[pressure[v]]]
    for v in back:
        states[v] = to
    for v in caught:
        states[v] = I

    if caught:
        active = sorted(active + caught)
        s -= len(caught)
        i += len(caught)
    return active, (s, i, r, d), moved, caught


def _with_draws(nodes: list[int], rng: random.Random):
    """(v, u) for each v in nodes with its draw u; exactly len(nodes) draws, in order."""
    return zip(nodes, starmap(rng.random, repeat((), len(nodes))))


@dataclass
class SimulationTrace:
    """Full record of one run: per-tick counts plus the state-change log."""

    node_count: int
    counts: list[tuple[int, int, int, int]]  # (S, I, R, D); the index is the tick
    events: list[tuple[int, int, str, str]]  # (tick, node, from, to)
    final_states: tuple[str, ...]

    @property
    def final_tick(self) -> int:
        return len(self.counts) - 1

    @property
    def ever_infected(self) -> set[int]:
        return {v for _, v, _, to in self.events if to == I}

    def counts_csv(self) -> str:
        lines = ["tick,S,I,R,D"]
        lines += [f"{t},{s},{i},{r},{d}" for t, (s, i, r, d) in enumerate(self.counts)]
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
    sv = _check_run(net, seeds, max_ticks, stop)
    counts, events, final, _ = _simulate(net, sv, p, max_ticks, stop, rng_seed, True)
    return SimulationTrace(net.node_count, counts, events, final)


def _check_run(net: Network, seeds, max_ticks: int, stop: str, n_runs: int = 1) -> StateVector:
    """The seeded start state, once the run arguments pass their checks."""
    if n_runs < 1:
        raise EpidemicError(f"n_runs must be >= 1, got {n_runs}")
    seeds = sorted(set(seeds))
    if not seeds:
        raise EpidemicError("seeds must be nonempty")
    if max_ticks < 1:
        raise EpidemicError(f"max_ticks must be >= 1, got {max_ticks}")
    if stop not in ("absorb", "fixed_ticks"):
        raise EpidemicError(f"stop must be 'absorb' or 'fixed_ticks', got {stop!r}")
    return initial_state(net, seeds)


def _simulate(net, sv, p, max_ticks, stop, rng_seed, log):
    """The tick loop of `run` (log=True: `step` every tick, for the event
    log) and `_replica` (log=False: `_advance` over one state list), from
    the start state `_check_run` returned. Replicas share that state:
    neither `step` nor `_advance` mutates the `active` list it is given.

    Returns the per-tick (S, I, R, D) rows, the event log and final states
    (None without a log), and the number of distinct nodes ever infected.
    """
    rng = random.Random(rng_seed)
    counts = sv._counts
    events = [(0, v, S, I) for v in sv._active] if log else None
    if not log:
        states, active, adj = list(sv.states), sv._active, net.adj
    ever = set(sv._active)
    rows = [counts]

    for t in range(1, max_ticks + 1):
        if _absorbed(counts):
            if stop == "fixed_ticks":
                rows += [counts] * (max_ticks + 1 - t)
            break
        if log:
            prev, sv = sv.states, step(net, sv, p, rng)
            counts, cur, caught = sv._counts, sv.states, sv._caught
            events += [(t, v, prev[v], cur[v]) for v in sorted(sv._moved + caught)]
        else:
            active, counts, _, caught = _advance(adj, states, active, counts, p, rng)
        rows.append(counts)
        ever.update(caught)

    return rows, events, sv.states if log else None, len(ever)


def _absorbed(counts) -> bool:
    """No I and no D: in every model no node has a move left to draw."""
    return counts[1] == 0 and counts[3] == 0


# Both add left to right: `sum()` sums floats compensated from Python 3.12
# on, so its last digit would depend on the interpreter.
def _mean(xs) -> float:
    return reduce(add, xs, 0) / len(xs)


def _stderr(xs) -> float:
    n = len(xs)
    if n < 2:
        return 0.0
    m = _mean(xs)
    var = reduce(add, [(x - m) ** 2 for x in xs], 0) / (n - 1)
    return (var / n) ** 0.5


@dataclass
class AggregateStats:
    """Replica-order-independent summary of a Monte Carlo batch.

    Per-tick rows are aligned to the longest replica; shorter replicas
    are extended by carrying their final row forward, which is exact for
    absorbed runs (an absorbed state never changes again).
    """

    node_count: int
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
            "n_runs": len(self.outbreak_sizes),
            "ticks": list(range(len(self.mean_counts))),
            "mean_counts": [list(row) for row in self.mean_counts],
            "min_counts": [list(row) for row in self.min_counts],
            "max_counts": [list(row) for row in self.max_counts],
            "outbreak_sizes": self.outbreak_sizes,
            "mean_outbreak": self.mean_outbreak,
            "stderr_outbreak": self.stderr_outbreak,
        }


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

    Replica i always uses the seed derived from (base_seed, i). Replica 0
    runs through `run` in the caller and is the only one with an event
    log; the rest run through `map_tasks` as `_replica` (in forked workers
    when n_jobs > 1, while the caller runs replica 0), which keeps only
    counts rows and the set of nodes it infected: O(ticks) rows plus at
    most one id per node, never O(events). Replicas are folded into
    integer running sums, mins and maxs, which is exact in any order, so
    the result is identical for every n_jobs and the fold holds
    O(ticks + n_runs) numbers. Every argument is checked before any
    worker is forked, and a worker that dies fails the batch.
    """
    sv = _check_run(net, seeds, max_ticks, stop, n_runs)

    n = net.node_count
    sums: list[list[int]] = []  # per tick: S, I, R, D summed over replicas
    mins: list[list[int]] = []  # every count lies in [0, n], so n and 0 are
    maxs: list[list[int]] = []  # the identities of min and max
    # aggregate of the final rows of the replicas folded so far: a replica
    # that ended earlier sits at its final row for every later tick
    end_sum, end_min, end_max = [0] * 4, [n] * 4, [0] * 4
    outbreak_sizes = []

    net.adj  # built here, before any worker forks, so the workers share it
    job = (net, sv, p, max_ticks, stop, base_seed)
    with map_tasks(_replica, job, range(1, n_runs), n_jobs) as results:
        replica0 = run(net, sv._active, p, max_ticks, stop, derive_seed(base_seed, 0))
        for rows, infected in chain([(replica0.counts, len(replica0.ever_infected))], results):
            while len(sums) < len(rows):
                sums.append(end_sum[:])
                mins.append(end_min[:])
                maxs.append(end_max[:])
            last = rows[-1]
            for t in range(len(sums)):
                row = rows[t] if t < len(rows) else last
                _fold(sums[t], mins[t], maxs[t], row)
            _fold(end_sum, end_min, end_max, last)
            outbreak_sizes.append(infected / n)

    return AggregateStats(
        node_count=n,
        mean_counts=[tuple(x / n_runs for x in row) for row in sums],
        min_counts=[tuple(row) for row in mins],
        max_counts=[tuple(row) for row in maxs],
        outbreak_sizes=outbreak_sizes,
        replica0=replica0,
    )


def _replica(job, i):
    """Replica i of a batch as (counts rows, number of nodes ever infected);
    `monte_carlo` checked the batch's arguments and built its start state
    once for every replica."""
    net, sv, p, max_ticks, stop, base_seed = job
    counts, _, _, infected = _simulate(net, sv, p, max_ticks, stop,
                                       derive_seed(base_seed, i), False)
    return counts, infected


@contextlib.contextmanager
def map_tasks(fn, job, tasks, n_jobs: int):
    """Yield the results of fn(job, task) for each task, in task order.

    With n_jobs > 1, min(n_jobs, len(tasks), os.cpu_count()) forked children
    run them while the caller works in the `with` block. They inherit `job`
    by the fork and take task indices from one shared pipe, so a child that
    is free takes the next task, whatever the others cost. Each pickles
    every result down its own pipe, or the exception fn raised, which the
    caller re-raises; a thread per child in the caller reads that pipe as
    the results come, so no child waits for the caller. A child that ends
    without a result fails the run, and leaving the block kills and reaps
    every child. Otherwise, or where os.fork does not exist, the tasks run
    in the caller as it iterates. A fork copies only the calling thread, so
    a caller that runs other threads should pass n_jobs=1.
    """
    if n_jobs < 1:
        raise EpidemicError(f"n_jobs must be >= 1, got {n_jobs}")
    if n_jobs == 1 or not tasks or not hasattr(os, "fork"):
        yield map(partial(fn, job), tasks)
        return
    # here, so that serial runs never load pickle, and before the forks, so
    # that no child loads it again (two children loading it cost ≈12 ms of wall)
    import pickle
    from signal import SIGKILL
    from threading import Condition, Thread
    size = min(n_jobs, len(tasks), os.cpu_count() or 1)
    children = {}  # pid -> read end of its pipe, for every child not yet reaped
    readers = []
    got, dead, cond = {}, [], Condition()  # task index -> (ok, result); (k, pid, error)
    r, w = os.pipe()
    queue, feed = os.fdopen(r, "rb", 0), os.fdopen(w, "wb", 0)  # task indices
    order = b"".join(j.to_bytes(4, "little") for j in range(len(tasks)))
    try:
        with queue, feed:
            # a pipe takes a write of at most 512 bytes whole; the first goes in
            # before the forks, so that each child starts as soon as it exists
            feed.write(order[:512])
            for k in range(size):
                r, w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _child(fn, job, tasks, queue.fileno(), feed.fileno(), w)
                os.close(w)  # so the pipe reads EOF once the child is gone
                children[pid] = os.fdopen(r, "rb")
            queue.close()  # so that feeding fails instead of waiting once no child is left
            for k, (pid, pipe) in enumerate(children.items()):
                readers.append(Thread(target=_collect, args=(k, pid, pipe, got, dead, cond)))
                readers[-1].start()
            try:
                for i in range(512, len(order), 512):
                    feed.write(order[i:i + 512])
            except BrokenPipeError:  # every child has died, which the results report
                pass
        yield _in_task_order(children, got, dead, cond, len(tasks))
    finally:
        for pid in children:
            os.kill(pid, SIGKILL)
        for reader in readers:
            reader.join()
        for pid, pipe in children.items():
            pipe.close()
            os.waitpid(pid, 0)


def _child(fn, job, tasks, queue, feed, w):
    """The body of a forked child: until `queue` ends it takes a task index
    j from it and pickles (j, True, result), or (j, False, exc) if fn
    raised, down its pipe, then None as its end mark. It never returns, and
    leaves through os._exit so that none of the caller's cleanup or buffers
    run twice."""
    import pickle  # loaded already, by map_tasks
    try:
        os.close(feed)  # so that `queue` ends once the caller closes its own end
        with os.fdopen(w, "wb") as out:
            while taken := os.read(queue, 4):
                j = int.from_bytes(taken, "little")
                try:
                    sent = (j, True, fn(job, tasks[j]))
                except Exception as exc:  # the caller re-raises it when it reads it
                    sent = (j, False, exc)
                pickle.dump(sent, out)
                out.flush()
            pickle.dump(None, out)
        os._exit(0)
    finally:
        os._exit(1)  # a result that does not pickle, or a KeyboardInterrupt


def _collect(k, pid, pipe, got, dead, cond):
    """The caller's reader of child k's pipe: it puts each result in `got`
    by task index until the child's end mark. If the pipe ends first, or a
    result does not load, it puts (k, pid, the error) in `dead`, so that the
    caller raises instead of waiting."""
    import pickle  # loaded already, by map_tasks
    try:
        while (sent := pickle.load(pipe)) is not None:
            with cond:
                got[sent[0]] = sent[1:]
                cond.notify()
    except Exception as exc:  # EOFError when the child died
        with cond:
            dead.append((k, pid, exc))
            cond.notify()


def _in_task_order(children, got, dead, cond, n):
    """Task j's result, for j in 0..n-1, as soon as a reader has it."""
    from signal import SIGKILL
    for j in range(n):
        with cond:
            cond.wait_for(lambda: j in got or dead)
            sent = got.pop(j, None)
        if sent is None:
            k, pid, error = dead[0]
            os.kill(pid, SIGKILL)  # in case it still runs
            children.pop(pid).close()
            status = os.waitpid(pid, 0)[1]
            raise RuntimeError(f"worker {k} (pid {pid}) ended without a result "
                               f"(wait status {status})") from error
        ok, result = sent
        if not ok:
            raise result
        yield result


def _fold(sums: list[int], mins: list[int], maxs: list[int], row) -> None:
    """Add one (S, I, R, D) row into per-compartment sum/min/max."""
    for j in range(4):
        x = row[j]
        sums[j] += x
        if x < mins[j]:
            mins[j] = x
        if x > maxs[j]:
            maxs[j] = x
