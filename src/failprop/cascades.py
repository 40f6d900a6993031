"""Deterministic overload cascades on a two-plane network.

Two engines share one trace shape: in `run_vertical` controllers fail
under their switches' request rates and failover shifts the load, in
`run_horizontal` nodes fail under the flows routed over them and the
survivors reroute (README, "The cascade engines", gives both models).
Both iterations are monotone (failed stays failed), so the outcome does
not depend on evaluation order; the final recorded round is always the
quiet one that confirmed the fixed point.

A round records only what it decided: the loads of the subjects still up
(a controller or node missing from them failed in an earlier round), the
ones it failed, and the switches' picks (vertical) or the dropped flows
(horizontal). `CascadeTrace` reads the rest off the rounds: a round's
number is its position, `failed` is the union of the rounds' failures,
and `assignment`, the failover map, folds the picks in order.

Rounds are incremental, and exactly equal to recomputing from scratch,
because a round only ever removes nodes (or controllers):

* A flow keeps last round's path when every node on it is still alive,
  and a flow that found no path stays dropped; only flows whose path
  crossed a newly failed node are routed again. Removing nodes never
  shortens a distance (Ramalingam & Reps 1996), so a surviving path is
  still shortest, and it was the extreme of a tie set that can only have
  shrunk; an unreachable destination stays unreachable. Loads are still
  summed afresh in flow order, so every float is the same.
* A switch keeps its controller unless that controller has failed: its
  earlier preferences were already down and stay down. So only the
  switches of the controllers that just failed are passed to
  `assign_switches` again, a live controller only gains switches, and
  only one that gained is summed again, with the same float additions as
  a full recount (see `run_vertical`).
"""

from __future__ import annotations

import json
from bisect import bisect
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, filterfalse, repeat
from math import isfinite
from operator import add, indexOf
from typing import Iterable, NamedTuple

from .topology import CONTROLLER, EDGE_SWITCH, InputError, Network, _fmt

INF = float("inf")


class ScenarioError(InputError):
    pass


class Demand(NamedTuple):
    src: int
    dst: int
    volume: float


class Injection(NamedTuple):
    entry: int
    exit: int
    volume: float


def _check_amount(what: str, x):
    if not (isfinite(x) and x >= 0):
        raise ScenarioError(f"{what} must be finite and >= 0, got {x}")


def _check_id(what: str, v):
    if not isinstance(v, int):
        raise ScenarioError(f"{what} {v!r} is not a node id")


def _check_map(name: str, mapping: dict):
    for k, v in mapping.items():
        _check_id(f"{name} key", k)
        _check_amount(f"{name}[{k}]", v)


@dataclass(frozen=True)
class VerticalScenario:
    """Controller capacities, per-switch request rates, optional attack.

    Controllers absent from controller_capacity are treated as unbounded;
    switches absent from base_rate send nothing.
    """

    controller_capacity: dict[int, float]
    base_rate: dict[int, float]
    attack: tuple[int, float] | None = None

    def __post_init__(self):
        _check_map("controller_capacity", self.controller_capacity)
        _check_map("base_rate", self.base_rate)
        if self.attack is not None:
            target, rate = self.attack
            _check_id("attack target", target)
            _check_amount("attack rate", rate)


@dataclass(frozen=True)
class HorizontalScenario:
    """Node capacities, baseline demands, optional injected flow (one more
    demand, meant to model hostile traffic entering at an edge switch).

    Nodes absent from node_capacity are unbounded. misroute=True flips
    the routing tie-break to the lexicographically largest path, which
    stands in for a buggy route computation.
    """

    node_capacity: dict[int, float]
    demands: tuple[Demand, ...] = ()
    injection: Injection | None = None
    misroute: bool = False

    def __post_init__(self):
        _check_map("node_capacity", self.node_capacity)
        object.__setattr__(self, "demands", tuple(Demand(*d) for d in self.demands))
        for d in self.demands:
            _check_amount(f"demand {d.src}->{d.dst} volume", d.volume)
        if self.injection is not None:
            object.__setattr__(self, "injection", Injection(*self.injection))
            _check_amount("injection volume", self.injection.volume)


def validate_vertical(net: Network, sc: VerticalScenario) -> list[str]:
    """Raise on a scenario that cannot run; return warnings otherwise."""
    ctrls, switches = net.controllers(), net.switches()
    if not ctrls:
        raise ScenarioError("network has no controller nodes")
    for c in filterfalse(set(ctrls).__contains__, sc.controller_capacity):
        raise ScenarioError(f"capacity key {c} is not a controller")
    is_switch = set(switches).__contains__
    for sw in filterfalse(is_switch, sc.base_rate):
        raise ScenarioError(f"rate key {sw} is not a switch")
    if sc.attack is not None and not is_switch(sc.attack[0]):
        raise ScenarioError(f"attack target {sc.attack[0]} is not a switch")
    return [f"switch {sw} has no controller preference list"
            for sw in filterfalse(net.controller_prefs.get, switches)]


def validate_horizontal(net: Network, sc: HorizontalScenario) -> list[str]:
    """Raise on a scenario that cannot run; return warnings otherwise."""
    def is_controller(what: str, v: int) -> bool:
        """Whether `v` is a controller; raises for an id outside the network."""
        if not (0 <= v < net.node_count):
            raise ScenarioError(f"{what} {v} is not a node id")
        return net.roles[v] == CONTROLLER

    warnings = [f"capacity on controller {v} has no effect"
                for v in sc.node_capacity if is_controller("capacity key", v)]
    for kind, *ends, _ in _all_flows(sc):
        names = (Demand if kind == "demand" else Injection)._fields  # src, dst or entry, exit
        for end, v in zip(names, ends):
            if is_controller(f"{kind} {end}", v):
                raise ScenarioError(f"{kind} {end} {v} is a controller, not a data-plane node")
        if ends[0] == ends[1]:
            raise ScenarioError(f"{kind} {names[0]} and {names[1]} are both {ends[0]}")
    if sc.injection is not None:
        warnings += [f"injection endpoint {v} is not an edge switch"
                     for v in sc.injection[:2] if net.roles[v] != EDGE_SWITCH]
    return warnings


# ---------------------------------------------------------------------------
# vertical: controller failover overload

def assign_switches(net: Network, failed_controllers: set[int],
                    switches: Iterable[int] | None = None) -> dict[int, int | None]:
    """Map each of `switches` (default: every switch, in id order) to its
    first live preferred controller, else None, in the order given."""
    down = failed_controllers.__contains__
    prefs = net.controller_prefs
    return {sw: next(filterfalse(down, prefs.get(sw, ())), None)
            for sw in (net.switches() if switches is None else switches)}


@dataclass(frozen=True)
class VerticalRound:
    picked: dict[int, int | None]  # what `assign_switches` returned this round
    loads: dict[int, float]  # live controllers only
    failed_now: frozenset[int]


def run_vertical(net: Network, sc: VerticalScenario) -> "CascadeTrace":
    """Iterate failover and overload to the fixed point.

    Each round reassigns the switches whose controller just failed, sums
    effective request rates per live controller in switch order, and
    fails all controllers strictly over capacity at once. The loop always
    ends with one quiet round and never needs more than
    controller_count + 1 rounds total. Only the controllers that gained a
    switch are summed again (see the module docstring).
    """
    warnings = validate_vertical(net, sc)
    switches = net.switches()
    rate = {sw: sc.base_rate.get(sw, 0.0) for sw in switches}
    if sc.attack is not None:
        rate[sc.attack[0]] += sc.attack[1]
    controllers = net.controllers()
    failed: set[int] = set()
    rounds: list[VerticalRound] = []
    # per controller: its switches in switch order, and their rates
    held: dict[int, tuple[list[int], list[float]]] = {c: ([], []) for c in controllers}
    total: dict[int, float] = dict.fromkeys(controllers, 0.0)
    # the switches that pick a controller this round, and their picks
    picked = assign_switches(net, failed)
    while True:
        gained = set()
        for sw, c in picked.items():
            if c is not None:
                ids, rates = held[c]
                i = bisect(ids, sw)
                ids.insert(i, sw)
                rates.insert(i, rate[sw])
                gained.add(c)
        # from 0.0, left to right over the rates in switch order: the
        # additions of one pass over every switch, so each load is bit for
        # bit a full recount's. Adding the gained rates onto the old sum
        # would reorder the additions (a gained switch can sort before a
        # held one), and `sum()` sums floats compensated from Python 3.12 on.
        for c in gained:
            total[c] = reduce(add, held[c][1], 0.0)
        loads = {c: total[c] for c in controllers if c not in failed}
        now = frozenset(
            c for c, load in loads.items()
            if load > sc.controller_capacity.get(c, INF)
        )
        rounds.append(VerticalRound(picked, loads, now))
        if not now:
            break
        failed |= now
        picked = assign_switches(net, failed, chain.from_iterable(held.pop(c)[0] for c in now))
    assert len(rounds) <= len(controllers) + 1
    return CascadeTrace("vertical", net, sc, tuple(rounds), tuple(warnings))


# ---------------------------------------------------------------------------
# horizontal: data-plane capacity overflow

class _Alive(frozenset):
    """One round's alive set, plus its `marks` for `route_demand`: -1 for
    each alive node, node_count (never a distance) for every other id."""

    __slots__ = ("marks",)

    def __new__(cls, alive, node_count: int):
        self = super().__new__(cls, alive)
        self.marks = _marks(self, node_count)
        return self


def _marks(alive, n: int) -> list[int]:
    # ids in `alive` outside [0, n) are never looked up, so they mark nothing
    return [-1 if v in alive else n for v in range(n)]


def route_demand(net: Network, alive: set[int], src: int, dst: int,
                 misroute: bool = False) -> list[int] | None:
    """Deterministic shortest path from src to dst inside `alive`.

    Hop count first; among equal-length paths the lexicographically
    smallest node-id sequence wins (largest when misroute is set).
    Returns None when dst is unreachable; ids in `alive` outside
    [0, node_count) are not nodes and are ignored.

    Cost: a copy of the n-slot marks of `alive` (built here unless
    `compute_loads` built them once for its round), plus the levels of a
    breadth-first search from dst up to the level that holds src.
    """
    if src == dst:
        raise ScenarioError(f"route endpoints are both {src}")
    n = net.node_count
    marks = alive.marks if type(alive) is _Alive else _marks(alive, n)
    if not (0 <= src < n and 0 <= dst < n) or marks[src] != -1 or marks[dst] != -1:
        return None
    # distances to dst, one complete level at a time; dist[u] is -1 only
    # for an alive node not reached yet. Then a greedy walk: picking the
    # extremal neighbour one step closer at each hop yields the extremal
    # tied path, and it reads only the levels below dist[src].
    adj = net.adj
    dist = marks.copy()
    dist[dst] = 0
    level = [dst]
    d = 0
    while level and dist[src] == -1:
        d += 1
        reached = []
        for v in level:
            for u in adj[v]:
                if dist[u] == -1:
                    dist[u] = d
                    reached.append(u)
        level = reached
    if dist[src] == -1:
        return None
    # rows are sorted, so the first match is the smallest (reversed: largest)
    at = dist.__getitem__
    path = [src]
    cur = src
    for want in range(dist[src] - 1, -1, -1):
        row = adj[cur][::-1] if misroute else adj[cur]
        cur = row[indexOf(map(at, row), want)]
        path.append(cur)
    return path


@dataclass(frozen=True)
class LoadMap:
    """Per-node transit volume and the demands that found no path.

    Every routed demand adds its volume to every node on its path,
    endpoints included. Entries in dropped are (kind, src, dst, volume)
    with kind "demand" or "injection". `paths` holds each flow's path (None
    if dropped) in flow order, for the next round to reuse.
    """

    load: dict[int, float]
    dropped: tuple[tuple[str, int, int, float], ...] = ()
    paths: tuple[list[int] | None, ...] = field(default=(), repr=False, compare=False)


def _all_flows(sc: HorizontalScenario):
    flows = [("demand", d.src, d.dst, d.volume) for d in sc.demands]
    if sc.injection is not None:
        inj = sc.injection
        flows.append(("injection", inj.entry, inj.exit, inj.volume))
    return flows


def compute_loads(net: Network, alive: set[int], sc: HorizontalScenario,
                  prev: LoadMap | None = None) -> LoadMap:
    """Route every demand (and the injection) over `alive`, sum node loads.

    `prev` is this scenario's LoadMap over a superset of `alive`; given
    it, a flow whose path avoids every removed node keeps that path, a
    dropped flow stays dropped, and only the rest are routed again.
    """
    load = {v: 0.0 for v in alive}
    open_nodes = _Alive(alive, net.node_count)  # one set of marks per round
    dropped = []
    paths = []
    for i, (kind, src, dst, volume) in enumerate(_all_flows(sc)):
        if prev is not None and (prev.paths[i] is None or alive.issuperset(prev.paths[i])):
            path = prev.paths[i]
        else:
            path = route_demand(net, open_nodes, src, dst, sc.misroute)
        paths.append(path)
        if path is None:
            dropped.append((kind, src, dst, volume))
            continue
        for v in path:
            load[v] += volume
    return LoadMap(load, tuple(dropped), tuple(paths))


@dataclass(frozen=True)
class HorizontalRound:
    loads: dict[int, float]  # alive nodes only
    dropped: tuple[tuple[str, int, int, float], ...]
    failed_now: frozenset[int]


def run_horizontal(net: Network, sc: HorizontalScenario) -> "CascadeTrace":
    """Iterate routing and overflow to the fixed point.

    Controllers never carry data traffic, so the alive set starts as all
    non-controller nodes. Each round reroutes the flows that crossed a
    failed node, sums loads over survivors and fails everything strictly
    over capacity at once; ends with a quiet round, after at most
    node_count rounds.
    """
    warnings = validate_horizontal(net, sc)
    alive = {v for v in range(net.node_count) if net.roles[v] != CONTROLLER}
    rounds: list[HorizontalRound] = []
    lm = None
    while True:
        lm = compute_loads(net, alive, sc, lm)
        now = frozenset(
            v for v, load in lm.load.items()
            if load > sc.node_capacity.get(v, INF)
        )
        rounds.append(HorizontalRound(lm.load, lm.dropped, now))
        if not now:
            break
        alive -= now
    assert len(rounds) <= net.node_count
    return CascadeTrace("horizontal", net, sc, tuple(rounds), tuple(warnings))


# ---------------------------------------------------------------------------
# shared trace

@dataclass(frozen=True)
class CascadeTrace:
    """Round-by-round record of one cascade run. Round r is `rounds[r - 1]`
    and holds only what that round decided; the last round is the quiet one,
    so its loads and dropped flows are the fixed point's."""

    kind: str  # "vertical" | "horizontal"
    net: Network = field(repr=False)
    scenario: VerticalScenario | HorizontalScenario = field(repr=False)
    rounds: tuple
    warnings: tuple[str, ...]

    @cached_property
    def failed(self) -> frozenset[int]:
        """Every controller (vertical) or node (horizontal) that failed."""
        return frozenset().union(*(rnd.failed_now for rnd in self.rounds))

    @cached_property
    def assignment(self) -> dict[int, int | None]:
        """Vertical only: each switch's controller at the fixed point (None
        when it has none), the rounds' picks folded in order. A later pick
        overwrites an earlier one in place, so the keys keep switch order."""
        return dict(chain.from_iterable(rnd.picked.items() for rnd in self.rounds))

    @cached_property
    def orphaned_switches(self) -> frozenset[int]:
        """Vertical only: the switches with no live controller at the end."""
        return frozenset(sw for sw, c in self.assignment.items() if c is None)

    def failed_fraction(self) -> float:
        """Terminal failed share of the network for either cascade kind.

        Vertical counts failed controllers plus orphaned switches (a switch
        with no live controller is failed for service purposes even though
        its hardware is up); horizontal counts overloaded nodes.
        """
        orphaned = len(self.orphaned_switches) if self.kind == "vertical" else 0
        return (len(self.failed) + orphaned) / self.net.node_count

    def csv(self) -> str:
        """Per-round per-subject rows: round,<id>,load,capacity,status."""
        if self.kind == "vertical":
            header = "round,controller,load,capacity,status"
            caps = self.scenario.controller_capacity
        else:
            header = "round,node,load,capacity,status"
            caps = self.scenario.node_capacity
        # round 1 loads every subject: no controller or node has failed before it
        columns = [(s, _fmt(caps.get(s, INF))) for s in sorted(self.rounds[0].loads)]
        text = {}  # each distinct load is formatted once
        lines = [header]
        for r, rnd in enumerate(self.rounds, 1):
            loads = rnd.loads  # a subject absent from it failed in an earlier round
            for subject, cap in columns:
                if subject not in loads:
                    load, status = "", "down"
                else:
                    x = loads[subject]
                    if x not in text:
                        text[x] = _fmt(x)
                    load = text[x]
                    status = "failed" if subject in rnd.failed_now else "ok"
                lines.append(f"{r},{subject},{load},{cap},{status}")
        return "\n".join(lines) + "\n"

    def events_csv(self) -> str:
        """One row per failure: round,event,subject; a vertical cascade also
        lists the switches orphaned at the fixed point, under the last round."""
        event = "controller_failed" if self.kind == "vertical" else "node_failed"
        lines = ["round,event,subject"]
        for r, rnd in enumerate(self.rounds, 1):
            lines += [f"{r},{event},{v}" for v in sorted(rnd.failed_now)]
        if self.kind == "vertical":
            last = len(self.rounds)
            lines += [f"{last},switch_orphaned,{sw}"
                      for sw in sorted(self.orphaned_switches)]
        return "\n".join(lines) + "\n"

    def dropped_csv(self) -> str:
        """Horizontal only: one row per (round, unroutable demand)."""
        if self.kind != "horizontal":
            raise ScenarioError("dropped log exists only for horizontal cascades")
        lines = ["round,kind,src,dst,volume"]
        for r, rnd in enumerate(self.rounds, 1):
            for kind, src, dst, volume in rnd.dropped:
                lines.append(f"{r},{kind},{src},{dst},{_fmt(volume)}")
        return "\n".join(lines) + "\n"

    def terminal_json(self) -> str:
        """The fixed point as `json.dumps(payload, sort_keys=True, indent=2)`
        writes it, plus a newline; see `_json_value`."""
        last = self.rounds[-1]
        payload = {
            "kind": self.kind,
            "rounds": len(self.rounds),
            "loads": {str(s): load for s, load in last.loads.items()},
        }
        if self.kind == "vertical":
            payload["failed_controllers"] = sorted(self.failed)
            payload["orphaned_switches"] = sorted(self.orphaned_switches)
            payload["assignment"] = {str(sw): c for sw, c in self.assignment.items()}
        else:
            payload["failed_nodes"] = sorted(self.failed)
            payload["dropped"] = [list(d) for d in last.dropped]
        if self.warnings:
            payload["warnings"] = list(self.warnings)
        body = ",\n".join(f"  {json.dumps(k)}: {_json_value(payload[k])}" for k in sorted(payload))
        return f"{{\n{body}\n}}\n"


_FLAT_JSON = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": "))


def _json_value(value) -> str:
    """`value` as `json.dumps(..., sort_keys=True, indent=2)` writes it under
    a top-level key. That encoder is pure Python; for a nonempty flat map
    or list, the C encoder writes the items with the indented separators,
    and only the breaks inside the brackets are added."""
    if value and isinstance(value, (dict, list)):
        items = value.values() if isinstance(value, dict) else value
        if not any(map(isinstance, items, repeat((dict, list, tuple)))):
            text = _FLAT_JSON.encode(value)
            return f"{text[0]}\n    {text[1:-1]}\n  {text[-1]}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
