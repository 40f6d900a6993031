"""Outside-in tracing of failprop's layers for the benchmark's traced run.

`Tracer.install` wraps the public functions of each failprop module at every
binding site: the modules import these functions by name (`from .epidemic
import run`), so patching only the defining module would miss calls. Each
call records a span (id, name, start, end, parent, run id, thread) in
memory; `restore` puts the originals back. A few wrappers also read the
return value to count useful work, so ratios are measured where the work
happens.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

# (layer name, module, attribute); a dotted attribute is a method of a class
LAYERS = (
    ("topology.load_edge_list", "failprop.topology", "load_edge_list"),
    ("topology.generate_topology", "failprop.topology", "generate_topology"),
    ("topology.Network.from_edges", "failprop.topology", "Network.from_edges"),
    ("config.load_config", "failprop.config", "load_config"),
    ("config.build_network", "failprop.config", "build_network"),
    ("config.render_resolved", "failprop.config", "render_resolved"),
    ("epidemic.step", "failprop.epidemic", "step"),
    ("epidemic.run", "failprop.epidemic", "run"),
    ("epidemic.monte_carlo", "failprop.epidemic", "monte_carlo"),
    ("metrics.threshold_sweep", "failprop.metrics", "threshold_sweep"),
    ("metrics.stabilization_time", "failprop.metrics", "stabilization_time"),
    ("cascades.route_demand", "failprop.cascades", "route_demand"),
    ("cascades.compute_loads", "failprop.cascades", "compute_loads"),
    ("cascades.assign_switches", "failprop.cascades", "assign_switches"),
    ("cascades.run_vertical", "failprop.cascades", "run_vertical"),
    ("cascades.run_horizontal", "failprop.cascades", "run_horizontal"),
    ("cascades.trace_render", "failprop.cascades", "CascadeTrace.csv"),
    ("cascades.trace_render", "failprop.cascades", "CascadeTrace.dropped_csv"),
    ("cascades.trace_render", "failprop.cascades", "CascadeTrace.terminal_json"),
    ("cli.main", "failprop.cli", "main"),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    thread: int


class _Open:
    __slots__ = ("id", "name")

    def __init__(self, id_: int, name: str):
        self.id = id_
        self.name = name


class Tracer:
    """Span recorder plus the exact counts of one traced CLI run at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run = 0
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._last_path: dict[tuple, object] = {}
        self._last_assignment: dict[int | None, dict] = {}
        self._after = {
            "epidemic.step": self._after_step,
            "epidemic.run": self._after_run,
            "cascades.route_demand": self._after_route,
            "cascades.assign_switches": self._after_assign,
            "topology.load_edge_list": self._after_load,
        }

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        after = self._after.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1].id if stack else None
            frame = _Open(next(self._ids), name)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(frame.id, name, start, end, parent, self.run,
                                       threading.get_ident()))
            if after is not None:
                after(args, result, stack)
            return result

        return traced

    def _ancestor(self, stack: list[_Open], name: str) -> int | None:
        for frame in reversed(stack):
            if frame.name == name:
                return frame.id
        return None

    # -- counts read off return values ---------------------------------------

    def _after_step(self, args, sv, stack):
        # one step visits every node of the network once
        with self._lock:
            self.counts["epidemic.node_visits"] += args[0].node_count

    def _after_run(self, args, trace, stack):
        # state changes drawn by step: every event after the tick-0 seeding
        seeded = sum(1 for ev in itertools.takewhile(lambda e: e[0] == 0, trace.events))
        with self._lock:
            self.counts["epidemic.events"] += len(trace.events) - seeded

    def _after_route(self, args, path, stack):
        # a flow is (src, dst) within one cascade
        key = (self._ancestor(stack, "cascades.run_horizontal"), args[2], args[3])
        if key in self._last_path:
            self.counts["cascades.route_demand.compared"] += 1
            self.counts["cascades.route_demand.changed"] += path != self._last_path[key]
        self._last_path[key] = path

    def _after_assign(self, args, assignment, stack):
        key = self._ancestor(stack, "cascades.run_vertical")
        prev = self._last_assignment.get(key)
        if prev is not None:
            self.counts["cascades.assign_switches.compared"] += len(assignment)
            self.counts["cascades.assign_switches.changed"] += sum(
                1 for sw, c in assignment.items() if sw not in prev or prev[sw] != c
            )
        self._last_assignment[key] = assignment

    def _after_load(self, args, net, stack):
        if isinstance(args[0], str):
            self.counts["topology.load_edge_list.bytes"] += len(args[0].encode())

    # -- runs ----------------------------------------------------------------

    def begin_run(self):
        self.run += 1
        self.counts = Counter()
        self._last_path.clear()
        self._last_assignment.clear()

    # -- patching ------------------------------------------------------------

    def install(self):
        """Wrap every layer at each place a failprop module binds it."""
        for _, modname, _ in LAYERS:
            importlib.import_module(modname)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "failprop" or n.startswith("failprop."))]
        self.missing = []
        for name, modname, attr in LAYERS:
            mod = sys.modules[modname]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                raw = None if owner is None else vars(owner).get(method)
                if raw is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(name, raw.__func__))
                else:
                    patched = self.wrap(name, raw)
                self._patch(owner, method, raw, patched)
                continue
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr: str, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# self time

def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def resolve_parents(spans: list[Span]) -> dict[int, int | None]:
    """Parent of each span.

    A span opened on a worker thread has no parent on its own thread; it
    gets the innermost span of the run's first thread whose interval
    contains it, since failprop starts its workers from that thread.
    """
    parent = {s.id: s.parent for s in spans}
    by_run = defaultdict(list)
    for s in spans:
        by_run[s.run].append(s)
    for run_spans in by_run.values():
        root_thread = min(run_spans, key=lambda s: s.start).thread
        holders = [h for h in run_spans if h.thread == root_thread]
        for s in run_spans:
            if s.parent is not None or s.thread == root_thread:
                continue
            inside = [h for h in holders if h.start <= s.start and s.end <= h.end]
            if inside:
                parent[s.id] = min(inside, key=lambda h: h.end - h.start).id
    return parent


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover."""
    parent = resolve_parents(spans)
    by_id = {s.id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        p = parent[s.id]
        if p is not None and p in by_id:
            children[p].append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.id] = (s.end - s.start) - _covered([k for k in kids if k[0] < k[1]])
    return out
