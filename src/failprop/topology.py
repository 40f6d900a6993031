"""Two-plane network graphs: construction, edge-list round trip, generators.

Nodes are dense integer ids 0..n-1. A single undirected adjacency serves
both the control-plane and the data-plane neighbor relation; code that
needs only one plane filters by node role (controllers never carry data
traffic, switches never act as controllers).

Edge-list file format (UTF-8, `#` starts a comment anywhere on a line):

    0 1               one `u v` line per edge, before any section header
    [nodes]           optional; lets a file declare isolated nodes
    count=10
    [roles]           optional; unannotated nodes are `generic`
    3=controller
    [controllers]     optional; ordered controller preference per switch
    0:3,4

Node tokens may be names instead of integers; names are mapped to dense
ids in order of first appearance and the mapping is kept on the Network
as an alias table.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import IO, Iterable

EDGE_SWITCH = "edge_switch"
CORE_SWITCH = "core_switch"
CONTROLLER = "controller"
GENERIC = "generic"
ROLES = (EDGE_SWITCH, CORE_SWITCH, CONTROLLER, GENERIC)
SWITCH_ROLES = (EDGE_SWITCH, CORE_SWITCH)


class TopologyError(ValueError):
    """Bad graph input: parse errors, invariant violations, bad parameters."""


class GeneratorParamError(TopologyError):
    """A generator parameter of the wrong kind: a usage error, exit code 2."""


@dataclass(frozen=True)
class Network:
    """Immutable two-plane graph. Safe to share across concurrent runs.

    edges holds normalized (u, v) pairs with u < v; controller_prefs maps a
    switch id to its ordered failover list of controller ids.
    """

    node_count: int
    roles: tuple[str, ...]
    edges: frozenset[tuple[int, int]]
    controller_prefs: dict[int, tuple[int, ...]] = field(default_factory=dict)
    aliases: dict[str, int] | None = field(default=None, compare=False)
    _adj: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.node_count
        if n < 1:
            raise TopologyError("node_count must be >= 1")
        if len(self.roles) != n:
            raise TopologyError(f"roles has {len(self.roles)} entries for {n} nodes")
        for v, role in enumerate(self.roles):
            if role not in ROLES:
                raise TopologyError(f"node {v}: unknown role {role!r}")
        adj: list[list[int]] = [[] for _ in range(n)]
        for e in self.edges:
            u, v = e
            if u == v:
                raise TopologyError(f"self-loop at node {u}")
            if not (0 <= u < v < n):
                raise TopologyError(f"edge {e} out of range or not normalized")
            adj[u].append(v)
            adj[v].append(u)
        for sw, prefs in self.controller_prefs.items():
            if not (0 <= sw < n):
                raise TopologyError(f"controller_prefs: unknown switch id {sw}")
            if self.roles[sw] not in SWITCH_ROLES:
                raise TopologyError(
                    f"controller_prefs: node {sw} has role {self.roles[sw]}, not a switch"
                )
            if len(set(prefs)) != len(prefs):
                raise TopologyError(f"controller_prefs: duplicate controller for switch {sw}")
            for c in prefs:
                if not (0 <= c < n):
                    raise TopologyError(f"controller_prefs: unknown controller id {c}")
                if self.roles[c] != CONTROLLER:
                    raise TopologyError(
                        f"controller_prefs: node {c} has role {self.roles[c]}, not controller"
                    )
        object.__setattr__(self, "_adj", tuple(tuple(sorted(x)) for x in adj))

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        pairs: Iterable[tuple[int, int]],
        roles: dict[int, str] | None = None,
        controller_prefs: dict[int, Iterable[int]] | None = None,
        aliases: dict[str, int] | None = None,
    ) -> "Network":
        """Build a Network from unordered edge pairs, rejecting duplicates."""
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
        return cls(node_count, tuple(role_list), frozenset(seen), prefs, aliases)

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor list per node id."""
        return self._adj

    def neighbors(self, v: int) -> set[int]:
        if not (0 <= v < self.node_count):
            raise TopologyError(f"unknown node id {v}")
        return set(self._adj[v])

    def controllers(self) -> tuple[int, ...]:
        return tuple(v for v, r in enumerate(self.roles) if r == CONTROLLER)

    def switches(self) -> tuple[int, ...]:
        return tuple(v for v, r in enumerate(self.roles) if r in SWITCH_ROLES)

    def edge_count(self) -> int:
        return len(self.edges)


# ---------------------------------------------------------------------------
# edge-list parsing / serialization

_SECTIONS = ("nodes", "roles", "controllers")


def _err(lineno: int, msg: str) -> TopologyError:
    return TopologyError(f"line {lineno}: {msg}")


def load_edge_list(source: str | IO[str], roles: dict | None = None) -> Network:
    """Parse an edge-list document into a validated Network.

    `source` is the text itself or an open text stream. `roles` optionally
    adds or overrides role annotations (keyed by id or alias name) on top
    of the file's own `[roles]` section.
    """
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
            if section not in _SECTIONS:
                raise _err(lineno, f"unknown section [{section}]")
            continue
        if section == "":
            parts = line.split()
            if len(parts) != 2:
                raise _err(lineno, f"expected 'u v', got {line!r}")
            edge_tokens.append((lineno, parts[0], parts[1]))
        elif section == "nodes":
            key, sep, value = line.partition("=")
            if sep != "=" or key.strip() != "count":
                raise _err(lineno, f"expected 'count=N' in [nodes], got {line!r}")
            try:
                declared_count = int(value.strip())
            except ValueError:
                raise _err(lineno, f"bad node count {value.strip()!r}") from None
            if declared_count < 1:
                raise _err(lineno, "node count must be >= 1")
        elif section == "roles":
            token, sep, role = line.partition("=")
            if sep != "=":
                raise _err(lineno, f"expected 'id=role', got {line!r}")
            role_lines.append((lineno, token.strip(), role.strip()))
        elif section == "controllers":
            token, sep, rest = line.partition(":")
            if sep != ":":
                raise _err(lineno, f"expected 'switch:ctrl,ctrl,...', got {line!r}")
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
            raise _err(lineno, f"self-loop at node {ut}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise _err(lineno, f"duplicate edge {ut} {vt}")
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
            missing = sorted(set(range(n)) - set(ids))
            raise TopologyError(f"node ids not contiguous from 0 (missing {missing})")

    role_map: dict[int, str] = {}
    for lineno, token, role in role_lines:
        if role not in ROLES:
            raise _err(lineno, f"unknown role {role!r}")
        v = resolve[token]
        if v >= n:
            raise _err(lineno, f"dangling role id {token}")
        role_map[v] = role
    for key, role in (roles or {}).items():
        if isinstance(key, int):
            v = key
        elif key in resolve:
            v = resolve[key]
        else:
            try:
                v = int(key)
            except ValueError:
                raise TopologyError(f"unknown node {key!r} in roles") from None
        if not (0 <= v < n):
            raise TopologyError(f"dangling role id {key!r}")
        role_map[v] = role

    prefs: dict[int, Iterable[int]] = {}
    for lineno, token, ctrls in pref_lines:
        sw = resolve[token]
        if sw >= n:
            raise _err(lineno, f"dangling switch id {token}")
        cs = []
        for ct in ctrls:
            c = resolve[ct]
            if c >= n:
                raise _err(lineno, f"dangling controller id {ct}")
            cs.append(c)
        prefs[sw] = cs

    return Network.from_edges(n, pairs, role_map, prefs, aliases)


def serialize_edge_list(net: Network) -> str:
    """Render a Network back to edge-list text; inverse of load_edge_list."""
    lines = [f"{u} {v}" for u, v in sorted(net.edges)]
    lines += ["[nodes]", f"count={net.node_count}"]
    annotated = [(v, r) for v, r in enumerate(net.roles) if r != GENERIC]
    if annotated:
        lines.append("[roles]")
        lines += [f"{v}={r}" for v, r in annotated]
    if net.controller_prefs:
        lines.append("[controllers]")
        for sw in sorted(net.controller_prefs):
            lines.append(f"{sw}:" + ",".join(str(c) for c in net.controller_prefs[sw]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators; every graph comes out with all roles generic

def ring(n: int) -> Network:
    if n < 2:
        raise TopologyError("ring needs n >= 2")
    pairs = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    return Network.from_edges(n, sorted(pairs))


def grid(rows: int, cols: int) -> Network:
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise TopologyError("grid needs rows, cols >= 1 and at least 2 nodes")
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1))
            if r + 1 < rows:
                pairs.append((v, v + cols))
    return Network.from_edges(rows * cols, pairs)


def erdos_renyi(n: int, p: float, seed: int = 0) -> Network:
    if n < 2:
        raise TopologyError("erdos_renyi needs n >= 2")
    if not 0.0 <= p <= 1.0:
        raise TopologyError("erdos_renyi needs 0 <= p <= 1")
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Network.from_edges(n, pairs)


def barabasi_albert(n: int, m: int, seed: int = 0) -> Network:
    """Preferential attachment over a complete core of m+1 nodes.

    The complete core guarantees every node ends with degree >= m.
    """
    if n < 2:
        raise TopologyError("barabasi_albert needs n >= 2")
    if not 1 <= m < n:
        raise TopologyError("barabasi_albert needs 1 <= m < n")
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(m + 1) for v in range(u + 1, m + 1)]
    # one entry per edge endpoint: sampling from this list is degree-weighted
    endpoints: list[int] = []
    for u, v in pairs:
        endpoints.extend((u, v))
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(endpoints[int(rng.random() * len(endpoints))])
        for t in sorted(targets):
            pairs.append((t, new))
            endpoints.extend((t, new))
    return Network.from_edges(n, pairs)


# generator, its parameter names (all integers except er's p), takes a seed
_GENERATORS = {
    "ring": (ring, ("n",), False),
    "grid": (grid, ("rows", "cols"), False),
    "er": (erdos_renyi, ("n", "p"), True),
    "ba": (barabasi_albert, ("n", "m"), True),
}
_GENERATORS["erdos_renyi"] = _GENERATORS["er"]
_GENERATORS["barabasi_albert"] = _GENERATORS["ba"]


def generate_topology(kind: str, params: Iterable[float], seed: int = 0) -> Network:
    """Dispatch to a named generator; deterministic for fixed (kind, params, seed)."""
    if kind not in _GENERATORS:
        raise TopologyError(f"unknown generator {kind!r} (choices: ring, grid, er, ba)")
    fn, names, seeded = _GENERATORS[kind]
    args = list(params)
    if len(args) != len(names):
        raise TopologyError(f"{kind} takes {len(names)} parameter(s): {kind}:{':'.join(names)}")
    for i, name in enumerate(names):
        x = float(args[i])
        if name != "p" and not x.is_integer():
            raise GeneratorParamError(f"{kind} parameter {name} must be an integer, got {x}")
        args[i] = x if name == "p" else int(x)
    return fn(*args, seed) if seeded else fn(*args)


# ---------------------------------------------------------------------------
# validation report

@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        return [f"violation: {m}" for m in self.violations] + [
            f"warning: {m}" for m in self.warnings
        ]


def connected_components(net: Network, nodes: Iterable[int] | None = None) -> list[set[int]]:
    """Connected components of the subgraph induced by `nodes` (default: all)."""
    pool = set(range(net.node_count)) if nodes is None else set(nodes)
    comps: list[set[int]] = []
    left = set(pool)
    while left:
        start = left.pop()
        comp = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in net.adj[v]:
                if u in left:
                    left.discard(u)
                    comp.add(u)
                    queue.append(u)
        comps.append(comp)
    return comps


def validate(net: Network) -> ValidationReport:
    """Check structural invariants and collect scenario-readiness warnings."""
    report = ValidationReport()
    for e in net.edges:
        u, v = e
        if u == v:
            report.violations.append(f"self-loop at node {u}")
        if not (0 <= u < v < net.node_count):
            report.violations.append(f"edge {e} out of range")
    for sw, prefs in net.controller_prefs.items():
        if net.roles[sw] not in SWITCH_ROLES:
            report.violations.append(f"prefs key {sw} is not a switch")
        for c in prefs:
            if net.roles[c] != CONTROLLER:
                report.violations.append(f"pref target {c} is not a controller")
    dp_nodes = [v for v in range(net.node_count) if net.roles[v] != CONTROLLER]
    if len(dp_nodes) >= 2 and len(connected_components(net, dp_nodes)) > 1:
        report.warnings.append("DP disconnected")
    if net.controllers():
        for sw in net.switches():
            if not net.controller_prefs.get(sw):
                report.warnings.append(f"unassigned switch {sw}")
    return report
