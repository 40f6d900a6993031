"""Two-plane network graphs: construction, edge-list round trip, generators.

Nodes are dense integer ids 0..n-1. A single undirected adjacency serves
both the control-plane and the data-plane neighbor relation; code that
needs only one plane filters by node role (controllers never carry data
traffic, switches never act as controllers).

The edge-list file format is specified in README, "Edge-list files". A
names-mode file keeps its name -> id table on the Network as `aliases`.
`split_sections`, which configs share, cuts a document into sections;
`load_edge_list` reads one in three stages: `_scan`, `_resolve` and
`Network.from_edges`.
"""

from __future__ import annotations

import gc
import math
import random
import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count, filterfalse, islice, repeat, starmap
from operator import eq, itemgetter, methodcaller, ne, not_
from typing import Iterable

EDGE_SWITCH = "edge_switch"
CORE_SWITCH = "core_switch"
CONTROLLER = "controller"
GENERIC = "generic"
ROLES = (EDGE_SWITCH, CORE_SWITCH, CONTROLLER, GENERIC)
SWITCH_ROLES = (EDGE_SWITCH, CORE_SWITCH)
_ROLE_SET = frozenset(ROLES)


class InputError(ValueError):
    """Bad parameters or config: the base of each usage error (CLI exit 2)."""


class TopologyError(ValueError):
    """Bad graph input: parse errors, invariant violations, bad parameters."""


class GeneratorParamError(TopologyError, InputError):
    """A bad generator name or argument: a usage error, exit code 2."""


def _fmt(x) -> str:
    # compact numbers for CSV/JSON/config text: 180.0 -> "180", inf -> "inf"
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


def _plain(value: str) -> str:
    """`value` if it is plain ASCII with no `_`; a ValueError otherwise. A
    number must pass this before `int()` or `float()` reads it, so `5_0` and
    non-ASCII digits, which both would accept, are errors."""
    if "_" in value or not value.isascii():
        raise ValueError(value)
    return value


@dataclass(frozen=True)
class Network:
    """Immutable two-plane graph. Safe to share across concurrent runs.

    edges holds normalized (u, v) pairs with u < v; controller_prefs maps a
    switch id to its ordered failover list of controller ids; adj holds the
    sorted neighbor list of each node id. Edges are checked when the
    Network is made, but adj is built on first read (the vertical cascade
    never reads it) and kept; it depends on edges alone, so building it
    twice, in two processes say, gives the same tuples.
    """

    node_count: int
    roles: tuple[str, ...]
    edges: frozenset[tuple[int, int]]
    controller_prefs: dict[int, tuple[int, ...]] = field(default_factory=dict)
    aliases: dict[str, int] | None = field(default=None, compare=False)

    def __post_init__(self):
        n = self.node_count
        if n < 1:
            raise TopologyError("node_count must be >= 1")
        if len(self.roles) != n:
            raise TopologyError(f"roles has {len(self.roles)} entries for {n} nodes")
        for role in filterfalse(_ROLE_SET.__contains__, self.roles):
            raise TopologyError(f"node {self.roles.index(role)}: unknown role {role!r}")
        for e in self.edges:
            u, v = e
            if u == v:
                raise TopologyError(f"self-loop at node {u}")
            if not (0 <= u < v < n):
                raise TopologyError(f"edge {e} out of range or not normalized")
        prefs_of = self.controller_prefs
        if not prefs_of:
            return
        switches, controllers = set(self.switches()), set(self.controllers())
        lists = prefs_of.values()
        if (switches.issuperset(prefs_of) and controllers.issuperset(chain.from_iterable(lists))
                and all(map(eq, map(len, map(set, lists)), map(len, lists)))):
            return
        # a bulk check failed: name the first bad switch
        for sw, prefs in prefs_of.items():
            if sw not in switches:
                if not (0 <= sw < n):
                    raise TopologyError(f"controller_prefs: unknown switch id {sw}")
                raise TopologyError(
                    f"controller_prefs: node {sw} has role {self.roles[sw]}, not a switch"
                )
            if len(set(prefs)) != len(prefs):
                raise TopologyError(f"controller_prefs: duplicate controller for switch {sw}")
            for c in filterfalse(controllers.__contains__, prefs):
                if not (0 <= c < n):
                    raise TopologyError(f"controller_prefs: unknown controller id {c}")
                raise TopologyError(
                    f"controller_prefs: node {c} has role {self.roles[c]}, not controller"
                )

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for a in adj:
            a.sort()
        return tuple(map(tuple, adj))

    @cached_property
    def _controllers(self) -> tuple[int, ...]:
        return tuple(v for v, r in enumerate(self.roles) if r == CONTROLLER)

    @cached_property
    def _switches(self) -> tuple[int, ...]:
        return tuple(v for v, r in enumerate(self.roles) if r in SWITCH_ROLES)

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
        if not isinstance(pairs, list):
            pairs = list(pairs)  # may be a generator
        # dict.fromkeys: a set grown item by item can take three times the
        # memory, and a frozenset copied from a dict is sized to its contents
        edges = dict.fromkeys(e if e[0] < e[1] else (e[1], e[0]) for e in pairs)
        if len(edges) != len(pairs) or any(starmap(eq, edges)):
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
        return cls(node_count, tuple(role_list), frozenset(edges), prefs, aliases)

    def neighbors(self, v: int) -> set[int]:
        if not (0 <= v < self.node_count):
            raise TopologyError(f"unknown node id {v}")
        return set(self.adj[v])

    def controllers(self) -> tuple[int, ...]:
        return self._controllers

    def switches(self) -> tuple[int, ...]:
        return self._switches

    def edge_count(self) -> int:
        return len(self.edges)


# ---------------------------------------------------------------------------
# edge-list parsing / serialization

_SECTIONS = ("nodes", "roles", "controllers")

# a `#` comment runs to the next character that `str.splitlines` breaks at
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*")


def _err(lineno: int, msg: str) -> TopologyError:
    return TopologyError(f"line {lineno}: {msg}")


def _first(flags, linenos: list[int], lines: list[str], msg: str) -> list[tuple[int, str]]:
    """[(line number, message)] of the first line whose flag is set, or []."""
    return [(linenos[i], msg.format(lines[i])) for i in islice(compress(count(), flags), 1)]


def _field(lines: list[str], sep: str, i: int) -> list[str]:
    """Field i of each line's partition at `sep` (0 before it, 2 after it)."""
    return list(map(itemgetter(i), map(methodcaller("partition", sep), lines)))


def split_sections(text: str) -> list[tuple[str, int, list[int], list[str]]]:
    """Cut a document at its `[section]` headers, with `#` comments and
    blank lines left out.

    Returns (name, header line number, line numbers, lines) per part, in
    file order; the part before the first header is named "" with header
    line 0. Names are stripped and lower-cased and may repeat: checking
    them is the caller's job.

    Comments are cut from the whole text in one regex pass before it is
    split into lines, which reads each line as `raw.split("#", 1)[0]`
    would. A comment becomes a space, not nothing: deleting the one in
    `"\r#\n"` would leave one `\r\n` break where there were two, and
    every later line number would shift.
    """
    lines = list(map(str.strip, _COMMENT.sub(" ", text).splitlines()))
    heads = [i for i, line in enumerate(lines) if line[:1] == "[" and line[-1:] == "]"]
    parts = []
    name, start = "", 0
    for end in heads + [len(lines)]:
        seg = lines[start:end]
        parts.append((name, start, list(compress(range(start + 1, end + 1), seg)),
                      list(filter(None, seg))))
        if end < len(lines):
            name, start = lines[end][1:-1].strip().lower(), end + 1
    return parts


class _Shared(dict):
    """Token text -> the first string object cut with that text."""

    def __missing__(self, token: str) -> str:
        self[token] = token
        return token


def _scan(text: str):
    """Stage 1, the line pass: cut the document into sections and check
    the shape of every line.

    Returns each kind of line as its line numbers plus its node tokens:
    edge lines as numbers and both ends of every edge, line by line; role
    lines as numbers, ids and roles; controller lines as numbers, switches
    and one tuple of controller tokens per line; then the declared node
    count and the table of distinct node tokens. A malformed line raises
    its `line N:` error; of several, the first in the file does, as in a
    line-by-line reading.

    Every node token goes through one `_Shared` dict as it is cut, and
    every role name through another, so the scan returns one string
    object per distinct text: the copies die with their line instead of
    living until `_resolve` returns. A large file names few nodes many
    times (20,000 switches with 8 controllers each are some 260k tokens
    for 20k nodes), and one object per token was most of the memory a
    load held. The node dict is returned as the token table: its keys
    are exactly the distinct node tokens, in scan order, not alias order.
    """
    # section -> (line numbers, lines); a header may repeat
    body: dict[str, tuple[list[int], list[str]]] = {s: ([], []) for s in ("", *_SECTIONS)}
    errors: list[tuple[int, str]] = []  # the first bad line of each section
    for name, head, linenos, lines in split_sections(text):
        # `head`, not the name: an empty header `[]` is named "" too
        if head and name not in _SECTIONS:
            errors.append((head, f"unknown section [{name}]"))
            break  # nothing after it is read
        body[name][0].extend(linenos)
        body[name][1].extend(lines)

    edge_nos, kept = body[""]
    errors += _first(map(ne, map(len, map(str.split, kept)), repeat(2)), edge_nos, kept,
                     "expected 'u v', got {!r}")
    tokens = _Shared()
    share = tokens.__getitem__
    ends = list(map(share, " ".join(kept).split()))

    declared_count: int | None = None
    for lineno, line in zip(*body["nodes"]):
        key, sep, value = line.partition("=")
        if sep != "=" or key.strip() != "count":
            msg = f"expected 'count=N' in [nodes], got {line!r}"
        elif declared_count is not None:
            msg = "repeated count= in [nodes]"
        else:
            try:
                declared_count = int(_plain(value.strip()))
            except ValueError:
                msg = f"bad node count {value.strip()!r}"
            else:
                if declared_count >= 1:
                    continue
                msg = "node count must be >= 1"
        errors.append((lineno, msg))
        break

    role_nos, role_lines = body["roles"]
    pref_nos, pref_lines = body["controllers"]
    role_ids = list(map(share, map(str.strip, _field(role_lines, "=", 0))))
    switches = list(map(share, map(str.strip, _field(pref_lines, ":", 0))))
    for linenos, kept, sep, ids, msg in (
        (role_nos, role_lines, "=", role_ids, "expected 'id=role', got {!r}"),
        (pref_nos, pref_lines, ":", switches, "expected 'switch:ctrl,ctrl,...', got {!r}"),
    ):
        errors += _first(map(not_, map(str.__contains__, kept, repeat(sep))), linenos, kept, msg)
        errors += _first(map(not_, ids), linenos, kept, "empty node id, got {!r}")
    # `0:` is an empty list; `0:1,,`, `0:1,` and `0:,1` have an empty item
    prefs = [tuple(map(share, map(str.strip, rest.split(",")))) if rest else ()
             for rest in _field(pref_lines, ":", 2)]
    errors += _first(map(tuple.__contains__, prefs, repeat("")), pref_nos, pref_lines,
                     "empty controller item, got {!r}")
    if errors:
        # of two errors on one line, the one appended first (its node id) wins
        raise _err(*min(errors, key=itemgetter(0)))

    role_names = list(map(_Shared().__getitem__, map(str.strip, _field(role_lines, "=", 2))))
    return (edge_nos, ends, role_nos, role_ids, role_names, pref_nos, switches, prefs,
            declared_count, tokens)


def _resolve(edge_nos, ends, role_nos, role_tokens, role_names, pref_nos, switch_tokens,
             pref_tokens, declared_count: int | None, tokens: dict[str, str]):
    """Stage 2: turn the scanned tokens into node ids and check them.

    `tokens` is the scan's table of distinct node tokens. An integer-id
    file, one whose every token passes `_plain` and reads with `int`, maps
    it through `int` as it stands, since ids do not depend on its order;
    any other token (`a`, `1_0`, a non-ASCII digit) makes the file
    names-mode, and only a names-mode file lists the tokens again, in
    alias order. Returns the arguments of `Network.from_edges`: (n,
    normalized edge pairs, role map, preference map, alias table or
    None); no token outlives this stage. A line-by-line loop runs only
    when a bulk check fails, to name the first bad line.
    """
    aliases: dict[str, int] | None = None
    try:
        _plain("".join(tokens))  # one pass over every token for `_` and non-ASCII
        resolve = dict(zip(tokens, map(int, tokens)))
    except ValueError:
        # the distinct tokens in order of first appearance: edge ends line
        # by line, role ids, then each switch followed by its controllers
        distinct = dict.fromkeys(chain(
            ends, role_tokens, chain.from_iterable(map(chain, zip(switch_tokens), pref_tokens))
        ))
        aliases = resolve = dict(zip(distinct, range(len(distinct))))
    get = resolve.__getitem__

    end_ids = map(get, ends)
    pairs = [(u, v) if u < v else (v, u) for u, v in zip(end_ids, end_ids)]
    if len(dict.fromkeys(pairs)) != len(pairs) or any(starmap(eq, pairs)):
        seen: set[tuple[int, int]] = set()
        for lineno, ut, vt, e in zip(edge_nos, ends[0::2], ends[1::2], pairs):
            if e[0] == e[1]:
                raise _err(lineno, f"self-loop at node {ut}")
            if e in seen:
                raise _err(lineno, f"duplicate edge {ut} {vt}")
            seen.add(e)

    ids = set(resolve.values())
    if ids and min(ids) < 0:
        raise TopologyError(f"negative node id {min(ids)}")
    if declared_count is not None:
        n = declared_count
        if ids and max(ids) >= n:
            raise TopologyError(f"node id {max(ids)} exceeds declared count {n}")
    else:
        if not ids:
            raise TopologyError("empty edge list and no [nodes] count")
        n = max(ids) + 1
        if len(ids) != n:
            # stop at 10 missing ids, so the cost is bounded by the file, not by n
            missing = list(islice(filterfalse(ids.__contains__, range(n)), 10))
            if (gap := n - len(ids)) > 10:
                missing = f"{gap} ids, first {missing}"
            raise TopologyError(f"node ids not contiguous from 0 (missing {missing})")
    # every token now names a node in [0, n)

    role_ids = list(map(get, role_tokens))
    role_map = dict(zip(role_ids, role_names))
    if len(role_map) != len(role_ids) or not _ROLE_SET.issuperset(role_names):
        first: dict[int, int] = {}
        for lineno, token, role, v in zip(role_nos, role_tokens, role_names, role_ids):
            if role not in ROLES:
                raise _err(lineno, f"unknown role {role!r}")
            if v in first:
                raise _err(lineno, f"repeated role for node {token} (first on line {first[v]})")
            first[v] = lineno

    switches = list(map(get, switch_tokens))
    prefs = dict(zip(switches, map(tuple, map(map, repeat(get), pref_tokens))))
    if len(prefs) != len(switches):
        first = {}
        for lineno, token, sw in zip(pref_nos, switch_tokens, switches):
            if sw in first:
                raise _err(lineno, f"repeated controller list for switch {token} "
                                   f"(first on line {first[sw]})")
            first[sw] = lineno

    return n, pairs, role_map, prefs, aliases


def load_edge_list(text: str) -> Network:
    """Parse edge-list text into a validated Network.

    The stages (`_scan`, `_resolve`, `Network.from_edges`) build no
    reference cycles, only enough containers to set off the cyclic garbage
    collector many times, so it is paused while they run and its earlier
    state is put back on return or on error.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return Network.from_edges(*_resolve(*_scan(text)))
    finally:
        if enabled:
            gc.enable()


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
        raise GeneratorParamError("ring needs n >= 2")
    pairs = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    return Network.from_edges(n, sorted(pairs))


def grid(rows: int, cols: int) -> Network:
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise GeneratorParamError("grid needs rows, cols >= 1 and at least 2 nodes")
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
        raise GeneratorParamError("erdos_renyi needs n >= 2")
    if not 0.0 <= p <= 1.0:
        raise GeneratorParamError("erdos_renyi needs 0 <= p <= 1")
    if p == 0.0:
        return Network.from_edges(n, [])
    if p == 1.0:
        return Network.from_edges(n, [(u, v) for v in range(n) for u in range(v)])
    # geometric skipping (Batagelj & Brandes, PRE 71, 2005): walk the pairs
    # (u, v), u < v, in order of v then u, jumping over a geometric number
    # of absent pairs per draw, so the cost is O(n + m), not O(n^2)
    rng = random.Random(seed)
    log_q = math.log1p(-p)
    pairs = []
    u, v = -1, 1
    while v < n:
        skip = math.log1p(-rng.random()) / log_q
        if skip >= n * n:  # past every pair left; also inf for a subnormal p
            break
        u += 1 + int(skip)
        while u >= v and v < n:
            u -= v
            v += 1
        if v < n:
            pairs.append((u, v))
    return Network.from_edges(n, pairs)


def barabasi_albert(n: int, m: int, seed: int = 0) -> Network:
    """Preferential attachment over a complete core of m+1 nodes.

    The complete core guarantees every node ends with degree >= m.
    """
    if n < 2:
        raise GeneratorParamError("barabasi_albert needs n >= 2")
    if not 1 <= m < n:
        raise GeneratorParamError("barabasi_albert needs 1 <= m < n")
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


def generate_topology(kind: str, params: Iterable[float], seed: int = 0) -> Network:
    """Dispatch to a named generator; deterministic for fixed (kind, params, seed)."""
    if kind not in _GENERATORS:
        raise GeneratorParamError(f"unknown generator {kind!r} (choices: ring, grid, er, ba)")
    fn, names, seeded = _GENERATORS[kind]
    args = list(params)
    if len(args) != len(names):
        usage = ":".join((kind, *names))
        raise GeneratorParamError(f"{kind} takes {len(names)} parameter(s): {usage}")
    for i, name in enumerate(names):
        x = float(args[i])
        if name != "p" and not x.is_integer():
            raise GeneratorParamError(f"{kind} parameter {name} must be an integer, got {x}")
        args[i] = x if name == "p" else int(x)
    return fn(*args, seed) if seeded else fn(*args)


def connected_components(net: Network, nodes: Iterable[int] | None = None) -> list[set[int]]:
    """Connected components of the subgraph induced by `nodes` (default: all)."""
    left = set(range(net.node_count)) if nodes is None else set(nodes)
    comps: list[set[int]] = []
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


def validate(net: Network) -> list[str]:
    """Collect scenario-readiness warnings. Structural invariants need no
    check here: a Network that violates one cannot be constructed."""
    warnings = []
    dp_nodes = [v for v in range(net.node_count) if net.roles[v] != CONTROLLER]
    if len(dp_nodes) >= 2 and len(connected_components(net, dp_nodes)) > 1:
        warnings.append("DP disconnected")
    if net.controllers():
        for sw in net.switches():
            if not net.controller_prefs.get(sw):
                warnings.append(f"unassigned switch {sw}")
    return warnings
