"""Experiment files: sectioned text configs, presets, canonical re-rendering.

A config is a flat file of `[section]` headers over `key=value` lines
(scenario data sections also take bare comma/assignment lines), cut by
`topology.split_sections` as edge lists are. One file describes one
experiment: a topology source plus exactly one of an epidemic [model] or
a cascade [scenario]. Node references in configs may use either integer
ids or the name aliases of the topology file.

`render_resolved` writes the experiment back out in canonical form from
the seed ids or the scenario the run used (defaults explicit, aliases
replaced by ids, seed included), so a run directory always carries
enough to reproduce itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .topology import (
    InputError, Network, TopologyError, _fmt, _plain, generate_topology, load_edge_list,
    split_sections,
)

if TYPE_CHECKING:  # the engines load where a config first needs them, not here
    from .cascades import HorizontalScenario, VerticalScenario
    from .epidemic import EpidemicParams

PRESET_DIR = Path(__file__).parent / "presets"

# scenario data section -> the scenario kinds it belongs to, in check order
_SCENARIO_SECTIONS = {"rate": ("vertical",), "attack": ("vertical",), "demand": ("horizontal",),
                      "injection": ("horizontal",), "capacity": ("vertical", "horizontal")}
_SECTIONS = ("topology", "model", "run", "sweep", "scenario", "output", *_SCENARIO_SECTIONS)


class ConfigError(InputError):
    pass


def read_sections(text: str) -> dict[str, list[tuple[int, str]]]:
    """Split config text into ordered per-section (lineno, line) lists."""
    (_, _, linenos, lines), *parts = split_sections(text)
    if lines:
        raise ConfigError(f"line {linenos[0]}: {lines[0]!r} appears before any [section]")
    sections: dict[str, list[tuple[int, str]]] = {}
    for name, head, linenos, lines in parts:
        if name not in _SECTIONS:
            raise ConfigError(f"line {head}: unknown section [{name}]")
        if name in sections:
            raise ConfigError(f"line {head}: duplicate section [{name}]")
        sections[name] = list(zip(linenos, lines))
    return sections


def _kv(entries, section: str, allowed: tuple[str, ...] | None) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, line in entries:
        key, sep, value = line.partition("=")
        if sep != "=":
            raise ConfigError(f"line {lineno}: expected key=value in [{section}], got {line!r}")
        key, value = key.strip(), value.strip()
        if allowed is not None and key not in allowed:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        out[key] = value
    return out


def _as_int(value: str, name: str) -> int:
    try:
        return int(_plain(value))
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _as_float(value: str, name: str, key: str | None = None) -> float:
    """A finite number; one whose digits before the exponent are not all 0
    but that reads as 0.0 (`1e-400`) is an error, not a silent 0. An error
    names `name`, then `key` if one is given: a caller reading many lines
    passes the line's key apart, so that only an error builds the name."""
    try:
        x = float(_plain(value))
    except ValueError:
        problem = "must be a number"
    else:
        if not math.isfinite(x):
            problem = "must be finite"
        elif x == 0 and any(d in value.lower().partition("e")[0] for d in "123456789"):
            problem = "underflows to 0"
        else:
            return x
    if key is not None:
        name = f"{name} {key}"
    raise ConfigError(f"{name} {problem}, got {value!r}")


def as_seed(value: str, name: str) -> int:
    """A root or generator seed: an integer in [0, 2**64). `rng.derive_seed`
    masks a root seed to 64 bits and `random.Random` seeds from abs(), so
    a seed outside that range would read as another one."""
    x = _as_int(value, name)
    if not 0 <= x < 2**64:
        raise ConfigError(f"{name} must be in [0, 2**64), got {value!r}")
    return x


def _as_bool(value: str, name: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"{name} must be true or false, got {value!r}")


def _as_list(value: str, sep: str, name: str) -> list[str]:
    """The stripped items of a `sep`-separated value; [] when all are blank,
    an error when only some are."""
    items = [t.strip() for t in value.split(sep)]
    if not any(items):
        return []
    if not all(items):
        raise ConfigError(f"{name} has an empty item, got {value!r}")
    return items


def _triple(lineno: int, line: str, section: str, shape: str) -> tuple[str, str, str]:
    """The three stripped comma-separated tokens of a [demand] or [injection] line."""
    parts = tuple(t.strip() for t in line.split(","))
    if len(parts) != 3:
        raise ConfigError(f"line {lineno}: expected {shape} in [{section}]")
    return parts


# [run] key -> its reader; each key sets the ExperimentConfig field of its
# name, and `render_resolved` writes the keys in this order
_RUN = {"max_ticks": _as_int, "n_runs": _as_int, "rng_seed": as_seed,
        "stop": lambda value, name: value, "epsilon": _as_float, "n_jobs": _as_int}


@dataclass
class ExperimentConfig:
    """Parsed experiment file. Node references keep their raw tokens, since
    aliases need a Network to resolve against; `resolve_seeds` and
    `build_*_scenario` resolve them once, and `render_resolved` writes the
    resolved values, not these tokens."""

    topology_file: str | None = None
    topology_generate: str | None = None
    gen_seed: int = 0
    model: EpidemicParams | None = None
    seed_tokens: tuple[str, ...] = ()
    max_ticks: int = 100
    n_runs: int = 1
    rng_seed: int = 0
    stop: str = "absorb"
    epsilon: float = 0.05
    n_jobs: int = 1
    grid: tuple[float, ...] | None = None
    scenario_kind: str | None = None
    misroute: bool = False
    capacity_lines: tuple[tuple[str, str], ...] = ()
    rate_lines: tuple[tuple[str, str], ...] = ()
    attack_line: tuple[str, str] | None = None
    demand_lines: tuple[tuple[str, str, str], ...] = ()
    injection_line: tuple[str, str, str] | None = None
    out_dir: str | None = None
    base_dir: Path = field(default_factory=Path)


def parse_config(text: str, base_dir: Path | str = ".") -> ExperimentConfig:
    sections = read_sections(text)
    cfg = ExperimentConfig(base_dir=Path(base_dir))

    if "topology" in sections:
        kv = _kv(sections["topology"], "topology", ("file", "generate", "gen_seed"))
        cfg.topology_file = kv.get("file")
        cfg.topology_generate = kv.get("generate")
        cfg.gen_seed = as_seed(kv.get("gen_seed", "0"), "gen_seed")
        if (cfg.topology_file is None) == (cfg.topology_generate is None):
            raise ConfigError("[topology] needs exactly one of file= or generate=")

    if "model" in sections and "scenario" in sections:
        raise ConfigError("config may declare [model] or [scenario], not both")

    if "model" in sections:
        from .epidemic import EpidemicParams

        _, *rates = (f.name for f in fields(EpidemicParams))
        kv = _kv(sections["model"], "model", ("model", *rates, "seeds"))
        for key in ("model", "beta"):
            if key not in kv:
                raise ConfigError(f"[model] needs {key}=")
        # the rates are read in field order, each defaulting to 0
        cfg.model = EpidemicParams(kv["model"], *[_as_float(kv.get(k, "0"), k) for k in rates])
        cfg.seed_tokens = tuple(_as_list(kv.get("seeds", ""), ",", "seeds"))
        if not cfg.seed_tokens:
            raise ConfigError("[model] needs a nonempty seeds= list")

    if "run" in sections:
        # every value is read, in file order, before the range checks below
        for key, value in _kv(sections["run"], "run", tuple(_RUN)).items():
            setattr(cfg, key, _RUN[key](value, key))
    for key in ("max_ticks", "n_runs", "n_jobs"):
        if (value := getattr(cfg, key)) < 1:
            raise ConfigError(f"{key} must be >= 1, got {value}")
    if cfg.stop not in ("absorb", "fixed_ticks"):
        raise ConfigError(f"stop must be absorb or fixed_ticks, got {cfg.stop!r}")
    if not 0.0 < cfg.epsilon < 1.0:
        raise ConfigError(f"epsilon must be in (0, 1), got {cfg.epsilon}")

    if "sweep" in sections:
        kv = _kv(sections["sweep"], "sweep", ("grid",))
        cfg.grid = tuple(_as_float(t, "grid") for t in _as_list(kv.get("grid", ""), ",", "grid"))
        if not cfg.grid:
            raise ConfigError("[sweep] needs a nonempty grid= list")

    if "scenario" in sections:
        kv = _kv(sections["scenario"], "scenario", ("kind", "misroute"))
        kind = kv.get("kind")
        if kind not in ("vertical", "horizontal"):
            raise ConfigError(f"[scenario] kind must be vertical or horizontal, got {kind!r}")
        cfg.scenario_kind = kind
        if "misroute" in kv:
            cfg.misroute = _as_bool(kv["misroute"], "misroute")
            if kind != "horizontal":
                raise ConfigError("misroute only applies to horizontal scenarios")

    for name, kinds in _SCENARIO_SECTIONS.items():
        if name in sections and cfg.scenario_kind not in kinds:
            if cfg.scenario_kind is None:
                raise ConfigError(f"[{name}] requires a [scenario] section")
            raise ConfigError(f"[{name}] does not belong in a {cfg.scenario_kind} scenario")

    if "capacity" in sections:
        cfg.capacity_lines = tuple(_kv(sections["capacity"], "capacity", None).items())
    if "rate" in sections:
        cfg.rate_lines = tuple(_kv(sections["rate"], "rate", None).items())
    if "attack" in sections:
        kv = _kv(sections["attack"], "attack", None)
        if len(kv) != 1:
            raise ConfigError("[attack] takes exactly one switch=rate line")
        cfg.attack_line = next(iter(kv.items()))
    if "demand" in sections:
        cfg.demand_lines = tuple(_triple(*entry, "demand", "src,dst,volume")
                                 for entry in sections["demand"])
    if "injection" in sections:
        if len(sections["injection"]) != 1:
            raise ConfigError("[injection] takes exactly one entry,exit,volume line")
        cfg.injection_line = _triple(*sections["injection"][0], "injection", "entry,exit,volume")

    if "output" in sections:
        cfg.out_dir = _kv(sections["output"], "output", ("dir",)).get("dir")

    return cfg


def find_config(ref: str) -> Path:
    """Resolve a --config value: an existing path, or a shipped preset name."""
    p = Path(ref)
    if p.is_file():
        return p
    name = ref if ref.endswith(".cfg") else ref + ".cfg"
    preset = PRESET_DIR / name
    if preset.is_file():
        return preset
    raise ConfigError(f"config {ref!r}: no such file and no preset by that name")


def _read(path: Path | str, error: type[InputError], what: str) -> str:
    """The text of the file at `path`; an unreadable file is an `error`
    naming it as the `what` file."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} file {path}: {exc}") from None


def load_config(ref: str) -> ExperimentConfig:
    path = find_config(ref)
    return parse_config(_read(path, ConfigError, "config"), base_dir=path.parent)


def read_topology(path: Path | str) -> Network:
    """Load the edge-list file at `path`; an unreadable file is a TopologyError."""
    return load_edge_list(_read(path, TopologyError, "topology"))


def build_network(cfg: ExperimentConfig) -> Network:
    if cfg.topology_file is None and cfg.topology_generate is None:
        raise ConfigError("config has no [topology] section")
    if cfg.topology_file is not None:
        return read_topology(cfg.base_dir / cfg.topology_file)
    kind, _, rest = cfg.topology_generate.partition(":")
    params = [_as_float(t, "generate") for t in _as_list(rest, ":", "generate parameters")]
    return generate_topology(kind.strip(), params, cfg.gen_seed)


def resolve_node(net: Network, token: str, name: str) -> int:
    """The node a config token names: an id in the number grammar (`_plain`,
    then `int()`: `01` and `+1` are node 1, but `1_0` and non-ASCII digits
    are not ids), or an alias of a names-mode topology. A token that reads
    both ways, as an alias of one node and as the id of another, is an
    error."""
    token = token.strip()
    try:
        v = int(_plain(token))
    except ValueError:
        if net.aliases and token in net.aliases:
            return net.aliases[token]
        raise ConfigError(f"{name}: unknown node {token!r}") from None
    if net.aliases is not None and net.aliases.get(token, v) != v:
        raise ConfigError(f"{name}: {token!r} is ambiguous: alias {token!r} "
                          f"(node {net.aliases[token]}) or node id {v}")
    if not 0 <= v < net.node_count:
        raise ConfigError(f"{name}: node id {v} out of range")
    return v


def _distinct_nodes(net: Network, tokens, name: str):
    """The node of each token, in token order; two tokens that name one
    node (an alias and its id, say) are an error."""
    token_of: dict[int, str] = {}
    for t in tokens:
        node = resolve_node(net, t, name)
        if node in token_of:
            raise ConfigError(f"{name}: {token_of[node]!r} and {t!r} name the same node {node}")
        token_of[node] = t
        yield node


def resolve_seeds(cfg: ExperimentConfig, net: Network) -> tuple[int, ...]:
    """The seed nodes in token order; see `_distinct_nodes`."""
    return tuple(_distinct_nodes(net, cfg.seed_tokens, "seeds"))


def _node_values(net: Network, lines, name: str) -> dict[int, float]:
    """Per-node numbers of a [capacity], [rate] or [attack] section, in file order.
    `zip` takes line i's node from `_distinct_nodes` before line i's value
    is read, so of several bad lines the first raises."""
    nodes = _distinct_nodes(net, [k for k, _ in lines], name)
    return {node: _as_float(v, name, k) for node, (k, v) in zip(nodes, lines)}


def build_vertical_scenario(cfg: ExperimentConfig, net: Network) -> VerticalScenario:
    from .cascades import VerticalScenario

    capacity = _node_values(net, cfg.capacity_lines, "capacity")
    rate = _node_values(net, cfg.rate_lines, "rate")
    attack = None
    if cfg.attack_line is not None:  # a one-line [rate]
        (attack,) = _node_values(net, [cfg.attack_line], "attack").items()
    return VerticalScenario(capacity, rate, attack)


def build_horizontal_scenario(cfg: ExperimentConfig, net: Network) -> HorizontalScenario:
    from .cascades import Demand, HorizontalScenario, Injection

    def flow(kind, cls, line):
        """A [demand] or [injection] line as a `cls`: its two ends, then its
        volume, each named by kind and field (`demand src`, `injection exit`)."""
        (a, b, volume), names = line, [f"{kind} {f}" for f in cls._fields]
        return cls(resolve_node(net, a, names[0]), resolve_node(net, b, names[1]),
                   _as_float(volume, names[2]))

    capacity = _node_values(net, cfg.capacity_lines, "capacity")
    demands = tuple(flow("demand", Demand, line) for line in cfg.demand_lines)
    injection = None
    if cfg.injection_line is not None:
        injection = flow("injection", Injection, cfg.injection_line)
    return HorizontalScenario(capacity, demands, injection, cfg.misroute)


def _id_text(aliases: dict[str, int] | None):
    """How `render_resolved` writes a node id: `str`, or, for a names-mode
    topology, the id with zeros put in front for as long as that spelling
    is another node's alias, so that `resolve_node` reads it back as the
    same node."""
    if not aliases:
        return str

    def text(v: int) -> str:
        t = str(v)
        while aliases.get(t, v) != v:
            t = "0" + t
        return t
    return text


def render_resolved(cfg: ExperimentConfig, seeds=(), scenario=None, aliases=None) -> str:
    """Canonical text for the experiment a run used; reloading it
    reproduces the run (defaults written out, seed explicit). Nodes are
    written as the ids the run resolved: `seeds` for an epidemic or sweep,
    `scenario` (a VerticalScenario or HorizontalScenario) for a cascade;
    `aliases` is the topology's alias table (see `_id_text`).
    The [model] rates are `EpidemicParams`' fields and the [run] keys are
    `_RUN`'s, each in its table's order, so a key the reader learns is
    written back without a second list. [capacity] and [rate] keep the
    dicts' insertion order, which is file order because `_node_values`
    rejects a node named twice; [attack] is written as a one-line [rate]
    and [injection] as a one-line [demand]. The output
    directory and n_jobs are deliberately left out: where results land and
    how many processes computed them are not part of the experiment, and
    the outputs are identical for every n_jobs."""
    node = _id_text(aliases)
    lines: list[str] = ["[topology]"]
    if cfg.topology_generate is not None:
        lines += [f"generate={cfg.topology_generate}", f"gen_seed={cfg.gen_seed}"]
    else:
        lines.append(f"file={(cfg.base_dir / cfg.topology_file).resolve()}")

    def section(name, body):
        if body:
            lines.extend(("", f"[{name}]", *body))

    def values_section(name, mapping):
        section(name, [f"{node(v)}={_fmt(x)}" for v, x in mapping.items()])

    def flow_section(name, flows):
        section(name, [f"{node(a)},{node(b)},{_fmt(volume)}" for a, b, volume in flows])

    if cfg.model is not None:
        p = cfg.model
        _, *rates = (f.name for f in fields(p))
        section("model", [f"model={p.model}", *(f"{k}={_fmt(getattr(p, k))}" for k in rates),
                          "seeds=" + ",".join(map(node, seeds))])

    # epsilon is in (0, 1), never integral, so f"{epsilon}" is `_fmt`'s repr
    section("run", [f"{k}={getattr(cfg, k)}" for k in _RUN if k != "n_jobs"])

    if cfg.grid is not None:
        section("sweep", ["grid=" + ",".join(_fmt(b) for b in cfg.grid)])

    if cfg.scenario_kind == "vertical":
        section("scenario", ["kind=vertical"])
        values_section("capacity", scenario.controller_capacity)
        values_section("rate", scenario.base_rate)
        values_section("attack", dict([scenario.attack] if scenario.attack else []))
    elif cfg.scenario_kind == "horizontal":
        section("scenario", ["kind=horizontal",
                             f"misroute={'true' if scenario.misroute else 'false'}"])
        values_section("capacity", scenario.node_capacity)
        flow_section("demand", scenario.demands)
        flow_section("injection", [scenario.injection] if scenario.injection else [])

    return "\n".join(lines) + "\n"
