"""Experiment files: sectioned text configs, presets, canonical re-rendering.

A config is a flat file of `[section]` headers over `key=value` lines
(scenario data sections also take bare comma/assignment lines). One file
describes one experiment: a topology source plus exactly one of an
epidemic [model] or a cascade [scenario]. Node references in configs may
use either integer ids or the name aliases of the topology file.

`render_resolved` writes the effective experiment back out in canonical
form (defaults explicit, aliases resolved to ids, seed included) so a run
directory always carries enough to reproduce itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .cascades import Demand, HorizontalScenario, Injection, VerticalScenario
from .epidemic import EpidemicParams
from .topology import Network, TopologyError, generate_topology, load_edge_list

PRESET_DIR = Path(__file__).parent / "presets"

_SECTIONS = (
    "topology", "model", "run", "sweep", "scenario", "output",
    "capacity", "rate", "attack", "demand", "injection",
)
_VERTICAL_SECTIONS = ("rate", "attack")
_HORIZONTAL_SECTIONS = ("demand", "injection")


class ConfigError(ValueError):
    pass


def read_sections(text: str) -> dict[str, list[tuple[int, str]]]:
    """Split config text into ordered per-section (lineno, line) lists."""
    sections: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            current = name
            sections[name] = []
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: {line!r} appears before any [section]")
        sections[current].append((lineno, line))
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
        return int(value)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _as_float(value: str, name: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return x


def _as_bool(value: str, name: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"{name} must be true or false, got {value!r}")


def _fmt(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return repr(float(x))


@dataclass
class ExperimentConfig:
    """Parsed experiment file; node references still carry their raw tokens
    until a Network exists to resolve aliases against."""

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
        if "gen_seed" in kv:
            cfg.gen_seed = _as_int(kv["gen_seed"], "gen_seed")
        if (cfg.topology_file is None) == (cfg.topology_generate is None):
            raise ConfigError("[topology] needs exactly one of file= or generate=")

    if "model" in sections and "scenario" in sections:
        raise ConfigError("config may declare [model] or [scenario], not both")

    if "model" in sections:
        kv = _kv(sections["model"], "model",
                 ("model", "beta", "delta1", "tau", "gamma", "seeds"))
        if "model" not in kv:
            raise ConfigError("[model] needs model=")
        if "beta" not in kv:
            raise ConfigError("[model] needs beta=")
        cfg.model = EpidemicParams(
            model=kv["model"],
            beta=_as_float(kv["beta"], "beta"),
            delta1=_as_float(kv.get("delta1", "0"), "delta1"),
            tau=_as_float(kv.get("tau", "0"), "tau"),
            gamma=_as_float(kv.get("gamma", "0"), "gamma"),
        )
        if "seeds" not in kv or not kv["seeds"].strip():
            raise ConfigError("[model] needs a nonempty seeds= list")
        cfg.seed_tokens = tuple(t.strip() for t in kv["seeds"].split(",") if t.strip())

    if "run" in sections:
        kv = _kv(sections["run"], "run",
                 ("max_ticks", "n_runs", "rng_seed", "stop", "epsilon", "n_jobs"))
        if "max_ticks" in kv:
            cfg.max_ticks = _as_int(kv["max_ticks"], "max_ticks")
        if "n_runs" in kv:
            cfg.n_runs = _as_int(kv["n_runs"], "n_runs")
        if "rng_seed" in kv:
            cfg.rng_seed = _as_int(kv["rng_seed"], "rng_seed")
        if "stop" in kv:
            cfg.stop = kv["stop"]
        if "epsilon" in kv:
            cfg.epsilon = _as_float(kv["epsilon"], "epsilon")
        if "n_jobs" in kv:
            cfg.n_jobs = _as_int(kv["n_jobs"], "n_jobs")
    if cfg.max_ticks < 1:
        raise ConfigError(f"max_ticks must be >= 1, got {cfg.max_ticks}")
    if cfg.n_runs < 1:
        raise ConfigError(f"n_runs must be >= 1, got {cfg.n_runs}")
    if cfg.n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1, got {cfg.n_jobs}")
    if cfg.stop not in ("absorb", "fixed_ticks"):
        raise ConfigError(f"stop must be absorb or fixed_ticks, got {cfg.stop!r}")
    if not 0.0 < cfg.epsilon < 1.0:
        raise ConfigError(f"epsilon must be in (0, 1), got {cfg.epsilon}")

    if "sweep" in sections:
        kv = _kv(sections["sweep"], "sweep", ("grid",))
        if "grid" not in kv or not kv["grid"].strip():
            raise ConfigError("[sweep] needs a nonempty grid= list")
        cfg.grid = tuple(
            _as_float(t.strip(), "grid") for t in kv["grid"].split(",") if t.strip()
        )
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

    for name in _VERTICAL_SECTIONS + _HORIZONTAL_SECTIONS + ("capacity",):
        if name in sections and cfg.scenario_kind is None:
            raise ConfigError(f"[{name}] requires a [scenario] section")
    if cfg.scenario_kind == "vertical":
        for name in _HORIZONTAL_SECTIONS:
            if name in sections:
                raise ConfigError(f"[{name}] does not belong in a vertical scenario")
    if cfg.scenario_kind == "horizontal":
        for name in _VERTICAL_SECTIONS:
            if name in sections:
                raise ConfigError(f"[{name}] does not belong in a horizontal scenario")

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
        rows = []
        for lineno, line in sections["demand"]:
            parts = [t.strip() for t in line.split(",")]
            if len(parts) != 3:
                raise ConfigError(f"line {lineno}: expected src,dst,volume in [demand]")
            rows.append(tuple(parts))
        cfg.demand_lines = tuple(rows)
    if "injection" in sections:
        if len(sections["injection"]) != 1:
            raise ConfigError("[injection] takes exactly one entry,exit,volume line")
        lineno, line = sections["injection"][0]
        parts = [t.strip() for t in line.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"line {lineno}: expected entry,exit,volume in [injection]")
        cfg.injection_line = tuple(parts)

    if "output" in sections:
        kv = _kv(sections["output"], "output", ("dir", "formats"))
        cfg.out_dir = kv.get("dir")
        if kv.get("formats", "csv") != "csv":
            raise ConfigError("only formats=csv is supported")

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


def load_config(ref: str) -> ExperimentConfig:
    path = find_config(ref)
    return parse_config(path.read_text(), base_dir=path.parent)


def build_network(cfg: ExperimentConfig) -> Network:
    if cfg.topology_file is None and cfg.topology_generate is None:
        raise ConfigError("config has no [topology] section")
    if cfg.topology_file is not None:
        path = cfg.base_dir / cfg.topology_file
        try:
            text = path.read_text()
        except OSError as exc:
            raise TopologyError(f"cannot read topology file {path}: {exc}") from None
        return load_edge_list(text)
    kind, _, rest = cfg.topology_generate.partition(":")
    params = [_as_float(t, "generate") for t in rest.split(":") if t.strip()]
    return generate_topology(kind.strip(), params, cfg.gen_seed)


def resolve_node(net: Network, token: str, name: str) -> int:
    token = token.strip()
    try:
        v = int(token)
    except ValueError:
        if net.aliases and token in net.aliases:
            return net.aliases[token]
        raise ConfigError(f"{name}: unknown node {token!r}") from None
    if not 0 <= v < net.node_count:
        raise ConfigError(f"{name}: node id {v} out of range")
    return v


def resolve_seeds(cfg: ExperimentConfig, net: Network) -> tuple[int, ...]:
    if not cfg.seed_tokens:
        raise ConfigError("[model] needs a nonempty seeds= list")
    return tuple(resolve_node(net, t, "seeds") for t in cfg.seed_tokens)


def build_vertical_scenario(cfg: ExperimentConfig, net: Network) -> VerticalScenario:
    capacity = {
        resolve_node(net, k, "capacity"): _as_float(v, f"capacity {k}")
        for k, v in cfg.capacity_lines
    }
    rate = {
        resolve_node(net, k, "rate"): _as_float(v, f"rate {k}")
        for k, v in cfg.rate_lines
    }
    attack = None
    if cfg.attack_line is not None:
        k, v = cfg.attack_line
        attack = (resolve_node(net, k, "attack"), _as_float(v, f"attack {k}"))
    return VerticalScenario(capacity, rate, attack)


def build_horizontal_scenario(cfg: ExperimentConfig, net: Network) -> HorizontalScenario:
    capacity = {
        resolve_node(net, k, "capacity"): _as_float(v, f"capacity {k}")
        for k, v in cfg.capacity_lines
    }
    demands = tuple(
        Demand(
            resolve_node(net, s, "demand src"),
            resolve_node(net, d, "demand dst"),
            _as_float(vol, "demand volume"),
        )
        for s, d, vol in cfg.demand_lines
    )
    injection = None
    if cfg.injection_line is not None:
        e, x, vol = cfg.injection_line
        injection = Injection(
            resolve_node(net, e, "injection entry"),
            resolve_node(net, x, "injection exit"),
            _as_float(vol, "injection volume"),
        )
    return HorizontalScenario(capacity, demands, injection, cfg.misroute)


def render_resolved(cfg: ExperimentConfig, net: Network) -> str:
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
            "seeds=" + ",".join(str(v) for v in resolve_seeds(cfg, net)),
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
                f"{resolve_node(net, k, 'capacity')}={_fmt(_as_float(v, 'capacity'))}"
                for k, v in cfg.capacity_lines
            ]
        if cfg.rate_lines:
            lines += ["", "[rate]"]
            lines += [
                f"{resolve_node(net, k, 'rate')}={_fmt(_as_float(v, 'rate'))}"
                for k, v in cfg.rate_lines
            ]
        if cfg.attack_line is not None:
            k, v = cfg.attack_line
            lines += ["", "[attack]",
                      f"{resolve_node(net, k, 'attack')}={_fmt(_as_float(v, 'attack'))}"]
        if cfg.demand_lines:
            lines += ["", "[demand]"]
            lines += [
                ",".join((
                    str(resolve_node(net, s, "demand src")),
                    str(resolve_node(net, d, "demand dst")),
                    _fmt(_as_float(vol, "demand volume")),
                ))
                for s, d, vol in cfg.demand_lines
            ]
        if cfg.injection_line is not None:
            e, x, vol = cfg.injection_line
            lines += ["", "[injection]",
                      ",".join((
                          str(resolve_node(net, e, "injection entry")),
                          str(resolve_node(net, x, "injection exit")),
                          _fmt(_as_float(vol, "injection volume")),
                      ))]

    return "\n".join(lines) + "\n"
