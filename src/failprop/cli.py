"""Command-line front door.

    failprop epidemic --config fig3-sid            # preset by name
    failprop cascade  --config my-attack.cfg --out results
    failprop sweep    --config sweep.cfg --seed 7
    failprop gen ba 30 2 --seed 9 --out graphs/
    failprop validate graphs/ba.edges

Every experiment writes its outputs plus a resolved-config.txt that can
be fed straight back to --config to reproduce the run.

Exit codes: 0 success, 2 bad config or parameters, 3 topology problems,
4 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
from pathlib import Path

from . import config as cfgmod
from .config import ConfigError, ExperimentConfig
from .topology import (
    InputError,
    TopologyError,
    generate_topology,
    serialize_edge_list,
    validate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOPOLOGY = 3
EXIT_RUNTIME = 4


def _say(msg: str):
    print(msg, file=sys.stderr)


def _out_dir(args, cfg: ExperimentConfig | None) -> Path:
    if args.out:
        return Path(args.out)
    if cfg is not None and cfg.out_dir:
        return cfg.base_dir / cfg.out_dir
    env = os.environ.get("FAILPROP_OUT")
    if env:
        return Path(env)
    return Path("out")


def _write(files: dict[Path, str]):
    """Write every output of a run, or leave each target as it was.

    Each text goes to a temporary name beside its target, and all are moved
    into place with os.replace (atomic within a directory) only once every
    one is on disk; a failure removes the temporary files. A target that is
    a directory, which os.replace cannot replace, fails here, before any
    file is replaced.
    """
    tmps = {}
    try:
        for path, text in files.items():
            if path.is_dir() and not path.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            path.parent.mkdir(parents=True, exist_ok=True)
            tmps[path] = tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            tmp.write_text(text)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        raise


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _effective(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        cfg.rng_seed = cfgmod.as_seed(args.seed, "--seed")
    if getattr(args, "jobs", None) is not None:
        cfg.n_jobs = cfgmod._as_int(args.jobs, "--jobs")
        if cfg.n_jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {cfg.n_jobs}")
    return cfg


def cmd_epidemic(args) -> int:
    from .epidemic import monte_carlo
    from .metrics import stabilization_time

    cfg = _effective(cfgmod.load_config(args.config), args)
    if cfg.model is None:
        raise ConfigError("epidemic needs a [model] section")
    net = cfgmod.build_network(cfg)
    seeds = cfgmod.resolve_seeds(cfg, net)
    agg = monte_carlo(
        net, seeds, cfg.model, cfg.max_ticks, cfg.stop,
        n_runs=cfg.n_runs, base_seed=cfg.rng_seed, n_jobs=cfg.n_jobs,
    )
    # trace/events files show replica 0; summary aggregates all replicas
    tr = agg.replica0
    stab = stabilization_time(tr)
    summary = {
        "node_count": net.node_count,
        "model": cfg.model.model,
        "aggregate": agg.as_dict(),
        "replica0": {
            "final_counts": dict(zip("SIRD", tr.counts[-1])),
            "final_tick": tr.final_tick,
            "outbreak_size": agg.outbreak_sizes[0],
            "stabilization_tick": stab.tick,
            "stabilized": stab.stabilized,
        },
    }
    out = _out_dir(args, cfg)
    _write({
        out / "trace.csv": tr.counts_csv(),
        out / "events.csv": tr.events_csv(),
        out / "summary.json": _json_text(summary),
        out / "resolved-config.txt": cfgmod.render_resolved(cfg, seeds, aliases=net.aliases),
    })
    s, i, r, d = tr.counts[-1]
    _say(
        f"epidemic: {cfg.n_runs} run(s), replica0 final S={s} I={i} R={r} D={d}, "
        f"mean outbreak {agg.mean_outbreak:.4f}"
    )
    return EXIT_OK


def cmd_cascade(args) -> int:
    from .cascades import run_horizontal, run_vertical

    cfg = _effective(cfgmod.load_config(args.config), args)
    if cfg.scenario_kind is None:
        raise ConfigError("cascade needs a [scenario] section")
    net = cfgmod.build_network(cfg)
    if cfg.scenario_kind == "vertical":
        sc = cfgmod.build_vertical_scenario(cfg, net)
        trace = run_vertical(net, sc)
    else:
        sc = cfgmod.build_horizontal_scenario(cfg, net)
        trace = run_horizontal(net, sc)
    out = _out_dir(args, cfg)
    files = {
        out / "trace.csv": trace.csv(),
        out / "events.csv": trace.events_csv(),
        out / "summary.json": trace.terminal_json(),
        out / "resolved-config.txt": cfgmod.render_resolved(cfg, scenario=sc, aliases=net.aliases),
    }
    if cfg.scenario_kind == "horizontal":
        files[out / "dropped.csv"] = trace.dropped_csv()
    _write(files)
    for w in trace.warnings:
        _say(f"warning: {w}")
    if cfg.scenario_kind == "vertical":
        _say(
            f"cascade vertical: {len(trace.failed)} controller(s) failed, "
            f"{len(trace.orphaned_switches)} switch(es) orphaned, {len(trace.rounds)} round(s), "
            f"failed fraction {trace.failed_fraction():.4f}"
        )
    else:
        _say(
            f"cascade horizontal: {len(trace.failed)} node(s) failed, "
            f"{len(trace.rounds[-1].dropped)} flow(s) dropped, {len(trace.rounds)} round(s), "
            f"failed fraction {trace.failed_fraction():.4f}"
        )
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .metrics import threshold_sweep

    cfg = _effective(cfgmod.load_config(args.config), args)
    if cfg.model is None:
        raise ConfigError("sweep needs a [model] section")
    if cfg.grid is None:
        raise ConfigError("sweep needs a [sweep] section with grid=")
    net = cfgmod.build_network(cfg)
    seeds = cfgmod.resolve_seeds(cfg, net)
    result = threshold_sweep(
        net, seeds, cfg.model, cfg.grid,
        n_runs=cfg.n_runs, max_ticks=cfg.max_ticks, epsilon=cfg.epsilon,
        base_seed=cfg.rng_seed, stop=cfg.stop, n_jobs=cfg.n_jobs,
    )
    th = result.threshold_estimate
    summary = {**dataclasses.asdict(result), "threshold_estimate": th}
    out = _out_dir(args, cfg)
    _write({
        out / "sweep.csv": result.csv(),
        out / "summary.json": _json_text(summary),
        out / "resolved-config.txt": cfgmod.render_resolved(cfg, seeds, aliases=net.aliases),
    })
    _say(
        f"sweep: {len(cfg.grid)} point(s), "
        f"threshold_estimate={'none' if th is None else th}"
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    params = [cfgmod._as_float(t, "gen parameter") for t in args.params]
    net = generate_topology(args.kind, params, cfgmod.as_seed(args.seed, "--seed"))
    path = _out_dir(args, None)
    if not args.out or path.is_dir() or args.out.endswith(("/", os.sep)):
        path /= f"{args.kind}.edges"
    _write({path: serialize_edge_list(net)})
    _say(f"gen: wrote {net.node_count} nodes, {net.edge_count()} edges to {path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    if bool(args.topology) == bool(args.config):
        raise ConfigError("validate needs exactly one of: a topology file, or --config")
    if args.topology:
        net = cfgmod.read_topology(args.topology)
    else:
        net = cfgmod.build_network(cfgmod.load_config(args.config))
    warnings = validate(net)
    for w in warnings:
        print(f"warning: {w}")
    _say(f"validate: {net.node_count} nodes, {net.edge_count()} edges, {len(warnings)} warning(s)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="failprop",
        description="Failure propagation experiments on two-plane transport networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs=False):
        p.add_argument("--config", required=True,
                       help="config file path or shipped preset name")
        p.add_argument("--seed", help="override the config rng_seed")
        p.add_argument("--out", help="output directory")
        if jobs:
            p.add_argument("--jobs",
                           help="worker processes for replicas (epidemic) or grid points "
                                "(sweep) (default: the config's n_jobs); outputs are "
                                "identical for any value")

    p = sub.add_parser("epidemic", help="run a compartment-model experiment")
    common(p, jobs=True)
    p.set_defaults(func=cmd_epidemic)

    p = sub.add_parser("cascade", help="run a deterministic overload cascade")
    common(p)
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("sweep", help="outbreak response along a beta grid")
    common(p, jobs=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen", help="generate a topology edge-list file")
    p.add_argument("kind", help="ring | grid | er | ba")
    p.add_argument("params", nargs="*", help="generator parameters")
    p.add_argument("--seed", default="0", help="generator seed")
    p.add_argument("--out", help="output file, or directory for <kind>.edges")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="check a topology's structural invariants")
    p.add_argument("topology", nargs="?", help="edge-list file")
    p.add_argument("--config", help="config whose [topology] should be checked")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:  # first: a GeneratorParamError is a TopologyError too
        _say(f"failprop: error: {exc}")
        return EXIT_CONFIG
    except TopologyError as exc:
        _say(f"failprop: error: {exc}")
        return EXIT_TOPOLOGY
    except Exception as exc:  # pragma: no cover - defensive catch-all
        _say(f"failprop: unexpected error: {exc!r}")
        return EXIT_RUNTIME


# Engine functions that the benchmark's self-test reads off this module
# (ROADMAP item 8 deletes this hook with those reads). The commands import
# them where they run; here each resolves as the package exports it.
_ENGINE_FUNCTIONS = ("run", "monte_carlo", "threshold_sweep", "run_vertical", "run_horizontal")


def __getattr__(name: str):
    if name in _ENGINE_FUNCTIONS:
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
