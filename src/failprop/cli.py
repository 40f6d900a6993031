"""Command-line front door.

    failprop epidemic --config fig3-sid            # preset by name
    failprop cascade  --config my-attack.cfg --out results
    failprop sweep    --config sweep.cfg --seed 7
    failprop gen ba 30 2 --seed 9 --out graphs/
    failprop validate graphs/ba.edges

Every experiment writes its outputs plus a resolved-config.txt that can
be fed straight back to --config to reproduce the run. Output directory
precedence: --out, then the config's [output] dir, then $FAILPROP_OUT,
then ./out.

Exit codes: 0 success, 2 bad config or parameters, 3 topology problems,
4 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import config as cfgmod
from .cascades import ScenarioError, run_horizontal, run_vertical
from .config import ConfigError, ExperimentConfig
# run is no longer called here (monte_carlo returns replica 0's trace) but
# stays bound: perfbench wraps and checks failprop.cli.run
from .epidemic import EpidemicError, monte_carlo, run  # noqa: F401
from .metrics import (
    MetricsError,
    failed_fraction,
    outbreak_size,
    stabilization_time,
    threshold_sweep,
)
from .topology import (
    GeneratorParamError,
    TopologyError,
    generate_topology,
    load_edge_list,
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


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _effective(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "seed", None) is not None:
        cfg.rng_seed = args.seed
    if getattr(args, "jobs", None) is not None:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        cfg.n_jobs = args.jobs
    return cfg


def cmd_epidemic(args) -> int:
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
    out = _out_dir(args, cfg)
    _write(out / "trace.csv", tr.counts_csv())
    _write(out / "events.csv", tr.events_csv())
    summary = {
        "node_count": net.node_count,
        "model": cfg.model.model,
        "aggregate": agg.as_dict(),
        "replica0": {
            "final_counts": dict(zip("SIRD", tr.counts[-1][1:])),
            "final_tick": tr.final_tick,
            "outbreak_size": outbreak_size(tr),
            "stabilization_tick": stab.tick,
            "stabilized": stab.stabilized,
        },
    }
    _write(out / "summary.json", _json_text(summary))
    _write(out / "resolved-config.txt", cfgmod.render_resolved(cfg, net))
    s, i, r, d = tr.counts[-1][1:]
    _say(
        f"epidemic: {cfg.n_runs} run(s), replica0 final S={s} I={i} R={r} D={d}, "
        f"mean outbreak {agg.mean_outbreak:.4f}"
    )
    return EXIT_OK


def _cascade_events_csv(trace) -> str:
    event = "controller_failed" if trace.kind == "vertical" else "node_failed"
    lines = ["round,event,subject"]
    for rnd in trace.rounds:
        lines += [f"{rnd.index},{event},{v}" for v in sorted(rnd.failed_now)]
    if trace.kind == "vertical":
        last = trace.rounds[-1].index
        lines += [
            f"{last},switch_orphaned,{sw}"
            for sw in sorted(trace.terminal.orphaned_switches)
        ]
    return "\n".join(lines) + "\n"


def cmd_cascade(args) -> int:
    cfg = _effective(cfgmod.load_config(args.config), args)
    if cfg.scenario_kind is None:
        raise ConfigError("cascade needs a [scenario] section")
    kind = args.kind or cfg.scenario_kind
    if kind != cfg.scenario_kind:
        raise ConfigError(
            f"--kind {kind} conflicts with config scenario kind {cfg.scenario_kind}"
        )
    net = cfgmod.build_network(cfg)
    if kind == "vertical":
        sc = cfgmod.build_vertical_scenario(cfg, net)
        trace = run_vertical(net, sc)
    else:
        sc = cfgmod.build_horizontal_scenario(cfg, net)
        trace = run_horizontal(net, sc)
    out = _out_dir(args, cfg)
    _write(out / "trace.csv", trace.csv())
    _write(out / "events.csv", _cascade_events_csv(trace))
    _write(out / "summary.json", trace.terminal_json())
    if kind == "horizontal":
        _write(out / "dropped.csv", trace.dropped_csv())
    _write(out / "resolved-config.txt", cfgmod.render_resolved(cfg, net))
    for w in trace.warnings:
        _say(f"warning: {w}")
    t = trace.terminal
    if kind == "vertical":
        _say(
            f"cascade vertical: {len(t.failed_controllers)} controller(s) failed, "
            f"{len(t.orphaned_switches)} switch(es) orphaned, {t.rounds} round(s), "
            f"failed fraction {failed_fraction(trace):.4f}"
        )
    else:
        _say(
            f"cascade horizontal: {len(t.failed_nodes)} node(s) failed, "
            f"{len(t.dropped)} flow(s) dropped, {t.rounds} round(s), "
            f"failed fraction {failed_fraction(trace):.4f}"
        )
    return EXIT_OK


def cmd_sweep(args) -> int:
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
    out = _out_dir(args, cfg)
    _write(out / "sweep.csv", result.csv())
    th = result.threshold_estimate
    summary = {
        "grid": list(result.grid),
        "response": list(result.response),
        "stderr": list(result.stderr),
        "n_runs": result.n_runs,
        "epsilon": result.epsilon,
        "threshold_estimate": th,
    }
    _write(out / "summary.json", _json_text(summary))
    _write(out / "resolved-config.txt", cfgmod.render_resolved(cfg, net))
    _say(
        f"sweep: {len(result.grid)} point(s), "
        f"threshold_estimate={'none' if th is None else th}"
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        net = generate_topology(args.kind, [float(p) for p in args.params], args.seed or 0)
    except (TopologyError, ValueError) as exc:
        # bad generator arguments are a usage problem, not a topology-file one
        _say(f"failprop: error: {exc}")
        return EXIT_CONFIG
    if args.out:
        p = Path(args.out)
        if p.is_dir() or args.out.endswith(("/", os.sep)):
            path = p / f"{args.kind}.edges"
        else:
            path = p
    else:
        path = _out_dir(args, None) / f"{args.kind}.edges"
    _write(path, serialize_edge_list(net))
    _say(f"gen: wrote {net.node_count} nodes, {net.edge_count()} edges to {path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    if bool(args.topology) == bool(args.config):
        raise ConfigError("validate needs exactly one of: a topology file, or --config")
    if args.topology:
        try:
            text = Path(args.topology).read_text()
        except OSError as exc:
            raise TopologyError(f"cannot read topology file {args.topology}: {exc}") from None
        net = load_edge_list(text)
    else:
        net = cfgmod.build_network(cfgmod.load_config(args.config))
    report = validate(net)
    for line in report.lines():
        print(line)
    _say(
        f"validate: {net.node_count} nodes, {net.edge_count()} edges, "
        f"{len(report.violations)} violation(s), {len(report.warnings)} warning(s)"
    )
    return EXIT_OK if report.ok else EXIT_TOPOLOGY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="failprop",
        description="Failure propagation experiments on two-plane transport networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs=False):
        p.add_argument("--config", required=True,
                       help="config file path or shipped preset name")
        p.add_argument("--seed", type=int, help="override the config rng_seed")
        p.add_argument("--out", help="output directory")
        if jobs:
            p.add_argument("--jobs", type=int,
                           help="accepted for compatibility and ignored: replicas run serially")

    p = sub.add_parser("epidemic", help="run a compartment-model experiment")
    common(p, jobs=True)
    p.set_defaults(func=cmd_epidemic)

    p = sub.add_parser("cascade", help="run a deterministic overload cascade")
    common(p)
    p.add_argument("--kind", choices=("vertical", "horizontal"),
                   help="cross-check the scenario kind in the config")
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("sweep", help="outbreak response along a beta grid")
    common(p, jobs=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gen", help="generate a topology edge-list file")
    p.add_argument("kind", help="ring | grid | er | ba")
    p.add_argument("params", nargs="*", help="generator parameters")
    p.add_argument("--seed", type=int, help="generator seed")
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
    except (ConfigError, EpidemicError, ScenarioError, MetricsError, GeneratorParamError) as exc:
        _say(f"failprop: error: {exc}")
        return EXIT_CONFIG
    except TopologyError as exc:
        _say(f"failprop: error: {exc}")
        return EXIT_TOPOLOGY
    except Exception as exc:  # pragma: no cover - defensive catch-all
        _say(f"failprop: unexpected error: {exc!r}")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
