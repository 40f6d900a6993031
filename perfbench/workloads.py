"""Seeded inputs, work units and output checks for the four benchmark workloads.

Every input is generated here, from the benchmark's own seed, so a later
change to failprop's generators cannot change what is measured. The one
exception is sweep-sir, whose config says `generate=ba:...`: that puts
failprop's BA generator on the timed path on purpose.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("epidemic-ba", "sweep-sir", "cascade-grid", "cascade-vertical")
FUSE = 10  # cascade-grid runs FUSE + 1 rounds

# resolved-config.txt names the edge-list file by absolute path, which
# differs per input directory; digests are taken with this in its place
INPUT_DIR_TOKEN = "<inputs>"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # failprop CLI arguments, without --out
    config: Path
    work: int | None  # user-visible work units, None when read off the outputs
    work_unit: str


def _rng(name: str, seed: int) -> random.Random:
    # str seeding is stable across processes and Python versions
    return random.Random(f"perfbench:{name}:{seed}")


def ba_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """Preferential attachment over a complete core of m+1 nodes."""
    pairs = [(u, v) for u in range(m + 1) for v in range(u + 1, m + 1)]
    endpoints = [x for e in pairs for x in e]
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(endpoints[rng.randrange(len(endpoints))])
        for t in sorted(targets):
            pairs.append((t, new))
            endpoints += (t, new)
    return pairs


def _edges_text(pairs) -> str:
    return "".join(f"{u} {v}\n" for u, v in pairs)


def _epidemic_ba(d: Path, seed: int) -> Workload:
    rng = _rng("epidemic-ba", seed)
    n = 2000
    (d / "ba.edges").write_text(_edges_text(ba_edges(n, 2, rng)))
    seeds = sorted(rng.sample(range(n), 3))
    cfg = d / "epidemic-ba.cfg"
    cfg.write_text(
        "[topology]\nfile=ba.edges\n\n"
        "[model]\nmodel=SID\nbeta=0.3\ndelta1=0.1\ntau=0.2\ngamma=0.05\n"
        f"seeds={','.join(map(str, seeds))}\n\n"
        f"[run]\nmax_ticks=150\nn_runs=8\nrng_seed={rng.randrange(2**32)}\n"
        "stop=fixed_ticks\nn_jobs=2\n"
    )
    return Workload("epidemic-ba", ("epidemic", "--config", str(cfg)), cfg, 8, "replicas")


def _sweep_sir(d: Path, seed: int) -> Workload:
    rng = _rng("sweep-sir", seed)
    n, n_runs = 10000, 5
    grid = (0.01, 0.03, 0.15, 0.2, 0.25)
    # ten seed nodes make die-out above the threshold (near 0.1) rare, and
    # the 20-tick horizon cuts the long outbreak tails, so the work of a
    # run hardly depends on the seed
    seeds = rng.sample(range(n), 10)
    cfg = d / "sweep-sir.cfg"
    cfg.write_text(
        f"[topology]\ngenerate=ba:{n}:2\ngen_seed={rng.randrange(2**32)}\n\n"
        f"[model]\nmodel=SIR\nbeta={grid[0]}\ndelta1=0.5\n"
        f"seeds={','.join(map(str, seeds))}\n\n"
        f"[run]\nmax_ticks=20\nn_runs={n_runs}\nrng_seed={rng.randrange(2**32)}\n"
        "stop=absorb\nepsilon=0.05\nn_jobs=1\n\n"
        f"[sweep]\ngrid={','.join(map(str, grid))}\n"
    )
    return Workload("sweep-sir", ("sweep", "--config", str(cfg)), cfg, n_runs * len(grid),
                    "replica-points")


def _cascade_grid(d: Path, seed: int) -> Workload:
    rng = _rng("cascade-grid", seed)
    rows = cols = 40
    n = rows * cols
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1))
            if r + 1 < rows:
                pairs.append((v, v + cols))
    # One grid node in ten is weak (capacity 2, the rest unbounded): the
    # grid's own cascade took 4 to 8 rounds on 40 seeds. A separate fuse,
    # FUSE paths of 1..FUSE inner nodes between two endpoints, each failing
    # on first use, stretches every run to exactly FUSE + 1 rounds, so the
    # work of a run does not depend on the seed.
    weak = sorted(rng.sample(range(n), n // 10))
    src, dst, nxt = n, n + 1, n + 2
    fuse = []
    for length in range(1, FUSE + 1):
        inner = list(range(nxt, nxt + length))
        nxt += length
        chain = [src, *inner, dst]
        pairs += zip(chain, chain[1:])
        fuse += inner
    (d / "grid.edges").write_text(_edges_text(pairs))
    caps = "".join(f"{v}=2\n" for v in weak) + "".join(f"{v}=0\n" for v in fuse)
    demands = "".join("{},{},1\n".format(*rng.sample(range(n), 2)) for _ in range(150))
    cfg = d / "cascade-grid.cfg"
    cfg.write_text(
        "[topology]\nfile=grid.edges\n\n[scenario]\nkind=horizontal\n\n"
        f"[capacity]\n{caps}\n[demand]\n{demands}{src},{dst},1\n"
    )
    return Workload("cascade-grid", ("cascade", "--config", str(cfg)), cfg, None, "rounds")


def _cascade_vertical(d: Path, seed: int) -> Workload:
    rng = _rng("cascade-vertical", seed)
    n_ctrl, n_sw, prefs = 64, 20000, 8
    # controllers are ids 0..63, switches 64.. hang off a random recursive tree
    sw0 = n_ctrl
    lines = [f"{c} {sw0 + rng.randrange(n_sw)}" for c in range(n_ctrl)]
    lines += [f"{sw0 + rng.randrange(i)} {sw0 + i}" for i in range(1, n_sw)]
    lines.append("[roles]")
    lines += [f"{c}=controller" for c in range(n_ctrl)]
    lines += [f"{sw0 + i}=edge_switch" for i in range(n_sw)]
    lines.append("[controllers]")
    primary = [0.0] * n_ctrl
    rates = []
    for i in range(n_sw):
        cs = rng.sample(range(n_ctrl), prefs)
        rate = rng.randint(1, 3)
        primary[cs[0]] += rate
        rates.append(rate)
        lines.append(f"{sw0 + i}:{','.join(map(str, cs))}")
    (d / "vertical.edges").write_text("\n".join(lines) + "\n")
    # capacities of 1.3-1.6x the mean primary load absorb the failover from
    # the attacked switch's 8 controllers, which fail one per round: every
    # seed runs 9 rounds
    mean = sum(primary) / n_ctrl
    caps = "".join(f"{c}={round(mean * rng.uniform(1.3, 1.6))}\n" for c in range(n_ctrl))
    rate_text = "".join(f"{sw0 + i}={r}\n" for i, r in enumerate(rates))
    target = sw0 + rng.randrange(n_sw)
    cfg = d / "cascade-vertical.cfg"
    cfg.write_text(
        "[topology]\nfile=vertical.edges\n\n[scenario]\nkind=vertical\n\n"
        f"[capacity]\n{caps}\n[rate]\n{rate_text}\n[attack]\n{target}={round(2 * mean)}\n"
    )
    return Workload("cascade-vertical", ("cascade", "--config", str(cfg)), cfg, None,
                    "rounds")


_MAKERS = {
    "epidemic-ba": _epidemic_ba,
    "sweep-sir": _sweep_sir,
    "cascade-grid": _cascade_grid,
    "cascade-vertical": _cascade_vertical,
}


def make(name: str, seed: int, directory: Path) -> Workload:
    """Write the inputs of workload `name` for `seed` into `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    return _MAKERS[name](directory, seed)


# ---------------------------------------------------------------------------
# outputs

def digests(out: Path, input_dir: Path) -> dict[str, str]:
    """sha256 per output file, with the input directory path masked."""
    found = {}
    for p in sorted(out.iterdir()):
        data = p.read_bytes()
        if p.name == "resolved-config.txt":
            data = data.replace(str(input_dir.resolve()).encode(), INPUT_DIR_TOKEN.encode())
        found[p.name] = hashlib.sha256(data).hexdigest()
    return found


def check_outputs(wl: Workload, out: Path) -> tuple[list[str], int]:
    """Structural checks on one run's outputs; returns (problems, work done)."""
    problems = []
    expected = {
        "epidemic": {"trace.csv", "events.csv", "summary.json", "resolved-config.txt"},
        "sweep": {"sweep.csv", "summary.json", "resolved-config.txt"},
        "cascade": {"trace.csv", "events.csv", "summary.json", "resolved-config.txt"},
    }[wl.argv[0]]
    if wl.name == "cascade-grid":
        expected.add("dropped.csv")
    present = {p.name for p in out.iterdir()} if out.is_dir() else set()
    if present != expected:
        return [f"output files {sorted(present)} != {sorted(expected)}"], 0
    summary = json.loads((out / "summary.json").read_text())
    work = wl.work or 0
    if wl.argv[0] == "epidemic":
        n = summary["node_count"]
        rows = list(csv.reader(io.StringIO((out / "trace.csv").read_text())))[1:]
        bad = [r[0] for r in rows if sum(map(int, r[1:])) != n]
        if bad:
            problems.append(f"trace.csv rows do not sum to {n} at ticks {bad[:5]}")
        if len(summary["aggregate"]["outbreak_sizes"]) != wl.work:
            problems.append("summary.json does not hold one outbreak size per replica")
    elif wl.argv[0] == "sweep":
        lines = (out / "sweep.csv").read_text().splitlines()
        if len(lines) != 2 + len(summary["grid"]):
            problems.append("sweep.csv does not hold one row per grid point")
        if summary["n_runs"] * len(summary["response"]) != wl.work:
            problems.append("summary.json does not cover every replica of every grid point")
    else:
        rows = list(csv.reader(io.StringIO((out / "trace.csv").read_text())))[1:]
        rounds = len({r[0] for r in rows})
        work = summary["rounds"]
        if rounds != work:
            problems.append(f"summary.json has {work} rounds, trace.csv has {rounds}")
    return problems, work
