"""Alternating perfbench pairs of two checkouts, summarised per metric.

    python3 tools/benchpairs.py PARENT CHANGE --workload cascade-grid \\
        --pairs 10 --seconds 8 [--seed 1] [--json pairs.json]
    python3 tools/benchpairs.py PARENT CHANGE --workload all --pairs 10

PARENT and CHANGE are checkout directories, each with its own perfbench/
and src/. A pair runs `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` once in each, one subprocess at a time; the parent
goes first in even pairs (counting from 0) and the change in odd ones.
With `--workload all`, each run times every workload for T seconds.
Before every run, every `__pycache__` directory and `.perfbench` under
both checkouts is removed, so no run reads what an earlier one left.

For each end-to-end metric that PARENT/BENCHMARK.json declares, prints
both medians, the parent's interquartile range (statistics.quantiles,
n=4, inclusive) and the pairs the change won (a tie counts for neither);
with `all`, one row per workload and metric, named `<workload>.<metric>`
as perfbench names them.
--json also writes every run's metrics, in run order, with the summary.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def clean(root: Path) -> None:
    for cache in list(root.rglob("__pycache__")):
        shutil.rmtree(cache)
    shutil.rmtree(root / ".perfbench", ignore_errors=True)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchpairs: {' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def metric_rows(bench: dict, workload: str) -> list[dict]:
    """The end-to-end metrics of BENCHMARK.json under the names a run of
    `workload` reports them: `<workload>.<metric>` for `all`."""
    metrics = bench["end_to_end"]
    if workload != "all":
        return metrics
    return [{**m, "name": f"{w['name']}.{m['name']}"}
            for w in bench["workloads"] for m in metrics]


def summarise(metrics: list[dict], pairs: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        out[name] = {
            "unit": m["unit"],
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": iqr(parent) if len(parent) > 1 else 0.0,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = metric_rows(json.loads((roots["parent"] / "BENCHMARK.json").read_text()),
                          args.workload)
    walls = [m["name"] for m in metrics if m["name"].endswith("wall_s")]

    pairs = []
    for i in range(args.pairs):
        pair = {"first": "parent" if i % 2 == 0 else "change"}
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            for root in roots.values():
                clean(root)
            pair[side] = run_once(roots[side], args.workload, args.seed, args.seconds)
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs}: " + "  ".join(
            f"{side} {name}={pair[side]['metrics'][name]['value']:.4f}"
            for name in walls for side in ("parent", "change")), file=sys.stderr)

    summary = summarise(metrics, pairs)
    correct = all(p[side]["correct"] for p in pairs for side in roots)
    failed = {side: f"{sum(p[side]['failed'] for p in pairs)}/"
                    f"{sum(p[side]['attempted'] for p in pairs)}" for side in roots}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, all correct: {correct}, "
          f"failed operations: parent {failed['parent']}, change {failed['change']}")
    width = max(13, *(len(name) + 1 for name in summary))
    print(f"{'metric':<{width}}{'parent':>10}{'change':>10}{'change %':>10}{'parent IQR':>12}"
          f"{'wins':>7}")
    for name, s in summary.items():
        pct = 100 * (s["change_median"] / s["parent_median"] - 1) if s["parent_median"] else 0.0
        print(f"{name:<{width}}{s['parent_median']:>10.4f}{s['change_median']:>10.4f}{pct:>+9.1f}%"
              f"{s['parent_iqr']:>12.4f}{s['wins']:>4}/{args.pairs}")
    if args.json:
        args.json.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "all_correct": correct, "failed": failed, "summary": summary, "pairs": pairs,
        }, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
