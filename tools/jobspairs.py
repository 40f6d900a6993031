"""Alternating `--jobs 1` / `--jobs 2` CLI runs of one checkout, summarised.

    python3 tools/jobspairs.py [CHECKOUT] [--pairs 10] [--seed 1] \\
        [--workload epidemic-ba sweep-sir]

CHECKOUT (default: the directory above this script) has its own src/ and
perfbench/. First a two-process probe: a pure-Python loop is timed in one
fresh interpreter alone, then in two at once; a ratio near 1 means this
host ran the two in parallel, near 2 that it ran them one after the other.
Then, per workload, perfbench/workloads.py (imported, not edited, without
writing bytecode) writes the inputs for --seed, and each pair runs
`python3 -m failprop.cli ARGS --jobs J --out DIR` once with J = 1 and once
with J = 2, `--jobs 1` first in even pairs (counting from 0), one
subprocess at a time, with PYTHONPATH=CHECKOUT/src and no bytecode written.
A run is timed from spawn to exit (raw seconds, not scaled by a speed probe
as perfbench/run.py does).

Prints the probe, then per workload both medians, the IQR of the `--jobs 1`
runs (statistics.quantiles, n=4, inclusive) and the pairs `--jobs 2` won.
Exits 1 if a run fails or a `--jobs 2` run's output files differ from the
`--jobs 1` run's. tools/benchpairs.py compares two checkouts; this compares
two values of one flag.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

LOOP = ("import time\nt = time.perf_counter()\nx = 0\nfor i in range(3_000_000):\n"
        "    x += i\nprint(time.perf_counter() - t)\n")


def probe() -> tuple[float, float]:
    """(loop seconds alone, slower of two copies run at once), medians of 3."""
    alone, both = [], []
    for _ in range(3):
        alone.append(float(subprocess.run([sys.executable, "-c", LOOP], capture_output=True,
                                          text=True, check=True).stdout))
        procs = [subprocess.Popen([sys.executable, "-c", LOOP], stdout=subprocess.PIPE,
                                  text=True) for _ in range(2)]
        both.append(max(float(p.communicate()[0]) for p in procs))
    return statistics.median(alone), statistics.median(both)


def run_once(checkout: Path, argv: tuple[str, ...], jobs: int, out: Path):
    """(wall seconds, {output file: bytes}) of one CLI run."""
    env = {k: v for k, v in os.environ.items() if k != "FAILPROP_OUT"}
    env["PYTHONPATH"] = str(checkout / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "failprop.cli", *argv, "--jobs", str(jobs), "--out", str(out)]
    t = perf_counter()
    proc = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True)
    wall = perf_counter() - t
    if proc.returncode != 0:
        raise SystemExit(f"jobspairs: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return wall, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?",
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="+", default=["epidemic-ba", "sweep-sir"],
                        choices=["epidemic-ba", "sweep-sir"])
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    checkout = args.checkout.resolve()

    alone, both = probe()
    print(f"two-process probe: {alone:.3f} s alone, {both:.3f} s two at once "
          f"(ratio {both / alone:.2f}; 1 = parallel, 2 = one after the other)")

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(checkout / "perfbench"))
    import workloads  # the benchmark's own input generators, read only

    same = True
    print(f"{'workload':<13}{'jobs 1':>9}{'jobs 2':>9}{'jobs 2 %':>10}{'jobs 1 IQR':>12}"
          f"{'wins':>7}")
    with tempfile.TemporaryDirectory(prefix="jobspairs-") as tmp:
        tmp = Path(tmp)
        for name in args.workload:
            wl = workloads.make(name, args.seed, tmp / f"inputs-{name}")
            walls = {1: [], 2: []}
            for i in range(args.pairs):
                files = {}
                for jobs in ((1, 2) if i % 2 == 0 else (2, 1)):
                    wall, files[jobs] = run_once(checkout, wl.argv, jobs,
                                                 tmp / f"out-{name}-{i}-{jobs}")
                    walls[jobs].append(wall)
                same &= files[1] == files[2]
            one, two = statistics.median(walls[1]), statistics.median(walls[2])
            wins = sum(b < a for a, b in zip(walls[1], walls[2]))
            print(f"{name:<13}{one:>9.4f}{two:>9.4f}{100 * (two / one - 1):>+9.1f}%"
                  f"{iqr(walls[1]):>12.4f}{wins:>4}/{args.pairs}")
    print(f"outputs identical across --jobs: {same}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
