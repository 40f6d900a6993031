"""Byte comparison of the CLI's outputs between two checkouts.

    python3 tools/samebytes.py PARENT CHANGE [--seeds 1 23]

PARENT and CHANGE are checkout directories, each with its own src/. Every
run executes `python3 -m failprop.cli ARGS` once per checkout, with
PYTHONPATH=<checkout>/src and no bytecode written, each side in its own
empty working and output directory. The runs are:

- each shipped preset (CHANGE's src/failprop/presets/*.cfg), with the
  command its sections call for: `cascade` for [scenario], `sweep` for
  [sweep], `epidemic` otherwise;
- `validate --config` on each preset, and `validate` on each preset
  edge-list file;
- `gen` once per generator (ring, grid, er, ba) at fixed small parameters
  and seeds, with `--out` naming the output directory (a trailing `/`), so
  the `.edges` file is one of the compared output files;
- the four benchmark workloads at each seed of --seeds (default: 1 23).
  Their inputs are written once per workload and seed by PARENT's
  perfbench/workloads.py (imported without writing bytecode), and both
  sides read the same input directory.

A run's two sides match when the exit codes, stdout, stderr and every
output file (names and bytes) are equal. Before the comparison, each side's
input directory, preset directory and working and output directories are
replaced by fixed tokens wherever they appear, since resolved-config.txt
names the topology file by absolute path.

Prints one line per run, `same` or `DIFF` with what differs, and exits 1
if any run differs. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("epidemic-ba", "sweep-sir", "cascade-grid", "cascade-vertical")
GEN_RUNS = (("ring", "12"), ("grid", "3", "4"), ("er", "30", "0.1", "--seed", "5"),
            ("ba", "30", "2", "--seed", "9"))


def preset_runs(presets: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(label, CLI arguments) of each preset run."""
    runs = []
    for cfg in sorted(presets.glob("*.cfg")):
        text = cfg.read_text()
        command = ("cascade" if "[scenario]" in text
                   else "sweep" if "[sweep]" in text else "epidemic")
        for argv in ((command, "--config", cfg.stem), ("validate", "--config", cfg.stem)):
            runs.append((f"preset {' '.join(argv)}", argv))
    runs += [(f"preset validate {p.name}", ("validate", str(p)))
             for p in sorted(presets.glob("*.edges"))]
    return runs


def run_side(checkout: Path, argv: tuple[str, ...], work: Path, masks: dict[str, str]):
    """(exit code, stdout, stderr, {output file: bytes}) of one CLI run, masked."""
    work.mkdir()
    out = work / "out"
    env = {k: v for k, v in os.environ.items() if k != "FAILPROP_OUT"}
    env["PYTHONPATH"] = str(checkout / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    extra = (() if argv[0] == "validate" else
             ("--out", f"{out}{os.sep}") if argv[0] == "gen" else ("--out", str(out)))
    proc = subprocess.run([sys.executable, "-m", "failprop.cli", *argv, *extra], cwd=work,
                          env=env, stdin=subprocess.DEVNULL, capture_output=True)
    masks = {**masks, str(out): "<out>", str(work): "<work>",
             str(checkout / "src" / "failprop" / "presets"): "<presets>"}

    def mask(data: bytes) -> bytes:
        for path, token in masks.items():
            data = data.replace(path.encode(), token.encode())
        return data

    files = {}
    if out.is_dir():
        files = {str(p.relative_to(out)): mask(p.read_bytes())
                 for p in sorted(out.rglob("*")) if p.is_file()}
    return proc.returncode, mask(proc.stdout), mask(proc.stderr), files


def first_difference(a: bytes, b: bytes) -> str:
    la, lb = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {i + 1}: {x.decode(errors='replace').strip()!r} " \
                   f"!= {y.decode(errors='replace').strip()!r}"
    return f"{len(la)} vs {len(lb)} lines"


def compare(parent, change) -> list[str]:
    (pc, pout, perr, pfiles), (cc, cout, cerr, cfiles) = parent, change
    diffs = []
    if pc != cc:
        diffs.append(f"exit {pc} != {cc}")
    for name, a, b in (("stdout", pout, cout), ("stderr", perr, cerr)):
        if a != b:
            diffs.append(f"{name} ({first_difference(a, b)})")
    for name in sorted(pfiles.keys() | cfiles.keys()):
        if name not in pfiles or name not in cfiles:
            diffs.append(f"{name} only in {'change' if name in cfiles else 'parent'}")
        elif pfiles[name] != cfiles[name]:
            diffs.append(f"{name} ({first_difference(pfiles[name], cfiles[name])})")
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 23])
    args = ap.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(parent / "perfbench"))
    import workloads  # PARENT's input generators, read only

    differ = 0
    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        tmp = Path(tmp)
        runs = [(label, argv, {})
                for label, argv in preset_runs(change / "src" / "failprop" / "presets")]
        runs += [(f"gen {' '.join(params)}", ("gen", *params), {}) for params in GEN_RUNS]
        for seed in args.seeds:
            for name in WORKLOADS:
                inputs = tmp / f"inputs-{name}-{seed}"
                wl = workloads.make(name, seed, inputs)
                runs.append((f"{name} seed {seed}", wl.argv, {str(inputs.resolve()): "<inputs>"}))
        for i, (label, argv, masks) in enumerate(runs):
            sides = [run_side(root, argv, tmp / f"run{i}-{side}", masks)
                     for side, root in (("parent", parent), ("change", change))]
            diffs = compare(*sides)
            differ += bool(diffs)
            status = f"DIFF {'; '.join(diffs)}" if diffs else "same"
            print(f"{label}: exit {sides[1][0]}, {len(sides[1][3])} file(s): {status}", flush=True)
    print(f"samebytes: {len(runs) - differ} of {len(runs)} run(s) the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
