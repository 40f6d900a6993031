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
- the inputs this tool writes itself (`OWN_INPUTS`): a vertical and a
  horizontal cascade on names-mode topologies, with every node named by
  alias; integer-id configs that must fail (exit 2) on their first bad
  `[capacity]`, `[rate]` or `seeds=` item; an epidemic that sets every
  `[run]` key and a sweep that leaves rates at their defaults; configs
  whose first error depends on the order of the `[run]` and `[model]`
  checks, and one whose topology file does not exist; `validate` on each
  of its edge lists, one of which has a `count=` that only `int()` reads
  and two of which have a gap in their ids; and a
  vertical cascade, `validate` on its edge list and `validate` on an edge
  list with a bad last line, all with full-line and trailing `#` comments,
  each written with `\n`, `\r\n`, lone `\r` and `\x85` line ends;
  cascades that each break one rule of the scenario validators (a negative
  demand or injection volume, a demand to a controller, a demand or
  injection whose two ends are one node, an attack or `[rate]` key naming
  a controller) or warn (capacity on a controller); cascades that fail
  (exit 2) on a bad demand `dst` in their second line, a bad injection
  `exit` or volume, or a bad `[attack]` value; and the node-id grammar:
  seeds `1_0` and a non-ASCII digit on a generated ring, a names-mode
  edge list with the alias `1_0` and a config that seeds it, and
  `validate` on `0 1_0` with no `count=`;
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

_CTRL_LINE_H = "[topology]\nfile=ctrl-line.edges\n[scenario]\nkind=horizontal\n"
_CTRL_LINE_V = "[topology]\nfile=ctrl-line.edges\n[scenario]\nkind=vertical\n"

# file name -> text; each .cfg runs with the command its sections call for
# and each .edges with `validate`, as the presets do
OWN_INPUTS = {
    "named-vertical.edges": "s1 c1\ns2 c1\ns2 c2\ns3 c2\ns4 c2\n[roles]\n"
                            "s1=edge_switch\ns2=edge_switch\ns3=core_switch\n"
                            "s4=edge_switch\nc1=controller\nc2=controller\n"
                            "[controllers]\ns1:c1,c2\ns2:c1,c2\ns3:c2,c1\ns4:c2\n",
    "named-vertical.cfg": "[topology]\nfile=named-vertical.edges\n[scenario]\nkind=vertical\n"
                          "[capacity]\nc1=30\nc2=25\n[rate]\ns1=8\ns2=8\ns3=8\ns4=8\n"
                          "[attack]\ns1=20\n",
    "named-mesh.edges": "a b\nb c\nc d\nd a\nb d\nd e\n",
    "named-horizontal.cfg": "[topology]\nfile=named-mesh.edges\n[scenario]\nkind=horizontal\n"
                            "misroute=true\n[capacity]\nb=1.5\nd=2\n[demand]\na,c,1\n"
                            "c,e,1\nb,d,0.5\n[injection]\na,e,2\n",
    "bad-capacity.cfg": "[topology]\ngenerate=ring:6\n[scenario]\nkind=horizontal\n"
                        "[capacity]\n1=x\n9=1\n",
    "bad-rate.cfg": "[topology]\ngenerate=ring:6\n[scenario]\nkind=vertical\n"
                    "[rate]\n2=5\n02=1\n",
    "bad-seeds.cfg": "[topology]\ngenerate=ring:6\n[model]\nmodel=SI\nbeta=0.5\n"
                     "seeds=1,3,01\n",
    "count-1_0.edges": "0 1\n1 2\n[nodes]\ncount=1_0\n",
    # every [run] key away from its default, and every rate written back
    "every-run-key.cfg": "[topology]\ngenerate=ring:12\n[model]\nmodel=SID\nbeta=0.4\n"
                         "delta1=0.1\ntau=0.2\ngamma=0.3\nseeds=0,6\n[run]\nmax_ticks=7\n"
                         "n_runs=3\nrng_seed=18446744073709551615\nstop=fixed_ticks\n"
                         "epsilon=1e-05\nn_jobs=2\n",
    "sweep-default-rates.cfg": "[topology]\ngenerate=ring:12\n[model]\nmodel=SIR\nbeta=0.3\n"
                               "delta1=0.2\nseeds=0\n[run]\nmax_ticks=10\nn_runs=2\n"
                               "epsilon=0.3\n[sweep]\ngrid=0.1,0.5\n",
    # configs whose first error depends on the order of the checks (exit 2)
    "order-read-before-range.cfg": "[topology]\ngenerate=ring:6\n[model]\nmodel=SI\nbeta=0.5\n"
                                   "seeds=0\n[run]\nmax_ticks=0\nn_runs=x\n",
    "order-range-by-key.cfg": "[topology]\ngenerate=ring:6\n[model]\nmodel=SI\nbeta=0.5\n"
                              "seeds=0\n[run]\nn_jobs=0\nmax_ticks=0\n",
    "order-rates-by-field.cfg": "[topology]\ngenerate=ring:6\n[model]\nmodel=SID\ngamma=x\n"
                                "beta=y\nseeds=0\n",
    "order-model-first.cfg": "[topology]\ngenerate=ring:6\n[model]\nseeds=0\n",
    # a topology file that does not exist (exit 3)
    "missing-topology.cfg": "[topology]\nfile=no-such.edges\n[model]\nmodel=SI\nbeta=0.5\n"
                            "seeds=0\n",
    # ids with a gap: 3 missing ids are named one by one, 98 by count and the first 10
    "gap-3.edges": "0 1\n1 5\n",
    "gap-98.edges": "0 1\n1 100\n",
    # the cascade validators' rules: the data-plane line 0-1-2-3, controller 4
    "ctrl-line.edges": "0 1\n1 2\n2 3\n1 4\n[roles]\n0=edge_switch\n1=core_switch\n"
                       "2=core_switch\n3=edge_switch\n4=controller\n[controllers]\n0:4\n"
                       "1:4\n2:4\n3:4\n",
    "negative-demand.cfg": _CTRL_LINE_H + "[demand]\n0,3,-1\n",
    "negative-injection.cfg": _CTRL_LINE_H + "[demand]\n0,3,1\n[injection]\n0,3,-1\n",
    "demand-to-controller.cfg": _CTRL_LINE_H + "[demand]\n0,3,1\n0,4,1\n",
    "demand-same-ends.cfg": _CTRL_LINE_H + "[demand]\n2,2,1\n",
    "injection-same-ends.cfg": _CTRL_LINE_H + "[demand]\n0,3,1\n[injection]\n3,3,1\n",
    "capacity-on-controller.cfg": _CTRL_LINE_H + "[capacity]\n4=1\n1=1.5\n[demand]\n0,3,1\n"
                                  "[injection]\n1,3,1\n",
    "attack-controller.cfg": _CTRL_LINE_V + "[rate]\n0=1\n[attack]\n4=5\n",
    "rate-controller.cfg": _CTRL_LINE_V + "[rate]\n0=1\n4=1\n",
    # each flow position and [attack] value names itself in its error (exit 2)
    "demand-bad-second-dst.cfg": _CTRL_LINE_H + "[demand]\n0,3,1\n0,9,1\n",
    "injection-bad-exit.cfg": _CTRL_LINE_H + "[demand]\n0,3,1\n[injection]\n0,x,1\n",
    "injection-bad-volume.cfg": _CTRL_LINE_H + "[demand]\n0,3,1\n[injection]\n0,3,1_0\n",
    "attack-bad-value.cfg": _CTRL_LINE_V + "[rate]\n0=1\n[attack]\n0=x\n",
    # node ids take the number grammar: `1_0` and `\u0663` are not ids
    "seeds-1_0.cfg": "[topology]\ngenerate=ring:20\n[model]\nmodel=SI\nbeta=0.5\n"
                     "seeds=1_0,\u0663\n[run]\nmax_ticks=3\n",
    "alias-1_0.edges": "a 1_0\n1_0 b\n",
    "alias-1_0.cfg": "[topology]\nfile=alias-1_0.edges\n[model]\nmodel=SI\nbeta=0.5\n"
                     "seeds=1_0\n[run]\nmax_ticks=3\n",
    "id-1_0.edges": "0 1_0\n",
}

# comments on every kind of line, so a comment cut that joins or splits
# lines shows as a changed line number or a lost line
COMMENTED_EDGES = ("# four switches, two controllers\n0 1\n1 2 # data plane\n2 3\n#\n"
                   "0 4  # s0-c4\n1 4\n#\n1 5\n2 5\n3 5#x\n"
                   "[roles]  # ids 4 and 5 control\n0=edge_switch\n1=edge_switch\n"
                   "2=core_switch # core\n3=edge_switch\n  # indented comment\n"
                   "4=controller\n5=controller\n[controllers]\n#\n0:4,5\n1:4,5 # primary 4\n"
                   "2:5,4\n3:5\n")
COMMENTED_CFG = ("# vertical cascade\n[topology]\nfile={edges}  # next to this file\n"
                 "[scenario]\n#\nkind=vertical\n[capacity]\n4=30 # c4\n5=25\n[rate]\n"
                 "0=8\n1=8#\n2=8\n# 3 is below\n3=8\n[attack]\n0=20  # flood s0\n")
for _end, _suffix in (("\n", "lf"), ("\r\n", "crlf"), ("\r", "cr"), ("\x85", "nel")):
    OWN_INPUTS[f"commented-{_suffix}.edges"] = COMMENTED_EDGES.replace("\n", _end)
    OWN_INPUTS[f"commented-{_suffix}.cfg"] = COMMENTED_CFG.format(
        edges=f"commented-{_suffix}.edges").replace("\n", _end)
    OWN_INPUTS[f"commented-bad-{_suffix}.edges"] = (COMMENTED_EDGES + "# last\n3 4 5\n").replace(
        "\n", _end)


def command_of(text: str) -> str:
    """The CLI command a config's sections call for."""
    return "cascade" if "[scenario]" in text else "sweep" if "[sweep]" in text else "epidemic"


def own_runs(inputs: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(label, CLI arguments) of each run on OWN_INPUTS, written to `inputs`."""
    inputs.mkdir()
    runs = []
    for name, text in OWN_INPUTS.items():
        path = inputs / name
        path.write_bytes(text.encode())  # line ends as written
        argv = ((command_of(text), "--config", str(path)) if name.endswith(".cfg")
                else ("validate", str(path)))
        runs.append((f"own {argv[0]} {name}", argv))
    return runs


def preset_runs(presets: Path) -> list[tuple[str, tuple[str, ...]]]:
    """(label, CLI arguments) of each preset run."""
    runs = []
    for cfg in sorted(presets.glob("*.cfg")):
        command = command_of(cfg.read_text())
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
        own = tmp / "inputs-own"
        runs += [(label, argv, {str(own): "<inputs>"}) for label, argv in own_runs(own)]
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
