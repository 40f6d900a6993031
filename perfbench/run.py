"""failprop benchmark: whole CLI runs end to end, layers from a traced run.

    python3 perfbench/run.py --workload epidemic-ba --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all          # one table row per workload

With --trace 0 each sample is one `failprop` CLI subprocess against this
checkout's own src/ (no install), timed from spawn to exit, alternated
with a fresh-interpreter set-up probe. With --trace 1 the CLI runs in
this process, alternating untraced runs with runs under the tracer, which
gives the per-layer metrics and the tracing overhead. Every run's outputs
are checked; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.

Host speed: on a shared machine the speed of pure-Python code drifts by
up to half over tens of seconds, longer than a run can average away. So a
fixed pure-Python speed probe is timed before and after every sample, and
the end-to-end times are reported in seconds at the reference probe speed:
measured seconds * REFERENCE_PROBE_S / (probe seconds around the sample).
The program under test never runs the probe, so a change to failprop moves
these times as it moves the measured ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import deque
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # inputs, outputs and span files; never committed
REFERENCE = HERE / "reference.json"
PROBE = HERE / "setup_probe.py"

DEFAULT_SEED = 1
REFERENCE_PROBE_S = 0.012  # median speed-probe time on a 2-core x86-64 sandbox
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 120

SELF_TIME_LAYERS = (
    "epidemic.step", "epidemic.run", "epidemic.monte_carlo",
    "metrics.threshold_sweep", "metrics.stabilization_time",
    "cascades.route_demand", "cascades.compute_loads", "cascades.run_horizontal",
    "cascades.assign_switches", "cascades.run_vertical", "cascades.trace_render",
    "topology.load_edge_list", "topology.Network.from_edges", "topology.generate_topology",
    "config.load_config", "config.build_network", "config.render_resolved", "cli.main",
)
CALL_LAYERS = (
    "epidemic.step", "epidemic.run", "cascades.route_demand",
    "cascades.compute_loads", "cascades.assign_switches",
)
# layers each workload must reach: a layer that is renamed, inlined or
# bypassed would otherwise report 0 calls and 0 s, which reads as a gain
_COMMON = ("cli.main", "config.load_config", "config.build_network",
           "config.render_resolved", "topology.Network.from_edges")
USED_LAYERS = {
    "epidemic-ba": (*_COMMON, "topology.load_edge_list", "epidemic.monte_carlo",
                    "epidemic.run", "epidemic.step", "metrics.stabilization_time"),
    "sweep-sir": (*_COMMON, "topology.generate_topology", "metrics.threshold_sweep",
                  "epidemic.monte_carlo", "epidemic.run", "epidemic.step"),
    "cascade-grid": (*_COMMON, "topology.load_edge_list", "cascades.run_horizontal",
                     "cascades.route_demand", "cascades.compute_loads",
                     "cascades.trace_render"),
    "cascade-vertical": (*_COMMON, "topology.load_edge_list", "cascades.run_vertical",
                         "cascades.assign_switches", "cascades.trace_render"),
}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


class OutputCheck:
    """Checks each run's outputs: structure, then digests against the
    recorded reference (default seed) or against the first run (any seed)."""

    def __init__(self, wl: workloads.Workload, input_dir: Path, expected: dict | None):
        self.wl = wl
        self.input_dir = input_dir
        self.expected = expected

    def __call__(self, out: Path) -> tuple[list[str], int]:
        try:
            problems, work = workloads.check_outputs(self.wl, out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable outputs: {exc!r}"], 0
        if problems:
            return problems, work
        found = workloads.digests(out, self.input_dir)
        if self.expected is None:
            self.expected = found
        elif found != self.expected:
            diff = sorted(k for k in found.keys() | self.expected.keys()
                          if found.get(k) != self.expected.get(k))
            problems.append(f"outputs differ from the reference: {', '.join(diff)}")
        return problems, work


def _reference(name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())[name]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


# ---------------------------------------------------------------------------
# end to end (--trace 0)

def _on_alarm(signum, frame):
    raise TimeoutError


def _cli_sample(wl, out: Path, env) -> tuple[bool, float, float, str]:
    """One CLI subprocess; returns (ok, wall seconds, peak RSS MB, stderr).
    A run still going after SAMPLE_TIMEOUT_S is killed and is not ok."""
    err_path = out.with_suffix(".stderr")
    with open(err_path, "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "failprop.cli", *wl.argv, "--out", str(out)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        # os.wait4 has no timeout, and Popen.wait(timeout) returns no rusage:
        # an alarm interrupts the blocking wait instead
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:
            proc.kill()
            proc.wait()
            if not isinstance(exc, TimeoutError):
                raise
            return False, perf_counter() - t0, 0.0, f"no exit within {SAMPLE_TIMEOUT_S} s"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode == 0, wall, usage.ru_maxrss / 1024, err_path.read_text()


def _setup_sample(wl, env) -> float | None:
    try:
        proc = subprocess.run([sys.executable, str(PROBE), str(wl.config)], env=env,
                              capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{wl.name}: set-up probe ran past {SAMPLE_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    return float(proc.stdout.split()[-1])


def _grid_adjacency(n: int) -> list[tuple[int, ...]]:
    adj = []
    for v in range(n * n):
        r, c = divmod(v, n)
        adj.append(tuple(r2 * n + c2 for r2, c2 in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c))
                         if 0 <= r2 < n and 0 <= c2 < n))
    return adj


_PROBE_ADJ = _grid_adjacency(40)


def _speed_probe() -> float:
    """Time of fixed pure-Python work of failprop's kinds: integer
    arithmetic, and dict/set/deque breadth-first search over a grid."""
    t0 = perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    for src in range(0, 1600, 137):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for u in _PROBE_ADJ[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
    return perf_counter() - t0


def _host_speed() -> float:
    """The host-speed reading: median seconds of five speed probes."""
    return statistics.median(_speed_probe() for _ in range(5))


def measure(wl, check: OutputCheck, tmp: Path, seconds: float) -> dict:
    env = _env()
    walls, rates, rss, setups = [], [], [], []
    attempted = failed = 0
    probe_before = _host_speed()

    def at_reference_speed(measured: float) -> float:
        nonlocal probe_before
        probe_after = _host_speed()
        scaled = measured * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2)
        probe_before = probe_after
        return scaled

    def cli(i: int, timed: bool):
        nonlocal attempted, failed
        out = tmp / f"out{i}"
        attempted += 1
        ok, wall, peak, err = _cli_sample(wl, out, env)
        wall = at_reference_speed(wall)
        problems, work = check(out) if ok else ([f"exit status non-zero: {err.strip()}"], 0)
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            failed += 1
            print(f"{wl.name}: run {i} failed: {'; '.join(problems)}", file=sys.stderr)
        elif timed:
            walls.append(wall)
            rates.append(work / wall)
            rss.append(peak)

    def setup(timed: bool):
        nonlocal attempted, failed
        attempted += 1
        value = _setup_sample(wl, env)
        if value is None:
            failed += 1
            return
        value = at_reference_speed(value)
        if timed:
            setups.append(value)

    # warm-up: fills the page cache and __pycache__, and fixes the outputs
    # that later runs of a non-default seed must reproduce
    cli(0, timed=False)
    setup(timed=False)
    deadline = perf_counter() + seconds
    i = 0
    while True:
        # two CLI runs per set-up probe: wall_s has a bound to meet, setup_s
        # only needs its median
        cli(i + 1, timed=True)
        cli(i + 2, timed=True)
        i += 2
        setup(timed=True)
        if failed or (perf_counter() >= deadline and min(len(walls), len(setups)) >= MIN_SAMPLES):
            break

    metrics = {
        "wall_s": (_median(walls), "s"),
        "work_per_s": (_median(rates), "1/s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_median(rss), "MB"),
    }
    print(
        f"{wl.name}: wall_s={metrics['wall_s'][0]:.4f} s (median of {len(walls)}), "
        f"work_per_s={metrics['work_per_s'][0]:.3f} {wl.work_unit}/s, "
        f"setup_s={metrics['setup_s'][0]:.4f} s (median of {len(setups)}), "
        f"peak_rss_mb={metrics['peak_rss_mb'][0]:.1f} MB, "
        f"error_rate={failed / attempted:.4f} ({failed}/{attempted})",
        file=sys.stderr,
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# ---------------------------------------------------------------------------
# traced run (--trace 1)

def _in_process(main, wl, out: Path) -> tuple[int, float]:
    with contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        code = main([*wl.argv, "--out", str(out)])
        wall = perf_counter() - t0
    return code, wall


def _run_summary(tr: tracing.Tracer, run: int, output_bytes: int) -> tuple[dict, dict]:
    spans = [s for s in tr.spans if s.run == run]
    selfs = tracing.self_times(spans)
    calls, self_s = {}, {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[s.id]
    fingerprint = {f"{k}.calls": v for k, v in sorted(calls.items())}
    fingerprint.update(sorted(tr.counts.items()))
    fingerprint["cli.output_bytes"] = output_bytes
    return fingerprint, self_s


def traced(wl, check: OutputCheck, tmp: Path, seconds: float, spans_file: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import failprop.cli

    tr = tracing.Tracer()
    plain_walls, traced_walls = [], []
    fingerprints, self_times = [], []
    attempted = failed = 0

    def one(i: int, trace: bool, timed: bool):
        nonlocal attempted, failed
        out = tmp / f"out{i}"
        attempted += 1
        if trace:
            tr.begin_run()
            tr.install()
            try:
                code, wall = _in_process(failprop.cli.main, wl, out)
            finally:
                tr.restore()
        else:
            code, wall = _in_process(failprop.cli.main, wl, out)
        problems, _ = check(out) if code == 0 else ([f"exit status {code}"], 0)
        output_bytes = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            failed += 1
            print(f"{wl.name}: run {i} failed: {'; '.join(problems)}", file=sys.stderr)
            return
        if trace:
            fingerprint, selfs = _run_summary(tr, tr.run, output_bytes)
            fingerprints.append(fingerprint)
            self_times.append(selfs)
        if timed:
            (traced_walls if trace else plain_walls).append(wall)

    one(0, trace=False, timed=False)
    deadline = perf_counter() + seconds
    i = 0
    while True:
        one(i + 1, trace=False, timed=True)
        one(i + 2, trace=True, timed=True)
        i += 2
        if failed or (perf_counter() >= deadline
                      and min(len(plain_walls), len(traced_walls)) >= 2):
            break
    if tr.missing:
        print(f"{wl.name}: layers not found: {', '.join(tr.missing)}", file=sys.stderr)
    unreached = [n for n in USED_LAYERS[wl.name]
                 if any(not f.get(f"{n}.calls") for f in fingerprints)]
    if unreached:
        print(f"{wl.name}: layers never called: {', '.join(unreached)}", file=sys.stderr)
    nondeterministic = any(f != fingerprints[0] for f in fingerprints[1:])
    if nondeterministic:
        print(f"{wl.name}: exact counts differ between traced runs of the same code: "
              "the program is nondeterministic", file=sys.stderr)

    spans_file.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_file, "w") as fh:
        for s in tr.spans:
            fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "run": s.run}) + "\n")

    first = fingerprints[0] if fingerprints else {}
    metrics = {}
    for name in CALL_LAYERS:
        metrics[f"{name}.calls"] = (first.get(f"{name}.calls", 0), "count")
    for name in SELF_TIME_LAYERS:
        metrics[f"{name}.self_s"] = (_median([st.get(name, 0.0) for st in self_times]), "s")

    def ratio(num: str, den: str) -> float:
        return first.get(num, 0) / first[den] if first.get(den) else 0.0

    metrics["epidemic.step.useful_ratio"] = (
        ratio("epidemic.events", "epidemic.node_visits"), "ratio")
    metrics["cascades.route_demand.changed_ratio"] = (
        ratio("cascades.route_demand.changed", "cascades.route_demand.compared"), "ratio")
    metrics["cascades.assign_switches.changed_ratio"] = (
        ratio("cascades.assign_switches.changed", "cascades.assign_switches.compared"), "ratio")
    metrics["epidemic.events"] = (first.get("epidemic.events", 0), "count")
    metrics["topology.load_edge_list.bytes"] = (first.get("topology.load_edge_list.bytes", 0), "B")
    metrics["cli.output_bytes"] = (first.get("cli.output_bytes", 0), "B")
    metrics["trace.overhead_s"] = (_median(traced_walls) - _median(plain_walls), "s")
    print(f"{wl.name}: {len(traced_walls)} traced and {len(plain_walls)} untraced runs; "
          f"fingerprint {json.dumps(first, sort_keys=True)}", file=sys.stderr)
    # a layer that could not be measured makes its metrics meaningless
    covered = not tr.missing and not unreached and bool(fingerprints)
    return {"correct": failed == 0 and covered and not nondeterministic,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp_name:
        tmp = Path(tmp_name)
        wl = workloads.make(name, seed, tmp / "inputs")
        check = OutputCheck(wl, tmp / "inputs", _reference(name, seed))
        if trace:
            return traced(wl, check, tmp, seconds, WORK / f"spans-{name}-seed{seed}.jsonl")
        return measure(wl, check, tmp, seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "failprop" / "__init__.py").is_file():
        print(f"perfbench: no failprop sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0

    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in workloads.NAMES}
    for name, res in results.items():
        cells = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()]
        cells.append(f"error_rate={res['failed'] / res['attempted']:.4g}")
        print(f"{name:17s} " + "  ".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": m for name, r in results.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
