"""Self-tests for the benchmark harness; not part of the tier-1 suite.

    python3 -m pytest perfbench/tests
"""

import os
import sys
import threading
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402

import failprop.cli  # noqa: E402
import failprop.config  # noqa: E402
import failprop.epidemic  # noqa: E402
import failprop.metrics  # noqa: E402
from failprop.epidemic import EpidemicParams  # noqa: E402
from failprop.topology import ring  # noqa: E402


def _outputs(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("preset", ["fig3-sid", "fig5a-vertical", "fig5b-horizontal"])
def test_traced_run_writes_the_same_bytes_as_untraced(preset, tmp_path):
    command = "epidemic" if preset == "fig3-sid" else "cascade"
    assert failprop.cli.main([command, "--config", preset, "--out", str(tmp_path / "a")]) == 0
    tr = tracing.Tracer()
    tr.begin_run()
    tr.install()
    try:
        assert failprop.cli.main([command, "--config", preset,
                                  "--out", str(tmp_path / "b")]) == 0
    finally:
        tr.restore()
    assert _outputs(tmp_path / "a") == _outputs(tmp_path / "b")
    names = {s.name for s in tr.spans}
    assert {"cli.main", "config.load_config", "config.render_resolved"} <= names
    if preset == "fig3-sid":
        assert {"epidemic.run", "epidemic.step", "epidemic.monte_carlo"} <= names
    else:
        assert "cascades.trace_render" in names
    assert not tr.missing


def test_wrappers_return_what_the_originals_return():
    net = ring(30)
    p = EpidemicParams("SID", 0.4, delta1=0.1, tau=0.2, gamma=0.05)
    plain = failprop.epidemic.monte_carlo(net, [0], p, 50, "absorb", n_runs=4,
                                          base_seed=3, n_jobs=2)
    tr = tracing.Tracer()
    tr.begin_run()
    tr.install()
    try:
        traced = failprop.epidemic.monte_carlo(net, [0], p, 50, "absorb", n_runs=4,
                                               base_seed=3, n_jobs=2)
    finally:
        tr.restore()
    assert traced == plain
    # 4 replicas on worker threads, all parented to monte_carlo after resolution
    parents = tracing.resolve_parents(tr.spans)
    mc = next(s for s in tr.spans if s.name == "epidemic.monte_carlo")
    runs = [s for s in tr.spans if s.name == "epidemic.run"]
    assert len(runs) == 4 and all(parents[s.id] == mc.id for s in runs)
    steps = sum(1 for s in tr.spans if s.name == "epidemic.step")
    assert tr.counts["epidemic.node_visits"] == 30 * steps
    assert tr.counts["epidemic.node_visits"] > tr.counts["epidemic.events"] > 0


def test_install_patches_every_binding_site_and_restore_undoes_it():
    originals = {
        (failprop.cli, "run"): failprop.cli.run,
        (failprop.cli, "monte_carlo"): failprop.cli.monte_carlo,
        (failprop.cli, "threshold_sweep"): failprop.cli.threshold_sweep,
        (failprop.cli, "run_vertical"): failprop.cli.run_vertical,
        (failprop.cli, "run_horizontal"): failprop.cli.run_horizontal,
        (failprop.metrics, "monte_carlo"): failprop.metrics.monte_carlo,
        (failprop.config, "load_edge_list"): failprop.config.load_edge_list,
        (failprop.config, "generate_topology"): failprop.config.generate_topology,
        (failprop.epidemic, "step"): failprop.epidemic.step,
    }
    from_edges = vars(failprop.topology.Network)["from_edges"]
    tr = tracing.Tracer()
    tr.install()
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr) is not fn, f"{mod.__name__}.{attr} not wrapped"
            assert getattr(mod, attr).__wrapped__ is fn
        assert vars(failprop.topology.Network)["from_edges"] is not from_edges
    finally:
        tr.restore()
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn
    assert vars(failprop.topology.Network)["from_edges"] is from_edges


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1, 1),
        Span(2, "a", 1.0, 4.0, 1, 1, 1),
        Span(3, "b", 5.0, 6.0, 1, 1, 1),
        Span(4, "c", 2.0, 3.0, 2, 1, 1),
        # two overlapping spans on worker threads, inside the root span
        Span(5, "w", 6.5, 9.0, None, 1, 2),
        Span(6, "w", 7.0, 9.5, None, 1, 3),
        # a different run on the same ids must not be mixed in
        Span(7, "root", 0.0, 1.0, None, 2, 1),
    ]
    selfs = tracing.self_times(spans)
    # root: 10 minus [1,4] + [5,6] + [6.5,9.5] = 10 - 3 - 1 - 3
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(2.5)
    assert selfs[7] == pytest.approx(1.0)
    assert tracing.resolve_parents(spans)[5] == 1


def test_self_time_clips_children_to_the_parent():
    spans = [Span(1, "p", 0.0, 2.0, None, 1, 1), Span(2, "c", 1.5, 3.0, 1, 1, 1)]
    assert tracing.self_times(spans)[1] == pytest.approx(1.5)


def test_ratio_counters_follow_return_values():
    tr = tracing.Tracer()
    tr.begin_run()
    stack = [tracing._Open(9, "cascades.run_horizontal")]
    tr._after_route((None, None, 0, 5), [0, 1, 5], stack)
    tr._after_route((None, None, 0, 5), [0, 2, 5], stack)
    tr._after_route((None, None, 0, 5), [0, 2, 5], stack)
    assert (tr.counts["cascades.route_demand.changed"],
            tr.counts["cascades.route_demand.compared"]) == (1, 2)
    stack = [tracing._Open(4, "cascades.run_vertical")]
    tr._after_assign((None, set()), {0: 7, 1: 7, 2: 8}, stack)
    tr._after_assign((None, {7}), {0: 8, 1: None, 2: 8}, stack)
    assert (tr.counts["cascades.assign_switches.changed"],
            tr.counts["cascades.assign_switches.compared"]) == (2, 3)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    def files(seed, tag):
        d = tmp_path / tag
        workloads.make(name, seed, d)
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_spans_from_threads_are_all_kept():
    tr = tracing.Tracer()
    tr.begin_run()
    work = tr.wrap("w", lambda: None)
    threads = [threading.Thread(target=lambda: [work() for _ in range(200)])
               for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert len(tr.spans) == 800
    assert len({s.id for s in tr.spans}) == 800


def _traced_preset(tmp_path) -> dict:
    """A short traced run of the vertical preset, checked as cascade-vertical."""
    wl = workloads.Workload("cascade-vertical", ("cascade", "--config", "fig5a-vertical"),
                            Path("fig5a-vertical"), None, "rounds")
    check = run.OutputCheck(wl, tmp_path, None)
    return run.traced(wl, check, tmp_path, 0, tmp_path / "spans.jsonl")


def test_traced_run_of_intact_layers_is_correct(tmp_path):
    assert _traced_preset(tmp_path)["correct"]


def _relayer(monkeypatch, layer: str, attr: str):
    monkeypatch.setattr(tracing, "LAYERS", tuple(
        (name, mod, attr if name == layer else a) for name, mod, a in tracing.LAYERS))


def test_a_layer_that_is_gone_makes_the_traced_run_incorrect(tmp_path, monkeypatch):
    # as if a change renamed cascades.assign_switches
    _relayer(monkeypatch, "cascades.assign_switches", "assign_switches_renamed")
    result = _traced_preset(tmp_path)
    assert not result["correct"]
    assert result["metrics"]["cascades.assign_switches.calls"]["value"] == 0


def test_a_layer_that_is_never_called_makes_the_traced_run_incorrect(tmp_path, monkeypatch):
    # as if a change inlined assign_switches and left the function unused:
    # the layer's wrapper is installed on a function the run does not call
    _relayer(monkeypatch, "cascades.assign_switches", "compute_loads")
    assert not _traced_preset(tmp_path)["correct"]


def test_a_cli_run_past_the_timeout_is_killed_and_fails(tmp_path, monkeypatch):
    pkg = tmp_path / "fake" / "failprop"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text("import time\ntime.sleep(60)\n")
    env = {**os.environ, "PYTHONPATH": str(pkg.parent)}
    wl = workloads.Workload("hang", ("epidemic",), Path("none"), 1, "replicas")
    monkeypatch.setattr(run, "SAMPLE_TIMEOUT_S", 0.5)
    t0 = perf_counter()
    ok, _, _, err = run._cli_sample(wl, tmp_path / "out", env)
    assert not ok and "no exit within" in err
    assert perf_counter() - t0 < 10
