import json
from pathlib import Path

import pytest

from failprop.cli import main
from failprop.topology import load_edge_list, validate

SI_RING_CFG = """
[topology]
generate=ring:10

[model]
model=SI
beta=0.7
seeds=0

[run]
max_ticks=30
n_runs=3
rng_seed=5
stop=fixed_ticks
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read(path: Path) -> str:
    return path.read_text()


# --- epidemic ----------------------------------------------------------------

def test_epidemic_minimal_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SI_RING_CFG)
    out = tmp_path / "out"
    assert main(["epidemic", "--config", cfg, "--out", str(out)]) == 0
    rows = read(out / "trace.csv").splitlines()
    assert rows[0] == "tick,S,I,R,D"
    for row in rows[1:]:
        t, s, i, r, d = map(int, row.split(","))
        assert s + i + r + d == 10
    assert (out / "events.csv").is_file()
    assert (out / "resolved-config.txt").is_file()
    summary = json.loads(read(out / "summary.json"))
    assert summary["node_count"] == 10
    assert summary["aggregate"]["n_runs"] == 3
    err = capsys.readouterr().err
    assert "epidemic:" in err


def test_epidemic_invalid_beta_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SI_RING_CFG.replace("beta=0.7", "beta=1.5"))
    assert main(["epidemic", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "beta" in capsys.readouterr().err


def test_epidemic_missing_model_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "[topology]\ngenerate=ring:4\n")
    assert main(["epidemic", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_epidemic_missing_topology_file_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, "[topology]\nfile=gone.edges\n[model]\nmodel=SI\nbeta=1\nseeds=0\n")
    assert main(["epidemic", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_epidemic_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, SI_RING_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["epidemic", "--config", cfg, "--out", str(a)]) == 0
    assert main(["epidemic", "--config", cfg, "--out", str(b)]) == 0
    for name in ("trace.csv", "events.csv", "summary.json", "resolved-config.txt"):
        assert read(a / name) == read(b / name)


def test_epidemic_seed_override_changes_resolved_config(tmp_path):
    cfg = write_cfg(tmp_path, SI_RING_CFG)
    out = tmp_path / "o"
    assert main(["epidemic", "--config", cfg, "--out", str(out), "--seed", "99"]) == 0
    assert "rng_seed=99" in read(out / "resolved-config.txt")


def test_epidemic_resolved_config_reproduces_run(tmp_path):
    cfg = write_cfg(tmp_path, SI_RING_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["epidemic", "--config", cfg, "--out", str(a)]) == 0
    assert main(["epidemic", "--config", str(a / "resolved-config.txt"),
                 "--out", str(b)]) == 0
    assert read(a / "trace.csv") == read(b / "trace.csv")
    assert read(a / "summary.json") == read(b / "summary.json")


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FAILPROP_OUT", str(tmp_path / "envout"))
    cfg = write_cfg(tmp_path, SI_RING_CFG)
    assert main(["epidemic", "--config", cfg]) == 0
    assert (tmp_path / "envout" / "trace.csv").is_file()


# --- cascade -----------------------------------------------------------------

def test_cascade_vertical_preset(tmp_path):
    out = tmp_path / "v"
    assert main(["cascade", "--config", "fig5a-vertical", "--out", str(out)]) == 0
    summary = json.loads(read(out / "summary.json"))
    assert summary["failed_controllers"] == [6, 7]
    assert summary["orphaned_switches"] == [0, 1, 2, 3, 4, 5]
    assert summary["rounds"] == 3


def test_cascade_horizontal_preset_line(tmp_path):
    out = tmp_path / "h"
    assert main(["cascade", "--config", "fig5b-horizontal", "--out", str(out)]) == 0
    summary = json.loads(read(out / "summary.json"))
    assert len(summary["failed_nodes"]) == 3
    assert (out / "dropped.csv").is_file()


def test_cascade_events_file(tmp_path):
    out = tmp_path / "v"
    assert main(["cascade", "--config", "fig5a-vertical", "--out", str(out)]) == 0
    lines = read(out / "events.csv").splitlines()
    assert lines[0] == "round,event,subject"
    assert "1,controller_failed,6" in lines
    assert "2,controller_failed,7" in lines
    assert "3,switch_orphaned,0" in lines


def test_cascade_without_scenario_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, SI_RING_CFG)
    assert main(["cascade", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cascade_kind_conflict_exits_2(tmp_path, capsys):
    assert main(["cascade", "--config", "fig5a-vertical", "--kind", "horizontal",
                 "--out", str(tmp_path / "o")]) == 2
    assert "conflicts" in capsys.readouterr().err


def test_cascade_vertical_without_controllers_exits_2(tmp_path):
    text = """
[topology]
generate=ring:5

[scenario]
kind=vertical

[capacity]
0=10
"""
    cfg = write_cfg(tmp_path, text)
    assert main(["cascade", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cascade_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["cascade", "--config", "fig5b-horizontal", "--out", str(a)]) == 0
    assert main(["cascade", "--config", "fig5b-horizontal", "--out", str(b)]) == 0
    for name in ("trace.csv", "events.csv", "summary.json", "dropped.csv"):
        assert read(a / name) == read(b / name)


# --- sweep -------------------------------------------------------------------

SWEEP_CFG = """
[topology]
generate=ring:8

[model]
model=SIS
beta=0.1
delta1=0.3
seeds=0

[run]
max_ticks=40
n_runs=12
rng_seed=2

[sweep]
grid=0.1,0.4,0.8
"""


def test_sweep_writes_csv_rows(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    out = tmp_path / "s"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = read(out / "sweep.csv").splitlines()
    assert lines[0] == "param,mean_outbreak,stderr,n_runs"
    assert len(lines) == 5  # header + 3 grid rows + threshold line
    assert lines[-1].startswith("threshold_estimate=")
    summary = json.loads(read(out / "summary.json"))
    assert summary["grid"] == [0.1, 0.4, 0.8]


def test_sweep_without_grid_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_CFG.split("[sweep]")[0])
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_sweep_empty_grid_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_CFG.replace("grid=0.1,0.4,0.8", "grid="))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_sweep_rerun_identical(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(b)]) == 0
    assert read(a / "sweep.csv") == read(b / "sweep.csv")


# --- gen / validate ----------------------------------------------------------

def test_gen_ring_edge_file(tmp_path):
    path = tmp_path / "r.edges"
    assert main(["gen", "ring", "6", "--out", str(path)]) == 0
    net = load_edge_list(read(path))
    assert net.node_count == 6 and net.edge_count() == 6


def test_gen_complete_er(tmp_path):
    path = tmp_path / "k.edges"
    assert main(["gen", "er", "10", "1.0", "--out", str(path)]) == 0
    assert load_edge_list(read(path)).edge_count() == 45


def test_gen_into_directory(tmp_path):
    assert main(["gen", "ba", "30", "2", "--seed", "9", "--out", str(tmp_path) + "/"]) == 0
    net = load_edge_list(read(tmp_path / "ba.edges"))
    report = validate(net)
    assert report.ok and not report.warnings


def test_gen_bad_params_exit_2(tmp_path, capsys):
    assert main(["gen", "ring", "--out", str(tmp_path / "x.edges")]) == 2
    assert main(["gen", "ba", "5", "9", "--out", str(tmp_path / "y.edges")]) == 2
    assert main(["gen", "hypercube", "3", "--out", str(tmp_path / "z.edges")]) == 2


def test_validate_generated_file_round_trip(tmp_path):
    path = tmp_path / "g.edges"
    assert main(["gen", "ba", "20", "2", "--seed", "4", "--out", str(path)]) == 0
    assert main(["validate", str(path)]) == 0


def test_validate_reports_warnings_but_passes(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n2 3\n")
    assert main(["validate", str(path)]) == 0
    assert "DP disconnected" in capsys.readouterr().out


def test_validate_malformed_file_exits_3(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1 extra\n")
    assert main(["validate", str(path)]) == 3


def test_validate_via_config(tmp_path):
    cfg = write_cfg(tmp_path, "[topology]\ngenerate=grid:3:3\n")
    assert main(["validate", "--config", cfg]) == 0


def test_validate_needs_exactly_one_source(tmp_path):
    assert main(["validate"]) == 2
    cfg = write_cfg(tmp_path, "[topology]\ngenerate=ring:4\n")
    path = tmp_path / "g.edges"
    path.write_text("0 1\n")
    assert main(["validate", str(path), "--config", cfg]) == 2


def test_unknown_preset_exits_2(tmp_path, capsys):
    assert main(["epidemic", "--config", "no-such-preset",
                 "--out", str(tmp_path / "o")]) == 2
    assert "no preset" in capsys.readouterr().err


def test_gen_non_integer_size_exits_2(tmp_path, capsys):
    path = tmp_path / "ba.edges"
    assert main(["gen", "ba", "10", "2.9", "--out", str(path)]) == 2
    assert "parameter m must be an integer" in capsys.readouterr().err
    assert not path.exists()


def test_config_generate_non_integer_size_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SI_RING_CFG.replace("generate=ring:10", "generate=ring:10.7"))
    out = tmp_path / "o"
    assert main(["epidemic", "--config", cfg, "--out", str(out)]) == 2
    assert "parameter n must be an integer, got 10.7" in capsys.readouterr().err
    assert not out.exists()
