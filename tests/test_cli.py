import json
from pathlib import Path

import pytest

from failprop.cli import build_parser, main
from failprop.config import build_network, load_config, resolve_seeds
from failprop.epidemic import monte_carlo
from failprop.metrics import outbreak_size
from failprop.topology import (
    barabasi_albert,
    erdos_renyi,
    load_edge_list,
    ring,
    serialize_edge_list,
    validate,
)

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


def test_epidemic_preset_that_dies_out_reports_stabilized(tmp_path):
    out = tmp_path / "out"
    assert main(["epidemic", "--config", "fig3-sid", "--out", str(out)]) == 0
    replica0 = json.loads(read(out / "summary.json"))["replica0"]
    assert replica0["final_counts"] == {"S": 10, "I": 0, "R": 0, "D": 0}
    assert replica0["final_tick"] == replica0["stabilization_tick"] == 41
    assert replica0["stabilized"] is True


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


def test_epidemic_empty_seed_list_is_a_config_error_before_the_topology(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[topology]\nfile=gone.edges\n[model]\nmodel=SI\nbeta=1\nseeds=,\n")
    assert main(["epidemic", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "[model] needs a nonempty seeds= list" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,msg", [
    ("seeds=0", "seeds=0,,3", "seeds has an empty item, got '0,,3'"),
    ("generate=ring:10", "generate=ring::10:", "generate parameters has an empty item"),
])
def test_epidemic_empty_list_item_exits_2(tmp_path, capsys, old, new, msg):
    cfg = write_cfg(tmp_path, SI_RING_CFG.replace(old, new))
    out = tmp_path / "o"
    assert main(["epidemic", "--config", cfg, "--out", str(out)]) == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


def test_epidemic_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, SI_RING_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["epidemic", "--config", cfg, "--out", str(a)]) == 0
    assert main(["epidemic", "--config", cfg, "--out", str(b)]) == 0
    for name in ("trace.csv", "events.csv", "summary.json", "resolved-config.txt"):
        assert read(a / name) == read(b / name)


def test_failed_write_leaves_the_output_directory_as_it_was(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, SI_RING_CFG)
    out = tmp_path / "out"
    assert main(["epidemic", "--config", cfg, "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    real_write_text = Path.write_text
    writes = []

    def write_then_fail(self, text, *args, **kwargs):
        if writes:
            raise OSError("disk full")
        writes.append(self)
        return real_write_text(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_then_fail)
    assert main(["epidemic", "--config", cfg, "--out", str(out), "--seed", "6"]) == 4
    monkeypatch.undo()
    assert len(writes) == 1 and writes[0].parent == out
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_a_directory_in_the_way_of_a_target_replaces_no_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SI_RING_CFG)
    out = tmp_path / "out"
    (out / "events.csv").mkdir(parents=True)
    (out / "trace.csv").write_text("old\n")
    assert main(["epidemic", "--config", cfg, "--out", str(out)]) == 4
    assert "failprop: unexpected error: IsADirectoryError(" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["events.csv", "trace.csv"]
    assert (out / "trace.csv").read_bytes() == b"old\n"
    assert not any((out / "events.csv").iterdir())


def test_epidemic_seed_override_changes_resolved_config(tmp_path):
    cfg = write_cfg(tmp_path, SI_RING_CFG)
    out = tmp_path / "o"
    assert main(["epidemic", "--config", cfg, "--out", str(out), "--seed", "99"]) == 0
    assert "rng_seed=99" in read(out / "resolved-config.txt")


@pytest.mark.parametrize("command", ["epidemic", "sweep", "cascade", "gen"])
@pytest.mark.parametrize("seed,ok", [
    ("-1", False), (str(2**64), False), ("0", True), (str(2**64 - 1), True),
])
def test_seed_option_is_64_bit(tmp_path, capsys, command, seed, ok):
    text = {
        "epidemic": SI_RING_CFG,
        "sweep": SI_RING_CFG + "[sweep]\ngrid=0.2,0.4\n",
        "cascade": "[topology]\ngenerate=ring:4\n[scenario]\nkind=horizontal\n",
    }
    out = tmp_path / "o"
    if command == "gen":
        args = ["gen", "ring", "4"]
    else:
        args = [command, "--config", write_cfg(tmp_path, text[command])]
    code = main([*args, "--out", str(out), f"--seed={seed}"])
    if ok:
        assert code == 0 and out.exists()
    else:
        assert code == 2 and not out.exists()
        assert f"--seed must be in [0, 2**64), got '{seed}'" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["1_0", "\u0661\u0660"])
def test_seed_option_has_one_spelling(tmp_path, capsys, seed):
    out = tmp_path / "o"
    code = main(["epidemic", "--config", write_cfg(tmp_path, SI_RING_CFG), "--out", str(out),
                 f"--seed={seed}"])
    assert code == 2 and not out.exists()
    assert f"--seed must be an integer, got '{seed}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["epidemic", "sweep"])
@pytest.mark.parametrize("jobs", ["1_0", "\uff12", "x"])
def test_jobs_option_reads_config_integers(tmp_path, capsys, command, jobs):
    # argparse's int() would read `1_0` as 10 and a fullwidth 2 as 2
    out = tmp_path / "o"
    code = main([command, "--config", write_cfg(tmp_path, SWEEP_CFG), "--out", str(out),
                 f"--jobs={jobs}"])
    assert code == 2 and not out.exists()
    assert f"--jobs must be an integer, got '{jobs}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["epidemic", "sweep"])
@pytest.mark.parametrize("seeds, node, first, second", [
    ("0,0", 0, "0", "0"),
    ("b, 1", 1, "b", "1"),  # an alias and its node's id
])
def test_a_repeated_seed_node_exits_2(tmp_path, capsys, command, seeds, node, first, second):
    # one set of seed nodes has one resolved text: "seeds=0" and "seeds=0,0"
    # would run the same experiment
    (tmp_path / "net.edges").write_text("a b\nb c\n")
    text = SWEEP_CFG.replace("generate=ring:8", "file=net.edges").replace("seeds=0",
                                                                          f"seeds={seeds}")
    out = tmp_path / "o"
    assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"seeds: {first!r} and {second!r} name the same node {node}" in capsys.readouterr().err


def test_replica0_outbreak_size_counts_each_node_once(tmp_path):
    # SIS re-infects nodes: replica 0's event log enters I more often than
    # it has distinct infected nodes
    text = SI_RING_CFG.replace("model=SI", "model=SIS\ndelta1=0.3")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main(["epidemic", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads(read(out / "summary.json"))
    c = load_config(cfg)
    net = build_network(c)
    agg = monte_carlo(net, resolve_seeds(c, net), c.model, c.max_ticks, c.stop,
                      n_runs=c.n_runs, base_seed=c.rng_seed)
    entries = [e for e in agg.replica0.events if e[3] == "I"]
    assert len(entries) > len({e[1] for e in entries})
    assert summary["replica0"]["outbreak_size"] == outbreak_size(agg.replica0)
    assert summary["aggregate"]["outbreak_sizes"][0] == outbreak_size(agg.replica0)


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


def test_out_dir_from_the_config_is_relative_to_the_config(tmp_path, monkeypatch):
    # [output] dir= comes before FAILPROP_OUT
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FAILPROP_OUT", str(tmp_path / "envout"))
    (tmp_path / "cfgs").mkdir()
    cfg = write_cfg(tmp_path / "cfgs", SI_RING_CFG + "\n[output]\ndir=res\n")
    assert main(["epidemic", "--config", cfg]) == 0
    assert (tmp_path / "cfgs" / "res" / "trace.csv").is_file()
    assert not (tmp_path / "envout").exists()


def test_out_dir_defaults_to_out_in_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FAILPROP_OUT", raising=False)
    cfg = write_cfg(tmp_path, SI_RING_CFG)
    assert main(["epidemic", "--config", cfg]) == 0
    assert (tmp_path / "out" / "trace.csv").is_file()


@pytest.mark.parametrize("command", ["epidemic", "sweep"])
def test_jobs_below_one_exits_2(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    assert main([command, "--config", cfg, "--jobs", "0", "--out", str(tmp_path / "o")]) == 2
    assert "failprop: error: --jobs must be >= 1, got 0\n" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# --- cascade -----------------------------------------------------------------

def test_cascade_prints_each_warning_to_stderr(tmp_path, capsys):
    # the generated ring has no roles, so neither injection endpoint is an
    # edge switch: the run goes on, and says so
    cfg = write_cfg(tmp_path, "[topology]\ngenerate=ring:6\n[scenario]\nkind=horizontal\n"
                              "[injection]\n0,3,1\n")
    out = tmp_path / "o"
    assert main(["cascade", "--config", cfg, "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == ["warning: injection endpoint 0 is not an edge switch",
                       "warning: injection endpoint 3 is not an edge switch"]
    assert err[2].startswith("cascade horizontal: 0 node(s) failed")
    assert json.loads(read(out / "summary.json"))["warnings"] == [
        w.removeprefix("warning: ") for w in err[:2]]


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


@pytest.mark.parametrize("preset, line", [
    ("fig5a-vertical", "cascade vertical: 2 controller(s) failed, 6 switch(es) orphaned, "
                       "3 round(s), failed fraction 1.0000"),
    ("fig5b-horizontal", "cascade horizontal: 3 node(s) failed, 1 flow(s) dropped, "
                         "2 round(s), failed fraction 0.6000"),
])
def test_cascade_writes_one_summary_line(tmp_path, capsys, preset, line):
    assert main(["cascade", "--config", preset, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == line + "\n"


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


def test_sweep_without_model_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[topology]\ngenerate=ring:8\n[sweep]\ngrid=0.1,0.4\n")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "failprop: error: sweep needs a [model] section\n" in capsys.readouterr().err


def test_sweep_without_grid_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_CFG.split("[sweep]")[0])
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_sweep_empty_grid_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_CFG.replace("grid=0.1,0.4,0.8", "grid="))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_sweep_empty_grid_item_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP_CFG.replace("grid=0.1,0.4,0.8", "grid=0.1,,0.8"))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "grid has an empty item, got '0.1,,0.8'" in capsys.readouterr().err


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
    assert not validate(net)


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


def test_validate_empty_controller_item_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n[roles]\n1=controller\n[controllers]\n0:1,,\n")
    assert main(["validate", str(path)]) == 3
    assert "line 5: empty controller item" in capsys.readouterr().err


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


@pytest.mark.parametrize("kind,section,lines", [
    ("vertical", "capacity", "ctl=5\n1=7\n"),
    ("vertical", "rate", "sw=1\n0=2\n"),
    ("horizontal", "capacity", "1=5\nctl=7\n"),
])
def test_cascade_rejects_two_tokens_for_one_node(tmp_path, capsys, kind, section, lines):
    (tmp_path / "named.edges").write_text(
        "sw ctl\n[roles]\nsw=edge_switch\nctl=controller\n[controllers]\nsw:ctl\n"
    )
    text = f"[topology]\nfile=named.edges\n\n[scenario]\nkind={kind}\n\n[{section}]\n{lines}"
    out = tmp_path / "o"
    assert main(["cascade", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
    first, second = (line.split("=")[0] for line in lines.split())
    node = 0 if "sw" in (first, second) else 1
    assert (f"{section}: {first!r} and {second!r} name the same node {node}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_validate_missing_file_exits_3(tmp_path, capsys):
    path = tmp_path / "missing.edges"
    assert main(["validate", str(path)]) == 3
    assert f"cannot read topology file {path}" in capsys.readouterr().err


@pytest.mark.parametrize("name, data, args, code, msg", [
    ("bad.edges", b"0 1\n1 \xff\n", [], 3, "cannot read topology file"),
    ("bad.cfg", b"[topology]\n# caf\xe9\ngenerate=ring:5\n", ["--config"], 2,
     "cannot read config file"),
])
def test_validate_input_that_is_not_utf8(tmp_path, capsys, name, data, args, code, msg):
    path = tmp_path / name
    path.write_bytes(data)
    assert main(["validate", *args, str(path)]) == code
    assert f"{msg} {path}: 'utf-8' codec can't decode byte" in capsys.readouterr().err


@pytest.mark.parametrize("generate,msg", [
    ("ba:5:9", "barabasi_albert needs 1 <= m < n"),
    ("moebius:4", "unknown generator 'moebius'"),
    ("ring", "ring takes 1 parameter(s): ring:n"),
])
def test_config_generate_errors_exit_2(tmp_path, capsys, generate, msg):
    cfg = write_cfg(tmp_path, SI_RING_CFG.replace("generate=ring:10", f"generate={generate}"))
    out = tmp_path / "o"
    assert main(["epidemic", "--config", cfg, "--out", str(out)]) == 2
    assert msg in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("token", ["x", "1_0", "\u0661\u0660", "nan"])
def test_gen_parameter_outside_the_config_number_grammar_exits_2(tmp_path, capsys, token):
    # the grammar of generate=: `_` digit groups and non-ASCII digits, which
    # float() would read as 10, are errors that quote the token
    path = tmp_path / "r.edges"
    assert main(["gen", "ring", token, "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"gen parameter must be {'finite' if token == 'nan' else 'a number'}, got {token!r}" in err
    assert not path.exists()


def test_gen_parameter_that_underflows_exits_2(tmp_path, capsys):
    path = tmp_path / "er.edges"
    assert main(["gen", "er", "10", "1e-400", "--out", str(path)]) == 2
    assert "gen parameter underflows to 0, got '1e-400'" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("argv,net", [
    (["ring", "10"], ring(10)),
    (["er", "50", "0.1"], erdos_renyi(50, 0.1, 0)),
    (["ba", "30", "2", "--seed", "9"], barabasi_albert(30, 2, 9)),
])
def test_gen_writes_the_generator_s_graph(tmp_path, argv, net):
    path = tmp_path / "g.edges"
    assert main(["gen", *argv, "--out", str(path)]) == 0
    assert read(path) == serialize_edge_list(net)


def test_gen_without_out_writes_kind_edges_under_the_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("FAILPROP_OUT", str(tmp_path / "graphs"))
    assert main(["gen", "ring", "5"]) == 0
    assert load_edge_list(read(tmp_path / "graphs" / "ring.edges")).node_count == 5


@pytest.mark.parametrize("error,code,msg", [
    ("ConfigError", 2, "failprop: error: config 'no-such-preset': no such file"),
    ("EpidemicError", 2, "failprop: error: beta must be in [0, 1], got 1.5"),
    ("ScenarioError", 2, "failprop: error: network has no controller nodes"),
    ("MetricsError", 2, "failprop: error: grid must be strictly increasing"),
    ("GeneratorParamError", 2, "failprop: error: barabasi_albert needs 1 <= m < n"),
    ("TopologyError", 3, "failprop: error: line 1:"),
    ("FileExistsError", 4, "failprop: unexpected error: FileExistsError("),
])
def test_each_error_class_has_its_exit_code_and_message(tmp_path, capsys, error, code, msg):
    (tmp_path / "file").write_text("")
    (tmp_path / "bad.edges").write_text("0 1 extra\n")
    out = ["--out", str(tmp_path / "o")]
    configs = {
        "EpidemicError": SI_RING_CFG.replace("beta=0.7", "beta=1.5"),
        "ScenarioError": "[topology]\ngenerate=ring:5\n[scenario]\nkind=vertical\n"
                         "[capacity]\n0=10\n",
        "MetricsError": SWEEP_CFG.replace("grid=0.1,0.4,0.8", "grid=0.4,0.1"),
    }
    cfg = write_cfg(tmp_path, configs[error]) if error in configs else None
    argv = {
        "ConfigError": ["epidemic", "--config", "no-such-preset", *out],
        "EpidemicError": ["epidemic", "--config", cfg, *out],
        "ScenarioError": ["cascade", "--config", cfg, *out],
        "MetricsError": ["sweep", "--config", cfg, *out],
        "GeneratorParamError": ["gen", "ba", "5", "9", *out],
        "TopologyError": ["validate", str(tmp_path / "bad.edges")],
        "FileExistsError": ["gen", "ring", "5", "--out", str(tmp_path / "file" / "r.edges")],
    }[error]
    args = build_parser().parse_args(argv)
    with pytest.raises(Exception) as exc:  # the command raises exactly `error`
        args.func(args)
    assert type(exc.value).__name__ == error
    assert main(argv) == code
    assert msg in capsys.readouterr().err
