from pathlib import Path

import pytest

from failprop.config import (
    ConfigError,
    build_horizontal_scenario,
    build_network,
    build_vertical_scenario,
    find_config,
    load_config,
    parse_config,
    read_sections,
    read_topology,
    render_resolved,
    resolve_node,
    resolve_seeds,
)
from failprop.epidemic import EpidemicError
from failprop.topology import TopologyError

EPIDEMIC_CFG = """
[topology]
generate=ring:6

[model]
model=SIS
beta=0.3
delta1=0.2
seeds=0,3

[run]
max_ticks=50
n_runs=4
rng_seed=11
stop=fixed_ticks
"""

VERTICAL_CFG = """
[topology]
file=net.edges

[scenario]
kind=vertical

[capacity]
c1=100

[rate]
s1=10
s2=10

[attack]
s1=150
"""

VERTICAL_EDGES = """
s1 c1
s2 c1
s1 s2
[roles]
s1=edge_switch
s2=edge_switch
c1=controller
[controllers]
s1:c1
s2:c1
"""


def test_read_sections_basic():
    sections = read_sections("[run]\nmax_ticks=5 # comment\n\n[sweep]\ngrid=1\n")
    assert list(sections) == ["run", "sweep"]
    assert sections["run"] == [(2, "max_ticks=5")]


def test_read_sections_errors():
    with pytest.raises(ConfigError, match="unknown section"):
        read_sections("[plotting]\n")
    with pytest.raises(ConfigError, match="duplicate section"):
        read_sections("[run]\n[run]\n")
    with pytest.raises(ConfigError, match="before any"):
        read_sections("max_ticks=5\n")


def test_parse_defaults():
    cfg = parse_config("[topology]\ngenerate=ring:4\n")
    assert cfg.max_ticks == 100
    assert cfg.n_runs == 1
    assert cfg.rng_seed == 0
    assert cfg.stop == "absorb"
    assert cfg.epsilon == 0.05
    assert cfg.n_jobs == 1
    assert cfg.model is None and cfg.scenario_kind is None


def test_parse_epidemic_config():
    cfg = parse_config(EPIDEMIC_CFG)
    assert cfg.model.model == "SIS"
    assert cfg.model.beta == 0.3
    assert cfg.seed_tokens == ("0", "3")
    assert cfg.max_ticks == 50 and cfg.n_runs == 4 and cfg.rng_seed == 11
    assert cfg.stop == "fixed_ticks"


def test_parse_rejects_model_and_scenario_together():
    text = "[model]\nmodel=SI\nbeta=1\nseeds=0\n[scenario]\nkind=vertical\n"
    with pytest.raises(ConfigError, match="not both"):
        parse_config(text)


def test_parse_invalid_beta_names_field():
    text = "[model]\nmodel=SI\nbeta=1.5\nseeds=0\n"
    with pytest.raises(EpidemicError, match="beta"):
        parse_config(text)


def test_parse_validates_run_values():
    with pytest.raises(ConfigError, match="max_ticks"):
        parse_config("[run]\nmax_ticks=0\n")
    with pytest.raises(ConfigError, match="stop"):
        parse_config("[run]\nstop=sometimes\n")
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config("[run]\nepsilon=2\n")
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_config("[run]\nn_runs=many\n")
    with pytest.raises(ConfigError, match=r"^n_runs must be >= 1, got 0$"):
        parse_config("[run]\nn_runs=0\n")
    with pytest.raises(ConfigError, match=r"^n_jobs must be >= 1, got 0$"):
        parse_config("[run]\nn_jobs=0\n")
    # the first bad line in file order, whichever key it sets
    with pytest.raises(ConfigError, match="n_runs must be an integer, got 'x'"):
        parse_config("[run]\nn_runs=x\nmax_ticks=y\n")


# int() and float() read `_` digit groups and non-ASCII digits; a config
# number may not hold either, nor have a nonzero digit and read as 0.0
# (`1e-400`, which would run as 0), and the error quotes the token as written
@pytest.mark.parametrize("text, msg", [
    ("[run]\nmax_ticks=5_0\n", "max_ticks must be an integer, got '5_0'"),
    ("[run]\nn_runs=\u0664\n", "n_runs must be an integer, got '\u0664'"),
    ("[run]\nn_jobs=\uff12\n", "n_jobs must be an integer, got '\uff12'"),
    ("[run]\nrng_seed=1_000\n", "rng_seed must be an integer, got '1_000'"),
    ("[run]\nepsilon=0_1\n", "epsilon must be a number, got '0_1'"),
    ("[topology]\ngen_seed=\u0663\n", "gen_seed must be an integer, got '\u0663'"),
    ("[model]\nmodel=SI\nbeta=0_4\nseeds=0\n", "beta must be a number, got '0_4'"),
    ("[model]\nmodel=SIS\nbeta=0.4\ndelta1=0.\u0665\nseeds=0\n",
     "delta1 must be a number, got '0.\u0665'"),
    ("[model]\nmodel=SID\nbeta=0.4\ntau=1e-1_0\nseeds=0\n", "tau must be a number, got '1e-1_0'"),
    ("[model]\nmodel=SID\nbeta=0.4\ngamma=.2_5\nseeds=0\n", "gamma must be a number, got '.2_5'"),
    ("[sweep]\ngrid=0.1,0_2\n", "grid must be a number, got '0_2'"),
    ("[model]\nmodel=SI\nbeta=1e-400\nseeds=0\n", "beta underflows to 0, got '1e-400'"),
    ("[run]\nepsilon=1e-400\n", "epsilon underflows to 0, got '1e-400'"),
    ("[sweep]\ngrid=0,-2.5E-401\n", "grid underflows to 0, got '-2.5E-401'"),
])
def test_numbers_have_one_spelling(text, msg):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == msg


@pytest.mark.parametrize("text, msg", [
    ("[topology]\ngenerate=ring:1_0\n", "generate must be a number, got '1_0'"),
    ("[topology]\ngenerate=ba:\u0662\u0660:2\n", "generate must be a number, got '\u0662\u0660'"),
    ("[topology]\ngenerate=ring:6\n[scenario]\nkind=vertical\n[rate]\n0=1_0\n",
     "rate 0 must be a number, got '1_0'"),
    ("[topology]\ngenerate=ring:6\n[scenario]\nkind=vertical\n[attack]\n0=1_5\n",
     "attack 0 must be a number, got '1_5'"),
    ("[topology]\ngenerate=ring:6\n[scenario]\nkind=horizontal\n[demand]\n0,3,2_0\n",
     "demand volume must be a number, got '2_0'"),
    ("[topology]\ngenerate=ring:6\n[scenario]\nkind=horizontal\n[injection]\n0,3,\u0669\n",
     "injection volume must be a number, got '\u0669'"),
    ("[topology]\ngenerate=er:10:1e-400\n", "generate underflows to 0, got '1e-400'"),
    ("[topology]\ngenerate=ring:6\n[scenario]\nkind=vertical\n[rate]\n0=1\n1=.01e-399\n",
     "rate 1 underflows to 0, got '.01e-399'"),
])
def test_network_and_scenario_numbers_have_one_spelling(text, msg):
    cfg = parse_config(text)
    with pytest.raises(ConfigError) as err:
        net = build_network(cfg)
        if cfg.scenario_kind == "vertical":
            build_vertical_scenario(cfg, net)
        else:
            build_horizontal_scenario(cfg, net)
    assert str(err.value) == msg


@pytest.mark.parametrize("token,value", [
    ("0", 0.0), ("0.0", 0.0), ("-0", -0.0), ("0e5", 0.0), ("5e-324", 5e-324),
])
def test_a_zero_or_the_smallest_number_is_read(token, value):
    cfg = parse_config(f"[model]\nmodel=SI\nbeta={token}\nseeds=0\n")
    assert repr(cfg.model.beta) == repr(value)
    cfg = parse_config("[topology]\ngenerate=ring:6\n[scenario]\nkind=horizontal\n"
                       f"[capacity]\n1=2\n0={token}\n")
    capacity = build_horizontal_scenario(cfg, build_network(cfg)).node_capacity
    assert list(capacity) == [1, 0] and repr(capacity[0]) == repr(value)


@pytest.mark.parametrize("section,key", [("run", "rng_seed"), ("topology", "gen_seed")])
@pytest.mark.parametrize("value,ok", [
    ("-1", False), (str(2**64), False), ("0", True), (str(2**64 - 1), True),
])
def test_seeds_are_64_bit(section, key, value, ok):
    # outside [0, 2**64) a seed would alias another one: derive_seed masks
    # to 64 bits and random.Random seeds from abs()
    topology = "generate=ring:3\n" if section == "topology" else ""
    text = f"[{section}]\n{topology}{key}={value}\n"
    if ok:
        assert getattr(parse_config(text), key) == int(value)
    else:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == f"{key} must be in [0, 2**64), got '{value}'"


def test_parse_model_needs_model_and_beta():
    with pytest.raises(ConfigError, match=r"^\[model\] needs model=$"):
        parse_config("[model]\nbeta=0.1\nseeds=0\n")
    with pytest.raises(ConfigError, match=r"^\[model\] needs beta=$"):
        parse_config("[model]\nmodel=SI\nseeds=0\n")


def test_parse_scenario_section_constraints():
    with pytest.raises(ConfigError, match="kind"):
        parse_config("[scenario]\nkind=diagonal\n")
    with pytest.raises(ConfigError, match="misroute"):
        parse_config("[scenario]\nkind=vertical\nmisroute=true\n")
    with pytest.raises(ConfigError, match=r"^misroute must be true or false, got 'maybe'$"):
        parse_config("[scenario]\nkind=horizontal\nmisroute=maybe\n")
    with pytest.raises(ConfigError, match="requires a \\[scenario\\]"):
        parse_config("[capacity]\n0=5\n")
    with pytest.raises(ConfigError, match="does not belong"):
        parse_config("[scenario]\nkind=vertical\n[injection]\n0,1,5\n")
    with pytest.raises(ConfigError, match="does not belong"):
        parse_config("[scenario]\nkind=horizontal\n[rate]\n0=5\n")


def test_parse_attack_and_injection_shape():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config("[scenario]\nkind=vertical\n[attack]\n0=5\n1=5\n")
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config("[scenario]\nkind=horizontal\n[injection]\n0,1,5\n2,3,5\n")
    with pytest.raises(ConfigError, match="entry,exit,volume"):
        parse_config("[scenario]\nkind=horizontal\n[injection]\n0,1\n")
    with pytest.raises(ConfigError, match="src,dst,volume"):
        parse_config("[scenario]\nkind=horizontal\n[demand]\n0,1,2,3\n")


def test_parse_sweep_grid():
    cfg = parse_config("[sweep]\ngrid=0.1, 0.3 ,0.5\n")
    assert cfg.grid == (0.1, 0.3, 0.5)
    with pytest.raises(ConfigError, match="nonempty grid"):
        parse_config("[sweep]\ngrid=\n")
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config("[sweep]\ngrid=a,b\n")


def test_parse_output_section():
    cfg = parse_config("[output]\ndir=results\n")
    assert cfg.out_dir == "results"
    with pytest.raises(ConfigError, match="formats"):
        parse_config("[output]\nformats=parquet\n")


def test_find_config_prefers_real_files(tmp_path):
    mine = tmp_path / "fig3-sid.cfg"
    mine.write_text("[topology]\ngenerate=ring:3\n")
    assert find_config(str(mine)) == mine
    # preset names resolve with or without the extension
    assert find_config("fig3-sid").name == "fig3-sid.cfg"
    assert find_config("fig5a-vertical.cfg").name == "fig5a-vertical.cfg"
    with pytest.raises(ConfigError, match="no preset"):
        find_config("fig9-imaginary")


def test_shipped_presets_parse():
    for name in ("fig3-sid", "fig5a-vertical", "fig5b-horizontal"):
        cfg = load_config(name)
        net = build_network(cfg)
        assert net.node_count > 0


def test_build_network_from_generate():
    cfg = parse_config("[topology]\ngenerate=er:12:0.5\ngen_seed=3\n")
    net = build_network(cfg)
    assert net.node_count == 12
    # same generate string and seed, same graph
    assert build_network(cfg).edges == net.edges


def test_build_network_errors():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config("[topology]\nfile=x\ngenerate=ring:3\n")
    with pytest.raises(ConfigError, match="no \\[topology\\]"):
        build_network(parse_config("[run]\nmax_ticks=5\n"))
    cfg = parse_config("[topology]\nfile=missing.edges\n", base_dir="/nonexistent")
    with pytest.raises(TopologyError, match="cannot read"):
        build_network(cfg)
    with pytest.raises(TopologyError, match="unknown generator"):
        build_network(parse_config("[topology]\ngenerate=moebius:4\n"))
    with pytest.raises(ConfigError, match="generate"):
        build_network(parse_config("[topology]\ngenerate=ring:wide\n"))


def test_topology_file_relative_to_config(tmp_path):
    (tmp_path / "g.edges").write_text("0 1\n1 2\n")
    cfg = parse_config("[topology]\nfile=g.edges\n", base_dir=tmp_path)
    assert build_network(cfg).node_count == 3


def test_resolve_node_and_seeds(tmp_path):
    (tmp_path / "net.edges").write_text(VERTICAL_EDGES)
    cfg = parse_config("[topology]\nfile=net.edges\n[model]\nmodel=SI\nbeta=1\nseeds=s2,0\n",
                       base_dir=tmp_path)
    net = build_network(cfg)
    # first-appearance alias order in the file: s1, c1, s2
    assert resolve_node(net, "s1", "x") == 0
    assert resolve_node(net, "2", "x") == 2
    assert resolve_seeds(cfg, net) == (2, 0)
    with pytest.raises(ConfigError, match="unknown node"):
        resolve_node(net, "s9", "x")
    with pytest.raises(ConfigError, match="out of range"):
        resolve_node(net, "77", "x")


def test_resolve_node_rejects_an_integer_spelled_alias_of_another_node(tmp_path):
    (tmp_path / "net.edges").write_text("a 5\n5 b\n0 b\n")
    cfg = parse_config("[topology]\nfile=net.edges\n[model]\nmodel=SI\nbeta=1\nseeds=a\n",
                       base_dir=tmp_path)
    net = build_network(cfg)  # aliases a=0, 5=1, b=2, 0=3
    with pytest.raises(ConfigError, match=r"x: '5' is ambiguous: alias '5' \(node 1\) "
                                          r"or node id 5"):
        resolve_node(net, "5", "x")
    with pytest.raises(ConfigError, match=r"'0' is ambiguous: alias '0' \(node 3\) or node id 0"):
        resolve_node(net, " 0 ", "x")
    assert resolve_node(net, "1", "x") == 1  # no alias spells 1: the id
    assert resolve_node(net, "00", "x") == 0
    # the resolved config writes node 0 as 00, which reads back as node 0
    once = render_resolved(cfg, (0, 1), aliases=net.aliases)
    assert "seeds=00,1\n" in once
    cfg2 = parse_config(once, base_dir=tmp_path)
    assert resolve_seeds(cfg2, build_network(cfg2)) == (0, 1)


def test_build_vertical_scenario_with_aliases(tmp_path):
    (tmp_path / "net.edges").write_text(VERTICAL_EDGES)
    cfg = parse_config(VERTICAL_CFG, base_dir=tmp_path)
    net = build_network(cfg)
    sc = build_vertical_scenario(cfg, net)
    assert sc.controller_capacity == {1: 100.0}
    assert sc.base_rate == {0: 10.0, 2: 10.0}
    assert sc.attack == (0, 150.0)


def test_build_horizontal_scenario():
    text = """
[topology]
generate=ring:6

[scenario]
kind=horizontal
misroute=true

[capacity]
1=5

[demand]
0,3,2
1,4,1.5

[injection]
0,3,9
"""
    cfg = parse_config(text)
    net = build_network(cfg)
    sc = build_horizontal_scenario(cfg, net)
    assert sc.node_capacity == {1: 5.0}
    assert sc.demands == ((0, 3, 2.0), (1, 4, 1.5))
    assert sc.injection == (0, 3, 9.0)
    assert sc.misroute


def test_render_resolved_is_a_fixed_point(tmp_path):
    (tmp_path / "net.edges").write_text(VERTICAL_EDGES)
    cfg = parse_config(VERTICAL_CFG, base_dir=tmp_path)
    net = build_network(cfg)
    once = render_resolved(cfg, scenario=build_vertical_scenario(cfg, net))
    cfg2 = parse_config(once, base_dir=tmp_path)
    net2 = build_network(cfg2)
    assert net2.edges == net.edges
    assert render_resolved(cfg2, scenario=build_vertical_scenario(cfg2, net2)) == once
    # aliases are resolved away and the seed is explicit
    assert "s1" not in once.replace("net.edges", "")
    assert "rng_seed=0" in once


def test_render_resolved_epidemic_round_trip():
    cfg = parse_config(EPIDEMIC_CFG)
    net = build_network(cfg)
    once = render_resolved(cfg, resolve_seeds(cfg, net))
    assert "rng_seed=11" in once
    assert "seeds=0,3" in once
    cfg2 = parse_config(once)
    assert cfg2.model == cfg.model
    assert cfg2.max_ticks == cfg.max_ticks
    assert render_resolved(cfg2, resolve_seeds(cfg2, build_network(cfg2))) == once


@pytest.mark.parametrize("header", ["[]", "[ ]"])
def test_read_sections_rejects_an_empty_header(header):
    with pytest.raises(ConfigError, match=r"line 3: unknown section \[\]"):
        read_sections(f"[run]\nmax_ticks=5\n{header}\nn_runs=2\n")


def test_read_sections_keeps_line_numbers_across_comments_and_blanks():
    sections = read_sections("# head\n\n[RUN]\n  # note\nmax_ticks=5\n\n[sweep]\n")
    assert sections == {"run": [(5, "max_ticks=5")], "sweep": []}
    with pytest.raises(ConfigError, match=r"line 3: 'seeds=1' appears before any"):
        read_sections("# head\n\nseeds=1\n[run]\n")
    with pytest.raises(ConfigError, match=r"line 4: duplicate section \[run\]"):
        read_sections("[run]\n[sweep]\n\n[ Run ]\n")


@pytest.mark.parametrize("text,msg", [
    ("[run]\nmax_ticks 5\n", r"line 2: expected key=value in \[run\], got 'max_ticks 5'"),
    ("[run]\n\nbogus=1\n", r"line 3: unknown key 'bogus' in \[run\]"),
    ("[run]\nn_runs=1\nn_runs=2\n", r"line 3: duplicate key 'n_runs' in \[run\]"),
])
def test_key_value_errors_name_their_line(text, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config(text)


@pytest.mark.parametrize("body", ["", "grid=,\n", "grid= , \n"])
def test_sweep_needs_a_nonempty_grid(body):
    with pytest.raises(ConfigError, match=r"\[sweep\] needs a nonempty grid= list"):
        parse_config(f"[sweep]\n{body}")


@pytest.mark.parametrize("text,msg", [
    ("[model]\nmodel=SI\nbeta=1\nseeds=0,,3\n", "seeds has an empty item, got '0,,3'"),
    ("[model]\nmodel=SI\nbeta=1\nseeds=0,\n", "seeds has an empty item, got '0,'"),
    ("[model]\nmodel=SI\nbeta=1\nseeds=\n", r"\[model\] needs a nonempty seeds= list"),
    ("[model]\nmodel=SI\nbeta=1\nseeds=,\n", r"\[model\] needs a nonempty seeds= list"),
    ("[sweep]\ngrid=0.1,,0.2\n", "grid has an empty item, got '0.1,,0.2'"),
    ("[sweep]\ngrid=,0.1\n", "grid has an empty item, got ',0.1'"),
])
def test_an_empty_list_item_is_an_error(text, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config(text)


@pytest.mark.parametrize("generate", ["ring::10", "ring:10:", "grid:3::3"])
def test_an_empty_generator_parameter_is_an_error(generate):
    cfg = parse_config(f"[topology]\ngenerate={generate}\n")
    with pytest.raises(ConfigError, match="generate parameters has an empty item"):
        build_network(cfg)


def test_output_takes_no_formats_key():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'formats' in \[output\]"):
        parse_config("[output]\nformats=csv\n")


def test_scenario_section_checks_keep_their_order():
    with pytest.raises(ConfigError, match=r"\[rate\] requires a \[scenario\]"):
        parse_config("[capacity]\n0=1\n[rate]\n0=1\n")
    with pytest.raises(ConfigError, match=r"\[demand\] does not belong in a vertical"):
        parse_config("[scenario]\nkind=vertical\n[injection]\n0,1,1\n[demand]\n0,1,1\n")
    with pytest.raises(ConfigError, match=r"\[attack\] does not belong in a horizontal"):
        parse_config("[scenario]\nkind=horizontal\n[capacity]\n0=1\n[attack]\n0=1\n")


def test_read_topology_names_an_unreadable_file(tmp_path):
    path = tmp_path / "missing.edges"
    with pytest.raises(TopologyError, match=f"cannot read topology file {path}"):
        read_topology(path)
    path.write_text("0 1\n")
    assert read_topology(str(path)).edge_count() == 1


@pytest.mark.parametrize("lines, msg", [
    (("2=5", "1=x"), "capacity 1 must be a number, got 'x'"),
    (("2=5", "6=1"), "capacity: node id 6 out of range"),
    (("2=5", "-1=1"), "capacity: node id -1 out of range"),
    (("2=5", "1=inf"), "capacity 1 must be finite, got 'inf'"),
    (("2=5", "1=nan"), "capacity 1 must be finite, got 'nan'"),
    (("2=5", "a=1"), "capacity: unknown node 'a'"),
    (("2=5", "02=1"), "capacity: '2' and '02' name the same node 2"),
    (("1=nan", "9=1"), "capacity 1 must be finite, got 'nan'"),
    (("9=1", "1=nan"), "capacity: node id 9 out of range"),
    (("1=x", "a=1"), "capacity 1 must be a number, got 'x'"),
    (("2=5", "1=1_0"), "capacity 1 must be a number, got '1_0'"),
    (("2=\u0665", "1=x"), "capacity 2 must be a number, got '\u0665'"),
    (("2=5", "1=\uff11"), "capacity 1 must be a number, got '\uff11'"),
])
def test_integer_node_values_report_the_first_bad_line(lines, msg):
    text = ("[topology]\ngenerate=ring:6\n\n[scenario]\nkind=horizontal\n\n[capacity]\n"
            + "\n".join(lines) + "\n")
    cfg = parse_config(text)
    with pytest.raises(ConfigError) as err:
        build_horizontal_scenario(cfg, build_network(cfg))
    assert str(err.value) == msg


def test_integer_node_values_read_every_spelling():
    text = ("[topology]\ngenerate=ring:6\n\n[scenario]\nkind=horizontal\n\n"
            "[capacity]\n5=1e3\n0=2\n03=.5\n")
    cfg = parse_config(text)
    capacity = build_horizontal_scenario(cfg, build_network(cfg)).node_capacity
    assert capacity == {5: 1000.0, 0: 2.0, 3: 0.5}
