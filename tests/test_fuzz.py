"""Mutated inputs through `cli.main`.

Hypothesis takes a valid epidemic, sweep, vertical or horizontal cascade
config, or a valid edge list, and mutates it: it drops, repeats or swaps
lines, flips the sign or exponent of a number, respells it (`+3`, `03`),
and puts in `_`, non-ASCII digits, huge integers and `nan`. Whatever comes out, `main` returns 0, 2 or
3, never 4, and raises nothing. When it returns 0, every number and node id
of the input is one that the strict reader below reads (ASCII digits, an
optional sign, and for a real number a fraction and an exponent), and the
run took the value that reader gives it: the resolved config reads back to
the same values, and `validate` counts the nodes and edges it counts.

Each run is small: at most 12 nodes, 5 ticks and 2 replicas, and n_jobs=1.
The mutations never grow a generator parameter, a node count, `max_ticks`,
`n_runs` or `n_jobs`, and never drop the `max_ticks` line.
"""

from __future__ import annotations

import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from failprop.cli import main

CTL_EDGES = ("0 1\n1 2\n2 3\n0 4\n1 4\n2 5\n3 5\n[roles]\n0=edge_switch\n1=core_switch\n"
             "2=core_switch\n3=edge_switch\n4=controller\n5=controller\n[controllers]\n"
             "0:4,5\n1:4,5\n2:5,4\n3:5\n")
NAMES_EDGES = "a b\nb c\nc d\nd a\nb e\n"
# the topology files the configs name; they are not mutated
TOPOLOGY_FILES = {"ctl.edges": CTL_EDGES, "names.edges": NAMES_EDGES}

# input name -> (command, valid text)
INPUTS = {
    "epidemic.cfg": ("epidemic", "[topology]\ngenerate=ring:12\ngen_seed=3\n\n[model]\n"
                                 "model=SID\nbeta=0.3\ndelta1=0.2\ntau=0.1\ngamma=0.05\n"
                                 "seeds=1,10\n\n[run]\nmax_ticks=5\nn_runs=2\nrng_seed=7\n"
                                 "stop=fixed_ticks\nn_jobs=1\n"),
    "sweep.cfg": ("sweep", "[topology]\nfile=names.edges\n\n[model]\nmodel=SIR\nbeta=0.2\n"
                           "delta1=0.3\nseeds=a,2\n\n[run]\nmax_ticks=5\nn_runs=2\n"
                           "epsilon=0.25\nn_jobs=1\n\n[sweep]\ngrid=0.1,0.5\n"),
    "vertical.cfg": ("cascade", "[topology]\nfile=ctl.edges\n\n[scenario]\nkind=vertical\n\n"
                                "[capacity]\n4=30\n5=2.5e1\n\n[rate]\n0=8\n1=8\n2=8\n3=8\n\n"
                                "[attack]\n0=20\n"),
    "horizontal.cfg": ("cascade", "[topology]\ngenerate=grid:3:3\n\n[scenario]\n"
                                  "kind=horizontal\nmisroute=true\n\n[capacity]\n4=1.5\n\n"
                                  "[demand]\n0,8,1\n2,6,0.5\n\n[injection]\n1,7,2\n"),
    "ctl-count.edges": ("validate", CTL_EDGES + "[nodes]\ncount=7\n"),
    "names.edges": ("validate", NAMES_EDGES),
}

NUMBER = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
INTEGER = re.compile(r"[+-]?[0-9]+")
# lines whose numbers may not grow, so that every run stays small
BOUNDED = ("max_ticks", "n_runs", "n_jobs", "generate", "count")


def strict_int(token: str) -> int | None:
    return int(token) if INTEGER.fullmatch(token) else None


def strict_float(token: str) -> float | None:
    return float(token) if NUMBER.fullmatch(token) else None


def key_of(line: str) -> str:
    return line.partition("=")[0].strip()


# --- mutations ----------------------------------------------------------------

def flip_sign(draw, t):
    return t[1:] if t[0] in "+-" else "-" + t


def flip_exponent(draw, t):
    mantissa, e, exponent = t.lower().partition("e")
    if e:
        return mantissa + "e" + (exponent[1:] if exponent[0] in "+-" else "-" + exponent)
    return t + draw(st.sampled_from(["e5", "e-400", "e400", "e0"]))


def underscore(draw, t):
    cuts = [i for i in range(1, len(t)) if t[i - 1].isdigit() and t[i].isdigit()]
    if cuts and draw(st.booleans()):
        i = draw(st.sampled_from(cuts))
        return t[:i] + "_" + t[i:]
    return "0_" + t if t[0].isdigit() else t + "_0"  # `0_3` is 3 to int()


def foreign_digit(draw, t):
    i = draw(st.sampled_from([i for i, c in enumerate(t) if c.isdigit()]))
    zero = draw(st.sampled_from([0x660, 0x966, 0xFF10]))  # Arabic-Indic, Devanagari, fullwidth
    return t[:i] + chr(zero + int(t[i])) + t[i + 1:]


def respell(draw, t):
    sign = t[0] if t[0] in "+-" else ""
    return draw(st.sampled_from([sign or "+", sign + "0"])) + t[len(sign):]  # `+3`, `03`


def huge(draw, t):
    return draw(st.sampled_from(["9" * 40, str(2**64), str(10**30)]))


def not_a_number(draw, t):
    return draw(st.sampled_from(["nan", "NaN", "inf", "-inf"]))


# mutation -> whether it may change a BOUNDED line
TOKEN_MUTATIONS = {flip_sign: True, flip_exponent: False, underscore: True, foreign_digit: True,
                   respell: True, huge: False, not_a_number: True}


def mutate_token(draw, lines):
    mutation = draw(st.sampled_from(list(TOKEN_MUTATIONS)))
    spots = [(i, m) for i, line in enumerate(lines) for m in NUMBER.finditer(line)
             if TOKEN_MUTATIONS[mutation] or key_of(line) not in BOUNDED]
    if not spots:
        return lines
    i, m = draw(st.sampled_from(spots))
    line = lines[i]
    return [*lines[:i], line[:m.start()] + mutation(draw, m.group()) + line[m.end():],
            *lines[i + 1:]]


def drop_line(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    return lines if key_of(lines[i]) == "max_ticks" else lines[:i] + lines[i + 1:]


def repeat_line(draw, lines):
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines)))
    return [*lines[:j], lines[i], *lines[j:]]


def swap_lines(draw, lines):
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    lines = list(lines)
    lines[i], lines[j] = lines[j], lines[i]
    return lines


@st.composite
def mutated_inputs(draw):
    """(input name, mutated text)."""
    name = draw(st.sampled_from(sorted(INPUTS)))
    lines = INPUTS[name][1].splitlines()
    for _ in range(draw(st.integers(1, 3))):
        mutation = draw(st.sampled_from([mutate_token, mutate_token, mutate_token,
                                         drop_line, repeat_line, swap_lines]))
        lines = mutation(draw, lines)
    return name, "\n".join(lines) + "\n"


# --- the strict reader --------------------------------------------------------

def sections(text: str):
    """(section, line) of each nonblank line outside a header."""
    section = ""
    for raw in text.splitlines():
        line = raw.partition("#")[0].strip()
        if line[:1] == "[" and line[-1:] == "]":
            section = line[1:-1].strip().lower()
        elif line:
            yield section, line


def strict_edge_list(text: str):
    """(node count, edge count, alias table or None) of an accepted edge
    list: ids if every node token is an integer, else names numbered in
    order of first appearance (edge ends, [roles], then each switch and its
    controllers)."""
    ends, tokens, count = [], [], None
    for section, line in sections(text):
        if section == "":
            ends += line.split()
        elif section == "roles":
            tokens.append(key_of(line))
        elif section == "controllers":
            switch, _, controllers = line.partition(":")
            tokens += [switch.strip(), *filter(None, map(str.strip, controllers.split(",")))]
        elif section == "nodes":
            count = strict_int(line.partition("=")[2].strip())
            assert count is not None, f"accepted node count {line!r}"
    tokens = ends + tokens
    if all(strict_int(t) is not None for t in tokens):
        return (max(map(int, tokens)) + 1 if count is None else count), len(ends) // 2, None
    aliases = {t: v for v, t in enumerate(dict.fromkeys(tokens))}
    return (len(aliases) if count is None else count), len(ends) // 2, aliases


def strict_config(text: str, aliases) -> dict:
    """{(section, key): value} of every number and node reference of an
    accepted config; a data section is one item. A token outside the
    strict grammar fails the test."""

    def node(t):
        v = strict_int(t)
        if v is None:
            assert aliases and t in aliases, f"accepted node {t!r}"
            return aliases[t]
        return v

    def number(t, read=strict_float):
        v = read(t)
        assert v is not None, f"accepted number {t!r}"
        return v

    out: dict = {}
    for section, line in sections(text):
        if section in ("demand", "injection"):
            a, b, volume = map(str.strip, line.split(","))
            out.setdefault((section,), []).append((node(a), node(b), number(volume)))
            continue
        key, value = key_of(line), line.partition("=")[2].strip()
        if section in ("capacity", "rate", "attack"):
            out.setdefault((section,), {})[node(key)] = number(value)
        elif key in ("max_ticks", "n_runs", "n_jobs", "rng_seed", "gen_seed"):
            out[section, key] = number(value, strict_int)
        elif key in ("beta", "delta1", "tau", "gamma", "epsilon"):
            out[section, key] = number(value)
        elif key in ("seeds", "grid"):
            read = node if key == "seeds" else number
            out[section, key] = [read(t.strip()) for t in value.split(",")]
        elif key == "generate":
            out[section, key] = [number(t.strip()) for t in value.split(":")[1:]]
    return out


@settings(deadline=None, max_examples=200)
@given(mutated_inputs())
@example(("epidemic.cfg", INPUTS["epidemic.cfg"][1].replace("seeds=1,10", "seeds=1,1_0")))
def test_mutated_inputs_exit_cleanly_and_read_numbers_strictly(case):
    name, text = case
    command = INPUTS[name][0]
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        for file, body in TOPOLOGY_FILES.items():
            (d / file).write_text(body)
        path = d / ("input.edges" if command == "validate" else name)
        path.write_text(text)
        argv = (["validate", str(path)] if command == "validate"
                else [command, "--config", str(path), "--out", str(d / "out")])
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), err.getvalue()
        if code:
            return
        if command == "validate":
            nodes, edges, _ = strict_edge_list(text)
            assert f"validate: {nodes} nodes, {edges} edges, " in err.getvalue()
            return
        resolved = (d / "out" / "resolved-config.txt").read_text()
    aliases = strict_edge_list(NAMES_EDGES)[2] if "names.edges" in text else None
    read = strict_config(text, aliases)
    again = strict_config(resolved, aliases)
    read.pop(("run", "n_jobs"), None)  # not part of the experiment, so not written back
    assert {key: again.get(key) for key in read} == read
