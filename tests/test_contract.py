"""The CLI's output contract: every call that parses ends in exit 0, 1, 2
or 3 with exactly one JSON line on stdout and no traceback, and one place in
``cli.py`` writes that line.  Every point a call emits with exit 0 is
checked again with the independent Q(i) arithmetic of
``perfbench/outputs.py``."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import sys
import tempfile
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from quinticpoints import cli, elliptic
from quinticpoints.exact import format_rational

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import outputs  # noqa: E402

# (subcommand, option) -> the caps of the option; each cap + 1 is drawn.  A
# table search's caps are the largest --tmax, --bound and --dmax that its
# work bound, dmax * (tmax^2 + bound + 300) <= MAX_SEARCH_WORK, accepts when
# the other two are 1.
_CAPS = {
    ("construct", "--k"): (cli.MAX_MIXED_K,),
    ("construct", "--bound"): (cli.MAX_WITNESS_BOUND,),
    ("solve-form", "--bound"): (cli.MAX_WITNESS_BOUND,),
    ("table", "--tmax"): (math.isqrt(cli.MAX_SEARCH_WORK - 1 - 300),),
    ("table", "--bound"): (cli.MAX_SEARCH_WORK - 1 - 300,),
    ("table", "--dmax"): (len(elliptic.load_table()), cli.MAX_SEARCH_WORK // (1 + 1 + 300)),
    ("question3", "--N"): (cli.MAX_QUESTION3_N,),
}
# options every call of its subcommand passes, as their defaults do more
# work than a drawn call should: a table of 100 rows, a witness box of 60
# and a read of stdin
_ALWAYS = {
    ("table", "--dmax"), ("table", "--tmax"), ("solve-form", "--bound"),
    ("construct", "--bound"), ("scale-integers", "--points"),
}
_GAUSSIAN_POINT = {
    "p": {"re": "1/2", "im": "0"}, "q": "1/3", "r": "1/3", "s": {"re": "1/2", "im": "0"}
}
# the values of a text option; {dir} is a fresh directory of each call
_TEXTS = {
    "--only": ["", "norm-lift", "thm1-spotchecks", "mixed", "zzz"],
    # "[" * 100000 nests past the JSON decoder's recursion limit
    "--coeffs": ['{"c1": 29}', "{}", "[1]", "x", '{"a1": 1.5}', '{"zz": 1}', "[" * 100000],
    "--seed-point": ["3,8", "1", "0,1", "-1,2", "x,y"],
    "--points": [
        "[]", "{}", "x", "[1]",
        json.dumps([{"p": "-2/5", "q": "1/5", "r": "3/5", "s": "-4/5"}]),
        json.dumps([{"p": "1", "q": "0", "r": "1", "s": "0", "field": "R"}]),
        json.dumps([_GAUSSIAN_POINT]),
        "[" * 100000,
    ],
    # a writable ledger three times in five: a bad one ends the call at once
    "--store": ["{dir}/ledger.jsonl"] * 3 + ["{dir}/missing/ledger.jsonl", "{dir}"],
    "--out": ["{dir}/table.csv", "{dir}/missing/table.csv", "{dir}"],
}
# "1e100000" is a value of 100001 digits in 8 characters; "1" * 5000 passes
# Python's 4300-digit limit on str to int
_RATIONAL_TEXTS = ["-1", "0", "1", "2", "1/2", "-1/2", "2,1", "x", "1e100000", "1" * 5000]


def _values(command: str, name: str, spec):
    """The words drawn for the argument ``name`` of ``command``: its choices,
    or -1, 0, 1, 2 and each cap + 1 for an integer, or a few good and bad
    texts."""
    kind, _, choices, _ = spec
    if choices is not None:
        return st.sampled_from([str(c) for c in choices])
    if kind is int:
        caps = [cap + 1 for cap in _CAPS.get((command, name), ())]
        return st.sampled_from([-1, 0, 1, 2] + caps).map(str)
    return st.sampled_from(_TEXTS.get(name, _RATIONAL_TEXTS))


@st.composite
def _calls(draw):
    """An argv of one subcommand of ``cli.COMMANDS``: its positionals, then
    some of its options in the --opt=value form."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, positionals, options = cli.COMMANDS[command]
    argv = [command] + [draw(_values(command, name, spec)) for name, spec in positionals.items()]
    for name, spec in {"--store": (str, None, None, None), **options}.items():
        if (command, name) in _ALWAYS or draw(st.integers(0, 2)) == 0:
            argv.append(f"{name}={draw(_values(command, name, spec))}")
    return argv


# (D, t) of each shipped row: E_t of D = c - f carries the row's point
_ROWS = [(d, format_rational(t)) for d, t, _ in elliptic.load_table()]
_SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(str)


# The argvs below can end in exit 0 on a family whose points ``_calls``
# seldom reaches.  A mixed call takes a shipped row's (c, t) with f = 0 and
# a nonzero k; a symmetric call a preset, and a rational one the c29 seed
# 3,8 of t = 1; scale-integers rational points (x, y, y, x), which lie on
# every V_f.
@st.composite
def _mixed_calls(draw):
    d, t = draw(st.sampled_from(_ROWS))
    k = draw(st.sampled_from([-2, -1, 1, 2, 3]))
    return ["construct", "mixed", f"--c={d}", "--f=0", f"--t={t}", f"--k={k}"]


@st.composite
def _symmetric_calls(draw):
    preset = draw(st.sampled_from(cli.COMMANDS["construct"][3]["--preset"][2]))
    if draw(st.booleans()):
        u = f"{draw(_SMALL_RATIONALS)},{draw(_SMALL_RATIONALS)}"
        return ["construct", "symmetric", "--variant=gaussian", f"--preset={preset}",
                f"--t={draw(_SMALL_RATIONALS)}", f"--u={u}"]
    return ["construct", "symmetric", "--variant=rational", f"--preset={preset}", "--t=1",
            "--seed-point=3,8", f"--w={draw(_SMALL_RATIONALS)}"]


@st.composite
def _scale_calls(draw):
    points = draw(st.lists(st.tuples(_SMALL_RATIONALS, _SMALL_RATIONALS), min_size=1, max_size=3))
    a, b, c = (draw(st.integers(-3, 3)) for _ in "abc")
    return ["scale-integers", f"--a={a}", f"--b={b}", f"--c={c}",
            "--points=" + json.dumps([{"p": x, "q": y, "r": y, "s": x} for x, y in points])]


# the property's four kinds of draw, picked by an index: st.one_of drew the
# mixed calls in under 5 % of examples
_DRAWS = (_calls, _mixed_calls, _symmetric_calls, _scale_calls)


# the subcommands whose exit-0 points are checked again, and the one op
# outputs.check reads
_RECHECKED = ("construct", "question3", "scale-integers")
_Op = namedtuple("_Op", "argv exit_code error")


def _symmetric_check(coeffs: dict, payload: dict) -> str:
    """outputs.py's symmetric check for the coefficients of --coeffs: f(x, y)
    = sum a_i (x^i + y^i) + xy sum b_i (x^i + y^i) + x^2 y^2 (c0 (x + y) + c1)
    in its Q(i) arithmetic, each coefficient 0 unless given."""
    k = {name: coeffs.get(name, 0) for name in "a1 a2 a3 a4 a5 b1 b2 b3 c0 c1".split()}

    def f(x, y):
        total = sum((k[f"a{i}"] * (x**i + y**i) for i in range(1, 6)), outputs.QI(0))
        total = sum((k[f"b{i}"] * x * y * (x**i + y**i) for i in range(1, 4)), total)
        return total + x * x * y * y * (k["c0"] * (x + y) + k["c1"])

    def scalar(value):
        if isinstance(value, dict):
            return outputs.QI(Fraction(value["re"]), Fraction(value["im"]))
        return outputs.QI(Fraction(value))

    p, q, r, s = (scalar(payload["point"][name]) for name in "pqrs")
    if not (f(p, q) - f(r, s)).is_zero():
        return "symmetric point is not on f(p,q)=f(r,s)"
    if payload["residual"] != "0" or not payload["nontrivial"] or {p, q} == {r, s}:
        return "symmetric certificate"
    return ""


def _recheck(argv, line: str) -> str:
    """outputs.py's verdict on the exit-0 stdout ``line`` of ``argv``: '' when
    it is right.  Its checks read only --name=value words, so every default
    of ``cli.COMMANDS`` is written out first, and a drawn word overrides it."""
    command = argv[0]
    _, _, positionals, options = cli.COMMANDS[command]
    head = 1 + len(positionals)
    defaults = [f"{name}={spec[1]}" for name, spec in options.items() if spec[1] is not None]
    argv = argv[:head] + defaults + argv[head:]
    flags = dict(word[2:].split("=", 1) for word in argv if word.startswith("--") and "=" in word)
    if command == "construct" and argv[1] == "symmetric" and "preset" not in flags:
        return _symmetric_check(json.loads(flags["coeffs"]), json.loads(line))
    return outputs.check(_Op(argv, cli.EXIT_OK, None), cli.EXIT_OK, line)


@settings(
    max_examples=500, deadline=3000, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=st.integers(0, 3).flatmap(lambda i: _DRAWS[i]()))
@example(argv=["construct", "symmetric", "--variant=gaussian", "--coeffs=" + "[" * 100000])
@example(argv=["construct", "thm1", "--a=1", "--b=1", "--c=1", "--v=1", "--u=1e100000"])
def test_every_call_ends_in_one_json_line_and_a_known_exit(monkeypatch, argv):
    monkeypatch.delenv("QUINTICPOINTS_STORE", raising=False)
    with tempfile.TemporaryDirectory() as directory:
        argv = [word.replace("{dir}", directory) for word in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # an exception here is the traceback a call must not end in
        assert code in (cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_INVALID, cli.EXIT_EXHAUSTED)
        (line,) = out.getvalue().splitlines()
        payload = json.loads(line)
        assert isinstance(payload, dict)
        if code in (cli.EXIT_OK, cli.EXIT_INVALID):
            assert ("error" in payload) == (code == cli.EXIT_INVALID)
        if code == cli.EXIT_OK and argv[0] in _RECHECKED:
            event(f"{' '.join(argv[:2] if argv[0] == 'construct' else argv[:1])} rechecked")
            assert _recheck(argv, line) == ""
        assert err.getvalue().endswith("\n") and "Traceback" not in err.getvalue()
        ledger = Path(directory, "ledger.jsonl")
        if f"--store={ledger}" in argv:
            (record,) = [json.loads(text) for text in ledger.read_text().splitlines()]
            assert record["outputs"] == payload


def test_every_cap_of_the_cli_is_drawn_at_its_boundary():
    """Each MAX_* constant of cli.py is read in ``_CAPS``, so the property
    draws the first value past it."""
    caps = {name for name in vars(cli) if name.startswith("MAX_")}
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    (table,) = [node for node in tree.body if isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "_CAPS"]
    drawn = {node.attr for node in ast.walk(table)
             if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "cli"}
    assert caps == drawn


def _writes(tree):
    """(innermost enclosing function, stream) of every print, every
    sys.stdout.write or sys.stderr.write call and every argparse writer in
    ``tree``; a print goes to "stderr" only when it passes file=sys.stderr,
    a parser's print_help() to stdout and its error() to stderr."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            if isinstance(child, ast.Call):
                target = ast.unparse(child.func)
                if target == "print":
                    to_stderr = any(
                        k.arg == "file" and ast.unparse(k.value) == "sys.stderr"
                        for k in child.keywords
                    )
                    found.append((function, "stderr" if to_stderr else "stdout"))
                elif target in ("sys.stdout.write", "sys.stderr.write"):
                    found.append((function, target.split(".")[1]))
                elif target.endswith(".print_help"):
                    found.append((function, "stdout"))
                elif target.endswith(".error"):
                    found.append((function, "stderr"))
            visit(child, inner)

    visit(tree, None)
    return found


def test_one_function_writes_each_outcome():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    writes = _writes(tree)
    # the outcome's one JSON line and the --help text
    assert sorted(f for f, stream in writes if stream == "stdout") == ["_read_help", "_run"]
    # the outcome's note and a usage error
    assert sorted(f for f, stream in writes if stream == "stderr") == ["_run", "_usage_error"]
    assert all(entry[1].func is cli._run for entry in cli.COMMANDS.values())


def test_one_table_maps_exceptions_to_exits():
    """An exception's class decides a call's exit in ``_TYPED_EXITS`` alone:
    ``_run`` is the one function that catches what a command body raises;
    ``_value`` turns an unreadable word into a usage error and ``main``
    catches a broken pipe."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    catching = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and any(isinstance(node, ast.ExceptHandler) for node in ast.walk(function))
    }
    assert catching == {"_run", "_value", "main"}
    (handler,) = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
                  and ast.unparse(node.type) == "Exception"]
    assert "_TYPED_EXITS" in {node.id for node in ast.walk(handler) if isinstance(node, ast.Name)}
    # no other module of the package names an exit code or ends the process
    for path in Path(cli.__file__).parent.glob("*.py"):
        if path.name != "cli.py":
            text = path.read_text(encoding="utf-8")
            assert not any(word in text for word in ("EXIT_", "SystemExit", "sys.exit")), path.name


def _move_p(payload):
    """``payload`` with every coordinate p in it moved to 7/3."""
    if isinstance(payload, dict):
        return {k: "7/3" if k == "p" else _move_p(v) for k, v in payload.items()}
    if isinstance(payload, list):
        return [_move_p(v) for v in payload]
    return payload


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "symmetric", "--variant=gaussian", '--coeffs={"c1": 29}', "--t=1", "--u=2"],
        ["construct", "symmetric", "--variant=rational", "--preset=c29", "--w=2"],
        ["construct", "mixed", "--c=1", "--t=2/45", "--k=2"],
        ["construct", "gaussian", "--a=1", "--u=2,1"],
        ["question3", "--N=2", "--c=3"],
        ["scale-integers", "--a=-1",
         '--points=[{"p": "-2/5", "q": "1/5", "r": "3/5", "s": "-4/5"}]'],
    ],
    ids=["symmetric-coeffs", "symmetric-preset", "mixed", "gaussian", "question3",
         "scale-integers"],
)
def test_the_recheck_passes_each_point_and_fails_a_moved_one(monkeypatch, capsys, argv):
    # a recheck that passes every point would pass the property above too
    monkeypatch.delenv("QUINTICPOINTS_STORE", raising=False)
    assert cli.main(argv) == cli.EXIT_OK
    line = capsys.readouterr().out
    assert _recheck(argv, line) == ""
    assert _recheck(argv, json.dumps(_move_p(json.loads(line)))) != ""
