"""The CLI's output contract: every call that parses ends in exit 0, 1, 2
or 3 with exactly one JSON line on stdout and no traceback, and one place in
``cli.py`` writes that line."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quinticpoints import cli, elliptic

# (subcommand, option) -> the caps of the option; each cap + 1 is drawn
_CAPS = {
    ("construct", "--k"): (cli.MAX_MIXED_K,),
    ("construct", "--bound"): (cli.MAX_WITNESS_BOUND,),
    ("solve-form", "--bound"): (cli.MAX_WITNESS_BOUND,),
    ("table", "--bound"): (cli.MAX_TABLE_BOUND,),
    ("table", "--dmax"): (len(elliptic.load_table()), cli.MAX_SEARCH_DMAX),
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


@settings(
    max_examples=300, deadline=3000, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=_calls())
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
        assert err.getvalue().endswith("\n") and "Traceback" not in err.getvalue()
        ledger = Path(directory, "ledger.jsonl")
        if f"--store={ledger}" in argv:
            (record,) = [json.loads(text) for text in ledger.read_text().splitlines()]
            assert record["outputs"] == payload


def _writes(tree):
    """(innermost enclosing function, stream) of every print and every
    sys.stdout.write or sys.stderr.write call in ``tree``; a print goes to
    "stderr" only when it passes file=sys.stderr."""
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
