import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import argparse_oracle
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from test_contract import _CAPS

from quinticpoints import cli, elliptic, exact, poly, quadform, surfaces
from quinticpoints.exact import MAX_ECHOED_VALUE, CertificateError, FactorizationExhausted, factor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parse(*argv):
    return cli.build_parser().parse_args(list(argv))


class TestOptions:
    def test_bound_defaults_per_subcommand(self):
        assert parse("construct", "thm2", "--a=-1").bound == 60
        assert parse("solve-form", "1", "2", "3", "-5").bound == 60
        assert parse("table").bound == 3000

    @pytest.mark.parametrize(
        "argv",
        [
            ("question3", "--bound", "5"),
            ("verify-identities", "--bound", "5"),
            ("scale-integers", "--jobs", "2"),
            # the table runs serially: no worker processes to ask for
            ("table", "--jobs", "2"),
            ("construct", "thm1", "--out", "x.csv"),
            ("solve-form", "1", "2", "3", "-5", "--seed", "1"),
            # no prefix matching: these would set --seed-point and --dmax
            ("construct", "symmetric", "--variant=rational", "--seed", "5,9"),
            ("table", "--dm", "3"),
            # the perturbation test in test_surfaces.py does this hook's job
            ("verify-identities", "--mutate"),
        ],
    )
    def test_options_that_change_nothing_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            parse(*argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: quintic-points {argv[0]} [-h]")
        assert f"\nquintic-points {argv[0]}: error: unrecognized arguments: " in captured.err

    def test_one_subcommand_parser_parses_every_golden_argv_like_the_tree(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import golden

        tree = cli.build_parser()
        alone = {name: cli.build_parser(name) for name in cli.COMMANDS}
        for ops in golden.golden_ops().values():
            for op in ops:
                argv = list(op.argv)
                assert alone[argv[0]].parse_args(argv[1:]) == tree.parse_args(argv), argv

    @pytest.mark.parametrize("command", [None, *cli.COMMANDS])
    def test_help_is_the_full_trees(self, command):
        argv = ["--help"] if command is None else [command, "--help"]
        texts = []
        for run in (cli.main, cli.build_parser().parse_args):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 0
            texts.append(out.getvalue())
        assert texts[0] == texts[1]
        if command is None:
            assert all(f"    {name}" in texts[0] for name in cli.COMMANDS)
        else:
            assert texts[0].startswith(f"usage: quintic-points {command} [-h] [--store STORE]")

    @pytest.mark.parametrize("command", [None, *cli.COMMANDS])
    def test_help_lines_fit_80_columns(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.main(["--help"] if command is None else [command, "--help"])
        # argparse wraps help at 78 columns and a usage line at 79; only a
        # word that fits no line is longer: construct's family choices
        lines = capsys.readouterr().out.splitlines()
        assert all(
            len(line) <= 79 or (command == "construct" and len(line.split()) == 1)
            for line in lines
        )

    def test_usage_keeps_the_positionals_on_one_line(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["solve-form", "1", "2", "3"])
        assert any(line.endswith(" a1 a2 a3 a4") for line in capsys.readouterr().err.splitlines())

    def test_store_on_every_subcommand(self, tmp_path):
        for argv in (
            ("verify-identities",), ("construct", "thm1"), ("solve-form", "1", "2", "3", "4"),
            ("table",), ("question3",), ("scale-integers",),
        ):
            assert parse(*argv, "--store", str(tmp_path / "s")).store == str(tmp_path / "s")


def _outcome(parse, argv):
    """(exit code, None, stderr) when parsing ``argv`` exits, else (None, the
    namespace's attributes, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return None, vars(parse(list(argv))), err.getvalue()
        except SystemExit as exc:
            return exc.code, None, err.getvalue()


def _uncopied_quirk(argv, reference, ours) -> str | None:
    """The name of the argparse quirk that the table parser does not copy
    (CHANGES.md lists each) when one accounts for the two parsers' different
    ``reference`` and ``ours`` outcomes on ``argv``, else None."""
    code, namespace, err = reference
    if any(word.endswith("=--") for word in argv) or (
        namespace is not None and any(isinstance(v, list) for v in namespace.values())
    ):
        # argparse drops a "--" from the words of every argument, so the
        # value of --opt=-- and a "--" after the first read as an empty list,
        # and the words after them are still read; here each is the word "--"
        return "double-dash-value-is-an-empty-list"
    if code == 2 and ours[1] is not None and re.search(r"unrecognized arguments: --( --)*$", err):
        # argparse keeps a "--" that no positional's words take up as an
        # unrecognized argument; here "--" only ends the options
        return "double-dash-after-the-positionals"
    if not (argv and argv[0] in cli.COMMANDS) and any(
        word != "--" and word.partition("=")[0] in ("--", "--h", "--he", "--hel") for word in argv
    ):
        # argparse's top level matched --help by a prefix; here no option is
        # matched by a prefix
        return "help-abbreviated-before-the-command"
    return None


_ODD_WORDS = (
    "", "x", "1.5", "-0.5", "-.5", "-", "--", "1/2", "-1/2", "3,8", "-1,2", " -3", "-3 ",
    "1 2", "-x", "-h", "--a", "--zzz", "=", "+4", "\u0663", "-\u0663", "1_000", "0x10", "-1e3",
    "-5\n", "--store", "thm1",
)
_HELP_WORDS = (
    "-h", "--help", "-hh", "-hx", "-h=x", "-h x", "--help=", "--help=1", "--he", "--hel",
)


def _value_words(spec, good_only):
    """Good values of an argument of type, default, choices and help
    ``spec``, and, unless ``good_only``, odd words."""
    kind, _, choices, _ = spec
    if choices is not None:
        good = st.sampled_from([str(c) for c in choices])
    elif kind is int:
        good = st.integers(-10**6, 10**6).map(str)
    else:
        good = st.sampled_from(["0", "1", "1/2", "-1/2", "2,1", "{}"])
    if good_only:
        return good
    odd = st.one_of(st.sampled_from(_ODD_WORDS), st.text("-0123456789/,= .hx", max_size=4))
    return st.one_of(good, odd)


@st.composite
def _argvs(draw):
    """A whole argv drawn from the grammar of ``cli.COMMANDS``: a subcommand
    (or none, or an unknown word or option before one), then its positionals
    among options, each with a value after it or an "=".  A clean argv has
    good values only; any other one may also hold odd values, surplus
    positionals, options with no value, unknown options, help words and
    "--"."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    _, _, positionals, options = cli.COMMANDS[command]
    options = {"--store": (str, None, None, None), **options}
    lead = draw(st.sampled_from([[command]] * 8 + [
        [], ["zzz"], ["-5"], ["--"], ["--store", "x"], ["--zzz", command], ["-h"],
        ["--hel", command],
    ]))
    clean = draw(st.booleans())
    # abbreviations and near misses, e.g. --dm for --dmax and --seed for --seed-point
    unknown = ["--zzz", "-x", "--zz=1 2", "-5=3", "--seed", *(name[:-1] for name in options)]
    kinds = ["option", "option="] if clean else [
        "option", "option=", "option", "option=", "positional", "bare", "unknown", "help"
    ]
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        name = draw(st.sampled_from(list(options)))
        value = draw(_value_words(options[name], clean))
        if kind == "option":
            pieces.append([name, value])
        elif kind == "option=":
            pieces.append([f"{name}={value}"])
        elif kind == "positional":  # a surplus one, unless the command takes one more
            pieces.append([value])
        elif kind == "bare":  # an option whose value is missing, unless a word follows
            pieces.append([name])
        elif kind == "unknown":
            pieces.append([draw(st.sampled_from(unknown))])
        else:
            pieces.append([draw(st.sampled_from(_HELP_WORDS + ("--", "-")))])
    for spec in positionals.values():
        if clean or draw(st.integers(0, 9)):
            at = draw(st.integers(0, len(pieces)))
            pieces.insert(at, [draw(_value_words(spec, clean))])
    return lead + [word for piece in pieces for word in piece]


class TestParserAgainstArgparse:
    """The table parser against the argparse tree it replaced
    (tests/argparse_oracle.py)."""

    def test_every_benchmark_argv_parses_as_before(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import golden
        import workloads

        argvs = [op.argv for ops in golden.golden_ops().values() for op in ops]
        argvs += [op.argv for t in workloads.construct_templates() for op in t.space()]
        assert len(argvs) > 2900
        for argv in argvs:
            ours = vars(cli.build_parser().parse_args(list(argv)))
            assert ours == vars(argparse_oracle.parse_args(list(argv))), argv

    @settings(max_examples=500, deadline=500)
    @given(argv=_argvs())
    def test_drawn_argvs_exit_or_parse_as_before(self, argv):
        reference = _outcome(argparse_oracle.parse_args, argv)
        ours = _outcome(cli.build_parser().parse_args, argv)
        if ours[:2] != reference[:2]:
            quirk = _uncopied_quirk(argv, reference, ours)
            assert quirk is not None, (argv, reference, ours)
            event(quirk)
        code, _, err = ours
        if code == 2:
            assert err.startswith("usage: quintic-points")
            assert re.search(r"^quintic-points[ a-z0-9-]*: error: ", err, re.MULTILINE)
        else:
            assert err == ""


class TestConstructErrors:
    def test_certificate_error_exits_1(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise CertificateError("residual 1")

        monkeypatch.setattr(surfaces, "thm1_point", broken)
        assert cli.main(["construct", "thm1", "--b=1", "--u=1", "--v=1"]) == cli.EXIT_FAIL
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"error": "CertificateError", "message": "residual 1"}

    def test_invalid_input_ledger_carries_the_arguments(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        argv = ["construct", "thm1", "--a=1", "--b=0", "--v=2", "--store", str(ledger)]
        assert cli.main(argv) == cli.EXIT_INVALID
        assert json.loads(capsys.readouterr().out)["error"] == "WrongFamily"
        (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
        inputs = record["inputs"]
        assert isinstance(inputs, dict)
        assert inputs["family"] == "thm1" and inputs["a"] == 1 and inputs["v"] == "2"
        assert "func" not in inputs

    def test_arithmetic_error_is_invalid_input_and_stored(self, tmp_path, capsys):
        # y = 0 is a pole of the Q(i) parametrization (PoleAtPoint, a ZeroDivisionError)
        ledger = tmp_path / "ledger.jsonl"
        argv = ["construct", "gaussian", "--y=0", "--store", str(ledger)]
        assert cli.main(argv) == cli.EXIT_INVALID
        assert json.loads(capsys.readouterr().out)["error"] == "PoleAtPoint"
        (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert record["command"] == "construct gaussian"
        assert record["inputs"]["y"] == "0"

    @pytest.mark.parametrize("seed, shown", [([], "3,8"), (["--seed-point=-1/2,4"], "-1/2,4")])
    def test_seed_off_the_conic_is_shown_as_given(self, capsys, seed, shown):
        argv = ["construct", "symmetric", "--variant=rational", "--preset=c29", "--t=2", *seed]
        assert cli.main(argv) == cli.EXIT_INVALID
        assert json.loads(capsys.readouterr().out) == {
            "error": "SeedNotOnConic", "message": f"seed {shown} is not on the conic at t = 2"
        }

    def test_short_seed_point_is_invalid_input(self, capsys):
        argv = ["construct", "symmetric", "--preset=c29", "--variant=rational", "--seed-point=3"]
        assert cli.main(argv) == cli.EXIT_INVALID
        assert json.loads(capsys.readouterr().out)["error"] == "ValueError"


    def test_symmetric_coeffs_match_preset(self, capsys):
        c29 = '{"a1": 1, "a2": 1, "a3": 1, "a4": 1, "a5": 1, "b1": 1, "b2": 1, "b3": 1, "c0": 1, "c1": 29}'
        outputs = []
        for flag in ("--preset=c29", f"--coeffs={c29}"):
            assert cli.main(["construct", "symmetric", flag, "--variant=rational", "--t=1"]) == cli.EXIT_OK
            outputs.append(json.loads(capsys.readouterr().out)["point"])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ('{"zz": 1}', "'zz'"),
            ("[1, 2]", "JSON object"),
            ('{"a1": "1"}', "a1 must be an integer"),
            ('{"a1": 1.5}', "a1 must be an integer"),
            ('{"a1": true}', "a1 must be an integer"),
        ],
    )
    def test_bad_symmetric_coeffs_are_invalid_input(self, tmp_path, capsys, coeffs, message):
        ledger = tmp_path / "ledger.jsonl"
        argv = ["construct", "symmetric", f"--coeffs={coeffs}", "--store", str(ledger)]
        assert cli.main(argv) == cli.EXIT_INVALID
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "ValueError" and message in payload["message"]
        (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
        assert record["inputs"]["coeffs"] == coeffs


class TestTable:
    @pytest.mark.parametrize("option", ["--dmax", "--bound", "--tmax"])
    def test_bounds_below_one_are_invalid_input(self, capsys, option):
        argv = ["table", "--mode=search", "--dmax=1", "--tmax=1", f"{option}=0"]
        assert cli.main(argv) == cli.EXIT_INVALID
        assert json.loads(capsys.readouterr().out) == {
            "error": "InvalidInput", "message": f"{option} must be >= 1"
        }

    @pytest.mark.parametrize(
        "argv, digest",
        [
            # the defaults: dmax 100, tmax 50, bound 3000
            ([], "e90eb307dca73fc686931811eaddba2fcdfa7633716237f8ae9e35d7cd9b6467"),
            (["--dmax=30", "--tmax=30", "--bound=3"],
             "a6cdd0197f744fbe381730fee8cb4f867a1f415cd11589c7fc8bd26afa088d52"),
        ],
        ids=["default", "dmax30-tmax30-bound3"],
    )
    def test_search_stdout_is_unchanged(self, monkeypatch, capsys, argv, digest):
        """The golden set's table searches stop at --tmax 4, so the stdout of
        two deeper searches is pinned here."""
        monkeypatch.delenv("QUINTICPOINTS_STORE", raising=False)
        assert cli.main(["table", "--mode=search", *argv]) == cli.EXIT_EXHAUSTED
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, csv",
        [
            (["--mode=verify", "--dmax=3"], ["1,2/45,1,403/405,ok", "2,2/45,1,397/405,ok",
                                            "3,2/7,25,6075/49,ok"]),
            (["--mode=search", "--dmax=3", "--tmax=4", "--bound=200"],
             ["1,,,,exhausted", "2,,,,exhausted", "3,1,50,200,ok"]),
        ],
        ids=["verify", "search"],
    )
    def test_out_writes_the_csv_of_the_note(self, tmp_path, monkeypatch, capsys, argv, csv):
        """--out moves the CSV from the stderr note to a file and leaves stdout
        as it is; a verify row gives the shipped point it checked."""
        monkeypatch.delenv("QUINTICPOINTS_STORE", raising=False)
        text = "\n".join(["D,t,X,Y,status", *csv]) + "\n"
        code = cli.main(["table", *argv])
        plain = capsys.readouterr()
        assert plain.err == text
        out = tmp_path / "table.csv"
        assert cli.main(["table", *argv, f"--out={out}"]) == code
        written = capsys.readouterr()
        assert out.read_text(encoding="utf-8") == text
        assert written.out == plain.out and written.err == f"wrote {out}\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["table", "--mode=verify", "--dmax=100"], cli.EXIT_OK),
            (["table", "--mode=search", "--dmax=30", "--tmax=4", "--bound=200"],
             cli.EXIT_EXHAUSTED),
            (["construct", "mixed", "--c=1", "--f=0", "--t=2/45", "--k=2"], cli.EXIT_OK),
        ],
        ids=["verify", "search", "mixed"],
    )
    def test_specialization_curves_are_never_factored(self, monkeypatch, capsys, argv, code):
        # every curve these build is an E_t, whose integral model is known in
        # closed form: elliptic imports no factorizer, and none runs
        def no_work(*args):
            raise AssertionError("a denominator was factored")

        assert not hasattr(elliptic, "factor")
        monkeypatch.delenv("QUINTICPOINTS_STORE", raising=False)
        monkeypatch.setattr(exact, "factor", no_work)
        assert cli.main(argv) == code
        capsys.readouterr()


# the shipped row whose kP is the first to pass 4300 digits, at k = 23
MIXED_D88 = ["construct", "mixed", "--c=88", "--f=0", "--t=1/61"]
# the largest --tmax, --bound and --dmax that a table search accepts with
# the other two at 1, as the contract property draws them
_SEARCH_CAPS = {option: _CAPS[("table", option)][-1] for option in ("--bound", "--dmax", "--tmax")}


@pytest.mark.parametrize(
    "argv",
    [
        MIXED_D88 + [f"--k={cli.MAX_MIXED_K}"],
        MIXED_D88 + [f"--k={-cli.MAX_MIXED_K}"],
        ["question3", f"--N={cli.MAX_QUESTION3_N}"],
        ["solve-form", f"--bound={cli.MAX_WITNESS_BOUND}", "1", "2", "3", "-5"],
        ["construct", "thm2", "--a=-1", "--c=1", "--u=1", "--v=1",
         f"--bound={cli.MAX_WITNESS_BOUND}"],
        # only thm2 reads --bound, so no other family checks it
        ["construct", "thm1", "--a", "1", "--b", "1", "--c", "1", "--u", "1", "--v", "1",
         "--bound", "0"],
        # the largest --bound, --dmax and --tmax of a search with the other two
        # at 1: no row finds a point at t = 1, so each exits 3 with every row
        *(["table", "--mode=search", "--dmax=1", "--tmax=1", "--bound=1", f"{option}={cap}"]
          for option, cap in _SEARCH_CAPS.items()),
    ],
)
def test_caps_still_print(capsys, argv):
    code = cli.main(argv)
    payload = json.loads(capsys.readouterr().out)
    assert "error" not in payload
    # only a table search exhausts its rows and exits 3
    expected = cli.EXIT_EXHAUSTED if argv[0] == "table" else cli.EXIT_OK
    assert code == expected
    assert payload.get("all_ok", True) == (expected == cli.EXIT_OK)


@pytest.mark.parametrize(
    "argv, command, message",
    [
        (["verify-identities", "--only=zzz"], "verify-identities",
         "--only 'zzz' matches no check name"),
        (["solve-form", "1", "2", "3", "-5", "--bound=-1"], "solve-form", "--bound must be >= 1"),
        (["solve-form", "1", "2", "3", "-5", "--bound=0"], "solve-form", "--bound must be >= 1"),
        (["construct", "thm2", "--a=-1", "--bound=-5"], "construct thm2", "--bound must be >= 1"),
        (MIXED_D88 + [f"--k={cli.MAX_MIXED_K + 1}"], "construct mixed", "|--k| must be <= 20"),
        (MIXED_D88 + [f"--k={-cli.MAX_MIXED_K - 1}"], "construct mixed", "|--k| must be <= 20"),
        (["question3", f"--N={cli.MAX_QUESTION3_N + 1}"], "question3", "--N must be <= 200"),
        (["construct", "thm2", "--a=-1", "--c=1", "--u=1", "--v=1",
          f"--bound={cli.MAX_WITNESS_BOUND + 1}"], "construct thm2", "--bound must be <= 500"),
        (["solve-form", "1", "2", "3", "-5", f"--bound={cli.MAX_WITNESS_BOUND + 1}"],
         "solve-form", "--bound must be <= 500"),
        (["table", "--mode=verify", "--dmax=101"], "table",
         "--dmax must be <= 100, the rows of the shipped table"),
        *((["table", "--mode=search", "--dmax=1", "--tmax=1", "--bound=1", f"{option}={cap + 1}"],
           "table", "--dmax * (--tmax^2 + --bound + 300) must be <= 10000000 in search mode")
          for option, cap in _SEARCH_CAPS.items()),
    ],
)
def test_out_of_range_options_are_stored_invalid_input(tmp_path, capsys, argv, command, message):
    ledger = tmp_path / "ledger.jsonl"
    assert cli.main([*argv, "--store", str(ledger)]) == cli.EXIT_INVALID
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"error": "InvalidInput", "message": message}
    (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert record["command"] == command and record["outputs"] == payload


@pytest.mark.parametrize(
    "argv, command, error",
    [
        (["solve-form", "0", "1", "2", "3"], "solve-form", "ZeroCoefficient"),
        (["scale-integers", "--points", '[{"p":"x"}]'], "scale-integers", "DegenerateQuintic"),
        (["scale-integers", "--a=1", "--points", '[{"p":"x"}]'], "scale-integers", "ValueError"),
        (["scale-integers", "--a=1", '--points=[{"p":"1"}]'], "scale-integers", "ValueError"),
        (["scale-integers", "--a=1", "--points=[1]"], "scale-integers", "ValueError"),
        (["scale-integers", "--a=1", '--points={"p":"1"}'], "scale-integers", "ValueError"),
        # a Gaussian coordinate makes a Q(i) point, whatever its imaginary part
        (["scale-integers", "--a=1", "--points", json.dumps([{
            "p": {"re": "1/2", "im": "0"}, "q": "1/3", "r": "1/3", "s": {"re": "1/2", "im": "0"}
        }])], "scale-integers", "ValueError"),
        # a coordinate is a rational string, an integer or an {re, im} object
        *((["scale-integers", "--a=1", "--points", json.dumps([{**dict.fromkeys("pqrs", "1"),
            "p": value}])], "scale-integers", "ValueError")
          for value in (1.5, [1], True, None, {"re": "1"}, {"re": "1", "im": 0.5})),
        (["scale-integers", "--a=1", "--points", json.dumps([dict.fromkeys("pqrs", "1/0")])],
         "scale-integers", "ZeroDivisionError"),
        (["scale-integers", "--a=1", "--points", "[" * 100000], "scale-integers",
         "RecursionError"),
        (["construct", "symmetric", "--variant=gaussian", "--coeffs", "[" * 100000],
         "construct symmetric", "RecursionError"),
    ],
)
def test_typed_input_errors_are_stored(tmp_path, capsys, argv, command, error):
    ledger = tmp_path / "ledger.jsonl"
    assert cli.main([*argv, "--store", str(ledger)]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["error"] == error and captured.err.startswith("invalid input: ")
    (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert record["command"] == command and record["outputs"] == payload


@pytest.mark.parametrize("field", ["Qi", "R"])
def test_an_input_points_field_comes_from_its_coordinates(capsys, field):
    point = {"p": "-2/5", "q": "1/5", "r": "3/5", "s": "-4/5"}
    outputs = []
    for obj in (point, {**point, "field": field}):
        assert cli.main(["scale-integers", "--a=-1", f"--points={json.dumps([obj])}"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["points"][0]["field"] == "Q"


def test_json_integer_coordinates_are_exact_rationals(capsys):
    outputs = []
    for coords in (["-2", "1", "3", "-4"], [-2, 1, 3, -4]):
        points = json.dumps([dict(zip("pqrs", coords))])
        assert cli.main(["scale-integers", "--a=-25", f"--points={points}"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_a_fault_in_scale_to_integers_is_not_invalid_input(monkeypatch, capsys):
    def fault(f, points):
        raise TypeError("a fault of the program")

    monkeypatch.setattr(cli, "scale_to_integers", fault)
    with pytest.raises(TypeError, match="a fault of the program"):
        cli.main(["scale-integers", "--a=-1", '--points=[{"p": "1", "q": "0", "r": "1", "s": "0"}]'])
    assert capsys.readouterr().out == ""


def _add_a_seventh(*coords, r4_point=surfaces.r4_point):
    """The question-3 point with 1/7 added to p; the default keeps the
    r4_point that this function replaces."""
    p, q, r, s = r4_point(*coords)
    return p + Fraction(1, 7), q, r, s


def _add_one(*coords, r4_point=surfaces.r4_point):
    """The question-3 point with 1 added to p: still integral, so d = 1, but
    off V_f."""
    p, q, r, s = r4_point(*coords)
    return p + 1, q, r, s


def _residual_one(*args, **kwargs):
    raise CertificateError("residual 1")


@pytest.mark.parametrize(
    "argv, command, patch",
    [
        (["construct", "thm1", "--b=1", "--u=1", "--v=1"], "construct thm1",
         (surfaces, "thm1_point", _residual_one)),
        (["solve-form", "1", "2", "3", "-5"], "solve-form",
         (quadform, "find_zero", lambda form, bound: (1, 1, 1, 1))),
        (["question3", "--N=2"], "question3", (surfaces, "r4_point", _add_a_seventh)),
        (["question3", "--N=2"], "question3", (surfaces, "r4_point", _add_one)),
    ],
    ids=["construct", "solve-form", "question3", "question3-off-surface"],
)
def test_certificate_errors_exit_1_with_a_note_and_a_record(
    tmp_path, monkeypatch, capsys, argv, command, patch
):
    monkeypatch.setattr(*patch)
    ledger = tmp_path / "ledger.jsonl"
    assert cli.main([*argv, "--store", str(ledger)]) == cli.EXIT_FAIL
    captured = capsys.readouterr()
    (line,) = captured.out.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "CertificateError"
    assert captured.err == f"certificate failed: {payload['message']}\n"
    (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert record["command"] == command and record["outputs"] == payload


@pytest.mark.parametrize(
    "variant, argv",
    [
        ("gaussian", ["--preset=consani-scholten", "--t=2", "--u=1"]),
        ("rational", ["--preset=c29", "--t=1", "--seed-point=3,8", "--w=2"]),
        ("error", ["--preset=c29", "--variant=rational", "--seed-point=3"]),
    ],
)
def test_symmetric_calls_are_stored_as_construct_symmetric(tmp_path, capsys, variant, argv):
    ledger = tmp_path / "ledger.jsonl"
    variant_option = [] if variant == "error" else [f"--variant={variant}"]
    code = cli.main(["construct", "symmetric", *variant_option, *argv, "--store", str(ledger)])
    assert code == (cli.EXIT_INVALID if variant == "error" else cli.EXIT_OK)
    (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert record["command"] == "construct symmetric"
    assert record["outputs"] == json.loads(capsys.readouterr().out)


_HUGE_DENOMINATOR = "1" + "0" * 1500


@pytest.mark.parametrize(
    "argv, command",
    [
        (["construct", "thm1", "--a", "1" * 600, "--b=1", "--c=1", "--u=3", "--v=2"],
         "construct thm1"),
        (["construct", "gaussian", "--a=1", "--b=1", "--c=1", "--u=3", "--y", "7" * 900],
         "construct gaussian"),
        (["scale-integers", "--a=1", "--b=1", "--c=1", "--points",
          json.dumps([dict.fromkeys("pqrs", f"1/{_HUGE_DENOMINATOR}")])], "scale-integers"),
    ],
)
def test_output_past_the_int_to_str_limit_is_invalid_input(tmp_path, capsys, argv, command):
    ledger = tmp_path / "ledger.jsonl"
    assert cli.main([*argv, "--store", str(ledger)]) == cli.EXIT_INVALID
    (line,) = capsys.readouterr().out.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "OutputTooLarge"
    assert payload["message"].startswith("Exceeds the limit (4300 digits)")
    assert "set_int_max_str_digits" not in payload["message"]
    (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert record["command"] == command and record["outputs"] == payload


def test_a_2000_digit_thm1_parameter_is_output_too_large_within_seconds(capsys):
    # The point is certified on its integral image, in ints: about 0.8 s in
    # process on one core of a 2-core x86-64 machine, against 8-10 s when
    # f was evaluated on Fractions with 10^5-bit denominators.
    start = time.perf_counter()
    code = cli.main(["construct", "thm1", "--a=1", "--b=1", "--c=1", f"--u={'1' * 2000}", "--v=1"])
    elapsed = time.perf_counter() - start
    assert code == cli.EXIT_INVALID
    assert json.loads(capsys.readouterr().out)["error"] == "OutputTooLarge"
    assert elapsed < 3


def test_a_1000_digit_symmetric_t_is_certified_within_a_third_of_a_second(capsys):
    # The point is certified in ints on its integral image: 0.09-0.12 s in
    # process on one core of a 2-core x86-64 machine, against 1.0-1.3 s when
    # f(p, q) was evaluated in Q(i) with Fraction parts.
    t = str(3**2095)  # 1000 digits
    start = time.perf_counter()
    code = cli.main(["construct", "symmetric", "--preset=c29", f"--t={t}", "--u=1"])
    elapsed = time.perf_counter() - start
    assert code == cli.EXIT_OK and len(t) == 1000
    capsys.readouterr()
    assert elapsed < 0.3


_DIGITS_5000 = "1" * 5000


@pytest.mark.parametrize(
    "argv, command",
    [
        (["construct", "thm1", "--a=1", "--u", _DIGITS_5000], "construct thm1"),
        (["scale-integers", "--a=1", "--points",
          f'[{{"p": {_DIGITS_5000}, "q": 1, "r": 1, "s": 1}}]'], "scale-integers"),
        (["scale-integers", "--a=1", "--points",
          f'[{{"p": "{_DIGITS_5000}", "q": 1, "r": 1, "s": 1}}]'], "scale-integers"),
    ],
    ids=["construct-u", "json-number", "json-string"],
)
def test_input_past_the_str_to_int_limit_is_invalid_input(tmp_path, capsys, argv, command):
    ledger = tmp_path / "ledger.jsonl"
    assert cli.main([*argv, "--store", str(ledger)]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload == {
        "error": "InvalidInput",
        "message": "Exceeds the limit (4300 digits) for integer string conversion: "
        "value has 5000 digits",
    }
    assert captured.err == f"invalid input: {payload['message']}\n"
    (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert record["command"] == command and record["outputs"] == payload


_X_5000 = "x" * 5000
_CUT = MAX_ECHOED_VALUE


@pytest.mark.parametrize(
    "argv, echo",
    [(["construct", "thm1", f"--a={_DIGITS_5000}", "--b=1", "--c=1", "--u=1", "--v=1"],
      f"'{_DIGITS_5000[:_CUT]}'... (5000 characters)\n"),
     (["solve-form", _DIGITS_5000, "1", "1", "-1"],
      f"'{_DIGITS_5000[:_CUT]}'... (5000 characters)\n"),
     (["table", "--mode", _X_5000],
      f"invalid choice: '{_X_5000[:_CUT]}'... (5000 characters) (choose from 'verify', 'search')\n"),
     (["solve-form", "1", "1", "1", "1", _X_5000],
      f"unrecognized arguments: {_X_5000[:_CUT]}... (5000 characters)\n"),
     (["construct", "thm1", f"--bogus{_X_5000}"],
      f"unrecognized arguments: {('--bogus' + _X_5000)[:_CUT]}... (5007 characters)\n")],
    ids=["option", "positional", "choice", "unrecognized", "unknown-option"],
)
def test_int_argument_past_the_str_to_int_limit_is_echoed_short(capsys, argv, echo):
    # a usage error, so no JSON line; its echo is a prefix and the size.  The
    # usage of construct alone takes about 520 bytes, so the bound is on what
    # follows it.  Any other word a usage error names is cut the same way.
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    usage = cli._help_parser(argv[0]).format_usage()
    assert captured.err.startswith(usage)
    assert len(captured.err.encode()) - len(usage.encode()) < 500
    assert captured.err.endswith(echo)


@pytest.mark.parametrize(
    "argv",
    [["construct", "thm1", "--a=1", "--b=1", "--c=1", "--v=1", f"--u={_X_5000}"],
     ["scale-integers", "--a=1", "--points", json.dumps([{"p": _X_5000, "q": 1, "r": 1, "s": 1}])]],
    ids=["construct-u", "json-string"],
)
def test_an_unreadable_rational_is_echoed_short(tmp_path, capsys, argv):
    # the payload, the note and the ledger's outputs each echo a prefix and
    # the size, as a usage error does
    ledger = tmp_path / "ledger.jsonl"
    assert cli.main([*argv, "--store", str(ledger)]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    (line,) = captured.out.splitlines()
    assert len(line.encode()) < 300 and len(captured.err.encode()) < 300
    message = f"Invalid literal for Fraction: '{'x' * _CUT}'... (5000 characters)"
    assert json.loads(line) == {"error": "ValueError", "message": message}
    (record,) = [json.loads(text) for text in ledger.read_text().splitlines()]
    assert record["outputs"] == json.loads(line)


@pytest.mark.parametrize(
    "argv, echo",
    [(["table", "--mode", "x" * _CUT], f"invalid choice: '{'x' * _CUT}' (choose from"),
     (["solve-form", "1", "1", "1", "1", "y" * _CUT], f"unrecognized arguments: {'y' * _CUT}\n"),
     (["construct", "thm1", "--branch", "+5"], "invalid choice: 5 (choose from 1, -1)\n"),
     (["construct", "thm1", "-h=" + "z" * (_CUT - 3)],
      f"explicit argument in '-h={'z' * (_CUT - 3)}'\n")],
    ids=["choice", "unrecognized", "int-choice", "help-value"],
)
def test_a_word_of_at_most_the_cut_is_echoed_whole(capsys, argv, echo):
    with pytest.raises(SystemExit):
        cli.main(argv)
    err = capsys.readouterr().err
    assert echo in err and "characters)" not in err


@pytest.mark.parametrize(
    "argv, store_variable, message",
    [
        (["table", "--dmax", "1", "--out", "{missing}/x.csv"], None,
         "--out {missing}/x.csv is in a directory that does not exist"),
        (["question3", "--N", "1", "--store", "{missing}/l.jsonl"], None,
         "--store {missing}/l.jsonl is in a directory that does not exist"),
        (["table", "--dmax", "1", "--out", "{tmp}"], None, "--out {tmp} is a directory"),
        (["question3", "--N", "1"], "{missing}/l.jsonl",
         "QUINTICPOINTS_STORE {missing}/l.jsonl is in a directory that does not exist"),
    ],
    ids=["out-in-missing-dir", "store-in-missing-dir", "out-is-a-dir", "store-variable"],
)
def test_unwritable_output_path_is_invalid_input_before_any_work(
    tmp_path, monkeypatch, capsys, argv, store_variable, message
):
    def no_work(*args):
        raise AssertionError("the command ran")

    def fill(text):
        return text.format(missing=tmp_path / "nonexistent" / "d", tmp=tmp_path)

    monkeypatch.setattr(elliptic, "verify_row", no_work)
    monkeypatch.setattr(elliptic, "conjecture2_search", no_work)
    monkeypatch.setattr(quadform, "question3_family", no_work)
    if store_variable:
        monkeypatch.setenv("QUINTICPOINTS_STORE", fill(store_variable))
    else:
        monkeypatch.delenv("QUINTICPOINTS_STORE", raising=False)
    assert cli.main([fill(word) for word in argv]) == cli.EXIT_INVALID
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line) == {"error": "InvalidInput", "message": fill(message)}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify-identities", "--only=norm-lift", "--seed=3"], cli.EXIT_OK),
        (["verify-identities", "--only=zzz"], cli.EXIT_INVALID),
        (["construct", "thm2", "--a=-1", "--c=1", "--u=1", "--v=1", "--bound=30"], cli.EXIT_OK),
        (["construct", "thm1", "--a=1", "--b=0", "--v=2"], cli.EXIT_INVALID),
        (["solve-form", "1", "2", "3", "-5", "--bound=10"], cli.EXIT_OK),
        (["solve-form", "0", "1", "2", "3"], cli.EXIT_INVALID),
        # verify mode reads no --bound
        (["table", "--mode=verify", "--dmax=2", "--bound=2000000"], cli.EXIT_OK),
        (["table", "--mode=search", "--dmax=1", "--tmax=100000", "--bound=3"], cli.EXIT_INVALID),
        (["question3", "--N=2", "--c=3"], cli.EXIT_OK),
        (["question3", "--N=0"], cli.EXIT_INVALID),
        (["scale-integers", "--a=-1", '--points=[{"p": "-2/5", "q": "1/5", "r": "3/5", "s": "-4/5"}]'],
         cli.EXIT_OK),
        (["scale-integers", "--points=[]"], cli.EXIT_INVALID),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else f"exit-{value}",
)
def test_the_ledger_stores_every_argument_of_the_call(tmp_path, capsys, argv, code):
    ledger = tmp_path / "ledger.jsonl"
    assert cli.main([*argv, "--store", str(ledger)]) == code
    (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert record["outputs"] == json.loads(capsys.readouterr().out)
    inputs = record["inputs"]
    _, _, positionals, options = cli.COMMANDS[argv[0]]
    assert set(inputs) == set(positionals) | {cli._dest(name) for name in options}
    given = [word for word in argv[1:] if not word.startswith("--")]
    assert [inputs[name] for name in positionals] == [
        spec[0](word) for spec, word in zip(positionals.values(), given)
    ]
    for word in argv[1:]:
        if word.startswith("--"):
            name, _, value = word.partition("=")
            assert inputs[cli._dest(name)] == options[name][0](value)


def test_unwritable_out_is_stored_in_a_writable_ledger(tmp_path, capsys):
    ledger = tmp_path / "ledger.jsonl"
    out = tmp_path / "nonexistent" / "d" / "x.csv"
    argv = ["table", "--dmax", "1", "--out", str(out), "--store", str(ledger)]
    assert cli.main(argv) == cli.EXIT_INVALID
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "InvalidInput"
    (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert record["command"] == "table" and record["outputs"] == payload


def test_unfiltered_verify_identities_stdout_is_unchanged(monkeypatch, capsys):
    """The golden set runs only --only= argvs, so the whole suite's stdout
    is pinned here."""
    monkeypatch.delenv("QUINTICPOINTS_STORE", raising=False)
    assert cli.main(["verify-identities"]) == cli.EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "d897dd48186fa8a4c24eb5d8a1f246d7e2a608aef5a71973d70d2cd7ab4f0d03"


@pytest.mark.parametrize(
    "exc, code",
    [
        (CertificateError("residual 1"), cli.EXIT_FAIL),
        (FactorizationExhausted(91), cli.EXIT_EXHAUSTED),
        (surfaces.NoBasePointFound("no base point"), cli.EXIT_EXHAUSTED),
        (cli.InvalidInput("--N must be >= 1"), cli.EXIT_INVALID),
        (ValueError("not a conversion error"), cli.EXIT_INVALID),
        (ZeroDivisionError("1/0"), cli.EXIT_INVALID),
        (RecursionError("deep"), cli.EXIT_INVALID),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
)
def test_the_class_of_an_exception_decides_its_exit(monkeypatch, capsys, exc, code):
    def body(args):
        raise exc

    monkeypatch.delenv("QUINTICPOINTS_STORE", raising=False)
    assert cli._run(body, parse("question3")) == code
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line) == {"error": type(exc).__name__, "message": str(exc)}


@pytest.mark.parametrize("exc", [KeyError("fault"), TypeError("fault")],
                         ids=lambda exc: type(exc).__name__)
def test_an_exception_outside_the_table_propagates(monkeypatch, capsys, exc):
    def body(args):
        raise exc

    monkeypatch.delenv("QUINTICPOINTS_STORE", raising=False)
    with pytest.raises(type(exc), match="fault"):
        cli._run(body, parse("question3"))
    assert capsys.readouterr().out == ""


def test_an_output_past_the_int_to_str_limit_is_output_too_large_in_any_body(monkeypatch, capsys):
    # the D = 88 row's note names the (U,V) preimage of kP, which passes the
    # limit at k = 40 once the cap is lifted; the limit is hit in mixed_point,
    # not in _run's json.dumps
    monkeypatch.setattr(cli, "MAX_MIXED_K", 40)
    assert cli.main([*MIXED_D88, "--k=40"]) == cli.EXIT_INVALID
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line) == {
        "error": "OutputTooLarge",
        "message": "Exceeds the limit (4300 digits) for integer string conversion",
    }


def test_a_failing_certificate_past_the_int_to_str_limit_exits_1(monkeypatch, capsys):
    # formatting d and P into the message passes the limit; the message
    # gives their digits instead, so the exit stays a CertificateError
    monkeypatch.setattr(surfaces, "residual", lambda f, point: 1)
    start = time.perf_counter()
    code = cli.main(["construct", "thm1", "--a=1", "--b=1", "--c=1", f"--u={'1' * 2000}", "--v=1"])
    elapsed = time.perf_counter() - start
    assert code == cli.EXIT_FAIL
    (line,) = capsys.readouterr().out.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "CertificateError"
    assert re.fullmatch(r"thm1: residual 1 of d\*P on V_F, d = <\d+ digits>, P = <\d+ digits>",
                        payload["message"])
    assert elapsed < 3


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "thm1", "--a=1", "--b=1", "--c=1", "--v=1", "--u=1e100000"],
        ["construct", "thm1", "--a=1", "--b=1", "--c=1", "--v=1", f"--u=1E{'0' * 100}"],
        ["construct", "symmetric", "--preset=c29", "--t=1e2000", "--u=1"],
        ["construct", "gaussian", "--a=1", "--b=1", "--c=1", "--y=1", "--u=1,2e3"],
        ["scale-integers", "--a=1", "--points", json.dumps([dict.fromkeys("pqrs", "1e3")])],
    ],
    ids=["u", "long-u", "symmetric-t", "gaussian-u", "json-string"],
)
def test_exponent_notation_is_invalid_input_at_once(capsys, argv):
    # a value of 100001 digits in 8 characters: refused before any work
    start = time.perf_counter()
    assert cli.main(argv) == cli.EXIT_INVALID
    elapsed = time.perf_counter() - start
    (line,) = capsys.readouterr().out.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "ValueError"
    assert payload["message"].startswith("exponent notation is not accepted: ")
    assert len(payload["message"]) < 100
    assert elapsed < 1


class TestSolveForm:
    def test_wrapped_int64_zero_is_no_witness(self, capsys):
        # 9 * 2049638230412172402 = 2^64 + 2, so (0, 3, 1, 1) was a zero in int64
        argv = ["solve-form", "1", "2049638230412172402", "1", "-3", "--bound", "3"]
        assert cli.main(argv) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness"] is None and payload["witness_original_form"] is None
        assert payload["solvable"] is False

    @pytest.mark.parametrize("witness", [(1, 1, 1, 1), (0, 2, 2, 2)])  # not a zero, not primitive
    def test_bad_witness_is_a_certificate_error(self, monkeypatch, capsys, witness):
        monkeypatch.setattr(quadform, "find_zero", lambda form, bound: witness)
        assert cli.main(["solve-form", "1", "2", "3", "-5"]) == cli.EXIT_FAIL
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "CertificateError" and str(list(witness)) in payload["message"]

    def test_witness_of_an_unsolvable_verdict_is_a_certificate_error(self, monkeypatch, capsys):
        decide = quadform.represents_zero

        def unsolvable(form):
            _, conditions = decide(form)
            return False, {**conditions, "signs": False}

        monkeypatch.setattr(quadform, "represents_zero", unsolvable)
        assert cli.main(["solve-form", "1", "2", "3", "-5"]) == cli.EXIT_FAIL
        assert json.loads(capsys.readouterr().out)["error"] == "CertificateError"

    def test_square_of_a_prime_above_trial_division(self, capsys):
        assert cli.main(["solve-form", "1000003", "1", "1", "-2000018000054000054"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["normalized"] == [1000003, 1, 1, -2000006]
        assert payload["solvable"] is False

    def test_each_coefficient_is_factored_once(self, monkeypatch, capsys):
        calls = []

        def counted(n):
            calls.append(n)
            return factor(n)

        monkeypatch.setattr(quadform, "factor", counted)
        assert cli.main(["solve-form", "12", "-18", "50", "-75"]) == cli.EXIT_OK
        # the four input coefficients; the normalized form reuses their primes
        assert sorted(calls) == [-75, -18, 12, 50]


def _run_cli(*argv, timeout=5):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    command = [sys.executable, "-m", "quinticpoints.cli", *argv]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-form", "--", "1", "2", "3", "-100000000000000000039"],
        ["construct", "thm2", "--a=-100000000000000000039", "--u=1", "--v=2"],
    ],
)
def test_large_prime_coefficients_finish(argv):
    # factoring by trial division up to the square root ran for hours; the
    # form is decided, and the thm2 witness box holds no base point
    expected = {"solve-form": cli.EXIT_OK, "construct": cli.EXIT_EXHAUSTED}[argv[0]]
    assert _run_cli(*argv).returncode == expected


PQ = 10000000000000000051 * 10000000000000000087  # the primes after 10^19


@pytest.mark.parametrize(
    "argv, command",
    [
        (["solve-form", "--", "1", "2", "3", str(-PQ)], "solve-form"),
        (["construct", "thm2", f"--a={-PQ}", "--u=1", "--v=2"], "construct thm2"),
    ],
)
def test_unsplittable_coefficient_is_exhaustion(tmp_path, argv, command):
    ledger = tmp_path / "ledger.jsonl"
    done = _run_cli(argv[0], "--store", str(ledger), *argv[1:])
    assert done.returncode == cli.EXIT_EXHAUSTED
    payload = json.loads(done.stdout)
    assert payload["error"] == "FactorizationExhausted" and str(PQ) in payload["message"]
    (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert record["command"] == command and record["outputs"] == payload


def test_soluble_a_without_a_base_point_in_the_box_is_exhaustion(tmp_path, capsys):
    # -a = 1000007 is 7 mod 16, so x^2+2y^2+3z^2 = -5a is soluble, but the
    # witness box at the default bound holds no base point
    assert quadform.ternary_solvable(-1000007)
    ledger = tmp_path / "ledger.jsonl"
    argv = ["construct", "thm2", "--a=-1000007", "--c=1", "--u=1", "--v=2"]
    assert cli.main([*argv, "--store", str(ledger)]) == cli.EXIT_EXHAUSTED
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload == {
        "error": "NoBasePointFound",
        "message": "no base point on x^2+2y^2+3z^2 = 5000035 within bound 60",
    }
    assert captured.err.startswith("exhausted: ")
    (record,) = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert record["command"] == "construct thm2" and record["outputs"] == payload


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "thm1", "--a=2", "--b=1", "--c=-1", "--u=1/2", "--v=1"],
        ["construct", "thm2", "--a=-1", "--c=3", "--u=1", "--v=3", "--bound=30"],
        ["construct", "gaussian", "--a=1", "--b=-2", "--y=2", "--u=1,1"],
        ["construct", "fifth-power", "--u=2", "--v=1,1"],
        ["construct", "mixed", "--c=1", "--f=0", "--t=2/45", "--k=2"],
        ["construct", "symmetric", "--preset=consani-scholten", "--t=2", "--u=1"],
        ["construct", "symmetric", "--variant=rational", "--preset=c29", "--t=1",
         "--seed-point=3,8", "--w=2"],
        ["question3", "--N=2", "--c=1"],
        ["scale-integers", "--a=-1", "--points",
         '[{"p": "-2/5", "q": "1/5", "r": "3/5", "s": "-4/5"}]'],
    ],
)
def test_point_commands_build_no_polynomial(monkeypatch, argv):
    """Every constructor evaluates its display on scalars; only the
    identity suite works over polynomials."""

    def refuse(self, *args, **kwargs):
        raise RuntimeError(f"{type(self).__name__} built for {argv}")

    monkeypatch.setattr(poly.MultiPoly, "__init__", refuse)
    monkeypatch.setattr(poly.RationalFunction, "__init__", refuse)
    assert cli.main(argv) == cli.EXIT_OK


def test_cli_import_leaves_numpy_out():
    src = Path(__file__).resolve().parents[1] / "src"
    # nor concurrent.futures, a stored call's datetime or csv, nor
    # dataclasses and the inspect it loads (the value types are named
    # tuples), nor argparse and its gettext, even once a call is parsed
    # (COMMANDS has its own parser); surfaces stays a top-level import,
    # which ops forked after it skip; both table modes run serially, with
    # no process pool
    code = """
import sys
import quinticpoints.cli as cli
left_out = {
    "numpy", "concurrent.futures", "datetime", "csv", "dataclasses", "inspect",
    "argparse", "gettext",
}
assert not left_out & set(sys.modules), left_out & set(sys.modules)
assert "quinticpoints.surfaces" in sys.modules
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["construct", "thm1", "--b=1", "--u=1", "--v=1"]) == 0
assert not {"argparse", "gettext"} & set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["table", "--mode=search", "--dmax=2", "--tmax=2", "--bound=50"]) == 3
    assert cli.main(["table", "--mode=verify", "--dmax=2"]) == 0
pools = {"concurrent.futures", "multiprocessing"}
assert not pools & set(sys.modules), pools & set(sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_only_help_and_usage_errors_import_argparse():
    # the COMMANDS reader parses every call; argparse is built only to write
    # the text of help and of a usage error
    src = Path(__file__).resolve().parents[1] / "src"
    code = """
import contextlib, io, sys
import quinticpoints.cli as cli
clean = [
    ["verify-identities", "--only=norm-lift"],
    ["construct", "thm1", "--b=1", "--u=1", "--v=1"],
    ["solve-form", "1", "1", "1", "-1"],
    ["table", "--dmax=1"],
    ["question3", "--N=1"],
    ["scale-integers", "--a=1", '--points=[{"p": "1/2", "q": 1, "r": "1/2", "s": 1}]'],
]
assert [argv[0] for argv in clean] == list(cli.COMMANDS)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in clean:
        assert cli.main(argv) == 0, argv
assert "argparse" not in sys.modules
code = None
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(["table", "--dm", "3"])
    except SystemExit as exc:
        code = exc.code
assert code == 2
assert "argparse" in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_question3_points_are_integral(capsys):
    assert cli.main(["question3", "--N=2", "--c=1"]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 2
    for entry in payload["points"]:
        assert entry["residual"] == "0"
        assert all("/" not in entry["point"][k] for k in "pqrs")
