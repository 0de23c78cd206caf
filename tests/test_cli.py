import concurrent.futures
import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quinticpoints import cli, poly, quadform, surfaces
from quinticpoints.exact import CertificateError, factor


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
            ("construct", "thm1", "--out", "x.csv"),
            ("solve-form", "1", "2", "3", "-5", "--seed", "1"),
            # no prefix matching: these would set --seed-point and --dmax
            ("construct", "symmetric", "--variant=rational", "--seed", "5,9"),
            ("table", "--dm", "3"),
            # the perturbation test in test_surfaces.py does this hook's job
            ("verify-identities", "--mutate"),
        ],
    )
    def test_options_that_change_nothing_are_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            parse(*argv)
        assert exc.value.code == 2

    def test_one_subcommand_parser_parses_every_golden_argv_like_the_tree(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
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

    def test_store_on_every_subcommand(self, tmp_path):
        for argv in (
            ("verify-identities",), ("construct", "thm1"), ("solve-form", "1", "2", "3", "4"),
            ("table",), ("question3",), ("scale-integers",),
        ):
            assert parse(*argv, "--store", str(tmp_path / "s")).store == str(tmp_path / "s")


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
    @pytest.mark.parametrize("option", ["--dmax", "--bound", "--tmax", "--jobs"])
    def test_bounds_below_one_are_invalid_input(self, capsys, option):
        argv = ["table", "--mode=search", "--dmax=1", "--tmax=1", f"{option}=0"]
        assert cli.main(argv) == cli.EXIT_INVALID
        assert json.loads(capsys.readouterr().out) == {
            "error": "InvalidInput", "message": f"{option} must be >= 1"
        }

    def test_jobs_match_serial_output(self, capsys):
        outputs = []
        for jobs in (1, 2):
            assert cli.main(["table", "--mode=verify", "--dmax=6", f"--jobs={jobs}"]) == cli.EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert [row["D"] for row in json.loads(outputs[0])["rows"]] == list(range(1, 7))


    @pytest.mark.parametrize(
        "jobs, dmax, cpus, pool",
        [
            (64, 6, 4, (4, 2)),  # capped by the CPUs, one chunk per worker
            (3, 7, 8, (3, 3)),
            (64, 5, 8, (5, 1)),  # capped by the rows
            (64, 1, 8, None),  # one row: serial, no pool
            (64, 6, None, None),  # unknown CPU count: serial
        ],
    )
    def test_jobs_are_capped(self, monkeypatch, capsys, jobs, dmax, cpus, pool):
        pools = []

        class RecordingPool:  # never starts a process
            def __init__(self, max_workers):
                self.max_workers = max_workers
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                self.chunksize = chunksize
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        argv = ["table", "--mode=verify", f"--dmax={dmax}", f"--jobs={jobs}"]
        assert cli.main(argv) == cli.EXIT_OK
        assert [(p.max_workers, p.chunksize) for p in pools] == ([pool] if pool else [])
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["D"] for row in rows] == list(range(1, dmax + 1))


# the shipped row whose kP is the first to pass 4300 digits, at k = 23
MIXED_D88 = ["construct", "mixed", "--c=88", "--f=0", "--t=1/61"]


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
    ],
)
def test_caps_still_print(capsys, argv):
    assert cli.main(argv) == cli.EXIT_OK
    assert "error" not in json.loads(capsys.readouterr().out)


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
            return dataclasses.replace(decide(form), signs_ok=False)

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
    # nor a parallel table's concurrent.futures, a stored call's datetime or
    # csv; surfaces stays a top-level import, which ops forked after it skip
    code = (
        "import quinticpoints.cli, sys; "
        "assert not {'numpy', 'concurrent.futures', 'datetime', 'csv'} & set(sys.modules); "
        "assert 'quinticpoints.surfaces' in sys.modules"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_question3_points_are_integral(capsys):
    assert cli.main(["question3", "--N=2", "--c=1"]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 2
    for entry in payload["points"]:
        assert entry["residual"] == "0"
        assert all("/" not in entry["point"][k] for k in "pqrs")
