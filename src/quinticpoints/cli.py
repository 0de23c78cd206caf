"""Command-line front end.

JSON goes to stdout (stable key order, no timestamps), human summaries to
stderr.  Exit codes: 0 success / nontrivial point, 1 verification failure
(a trivial point, or a failed exact certificate: CertificateError), 2 invalid
input, degenerate construction or a number too long to print (OutputTooLarge:
Python's limit on int to str), 3 search exhausted (a table search, a
thm2 base-point box with no witness: NoBasePointFound, or a coefficient
that ``exact.factor`` could not split: FactorizationExhausted).
``--store FILE`` (or QUINTICPOINTS_STORE) appends every result to a JSON-lines
ledger; only the timestamp differs between identical reruns.

Each subcommand's arguments are written once, in ``COMMANDS``.  A call
builds only the parser of the subcommand it names, since the tree of all six
costs more than the cheapest call's work; ``--help``, no command or an
unknown one get the full tree (``build_parser()``).  ``concurrent.futures``
and ``datetime`` are imported only by ``table --jobs`` and ``--store``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__, elliptic, quadform, surfaces
from .exact import (
    CertificateError,
    FactorizationExhausted,
    GaussianRational,
    format_rational,
    parse_rational,
)
from .quintic import Point4, QuinticCoeffs, classify, residual, scale_to_integers

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_EXHAUSTED = 3

# Caps on inputs whose output grows without bound: the digits of kP grow
# like k^2 (at k = 23 the D = 88 row passes Python's 4300-digit limit on int
# to str), and a_N of question3 has about 4 log10(N!) digits.  At each cap a
# call prints well within a second.
MAX_MIXED_K = 20
MAX_QUESTION3_N = 200
# The witness box of find_zero costs O(B^2) time and memory: at B = 500 a
# form with many zeros, (1, -1, 1, -1), takes about 2 s and 125 MB.
MAX_WITNESS_BOUND = 500


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _store_record(args, command: str, inputs: dict, outputs) -> None:
    path = getattr(args, "store", None) or os.environ.get("QUINTICPOINTS_STORE")
    if not path:
        return
    import datetime  # only a stored call pays for it

    record = {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _inputs(args) -> dict:
    """The parsed arguments of a call, as its ledger record stores them."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", "store")}


def _invalid_input(
    args, command: str, message: str, error: str = "InvalidInput", code: int = EXIT_INVALID
) -> int:
    """Emit and store a typed error (``error`` names its type), invalid input
    or, with ``code`` EXIT_EXHAUSTED, an exhaustion; returns ``code``."""
    payload = {"error": error, "message": message}
    _emit(payload)
    _note(f"{'exhausted' if code == EXIT_EXHAUSTED else 'invalid input'}: {message}")
    _store_record(args, command, _inputs(args), payload)
    return code


def _below_one(args, command: str, *options: str) -> int | None:
    """The InvalidInput exit for the first of the integer ``options`` that is
    below 1, or None when each is at least 1."""
    for option in options:
        if getattr(args, option) < 1:
            return _invalid_input(args, command, f"--{option} must be >= 1")
    return None


def _bad_witness_bound(args, command: str) -> int | None:
    """The InvalidInput exit for a --bound outside 1..MAX_WITNESS_BOUND, or
    None when it is inside."""
    if (invalid := _below_one(args, command, "bound")) is not None:
        return invalid
    if args.bound > MAX_WITNESS_BOUND:
        return _invalid_input(args, command, f"--bound must be <= {MAX_WITNESS_BOUND}")
    return None


def _parse_gaussian(text: str) -> GaussianRational:
    """Accept 'a/b' or 'a/b,c/d' (real,imaginary)."""
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return GaussianRational(parse_rational(re_part), parse_rational(im_part))
    return GaussianRational(parse_rational(text), Fraction(0))


# ---------------------------------------------------------------------------
# verify-identities

def cmd_verify_identities(args) -> int:
    checks = surfaces.identity_suite(only=args.only, seed=args.seed)
    if not checks:
        message = f"--only {args.only!r} matches no check name"
        return _invalid_input(args, "verify-identities", message)
    payload = {
        "checks": [c._asdict() for c in checks],
        "all_pass": all(c.ok for c in checks),
        "count": len(checks),
    }
    _emit(payload)
    for c in checks:
        _note(f"{'PASS' if c.ok else 'FAIL'}  {c.name}")
    _store_record(args, "verify-identities", {"only": args.only}, payload)
    return EXIT_OK if payload["all_pass"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# construct

def _certificate_exit(cert: surfaces.Certificate, args) -> int:
    payload = cert.to_json()
    _emit(payload)
    _note(
        f"{cert.construction}: residual 0, "
        f"{'nontrivial' if cert.nontrivial else 'TRIVIAL'} point {cert.point.to_json()}"
    )
    _store_record(args, f"construct {cert.construction}", cert.inputs, payload)
    return EXIT_OK if cert.nontrivial else EXIT_FAIL


_SYMMETRIC_PRESETS = {
    "consani-scholten": surfaces.CONSANI_SCHOLTEN,
    "c29": surfaces.SymmetricQuinticCoeffs(
        a1=1, a2=1, a3=1, a4=1, a5=1, b1=1, b2=1, b3=1, c0=1, c1=29
    ),
}


def _symmetric_coeffs(args) -> surfaces.SymmetricQuinticCoeffs:
    if args.preset:
        return _SYMMETRIC_PRESETS[args.preset]
    if args.coeffs:
        raw = json.loads(args.coeffs)
        if not isinstance(raw, dict):
            raise ValueError("--coeffs must be a JSON object")
        for key, value in raw.items():
            if key not in surfaces.SymmetricQuinticCoeffs._fields:
                raise ValueError(f"--coeffs: unknown coefficient {key!r}")
            if type(value) is not int:
                raise ValueError(f"--coeffs: {key} must be an integer, got {value!r}")
        return surfaces.SymmetricQuinticCoeffs(**raw)
    raise ValueError("symmetric construction needs --preset or --coeffs")


def cmd_construct(args) -> int:
    family = args.family
    if family == "thm2" and (invalid := _bad_witness_bound(args, "construct thm2")) is not None:
        return invalid
    if family == "mixed" and abs(args.k) > MAX_MIXED_K:
        return _invalid_input(args, "construct mixed", f"|--k| must be <= {MAX_MIXED_K}")
    try:
        if family == "thm1":
            cert = surfaces.thm1_point(
                QuinticCoeffs(args.a, args.b, args.c),
                parse_rational(args.u),
                parse_rational(args.v),
                branch=args.branch,
            )
        elif family == "thm2":
            cert = surfaces.thm2_point(
                args.a, args.c, parse_rational(args.u), parse_rational(args.v),
                search_bound=args.bound,
            )
        elif family == "gaussian":
            cert = surfaces.gaussian_point(
                (args.a, args.b, args.c),
                parse_rational(args.y),
                _parse_gaussian(args.u),
            )
        elif family == "fifth-power":
            cert = surfaces.fifth_power_solution(
                _parse_gaussian(args.u), _parse_gaussian(args.v)
            )
        elif family == "mixed":
            cert = surfaces.mixed_point(args.c, args.f, parse_rational(args.t), args.k)
        elif family == "symmetric":
            coeffs = _symmetric_coeffs(args)
            if args.variant == "gaussian":
                cert = surfaces.symmetric_gaussian_point(
                    coeffs, parse_rational(args.t), _parse_gaussian(args.u)
                )
            else:
                seed = tuple(parse_rational(s) for s in args.seed_point.split(","))
                if len(seed) != 2:
                    raise ValueError("--seed-point needs two values U,V")
                cert = surfaces.symmetric_rational_point(
                    coeffs, parse_rational(args.t), seed, parse_rational(args.w)
                )
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(family)
    except CertificateError as exc:  # a fault of the program, not of the input
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_FAIL
    except (ValueError, ArithmeticError) as exc:  # incl. SingularCurve, PoleAtPoint
        exhausted = isinstance(exc, (FactorizationExhausted, surfaces.NoBasePointFound))
        code = EXIT_EXHAUSTED if exhausted else EXIT_INVALID
        return _invalid_input(args, f"construct {family}", str(exc), type(exc).__name__, code)
    return _certificate_exit(cert, args)


# ---------------------------------------------------------------------------
# solve-form

def _certify_witness(form, normal, solvable, witness, pulled) -> None:
    """Check in Python ints, before anything is emitted, that the witness is
    a primitive zero of the normalized form, that its pull-back is a nonzero
    zero of the input form, and that a witness comes with a solvable form."""
    if normal.value(witness) != 0 or math.gcd(*witness) != 1:
        raise CertificateError(f"{list(witness)} is not a primitive zero of {normal}")
    if not any(pulled) or form.value(pulled) != 0:
        raise CertificateError(f"pulled-back witness {list(pulled)} is not a zero of {form}")
    if not solvable:
        raise CertificateError(f"witness {list(witness)} for a form decided unsolvable")


def cmd_solve_form(args) -> int:
    if (invalid := _bad_witness_bound(args, "solve-form")) is not None:
        return invalid
    try:
        normal, back = quadform.normalize(args.a1, args.a2, args.a3, args.a4)
        solvable, conditions = quadform.represents_zero(normal)
        witness = quadform.find_zero(normal, args.bound)
        pulled = quadform.pull_back_witness(back, witness) if witness else None
        if witness:
            form = quadform.DiagonalForm(args.a1, args.a2, args.a3, args.a4)
            _certify_witness(form, normal, solvable, witness, pulled)
    except (quadform.ZeroCoefficient, FactorizationExhausted) as exc:
        code = EXIT_EXHAUSTED if isinstance(exc, FactorizationExhausted) else EXIT_INVALID
        return _invalid_input(args, "solve-form", str(exc), type(exc).__name__, code)
    except CertificateError as exc:  # a fault of the program, not of the input
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_FAIL
    payload = {
        "form": [args.a1, args.a2, args.a3, args.a4],
        "normalized": list(normal),
        "conditions": conditions,
        "solvable": solvable,
        "witness": list(witness) if witness else None,
        "witness_original_form": list(pulled) if pulled else None,
    }
    _emit(payload)
    _note(
        f"form {payload['form']} -> normalized {payload['normalized']}: "
        f"{'solvable' if solvable else 'unsolvable'}"
    )
    _store_record(args, "solve-form", {"form": payload["form"]}, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# table

def _search_row_task(task):
    d, height, bound = task
    found = elliptic.conjecture2_search(d, 0, elliptic.rationals_by_height(height), bound)
    if found is None:
        return {"D": d, "status": "exhausted"}
    t, point = found
    return {
        "D": d,
        "t": format_rational(t),
        "X": format_rational(point.x),
        "Y": format_rational(point.y),
        "status": "ok",
    }


def _run_parallel(task_fn, tasks, jobs: int):
    """Map task_fn over tasks in order, on at most one worker per task and per
    CPU; each worker gets one chunk, as one pickled round trip per row costs
    more than a row."""
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [task_fn(t) for t in tasks]
    import concurrent.futures  # only a parallel table pays for it

    chunksize = math.ceil(len(tasks) / workers)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task_fn, tasks, chunksize=chunksize))


def _rows_to_csv(rows) -> str:
    lines = ["D,t,X,Y,status"]
    for row in rows:
        lines.append(
            ",".join(
                str(row.get(k, "")) for k in ("D", "t", "X", "Y", "status")
            )
        )
    return "\n".join(lines) + "\n"


def cmd_table(args) -> int:
    if (invalid := _below_one(args, "table", "dmax", "bound", "tmax", "jobs")) is not None:
        return invalid
    if args.mode == "verify":
        rows = elliptic.load_table(args.dmax)
        if args.dmax > len(rows):  # then rows holds the whole table
            message = f"--dmax must be <= {len(rows)}, the rows of the shipped table"
            return _invalid_input(args, "table", message)
        results = _run_parallel(elliptic.verify_row, rows, args.jobs)
        all_ok = all(r["status"] == "ok" for r in results)
        exit_code = EXIT_OK if all_ok else EXIT_FAIL
    else:
        tasks = [(d, args.tmax, args.bound) for d in range(1, args.dmax + 1)]
        results = _run_parallel(_search_row_task, tasks, args.jobs)
        exhausted = [r for r in results if r["status"] == "exhausted"]
        all_ok = not exhausted
        exit_code = EXIT_OK if all_ok else EXIT_EXHAUSTED
    csv_text = _rows_to_csv(results)
    payload = {"mode": args.mode, "rows": results, "all_ok": all_ok}
    _emit(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        _note(f"wrote {args.out}")
    else:
        _note(csv_text.rstrip("\n"))
    _store_record(args, "table", {"dmax": args.dmax, "mode": args.mode}, payload)
    return exit_code


# ---------------------------------------------------------------------------
# question3

def cmd_question3(args) -> int:
    if (invalid := _below_one(args, "question3", "N")) is not None:
        return invalid
    if args.N > MAX_QUESTION3_N:
        return _invalid_input(args, "question3", f"--N must be <= {MAX_QUESTION3_N}")
    a_n, sols = quadform.question3_family(args.N)
    f = QuinticCoeffs(a_n, 0, args.c)
    points = []
    for sol in sols:
        point = Point4(*surfaces.r4_point(*map(Fraction, sol)))
        res = residual(f, point)
        if res or not point.is_integral():
            raise CertificateError(f"question-3 point {point.to_json()} fails its certificate")
        points.append(
            {
                "point": point.to_json(),
                "residual": str(res),
                "nontrivial": classify(f, point),
            }
        )
    payload = {"N": args.N, "a_N": a_n, "c": args.c, "points": points}
    _emit(payload)
    _note(f"f = X^5 + ({a_n})X^3 + ({args.c})X carries {len(points)} integer points")
    _store_record(args, "question3", {"N": args.N, "c": args.c}, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# scale-integers

def cmd_scale_integers(args) -> int:
    try:
        f = QuinticCoeffs(args.a, args.b, args.c)
        raw = json.loads(args.points) if args.points else json.load(sys.stdin)
        points = [Point4.from_json(obj) for obj in raw]
        big, scaled = scale_to_integers(f, points)
    except Exception as exc:  # noqa: BLE001 - boundary: report and exit 2
        return _invalid_input(args, "scale-integers", str(exc), type(exc).__name__)
    payload = {
        "f": {"a": f.a, "b": f.b, "c": f.c},
        "F": {"a": big.a, "b": big.b, "c": big.c},
        "points": [p.to_json() for p in scaled],
        "residuals": [str(residual(big, p)) for p in scaled],
    }
    _emit(payload)
    _note(f"scaled {len(scaled)} point(s) onto V_F with F = {big}")
    _store_record(args, "scale-integers", {"f": payload["f"]}, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _verify_identities_arguments(p) -> None:
    p.add_argument("--seed", type=int, default=0, help="seed for randomized spot checks")
    p.add_argument("--only", help="substring filter on check names")


def _construct_arguments(p) -> None:
    p.add_argument("--bound", type=int, default=60, help="thm2 base-point search bound")
    p.add_argument(
        "family",
        choices=["thm1", "thm2", "gaussian", "fifth-power", "mixed", "symmetric"],
    )
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--c", type=int, default=0)
    p.add_argument("--f", type=int, default=0)
    p.add_argument("--u", default="0")
    p.add_argument("--v", default="0")
    p.add_argument("--y", default="1")
    p.add_argument("--t", default="1")
    p.add_argument("--w", default="0")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--branch", type=int, default=1, choices=[1, -1])
    p.add_argument("--variant", choices=["gaussian", "rational"], default="gaussian")
    p.add_argument("--preset", choices=sorted(_SYMMETRIC_PRESETS))
    p.add_argument("--coeffs", help="symmetric coefficients as JSON")
    p.add_argument("--seed-point", default="3,8", help="conic seed U,V")


def _solve_form_arguments(p) -> None:
    p.add_argument("--bound", type=int, default=60, help="witness search bound")
    p.add_argument("a1", type=int)
    p.add_argument("a2", type=int)
    p.add_argument("a3", type=int)
    p.add_argument("a4", type=int)


def _table_arguments(p) -> None:
    p.add_argument("--bound", type=int, default=3000, help="search-mode numerator bound")
    p.add_argument("--dmax", type=int, default=100)
    p.add_argument("--mode", choices=["verify", "search"], default="verify")
    p.add_argument("--tmax", type=int, default=50, help="height cap for search mode")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--out", help="output file (table CSV)")


def _question3_arguments(p) -> None:
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--c", type=int, default=1)


def _scale_integers_arguments(p) -> None:
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--c", type=int, default=0)
    p.add_argument("--points", help="JSON list of points (stdin when omitted)")


# subcommand -> (help, handler, adds its arguments), in --help order
COMMANDS = {
    "verify-identities": (
        "prove the displayed identities on the formulas the constructors run",
        cmd_verify_identities,
        _verify_identities_arguments,
    ),
    "construct": ("construct one certified point", cmd_construct, _construct_arguments),
    "solve-form": ("decide a1 X1^2 + ... + a4 X4^2 = 0", cmd_solve_form, _solve_form_arguments),
    "table": ("verify or extend the specialization table", cmd_table, _table_arguments),
    "question3": ("N integer points with c fixed", cmd_question3, _question3_arguments),
    "scale-integers": (
        "clear denominators via Corollary-style scaling",
        cmd_scale_integers,
        _scale_integers_arguments,
    ),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> None:
    _, func, add_arguments = COMMANDS[name]
    parser.add_argument("--store", help="append-only JSONL result store")
    add_arguments(parser)
    parser.set_defaults(command=name, func=func)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one subcommand, standalone, for the words after its
    name; with no ``command``, the full tree of all six for a whole argv."""
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"quintic-points {command}", allow_abbrev=False)
        _add_command(parser, command)
        return parser
    parser = argparse.ArgumentParser(
        prog="quintic-points",
        description="Exact rational points on quintic hypersurfaces f(p)+f(q)=f(r)+f(s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text, allow_abbrev=False), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:  # build only the parser this call needs
        args = build_parser(argv[0]).parse_args(argv[1:])
    else:  # --help, no command or an unknown one: the full tree reports it
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover
        return EXIT_FAIL
    except ValueError as exc:  # only Python's limit on int to str, hit before any output
        if not str(exc).startswith("Exceeds the limit"):
            raise
        command = f"construct {args.family}" if args.command == "construct" else args.command
        # the advice to call sys.set_int_max_str_digits() is not a CLI user's to take
        message = str(exc).split(";")[0]
        return _invalid_input(args, command, message, "OutputTooLarge")


if __name__ == "__main__":
    sys.exit(main())
