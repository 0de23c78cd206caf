"""Command-line front end.

Every call has one boundary, ``_run``: a command's body returns an Outcome
or raises, and ``_run`` alone writes the outcome.  Each call writes exactly
one JSON line to stdout (stable key order, no timestamps), one human note to
stderr and, with ``--store FILE`` (or QUINTICPOINTS_STORE), one record to a
JSON-lines ledger, under the command's name ("construct thm1", ...) with
every parsed argument but --store; only the timestamp differs between
identical reruns.  An Outcome exits 0 (a nontrivial point, a decided form, a
full table), 1 (a trivial point, a failed check or table row) or 3 (table
rows with no point).  What a body raises exits by its class, in the one
table ``_TYPED_EXITS``:

- 1: CertificateError, a failed exact check of a computed result;
- 3: a thm2 base-point box with no witness (NoBasePointFound), or a
  coefficient that ``exact.factor`` could not split (FactorizationExhausted);
- 2: any other ValueError, ArithmeticError or RecursionError: invalid input,
  a degenerate construction, a path that cannot be written, or a value past
  Python's limit on int/str conversion (InvalidInput on input, OutputTooLarge
  on output).

Any other exception is a fault of the program and propagates.  Only help
(stdout, exit 0) and usage errors (stderr, exit 2) end a call before
``_run``.

Each subcommand's arguments are written once, in ``COMMANDS``.  One small
reader parses every call against that table as argparse read it, building
nothing first: it takes 0.14-0.24 ms a call, where building argparse's parser
of one subcommand and parsing with it takes 5.3-6.0 ms, about four times a
short construct call's median.  Only ``--help`` and usage errors build
argparse's parser from the table, and argparse writes their text.
``datetime`` is imported only by ``--store``.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import types
from collections import namedtuple
from fractions import Fraction

from . import __version__, elliptic, quadform, surfaces
from .exact import (
    CertificateError,
    FactorizationExhausted,
    GaussianRational,
    cut,
    format_rational,
    parse_rational,
)
from .quintic import Point4, QuinticCoeffs, scale_to_integers

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
# find_zero stops at the first shell of its box that holds a zero, so only a
# box with no zero, or a first zero on the last shell, costs O(B^2) time and
# memory.  At B = 500, as one CLI process (one core of a 2-core x86-64
# machine), solve-form 1 1 1 -7, whose box holds no zero, takes about 0.25 s
# of wall time and 40 MB of peak RSS; solve-form 1 1 1 -735137, whose
# witness lies on shell 500, takes 0.36 s and 42 MB, the slowest accepted
# call measured.
MAX_WITNESS_BOUND = 500
# A table search runs one row per D, and the costs of a row add rather than
# multiply: about 0.61 * tmax^2 pairs (n, m) of t = n/m, each screened in
# 0.5-0.65 us; a sieve of 2 * bound + 1 bits for each t the screen passes
# (the worst row took 0.02 s at bound 10^5, 0.13-0.17 s at 10^6, and 1.4 s
# and 72 MB at 10^7); and the row's output, 2.8 us and about 370 bytes held
# until the call ends, which the literal 300 charges as 300 units of bound.
# So a search's work is dmax * (tmax^2 + bound + 300).  At this bound the
# largest --tmax, --bound and --dmax (the other two at 1) end in 3.2, 0.2 and
# 0.2 s within 40 MB, each as one CLI process (one core of a 2-core x86-64
# machine).
MAX_SEARCH_WORK = 10**7


class InvalidInput(ValueError):
    """An input that a command rejects before any work: exit 2."""


# The exit of a body that raises, and the first words of its stderr note, by
# the exception's class: the first match wins, and any other exception is a
# fault of the program and propagates.
_TYPED_EXITS = (
    (CertificateError, EXIT_FAIL, "certificate failed"),
    ((FactorizationExhausted, surfaces.NoBasePointFound), EXIT_EXHAUSTED, "exhausted"),
    ((ValueError, ArithmeticError, RecursionError), EXIT_INVALID, "invalid input"),
)

# what a command returns: its stdout payload, its stderr note and its exit code
Outcome = namedtuple("Outcome", "payload note code")


def _inputs(args) -> dict:
    """The parsed arguments of a call, as its ledger record stores them."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", "store")}


def _unwritable(path: str) -> str | None:
    """Why ``path`` cannot be opened for writing, or None when it can."""
    if os.path.isdir(path):
        return "is a directory"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return "is in a directory that does not exist"
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        return "is not writable"
    return None


def _run(body, args) -> int:
    """Run the command ``body`` on ``args`` and return its exit code: the one
    place that writes a call's JSON line to stdout, its note to stderr and
    its record to the ledger.  ``body`` returns an Outcome or raises; an
    exception that ``_TYPED_EXITS`` names ends the call with the payload
    {"error": its class name, "message": its text} and its exit, and any
    other propagates.  Python's limit on int/str conversion is InvalidInput
    when CPython names the digits of the value read (str to int), else
    OutputTooLarge.  A ledger or --out path that cannot be written is an
    exit 2 before ``body`` runs; a bad ledger gets no record of it."""
    ledger = args.store or os.environ.get("QUINTICPOINTS_STORE")
    try:
        if ledger and (why := _unwritable(ledger)):
            option = "--store" if args.store else "QUINTICPOINTS_STORE"
            message, ledger = f"{option} {ledger} {why}", None
            raise InvalidInput(message)
        if getattr(args, "out", None) and (why := _unwritable(args.out)):
            raise InvalidInput(f"--out {args.out} {why}")
        payload, note, code = body(args)
        line = json.dumps(payload, sort_keys=True)
    except Exception as exc:
        exits = [(code, words) for kinds, code, words in _TYPED_EXITS if isinstance(exc, kinds)]
        if not exits:
            raise
        (code, words), message, error = exits[0], str(exc), type(exc).__name__
        if message.startswith("Exceeds the limit"):
            error = "InvalidInput" if ": value has" in message else "OutputTooLarge"
            # the advice to call sys.set_int_max_str_digits() is not a CLI user's to take
            message = message.split(";")[0]
        payload = {"error": error, "message": message}
        line = json.dumps(payload, sort_keys=True)
        note = f"{words}: {message}"
    print(line)
    print(note, file=sys.stderr)
    if ledger:
        import datetime  # only a stored call pays for it

        record = {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "command": f"construct {args.family}" if args.command == "construct" else args.command,
            "inputs": _inputs(args),
            "outputs": payload,
            "version": __version__,
        }
        with open(ledger, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return code


def _require_positive(args, *options: str) -> None:
    """Raise the InvalidInput exit for the first of the integer ``options``
    that is below 1."""
    for option in options:
        if getattr(args, option) < 1:
            raise InvalidInput(f"--{option} must be >= 1")


def _check_witness_bound(args) -> None:
    """Raise the InvalidInput exit for a --bound outside 1..MAX_WITNESS_BOUND."""
    _require_positive(args, "bound")
    if args.bound > MAX_WITNESS_BOUND:
        raise InvalidInput(f"--bound must be <= {MAX_WITNESS_BOUND}")


def _parse_gaussian(text: str) -> GaussianRational:
    """Accept 'a/b' or 'a/b,c/d' (real,imaginary)."""
    if "," in text:
        re_part, im_part = text.split(",", 1)
        return GaussianRational(parse_rational(re_part), parse_rational(im_part))
    return GaussianRational(parse_rational(text), Fraction(0))


# ---------------------------------------------------------------------------
# verify-identities

def cmd_verify_identities(args) -> Outcome:
    checks = surfaces.identity_suite(only=args.only, seed=args.seed)
    if not checks:
        raise InvalidInput(f"--only {args.only!r} matches no check name")
    payload = {
        "checks": [c._asdict() for c in checks],
        "all_pass": all(c.ok for c in checks),
        "count": len(checks),
    }
    note = "\n".join(f"{'PASS' if c.ok else 'FAIL'}  {c.name}" for c in checks)
    code = EXIT_OK if payload["all_pass"] else EXIT_FAIL
    return Outcome(payload, note, code)


# ---------------------------------------------------------------------------
# construct

_SYMMETRIC_PRESETS = {
    "consani-scholten": surfaces.CONSANI_SCHOLTEN,
    "c29": surfaces.C29,
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


def cmd_construct(args) -> Outcome:
    family = args.family
    if family == "thm2":
        _check_witness_bound(args)
    if family == "mixed" and abs(args.k) > MAX_MIXED_K:
        raise InvalidInput(f"|--k| must be <= {MAX_MIXED_K}")
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
    else:  # pragma: no cover - the parser admits only the families of COMMANDS
        raise ValueError(family)
    note = (
        f"{cert.construction}: residual 0, "
        f"{'nontrivial' if cert.nontrivial else 'TRIVIAL'} point {cert.point.to_json()}"
    )
    return Outcome(cert.to_json(), note, EXIT_OK if cert.nontrivial else EXIT_FAIL)


# ---------------------------------------------------------------------------
# solve-form

def cmd_solve_form(args) -> Outcome:
    _check_witness_bound(args)
    form = (args.a1, args.a2, args.a3, args.a4)
    normal, witness, pulled = quadform.certified_zero(*form, args.bound)
    solvable, conditions = quadform.represents_zero(normal)
    if witness and not solvable:
        raise CertificateError(f"witness {list(witness)} for a form decided unsolvable")
    payload = {
        "form": list(form),
        "normalized": list(normal),
        "conditions": conditions,
        "solvable": solvable,
        "witness": list(witness) if witness else None,
        "witness_original_form": list(pulled) if pulled else None,
    }
    note = (
        f"form {payload['form']} -> normalized {payload['normalized']}: "
        f"{'solvable' if solvable else 'unsolvable'}"
    )
    return Outcome(payload, note, EXIT_OK)


# ---------------------------------------------------------------------------
# table

def _search_row(d: int, height: int, bound: int) -> dict:
    found = elliptic.conjecture2_search(d, 0, height, bound)
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


# the columns of a table's CSV; a row without a point leaves t, X and Y blank
_CSV_COLUMNS = ("D", "t", "X", "Y", "status")


def cmd_table(args) -> Outcome:
    _require_positive(args, "dmax", "bound", "tmax")
    if args.mode == "verify":
        lines = elliptic.table_lines(args.dmax)
        if args.dmax > len(lines):  # then lines holds the whole table
            raise InvalidInput(f"--dmax must be <= {len(lines)}, the rows of the shipped table")
        results = [elliptic.verify_row(line) for line in lines]
        all_ok = all(r["status"] == "ok" for r in results)
        exit_code = EXIT_OK if all_ok else EXIT_FAIL
        # each CSV line gives its row's shipped point "X,Y", which the payload leaves out
        csv_lines = [
            f"{r['D']},{r['t']},{line.split(',', 2)[2]},{r['status']}"
            for r, line in zip(results, lines)
        ]
    else:
        if args.dmax * (args.tmax**2 + args.bound + 300) > MAX_SEARCH_WORK:
            raise InvalidInput(
                f"--dmax * (--tmax^2 + --bound + 300) must be <= {MAX_SEARCH_WORK} in search mode"
            )
        results = [_search_row(d, args.tmax, args.bound) for d in range(1, args.dmax + 1)]
        csv_lines = [",".join(str(r.get(k, "")) for k in _CSV_COLUMNS) for r in results]
        exhausted = [r for r in results if r["status"] == "exhausted"]
        all_ok = not exhausted
        exit_code = EXIT_OK if all_ok else EXIT_EXHAUSTED
    csv_text = "\n".join([",".join(_CSV_COLUMNS), *csv_lines]) + "\n"
    payload = {"mode": args.mode, "rows": results, "all_ok": all_ok}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        note = f"wrote {args.out}"
    else:
        note = csv_text.rstrip("\n")
    return Outcome(payload, note, exit_code)


# ---------------------------------------------------------------------------
# question3

def cmd_question3(args) -> Outcome:
    _require_positive(args, "N")
    if args.N > MAX_QUESTION3_N:
        raise InvalidInput(f"--N must be <= {MAX_QUESTION3_N}")
    a_n, certificates = surfaces.question3_points(args.N, args.c)
    shown = ("point", "residual", "nontrivial")
    points = [{k: v for k, v in cert.to_json().items() if k in shown} for cert in certificates]
    payload = {"N": args.N, "a_N": a_n, "c": args.c, "points": points}
    note = f"f = X^5 + ({a_n})X^3 + ({args.c})X carries {len(points)} integer points"
    return Outcome(payload, note, EXIT_OK)


# ---------------------------------------------------------------------------
# scale-integers

def cmd_scale_integers(args) -> Outcome:
    f = QuinticCoeffs(args.a, args.b, args.c)
    raw = json.loads(args.points) if args.points else json.load(sys.stdin)
    if not isinstance(raw, list):
        raise ValueError("the points must be a JSON list")
    points = [Point4.from_json(obj, i) for i, obj in enumerate(raw)]
    big, scaled, residuals = scale_to_integers(f, points)
    payload = {
        "f": {"a": f.a, "b": f.b, "c": f.c},
        "F": {"a": big.a, "b": big.b, "c": big.c},
        "points": [p.to_json() for p in scaled],
        "residuals": [str(res) for res in residuals],
    }
    note = f"scaled {len(scaled)} point(s) onto V_F with F = {big}"
    return Outcome(payload, note, EXIT_OK)


# ---------------------------------------------------------------------------
# parser

# An argument maps its name to (type, default, choices, help).  An option,
# "--name", takes one value, stored under ``_dest(name)``; a positional is
# required.  Every subcommand takes --store.  argparse %-formats a help, so a
# literal % in one is written %%.
_STORE_OPTION = {"--store": (str, None, None, "append-only JSONL result store")}

# subcommand -> (help, handler, positionals, options), in --help order
COMMANDS = {
    "verify-identities": (
        "prove the displayed identities on the formulas the constructors run",
        functools.partial(_run, cmd_verify_identities),
        {},
        {
            "--seed": (int, 0, None, "seed for randomized spot checks"),
            "--only": (str, None, None, "substring filter on check names"),
        },
    ),
    "construct": (
        "construct one certified point",
        functools.partial(_run, cmd_construct),
        {
            "family": (
                str, None, ("thm1", "thm2", "gaussian", "fifth-power", "mixed", "symmetric"), None
            ),
        },
        {
            "--bound": (int, 60, None, "thm2 base-point search bound"),
            "--a": (int, 0, None, None),
            "--b": (int, 0, None, None),
            "--c": (int, 0, None, None),
            "--f": (int, 0, None, None),
            "--u": (str, "0", None, None),
            "--v": (str, "0", None, None),
            "--y": (str, "1", None, None),
            "--t": (str, "1", None, None),
            "--w": (str, "0", None, None),
            "--k": (int, 1, None, None),
            "--branch": (int, 1, (1, -1), None),
            "--variant": (str, "gaussian", ("gaussian", "rational"), None),
            "--preset": (str, None, tuple(_SYMMETRIC_PRESETS), None),
            "--coeffs": (str, None, None, "symmetric coefficients as JSON"),
            "--seed-point": (str, "3,8", None, "conic seed U,V"),
        },
    ),
    "solve-form": (
        "decide a1 X1^2 + ... + a4 X4^2 = 0",
        functools.partial(_run, cmd_solve_form),
        {
            "a1": (int, None, None, None),
            "a2": (int, None, None, None),
            "a3": (int, None, None, None),
            "a4": (int, None, None, None),
        },
        {"--bound": (int, 60, None, "witness search bound")},
    ),
    "table": (
        "verify or extend the specialization table",
        functools.partial(_run, cmd_table),
        {},
        {
            "--bound": (int, 3000, None, "search mode: |X| window; dmax*(tmax^2+bound+300)<=10^7"),
            "--dmax": (int, 100, None, None),
            "--mode": (str, "verify", ("verify", "search"), None),
            "--tmax": (int, 50, None, "search mode: greatest height of t; see --bound"),
            "--out": (str, None, None, "output file (table CSV)"),
        },
    ),
    "question3": (
        "N integer points with c fixed",
        functools.partial(_run, cmd_question3),
        {},
        {"--N": (int, 1, None, None), "--c": (int, 1, None, None)},
    ),
    "scale-integers": (
        "clear denominators via Corollary-style scaling",
        functools.partial(_run, cmd_scale_integers),
        {},
        {
            "--a": (int, 0, None, None),
            "--b": (int, 0, None, None),
            "--c": (int, 0, None, None),
            "--points": (str, None, None, "JSON list of points (stdin when omitted)"),
        },
    ),
}

# the top level's one positional: the subcommand's name
_COMMAND_ARGUMENT = (str, None, COMMANDS, None)
# a word that starts with "-" but is a value: argparse's negative number
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _dest(option: str) -> str:
    """The namespace attribute of ``option``: "--seed-point" -> "seed_point"."""
    return option[2:].replace("-", "_")


def _help_parser(command: str | None):
    """argparse's parser of ``command``, or with None of the whole CLI, built
    from ``COMMANDS`` only to write its help and usage errors, at a width of
    80 whatever the terminal."""
    import argparse  # only help and usage errors pay for it

    formatter = functools.partial(argparse.HelpFormatter, width=80)
    if command is None:
        parser = argparse.ArgumentParser(
            prog="quintic-points",
            description="Exact rational points on quintic hypersurfaces f(p)+f(q)=f(r)+f(s)",
            formatter_class=formatter,
        )
        commands = parser.add_subparsers(metavar="command")
        for name, entry in COMMANDS.items():
            commands.add_parser(name, help=entry[0])
        return parser
    description, _, positionals, options = COMMANDS[command]
    parser = argparse.ArgumentParser(
        prog=f"quintic-points {command}", description=description, formatter_class=formatter
    )
    for name, spec in {**_STORE_OPTION, **options, **positionals}.items():
        parser.add_argument(name, choices=spec[2], help=spec[3])
    return parser


def _usage_error(command: str | None, message: str):
    """Have argparse print the usage of ``command`` and ``message`` to stderr
    and exit 2."""
    _help_parser(command).error(message)


def _is_option(word: str, options) -> bool:
    """Whether argparse reads ``word`` as an option word: one that starts
    with "-", unless it is "-", a negative number or holds a space and names
    no option before an "="."""
    if word[:1] != "-" or word == "-":
        return False
    head = word.partition("=")[0]
    if head in options or head == "--help" or word.startswith("-h"):
        return True
    return not _NEGATIVE_NUMBER.match(word) and " " not in word


def _read_help(command: str | None, word: str) -> None:
    """For the option word ``word``, which names no option of ``command``:
    print the help and exit 0 on -h (or -hh...) and --help, exit 2 on either
    with a value attached, and return on any other."""
    if word == "--help" or (word.startswith("-h") and set(word[2:]) <= {"h"}):
        _help_parser(command).print_help()
        raise SystemExit(EXIT_OK)
    if word.startswith("-h") or word.partition("=")[0] == "--help":
        _usage_error(command, f"argument -h/--help: ignored explicit argument in {cut(word)}")


def _value(command: str | None, name: str, spec, word: str):
    """``word`` read as the value of the argument ``name``."""
    kind, _, choices, _ = spec
    try:
        value = kind(word)
    except ValueError:
        _usage_error(command, f"argument {name}: invalid {kind.__name__} value: {cut(word)}")
    if choices is not None and value not in choices:
        listed = ", ".join(map(repr, choices))
        _usage_error(command, f"argument {name}: invalid choice: {cut(value)} (choose from {listed})")
    return value


def _parse_command(command: str, words) -> types.SimpleNamespace:
    """The arguments of one call of ``command``, from the words after its
    name.  Options and positionals mix in any order, an option's value
    follows it or an "=", the last of a repeated option wins, and every word
    after "--" is positional.  Help and a malformed value end the call where
    they are read; an unknown, surplus or missing argument once all are."""
    _, func, positionals, options = COMMANDS[command]
    options = {**_STORE_OPTION, **options}
    values = {_dest(name): spec[1] for name, spec in options.items()}
    unfilled = list(positionals)
    unrecognized = []
    only_positionals = False
    i = 0
    while i < len(words):
        word = words[i]
        i += 1
        if word == "--" and not only_positionals:
            only_positionals = True
        elif only_positionals or not _is_option(word, options):
            if unfilled:
                name = unfilled.pop(0)
                values[name] = _value(command, name, positionals[name], word)
            else:
                unrecognized.append(word)
        else:
            name, eq, value = word.partition("=")
            if name not in options:
                _read_help(command, word)
                unrecognized.append(word)
                continue
            if not eq:
                if i == len(words) or words[i] == "--" or _is_option(words[i], options):
                    _usage_error(command, f"argument {name}: expected one argument")
                value = words[i]
                i += 1
            values[_dest(name)] = _value(command, name, options[name], value)
    if unfilled:
        _usage_error(command, f"the following arguments are required: {', '.join(unfilled)}")
    if unrecognized:
        shown = " ".join(cut(word, str) for word in unrecognized)
        _usage_error(command, f"unrecognized arguments: {shown}")
    return types.SimpleNamespace(command=command, func=func, **values)


def _parse_argv(argv) -> types.SimpleNamespace:
    """The arguments of a whole call: a subcommand's name, then its words.
    Before the name only help is an option, and any other option word an
    error once the subcommand's words have been read for their help."""
    if argv and argv[0] in COMMANDS:
        return _parse_command(argv[0], argv[1:])
    unrecognized = []
    for i, word in enumerate(argv):
        if word == "--" or not _is_option(word, ()):
            break
        _read_help(None, word)
        unrecognized.append(word)
    else:
        _usage_error(None, "the following arguments are required: command")
    command = _value(None, "command", _COMMAND_ARGUMENT, argv[i])
    _parse_command(command, argv[i + 1:])
    shown = " ".join(cut(word, str) for word in unrecognized)
    _usage_error(None, f"unrecognized arguments: {shown}")


def build_parser(command: str | None = None) -> types.SimpleNamespace:
    """An object whose ``parse_args(words)`` reads the words after
    ``command``'s name, or with no ``command`` a whole argv.  Nothing is
    built: every rule it applies is read from ``COMMANDS``."""
    if command is None:
        return types.SimpleNamespace(parse_args=_parse_argv)
    return types.SimpleNamespace(parse_args=functools.partial(_parse_command, command))


def main(argv=None) -> int:
    args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except BrokenPipeError:  # pragma: no cover
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
