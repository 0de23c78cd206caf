"""The argparse tree that parsed the CLI before ``cli.COMMANDS`` grew its
own parser, kept as the reference that parser is compared with.

``build_parser()`` is the full tree of all six subcommands, for a whole
argv; with a ``command`` it is that subcommand's parser alone, for the words
after its name.  ``parse_args`` dispatches a whole argv between the two as
the CLI's ``main`` did.  Each namespace carries ``command`` and the handler
``func`` of ``cli.COMMANDS``, as the CLI's own does.
"""

from __future__ import annotations

import argparse
import functools

from quinticpoints import cli


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
    p.add_argument("--preset", choices=["c29", "consani-scholten"])
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
    p.add_argument("--out", help="output file (table CSV)")


def _question3_arguments(p) -> None:
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--c", type=int, default=1)


def _scale_integers_arguments(p) -> None:
    p.add_argument("--a", type=int, default=0)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--c", type=int, default=0)
    p.add_argument("--points", help="JSON list of points (stdin when omitted)")


ADD_ARGUMENTS = {
    "verify-identities": _verify_identities_arguments,
    "construct": _construct_arguments,
    "solve-form": _solve_form_arguments,
    "table": _table_arguments,
    "question3": _question3_arguments,
    "scale-integers": _scale_integers_arguments,
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> None:
    parser.add_argument("--store", help="append-only JSONL result store")
    ADD_ARGUMENTS[name](parser)
    parser.set_defaults(command=name, func=cli.COMMANDS[name][1])


@functools.cache  # a parser keeps nothing of the argvs it parses
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"quintic-points {command}", allow_abbrev=False)
        _add_command(parser, command)
        return parser
    parser = argparse.ArgumentParser(
        prog="quintic-points",
        description="Exact rational points on quintic hypersurfaces f(p)+f(q)=f(r)+f(s)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, _, _, _) in cli.COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text, allow_abbrev=False), name)
    return parser


def parse_args(argv):
    """The namespace of a whole argv as the CLI's ``main`` read it: with the
    parser of the subcommand it names, else with the full tree."""
    if argv and argv[0] in cli.COMMANDS:
        return build_parser(argv[0]).parse_args(argv[1:])
    return build_parser().parse_args(argv)
