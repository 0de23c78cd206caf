"""Seeded op streams for the four benchmark workloads.

Every op is one CLI call: an argv list for ``quinticpoints.cli.main`` plus
what the benchmark expects of it.  A stream is infinite; the runner takes ops
until its time is up.  The same (workload, seed) always yields the same
stream, and the program sees only the generated argv.

Parameters come from small finite sets.  ``test_perfbench.py`` runs every
member of each set through the program once, so a seed cannot draw an input
whose outcome differs from the one expected here.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE_CSV = ROOT / "src" / "quinticpoints" / "data" / "table_d100.csv"

STEP = (math.sqrt(5) - 1) / 2  # golden-ratio rotation: the most even prefixes


@dataclass(frozen=True)
class Op:
    """One CLI call and the outcome the benchmark expects."""

    family: str  # cost class, used to reason about percentiles
    argv: tuple
    exit_code: int | tuple = 0  # an int, or the allowed exit codes
    error: str | None = None  # expected typed-error name for exit 2

    @property
    def key(self) -> str:
        return " ".join(self.argv)


class LowDiscrepancy:
    """Index stream i_k = floor(n * frac(offset + k * golden)).

    Each index is uniform for a random offset, and every prefix of the
    stream covers the n choices almost evenly, so the share of each choice in
    a run barely depends on the seed or on where the run stops."""

    def __init__(self, rng: random.Random, n: int):
        self.n = n
        self.x = rng.random()

    def next(self) -> int:
        self.x = (self.x + STEP) % 1.0
        return min(int(self.x * self.n), self.n - 1)


def table_rows() -> list[tuple[int, str]]:
    """(D, t) of every row of the shipped table, read straight from the CSV."""
    with open(TABLE_CSV, newline="", encoding="utf-8") as fh:
        return [(int(rec["D"]), rec["t"]) for rec in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# construct-mix

@dataclass(frozen=True)
class Template:
    """One kind of construct-mix op: leading argv words plus axes of values.

    An axis is (flag, values).  A string flag gives ``--flag=value``, a tuple
    of flags takes a tuple value, and the empty flag makes positional words.
    The first axis of a ``heavy`` template is drawn in low-discrepancy order.
    """

    family: str
    head: tuple
    axes: tuple
    exit_code: int = 0
    error: str | None = None
    heavy: bool = False

    def argv(self, values) -> tuple:
        words = list(self.head)
        for (flag, _), value in zip(self.axes, values):
            pairs = zip(flag, value) if isinstance(flag, tuple) else [(flag, value)]
            for name, v in pairs:
                if name == "":
                    words.extend(str(x) for x in v)
                else:
                    words.append(f"--{name}={v}")
        return tuple(words)

    def op(self, values) -> Op:
        return Op(self.family, self.argv(values), self.exit_code, self.error)

    def space(self):
        """Every op this template can produce."""
        for values in itertools.product(*(vals for _, vals in self.axes)):
            yield self.op(values)


def _scale_points(x1, y1, x2, y2) -> str:
    """Two points of the form (x, y, y, x) and (x, y, x, y): on V_f for
    every f, with rational coordinates to clear."""
    pts = ((x1, y1, y1, x1), (x2, y2, x2, y2))
    return json.dumps([dict(zip("pqrs", p)) for p in pts], separators=(",", ":"))


SMALL = (-2, -1, 1, 2)
U_VALUES = ("1/2", "1", "2", "-3/2")
V_VALUES = ("1", "-1/3", "2", "3/4")
BOUNDS = (30, 45, 60)

# (a, --bound): soluble a whose thm2 call costs a similar find_zero box
# search, so the tail of construct-mix is not set by one outlier case
THM2_CASES = ((-1, 30), (-3, 30), (-7, 45), (-13, 45), (-19, 60), (-23, 60), (-37, 60))
# (a1, a2, a3, a4, --bound) for solve-form, chosen the same way; every
# coefficient factors by trial division at once
SOLVE_CASES = (
    (1, 2, 3, -5, 30),
    (1, 1, 1, -7, 45),
    (2, 3, 5, -7, 45),
    (1, -2, 3, -6, 60),
    (3, 5, -7, 11, 60),
    (1, 2, -3, -5, 45),
    (2, -3, 5, 7, 60),
)
MIXED_MAX_D = 40
SCALE_POINTS = tuple(
    _scale_points(*xs)
    for xs in (
        ("1/2", "-1/3", "2/5", "3"),
        ("-5/4", "7/6", "1/2", "1/2"),
        ("3", "2/5", "-1/3", "7/6"),
        ("2/9", "-5/4", "3/8", "-1"),
    )
)


def construct_templates() -> tuple[Template, ...]:
    rows = tuple((str(d), t) for d, t in table_rows() if d <= MIXED_MAX_D)
    return (
        Template("thm1", ("construct", "thm1"), (
            ("a", (-1, 0, 2)), ("b", SMALL), ("c", (-1, 2)),
            ("u", U_VALUES), ("v", V_VALUES), ("branch", (1, -1)))),
        Template("thm1-error", ("construct", "thm1", "--b=0", "--v=2"), (
            ("a", (1, 2, 3)), ("c", range(-2, 3)), ("u", U_VALUES)),
            2, "WrongFamily"),
        Template("thm2", ("construct", "thm2"), (
            (("a", "bound"), THM2_CASES), ("c", (-2, 0, 3)),
            ("u", ("1", "2", "1/2", "-1")), ("v", ("3", "-1/2", "5/2", "-3"))),
            heavy=True),
        Template("thm2-error", ("construct", "thm2", "--u=1", "--v=2"), (
            ("a", (-2, -8, -18, -32, -34, 1, 2, 3, 5)), ("c", (-1, 0, 3)),
            ("bound", BOUNDS)),
            2, "NotSolvable"),
        Template("gaussian", ("construct", "gaussian"), (
            ("a", (0, 1, -2)), ("b", (0, 1, -2)), ("c", (0, 1, -2)),
            ("y", ("1", "2", "1/2", "-1")), ("u", ("1", "2,1", "1/2,-1", "-1,3")))),
        Template("fifth-power", ("construct", "fifth-power"), (
            ("u", ("1", "2", "1,1", "-1,2", "1/2", "3,-1")),
            ("v", ("1", "2", "1,1", "-1,2", "1/2", "3,-1")))),
        Template("mixed", ("construct", "mixed", "--f=0"), (
            (("c", "t"), rows), ("k", (1, 2, 3)))),
        Template("symmetric-gaussian", ("construct", "symmetric", "--variant=gaussian"), (
            ("preset", ("consani-scholten", "c29")), ("t", ("2", "1/2", "-1", "3", "3/2")),
            ("u", ("1", "2", "1,1", "1/2,-1", "3")))),
        Template("symmetric-rational", (
            "construct", "symmetric", "--preset=c29", "--variant=rational", "--t=1",
            "--seed-point=3,8"), (
            ("w", ("0", "1", "2", "1/2", "-1", "3", "1/3", "-2/3", "5/4")),)),
        Template("solve-form", ("solve-form",), (
            (("", "bound"), tuple((c[:4], c[4]) for c in SOLVE_CASES)),), heavy=True),
        Template("question3", ("question3",), (("N", (1, 2, 3, 4)), ("c", range(-3, 4)))),
        Template("scale-integers", ("scale-integers",), (
            ("a", SMALL), ("b", (-1, 0, 2)), ("c", (-1, 0, 2)), ("points", SCALE_POINTS))),
    )


def construct_mix(seed: int):
    """Blocks of twelve ops, one per template, each block in a seeded order."""
    rng = random.Random(f"construct-mix:{seed}")
    templates = construct_templates()
    heavy = {
        t.family: LowDiscrepancy(rng, len(t.axes[0][1])) for t in templates if t.heavy
    }
    while True:
        block = []
        for t in templates:
            values = [rng.choice(vals) for _, vals in t.axes]
            if t.heavy:
                values[0] = t.axes[0][1][heavy[t.family].next()]
            block.append(t.op(values))
        rng.shuffle(block)
        yield from block


# ---------------------------------------------------------------------------
# identities

IDENTITY_NAMES = (
    "r1-factorization", "thm1-surface", "r4-factorization", "question3-identity",
    "gaussian-parametrization", "gaussian-residual", "fifth-power", "norm-lift",
    "mixed-h", "mixed-maps", "symmetric-g", "example1-display",
    "consani-scholten-display", "c29-display", "corollary1-scaling",
    "thm1-spotchecks",
)
IDENTITY_SEEDS = range(10)


def identities(seed: int):
    """Cycles through all 16 checks, each cycle in a fresh seeded order."""
    rng = random.Random(f"identities:{seed}")
    while True:
        for name in rng.sample(IDENTITY_NAMES, len(IDENTITY_NAMES)):
            yield Op(name, (
                "verify-identities", f"--only={name}",
                f"--seed={rng.choice(IDENTITY_SEEDS)}"))


# ---------------------------------------------------------------------------
# table workloads

VERIFY_DMAX = 100
SEARCH_DMAX = 30
SEARCH_TMAX = 4
SEARCH_BOUND = 200


def verify_op(d: int) -> Op:
    return Op("table-verify", ("table", "--mode=verify", f"--dmax={d}"))


def search_op(d: int) -> Op:
    return Op("table-search", (
        "table", "--mode=search", f"--dmax={d}", f"--tmax={SEARCH_TMAX}",
        f"--bound={SEARCH_BOUND}"), (0, 3))


def table_verify(seed: int):
    """d uniform on 1..100, in low-discrepancy order."""
    seq = LowDiscrepancy(random.Random(f"table-verify:{seed}"), VERIFY_DMAX)
    while True:
        yield verify_op(seq.next() + 1)


def table_search(seed: int):
    """d uniform on 1..30 at fixed --tmax and --bound; the rows mix hits and
    exhausted searches, so an op exits 0 or 3."""
    seq = LowDiscrepancy(random.Random(f"table-search:{seed}"), SEARCH_DMAX)
    while True:
        yield search_op(seq.next() + 1)


WORKLOADS = {
    "construct-mix": construct_mix,
    "identities": identities,
    "table-verify": table_verify,
    "table-search": table_search,
}


def stream(workload: str, seed: int):
    return WORKLOADS[workload](seed)


def take(workload: str, seed: int, n: int) -> list[Op]:
    return list(itertools.islice(stream(workload, seed), n))
