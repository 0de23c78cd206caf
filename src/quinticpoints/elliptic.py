"""Weierstrass curves over Q with exact arithmetic: the chord-tangent group
law in long form, torsion certification, integral rescaling, naive point
search, and the specialization family

    E_t : Y^2 = X^3 - 25 t^4 X^2 - 2500 (c-f)^2 t^4

behind the shipped 100-row table of nontorsion points.

Each curve caches one integral model (``WeierstrassCurve.integral``): with u
the least positive integer that makes every u^w a_w integral, (x, y) ->
(u^2 x, u^3 y) gives the integer coefficients u^w a_w.  The discriminant,
the on-curve test, the torsion certificate and the point search all run on
it in Python ints.  The certificate rests on Nagell-Lutz (Silverman-Tate,
*Rational Points on Elliptic Curves*, II.4), which holds on any integral
model: on y^2 = x^3 + a x^2 + b x + c with integer coefficients a torsion
point has integer coordinates, so when P and its first multiples are
integral, a chord or tangent step from them whose slope is not an integer
proves that P has infinite order.

The point search is a bitset sieve in the style of Stoll's *ratpoints*: the
window of candidate integers x on the integral model is one Python int with
a bit per candidate, and each small odd prime clears the bits at which the
completed square 4x^3 + b2 x^2 + 2 b4 x + b6 is a non-square mod p.  Only
the few survivors reach an exact square test.  Everything is Python ints;
nothing can wrap."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from importlib import resources

from .exact import factor, format_rational, rational_square_root


class SingularCurve(ArithmeticError):
    """Zero discriminant: no group law."""


class PointNotOnCurve(ValueError):
    pass


class DegenerateSpecialization(ValueError):
    """t = 0 or c = f collapses the specialization family."""


# weights of a1, a2, a3, a4, a6 under (x, y) -> (u^2 x, u^3 y)
_WEIGHTS = (1, 2, 3, 4, 6)


def _b_invariants(a1, a2, a3, a4, a6):
    """The standard (b2, b4, b6, b8) of y^2 + a1 xy + a3 y = x^3 + a2 x^2 +
    a4 x + a6, for integer or rational coefficients."""
    return (
        a1 * a1 + 4 * a2,
        2 * a4 + a1 * a3,
        a3 * a3 + 4 * a6,
        a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4,
    )


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                object.__setattr__(self, name, Fraction(value))

    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @cached_property
    def integral(self) -> tuple[int, int, int, int, int, int]:
        """``integral_model(self)``, computed once per curve; the cache lives
        in the instance __dict__, which the frozen dataclass allows."""
        return integral_model(self)

    @cached_property
    def discriminant(self) -> Fraction:
        """Computed once per curve and in integers: the discriminant has
        weight 12, so it is the discriminant of the integral model divided
        by u^12."""
        u, *ints = self.integral
        b2, b4, b6, b8 = _b_invariants(*ints)
        return Fraction(-b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6, u**12)

    @property
    def is_singular(self) -> bool:
        return self.discriminant == 0

    def __str__(self):
        return (
            f"y^2 + {self.a1}*xy + {self.a3}*y = "
            f"x^3 + {self.a2}*x^2 + {self.a4}*x + {self.a6}"
        )


@dataclass(frozen=True)
class CurvePoint:
    """Affine point or the identity (point at infinity)."""

    x: Fraction | None = None
    y: Fraction | None = None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("affine points need both coordinates")
        if self.x is not None:
            if not isinstance(self.x, Fraction):
                object.__setattr__(self, "x", Fraction(self.x))
            if not isinstance(self.y, Fraction):
                object.__setattr__(self, "y", Fraction(self.y))

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def __str__(self):
        if self.is_identity:
            return "O"
        return f"({format_rational(self.x)}, {format_rational(self.y)})"


IDENTITY = CurvePoint()


def on_curve(curve: WeierstrassCurve, point: CurvePoint) -> bool:
    """Whether the point satisfies the curve's equation, decided in ints:
    with x = xn/xd, y = yn/yd and (X, Y) = (u^2 xn, u^3 yn), the equation of
    the integral model, multiplied through by xd^3 yd^2, reads
    Y xd^2 (Y xd + A1 X yd + A3 xd yd) = yd^2 (X^3 + A2 X^2 xd + A4 X xd^2 + A6 xd^3)."""
    if point.is_identity:
        return True
    u, a1, a2, a3, a4, a6 = curve.integral
    x, y = point.x, point.y
    xd, yd = x.denominator, y.denominator
    big_x, big_y = u * u * x.numerator, u**3 * y.numerator
    lhs = big_y * xd * xd * (big_y * xd + (a1 * big_x + a3 * xd) * yd)
    return lhs == yd * yd * (((big_x + a2 * xd) * big_x + a4 * xd * xd) * big_x + a6 * xd**3)


def negate(curve: WeierstrassCurve, point: CurvePoint) -> CurvePoint:
    if point.is_identity:
        return point
    return CurvePoint(point.x, -point.y - curve.a1 * point.x - curve.a3)


def _check(curve: WeierstrassCurve, *points: CurvePoint) -> None:
    if curve.is_singular:
        raise SingularCurve(str(curve))
    for pt in points:
        if not on_curve(curve, pt):
            raise PointNotOnCurve(str(pt))


def add(curve: WeierstrassCurve, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition in long Weierstrass form."""
    _check(curve, p, q)
    return _add(curve, p, q)


def _add(curve: WeierstrassCurve, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """The chord-tangent step of ``add``, for points already checked."""
    if p.is_identity:
        return q
    if q.is_identity:
        return p
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    x1, y1, x2, y2 = p.x, p.y, q.x, q.y
    if x1 == x2 and y2 == -y1 - a1 * x1 - a3:
        return IDENTITY
    if x1 != x2:
        lam = (y2 - y1) / (x2 - x1)
        nu = (y1 * x2 - y2 * x1) / (x2 - x1)
    else:
        denom = 2 * y1 + a1 * x1 + a3
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / denom
        nu = (-(x1**3) + a4 * x1 + 2 * a6 - a3 * y1) / denom
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return CurvePoint(x3, y3)


def mul(curve: WeierstrassCurve, n: int, point: CurvePoint) -> CurvePoint:
    _check(curve, point)
    if n < 0:
        n, point = -n, negate(curve, point)
    result = IDENTITY
    base = point
    while n:
        if n & 1:
            result = _add(curve, result, base)
        n >>= 1
        if n:
            base = _add(curve, base, base)
    return result


MAZUR_BOUND = 12  # largest order of a rational torsion point (Mazur 1977)


def is_nontorsion(curve: WeierstrassCurve, point: CurvePoint) -> bool:
    """True when P has infinite order, False when nP = O for some n <= 12.

    The work is in ints, on an integral short model y^2 = x^3 + a x^2 +
    b x + c.  When a1 = a3 = 0 that is the cached ``integral`` model and P
    maps to (u^2 x, u^3 y); otherwise the square is completed there as well,
    (X, Y) -> (4X, 8Y + 4 A1 X + 4 A3), onto y^2 = x^3 + b2 x^2 + 8 b4 x +
    16 b6.  By Nagell-Lutz a torsion point has integer coordinates on this
    model, so a P whose image is not integral has infinite order.  Otherwise
    kP = (k-1)P + P is built for k = 2..12 from integral points, and
    x(kP) = lam^2 - a - x((k-1)P) - x(P) is an integer iff the slope lam
    is: the first slope that is not an integer proves infinite order, and a
    vertical chord means kP = O.  By Mazur's theorem a rational torsion
    point has order at most 12, so twelve multiples other than O certify
    infinite order.
    """
    _check(curve, point)
    if point.is_identity:
        return False
    u, a1, a2, a3, a4, a6 = curve.integral
    x, y = point.x, point.y
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    if a1 == 0 and a3 == 0:
        a, b = a2, a4
        x_num, x_den, y_num, y_den = u * u * xn, xd, u**3 * yn, yd
    else:
        b2, b4, _, _ = _b_invariants(a1, a2, a3, a4, a6)
        a, b = b2, 8 * b4
        x_num, x_den = 4 * u * u * xn, xd
        y_num, y_den = 4 * (2 * u**3 * yn * xd + (a1 * u * u * xn + a3 * xd) * yd), xd * yd
    if x_num % x_den or y_num % y_den:
        return True
    x1, y1 = x_num // x_den, y_num // y_den
    xk, yk = x1, y1
    for _ in range(2, MAZUR_BOUND + 1):
        if xk == x1:
            if yk == -y1:
                return False
            num, den = (3 * x1 + 2 * a) * x1 + b, 2 * y1
        else:
            num, den = yk - y1, xk - x1
        if num % den:
            return True
        lam = num // den
        xk = lam * lam - a - xk - x1
        yk = lam * (x1 - xk) - y1
    return True


# ---------------------------------------------------------------------------
# integral model and naive search

def integral_model(curve: WeierstrassCurve) -> tuple[int, int, int, int, int, int]:
    """(u, A1, A2, A3, A4, A6) in ints: u is the least positive integer for
    which every A_w = u^w a_w is integral, and the A_w are the coefficients
    of the model that (x, y) -> (u^2 x, u^3 y) maps the curve to.  A prime
    p enters u to the power max over w of ceil(v_p(den a_w) / w), so only
    the lcm of the denominators is factored."""
    coeffs = curve.coeffs()
    dens = [(a.denominator, w) for a, w in zip(coeffs, _WEIGHTS) if a.denominator > 1]
    u = 1
    for p in factor(math.lcm(*(d for d, _ in dens))):
        k = 0
        for d, w in dens:
            v = 0
            while d % p == 0:
                d, v = d // p, v + 1
            k = max(k, -(-v // w))
        u *= p**k
    return (u, *(a.numerator * u**w // a.denominator for a, w in zip(coeffs, _WEIGHTS)))


# odd primes below 200, smallest first: most curves of the specialization
# family have no survivor left after about ten of them
_SIEVE_PRIMES = tuple(
    p for p in range(3, 200, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))
)


@lru_cache(maxsize=None)
def _squares_mod(p: int) -> bytes:
    """Residue flags mod p as ASCII digits: byte v is b"1" when v is a
    square mod p (0 included), else b"0".  Built once per prime and process."""
    flags = bytearray(b"0" * p)
    for r in range((p + 1) // 2):
        flags[r * r % p] = ord("1")
    return bytes(flags)


@lru_cache(maxsize=4096)
def _cubic_residues(p: int, c2: int, c1: int, s: int) -> bytes:
    """(4m^3 + c2 m^2 + c1 m) mod p as one byte per m, for m = s + p - 1
    down to s.  Along a specialization family c2 and c1 take few values mod
    p, so nearly every call after the first few is a cache hit."""
    return bytes([((4 * m + c2) * m + c1) * m % p for m in range(s + p - 1, s - 1, -1)])


def _square_sieve(start: int, length: int, c2: int, c1: int, c0: int) -> int:
    """Bit j is set when R(m) = 4m^3 + c2 m^2 + c1 m + c0 at m = start + j
    is a square modulo every sieve prime.  An integer square is a square
    mod every p, so no square is ever cleared."""
    mask = (1 << length) - 1
    for p in _SIEVE_PRIMES:
        flags, c0p = _squares_mod(p), c0 % p
        # byte v -> b"1" when v + c0 is a square mod p; every v is below p
        plus_c0 = (flags[c0p:] + flags[:c0p]).ljust(256, b"0")
        # the p-bit pattern of m = start .. start + p - 1, high bit first
        bits = int(_cubic_residues(p, c2 % p, c1 % p, start % p).translate(plus_c0), 2)
        width = p
        while width < length:
            bits |= bits << width
            width <<= 1
        mask &= bits
        if not mask:
            break
    return mask


def _set_bits(mask: int, start: int):
    """start + j for each set bit j of mask, ascending, in one pass."""
    digits = format(mask, "b")[::-1]
    j = digits.find("1")
    while j >= 0:
        yield start + j
        j = digits.find("1", j + 1)


def search_points(curve: WeierstrassCurve, bound: int) -> list[CurvePoint]:
    """Enumerate the integers |X| <= bound on the cached integral model
    (ascending), test for a rational Y, and map hits back as (X/u^2, Y/u^3).
    Output order is deterministic.

    Completing the square, Y^2 + (A1 X + A3) Y = X^3 + A2 X^2 + A4 X + A6
    has a rational Y iff R(X) = 4X^3 + b2 X^2 + 2 b4 X + b6 is a square, and
    R(X) is an integer.  So the window goes through ``_square_sieve`` as one
    bitset, and only the survivors' R(X) reach ``rational_square_root``.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if curve.is_singular:
        raise SingularCurve(str(curve))
    u, a1, a2, a3, a4, a6 = curve.integral
    b2, b4, b6, _ = _b_invariants(a1, a2, a3, a4, a6)
    found: list[CurvePoint] = []
    for m in _set_bits(_square_sieve(-bound, 2 * bound + 1, b2, 2 * b4, b6), -bound):
        root = rational_square_root(((4 * m + b2) * m + 2 * b4) * m + b6)
        if root is None:
            continue
        x, lin = Fraction(m, u * u), a1 * m + a3
        for sign in (1, -1) if root else (1,):
            found.append(CurvePoint(x, Fraction(-lin + sign * root.numerator, 2 * u**3)))
    return found


# ---------------------------------------------------------------------------
# the specialization family and the shipped table

def specialization_curve(c: int, f: int, t: Fraction) -> WeierstrassCurve:
    """E_t : Y^2 = X^3 - 25 t^4 X^2 - 2500 (c-f)^2 t^4."""
    t = Fraction(t)
    if c == f or t == 0:
        raise DegenerateSpecialization("need c != f and t != 0")
    n4, d4 = t.numerator**4, t.denominator**4
    return WeierstrassCurve(
        0, Fraction(-25 * n4, d4), 0, 0, Fraction(-2500 * (c - f) ** 2 * n4, d4)
    )


@dataclass(frozen=True)
class TableRow:
    d: int
    t: Fraction
    x: Fraction
    y: Fraction

    def point(self) -> CurvePoint:
        return CurvePoint(self.x, self.y)

    def curve(self) -> WeierstrassCurve:
        return specialization_curve(self.d, 0, self.t)


def _table_cell(text: str) -> Fraction:
    """A canonical table cell, "n/d" or "n", as a Fraction."""
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def load_table() -> list[TableRow]:
    """The 100 rows (D = 1..100) of specialization data shipped with the
    package: for each D a rational t and a nontorsion point on E_t.

    ``verify_row`` certifies a row in ints on the cached integral model of
    E_t: the point satisfies the cross-multiplied equation, and it or one
    of its first multiples has a non-integral image (``is_nontorsion``).
    The shipped rows need at most three multiples."""
    text = (resources.files("quinticpoints") / "data" / "table_d100.csv").read_text()
    rows = []
    for rec in csv.DictReader(text.splitlines()):
        rows.append(
            TableRow(
                d=int(rec["D"]),
                t=_table_cell(rec["t"]),
                x=_table_cell(rec["X"]),
                y=_table_cell(rec["Y"]),
            )
        )
    return rows


@dataclass(frozen=True)
class RowReport:
    d: int
    t: Fraction
    on_curve: bool
    nontorsion: bool

    @property
    def ok(self) -> bool:
        return self.on_curve and self.nontorsion

    def to_json(self) -> dict:
        return {
            "D": self.d,
            "t": format_rational(self.t),
            "on_curve": self.on_curve,
            "nontorsion": self.nontorsion,
            "status": "ok" if self.ok else "FAIL",
        }


def verify_row(row: TableRow) -> RowReport:
    curve = row.curve()
    point = row.point()
    member = on_curve(curve, point)
    nontor = member and is_nontorsion(curve, point)
    return RowReport(d=row.d, t=row.t, on_curve=member, nontorsion=nontor)


def table_verify(rows) -> list[RowReport]:
    return [verify_row(row) for row in rows]


# ---------------------------------------------------------------------------
# evidence search for the positive-rank conjecture

def rationals_by_height(max_height: int):
    """Positive rationals ordered by max(numerator, denominator), then
    denominator, then numerator.  E_t only sees t^4, so negative t are
    redundant and omitted."""
    for h in range(1, max_height + 1):
        pairs = [(h, den) for den in range(1, h + 1)] + [
            (num, h) for num in range(1, h)
        ]
        for num, den in sorted(pairs, key=lambda nd: (nd[1], nd[0])):
            if math.gcd(num, den) == 1:
                yield Fraction(num, den)


def conjecture2_search(c: int, f: int, t_candidates, bound: int):
    """First t in the given enumeration whose specialization E_t carries a
    nontorsion point that ``search_points`` finds within the bound.
    Evidence for the conjecture, never proof; None when the enumeration is
    exhausted."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if c == f:
        raise DegenerateSpecialization("need c != f")
    for t in t_candidates:
        if t == 0:
            continue
        curve = specialization_curve(c, f, t)
        if curve.is_singular:
            continue
        for point in search_points(curve, bound):
            if not point.is_identity and is_nontorsion(curve, point):
                return t, point
    return None
