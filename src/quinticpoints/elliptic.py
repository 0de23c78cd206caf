"""The specialization family

    E_t : Y^2 = X^3 - 25 t^4 X^2 - 2500 (c-f)^2 t^4

behind the shipped 100-row table of nontorsion points, over Q with exact
arithmetic: its least integral model in closed form, the chord-tangent
group law, torsion certification, naive point search, and the check of a
table row.

A curve is its integral model.  ``WeierstrassCurve(u, a2, a6)`` holds the
ints of Y^2 = X^3 + a2 X^2 + a6, to which a point (x, y) of the curve over
Q maps as (X, Y) = (u^2 x, u^3 y).  For t = n/m, ``integral_model`` gives
E_t's in closed form: u = m^2, or m^2/5 when 5 | m.  Points keep their
rational coordinates.  The on-curve test, the torsion certificate and the
point search run on the model in Python ints, and a table row is checked
straight from the ints of its CSV cells.  The certificate rests on
Nagell-Lutz (Silverman-Tate, *Rational Points on Elliptic Curves*, II.4),
which holds on any integral model: on Y^2 = X^3 + A2 X^2 + A6 with integer
coefficients a torsion point has integer coordinates, so when P and its
first multiples are integral, a chord or tangent step from them whose slope
is not an integer proves that P has infinite order.

The point search follows Stoll's *ratpoints*.  A few exact values of the
monic cubic R(x) of the integral model skip a window where R < 0 throughout
(``_negative_throughout``); any other window is one Python int with a bit
per candidate x, sieved by small odd primes (``_square_sieve``) before the
survivors reach an exact square test.  The specialization search applies
the real-locus test to t = n/m itself, in ints, before t or E_t is built
(``_no_real_point``).  Everything is Python ints; nothing can wrap."""

from __future__ import annotations

import math
import os
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .exact import checked_make, format_rational, rational_square_root


class PointNotOnCurve(ValueError):
    pass


class DegenerateSpecialization(ValueError):
    """t = 0 or c = f collapses the specialization family."""


class WeierstrassCurve(namedtuple("WeierstrassCurve", "u a2 a6")):
    """The integral model Y^2 = X^3 + a2 X^2 + a6, in ints, of the curve
    y^2 = x^3 + (a2/u^2) x^2 + a6/u^6, whose point (x, y) maps to (u^2 x,
    u^3 y).  ``specialization_curve`` builds E_t's."""

    __slots__ = ()


class CurvePoint(namedtuple("CurvePoint", "x y")):
    """Affine point or the identity (point at infinity)."""

    __slots__ = ()

    def __new__(cls, x=None, y=None):
        if (x is None) != (y is None):
            raise ValueError("affine points need both coordinates")
        if x is not None:
            # the group law passes Fractions, and Fraction(x) of one is slow
            if not isinstance(x, Fraction):
                x = Fraction(x)
            if not isinstance(y, Fraction):
                y = Fraction(y)
        return super().__new__(cls, x, y)

    _make = classmethod(checked_make)

    @property
    def is_identity(self) -> bool:
        return self.x is None

    def __str__(self):
        if self.is_identity:
            return "O"
        return f"({format_rational(self.x)}, {format_rational(self.y)})"


IDENTITY = CurvePoint()


def on_curve(curve: WeierstrassCurve, point: CurvePoint) -> bool:
    """Whether the point satisfies the curve's equation, decided in ints by
    ``_on_model`` on the integral model."""
    if point.is_identity:
        return True
    u, a2, a6 = curve
    x, y = point.x, point.y
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    return _on_model(u * u * xn, xd, u**3 * yn, yd, a2, a6)


def _on_model(big_x: int, xd: int, big_y: int, yd: int, a2: int, a6: int) -> bool:
    """Whether (x, y) = (xn/xd, yn/yd) maps onto the integral model: with
    (X, Y) = (u^2 xn, u^3 yn), its equation times xd^3 yd^2 reads
    Y^2 xd^3 = yd^2 (X^3 + A2 X^2 xd + A6 xd^3)."""
    rhs = (big_x + a2 * xd) * big_x * big_x + a6 * xd**3
    return big_y * big_y * xd**3 == yd * yd * rhs


def negate(curve: WeierstrassCurve, point: CurvePoint) -> CurvePoint:
    return point if point.is_identity else CurvePoint(point.x, -point.y)


def _check(curve: WeierstrassCurve, *points: CurvePoint) -> None:
    for pt in points:
        if not on_curve(curve, pt):
            raise PointNotOnCurve(str(pt))


def add(curve: WeierstrassCurve, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Chord-tangent addition (Silverman, *The Arithmetic of Elliptic Curves*, III.2.3)."""
    _check(curve, p, q)
    return _add(curve, p, q)


def _add(curve: WeierstrassCurve, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """The chord-tangent step of ``add``, for points already checked."""
    if p.is_identity:
        return q
    if q.is_identity:
        return p
    x1, y1, x2, y2 = p.x, p.y, q.x, q.y
    a2 = Fraction(curve.a2, curve.u**2)
    if x1 != x2:
        lam = (y2 - y1) / (x2 - x1)
    elif y2 == -y1:
        return IDENTITY
    else:
        lam = (3 * x1 + 2 * a2) * x1 / (2 * y1)
    x3 = lam * lam - a2 - x1 - x2
    return CurvePoint(x3, lam * (x1 - x3) - y1)


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

    The work is in ints, on the integral model Y^2 = X^3 + a2 X^2 + a6 that
    the curve is, to which P maps as (u^2 x, u^3 y).  By Nagell-Lutz a
    torsion point has integer coordinates on this model, so a P whose image
    is not integral has infinite order.  Otherwise kP = (k-1)P + P is built
    for k = 2..12 from integral points, and X(kP) = lam^2 - a2 - X((k-1)P)
    - X(P) is an integer iff the slope lam is: the first slope that is not an
    integer proves infinite order, and a vertical chord means kP = O.  By
    Mazur's theorem a rational torsion point has order at most 12, so twelve
    multiples other than O certify infinite order.
    """
    _check(curve, point)
    if point.is_identity:
        return False
    u, a2, _ = curve
    x, y = point.x, point.y
    return _nontorsion(u * u * x.numerator, x.denominator, u**3 * y.numerator, y.denominator, a2)


def _nontorsion(x_num: int, x_den: int, y_num: int, y_den: int, a2: int) -> bool:
    """``is_nontorsion`` for the image (x_num/x_den, y_num/y_den) of a point
    known to lie on the model Y^2 = X^3 + a2 X^2 + a6.  Only X is tested:
    an integral X makes Y^2 an integer, so Y is integral too."""
    if x_num % x_den:
        return True
    x1, y1 = x_num // x_den, y_num // y_den
    xk, yk = x1, y1
    for _ in range(2, MAZUR_BOUND + 1):
        if xk == x1:
            if yk == -y1:
                return False
            num, den = (3 * x1 + 2 * a2) * x1, 2 * y1
        else:
            num, den = yk - y1, xk - x1
        if num % den:
            return True
        lam = num // den
        xk = lam * lam - a2 - xk - x1
        yk = lam * (x1 - xk) - y1
    return True


# ---------------------------------------------------------------------------
# naive search

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
    """(m^3 + c2 m^2 + c1 m) mod p as one byte per m, for m = s + p - 1
    down to s.  Along a specialization family c2 and c1 take few values mod
    p, so nearly every call after the first few is a cache hit."""
    return bytes([((m + c2) * m + c1) * m % p for m in range(s + p - 1, s - 1, -1)])


def _square_sieve(start: int, length: int, c2: int, c1: int, c0: int) -> int:
    """Bit j is set when the monic cubic R(m) = m^3 + c2 m^2 + c1 m + c0 at
    m = start + j is a square modulo every prime tried.  An integer square
    is a square mod every p, so no square is ever cleared.  The primes are
    tried smallest first, and the sieve stops once at most two bits are
    left: by then another prime clears less than it costs, and
    ``search_points`` tests each survivor exactly."""
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
        if mask.bit_count() <= 2:
            break
    return mask


def _negative_throughout(lo: int, hi: int, c2: int, c1: int, c0: int) -> bool:
    """Whether the monic cubic R(m) = m^3 + c2 m^2 + c1 m + c0 is negative at
    every integer m in lo..hi, decided exactly from at most four values of R.

    R rises up to its local maximum r1 = (-c2 - sqrt(D)) / 3, D = c2^2 -
    3 c1, falls to its local minimum and rises again; when D <= 0 it rises
    throughout.  So over the integers of lo..hi, R is largest at lo, at hi,
    or at floor(r1) or ceil(r1) when they lie inside.  With s = isqrt(D),
    s <= sqrt(D) < s + 1 gives -c2 - s - 1 < 3 r1 <= -c2 - s, so k =
    (-c2 - s - 1) // 3 satisfies k < r1 <= k + 1: floor(r1) and ceil(r1)
    are among k and k + 1."""
    points = [lo, hi]
    disc = c2 * c2 - 3 * c1
    if disc > 0:
        k = (-c2 - math.isqrt(disc) - 1) // 3
        points += [m for m in (k, k + 1) if lo <= m <= hi]
    return all(((m + c2) * m + c1) * m + c0 < 0 for m in points)


def _set_bits(mask: int, start: int):
    """start + j for each set bit j of mask, ascending, in one pass."""
    digits = format(mask, "b")[::-1]
    j = digits.find("1")
    while j >= 0:
        yield start + j
        j = digits.find("1", j + 1)


def search_points(curve: WeierstrassCurve, bound: int) -> list[CurvePoint]:
    """Enumerate the integers |X| <= bound on the integral model that the
    curve is (ascending), test for a rational Y, and map hits back as
    (X/u^2, Y/u^3).  Output order is deterministic, +Y before -Y.

    Y^2 = R(X) = X^3 + A2 X^2 + A6 has a rational Y iff the integer
    R(X) is a square.  As ratpoints does, the search first looks at the
    real locus: when ``_negative_throughout`` finds R < 0 at every X of the
    window, no X can carry a point and the list is empty without a sieve.
    Otherwise the window goes through ``_square_sieve`` as one bitset, and
    only the survivors' R(X) reach ``rational_square_root``.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    u, a2, a6 = curve
    found: list[CurvePoint] = []
    if _negative_throughout(-bound, bound, a2, 0, a6):
        return found
    for m in _set_bits(_square_sieve(-bound, 2 * bound + 1, a2, 0, a6), -bound):
        root = rational_square_root((m + a2) * m * m + a6)
        if root is None:
            continue
        x = Fraction(m, u * u)
        for sign in (1, -1) if root else (1,):
            found.append(CurvePoint(x, Fraction(sign * root.numerator, u**3)))
    return found


# ---------------------------------------------------------------------------
# the specialization family and the shipped table

def integral_model(d: int, n: int, m: int) -> tuple[int, int, int]:
    """(u, A2, A6) of the least integral model Y^2 = X^3 + A2 X^2 + A6 of
    E_t, D = c - f and t = n/m in lowest terms, m > 0: a2 = -25 n^4 / m^4
    has denominator m^4 / r^2, r = 5 if 5 | m else 1, so u = m^2 / r; u^6
    a6 is integral there."""
    if d == 0 or n == 0:
        raise DegenerateSpecialization("need c != f and t != 0")
    n4, r = n**4, 5 if m % 5 == 0 else 1
    return m * m // r, -25 * n4 // r**2, -2500 * d * d * n4 * m**8 // r**6


def specialization_curve(c: int, f: int, t: Fraction) -> WeierstrassCurve:
    """E_t : Y^2 = X^3 - 25 t^4 X^2 - 2500 (c-f)^2 t^4 as the least integral
    model that ``integral_model`` gives in closed form."""
    if not isinstance(t, Fraction):
        t = Fraction(t)
    return WeierstrassCurve(*integral_model(c - f, t.numerator, t.denominator))


def _table_cell(text: str) -> tuple[int, int]:
    """A table cell, "n/d" or "n", as (num, den) ints reduced as Fraction does."""
    num, _, den = text.partition("/")
    num, den = int(num), int(den or 1)
    if den == 0:
        raise ZeroDivisionError(f"table cell {text!r} has denominator 0")
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def table_lines(n: int | None = None) -> list[str]:
    """The first n (default all) data lines of the shipped table, header checked."""
    path = os.path.join(os.path.dirname(__file__), "data", "table_d100.csv")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    header, *lines = text.splitlines()
    if header != "D,t,X,Y":
        raise ValueError(f"table header {header!r} is not 'D,t,X,Y'")
    return lines[:n]


def _table_row(line: str) -> tuple[int, Fraction, CurvePoint]:
    """One data line "D,t,X,Y" of the table as a (D, t, point) triple."""
    d, t, x, y = line.split(",")
    t, x, y = (Fraction(*_table_cell(cell)) for cell in (t, x, y))
    return int(d), t, CurvePoint(x, y)


def load_table(n: int | None = None) -> list[tuple[int, Fraction, CurvePoint]]:
    """The 100 rows (D = 1..100) of specialization data shipped with the
    package: for each D a rational t and a nontorsion point on E_t, as
    (D, t, point) triples.  With ``n``, only the first n rows are parsed.
    ``verify_row`` checks a row from its line, in ints, with no Fraction."""
    return [_table_row(line) for line in table_lines(n)]


def table_row(d: int) -> tuple[int, Fraction, CurvePoint] | None:
    """The shipped (D, t, point) row of D alone, parsed without the other
    rows; None when D has no row."""
    prefix = f"{d},"
    line = next((line for line in table_lines() if line.startswith(prefix)), None)
    return None if line is None else _table_row(line)


def verify_row(line: str) -> dict:
    """The JSON report of one table line "D,t,X,Y": whether the point lies on
    E_t and, if so, whether it has infinite order; status "ok" when both
    hold.  D = 0 or t = 0 raises DegenerateSpecialization.  One pass in ints:
    ``_on_model``, then ``is_nontorsion``'s loop on the point it admitted,
    both on the ints of ``integral_model``."""
    d, t, x, y = line.split(",")
    d = int(d)
    (n, m), (xn, xd), (yn, yd) = _table_cell(t), _table_cell(x), _table_cell(y)
    u, a2, a6 = integral_model(d, n, m)
    big_x, big_y = u * u * xn, u**3 * yn
    member = _on_model(big_x, xd, big_y, yd, a2, a6)
    nontor = member and _nontorsion(big_x, xd, big_y, yd, a2)
    return {
        "D": d,
        "t": str(n) if m == 1 else f"{n}/{m}",
        "on_curve": member,
        "nontorsion": nontor,
        "status": "ok" if nontor else "FAIL",
    }


# ---------------------------------------------------------------------------
# evidence search for the positive-rank conjecture

def rationals_by_height(max_height: int):
    """The positive rationals t = n/m of height max(n, m) <= max_height, as
    coprime int pairs (n, m), ordered by height, then m, then n: height h
    gives (h, m) for m < h, then (n, h) for n <= h.  E_t only sees t^4, so
    negative t are redundant and omitted."""
    for h in range(1, max_height + 1):
        for m in range(1, h):
            if math.gcd(h, m) == 1:
                yield h, m
        for n in range(1, h + 1):
            if math.gcd(n, h) == 1:
                yield n, h


def _no_real_point(c: int, f: int, n: int, m: int, bound: int) -> bool:
    """Whether R(X) < 0 at every integer |X| <= bound on every integral model
    of E_t (c != f, t = n/m in lowest terms, n != 0, m > 0), decided in ints
    before t or E_t is built.  When True, ``search_points`` on E_t returns []
    at this bound.

    With a2 = -N2/D2 in lowest terms, an integral model has D2 | u^2, so -A2
    >= N2 and |A6| >= D2^3 |a6|, and for X <= B, R(X) = X^2 (X + A2) + A6 <=
    max(0, B^2 (B - N2)) - D2^3 |a6|.  So R < 0 throughout when B <= N2 or
    B^2 (B - N2) < D2^3 |a6|.  With g = gcd(25, m^4), N2 = 25 n^4 / g and
    D2^3 |a6| = 2500 (c-f)^2 n^4 m^8 / g^3.  The model of ``integral_model``
    has u^2 = D2, so on it both bounds are equalities and the answer is that
    of ``_negative_throughout``."""
    n4, m4 = n**4, m**4
    g = math.gcd(25, m4)
    n2 = 25 * n4 // g
    return bound <= n2 or g**3 * bound * bound * (bound - n2) < 2500 * (c - f) ** 2 * n4 * m4 * m4


def conjecture2_search(c: int, f: int, height: int, bound: int):
    """First t = n/m of ``rationals_by_height(height)`` whose specialization
    E_t carries a nontorsion point that ``search_points`` finds within the
    bound, as (Fraction t, point).  Evidence for the conjecture, never
    proof; None when every t is exhausted.

    A pair (n, m) for which ``_no_real_point`` holds is passed over without
    building t or E_t: its window holds no point.  No other t is skipped;
    E_t is never singular, as its discriminant -16 a6 (4 a2^3 + 27 a6) is
    nonzero: a6 and 4 a2^3 + 27 a6 are both negative for t != 0 and c != f."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if c == f:
        raise DegenerateSpecialization("need c != f")
    for n, m in rationals_by_height(height):
        if _no_real_point(c, f, n, m, bound):
            continue
        t = Fraction(n, m)
        curve = specialization_curve(c, f, t)
        for point in search_points(curve, bound):
            if not point.is_identity and is_nontorsion(curve, point):
                return t, point
    return None
