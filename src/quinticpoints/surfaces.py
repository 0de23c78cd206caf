"""Point-construction pipelines on f(p)+f(q) = f(r)+f(s) and its relatives.

Every operation here returns (or embeds) a certificate: the exact residual of
the emitted point plus a triviality verdict.  Building a :class:`Certificate`
whose residual is nonzero raises :class:`CertificateError`.  Every point is
certified in ints on its integral image, by :func:`_certificate` alone.
Each displayed formula is written once, as a private function generic over
the ring (as ``quintic.f_value`` is): every constructor evaluates it on
Fraction or Q(i) scalars and builds no polynomial, and :func:`identity_suite`
proves the same function over ``MultiPoly`` symbols.  Theorem 2, for
instance, is ``r4_point(*_conic_sweep(base, u, v))``: ``thm2-conic`` proves
that the sweep stays on its conic for a symbolic base point, and
``r4-factorization`` that (R4) carries the conic onto V_f.  Likewise
``gaussian-residual`` proves only p + q = r + s = y and G(p, y, r) = 0 for
the Q(i) coordinates, and ``r1-factorization`` that the residual on that
cross-section is (x - z)(x - y + z) G(x, y, z).  The Q(i) displays are
proved over Q: ``i`` is the variable ``I``, and :func:`_vanishes_over_qi`
reduces by I^2 = -1 at the end and asks that the numerator reduce to 0 and
the denominator not.  Both symmetric
variants run ``_conic_lines`` from a seed on their conic, (i, 0) or the
user's, and the mixed maps are ``_mixed_forward`` and ``_mixed_inverse``.
Every check of the suite is a ``_check_*`` function that returns one bool,
and only :func:`identity_suite` wraps the verdicts in :class:`IdentityCheck`
results.  ``mixed-h`` proves the identity of ``_mixed_h``, and
``mixed-maps`` only evaluates that H on the forward image.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial

from . import elliptic, quadform
from .elliptic import CurvePoint, DegenerateSpecialization
from .exact import GAUSSIAN_I, CertificateError, GaussianRational, checked_make, format_rational
from .poly import (
    FIELD,
    MultiPoly,
    PoleAtPoint,
    RationalFunction,
    as_rational_function,
    discriminant_quadratic,
    shift_of,
    substitute_all,
)
from .quintic import (
    Point4,
    QuinticCoeffs,
    classify,
    f_value,
    integral_image,
    residual,
    residual_symbolic,
)


# the square root of -1 of the Q(i) identity checks, reduced by I^2 = -1
_I = MultiPoly.variable("I")


class WrongFamily(ValueError):
    """The construction needs a different coefficient family (e.g. b != 0)."""


class DegenerateParameters(ValueError):
    """A pipeline denominator vanished; the message names the culprit."""


class NotSolvable(ValueError):
    """The ternary form behind Theorem 2 is unsolvable for this coefficient."""


class NoBasePointFound(ValueError):
    """Witness search exhausted without a base solution."""


class MapPole(ValueError):
    """A birational map hit its exceptional locus; skip to the next input."""


class DegenerateConic(ValueError):
    """The symmetric-family conic degenerates (b_{2,0} vanishes)."""


class SeedNotOnConic(ValueError):
    pass


# ---------------------------------------------------------------------------
# certificates

def _shown(value, show=str) -> str:
    """``show(value)`` or, past Python's limit on int to str, the digits of
    the longest integer in ``value`` (a scalar, or a tuple of them such as a
    Point4): a failed certificate must name what failed without failing."""
    try:
        return str(show(value))
    except ValueError:
        scalars = map(GaussianRational.of, value if isinstance(value, tuple) else (value,))
        n = max(abs(m) for z in scalars for x in (z.re, z.im) for m in (x.numerator, x.denominator))
        k = int(math.log10(n))  # floor(log10(n)), or one off near a power of 10
        return f"<{k + 1 + (n >= 10 ** (k + 1)) - (n < 10 ** k)} digits>"


class Certificate(
    namedtuple("Certificate", "construction inputs point residual nontrivial notes")
):
    """Exact evidence attached to every emitted point; a point off its
    hypersurface cannot get one.  ``point`` is as emitted, though a point on
    a V_f is certified on its integral image."""

    __slots__ = ()

    def __new__(cls, construction, inputs, point, residual, nontrivial, notes=()):
        if residual:
            message = f"residual {_shown(residual)} at {_shown(point, Point4.to_json)}"
            raise CertificateError(f"{construction}: {message}")
        return super().__new__(cls, construction, inputs, point, residual, nontrivial, notes)

    _make = classmethod(checked_make)

    def to_json(self) -> dict:
        return {
            "construction": self.construction,
            "inputs": self.inputs,
            "point": self.point.to_json(),
            "residual": str(self.residual),
            "nontrivial": self.nontrivial,
            "notes": list(self.notes),
        }


def _certificate(construction, inputs, point, equation, coeffs, notes=()) -> Certificate:
    """The one builder of a Certificate: ``point`` P gets the verdicts of ``equation``
    in ints, on d P and ``coeffs`` that ``integral_image`` scales by d^(5-k) on degree k."""
    d, big, (scaled,) = integral_image(coeffs, [point], equation.weights)
    res, nontrivial = equation.verdicts(big, scaled)
    if res:
        where = f"d*P on {equation.name}, d = {_shown(d)}, P = {_shown(point, Point4.to_json)}"
        raise CertificateError(f"{construction}: residual {_shown(res)} of {where}")
    return Certificate(construction, inputs, point, res, nontrivial, tuple(notes))


def _quintic_verdicts(coeffs, point):
    """``residual`` and ``classify`` for any (a, b, c), f once per coordinate."""
    f = {v: f_value(*coeffs, v) for v in point}.__getitem__
    return residual(f, point), classify(f, point)


def _mixed_verdicts(coeffs, point):
    """F(p)+G(q)-F(r)-G(s), F = x^5+cx and G = x^5+fx for (c, f) = ``coeffs``;
    trivial when the sides (F(p), G(q)) and (F(r), G(s)) share a term."""
    Fp, Gq, Fr, Gs = (f_value(0, 0, k, v) for k, v in zip(coeffs * 2, point))
    return Fp + Gq - Fr - Gs, point.p != point.r and point.q != point.s and Fp != Fr


def _symmetric_verdicts(coeffs, point):
    """f(p,q) - f(r,s); trivial when {p, q} = {r, s}, as f is symmetric."""
    f, (p, q, r, s) = SymmetricQuinticCoeffs(*coeffs).f_eval, point
    return f(p, q) - f(r, s), {p, q} != {r, s}


_Equation = namedtuple("_Equation", "name weights verdicts")
_V_F = _Equation("V_F", (2, 3, 4), _quintic_verdicts)
_MIXED = _Equation("F(p)+G(q) = F(r)+G(s)", (4, 4), _mixed_verdicts)
_SYMMETRIC = _Equation("f(p,q) = f(r,s)", (4, 3, 2, 1, 0, 2, 1, 0, 0, 1), _symmetric_verdicts)


def _reduce_square(poly: MultiPoly, var: str, rhs) -> MultiPoly:
    """Eliminate powers var^k, k >= 2, using var^2 = rhs (a scalar or a
    MultiPoly free of var): in one pass, var^(2j + r) becomes var^r rhs^j."""
    if poly.degree(var) < 2:
        return poly
    shift = shift_of(var)
    by_j: dict[int, dict] = {}
    for key, coeff in poly.packed.items():
        j = (key >> shift & FIELD) // 2
        by_j.setdefault(j, {})[key - (2 * j << shift)] = coeff
    result, power = MultiPoly.zero(), 1  # power = rhs^j
    for j in range(max(by_j) + 1):
        if j:
            power = power * rhs
        if j in by_j:
            result = result + MultiPoly.from_packed(by_j[j], poly.bound) * power
    return result


def _vanishes_over_qi(expr) -> bool:
    """Whether ``expr``, a rational function over Q[I], is 0 in Q(i) with
    I = i: its numerator reduces to 0 under I^2 = -1 and its denominator does
    not.  A denominator divisible by I^2 + 1 is 0 in Q(i), so it fails."""
    expr = as_rational_function(expr)
    num, den = (_reduce_square(part, "I", -1) for part in (expr.num, expr.den))
    return num.is_zero and not den.is_zero


# ---------------------------------------------------------------------------
# Theorem 1: the unirational elliptic surface for b != 0
#
# Cross-section p=x, q=y-x, r=z, s=y-z turns the residual into
# (x-z)(x-y+z)G(x,y,z); solving G = 0 in z needs w^2 = Delta(x,y), and that
# surface maps to E: Y^2 = X^3 - 75a^2 X - 125(5 b^2 t^2 + 10 b^2 + 2 a^3).
# (The source text prints 5bt^2 in E; the ansatz coefficients and the
# transport identity force 5 b^2 t^2, which is what everything here uses.)

def _surface_g():
    x, y, z, a, b = MultiPoly.variables("x y z a b")
    return 2 * b + 3 * a * y + 5 * x**2 * y - 5 * x * y**2 + 5 * y**3 - 5 * y**2 * z + 5 * y * z**2


def _surface_delta():
    x, y, a, b = MultiPoly.variables("x y a b")
    return -5 * y * (15 * y**3 + 20 * x * y * (x - y) + 12 * a * y + 8 * b)


def _e_polynomial():
    """F(X, Y, t) = Y^2 - X^3 + 75 a^2 X + 125(5 b^2 t^2 + 10 b^2 + 2 a^3)."""
    X, Y, t, a, b = MultiPoly.variables("X Y t a b")
    return Y**2 - X**3 + 75 * a**2 * X + 625 * b**2 * t**2 + 1250 * b**2 + 250 * a**3


def _surface_map(a, b, X, Y, t):
    """(X, Y, t) on E to (x, y, w) on w^2 = Delta(x, y)."""
    shift = X + 5 * a
    return -5 * b * (t + 1) / shift, -10 * b / shift, 20 * b * Y / (shift * shift)


def _ansatz_values(a, b, u, v):
    """(R3): the unique (P, Q, R, S) killing the T^2..T^5 coefficients, plus
    the root T of what remains."""
    p = Fraction(25, 3) * (u * u - 3 * v * v)
    q = 15 * u
    r = 50 * (u * u - v * v)
    # 30bv != 0: thm1_point refuses b = 0 and v = 0, and on symbols it is never 0
    s = (25 * u**4 - 450 * u**2 * v**2 - 75 * v**4 - 9 * a * a) / (30 * b * v)
    t_den = 30 * (5 * a - p) * (5 * a + p) * u
    if t_den == 0:
        raise DegenerateParameters("root denominator 30(5a-p)(5a+p)u vanishes")
    t_num = 250 * a**3 + 1250 * b * b + 75 * a * a * p - p**3 + 625 * b * b * s * s
    return p, q, r, s, -t_num / t_den


def _r2_point(b, u, v, P, Q, R, S, T):
    """(R2): (X, Y, 5bt) on E from the ansatz (P, Q, R, S) and T, with 5bt in
    place of t so that no ring needs to divide by 5b."""
    return T * T + 10 * u * T + P, T**3 + Q * T * T + R * T, v * T * T + 5 * b * S


def thm1_point(fq: QuinticCoeffs, u, v, branch: int = 1) -> Certificate:
    """Two-parameter rational point on V_f for b != 0.

    Runs the full pipeline: ansatz root T, the point (X, Y, t) on E, the
    inverse change of variables to (x, y, w) on w^2 = Delta, and the root
    z = (5y^2 + branch*w)/(10y) of G.  A nonzero residual raises
    CertificateError.
    """
    if fq.b == 0:
        raise WrongFamily("Theorem 1 pipeline needs b != 0")
    if branch not in (1, -1):
        raise ValueError("branch must be +1 or -1")
    a, b, c = fq.a, fq.b, fq.c
    u = Fraction(u)
    v = Fraction(v)
    if u == 0:
        raise DegenerateParameters("u = 0 kills the root denominator 30(5a-p)(5a+p)u")
    if v == 0:
        raise DegenerateParameters("v = 0 kills the ansatz denominator 30bv")
    *ansatz, T = _ansatz_values(a, b, u, v)
    X, Y, five_bt = _r2_point(b, u, v, *ansatz, T)
    t = five_bt / (5 * b)
    if X + 5 * a == 0:
        raise DegenerateParameters("X + 5a = 0: surface map pole")
    x, y, w = _surface_map(a, b, X, Y, t)
    z = (5 * y * y + branch * w) / (10 * y)
    return _certificate(
        "thm1",
        {"a": a, "b": b, "c": c, "u": str(u), "v": str(v), "branch": branch},
        Point4(x, y - x, z, y - z),
        _V_F, (a, b, c),
    )


# ---------------------------------------------------------------------------
# Theorem 2: the ternary-conic route for f = X^5 + aX^3 + cX, a < 0

def r4_point(x, y, z):
    """(p,q,r,s) = ((-x+y+3z)/5, (2x+y)/5, 3y/5, (x-y+3z)/5)."""
    return (
        (-x + y + 3 * z) / 5,
        (2 * x + y) / 5,
        3 * y / 5,
        (x - y + 3 * z) / 5,
    )


def _conic_sweep(base, u, v):
    """The second meet of the line through ``base`` = (x0, y0, z0) with
    direction (u, v, 1) and the conic x^2 + 2y^2 + 3z^2 through the base."""
    x0, y0, z0 = base
    t = -2 * (u * x0 + 2 * v * y0 + 3 * z0) / (u * u + 2 * v * v + 3)
    return x0 + u * t, y0 + v * t, z0 + t


def _thm2_coords(base, u, v):
    """The Theorem 2 family (p, q, r, s)(u, v) through a base point of
    x^2 + 2y^2 + 3z^2 = -5a."""
    return r4_point(*_conic_sweep(base, u, v))


@lru_cache(maxsize=128)
def thm2_parametrize(a: int, search_bound: int = 60):
    """Two-parameter solution of f(p)+f(q)=f(r)+f(s) for f = X^5+aX^3+cX:
    the map (u, v) -> (p, q, r, s), over any ring, composing the (R4)
    substitution with the lines through a base point of x^2+2y^2+3z^2 = -5a.
    ``thm2-conic`` and ``r4-factorization`` prove it for every base point."""
    if not quadform.ternary_solvable(a):
        raise NotSolvable(f"x^2+2y^2+3z^2 = {-5 * a} has no rational solution")
    base = quadform.ternary_base_solution(a, search_bound)
    if base is None:
        raise NoBasePointFound(
            f"no base point on x^2+2y^2+3z^2 = {-5 * a} within bound {search_bound}"
        )
    return partial(_thm2_coords, base)


def thm2_point(a: int, c: int, u, v, search_bound: int = 60) -> Certificate:
    """Concrete rational point from the Theorem 2 family at (u, v)."""
    u = Fraction(u)
    v = Fraction(v)
    return _certificate(
        "thm2",
        {"a": a, "c": c, "u": str(u), "v": str(v)},
        Point4(*thm2_parametrize(a, search_bound)(u, v)),
        _V_F, (a, 0, c),
    )


def question3_points(n: int, c: int) -> tuple[int, list[Certificate]]:
    """a_N and Question 3's N certified integral points on X^5 + a_N X^3 + cX."""
    a_n, triples = quadform.question3_family(n)
    points = [Point4(*r4_point(*map(Fraction, triple))) for triple in triples]
    if stray := next((point for point in points if not point.is_integral()), None):
        raise CertificateError(f"question-3 point {stray.to_json()} is not integral")
    return a_n, [_certificate("question3", {}, point, _V_F, (a_n, 0, c)) for point in points]


# ---------------------------------------------------------------------------
# Q(i)-rational points (works for every f, even a = b = c = 0)

def _gaussian_coords(a, b, y, u, i):
    """The displayed Q(i) parametrization (p, q, r, s)(y, u) of V_f; ``i`` is
    the ring's square root of -1."""
    den = 20 * y * (u - 5 * i * y * y)
    core = 60 * a * y * y + 40 * b * y
    y4 = y**4
    return (
        -i * (u * u + 75 * y4 + core) / den,
        i * (u * u - 20 * i * y * y * u - 25 * y4 + core) / den,
        (u * u + 10 * (1 - i) * y * y * u - 25 * (3 + 2 * i) * y4 - core) / den,
        -(u * u - 10 * (1 + i) * y * y * u - 25 * (3 - 2 * i) * y4 - core) / den,
    )


def gaussian_point(coeffs, y, u) -> Certificate:
    """Q(i)-rational point on V_f from the curve-over-Q(i)(y) parametrization.

    ``coeffs`` is an (a, b, c) triple; unlike the other factories, a = b = c
    = 0 is allowed (the equal-fifth-powers case).
    """
    a, b, c = coeffs
    y = Fraction(y)
    u = GaussianRational.of(u)
    if y == 0:
        raise PoleAtPoint("y = 0 is a pole of the parametrization")
    try:
        p, q, r, s = _gaussian_coords(a, b, y, u, GAUSSIAN_I)
    except ZeroDivisionError:
        raise PoleAtPoint("u = 5iy^2 is a pole of the parametrization") from None
    notes = []
    if a == 0 and b == 0:
        notes.append("a = b = 0: the image is a Q(i)-rational curve, not a surface")
    return _certificate(
        "gaussian",
        {"a": a, "b": b, "c": c, "y": str(y), "u": u.to_json()},
        Point4(p, q, r, s),
        _V_F, (a, b, c),
        notes,
    )


def _fifth_power_coords(u, v, i):
    """The displayed homogeneous solution (p, q, r, s)(u, v) of
    p^5 + q^5 = r^5 + s^5; ``i`` is the ring's square root of -1."""
    return (
        u * u + 75 * v * v,
        -(u * u) + 20 * i * u * v + 25 * v * v,
        i * u * u + 10 * (1 + i) * u * v + 25 * (2 - 3 * i) * v * v,
        -(i * u * u) - 10 * (1 - i) * u * v + 25 * (2 + 3 * i) * v * v,
    )


def fifth_power_solution(u, v) -> Certificate:
    """Homogeneous Q(i) solution of p^5 + q^5 = r^5 + s^5."""
    u = GaussianRational.of(u)
    v = GaussianRational.of(v)
    return _certificate(
        "fifth-power",
        {"u": u.to_json(), "v": v.to_json()},
        Point4(*_fifth_power_coords(u, v, GAUSSIAN_I)),
        _V_F, (0, 0, 0),
    )


# ---------------------------------------------------------------------------
# mixed pairs F(p) + G(q) = F(r) + G(s)

def _uv_coords(t, U, V):
    """The substitution (t - U/V, U/V, t - 1/V, 1/V) shared by the mixed and
    the symmetric quintics."""
    return t - U / V, U / V, t - 1 / V, 1 / V


def _mixed_h(a, b, c, d, e, f, U, V, t):
    """H(U, V, t), the sum of its ten displayed terms a_{i,j} U^i V^j: for
    F(x) = x^5+ax^3+bx^2+cx and G(x) = x^5+dx^3+ex^2+fx, with p = t - U/V,
    q = U/V, r = 1/V and s = t - 1/V,

        V^4 (F(p) + G(q) - F(r) - G(s)) + (tV - U - 1) H(U, V, t) = 0."""
    five_t = 5 * t
    return (
        five_t * U**3
        - five_t * U * U
        + five_t * U
        - five_t
        + (-a + d - 5 * t**2) * U * U * V
        + (a - d) * U * V
        + (-a + d + 5 * t**2) * V
        + (b + e + (2 * a + d) * t + 5 * t**3) * U * V * V
        + (-b - e - (a + 2 * d) * t - 5 * t**3) * V * V
        + (f - c + (e - b) * t + (d - a) * t**2) * V**3
    )


def _mixed_forward(D, X, Y, t):
    """The forward map (U, V)(X, Y, t) from E_{F,G}: Y^2 = X^3 - 25 t^4 X^2
    - 2500 D^2 t^4 to S_{F,G}, for F = x^5+cx, G = x^5+fx and D = c - f.

    The denominator's cubic term is read as -X^3 (the printed lowercase -x^3
    is a typo), and the V component carries +10tX(...) (the printed leading
    minus is inconsistent with the printed inverse); ``_check_mixed_maps``
    certifies both readings."""
    den = 50 * t**4 * (100 * D * D - 10 * D * X + X * X) - X**3
    return (
        (50 * t**4 * X * X + 100 * t * t * Y * D - X**3) / den,
        10 * t * X * (Y - 5 * t * t * (10 * D - X)) / den,
    )


def _mixed_inverse(D, U, V, t):
    """The inverse map (X, Y)(U, V, t) from S_{F,G} back to E_{F,G}."""
    return (
        10 * D * t * V / (U - 1),
        -10 * D * t
        * (D * V**3 - 5 * t * t * (U - 1) * V * (t * V - U) - 5 * t * (U - 1) ** 2 * U)
        / (U - 1) ** 2,
    )


# Binding D costs next to nothing; the cache stays because the benchmark's
# traced runs read its cache_info().
@lru_cache(maxsize=256)
def mixed_special_maps(c: int, f: int):
    """The explicit birational maps between S_{F,G} (F = x^5+cx, G = x^5+fx)
    and E_{F,G}, over any ring: the pair (forward, inverse) of
    ``_mixed_forward`` and ``_mixed_inverse`` bound to D = c - f."""
    D = c - f
    if D == 0:
        raise DegenerateSpecialization("c = f")
    return partial(_mixed_forward, D), partial(_mixed_inverse, D)


def mixed_point(
    c: int, f: int, t, k: int, point: CurvePoint | None = None
) -> Certificate:
    """Rational point on F(p)+G(q) = F(r)+G(s) from the k-th multiple of a
    nontorsion point on the specialization E_t (table row for D = c-f when no
    point is supplied)."""
    D = c - f
    if D == 0:
        raise DegenerateSpecialization("c = f")
    t = Fraction(t)
    curve = elliptic.specialization_curve(c, f, t)
    if point is None:
        row = elliptic.table_row(D)
        if row is None or row[1] != t:
            raise ValueError(
                f"no shipped table row for D = {D} at t = {t}; pass a point explicitly"
            )
        point = row[2]
    pk = elliptic.mul(curve, k, point)  # raises PointNotOnCurve for a foreign point
    if pk.is_identity:
        raise MapPole(f"{k}*P is the identity")
    forward, _ = mixed_special_maps(c, f)
    try:
        U, V = forward(pk.x, pk.y, t)
    except ZeroDivisionError:
        raise MapPole(
            f"forward map pole at k={k}: denominator vanishes at X = {pk.x}, t = {t}"
        ) from None
    if V == 0:
        raise MapPole(f"V = 0 at k={k}")
    if U == 1:
        raise MapPole(f"U = 1 at k={k} (q = r)")
    if t * V - U - 1 == 0:
        raise MapPole(f"tV - U - 1 = 0 at k={k} (degenerate factor)")
    p, q, s, r = _uv_coords(t, U, V)
    inputs, notes = {"c": c, "f": f, "t": str(t), "k": k}, (f"(U,V) preimage: ({U}, {V})",)
    return _certificate("mixed", inputs, Point4(p, q, r, s), _MIXED, (c, f), notes)


# ---------------------------------------------------------------------------
# symmetric quintics f(p, q) = f(r, s)

class SymmetricQuinticCoeffs(
    namedtuple("SymmetricQuinticCoeffs", "a1 a2 a3 a4 a5 b1 b2 b3 c0 c1", defaults=(0,) * 10)
):
    """f(x,y) = sum a_i (x^i + y^i) + xy sum b_i (x^i + y^i)
    + x^2 y^2 (c0 (x+y) + c1), integer coefficients, each 0 by default."""

    __slots__ = ()

    def f_eval(self, x, y):
        a, b = self[:5], self[5:8]
        # x^i and y^i up to the highest i of a nonzero a_i or b_i, each one
        # product from the last
        top = max((i for ks in (a, b) for i, k in enumerate(ks, 1) if k), default=1)
        xs, ys = [x], [y]
        while len(xs) < top:
            xs.append(xs[-1] * x)
            ys.append(ys[-1] * y)
        total = 0
        for ai, xi, yi in zip(a, xs, ys):
            if ai:
                total = total + ai * (xi + yi)
        xy = x * y
        for bi, xi, yi in zip(b, xs, ys):
            if bi:
                total = total + bi * xy * (xi + yi)
        if self.c0 or self.c1:
            total = total + xy * xy * (self.c0 * (x + y) + self.c1)
        return total

    def b20_brackets(self) -> tuple[int, int]:
        """b_{2,0} = first + t * second."""
        return (
            2 * self.a4 - 2 * self.b2 + self.c1,
            5 * self.a5 - 3 * self.b3 + self.c0,
        )

    def b20_at(self, t):
        k0, k1 = self.b20_brackets()
        return k0 + k1 * t

    def b02_at(self, t):
        return (
            2 * self.a2
            + (3 * self.a3 - self.b1) * t
            + (4 * self.a4 - self.b2) * t * t
            + (5 * self.a5 - self.b3) * t**3
        )

    def conic_at(self, t, U, V):
        """G(U, V, t) = b_{2,0}(U^2 + 1) - t b_{2,0}(UV + V) + b_{0,2} V^2."""
        b20 = self.b20_at(t)
        return b20 * (U * U + 1) - t * b20 * (U * V + V) + self.b02_at(t) * V * V


CONSANI_SCHOLTEN = SymmetricQuinticCoeffs(a1=-5, a2=5, a5=1, b1=5, b2=-5)
C29 = SymmetricQuinticCoeffs(a1=1, a2=1, a3=1, a4=1, a5=1, b1=1, b2=1, b3=1, c0=1, c1=29)


def _symmetric_point_from_uv(coeffs, t, U, V, construction, inputs):
    """Map a conic point (U, V) through the substitution and certify.

    The coordinates are emitted as (t - U/V, U/V, t - 1/V, 1/V); with f
    symmetric the (r, s) order is immaterial and this matches the printed
    examples."""
    if not V:
        raise PoleAtPoint("V = 0")
    return _certificate(construction, inputs, Point4(*_uv_coords(t, U, V)), _SYMMETRIC, coeffs)


def _conic_lines(b20, b02, t, seed, w):
    """(U, V)(w): the second meet of the conic G(U, V, t) = 0 with the line of
    slope w, U - U0 = w (V - V0), through its point ``seed`` = (U0, V0).

    On the line, G(U0 + ws, V0 + s) = G(U0, V0) + B s + A s^2, where B is the
    gradient of G at the seed dotted with (w, 1); the other root is s = -B/A."""
    U0, V0 = seed
    A = b20 * w * w - t * b20 * w + b02
    B = (2 * b20 * U0 - t * b20 * V0) * w - t * b20 * (U0 + 1) + 2 * b02 * V0
    s = -B / A
    return U0 + w * s, V0 + s


def symmetric_gaussian_point(coeffs: SymmetricQuinticCoeffs, t, u) -> Certificate:
    """Q(i)-rational point on f(p,q) = f(r,s) on the line of slope u through
    the conic point (i, 0)."""
    t = Fraction(t)
    uq = GaussianRational.of(u)
    k0, k1 = coeffs.b20_brackets()
    if k0 == 0 and k1 == 0:
        raise DegenerateConic("b_{2,0} = 0 identically (the open degenerate family)")
    b20 = coeffs.b20_at(t)
    if b20 == 0:
        raise DegenerateConic(f"b_{{2,0}}(t) = 0 at t = {t}")
    try:
        U, V = _conic_lines(b20, coeffs.b02_at(t), t, (GAUSSIAN_I, 0), uq)
    except ZeroDivisionError:
        raise PoleAtPoint("parametrization denominator vanishes at this u") from None
    return _symmetric_point_from_uv(
        coeffs,
        GaussianRational.of(t),
        U,
        V,
        "symmetric-gaussian",
        {"coeffs": coeffs._asdict(), "t": str(t), "u": uq.to_json()},
    )


def symmetric_rational_point(
    coeffs: SymmetricQuinticCoeffs, t0, seed: tuple, w
) -> Certificate:
    """Rational point on f(p,q) = f(r,s) on the line of slope w through a
    rational seed on the conic C_{t0}."""
    t0 = Fraction(t0)
    w = Fraction(w)
    U0, V0 = Fraction(seed[0]), Fraction(seed[1])
    b20 = coeffs.b20_at(t0)
    if b20 == 0:
        raise DegenerateConic(f"b_{{2,0}} vanishes at t = {t0}")
    if coeffs.conic_at(t0, U0, V0) != 0:
        shown = f"{format_rational(U0)},{format_rational(V0)}"  # --seed-point syntax
        raise SeedNotOnConic(f"seed {shown} is not on the conic at t = {t0}")
    try:
        U, V = _conic_lines(b20, coeffs.b02_at(t0), t0, (U0, V0), w)
    except ZeroDivisionError:
        raise PoleAtPoint("parametrization denominator vanishes at this w") from None
    return _symmetric_point_from_uv(
        coeffs,
        t0,
        U,
        V,
        "symmetric-rational",
        {"coeffs": coeffs._asdict(), "t0": str(t0), "seed": [str(Fraction(s)) for s in seed], "w": str(w)},
    )


# ---------------------------------------------------------------------------
# the identity suite

def _check_r1_factorization() -> bool:
    res = residual_symbolic()
    x, y, z = MultiPoly.variables("x y z")
    sub = {
        "p": as_rational_function(x),
        "q": as_rational_function(y - x),
        "r": as_rational_function(z),
        "s": as_rational_function(y - z),
    }
    lhs = res.substitute(sub)
    rhs = (x - z) * (x - (y - z)) * _surface_g()
    return (lhs - rhs).is_identically_zero


def _check_thm1_surface() -> bool:
    """The structural facts behind Theorem 1, with a and b free: disc_z(G)
    = Delta(x, y); the maps (x, y, w) <-> (X, t, Y) are mutually inverse and
    carry w^2 = Delta to E (whose constant carries 5 b^2 t^2; the printed
    5bt^2 fails); the ansatz expands to the displayed a_0..a_5; (R3)
    annihilates a_2..a_5; and the displayed T is the root of a_0 + a_1 T."""
    delta = _surface_delta()
    if discriminant_quadratic(_surface_g(), "z") != delta:
        return False

    X, Y, t, a, b = (MultiPoly.variable(n) for n in ("X", "Y", "t", "a", "b"))
    x, y, w = (MultiPoly.variable(n) for n in ("x", "y", "w"))
    fwd = dict(zip("xyw", _surface_map(a, b, X, Y, t)))
    inv = {
        "X": RationalFunction(-5 * (2 * b + a * y), y),
        "t": RationalFunction(2 * x - y, y),
        "Y": RationalFunction(5 * b * w, y * y),
    }
    *inv_back, pulled = substitute_all([*inv.values(), w * w - delta], fwd)
    round_trips = zip([*inv, *fwd], [*inv_back, *substitute_all(fwd.values(), inv)])
    if any(got != as_rational_function(MultiPoly.variable(name)) for name, got in round_trips):
        return False
    if pulled != RationalFunction(400 * b * b, (X + 5 * a) ** 4) * _e_polynomial():
        return False

    # ansatz: collect F(R2-substituted) in T and compare with the displayed
    # coefficients, then check the (R3) values annihilate a2..a5
    T, P, Q, R, S, uu, vv = (
        MultiPoly.variable(n) for n in ("T", "P", "Q", "R", "S", "u", "v")
    )
    Xs, Ys, five_bt = _r2_point(b, uu, vv, P, Q, R, S, T)
    # 625 b^2 t^2 is 25 (5 b t)^2
    F_sub = (
        Ys * Ys
        - Xs**3
        + 75 * a * a * Xs
        + 25 * five_bt**2
        + 1250 * b * b
        + 250 * a**3
    )
    displayed = {
        0: 250 * a**3 + 1250 * b * b + 75 * a * a * P - P**3 + 625 * b * b * S * S,
        1: 30 * (5 * a - P) * (5 * a + P) * uu,
        2: 75 * a * a - 3 * P * P + R * R - 300 * P * uu * uu + 250 * b * S * vv,
        3: 2 * (Q * R - 30 * P * uu - 500 * uu**3),
        4: -3 * P + Q * Q + 2 * R - 300 * uu * uu + 25 * vv * vv,
        5: 2 * (Q - 15 * uu),
    }
    if F_sub.degree("T") != 5 or any(
        F_sub.coefficient_of("T", k) != displayed[k] for k in range(6)
    ):
        return False

    *r3_values, t_root = _ansatz_values(a, b, uu, vv)
    r3 = dict(zip("PQRS", r3_values))
    a0_sub, a1_sub, *higher = substitute_all(displayed.values(), r3)
    if not all(a_sub.is_identically_zero for a_sub in higher):
        return False
    remaining = a0_sub + a1_sub * t_root
    return remaining.is_identically_zero and not a1_sub.is_identically_zero


def _check_r4_factorization() -> bool:
    res = residual_symbolic()
    x, y, z, a = MultiPoly.variables("x y z a")
    lhs = res.substitute(dict(zip("pqrs", r4_point(x, y, z)), b=0)) * 625
    rhs = (
        6
        * (x - y)
        * (x + 2 * y - 3 * z)
        * (x + 2 * y + 3 * z)
        * (x * x + 2 * y * y + 3 * z * z + 5 * a)
    )
    return (lhs - rhs).is_identically_zero


def _check_question3_identity() -> bool:
    k = MultiPoly.variable("k")
    lhs = (
        (2 * k + 3) ** 2
        + 2 * (k * k + 3 * k - 2) ** 2
        + 3 * (k * k - 2 * k - 1) ** 2
    )
    return lhs == 5 * (k * k + 2) ** 2


def _check_gaussian_parametrization() -> bool:
    """The parametrization's p is the x of a point on w^2 = Delta(x, y)."""
    a, b, y, u = MultiPoly.variables("a b y u")
    i = _I
    x = _gaussian_coords(a, b, y, u, i)[0]
    w = (u * u - 10 * i * u * y * y - 75 * y**4 - 60 * a * y * y - 40 * b * y) / (
        2 * (u - 5 * i * y * y)
    )
    return _vanishes_over_qi(w * w - _surface_delta().substitute({"x": x}))


def _check_gaussian_residual() -> bool:
    """p + q = r + s = y and G(p, y, r) = 0, so the parametrization lies on
    every V_f; this proves the family only together with
    ``r1-factorization``, which factors the residual on that cross-section."""
    a, b, y, u = MultiPoly.variables("a b y u")
    p, q, r, s = _gaussian_coords(a, b, y, u, _I)
    g = _surface_g().substitute({"x": p, "y": y, "z": r})
    return all(_vanishes_over_qi(e) for e in (p + q - y, r + s - y, g))


def _check_fifth_power_identity() -> bool:
    p, q, r, s = _fifth_power_coords(*MultiPoly.variables("u v"), _I)
    return _vanishes_over_qi(p**5 + q**5 - r**5 - s**5)


def _check_norm_lift() -> bool:
    """For n = 1..4, u^2 + 75 v^2 - (t1^2 + 75 t2^2)^n vanishes identically,
    where u + sqrt(-75) v = (t1 + sqrt(-75) t2)^n.

    Feeding such u, v into the fifth-power solution turns its first
    coordinate into X^n, solving p^(5n) + q^5 = r^5 + s^5."""
    t1, t2 = MultiPoly.variables("t1 t2")
    for n in range(1, 5):
        u = MultiPoly.zero()
        v = MultiPoly.zero()
        for j in range(n + 1):
            term = math.comb(n, j) * t1 ** (n - j) * t2**j
            if j % 2 == 0:
                u = u + term * Fraction(-75) ** (j // 2)
            else:
                v = v + term * Fraction(-75) ** ((j - 1) // 2)
        if not (u * u + 75 * v * v - (t1 * t1 + 75 * t2 * t2) ** n).is_zero:
            return False
    return True


def _check_mixed_h() -> bool:
    """The identity of ``_mixed_h`` with all six coefficients free."""
    a, b, c, d, e, f, U, V, t = MultiPoly.variables("a b c d e f U V t")
    p, q, r, s = MultiPoly.variables("p q r s")
    residual_poly = (
        f_value(a, b, c, p)
        + f_value(d, e, f, q)
        - f_value(a, b, c, r)
        - f_value(d, e, f, s)
    )
    residual_rf = residual_poly.substitute(dict(zip("pqsr", _uv_coords(t, U, V))))
    lhs = residual_rf * V**4 + (t * V - U - 1) * _mixed_h(a, b, c, d, e, f, U, V, t)
    return lhs.is_identically_zero


def _check_mixed_maps() -> bool:
    """The maps ``mixed_special_maps(1, 0)`` returns, the ones ``mixed_point``
    evaluates, modulo the curve relation Y^2 = X^3 - 25 t^4 X^2 - 2500 D^2
    t^4: the forward image lies on S_{F,G}, where H vanishes, and the inverse
    undoes the forward map.  Only -X^3 in the denominator passes, and the
    printed leading minus on the V component fails both."""
    c, f = 1, 0
    forward_map, inverse_map = mixed_special_maps(c, f)
    X, Y, t, U, V = MultiPoly.variables("X Y t U V")
    forward = dict(zip("UV", forward_map(X, Y, t)))
    rhs = X**3 - 25 * t**4 * X * X - 2500 * (c - f) ** 2 * t**4
    h = _mixed_h(0, 0, c, 0, 0, f, U, V, t)
    h_sub, *round_trip = substitute_all([h, *inverse_map(U, V, t)], forward)
    if not _reduce_square(h_sub.num, "Y", rhs).is_zero:
        return False
    for comp, var in zip(round_trip, ("X", "Y")):
        diff = comp - as_rational_function(MultiPoly.variable(var))
        if not _reduce_square(diff.num, "Y", rhs).is_zero:
            return False
    return True


def _check_symmetric_g() -> bool:
    """With all ten coefficients of the symmetric family free, and the
    substitution of the mixed case,

        V^4 (f(p,q) - f(r,s)) + (U - 1)(tV - U - 1) G(U, V, t) = 0."""
    U, V, t = MultiPoly.variables("U V t")
    names = "a1 a2 a3 a4 a5 b1 b2 b3 c0 c1"
    sym = SymmetricQuinticCoeffs(*MultiPoly.variables(names))  # type: ignore[arg-type]
    p, q, r, s = MultiPoly.variables("p q r s")
    residual_poly = sym.f_eval(p, q) - sym.f_eval(r, s)
    residual_rf = residual_poly.substitute(dict(zip("pqsr", _uv_coords(t, U, V))))
    lhs = residual_rf * V**4 + (U - 1) * (t * V - U - 1) * sym.conic_at(t, U, V)
    return lhs.is_identically_zero


def _check_thm2_conic() -> bool:
    """The sweep through a symbolic base point stays on its conic."""
    x0, y0, z0, u, v = MultiPoly.variables("x0 y0 z0 u v")
    x, y, z = _conic_sweep((x0, y0, z0), u, v)
    on_base = x0 * x0 + 2 * y0 * y0 + 3 * z0 * z0
    return (x * x + 2 * y * y + 3 * z * z - on_base).is_identically_zero


def _check_example1_display() -> bool:
    u, v = MultiPoly.variables("u v")
    got = dict(zip("pqrs", thm2_parametrize(-1)(u, v)))
    den = 5 * (u * u + 2 * v * v + 3)
    expected = {
        "p": RationalFunction(
            2 * (2 * u * u + (2 * v + 3) * u + 2 * v * v - 9 * v - 3), den
        ),
        "q": RationalFunction(
            u * u - 4 * (2 * v + 3) * u - 2 * v * v - 6 * v + 3, den
        ),
        "r": RationalFunction(3 * (u * u - 2 * v * v - 6 * v + 3), den),
        "s": RationalFunction(
            2 * (u * u - (2 * v + 3) * u + 4 * v * v - 3 * (v + 2)), den
        ),
    }
    return all(got[name] == expected[name] for name in "pqrs")


def _check_cs_display() -> bool:
    """The printed Consani-Scholten parametrization, with the U-numerator's
    +tu correction (the printed -tu fails the conic equation)."""
    t, u = MultiPoly.variables("t u")
    i = _I
    cs = CONSANI_SCHOLTEN
    U, V = _conic_lines(cs.b20_at(t), cs.b02_at(t), t, (i, 0), u)
    den = u * u - t * u + t * t - t + 1
    expected_U = RationalFunction(
        -i * u * u + t * u + i * (t * t - t + 1), den
    )
    expected_V = RationalFunction((1 + i) * (t - (1 + i) * u), den)
    if not (_vanishes_over_qi(U - expected_U) and _vanishes_over_qi(V - expected_V)):
        return False
    # the four printed coordinates
    den2 = 2 * (t - (1 + i) * u)
    disp_p = RationalFunction(
        (1 + i) * (u * u - (2 - i) * t * u - i * t * t + t - 1), den2
    )
    disp_q = RationalFunction(
        (1 + i) * (-(u * u) - i * t * u + t * t - t + 1), den2
    )
    disp_r = RationalFunction(
        (1 + i) * (i * u * u - (2 + i) * t * u + t * t - i * t + i), den2
    )
    disp_s = RationalFunction((1 - i) * (u * u - t * u + t * t - t + 1), den2)
    got = zip(_uv_coords(t, U, V), (disp_p, disp_q, disp_r, disp_s))
    return all(_vanishes_over_qi(coord - disp) for coord, disp in got)


def _check_c29_display() -> bool:
    w = MultiPoly.variable("w")
    U, V = _conic_lines(C29.b20_at(1), C29.b02_at(1), 1, (3, 8), w)
    den = 32 * w * w - 32 * w + 11
    expected_U = RationalFunction(160 * w * w - 144 * w + 33, den)
    expected_V = RationalFunction(8 * (32 * w * w - 24 * w + 5), den)
    if not (U == expected_U and V == expected_V):
        return False
    den2 = 8 * (32 * w * w - 24 * w + 5)
    expected = {
        "p": RationalFunction(96 * w * w - 48 * w + 7, den2),
        "q": RationalFunction(160 * w * w - 144 * w + 33, den2),
        "r": RationalFunction(224 * w * w - 160 * w + 29, den2),
        "s": RationalFunction(32 * w * w - 32 * w + 11, den2),
    }
    got = dict(zip("pqrs", _uv_coords(1, U, V)))
    return all(got[k] == expected[k] for k in expected)


def _check_corollary1_scaling() -> bool:
    """F(d x) = d^5 f(x) for F = (a d^2, b d^3, c d^4), the scaling of ``integral_image``."""
    x, d, a, b, c = MultiPoly.variables("x d a b c")
    return f_value(a * d * d, b * d**3, c * d**4, d * x) == d**5 * f_value(a, b, c, x)


def _check_thm1_spotchecks(seed: int) -> bool:
    """Five random thm1 points; a point off V_f raises CertificateError,
    which the suite reports as a failed check."""
    rng = random.Random(seed)
    done = 0
    while done < 5:
        a = rng.randint(-4, 4)
        b = rng.choice([n for n in range(-4, 5) if n])
        c = rng.randint(-4, 4)
        u = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        try:
            thm1_point(QuinticCoeffs(a, b, c), u, v)
        except ValueError:  # a degenerate draw, not a failure
            continue
        done += 1
    return True


IdentityCheck = namedtuple("IdentityCheck", "name ok detail")


def identity_suite(only=None, seed: int = 0) -> list[IdentityCheck]:
    """Run every displayed-identity check; ``only`` filters by substring and
    ``seed`` draws the thm1 spot checks.  A check evaluates the same display
    function that its constructor runs, so a wrong formula fails both."""
    registry = [
        ("r1-factorization", _check_r1_factorization),
        ("thm1-surface", _check_thm1_surface),
        ("r4-factorization", _check_r4_factorization),
        ("thm2-conic", _check_thm2_conic),
        ("question3-identity", _check_question3_identity),
        ("gaussian-parametrization", _check_gaussian_parametrization),
        ("gaussian-residual", _check_gaussian_residual),
        ("fifth-power", _check_fifth_power_identity),
        ("norm-lift", _check_norm_lift),
        ("mixed-h", _check_mixed_h),
        ("mixed-maps", _check_mixed_maps),
        ("symmetric-g", _check_symmetric_g),
        ("example1-display", _check_example1_display),
        ("consani-scholten-display", _check_cs_display),
        ("c29-display", _check_c29_display),
        ("corollary1-scaling", _check_corollary1_scaling),
        ("thm1-spotchecks", lambda: _check_thm1_spotchecks(seed)),
    ]
    results = []
    for name, check in registry:
        if only and only not in name:
            continue
        try:
            ok = bool(check())
            detail = ""
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        results.append(IdentityCheck(name, ok, detail))
    return results
