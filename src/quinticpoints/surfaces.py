"""Point-construction pipelines on f(p)+f(q) = f(r)+f(s) and its relatives.

Every operation here returns (or embeds) a certificate: the exact residual of
the emitted point plus a triviality verdict.  Building a :class:`Certificate`
whose residual is nonzero raises :class:`CertificateError`.
Each displayed formula is written once, as a private function generic over
the ring (as ``quintic.f_value`` is): the constructor evaluates it on
Fraction or Q(i) scalars, and :func:`identity_suite` proves the same
function over ``MultiPoly`` symbols.  Theorem 2, for instance, is
``r4_point(*_conic_sweep(base, u, v))``: ``thm2-conic`` proves that the
sweep stays on its conic for a symbolic base point, and
``r4-factorization`` that (R4) carries the conic onto V_f.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from . import elliptic
from .elliptic import CurvePoint, DegenerateSpecialization
from .exact import GAUSSIAN_I, CertificateError, GaussianRational
from .poly import (
    FIELD_Q,
    FIELD_QI,
    MultiPoly,
    PoleAtPoint,
    RationalFunction,
    as_rational_function,
)
from .quintic import (
    FIELD_TAG_Q,
    FIELD_TAG_QI,
    Point4,
    QuinticCoeffs,
    TrivialityReport,
    classify,
    f_value,
    residual,
    residual_symbolic,
)


_I_QI = MultiPoly.constant(GAUSSIAN_I, FIELD_QI)


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

@dataclass(frozen=True)
class Certificate:
    """Exact evidence attached to every emitted point; a point off its
    hypersurface cannot get one."""

    construction: str
    inputs: dict
    point: Point4
    residual: object
    report: TrivialityReport
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.residual or not self.report.on_hypersurface:
            raise CertificateError(
                f"{self.construction}: residual {self.residual} at {self.point.to_json()}"
            )

    @property
    def nontrivial(self) -> bool:
        return self.report.nontrivial

    def to_json(self) -> dict:
        return {
            "construction": self.construction,
            "inputs": self.inputs,
            "point": self.point.to_json(),
            "residual": str(self.residual),
            "nontrivial": self.nontrivial,
            "notes": list(self.notes),
        }


def _quintic_certificate(construction, inputs, a, b, c, point, notes=()) -> Certificate:
    """Certify a point on f(p)+f(q) = f(r)+f(s), f = X^5+aX^3+bX^2+cX; any
    a, b, c, including a = b = c = 0."""
    f = partial(f_value, a, b, c)
    return Certificate(
        construction=construction,
        inputs=inputs,
        point=point,
        residual=residual(f, point),
        report=classify(f, point),
        notes=tuple(notes),
    )


def _reduce_square(poly: MultiPoly, var: str, rhs: MultiPoly) -> MultiPoly:
    """Eliminate powers var^k, k >= 2, using var^2 = rhs."""
    while poly.degree(var) >= 2:
        i = poly.vars.index(var)
        keep = {}
        reduce_part = MultiPoly.zero(poly.field)
        for exps, coeff in poly.terms.items():
            e = exps[i]
            if e >= 2:
                lowered = exps[:i] + (e - 2,) + exps[i + 1:]
                mono = MultiPoly(poly.field, poly.vars, {lowered: coeff})
                reduce_part = reduce_part + mono * rhs
            else:
                keep[exps] = coeff
        poly = MultiPoly(poly.field, poly.vars, keep) + reduce_part
    return poly


# ---------------------------------------------------------------------------
# Theorem 1: the unirational elliptic surface for b != 0
#
# Cross-section p=x, q=y-x, r=z, s=y-z turns the residual into
# (x-z)(x-y+z)G(x,y,z); solving G = 0 in z needs w^2 = Delta(x,y), and that
# surface maps to E: Y^2 = X^3 - 75a^2 X - 125(5 b^2 t^2 + 10 b^2 + 2 a^3).
# (The source text prints 5bt^2 in E; the ansatz coefficients and the
# transport identity force 5 b^2 t^2, which is what everything here uses.)

def _surface_g(field=FIELD_Q):
    x, y, z, a, b = (MultiPoly.variable(n, field) for n in "xyzab")
    return 2 * b + 3 * a * y + 5 * x**2 * y - 5 * x * y**2 + 5 * y**3 - 5 * y**2 * z + 5 * y * z**2


def _surface_delta(field=FIELD_Q):
    x, y, a, b = (MultiPoly.variable(n, field) for n in "xyab")
    return -5 * y * (15 * y**3 + 20 * x * y * (x - y) + 12 * a * y + 8 * b)


def _e_polynomial(field=FIELD_Q):
    """F(X, Y, t) = Y^2 - X^3 + 75 a^2 X + 125(5 b^2 t^2 + 10 b^2 + 2 a^3)."""
    X, Y, t, a, b = (MultiPoly.variable(n, field) for n in ("X", "Y", "t", "a", "b"))
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
    s_den = 30 * b * v
    if s_den == 0:
        raise DegenerateParameters("ansatz denominator 30bv vanishes (v = 0?)")
    s = (25 * u**4 - 450 * u**2 * v**2 - 75 * v**4 - 9 * a * a) / s_den
    t_den = 30 * (5 * a - p) * (5 * a + p) * u
    if t_den == 0:
        raise DegenerateParameters("root denominator 30(5a-p)(5a+p)u vanishes")
    t_num = 250 * a**3 + 1250 * b * b + 75 * a * a * p - p**3 + 625 * b * b * s * s
    return p, q, r, s, -t_num / t_den


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
    A_p, A_q, A_r, A_s, T = _ansatz_values(a, b, u, v)
    X = T * T + 10 * u * T + A_p
    Y = T**3 + A_q * T * T + A_r * T
    t = (v / (5 * b)) * T * T + A_s
    if X + 5 * a == 0:
        raise DegenerateParameters("X + 5a = 0: surface map pole")
    x, y, w = _surface_map(a, b, X, Y, t)
    z = (5 * y * y + branch * w) / (10 * y)
    return _quintic_certificate(
        "thm1",
        {"a": a, "b": b, "c": c, "u": str(u), "v": str(v), "branch": branch},
        a, b, c,
        Point4(x, y - x, z, y - z, FIELD_TAG_Q),
    )


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    ok: bool
    detail: str = ""


def thm1_surface_identities() -> list[IdentityCheck]:
    """Symbolic verification (a, b free) of the four structural facts behind
    Theorem 1."""
    checks = []
    G = _surface_g()
    delta = _surface_delta()

    from .poly import discriminant_quadratic

    checks.append(
        IdentityCheck(
            "disc_z(G) = Delta(x,y)",
            discriminant_quadratic(G, "z") == delta,
        )
    )

    X, Y, t, a, b = (MultiPoly.variable(n) for n in ("X", "Y", "t", "a", "b"))
    x, y, w = (MultiPoly.variable(n) for n in ("x", "y", "w"))
    fwd = dict(zip("xyw", _surface_map(a, b, X, Y, t)))
    inv = {
        "X": RationalFunction(-5 * (2 * b + a * y), y),
        "t": RationalFunction(2 * x - y, y),
        "Y": RationalFunction(5 * b * w, y * y),
    }
    ok_round = True
    for name, expr in inv.items():
        composed = expr.substitute(fwd)
        ok_round &= composed == as_rational_function(MultiPoly.variable(name))
    for name, expr in fwd.items():
        composed = expr.substitute(inv)
        ok_round &= composed == as_rational_function(MultiPoly.variable(name))
    checks.append(IdentityCheck("(x,y,w) <-> (X,t,Y) maps are mutually inverse", ok_round))

    surface_poly = w * w - delta  # w^2 - Delta(x, y)
    pulled = surface_poly.substitute(fwd)
    target = RationalFunction(400 * b * b, (X + 5 * a) ** 4) * _e_polynomial()
    checks.append(
        IdentityCheck(
            "maps transport w^2 = Delta to the E equation",
            pulled == target,
            "E carries 125(5b^2t^2+10b^2+2a^3); the printed 5bt^2 fails this check",
        )
    )

    # ansatz: collect F(R2-substituted) in T and compare with the displayed
    # coefficients, then check the (R3) values annihilate a2..a5
    T, P, Q, R, S, uu, vv = (
        MultiPoly.variable(n) for n in ("T", "P", "Q", "R", "S", "u", "v")
    )
    Xs = T * T + 10 * uu * T + P
    Ys = T**3 + Q * T * T + R * T
    # 625 b^2 t^2 with t = (v T^2 + 5 b S) / (5 b) is 25 (v T^2 + 5 b S)^2
    F_sub = (
        Ys * Ys
        - Xs**3
        + 75 * a * a * Xs
        + 25 * (vv * T * T + 5 * b * S) ** 2
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
    coeff_ok = F_sub.degree("T") == 5 and all(
        F_sub.coefficient_of("T", k) == displayed[k] for k in range(6)
    )
    checks.append(IdentityCheck("ansatz expansion matches the displayed a_0..a_5", coeff_ok))

    *r3_values, t_root = _ansatz_values(a, b, uu, vv)
    r3 = dict(zip("PQRS", r3_values))
    annihilated = all(
        displayed[k].substitute(r3).is_identically_zero for k in (2, 3, 4, 5)
    )
    checks.append(IdentityCheck("(R3) annihilates a_2..a_5", annihilated))

    a0_sub = displayed[0].substitute(r3)
    a1_sub = displayed[1].substitute(r3)
    remaining = a0_sub + a1_sub * t_root
    checks.append(
        IdentityCheck(
            "the displayed T is the root of a_0 + a_1 T",
            remaining.is_identically_zero and not a1_sub.is_identically_zero,
        )
    )
    return checks


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
    from . import quadform

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
    return _quintic_certificate(
        "thm2",
        {"a": a, "c": c, "u": str(u), "v": str(v)},
        a, 0, c,
        Point4(*thm2_parametrize(a, search_bound)(u, v), FIELD_TAG_Q),
    )


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
    return _quintic_certificate(
        "gaussian",
        {"a": a, "b": b, "c": c, "y": str(y), "u": u.to_json()},
        a, b, c,
        Point4(p, q, r, s, FIELD_TAG_QI),
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
    return _quintic_certificate(
        "fifth-power",
        {"u": u.to_json(), "v": v.to_json()},
        0, 0, 0,
        Point4(*_fifth_power_coords(u, v, GAUSSIAN_I), FIELD_TAG_QI),
    )


def norm_lift_symbolic(n: int) -> bool:
    """u^2 + 75 v^2 - (t1^2 + 75 t2^2)^n vanishes identically, where
    u + sqrt(-75) v = (t1 + sqrt(-75) t2)^n.

    Feeding such u, v into the fifth-power solution turns its first
    coordinate into X^n, solving p^(5n) + q^5 = r^5 + s^5.
    """
    t1, t2 = MultiPoly.variables("t1 t2")
    u = MultiPoly.zero()
    v = MultiPoly.zero()
    for j in range(n + 1):
        term = math.comb(n, j) * t1 ** (n - j) * t2**j
        if j % 2 == 0:
            u = u + term * Fraction(-75) ** (j // 2)
        else:
            v = v + term * Fraction(-75) ** ((j - 1) // 2)
    return (u * u + 75 * v * v - (t1 * t1 + 75 * t2 * t2) ** n).is_zero


# ---------------------------------------------------------------------------
# mixed pairs F(p) + G(q) = F(r) + G(s)

def _uv_coords(t, U, V):
    """The substitution (t - U/V, U/V, t - 1/V, 1/V) shared by the mixed and
    the symmetric quintics."""
    return t - U / V, U / V, t - 1 / V, 1 / V


def _mixed_h_coeffs(a, b, c, d, e, f, t):
    """The ten displayed coefficients a_{i,j} of H(U, V, t)."""
    five_t = 5 * t
    return {
        (3, 0): five_t,
        (2, 0): -five_t,
        (1, 0): five_t,
        (0, 0): -five_t,
        (2, 1): -a + d - 5 * t**2,
        (1, 1): a - d,
        (0, 1): -a + d + 5 * t**2,
        (1, 2): b + e + (2 * a + d) * t + 5 * t**3,
        (0, 2): -b - e - (a + 2 * d) * t - 5 * t**3,
        (0, 3): f - c + (e - b) * t + (d - a) * t**2,
    }


def mixed_H(coeffs=None):
    """H(U, V, t) plus its certificate: for F(x) = x^5+ax^3+bx^2+cx and
    G(x) = x^5+dx^3+ex^2+fx, with p = t - U/V, q = U/V, r = 1/V, s = t - 1/V,

        V^4 (F(p) + G(q) - F(r) - G(s)) + (tV - U - 1) H(U, V, t) = 0

    holds identically (``coeffs`` is (a, b, c, d, e, f); all six symbolic
    when it is None)."""
    U, V, t = (MultiPoly.variable(n) for n in ("U", "V", "t"))
    a, b, c, d, e, f = coeffs or [MultiPoly.variable(n) for n in "abcdef"]
    H = MultiPoly.zero()
    for (i, j), coeff in _mixed_h_coeffs(a, b, c, d, e, f, t).items():
        H = H + coeff * U**i * V**j
    p, q, r, s = (MultiPoly.variable(n) for n in "pqrs")
    residual_poly = (
        f_value(a, b, c, p)
        + f_value(d, e, f, q)
        - f_value(a, b, c, r)
        - f_value(d, e, f, s)
    )
    residual_rf = residual_poly.substitute(dict(zip("pqsr", _uv_coords(t, U, V))))
    lhs = residual_rf * V**4 + (t * V - U - 1) * H
    identity_holds = lhs.is_identically_zero
    return H, identity_holds


def special_curve_rhs(D, t):
    """Right side X^3 - 25 t^4 X^2 - 2500 D^2 t^4 of the special model."""
    X = MultiPoly.variable("X")
    return X**3 - 25 * t**4 * X * X - 2500 * D * D * t**4


@lru_cache(maxsize=256)
def mixed_special_maps(c: int, f: int):
    """The explicit birational maps between S_{F,G} (F = x^5+cx, G = x^5+fx)
    and E_{F,G}: Y^2 = X^3 - 25 t^4 X^2 - 2500 (c-f)^2 t^4, as the pair
    ((U, V)(X, Y, t), (X, Y)(U, V, t)) of forward and inverse maps.

    The denominator's cubic term is read as -X^3 (the printed lowercase -x^3
    is a typo), and the V component carries +10tX(...) (the printed leading
    minus is inconsistent with the printed inverse); ``mixed_maps_checks``
    certifies both readings.
    """
    D = c - f
    if D == 0:
        raise DegenerateSpecialization("c = f")
    X, Y, t, U, V = (MultiPoly.variable(n) for n in ("X", "Y", "t", "U", "V"))
    den = 50 * t**4 * (100 * D * D - 10 * D * X + X * X) - X**3
    fwd_U = RationalFunction(50 * t**4 * X * X + 100 * t * t * Y * D - X**3, den)
    fwd_V = RationalFunction(10 * t * X * (Y - 5 * t * t * (10 * D - X)), den)
    inv_X = RationalFunction(10 * D * t * V, U - 1)
    inv_Y = RationalFunction(
        -10 * D * t * (D * V**3 - 5 * t * t * (U - 1) * V * (t * V - U) - 5 * t * (U - 1) ** 2 * U),
        (U - 1) ** 2,
    )
    return (fwd_U, fwd_V), (inv_X, inv_Y)


def mixed_maps_checks(c: int, f: int) -> list[IdentityCheck]:
    """Certify the maps ``mixed_special_maps(c, f)`` returns, the ones
    ``mixed_point`` evaluates, symbolically modulo the curve relation: the
    forward image lies on S_{F,G}, and the inverse undoes the forward map.
    Only -X^3 in the denominator passes, and the printed leading minus on
    the V component fails both."""
    (fwd_U, fwd_V), inverse = mixed_special_maps(c, f)
    forward = {"U": fwd_U, "V": fwd_V}
    rhs = special_curve_rhs(c - f, MultiPoly.variable("t"))
    checks = []

    # (ii) forward image satisfies S_{F,G} = 0 modulo Y^2 = rhs
    h_spec, _ = mixed_H((0, 0, c, 0, 0, f))
    reduced = _reduce_square(h_spec.substitute(forward).num, "Y", rhs)
    checks.append(
        IdentityCheck("forward image lies on S_{F,G} (mod curve relation)", reduced.is_zero)
    )

    # (i) inverse(forward) = identity modulo the curve relation
    ok = True
    for comp, var in zip(inverse, ("X", "Y")):
        diff = comp.substitute(forward) - as_rational_function(MultiPoly.variable(var))
        ok &= _reduce_square(diff.num, "Y", rhs).is_zero
    checks.append(IdentityCheck("inverse(forward) = id (mod curve relation)", ok))
    return checks


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
        rows = [row for row in elliptic.load_table() if row.d == D and row.t == t]
        if not rows:
            raise ValueError(
                f"no shipped table row for D = {D} at t = {t}; pass a point explicitly"
            )
        point = rows[0].point()
    pk = elliptic.mul(curve, k, point)  # raises PointNotOnCurve for a foreign point
    if pk.is_identity:
        raise MapPole(f"{k}*P is the identity")
    (fwd_U, fwd_V), _ = mixed_special_maps(c, f)
    den_at = {"X": pk.x, "Y": pk.y, "t": t}
    try:
        U = fwd_U.eval(den_at)
        V = fwd_V.eval(den_at)
    except PoleAtPoint as exc:
        raise MapPole(f"forward map pole at k={k}: {exc}") from exc
    if V == 0:
        raise MapPole(f"V = 0 at k={k}")
    if U == 1:
        raise MapPole(f"U = 1 at k={k} (q = r)")
    if t * V - U - 1 == 0:
        raise MapPole(f"tV - U - 1 = 0 at k={k} (degenerate factor)")
    p, q, s, r = _uv_coords(t, U, V)
    pt = Point4(p, q, r, s, FIELD_TAG_Q)
    Fp, Fr = f_value(0, 0, c, p), f_value(0, 0, c, r)
    res = Fp + f_value(0, 0, f, q) - Fr - f_value(0, 0, f, s)
    # triviality for the mixed equation: sides are (F(p), G(q)) vs (F(r), G(s))
    report = TrivialityReport(
        on_hypersurface=not res,
        coordinate_overlap=p == r or q == s,
        value_overlap=Fp == Fr,
    )
    return Certificate(
        construction="mixed",
        inputs={"c": c, "f": f, "t": str(t), "k": k},
        point=pt,
        residual=res,
        report=report,
        notes=(f"(U,V) preimage: ({U}, {V})",),
    )


# ---------------------------------------------------------------------------
# symmetric quintics f(p, q) = f(r, s)

@dataclass(frozen=True)
class SymmetricQuinticCoeffs:
    """f(x,y) = sum a_i (x^i + y^i) + xy sum b_i (x^i + y^i)
    + x^2 y^2 (c0 (x+y) + c1)."""

    a1: int = 0
    a2: int = 0
    a3: int = 0
    a4: int = 0
    a5: int = 0
    b1: int = 0
    b2: int = 0
    b3: int = 0
    c0: int = 0
    c1: int = 0

    def f_eval(self, x, y):
        total = 0
        for i, ai in enumerate((self.a1, self.a2, self.a3, self.a4, self.a5), 1):
            if ai:
                total = total + ai * (x**i + y**i)
        xy = x * y
        for i, bi in enumerate((self.b1, self.b2, self.b3), 1):
            if bi:
                total = total + bi * xy * (x**i + y**i)
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


def symmetric_G(coeffs: SymmetricQuinticCoeffs | None = None):
    """G(U, V, t) of the symmetric family plus its identity certificate:

        V^4 (f(p,q) - f(r,s)) + (U - 1)(tV - U - 1) G(U, V, t) = 0

    under the same substitution as the mixed case.  Returns (G, holds,
    degenerate) where degenerate flags b_{2,0} identically zero."""
    U, V, t = (MultiPoly.variable(n) for n in ("U", "V", "t"))
    if coeffs is None:
        a1, a2, a3, a4, a5, b1, b2, b3, c0, c1 = (
            MultiPoly.variable(n)
            for n in ("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "c0", "c1")
        )
        sym = SymmetricQuinticCoeffs(a1, a2, a3, a4, a5, b1, b2, b3, c0, c1)  # type: ignore[arg-type]
        degenerate = False
    else:
        sym = coeffs
        k0, k1 = sym.b20_brackets()
        degenerate = k0 == 0 and k1 == 0
    G = sym.conic_at(t, U, V)
    p, q, r, s = (MultiPoly.variable(n) for n in "pqrs")
    residual_poly = sym.f_eval(p, q) - sym.f_eval(r, s)
    residual_rf = residual_poly.substitute(dict(zip("pqsr", _uv_coords(t, U, V))))
    lhs = residual_rf * V**4 + (U - 1) * (t * V - U - 1) * G
    return G, lhs.is_identically_zero, degenerate


def _symmetric_point_from_uv(coeffs, t, U, V, construction, inputs, notes=()):
    """Map a conic point (U, V) through the substitution and certify.

    The coordinates are emitted as (t - U/V, U/V, t - 1/V, 1/V); with f
    symmetric the (r, s) order is immaterial and this matches the printed
    examples."""
    if not V:
        raise PoleAtPoint("V = 0")
    p, q, r, s = _uv_coords(t, U, V)
    res = coeffs.f_eval(p, q) - coeffs.f_eval(r, s)
    field = FIELD_TAG_QI if isinstance(p, GaussianRational) else FIELD_TAG_Q
    point = Point4(p, q, r, s, field)
    # trivial iff the unordered pairs coincide (f is symmetric)
    same_pairs = {p, q} == {r, s}
    report = TrivialityReport(
        on_hypersurface=not res,
        coordinate_overlap=same_pairs,
        value_overlap=same_pairs,
    )
    return Certificate(
        construction=construction,
        inputs=inputs,
        point=point,
        residual=res,
        report=report,
        notes=notes,
    )


def _lines_through_i(b20, b02, t, u, i):
    """(U, V)(t, u): the second meet of the line U = i + uV with the conic
    G(U, V, t) = 0 through (i, 0); ``i`` is the ring's square root of -1."""
    A = b20 * u * u - t * b20 * u + b02
    B = 2 * i * b20 * u - (1 + i) * t * b20
    V = -B / A
    return i + u * V, V


def symmetric_conic_parametrization_qi(coeffs: SymmetricQuinticCoeffs):
    """(U, V)(t, u) sweeping lines U = i + uV through the Q(i)-point (i, 0)
    of the conic G(U, V, t) = 0; everything symbolic over Q(i)."""
    k0, k1 = coeffs.b20_brackets()
    if k0 == 0 and k1 == 0:
        raise DegenerateConic("b_{2,0} = 0 identically: G = 0 reduces to b_{0,2} V^2")
    t, u = MultiPoly.variables("t u", FIELD_QI)
    return _lines_through_i(coeffs.b20_at(t), coeffs.b02_at(t), t, u, _I_QI)


def symmetric_gaussian_point(coeffs: SymmetricQuinticCoeffs, t, u) -> Certificate:
    """Q(i)-rational point on f(p,q) = f(r,s) through the conic point (i, 0)."""
    t = Fraction(t)
    uq = GaussianRational.of(u)
    k0, k1 = coeffs.b20_brackets()
    if k0 == 0 and k1 == 0:
        raise DegenerateConic("b_{2,0} = 0 identically (the open degenerate family)")
    b20 = coeffs.b20_at(t)
    if b20 == 0:
        raise DegenerateConic(f"b_{{2,0}}(t) = 0 at t = {t}")
    try:
        U, V = _lines_through_i(b20, coeffs.b02_at(t), t, uq, GAUSSIAN_I)
    except ZeroDivisionError:
        raise PoleAtPoint("parametrization denominator vanishes at this u") from None
    return _symmetric_point_from_uv(
        coeffs,
        GaussianRational.of(t),
        U,
        V,
        "symmetric-gaussian",
        {"coeffs": coeffs.__dict__, "t": str(t), "u": uq.to_json()},
    )


def symmetric_rational_parametrization(
    coeffs: SymmetricQuinticCoeffs, t0, seed: tuple
):
    """(U, V)(w) sweeping lines U = U0 + w (V - V0) through a rational seed
    on the conic at t = t0."""
    t0 = Fraction(t0)
    U0 = Fraction(seed[0])
    V0 = Fraction(seed[1])
    b20 = coeffs.b20_at(t0)
    b02 = coeffs.b02_at(t0)
    if b20 == 0:
        raise DegenerateConic(f"b_{{2,0}} vanishes at t = {t0}")
    if coeffs.conic_at(t0, U0, V0) != 0:
        raise SeedNotOnConic(f"seed {seed} is not on the conic at t = {t0}")
    w = MultiPoly.variable("w")
    A = b20 * w * w - t0 * b20 * w + b02
    # gradient of the conic at the seed
    gu = 2 * b20 * U0 - t0 * b20 * V0
    gv = -t0 * b20 * (U0 + 1) + 2 * b02 * V0
    B = gu * w + gv
    V = V0 + RationalFunction(-B, A)
    U = U0 + w * (V - V0)
    return U, V


def symmetric_rational_point(
    coeffs: SymmetricQuinticCoeffs, t0, seed: tuple, w
) -> Certificate:
    """Rational point on f(p,q) = f(r,s) from a rational seed on C_{t0}."""
    t0 = Fraction(t0)
    w = Fraction(w)
    Uf, Vf = symmetric_rational_parametrization(coeffs, t0, seed)
    at = {"w": w}
    U = Uf.eval(at)
    V = Vf.eval(at)
    return _symmetric_point_from_uv(
        coeffs,
        t0,
        U,
        V,
        "symmetric-rational",
        {"coeffs": coeffs.__dict__, "t0": str(t0), "seed": [str(Fraction(s)) for s in seed], "w": str(w)},
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
    a, b, y, u = MultiPoly.variables("a b y u", FIELD_QI)
    i = _I_QI
    x = _gaussian_coords(a, b, y, u, i)[0]
    w = (u * u - 10 * i * u * y * y - 75 * y**4 - 60 * a * y * y - 40 * b * y) / (
        2 * (u - 5 * i * y * y)
    )
    return (w * w - _surface_delta(FIELD_QI).substitute({"x": x})).is_identically_zero


def _check_gaussian_residual() -> bool:
    coords = _gaussian_coords(*MultiPoly.variables("a b y u", FIELD_QI), _I_QI)
    res = residual_symbolic(field=FIELD_QI).substitute(dict(zip("pqrs", coords)))
    return res.is_identically_zero


def _check_fifth_power_identity() -> bool:
    p, q, r, s = _fifth_power_coords(*MultiPoly.variables("u v", FIELD_QI), _I_QI)
    return (p**5 + q**5 - r**5 - s**5).is_zero


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
    U, V = symmetric_conic_parametrization_qi(CONSANI_SCHOLTEN)
    t, u = MultiPoly.variables("t u", FIELD_QI)
    i = _I_QI
    den = u * u - t * u + t * t - t + 1
    expected_U = RationalFunction(
        -i * u * u + t * u + i * (t * t - t + 1), den
    )
    expected_V = RationalFunction((1 + i) * (t - (1 + i) * u), den)
    if not (U == expected_U and V == expected_V):
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
    p, q, r, s = _uv_coords(t, U, V)
    return p == disp_p and q == disp_q and r == disp_r and s == disp_s


def _check_c29_display() -> bool:
    coeffs = SymmetricQuinticCoeffs(
        a1=1, a2=1, a3=1, a4=1, a5=1, b1=1, b2=1, b3=1, c0=1, c1=29
    )
    U, V = symmetric_rational_parametrization(coeffs, 1, (3, 8))
    w = MultiPoly.variable("w")
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
    x, d, a, b, c = MultiPoly.variables("x d a b c")
    f = x**5 + a * x**3 + b * x**2 + c * x
    big = (d * x) ** 5 + a * d * d * (d * x) ** 3 + b * d**3 * (d * x) ** 2 + c * d**4 * (d * x)
    return big == d**5 * f


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


def identity_suite(only=None, seed: int = 0) -> list[IdentityCheck]:
    """Run every displayed-identity check; ``only`` filters by substring and
    ``seed`` draws the thm1 spot checks.  A check evaluates the same display
    function that its constructor runs, so a wrong formula fails both."""
    registry = [
        ("r1-factorization", _check_r1_factorization),
        ("thm1-surface", lambda: all(c.ok for c in thm1_surface_identities())),
        ("r4-factorization", _check_r4_factorization),
        ("thm2-conic", _check_thm2_conic),
        ("question3-identity", _check_question3_identity),
        ("gaussian-parametrization", _check_gaussian_parametrization),
        ("gaussian-residual", _check_gaussian_residual),
        ("fifth-power", _check_fifth_power_identity),
        ("norm-lift", lambda: all(norm_lift_symbolic(n) for n in range(1, 5))),
        ("mixed-h", lambda: mixed_H()[1]),
        ("mixed-maps", lambda: all(c.ok for c in mixed_maps_checks(1, 0))),
        ("symmetric-g", lambda: symmetric_G()[1]),
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
