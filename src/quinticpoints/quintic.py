"""The hypersurface model f(p)+f(q) = f(r)+f(s) for f(X) = X^5+aX^3+bX^2+cX:
residuals, triviality classification, and integer rescaling of rational
points."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    GaussianRational,
    format_rational,
    lcm_of_denominators,
    parse_rational,
)
from .poly import FIELD_Q, MultiPoly

FIELD_TAG_Q = "Q"
FIELD_TAG_QI = "Qi"


class DegenerateQuintic(ValueError):
    """a = b = c = 0 collapses f to X^5 and the hypersurface degenerates."""


class PointNotOnHypersurface(ValueError):
    """A point claimed to lie on the hypersurface does not."""


def f_value(a, b, c, x):
    """x^5 + a x^3 + b x^2 + c x in Horner form, with no guard on a, b, c.

    Works for Fraction, GaussianRational and MultiPoly arguments, and for
    symbolic (MultiPoly) coefficients."""
    x2 = x * x
    return ((x2 + a) * x2 + b * x + c) * x


@dataclass(frozen=True)
class QuinticCoeffs:
    """f(X) = X^5 + a X^3 + b X^2 + c X with integer a, b, c, not all zero."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a == 0 and self.b == 0 and self.c == 0:
            raise DegenerateQuintic("need at least one of a, b, c nonzero")

    def __call__(self, x):
        """Exact f(x) for a rational or Gaussian-rational x."""
        return f_value(self.a, self.b, self.c, x)

    def __str__(self):
        return f"X^5 + {self.a}*X^3 + {self.b}*X^2 + {self.c}*X"


def _scalar_to_json(v):
    if isinstance(v, GaussianRational):
        return v.to_json()
    return format_rational(v)


def _scalar_from_json(v):
    if isinstance(v, dict):
        return GaussianRational.from_json(v)
    return parse_rational(v)


@dataclass(frozen=True)
class Point4:
    """A candidate point (p, q, r, s), over Q or over Q(i)."""

    p: object
    q: object
    r: object
    s: object
    field: str = FIELD_TAG_Q

    def coords(self):
        return (self.p, self.q, self.r, self.s)

    def is_integral(self) -> bool:
        if self.field != FIELD_TAG_Q:
            return False
        return all(Fraction(v).denominator == 1 for v in self.coords())

    def to_json(self) -> dict:
        return {
            "field": self.field,
            "p": _scalar_to_json(self.p),
            "q": _scalar_to_json(self.q),
            "r": _scalar_to_json(self.r),
            "s": _scalar_to_json(self.s),
        }

    @staticmethod
    def from_json(obj: dict) -> "Point4":
        return Point4(
            _scalar_from_json(obj["p"]),
            _scalar_from_json(obj["q"]),
            _scalar_from_json(obj["r"]),
            _scalar_from_json(obj["s"]),
            obj.get("field", FIELD_TAG_Q),
        )


def residual(f, point: Point4):
    """f(p) + f(q) - f(r) - f(s); zero exactly when the point is on V_f.
    ``f`` is any one-argument callable, e.g. a QuinticCoeffs."""
    return f(point.p) + f(point.q) - f(point.r) - f(point.s)


def classify(f, point: Point4) -> bool:
    """Triviality per the set-intersection definition: a point is nontrivial
    when it is on V_f, {p,q} and {r,s} are disjoint, and so are their
    f-value sets.  Evaluates f once per coordinate."""
    fp, fq, fr, fs = (f(v) for v in point.coords())
    return (
        not (fp + fq - fr - fs)
        and not {point.p, point.q} & {point.r, point.s}
        and not {fp, fq} & {fr, fs}
    )


def scale_to_integers(f: QuinticCoeffs, points) -> tuple[QuinticCoeffs, list[Point4]]:
    """Clear denominators: with d = LCM of every coordinate denominator,
    F = (a d^2, b d^3, c d^4) satisfies F(d x) = d^5 f(x), so d-scaled points
    are integral points on V_F."""
    points = list(points)
    if any(pt.field != FIELD_TAG_Q for pt in points):
        raise ValueError("integer scaling applies to rational points only")
    for pt in points:
        if residual(f, pt):
            raise PointNotOnHypersurface(f"{pt} is not on V_f")
    d = lcm_of_denominators([c for pt in points for c in pt.coords()])
    big = QuinticCoeffs(f.a * d * d, f.b * d**3, f.c * d**4)
    scaled = [
        Point4(pt.p * d, pt.q * d, pt.r * d, pt.s * d, FIELD_TAG_Q) for pt in points
    ]
    return big, scaled


def residual_symbolic(f: QuinticCoeffs | None = None, field=FIELD_Q) -> MultiPoly:
    """f(p)+f(q)-f(r)-f(s) as a polynomial in p, q, r, s; coefficients a, b, c
    stay symbolic when no concrete f is given."""
    p, q, r, s = (MultiPoly.variable(n, field) for n in "pqrs")
    if f is None:
        a, b, c = (MultiPoly.variable(n, field) for n in "abc")
    else:
        a, b, c = f.a, f.b, f.c
    fp, fq, fr, fs = (f_value(a, b, c, x) for x in (p, q, r, s))
    return fp + fq - fr - fs
