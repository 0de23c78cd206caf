"""The hypersurface model f(p)+f(q) = f(r)+f(s) for f(X) = X^5+aX^3+bX^2+cX:
residuals, triviality classification, and ``integral_image``, the one scaling
of points to integers, on whose image every emitted point is checked."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .exact import (
    GaussianRational,
    checked_make,
    format_rational,
    lcm_of_denominators,
    rational_from_json,
)
from .poly import MultiPoly

# the field tag of a Point4, as its JSON prints it
FIELD_Q = "Q"
FIELD_QI = "Qi"


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


class QuinticCoeffs(namedtuple("QuinticCoeffs", "a b c")):
    """f(X) = X^5 + a X^3 + b X^2 + c X with integer a, b, c, not all zero."""

    __slots__ = ()

    def __new__(cls, a, b, c):
        if a == 0 and b == 0 and c == 0:
            raise DegenerateQuintic("need at least one of a, b, c nonzero")
        return super().__new__(cls, a, b, c)

    _make = classmethod(checked_make)

    def __call__(self, x):
        """Exact f(x) for a rational or Gaussian-rational x."""
        return f_value(self.a, self.b, self.c, x)

    def __str__(self):
        return f"X^5 + {self.a}*X^3 + {self.b}*X^2 + {self.c}*X"


def _scalar_to_json(v):
    if isinstance(v, GaussianRational):
        return v.to_json()
    return format_rational(v)


def _scalar_from_json(v, where: str):
    if isinstance(v, dict):
        return GaussianRational.from_json(v, where)
    return rational_from_json(v, where)


class Point4(namedtuple("Point4", "p q r s")):
    """A candidate point (p, q, r, s): over Q(i) when any coordinate is a
    GaussianRational, else over Q."""

    __slots__ = ()

    @property
    def field(self) -> str:
        return FIELD_QI if any(v.__class__ is GaussianRational for v in self) else FIELD_Q

    def is_integral(self) -> bool:
        return self.field == FIELD_Q and all(Fraction(v).denominator == 1 for v in self)

    def to_json(self) -> dict:
        return {
            "field": self.field,
            "p": _scalar_to_json(self.p),
            "q": _scalar_to_json(self.q),
            "r": _scalar_to_json(self.r),
            "s": _scalar_to_json(self.s),
        }

    @staticmethod
    def from_json(obj: dict, index: int = 0) -> "Point4":
        """The point of a JSON object with keys p, q, r and s; a ValueError
        names ``index``, the point's place in its list, when it is no such
        object."""
        if not isinstance(obj, dict):
            raise ValueError(f"point {index} must be a JSON object")
        if missing := [k for k in "pqrs" if k not in obj]:
            raise ValueError(f"point {index} lacks coordinate(s) {', '.join(missing)}")
        return Point4(*(_scalar_from_json(obj[k], f"point {index} coordinate {k}") for k in "pqrs"))


def residual(f, point: Point4):
    """f(p) + f(q) - f(r) - f(s); zero exactly when the point is on V_f.
    ``f`` is any one-argument callable, e.g. a QuinticCoeffs."""
    return f(point.p) + f(point.q) - f(point.r) - f(point.s)


def classify(f, point: Point4) -> bool:
    """Triviality per the set-intersection definition: a point is nontrivial
    when it is on V_f, {p,q} and {r,s} are disjoint, and so are their
    f-value sets.  Evaluates f once per coordinate."""
    fp, fq, fr, fs = (f(v) for v in point)
    return (
        not (fp + fq - fr - fs)
        and not {point.p, point.q} & {point.r, point.s}
        and not {fp, fq} & {fr, fs}
    )


def _times(v, d: int):
    """d v for a v whose denominators divide d: an int, or over Q(i) a
    Gaussian rational with int parts."""
    return v * d if v.__class__ is GaussianRational else v.numerator * (d // v.denominator)


def integral_image(coeffs, points, weights) -> tuple[int, tuple, list[Point4]]:
    """Corollary 1's scaling, the only one: (d, F, [d P for P in points]),
    with d the lcm of every denominator of every coordinate (both parts of a
    Q(i) one) and F each k of ``coeffs`` times d^w for its weight w."""
    d = lcm_of_denominators([v for pt in points for v in pt])
    scaled = [Point4(*(_times(v, d) for v in pt)) for pt in points]
    return d, tuple(k * d**w for k, w in zip(coeffs, weights)), scaled


def scale_to_integers(f: QuinticCoeffs, points) -> tuple[QuinticCoeffs, list[Point4], list]:
    """(F, d-scaled points, their residuals) from ``integral_image`` for
    rational points on V_f; the residuals, all 0, are checked on V_F, so a
    point off V_f raises PointNotOnHypersurface."""
    points = list(points)
    if any(pt.field != FIELD_Q for pt in points):
        raise ValueError("integer scaling applies to rational points only")
    _, big, scaled = integral_image(f, points, (2, 3, 4))
    big = QuinticCoeffs(*big)
    residuals = [residual(big, pt) for pt in scaled]
    for pt, res in zip(points, residuals):
        if res:
            raise PointNotOnHypersurface(f"{pt} is not on V_f")
    return big, scaled, residuals


def residual_symbolic() -> MultiPoly:
    """f(p)+f(q)-f(r)-f(s) over Q, as a polynomial in p, q, r, s and the
    symbolic coefficients a, b, c of f."""
    p, q, r, s, a, b, c = MultiPoly.variables("p q r s a b c")
    fp, fq, fr, fs = (f_value(a, b, c, x) for x in (p, q, r, s))
    return fp + fq - fr - fs
