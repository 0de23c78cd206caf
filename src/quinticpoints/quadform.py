"""Solvability of a1*X1^2 + a2*X2^2 + a3*X3^2 + a4*X4^2 = 0 over Q.

:func:`normalize` makes the coefficients squarefree and leaves no prime in
three of them, moving one prime at a time over the factorizations that each
:class:`DiagonalForm` computes once (``exact.factor``).
:func:`represents_zero` decides by the classical three-condition criterion
(sign mixing, an odd-prime Legendre condition, a 2-adic Hilbert-symbol
condition) on a normalized form.  Its independent cross-check, a local
oracle by exhaustive residue search with Hensel lifting, lives in the tests
(``tests/oracle.py``), since no command needs it.  :func:`find_zero` looks
for an explicit witness in a box by meeting in the middle over Python ints.

On top of these sit the ternary specialization x^2+2y^2+3z^2 = -5a, its conic
parametrization, and the family of forms with many prescribed solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import CertificateError, factor, hilbert2, legendre
from .poly import MultiPoly, RationalFunction


class ZeroCoefficient(ValueError):
    """Diagonal forms need all four coefficients nonzero."""


class NotNormalized(ValueError):
    """The decision procedure requires a normalized form."""


class BaseNotOnConic(ValueError):
    """The proposed base solution does not satisfy the conic equation."""


@dataclass(frozen=True)
class DiagonalForm:
    """a1*X1^2 + ... + a4*X4^2, coefficients nonzero integers."""

    a1: int
    a2: int
    a3: int
    a4: int

    def __post_init__(self):
        if 0 in self.coeffs():
            raise ZeroCoefficient("all four coefficients must be nonzero")

    def coeffs(self) -> tuple[int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4)

    @cached_property
    def factors(self) -> tuple[dict[int, int], ...]:
        """``exact.factor`` of each coefficient, computed once per form."""
        return tuple(factor(a) for a in self.coeffs())

    @property
    def discriminant(self) -> int:
        return self.a1 * self.a2 * self.a3 * self.a4

    def value(self, xs) -> int:
        return sum(a * x * x for a, x in zip(self.coeffs(), xs))

    def is_normalized(self) -> bool:
        """Every coefficient squarefree, and no prime divides three of them."""
        if any(e > 1 for f in self.factors for e in f.values()):
            return False
        return all(sum(p in f for f in self.factors) < 3 for p in set().union(*self.factors))


@dataclass(frozen=True)
class NormalizationResult:
    """Normalized form plus, per slot, the rational multiplier carrying a
    solution of the normalized form back to a solution of the input form."""

    form: DiagonalForm
    back_scalings: tuple[Fraction, Fraction, Fraction, Fraction]

    def pull_back_witness(self, witness) -> tuple[int, int, int, int]:
        """Map a normalized-form zero to a primitive zero of the input form."""
        scaled = [m * w for m, w in zip(self.back_scalings, witness)]
        lcm = math.lcm(*(s.denominator for s in scaled)) if any(scaled) else 1
        ints = [int(s * lcm) for s in scaled]
        g = math.gcd(*ints)
        if g:
            ints = [v // g for v in ints]
        return tuple(ints)


def normalize(a1: int, a2: int, a3: int, a4: int) -> NormalizationResult:
    """Make every coefficient squarefree and leave no prime in three of them,
    one prime p at a time; both moves preserve solvability and are recorded
    as per-variable scalings.

    With p^e_i in a_i, slot i first drops p^(2*(e_i//2)) (a*X^2 = s*(kX)^2,
    so back_i /= p^(e_i//2)).  If p is then left in three or four slots,
    those slots drop it too (back_i /= p) and the form is multiplied by p,
    so the slots that keep p flip: the fourth of three gains it, none of four
    keeps it.  Primes move independently, so one pass over them suffices.
    """
    form = DiagonalForm(a1, a2, a3, a4)
    back = [Fraction(1)] * 4
    kept: list[dict[int, int]] = [{}, {}, {}, {}]
    for p in sorted(set().union(*form.factors)):
        es = [f.get(p, 0) for f in form.factors]
        flip = sum(e % 2 for e in es) >= 3
        for i, e in enumerate(es):
            back[i] /= p ** (e // 2 + (e % 2 if flip else 0))
            if e % 2 != flip:
                kept[i][p] = 1
    result = DiagonalForm(*((1 if a > 0 else -1) * math.prod(k) for a, k in zip(form.coeffs(), kept)))
    result.__dict__["factors"] = tuple(kept)  # known already: never factor twice
    return NormalizationResult(result, tuple(back))


# ---------------------------------------------------------------------------
# the three-condition decision procedure

@dataclass(frozen=True)
class OddPrimeCondition:
    p: int
    applies: bool  # (d/p^2 | p) = 1, so the Legendre test is binding
    ok: bool


@dataclass(frozen=True)
class SolvabilityReport:
    form: DiagonalForm
    signs_ok: bool
    odd_primes: tuple[OddPrimeCondition, ...]
    two_adic_applies: bool
    two_adic_ok: bool

    @property
    def solvable(self) -> bool:
        return (
            self.signs_ok
            and all(c.ok for c in self.odd_primes)
            and self.two_adic_ok
        )

    def conditions_json(self) -> dict:
        return {
            "signs": self.signs_ok,
            "odd_primes": [
                {"p": c.p, "applies": c.applies, "ok": c.ok} for c in self.odd_primes
            ],
            "two_adic": {"applies": self.two_adic_applies, "ok": self.two_adic_ok},
        }


def represents_zero(form: DiagonalForm) -> SolvabilityReport:
    """Decide nontrivial solvability of the normalized form.

    The form represents zero iff (1) the signs are mixed, (2) for each odd
    prime p dividing two coefficients with (d/p^2 | p) = 1 the complementary
    pair satisfies (-a_i*a_j | p) = 1, and (3) when d = 1 (mod 8) or
    d/4 = 1 (mod 8), the 2-adic symbol (-a1*a2, -a2*a3)_2 equals 1.
    """
    if not form.is_normalized():
        raise NotNormalized(f"{form} is not normalized")
    cs = form.coeffs()
    d = form.discriminant

    signs_ok = any(a > 0 for a in cs) and any(a < 0 for a in cs)

    odd_conditions = []
    odd_primes = sorted(
        p
        for p in set().union(*form.factors)
        if p != 2 and sum(p in f for f in form.factors) == 2
    )
    for p in odd_primes:
        unit_pair = [a for a in cs if a % p != 0]
        applies = legendre(d // (p * p), p) == 1
        ok = (not applies) or legendre(-unit_pair[0] * unit_pair[1], p) == 1
        odd_conditions.append(OddPrimeCondition(p=p, applies=applies, ok=ok))

    two_applies = d % 8 == 1 or (d % 4 == 0 and (d // 4) % 8 == 1)
    two_ok = (not two_applies) or hilbert2(-cs[0] * cs[1], -cs[1] * cs[2]) == 1

    return SolvabilityReport(
        form=form,
        signs_ok=signs_ok,
        odd_primes=tuple(odd_conditions),
        two_adic_applies=two_applies,
        two_adic_ok=two_ok,
    )


# ---------------------------------------------------------------------------
# witness search

def find_zero(form: DiagonalForm, search_bound: int):
    """First primitive zero with all |X_i| <= bound, enumerating by
    increasing max-norm with the per-coordinate value order 0, 1, -1, 2, -2,
    ... as the tie-break.  Returns None when the box holds no zero.

    Meet in the middle: a dict maps each a3*x3^2 + a4*x4^2 with
    0 <= x3, x4 <= bound to its pairs, and each -(a1*x1^2 + a2*x2^2) is
    looked up in it, so the cost is O(bound^2) time and memory.  Flipping
    the sign of a nonzero coordinate keeps a zero a zero and only ranks it
    later, so the first zero is among the nonnegative ones searched here.
    """
    a1, a2, a3, a4 = form.coeffs()
    box = range(search_bound + 1)
    right: dict[int, list[tuple[int, int]]] = {}
    for x3 in box:
        for x4 in box:
            right.setdefault(a3 * x3 * x3 + a4 * x4 * x4, []).append((x3, x4))
    hits = [
        (x1, x2, x3, x4)
        for x1 in box
        for x2 in box
        for x3, x4 in right.get(-(a1 * x1 * x1 + a2 * x2 * x2), ())
        if math.gcd(x1, x2, x3, x4) == 1
    ]
    if not hits:
        return None
    return min(hits, key=lambda t: (max(t),) + t)


# ---------------------------------------------------------------------------
# the ternary specialization x^2 + 2y^2 + 3z^2 = -5a

@dataclass(frozen=True)
class TernarySolution:
    x: Fraction
    y: Fraction
    z: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))
        object.__setattr__(self, "z", Fraction(self.z))

    def coords(self):
        return (self.x, self.y, self.z)

    def ternary_value(self) -> Fraction:
        return self.x**2 + 2 * self.y**2 + 3 * self.z**2


def ternary_solvable(a: int) -> bool:
    """Is x^2 + 2y^2 + 3z^2 = -5a solvable in rationals (nontrivially)?

    Iff a < 0 and -a is not 4^k(16m + 2): Dickson's theorem (Modern
    Elementary Theory of Numbers, 1939) that the regular form x^2+2y^2+3z^2
    represents n iff n is not 4^k(16m + 10), at n = -5a.  The tests check it
    against represents_zero of the normalized quaternary (1, 2, 3, 5a).
    """
    if a >= 0:
        return False
    n = -a
    while n % 4 == 0:
        n //= 4
    return n % 16 != 2


def ternary_base_solution(a: int, search_bound: int = 60) -> TernarySolution | None:
    """A rational base point on x^2+2y^2+3z^2 = -5a via the quaternary
    witness search, un-scaled back from the normalized form."""
    norm = normalize(1, 2, 3, 5 * a)
    witness = find_zero(norm.form, search_bound)
    if witness is None:
        return None
    x1, x2, x3, x4 = norm.pull_back_witness(witness)
    if x4 == 0:
        return None  # cannot happen: the ternary part is definite
    return TernarySolution(Fraction(x1, x4), Fraction(x2, x4), Fraction(x3, x4))


@dataclass(frozen=True)
class ConicParametrization:
    a: int
    base: TernarySolution
    x: RationalFunction
    y: RationalFunction
    z: RationalFunction


def parametrize_conic(a: int, base: TernarySolution) -> ConicParametrization:
    """Sweep lines of direction (u, v, 1) through the base point: the second
    intersection with x^2+2y^2+3z^2 = -5a is rational in (u, v)."""
    if base.ternary_value() != -5 * a:
        raise BaseNotOnConic(f"{base} does not satisfy x^2+2y^2+3z^2 = {-5 * a}")
    u, v = MultiPoly.variables("u v")
    x0, y0, z0 = base.coords()
    denom = u**2 + 2 * v**2 + 3
    t_num = -2 * (u * x0 + 2 * v * y0 + 3 * z0)
    t = RationalFunction(t_num, denom)
    x = u * t + x0
    y = v * t + y0
    z = t + z0
    residual = x * x + 2 * y * y + 3 * z * z + 5 * a
    if not residual.is_identically_zero:
        raise CertificateError("conic parametrization failed its own certificate")
    return ConicParametrization(a=a, base=base, x=x, y=y, z=z)


def question3_family(n: int):
    """The explicit family with n prescribed integer solutions: with
    g = prod_{k<=n} (k^2+2) and a = -(5g)^2, the triple

        x_k = 5g(2k+3)/(k^2+2),
        y_k = 5g(k^2+3k-2)/(k^2+2),
        z_k = 5g(k^2-2k-1)/(k^2+2)

    is integral, divisible by 5, and satisfies x^2+2y^2+3z^2 = -5a."""
    if n < 1:
        raise ValueError("need n >= 1")
    g = math.prod(k * k + 2 for k in range(1, n + 1))
    a_n = -((5 * g) ** 2)
    sols = []
    for k in range(1, n + 1):
        m, rem = divmod(5 * g, k * k + 2)
        sol = TernarySolution(m * (2 * k + 3), m * (k * k + 3 * k - 2), m * (k * k - 2 * k - 1))
        if (
            rem
            or sol.ternary_value() != -5 * a_n
            or any(c.denominator != 1 or c.numerator % 5 for c in sol.coords())
        ):
            raise CertificateError(f"question-3 triple k = {k} fails its certificate")
        sols.append(sol)
    return a_n, sols
