"""Solvability of a1*X1^2 + a2*X2^2 + a3*X3^2 + a4*X4^2 = 0 over Q.

Two independent routes are kept deliberately separate:

* :func:`represents_zero` decides by the classical three-condition criterion
  (sign mixing, an odd-prime Legendre condition, a 2-adic Hilbert-symbol
  condition) on a normalized form.
* :func:`local_oracle` decides by exhaustive residue search with the standard
  Hensel lifting criterion at every relevant prime.  It knows nothing about
  the three conditions and is the in-repo cross-check.

On top of these sit the ternary specialization x^2+2y^2+3z^2 = -5a, its conic
parametrization, and the family of forms with many prescribed solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .exact import CertificateError, hilbert2, legendre, squarefree_decompose
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

    @property
    def discriminant(self) -> int:
        return self.a1 * self.a2 * self.a3 * self.a4

    def value(self, xs) -> int:
        return sum(a * x * x for a, x in zip(self.coeffs(), xs))

    def is_normalized(self) -> bool:
        for a in self.coeffs():
            if squarefree_decompose(a).square_root_cofactor != 1:
                return False
        cs = self.coeffs()
        for skip in range(4):
            triple = [c for i, c in enumerate(cs) if i != skip]
            if math.gcd(math.gcd(triple[0], triple[1]), triple[2]) > 1:
                return False
        return True


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
    """Make every coefficient squarefree and remove common factors of any
    three coefficients; both moves preserve solvability and are recorded as
    per-variable scalings."""
    coeffs = [a1, a2, a3, a4]
    if 0 in coeffs:
        raise ZeroCoefficient("all four coefficients must be nonzero")
    back = [Fraction(1)] * 4
    while True:
        changed = False
        for i, a in enumerate(coeffs):
            dec = squarefree_decompose(a)
            if dec.square_root_cofactor != 1:
                # a*X^2 = s*(k*X)^2: the normalized variable is k*X
                coeffs[i] = dec.squarefree_part
                back[i] /= dec.square_root_cofactor
                changed = True
        for skip in range(4):
            triple = [i for i in range(4) if i != skip]
            g = math.gcd(
                math.gcd(coeffs[triple[0]], coeffs[triple[1]]), coeffs[triple[2]]
            )
            if g > 1:
                p = min(k for k in factorint_small(g))
                for i in triple:
                    coeffs[i] //= p
                    back[i] /= p
                coeffs[skip] *= p
                changed = True
                break
        if not changed:
            return NormalizationResult(DiagonalForm(*coeffs), tuple(back))


def factorint_small(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division (inputs here are small)."""
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
        for p in set().union(*(factorint_small(a) for a in cs))
        if p != 2 and sum(1 for a in cs if a % p == 0) == 2
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
# the independent local oracle

@lru_cache(maxsize=4096)
def _square_value_sets(a_mod: int, p: int):
    """Boolean tables over Z/p of values a*x^2: (any x, x a unit)."""
    xs = np.arange(p, dtype=np.int64)
    vals = (a_mod * ((xs * xs) % p)) % p
    any_set = np.zeros(p, dtype=bool)
    any_set[vals] = True
    unit_set = np.zeros(p, dtype=bool)
    if a_mod % p != 0:
        unit_set[vals[1:]] = True
    return any_set, unit_set


def _sumset_mod(p: int, left, right):
    out = np.zeros(p, dtype=bool)
    for s in np.nonzero(left)[0]:
        out |= np.roll(right, s)
    return out


def _zp_isotropic_odd(coeffs, p: int) -> bool:
    """Primitive solution of the form = 0 (mod p^3) with the Hensel criterion.

    Level 1: any zero mod p with a unit partial derivative lifts directly.
    Otherwise only zeros supported on the p-divisible slots remain, and the
    mod-p^3 condition collapses to a two-variable search mod p^2 against the
    value set of the unit part.  Exact for squarefree coefficients.
    """
    any_sets = []
    unit_sets = []
    for a in coeffs:
        s_any, s_unit = _square_value_sets(a % p, p)
        any_sets.append(s_any)
        unit_sets.append(s_unit)
    neg_index = (-np.arange(p)) % p
    for i in range(4):
        if not unit_sets[i].any():
            continue
        rest = [any_sets[j] for j in range(4) if j != i]
        acc = _sumset_mod(p, _sumset_mod(p, rest[0], rest[1]), rest[2])
        if np.any(unit_sets[i] & acc[neg_index]):
            return True
    divisible = [i for i in range(4) if coeffs[i] % p == 0]
    if len(divisible) != 2:
        return False
    units = [i for i in range(4) if coeffs[i] % p != 0]
    reachable = np.zeros(p, dtype=bool)
    reachable[0] = True
    for i in units:
        reachable = _sumset_mod(p, reachable, any_sets[i])
    b1 = (coeffs[divisible[0]] // p) % (p * p)
    b2 = (coeffs[divisible[1]] // p) % (p * p)
    # scaling by units fixes the first divisible slot at 1
    p2 = p * p
    ys = np.arange(p2, dtype=np.int64)
    w = (b1 + b2 * ((ys * ys) % p2)) % p2
    mask = w % p == 0
    if not mask.any():
        return False
    h = (-(w[mask] // p)) % p
    return bool(reachable[h].any())


@lru_cache(maxsize=8192)
def _pair_table_mod64(ai: int, aj: int):
    """For (x_i, x_j) mod 64: which sums a_i x_i^2 + a_j x_j^2 occur, split by
    (has a coordinate with a*x not 0 mod 4, has an odd coordinate)."""
    xs = np.arange(64, dtype=np.int64)
    xi = xs[:, None]
    xj = xs[None, :]
    v = (ai * xi * xi + aj * xj * xj) % 64
    grad = ((ai * xi) % 4 != 0) | ((aj * xj) % 4 != 0)
    odd = (xi % 2 == 1) | (xj % 2 == 1)
    table = np.zeros((64, 2, 2), dtype=bool)
    table[v.ravel(), grad.ravel().astype(int), odd.ravel().astype(int)] = True
    return table

def _z2_isotropic(coeffs) -> bool:
    """Primitive solution mod 2^6 with a slot where a_i x_i is not 0 mod 4
    (the 2-adic Hensel lifting criterion for squarefree coefficients)."""
    t12 = _pair_table_mod64(coeffs[0], coeffs[1])
    t34 = _pair_table_mod64(coeffs[2], coeffs[3])
    for v in range(64):
        for g1 in (0, 1):
            for o1 in (0, 1):
                if not t12[v, g1, o1]:
                    continue
                for g2 in (0, 1):
                    for o2 in (0, 1):
                        if (
                            t34[(-v) % 64, g2, o2]
                            and (g1 or g2)
                            and (o1 or o2)
                        ):
                            return True
    return False


def local_oracle(form: DiagonalForm) -> bool:
    """Hasse-principle verdict by brute force: real solvability plus a
    liftable residue solution at 2 and at every odd prime dividing the
    discriminant."""
    if not form.is_normalized():
        raise NotNormalized(f"{form} is not normalized")
    cs = form.coeffs()
    if all(a > 0 for a in cs) or all(a < 0 for a in cs):
        return False
    odd_primes = sorted(
        p for p in factorint_small(form.discriminant) if p != 2
    )
    for p in odd_primes:
        if not _zp_isotropic_odd(cs, p):
            return False
    return _z2_isotropic(cs)


# ---------------------------------------------------------------------------
# witness search

def _signed_rank(v: int) -> tuple[int, int]:
    return (abs(v), 0 if v >= 0 else 1)


def find_zero(form: DiagonalForm, search_bound: int):
    """First primitive zero with all |X_i| <= bound, enumerating by
    increasing max-norm with the per-coordinate value order 0, 1, -1, 2, -2,
    ... as the tie-break.  Returns None when the box holds no zero."""
    a1, a2, a3, a4 = form.coeffs()
    b = search_bound
    hits = []
    xs = np.arange(-b, b + 1, dtype=np.int64)
    grid2, grid3 = np.meshgrid(xs, xs, indexing="ij")
    partial23 = a2 * grid2 * grid2 + a3 * grid3 * grid3
    for x1 in range(-b, b + 1):
        rhs = -(a1 * x1 * x1 + partial23)
        quot = rhs // a4
        exact = quot * a4 == rhs
        nonneg = quot >= 0
        ok = exact & nonneg
        if not ok.any():
            continue
        roots = np.sqrt(quot.clip(min=0).astype(np.float64)).round().astype(np.int64)
        for i2, i3 in zip(*np.nonzero(ok)):
            t = int(roots[i2, i3])
            q = int(quot[i2, i3])
            # float sqrt is only a guess; fix it exactly
            t = math.isqrt(q)
            if t * t != q or t > b:
                continue
            x2 = int(xs[i2])
            x3 = int(xs[i3])
            for x4 in {t, -t}:
                tup = (x1, x2, x3, x4)
                if tup == (0, 0, 0, 0):
                    continue
                if math.gcd(*tup) != 1:
                    continue
                hits.append(tup)
    if not hits:
        return None
    return min(
        hits,
        key=lambda t: (max(abs(v) for v in t),) + tuple(_signed_rank(v) for v in t),
    )


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

    Decided as represents_zero of the normalized quaternary
    (1, 2, 3, 5a); the definite ternary part makes the two questions
    equivalent.  a >= 0 is immediately unsolvable.
    """
    if a >= 0:
        return False
    return represents_zero(normalize(1, 2, 3, 5 * a).form).solvable


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

    def eval(self, u, v) -> TernarySolution:
        point = {"u": Fraction(u), "v": Fraction(v)}
        return TernarySolution(
            self.x.eval(point), self.y.eval(point), self.z.eval(point)
        )


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


def normalized_forms_up_to(max_abs: int):
    """Every normalized form with |a_i| <= max_abs, up to coefficient order
    and global sign (neither affects the zero set): sorted coefficient
    tuples, first coefficient positive."""
    values = [
        n
        for n in range(-max_abs, max_abs + 1)
        if n and squarefree_decompose(n).square_root_cofactor == 1
    ]
    values.sort()
    out = []
    k = len(values)
    for i1 in range(k):
        for i2 in range(i1, k):
            for i3 in range(i2, k):
                for i4 in range(i3, k):
                    form = (values[i1], values[i2], values[i3], values[i4])
                    mirrored = tuple(sorted(-a for a in form))
                    if form < mirrored:
                        continue  # global sign symmetry: keep one orientation
                    ok = True
                    for skip in range(4):
                        triple = [c for t, c in enumerate(form) if t != skip]
                        if math.gcd(math.gcd(triple[0], triple[1]), triple[2]) > 1:
                            ok = False
                            break
                    if ok:
                        out.append(DiagonalForm(*form))
    return out


def agreement_sweep(max_abs: int) -> dict:
    """represents_zero versus local_oracle over every normalized form with
    |a_i| <= max_abs; returns counts and any disagreeing forms."""
    forms = normalized_forms_up_to(max_abs)
    disagreements = []
    solvable = 0
    for form in forms:
        jones = represents_zero(form).solvable
        if jones:
            solvable += 1
        if jones != local_oracle(form):
            disagreements.append(form.coeffs())
    return {
        "max_abs": max_abs,
        "forms": len(forms),
        "solvable": solvable,
        "disagreements": disagreements,
    }


# ---------------------------------------------------------------------------
# the mod-48 question from the abstract

def congruence_sweep(a_min: int = -200, a_max: int = -1) -> dict:
    """Sweep a over [a_min, a_max], compare the three-condition verdict with
    the local oracle, and summarize which -a are unsolvable.

    The abstract claims unsolvability exactly for -a = 2, 18, 34 (mod 48)
    while the theorem body says a = 2, 18, 34 (mod 48); the sweep reports
    what actually happens instead of hard-coding either congruence.
    """
    insolvable = []
    disagreements = []
    for a in range(a_min, a_max + 1):
        jones = ternary_solvable(a)
        oracle_verdict = local_oracle(normalize(1, 2, 3, 5 * a).form)
        if jones != oracle_verdict:
            disagreements.append(a)
        if not jones:
            insolvable.append(-a)
    insolvable.sort()
    residues = sorted({v % 48 for v in insolvable})
    abstract_set = [2, 18, 34]
    pure_abstract_classes = all(
        (v % 48 in abstract_set) <= (v in insolvable)
        for v in range(-a_max, -a_min + 1)
    )
    return {
        "range": [a_min, a_max],
        "insolvable_minus_a": insolvable,
        "insolvable_residues_mod_48": residues,
        "matches_abstract_residues": residues == abstract_set,
        "abstract_classes_fully_insolvable": pure_abstract_classes,
        "theorem_statement_uses_a_not_minus_a": True,
        "oracle_disagreements": disagreements,
    }
