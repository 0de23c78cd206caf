"""The independent local oracle for diagonal quaternary forms, and the
sweeps that compare it with ``quadform.represents_zero``.

``local_oracle`` decides solvability by exhaustive residue search with the
standard Hensel lifting criterion at every relevant prime.  It knows nothing
about the three conditions of ``represents_zero`` and is the cross-check of
that decision procedure.  No command needs it, so it lives with the tests.
``_zp_isotropic_odd`` builds arrays of size p and p^2: keep p small.

``TuplePoly`` is the reference for ``poly.MultiPoly``: the kernel that
keyed each term by its exponent tuple over the sorted variables that occur,
before monomials were packed into ints.  ``tuple_rational`` is the integral
representative that ``poly.RationalFunction`` keeps.

``long_on_curve``, ``long_add`` and ``long_is_nontorsion`` are the reference
for the group law of ``elliptic``: the long Weierstrass form y^2 + a1 xy +
a3 y = x^3 + a2 x^2 + a4 x + a6 that ``elliptic`` carried before it kept
the short form only, in Fractions.  A point is an (x, y) pair of Fractions
and the identity is None.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter

import numpy as np

from quinticpoints.exact import factor, squarefree_decompose
from quinticpoints.quadform import (
    DiagonalForm,
    NotNormalized,
    normalize,
    represents_zero,
    ternary_solvable,
)


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
    if all(a > 0 for a in form) or all(a < 0 for a in form):
        return False
    odd_primes = [p for p in factor(form.discriminant) if p != 2]
    for p in odd_primes:
        if not _zp_isotropic_odd(form, p):
            return False
    return _z2_isotropic(form)


def normalized_forms_up_to(max_abs: int):
    """Every normalized form with |a_i| <= max_abs, up to coefficient order
    and global sign (neither affects the zero set): sorted coefficient
    tuples, first coefficient positive."""
    values = [
        n
        for n in range(-max_abs, max_abs + 1)
        if n and squarefree_decompose(n)[1] == 1
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
        jones, _ = represents_zero(form)
        if jones:
            solvable += 1
        if jones != local_oracle(form):
            disagreements.append(tuple(form))
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
        oracle_verdict = local_oracle(normalize(1, 2, 3, 5 * a)[0])
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


# ---------------------------------------------------------------------------
# the reference polynomial kernel: terms keyed by exponent tuples

def _grlex(exps):
    return sum(exps), exps


def _coerce(value):
    q = Fraction(value)
    return q.numerator if q.denominator == 1 else q


def _on_support(vars: tuple, terms: dict) -> tuple[tuple, dict]:
    """(vars, terms) without the columns of the variables that do not occur."""
    keep = [i for i, column in enumerate(zip(*terms)) if any(column)]
    if len(keep) == len(vars):
        return vars, terms
    return tuple(vars[i] for i in keep), {tuple([e[i] for i in keep]): c for e, c in terms.items()}


def _embedded(poly: "TuplePoly", vars: tuple) -> dict:
    """The terms of ``poly`` on ``vars``, a sorted superset of its variables."""
    if poly.vars == vars:
        return poly.terms
    if not poly.vars:
        return {(0,) * len(vars): c for c in poly.terms.values()}
    get = itemgetter(*(poly.vars.index(v) if v in poly.vars else -1 for v in vars))
    return {get(e + (0,)): c for e, c in poly.terms.items()}


class TuplePoly:
    """A polynomial as (sorted variables that occur, exponent tuple -> coefficient)."""

    def __init__(self, vars, terms):
        vars = tuple(vars)
        order = sorted(range(len(vars)), key=vars.__getitem__)
        clean = {}
        for exps, coeff in terms.items():
            coeff = _coerce(coeff)
            if coeff:
                clean[tuple(exps[i] for i in order)] = coeff
        self.vars, self.terms = _on_support(tuple(vars[i] for i in order), clean)

    @staticmethod
    def constant(value) -> "TuplePoly":
        return TuplePoly((), {(): value})

    def _unified(self, other: "TuplePoly"):
        vars = tuple(sorted(set(self.vars).union(other.vars)))
        return _embedded(self, vars), _embedded(other, vars), vars

    def __add__(self, other):
        if not isinstance(other, TuplePoly):
            other = TuplePoly.constant(other)
        a, b, vars = self._unified(other)
        terms = dict(a)
        for exps, coeff in b.items():
            terms[exps] = terms.get(exps, 0) + coeff
        return TuplePoly(vars, terms)

    def __neg__(self):
        return TuplePoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TuplePoly):
            other = TuplePoly.constant(other)
        a, b, vars = self._unified(other)
        terms: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(map(add, e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return TuplePoly(vars, terms)

    def __pow__(self, n: int):
        result = TuplePoly.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if not self.vars:  # a constant hashes as its scalar, as it compares
            return hash(self.terms.get((), 0))
        return hash((self.vars, frozenset(self.terms.items())))

    def degree(self, var=None) -> int:
        if not self.terms:
            return -1
        if var is None:
            return max(sum(e) for e in self.terms)
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def coefficient_of(self, var, power: int) -> "TuplePoly":
        if var not in self.vars:
            return self if power == 0 else TuplePoly((), {})
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1:]
        terms = {e[:i] + e[i + 1:]: c for e, c in self.terms.items() if e[i] == power}
        return TuplePoly(rest, terms)

    def substitute(self, bindings: dict) -> tuple["TuplePoly", "TuplePoly"]:
        """Compose with bindings name -> (num, den); the result is the
        integral representative (num, den) of ``tuple_rational``."""
        nums, dens = {}, {}
        for name, (num, den) in bindings.items():
            nums[name], dens[name] = tuple_rational(num, den)
        groups: list = []
        for name, den_poly in dens.items():
            for existing, members in groups:
                if existing == den_poly:
                    members.append(name)
                    break
            else:
                groups.append((den_poly, [name]))
        group_of = {name: gi for gi, (_, members) in enumerate(groups) for name in members}
        group_max = [0] * len(groups)
        for exps in self.terms:
            totals = [0] * len(groups)
            for v, e in zip(self.vars, exps):
                if v in group_of:
                    totals[group_of[v]] += e
            group_max = list(map(max, group_max, totals))
        acc = TuplePoly((), {})
        for exps, coeff in self.terms.items():
            term = TuplePoly.constant(coeff)
            totals = [0] * len(groups)
            for v, e in zip(self.vars, exps):
                if v in nums:
                    term = term * nums[v] ** e
                    totals[group_of[v]] += e
                else:
                    term = term * TuplePoly((v,), {(e,): 1})
            for gi, (den_poly, _) in enumerate(groups):
                term = term * den_poly ** (group_max[gi] - totals[gi])
            acc = acc + term
        den = TuplePoly.constant(1)
        for gi, (den_poly, _) in enumerate(groups):
            den = den * den_poly ** group_max[gi]
        return tuple_rational(acc, den)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in sorted(self.terms.items(), key=lambda kv: _grlex(kv[0]), reverse=True):
            factors = [str(coeff)]
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def tuple_rational(num: TuplePoly, den: TuplePoly) -> tuple[TuplePoly, TuplePoly]:
    """num / den scaled to integer coefficients with joint content 1 and a
    positive grlex-leading denominator coefficient over the sorted names."""
    if not num.terms:
        return num, TuplePoly.constant(1)
    sign = 1 if den.terms[max(den.terms, key=_grlex)] > 0 else -1
    coeffs = [Fraction(c) for c in (*num.terms.values(), *den.terms.values())]
    g = math.gcd(*(q.numerator for q in coeffs))
    d = math.lcm(*(q.denominator for q in coeffs))
    return tuple(
        TuplePoly(p.vars, {e: Fraction(sign * c * d) / g for e, c in p.terms.items()})
        for p in (num, den)
    )


# ---------------------------------------------------------------------------
# the reference group law: long Weierstrass form, coefficients (a1, a2, a3, a4, a6)

def long_on_curve(a, point) -> bool:
    """Whether the point satisfies the long-form equation, cross-multiplied
    by xd^3 yd^2 as ``elliptic.on_curve`` was on its integral model (here
    on the curve itself, with rational coefficients)."""
    if point is None:
        return True
    a1, a2, a3, a4, a6 = a
    x, y = point
    xd, yd = x.denominator, y.denominator
    big_x, big_y = x.numerator, y.numerator
    lhs = big_y * xd * xd * (big_y * xd + (a1 * big_x + a3 * xd) * yd)
    return lhs == yd * yd * (((big_x + a2 * xd) * big_x + a4 * xd * xd) * big_x + a6 * xd**3)


def long_negate(a, point):
    if point is None:
        return None
    a1, _, a3, _, _ = a
    return point[0], -point[1] - a1 * point[0] - a3


def long_add(a, p, q):
    """The chord-tangent step in long form, with the line y = lam x + nu."""
    if p is None:
        return q
    if q is None:
        return p
    a1, a2, a3, a4, a6 = a
    (x1, y1), (x2, y2) = p, q
    if x1 == x2 and y2 == -y1 - a1 * x1 - a3:
        return None
    if x1 != x2:
        lam = (y2 - y1) / (x2 - x1)
        nu = (y1 * x2 - y2 * x1) / (x2 - x1)
    else:
        denom = 2 * y1 + a1 * x1 + a3
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / denom
        nu = (-(x1**3) + a4 * x1 + 2 * a6 - a3 * y1) / denom
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    return x3, -(lam + a1) * x3 - nu - a3


def long_mul(a, n: int, point):
    """nP by |n| chord-tangent steps, negated for n < 0."""
    acc = None
    for _ in range(abs(n)):
        acc = long_add(a, acc, point)
    return long_negate(a, acc) if n < 0 else acc


def long_is_nontorsion(a, point) -> bool:
    """False when one of the first 12 multiples of P is the identity; by
    Mazur's theorem a rational torsion point has order at most 12."""
    acc = None
    for _ in range(12):
        acc = long_add(a, acc, point)
        if acc is None:
            return False
    return True
