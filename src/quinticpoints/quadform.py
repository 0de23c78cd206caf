"""Solvability of a1*X1^2 + a2*X2^2 + a3*X3^2 + a4*X4^2 = 0 over Q.

:func:`normalize` makes the coefficients squarefree and leaves no prime in
three of them, moving one prime at a time over the factorizations that each
:class:`DiagonalForm` computes once (``exact.factor``).
:func:`represents_zero` decides by the classical three-condition criterion
(sign mixing, an odd-prime Legendre condition, a 2-adic Hilbert-symbol
condition) on a normalized form, and returns its verdict with the
conditions exactly as ``solve-form`` prints them.  Its independent cross-check, a local
oracle by exhaustive residue search with Hensel lifting, lives in the tests
(``tests/oracle.py``), since no command needs it.  :func:`find_zero` looks
for an explicit witness in a box over Python ints, shell by shell in
max-norm, and stops at the first shell that holds a zero: a witness of
max-norm n costs O(n^2), and only a box with no zero costs O(bound^2).
:func:`certified_zero` checks the witness and its pull-back in ints.

On top of these sit the ternary specialization x^2+2y^2+3z^2 = -5a, with a
base point from the witness search, and the family of forms with many
prescribed solutions.  Base points and solutions are plain (x, y, z)
triples; the lines through a base point that sweep out the conic are
``surfaces._conic_sweep``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .exact import CertificateError, checked_make, factor, hilbert2, legendre


class ZeroCoefficient(ValueError):
    """Diagonal forms need all four coefficients nonzero."""


class NotNormalized(ValueError):
    """The decision procedure requires a normalized form."""


class DiagonalForm(namedtuple("DiagonalForm", "a1 a2 a3 a4")):
    """a1*X1^2 + ... + a4*X4^2, coefficients nonzero integers.  No
    ``__slots__``: ``factors`` is cached in the instance ``__dict__``."""

    def __new__(cls, a1, a2, a3, a4):
        if 0 in (a1, a2, a3, a4):
            raise ZeroCoefficient("all four coefficients must be nonzero")
        return super().__new__(cls, a1, a2, a3, a4)

    _make = classmethod(checked_make)

    @cached_property
    def factors(self) -> tuple[dict[int, int], ...]:
        """``exact.factor`` of each coefficient, computed once per form."""
        return tuple(factor(a) for a in self)

    @property
    def discriminant(self) -> int:
        return self.a1 * self.a2 * self.a3 * self.a4

    def value(self, xs) -> int:
        return sum(a * x * x for a, x in zip(self, xs))

    def is_normalized(self) -> bool:
        """Every coefficient squarefree, and no prime divides three of them."""
        if any(e > 1 for f in self.factors for e in f.values()):
            return False
        return all(sum(p in f for f in self.factors) < 3 for p in set().union(*self.factors))


def pull_back_witness(back, witness) -> tuple[int, int, int, int]:
    """Map a zero of the normalized form to a primitive zero of the input
    form, by the per-slot multipliers ``back`` that ``normalize`` returns."""
    scaled = [m * w for m, w in zip(back, witness)]
    lcm = math.lcm(*(s.denominator for s in scaled)) if any(scaled) else 1
    ints = [int(s * lcm) for s in scaled]
    g = math.gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    return tuple(ints)


def normalize(a1: int, a2: int, a3: int, a4: int) -> tuple[DiagonalForm, tuple[Fraction, ...]]:
    """Make every coefficient squarefree and leave no prime in three of them,
    one prime p at a time; both moves preserve solvability and are recorded
    as per-variable scalings.  Returns (form, back): the normalized form and,
    per slot, the rational multiplier carrying a zero of it back to a zero
    of the input form (``pull_back_witness``).

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
    result = DiagonalForm(*((1 if a > 0 else -1) * math.prod(k) for a, k in zip(form, kept)))
    result.__dict__["factors"] = tuple(kept)  # known already: never factor twice
    return result, tuple(back)


# ---------------------------------------------------------------------------
# the three-condition decision procedure

def represents_zero(form: DiagonalForm) -> tuple[bool, dict]:
    """Decide nontrivial solvability of the normalized form: the verdict
    and the conditions, in the JSON shape that ``solve-form`` prints.

    The form represents zero iff (1) the signs are mixed, (2) for each odd
    prime p dividing two coefficients with (d/p^2 | p) = 1 the complementary
    pair satisfies (-a_i*a_j | p) = 1, and (3) when d = 1 (mod 8) or
    d/4 = 1 (mod 8), the 2-adic symbol (-a1*a2, -a2*a3)_2 equals 1.  An odd
    prime's condition "applies" when (d/p^2 | p) = 1, so that its Legendre
    test binds.
    """
    if not form.is_normalized():
        raise NotNormalized(f"{form} is not normalized")
    d = form.discriminant

    signs_ok = any(a > 0 for a in form) and any(a < 0 for a in form)

    odd_conditions = []
    odd_primes = sorted(
        p
        for p in set().union(*form.factors)
        if p != 2 and sum(p in f for f in form.factors) == 2
    )
    for p in odd_primes:
        unit_pair = [a for a in form if a % p != 0]
        applies = legendre(d // (p * p), p) == 1
        ok = (not applies) or legendre(-unit_pair[0] * unit_pair[1], p) == 1
        odd_conditions.append({"p": p, "applies": applies, "ok": ok})

    two_applies = d % 8 == 1 or (d % 4 == 0 and (d // 4) % 8 == 1)
    two_ok = (not two_applies) or hilbert2(-form.a1 * form.a2, -form.a2 * form.a3) == 1

    solvable = signs_ok and all(c["ok"] for c in odd_conditions) and two_ok
    return solvable, {
        "signs": signs_ok,
        "odd_primes": odd_conditions,
        "two_adic": {"applies": two_applies, "ok": two_ok},
    }


# ---------------------------------------------------------------------------
# witness search

def find_zero(form: DiagonalForm, search_bound: int):
    """First primitive zero with all |X_i| <= bound, enumerating by
    increasing max-norm with the per-coordinate value order 0, 1, -1, 2, -2,
    ... as the tie-break.  Returns None when the box holds no zero.

    Flipping the sign of a nonzero coordinate keeps a zero a zero and only
    ranks it later, so the first zero has nonnegative coordinates.  The
    search walks the box shell by shell: shell n holds the pairs whose
    max-norm is exactly n, for n = 1, 2, ....  Two sets keep the left values
    -(a1*x1^2 + a2*x2^2) and the right values a3*x3^2 + a4*x4^2 of every pair
    with max-norm <= n, each seeded with 0 for the pair (0, 0), and the
    scaled squares are built only as far as the current shell.  At shell n
    the new left values are tested against every right value and the new
    right values against every left value; a zero of max-norm n has a pair
    on shell n, so the first shell with a match is the max-norm of the first
    zero.  A zero on shell n with gcd g > 1 divides down to one on shell
    n/g, so that shell holds only primitive zeros (the gcd filter is kept,
    and drops the trivial zero).  Every nonzero zero of the n-box then has
    max-norm n, so one pass over the n-box in lexicographic order returns
    the least zero by the key (max(t),) + t.

    A witness on shell n costs O(n^2) time and memory, so the common small
    witness returns at once; a box with no zero is searched in full, in
    O(bound^2).
    """
    a1, a2, a3, a4 = form
    left, right = {0}, {0}
    m1, m2, p3, p4 = [0], [0], [0], [0]  # -a1*x^2, -a2*x^2, a3*x^2, a4*x^2 for x <= n
    for n in range(1, search_bound + 1):
        nn = n * n
        u1, u2, u3, u4 = -a1 * nn, -a2 * nn, a3 * nn, a4 * nn
        m1.append(u1)
        m2.append(u2)
        p3.append(u3)
        p4.append(u4)
        new_left = {u1 + v for v in m2}
        new_left.update([u2 + v for v in m1])
        new_right = {u3 + v for v in p4}
        new_right.update([u4 + v for v in p3])
        right |= new_right
        if not (new_left.isdisjoint(right) and new_right.isdisjoint(left)):
            break
        left |= new_left
    else:
        return None
    for x1, v1 in enumerate(m1):
        for x2, v2 in enumerate(m2):
            if v1 + v2 in right:
                for x3, v3 in enumerate(p3):
                    for x4, v4 in enumerate(p4):
                        if v3 + v4 == v1 + v2 and math.gcd(x1, x2, x3, x4) == 1:
                            return x1, x2, x3, x4


def certified_zero(a1: int, a2: int, a3: int, a4: int, search_bound: int):
    """(normal, witness, zero): the normalized form of a1*X1^2 + ... +
    a4*X4^2, its first zero in the box of ``find_zero`` and that zero pulled
    back to the input form; witness and zero are None when the box holds
    none.  Checked in Python ints before it is returned: the witness is a
    primitive zero of the normalized form and its pull-back a nonzero zero
    of the input form, else CertificateError."""
    normal, back = normalize(a1, a2, a3, a4)
    witness = find_zero(normal, search_bound)
    if witness is None:
        return normal, None, None
    if normal.value(witness) != 0 or math.gcd(*witness) != 1:
        raise CertificateError(f"{list(witness)} is not a primitive zero of {normal}")
    zero, form = pull_back_witness(back, witness), DiagonalForm(a1, a2, a3, a4)
    if not any(zero) or form.value(zero) != 0:
        raise CertificateError(f"pulled-back witness {list(zero)} is not a zero of {form}")
    return normal, witness, zero


# ---------------------------------------------------------------------------
# the ternary specialization x^2 + 2y^2 + 3z^2 = -5a

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


def ternary_base_solution(a: int, search_bound: int = 60):
    """A rational base point (x, y, z) on x^2+2y^2+3z^2 = -5a from the
    certified witness of the quaternary (1, 2, 3, 5a); None when the box
    holds no witness.  Its x4 is nonzero, as the ternary part is definite."""
    zero = certified_zero(1, 2, 3, 5 * a, search_bound)[2]
    if zero is None:
        return None
    x1, x2, x3, x4 = zero
    return Fraction(x1, x4), Fraction(x2, x4), Fraction(x3, x4)


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
        x, y, z = m * (2 * k + 3), m * (k * k + 3 * k - 2), m * (k * k - 2 * k - 1)
        if rem or x * x + 2 * y * y + 3 * z * z != -5 * a_n or x % 5 or y % 5 or z % 5:
            raise CertificateError(f"question-3 triple k = {k} fails its certificate")
        sols.append((x, y, z))
    return a_n, sols
