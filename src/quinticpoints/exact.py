"""Exact scalar arithmetic: rationals, Gaussian rationals, and the small
number-theoretic symbols (Legendre, 2-adic Hilbert, squarefree splitting)
that the solvability machinery is built on.

Rationals are plain ``fractions.Fraction`` values: always reduced, denominator
always positive, hashable and immutable.  Gaussian rationals are a pair of
those.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction


class NotOddPrime(ValueError):
    """Legendre symbol asked for a modulus that is not an odd prime."""


class ZeroArgument(ValueError):
    """An argument that must be nonzero was zero."""


class EmptyList(ValueError):
    """An argument list that must be nonempty was empty."""


class CertificateError(RuntimeError):
    """An exact check of a computed result failed: a fault of the program,
    not of its input, so deliberately not a ValueError."""


# ---------------------------------------------------------------------------
# parsing / formatting ("n/d" is the wire format used everywhere downstream)

def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def format_rational(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Gaussian rationals

@dataclass(frozen=True)
class GaussianRational:
    """Element of Q(i), stored as two canonical rationals (re + im*i, i^2 = -1)."""

    re: Fraction
    im: Fraction

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value), Fraction(0))
        raise TypeError(f"cannot coerce {value!r} into Q(i)")

    def __add__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other):
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """x * conj(x) as a plain rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.of(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.of(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = GAUSSIAN_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_rational(self) -> bool:
        return self.im == 0

    def __str__(self):
        if self.im == 0:
            return format_rational(self.re)
        if self.re == 0:
            return f"{format_rational(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}*i"

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}

    @staticmethod
    def from_json(obj: dict) -> "GaussianRational":
        return GaussianRational(parse_rational(obj["re"]), parse_rational(obj["im"]))


GAUSSIAN_ZERO = GaussianRational(Fraction(0), Fraction(0))
GAUSSIAN_ONE = GaussianRational(Fraction(1), Fraction(0))
GAUSSIAN_I = GaussianRational(Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# primality (deterministic below 3.3 * 10^24, Miller-Rabin beyond)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# witness set proven complete for n < 3_317_044_064_679_887_385_961_981
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def _miller_rabin(n: int, bases) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _DETERMINISTIC_BOUND:
        return _miller_rabin(n, _SMALL_PRIMES)
    rng = random.Random(n)
    return _miller_rabin(n, [rng.randrange(2, n - 1) for _ in range(40)])


# ---------------------------------------------------------------------------
# symbols

def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) via Euler's criterion.

    0 iff p | a, +1 for nonzero squares mod p, -1 otherwise.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise NotOddPrime(f"p={p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _kronecker2(n: int) -> int:
    # (2|n) for odd n, either sign: +1 iff n = +-1 (mod 8)
    return 1 if n % 8 in (1, 7) else -1


def hilbert2(alpha: int, beta: int) -> int:
    """2-adic Hilbert symbol (alpha, beta)_2.

    With alpha = 2^u a1, beta = 2^v b1 (a1, b1 odd), the value is
    (2|a1)^v * (2|b1)^u * (-1)^((a1-1)(b1-1)/4); it is +1 exactly when
    alpha*x^2 + beta*y^2 = 1 is solvable in the 2-adic field.
    """
    if alpha == 0 or beta == 0:
        raise ZeroArgument("hilbert2 needs nonzero arguments")
    u = 0
    a1 = alpha
    while a1 % 2 == 0:
        a1 //= 2
        u += 1
    v = 0
    b1 = beta
    while b1 % 2 == 0:
        b1 //= 2
        v += 1
    result = 1
    if v % 2:
        result *= _kronecker2(a1)
    if u % 2:
        result *= _kronecker2(b1)
    if ((a1 - 1) * (b1 - 1) // 4) % 2:
        result *= -1
    return result


# ---------------------------------------------------------------------------
# squarefree decomposition

@dataclass(frozen=True)
class SquarefreeDecomposition:
    """n = squarefree_part * square_root_cofactor^2."""

    squarefree_part: int
    square_root_cofactor: int


def factor_trial(n: int, limit: int = 10**6) -> dict[int, int]:
    """Trial-division factorization of |n| up to ``limit``; any remaining
    cofactor is returned as a single (possibly composite) key."""
    n = abs(n)
    factors: dict[int, int] = {}
    for p in range(2, limit + 1):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def squarefree_decompose(n: int) -> SquarefreeDecomposition:
    """Split n = s * k^2 with s squarefree and sign(s) = sign(n).

    Trial division handles every prime below 10^6; the remaining cofactor is
    stripped of perfect-square content, which is exact for the small inputs
    this library produces.
    """
    if n == 0:
        raise ZeroArgument("cannot decompose 0")
    sign = 1 if n > 0 else -1
    m = abs(n)
    squarefree = 1
    cofactor = 1
    for p in range(2, 10**6 + 1):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            cofactor *= p ** (e // 2)
            if e % 2:
                squarefree *= p
    # m is now coprime to everything below 10^6; peel perfect squares
    while m > 1:
        r = math.isqrt(m)
        if r * r == m:
            cofactor *= r
            m = 1
        else:
            squarefree *= m
            m = 1
    return SquarefreeDecomposition(sign * squarefree, cofactor)


def rational_square_root(q) -> Fraction | None:
    """The nonnegative rational square root of q, or None when q is not a
    square in Q."""
    q = Fraction(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def lcm_of_denominators(values) -> int:
    values = list(values)
    if not values:
        raise EmptyList("need at least one rational")
    d = 1
    for v in values:
        d = math.lcm(d, Fraction(v).denominator)
    return d
