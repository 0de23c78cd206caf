"""Exact scalar arithmetic: rationals, Gaussian rationals, and the small
number theory (primality, factorization, squarefree splitting, Legendre and
2-adic Hilbert symbols) that the solvability machinery is built on.

``factor`` is the one integer factorizer.  It trial-divides below 10^4
(``factor_trial``), splits exact perfect powers by integer k-th roots, and
runs Pollard's rho with Brent's cycle finding on what is left (Brent, BIT 20,
1980; Cohen, A Course in Computational Algebraic Number Theory, 8.5), with a
fixed budget of 2^20 rho steps per call: about a second on a 2-core x86
machine.  A composite part it cannot split within the budget raises
``FactorizationExhausted`` carrying that cofactor; no composite is ever
reported as a prime, nor a number as squarefree that is not.

Rationals are ``fractions.Fraction`` values: always reduced, denominator
always positive, hashable and immutable; every function here also accepts an
``int`` where it takes a rational.  A Gaussian rational is an immutable pair
whose parts are each an ``int`` when integral and a ``Fraction`` otherwise.
Its ring operations build their result without calling ``Fraction()``, so
sums and products of integral values stay in Python ints; division (``/``,
``inverse``) and ``norm`` go through ``Fraction``, so no part is ever a
``float``.
"""

from __future__ import annotations

import itertools
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

def _canonical(q):
    """An int or Fraction value as an int when it is integral."""
    return q if q.__class__ is int or q.denominator != 1 else q.numerator


def _gaussian(re, im):
    """The one private constructor: wraps two parts that are already
    canonical (an int when integral, a Fraction otherwise), without Fraction()."""
    z = _new(GaussianRational)
    _set_re(z, re)
    _set_im(z, im)
    return z


class GaussianRational:
    """Element of Q(i), re + im*i with i^2 = -1: immutable and hashable, each
    part an ``int`` when it is integral and a ``Fraction`` otherwise.  Equal
    only to another GaussianRational of the same value."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        _set_re(self, re if re.__class__ is int else _canonical(Fraction(re)))
        _set_im(self, im if im.__class__ is int else _canonical(Fraction(im)))

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussianRational is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussianRational is immutable: cannot delete {name}")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational(re={Fraction(self.re)!r}, im={Fraction(self.im)!r})"

    @staticmethod
    def of(value) -> "GaussianRational":
        if value.__class__ is GaussianRational:
            return value
        if isinstance(value, (int, Fraction)):
            return _gaussian(_canonical(value), 0)
        raise TypeError(f"cannot coerce {value!r} into Q(i)")

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        return _gaussian(_canonical(self.re + other.re), _canonical(self.im + other.im))

    __radd__ = __add__

    def __neg__(self):
        return _gaussian(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other):
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return _gaussian(_canonical(a * c - b * d), _canonical(a * d + b * c))

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """x * conj(x) as a plain rational."""
        return Fraction(self.re * self.re + self.im * self.im)

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return _gaussian(_canonical(self.re / n), _canonical(-self.im / n))

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


# the slot setters bypass the immutable __setattr__; only _gaussian and
# __init__ use them
_new = object.__new__
_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__

GAUSSIAN_ZERO = GaussianRational(0, 0)
GAUSSIAN_ONE = GaussianRational(1, 0)
GAUSSIAN_I = GaussianRational(0, 1)


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
# factorization and squarefree decomposition

_TRIAL_LIMIT = 10**4
_RHO_STEPS = 1 << 20  # the rho steps one factor() call may spend


class FactorizationExhausted(ArithmeticError):
    """factor() spent its rho steps without splitting ``cofactor``, a
    composite with no prime factor below 10^4."""

    def __init__(self, cofactor: int):
        super().__init__(f"no factor of {cofactor} found within {_RHO_STEPS} rho steps")
        self.cofactor = cofactor


@dataclass(frozen=True)
class SquarefreeDecomposition:
    """n = squarefree_part * square_root_cofactor^2."""

    squarefree_part: int
    square_root_cofactor: int


def factor_trial(n: int) -> tuple[dict[int, int], int]:
    """The primes below 10^4 dividing |n|, with exponents, and what is left:
    1, a prime, or a number whose prime factors all exceed 10^4."""
    n = abs(n)
    factors: dict[int, int] = {}
    for p in range(2, _TRIAL_LIMIT):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    return factors, n


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _rho(n: int, steps: int) -> tuple[int, int]:
    """A proper divisor of the composite n and the steps left: Pollard's rho
    on x -> x^2 + c with Brent's cycle finding, one gcd per 128 steps.
    Raises FactorizationExhausted(n) when ``steps`` run out."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps -= 2 * r
            if steps < 0:
                raise FactorizationExhausted(n)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the last batch overshot: redo it one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, steps


def factor(n: int) -> dict[int, int]:
    """The prime factorization of |n|, primes ascending (see the module
    docstring); raises FactorizationExhausted rather than guess."""
    if n == 0:
        raise ZeroArgument("cannot factor 0")
    factors, rest = factor_trial(n)
    if rest < _TRIAL_LIMIT**2:  # 1 or a prime
        if rest > 1:
            factors[rest] = 1
        return factors
    large: dict[int, int] = {}
    parts = [(rest, 1)]
    steps = _RHO_STEPS
    while parts:
        m, e = parts.pop()
        if is_prime(m):
            large[m] = large.get(m, 0) + e
            continue
        # prime factors exceed 2^13, so m = r^k needs k <= bits / 13
        for k in range(2, m.bit_length() // 13 + 1):
            r = _iroot(m, k)
            if r**k == m:
                parts.append((r, e * k))
                break
        else:
            d, steps = _rho(m, steps)
            parts += [(d, e), (m // d, e)]
    factors.update(sorted(large.items()))
    return factors


def squarefree_decompose(n: int) -> SquarefreeDecomposition:
    """Split n = s * k^2 with s squarefree and sign(s) = sign(n), read off
    ``factor(n)``."""
    factors = factor(n)
    s = math.prod(p for p, e in factors.items() if e % 2)
    k = math.prod(p ** (e // 2) for p, e in factors.items())
    return SquarefreeDecomposition(s if n > 0 else -s, k)


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
