import math
import operator
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quinticpoints.exact import (
    GAUSSIAN_I,
    EmptyList,
    FactorizationExhausted,
    GaussianRational,
    NotOddPrime,
    ZeroArgument,
    factor,
    factor_trial,
    format_rational,
    hilbert2,
    is_prime,
    legendre,
    lcm_of_denominators,
    parse_rational,
    rational_square_root,
    squarefree_decompose,
)


def legendre_oracle(a, p):
    """Independent: enumerate squares mod p."""
    squares = {(x * x) % p for x in range(p)}
    a %= p
    if a == 0:
        return 0
    return 1 if a in squares else -1


class TestLegendre:
    def test_one_is_square(self):
        assert legendre(1, 3) == 1

    def test_two_mod_seven(self):
        # oracle: 3^2 = 9 = 2 (mod 7)
        assert legendre_oracle(2, 7) == 1
        assert legendre(2, 7) == 1

    def test_two_mod_five(self):
        # oracle: squares mod 5 are {0, 1, 4}
        assert legendre_oracle(2, 5) == -1
        assert legendre(2, 5) == -1

    @pytest.mark.parametrize("p", [2, 1, -3, 9, 15, 21])
    def test_not_odd_prime(self, p):
        with pytest.raises(NotOddPrime):
            legendre(2, p)

    def test_divisible(self):
        assert legendre(21, 7) == 0

    @given(st.integers(-200, 200), st.integers(-200, 200))
    @settings(max_examples=150)
    def test_multiplicative(self, a, b):
        p = 23
        if a % p == 0 or b % p == 0:
            return
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)

    @given(st.sampled_from([3, 5, 7, 11, 13, 31, 97]), st.integers(-100, 100))
    @settings(max_examples=200)
    def test_against_oracle(self, p, a):
        assert legendre(a, p) == legendre_oracle(a, p)


def hilbert2_oracle(alpha, beta):
    """Independent verdict by residue exhaustion mod 2^6: alpha x^2 + beta y^2
    = z^2 must have a solution mod 64, not all coordinates even, with some
    slot where coeff * coord is nonzero mod 4 (the square-lifting criterion).
    Square factors are stripped first; the symbol ignores them."""
    alpha, _ = squarefree_decompose(alpha)
    beta, _ = squarefree_decompose(beta)
    rng = np.arange(64, dtype=np.int64)
    x = rng[:, None, None]
    y = rng[None, :, None]
    z = rng[None, None, :]
    value = (alpha * x * x + beta * y * y - z * z) % 64
    primitive = (x % 2 == 1) | (y % 2 == 1) | (z % 2 == 1)
    liftable = (
        ((alpha * x) % 4 != 0) | ((beta * y) % 4 != 0) | (z % 4 != 0)
    )
    return 1 if bool(((value == 0) & primitive & liftable).any()) else -1


class TestHilbert2:
    def test_trivial(self):
        assert hilbert2(1, 1) == 1

    def test_minus_one_twice(self):
        # formula with u = v = 0, odd parts -1, -1: (-1)^((−2)(−2)/4) = -1
        assert hilbert2(-1, -1) == -1

    def test_two_three(self):
        assert hilbert2(2, 3) == -1
        assert hilbert2_oracle(2, 3) == -1

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgument):
            hilbert2(0, 5)
        with pytest.raises(ZeroArgument):
            hilbert2(5, 0)

    @given(st.integers(-60, 60), st.integers(-60, 60))
    @settings(max_examples=500)
    def test_symmetry(self, a, b):
        if a == 0 or b == 0:
            return
        assert hilbert2(a, b) == hilbert2(b, a)

    @pytest.mark.slow
    def test_exhaustive_oracle_up_to_20(self):
        for alpha in range(-20, 21):
            for beta in range(-20, 21):
                if alpha == 0 or beta == 0:
                    continue
                assert hilbert2(alpha, beta) == hilbert2_oracle(alpha, beta), (
                    alpha,
                    beta,
                )


class TestSquarefree:
    @pytest.mark.parametrize(
        "n,s,k", [(12, 3, 2), (-50, -2, 5), (7, 7, 1), (1, 1, 1), (-1, -1, 1), (360, 10, 6)]
    )
    def test_examples(self, n, s, k):
        assert squarefree_decompose(n) == (s, k)
        assert s * k**2 == n

    def test_zero(self):
        with pytest.raises(ZeroArgument):
            squarefree_decompose(0)

    @given(st.integers(-10**6, 10**6))
    @settings(max_examples=200)
    def test_reconstruction_and_squarefreeness(self, n):
        if n == 0:
            return
        s, k = squarefree_decompose(n)
        assert s * k**2 == n
        for p in range(2, 70):
            assert s % (p * p) != 0

    def test_square_of_a_prime_above_trial_division(self):
        # 1000003 is above the old trial-division limit of 10^6
        assert squarefree_decompose(1000003**2 * 1000033) == (1000033, 1000003)


# primes after 10^19 (P, Q) and 10^20 (BIG): P * Q is out of reach of rho
P, Q = 10000000000000000051, 10000000000000000087
BIG = 100000000000000000039


class TestFactor:
    @pytest.mark.parametrize(
        "n,factors",
        [(1, {}), (-1, {}), (2, {2: 1}), (360, {2: 3, 3: 2, 5: 1}), (-50, {2: 1, 5: 2}),
         (9999991, {9999991: 1}), (10007 * 10009, {10007: 1, 10009: 1}),
         (2**64 + 1, {274177: 1, 67280421310721: 1}), (12 * BIG, {2: 2, 3: 1, BIG: 1})],
    )
    def test_examples(self, n, factors):
        result = factor(n)
        assert result == factors
        assert list(result) == sorted(result)

    def test_zero(self):
        with pytest.raises(ZeroArgument):
            factor(0)

    def test_trial_stage_leaves_the_large_part(self):
        assert factor_trial(-12 * BIG) == ({2: 2, 3: 1}, BIG)
        assert factor_trial(10007**2) == ({}, 10007**2)

    def test_prime_powers_of_any_size_split_at_once(self):
        # rho alone would need about 10^10 steps on BIG^2
        assert factor(BIG**2) == {BIG: 2}
        assert factor(-7 * BIG**3) == {7: 1, BIG: 3}
        assert factor(BIG**2 * 1000003**3) == {1000003: 3, BIG: 2}

    def test_exhaustion_names_the_cofactor_and_claims_nothing(self):
        assert is_prime(P) and is_prime(Q)
        with pytest.raises(FactorizationExhausted) as exc:
            factor(6 * P * Q)
        assert exc.value.cofactor == P * Q and str(P * Q) in str(exc.value)
        with pytest.raises(FactorizationExhausted):
            squarefree_decompose(P * Q)


class TestRationalSquareRoot:
    def test_paper_value(self):
        # Y^2 from the D=1 table row
        assert rational_square_root(Fraction(162409, 164025)) == Fraction(403, 405)

    def test_zero(self):
        assert rational_square_root(0) == 0

    def test_irrational(self):
        assert rational_square_root(2) is None

    def test_negative(self):
        assert rational_square_root(-4) is None

    @given(st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)))
    @settings(max_examples=200)
    def test_squares_round_trip(self, q):
        assert rational_square_root(q * q) == abs(q)


class TestLcm:
    def test_basic(self):
        assert lcm_of_denominators([Fraction(1, 2), Fraction(1, 3), Fraction(5, 4)]) == 12

    def test_integers(self):
        assert lcm_of_denominators([Fraction(3), Fraction(7)]) == 1

    def test_theorem2_point(self):
        vals = [Fraction(-2, 5), Fraction(1, 5), Fraction(3, 5), Fraction(-4, 5)]
        assert lcm_of_denominators(vals) == 5

    def test_empty(self):
        with pytest.raises(EmptyList):
            lcm_of_denominators([])


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


class TestGaussian:
    def test_i_squared(self):
        i = GaussianRational(0, 1)
        assert i * i == GaussianRational(-1, 0)

    def test_division(self):
        a = GaussianRational(Fraction(1), Fraction(2))
        assert a / a == GaussianRational(1, 0)

    def test_pow(self):
        assert GaussianRational(2, 3) ** 5 == GaussianRational(122, -597)

    @given(rationals, rationals, rationals, rationals)
    @settings(max_examples=200)
    def test_norm_multiplicative(self, a, b, c, d):
        x = GaussianRational(a, b)
        y = GaussianRational(c, d)
        xy = x * y
        assert xy * GaussianRational(xy.re, -xy.im) == GaussianRational(x.norm() * y.norm(), 0)

    def test_immutable_value_with_int_parts(self):
        x = GaussianRational(Fraction(4, 2), Fraction(1, 3))
        assert type(x.re) is int and x.re == 2 and x.im == Fraction(1, 3)
        with pytest.raises(AttributeError):
            x.re = 5
        with pytest.raises(AttributeError):
            del x.im
        y = GaussianRational(2, Fraction(2, 6))
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
        assert pickle.loads(pickle.dumps(x)) == x
        assert GaussianRational(1, 0) != 1  # equal only to another GaussianRational

    def test_json_round_trip(self):
        x = GaussianRational(Fraction(-3, 4), Fraction(5, 7))
        assert GaussianRational.from_json(x.to_json()) == x
        assert x.to_json() == {"re": "-3/4", "im": "5/7"}


class Dual:
    """a + b*eps with eps^2 = 0, over any ring its parts mix with: a minimal
    ring that carries GaussianRational parts without knowing the class."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    @staticmethod
    def _of(value):
        return value if isinstance(value, Dual) else Dual(value, 0)

    def __eq__(self, other):
        other = Dual._of(other)
        return self.a == other.a and self.b == other.b

    def __add__(self, other):
        other = Dual._of(other)
        return Dual(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __sub__(self, other):
        return self + -Dual._of(other)

    def __rsub__(self, other):
        return Dual._of(other) - self

    def __mul__(self, other):
        other = Dual._of(other)
        return Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__


class TestGaussianOperands:
    """The operators take an int, a Fraction or a GaussianRational, and give
    any other operand NotImplemented, so that its own reflected operator can
    run."""

    def test_a_dual_number_ring_carries_i_from_both_sides(self):
        i = GAUSSIAN_I
        x = Dual(Fraction(1, 2), 3)
        assert i * x == x * i == Dual(GaussianRational(0, Fraction(1, 2)), GaussianRational(0, 3))
        assert i + x == x + i == Dual(GaussianRational(Fraction(1, 2), 1), 3)
        assert i - x == Dual(GaussianRational(Fraction(-1, 2), 1), -3)
        assert x - i == Dual(GaussianRational(Fraction(1, 2), -1), 3)
        # eps^2 = 0: (i + eps)^2 = -1 + 2i eps
        e = i + Dual(0, 1)
        assert e * e == Dual(GaussianRational(-1, 0), GaussianRational(0, 2))

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
    def test_a_float_operand_still_raises_type_error(self, op):
        for left, right in ((GAUSSIAN_I, 1.5), (1.5, GAUSSIAN_I)):
            with pytest.raises(TypeError):
                op(left, right)

    def test_rational_operands_from_both_sides(self):
        i = GAUSSIAN_I
        half = Fraction(1, 2)
        assert i + 1 == 1 + i == GaussianRational(1, 1)
        assert i - half == GaussianRational(-half, 1) and half - i == GaussianRational(half, -1)
        assert 2 * i == i * 2 == GaussianRational(0, 2)
        assert i / 2 == GaussianRational(0, half) and 1 / i == GaussianRational(0, -1)
        with pytest.raises(TypeError):
            GaussianRational.of(1.5)


class TestTextFormat:
    @given(rationals)
    @settings(max_examples=200)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @pytest.mark.parametrize("text", ["1e3", "2.5E-1", "1/2e1", "1e100000", "1" * 50 + "e9"])
    def test_exponent_notation_is_refused_with_a_short_echo(self, text):
        with pytest.raises(ValueError, match="exponent notation is not accepted") as exc:
            parse_rational(text)
        echo = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
        assert str(exc.value) == f"exponent notation is not accepted: {echo}"

    @pytest.mark.parametrize(
        "text, echo",
        [("x", "'x'"), (" 1/x ", "'1/x'"), ("y" * 40, repr("y" * 40)),
         ("z" * 41, f"{'z' * 40!r}... (41 characters)")],
        ids=["short", "stripped", "at-the-cut", "past-the-cut"],
    )
    def test_an_unreadable_text_is_echoed_as_a_usage_error_echoes(self, text, echo):
        # up to the cut, Fraction's own message byte for byte
        with pytest.raises(ValueError) as exc:
            parse_rational(text)
        assert str(exc.value) == f"Invalid literal for Fraction: {echo}"
        if len(text.strip()) <= 40:
            with pytest.raises(ValueError) as own:
                Fraction(text.strip())
            assert str(own.value) == str(exc.value)

    @pytest.mark.parametrize("text, value", [("-1.25", Fraction(-5, 4)), (" 3/6 ", Fraction(1, 2))])
    def test_decimals_and_fractions_are_read(self, text, value):
        assert parse_rational(text) == value

    def test_canonical(self):
        # reduced, positive denominator, integers bare
        assert format_rational(Fraction(6, -4)) == "-3/2"
        assert format_rational(Fraction(14, 7)) == "2"

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
    @settings(max_examples=200)
    def test_fraction_canonical_form(self, a, b):
        q = Fraction(a, b)
        assert q.denominator >= 1
        assert math.gcd(abs(q.numerator), q.denominator) == 1
        assert Fraction(q.numerator, q.denominator) == q
