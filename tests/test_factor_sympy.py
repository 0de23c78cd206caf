"""exact.factor against sympy.factorint, so that the one factorizer of the
library is not checked only by its own arithmetic."""

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from quinticpoints.exact import FactorizationExhausted, factor  # noqa: E402


def primes_in(low, high):
    return st.integers(low, high).map(sympy.nextprime)


@given(st.integers(-(10**24), 10**24).filter(bool))
@settings(max_examples=150, deadline=None)
def test_matches_sympy_up_to_10_24(n):
    expected = sympy.factorint(abs(n))
    try:
        assert factor(n) == expected
    except FactorizationExhausted as exc:
        # only a composite whose primes are all beyond 10^9 may resist rho:
        # below that the expected walk is under 10^5 of its 2^20 steps
        cofactor = exc.cofactor
        assert n % cofactor == 0 and not sympy.isprime(cofactor)
        assert min(sympy.factorint(cofactor)) > 10**9


@given(primes_in(10**4, 10**20), st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_prime_powers(p, e):
    assert factor(p**e) == {p: e} == sympy.factorint(p**e)


@given(primes_in(10**4, 10**20), primes_in(10**4, 10**9))
@settings(max_examples=60, deadline=None)
def test_square_times_prime(p, q):
    n = p * p * q
    assert factor(n) == sympy.factorint(n)


@given(primes_in(10**4, 10**9), primes_in(10**4, 10**9))
@settings(max_examples=60, deadline=None)
def test_two_primes_between_10_4_and_10_9(p, q):
    assert factor(p * q) == sympy.factorint(p * q)
