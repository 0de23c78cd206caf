import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quinticpoints.poly import (
    DivisionByZeroPoly,
    MultiPoly,
    NotQuadratic,
    PoleAtPoint,
    RationalFunction,
    as_rational_function,
    discriminant_quadratic,
)


def small_polys(num_vars=3, degree=4):
    names = "xyzvw"[:num_vars]
    coeff = st.integers(-9, 9)
    exps = st.tuples(*[st.integers(0, degree) for _ in range(num_vars)])
    return st.dictionaries(exps, coeff, max_size=5).map(
        lambda terms: MultiPoly(tuple(names), dict(terms))
    )


class TestRingOps:
    def test_difference_of_squares(self):
        x, y = MultiPoly.variables("x y")
        assert (x + y) * (x - y) == x * x - y * y

    def test_binomial_coefficient(self):
        x, y = MultiPoly.variables("x y")
        p = (y - x) ** 5
        assert p.terms[(2, 3)] == 10

    def test_zeroth_power(self):
        x = MultiPoly.variable("x")
        assert (3 * x**2 - x) ** 0 == 1

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert p + q == q + p
        assert p * q == q * p

    @given(small_polys())
    @settings(max_examples=60, deadline=None)
    def test_canonical_equality_different_orders(self, p):
        x = MultiPoly.variable("x")
        left = (p + x) * (p - x)
        right = p * p - x * x
        assert left == right
        assert hash(left) == hash(right)

    def test_equality_ignores_order_of_vars(self):
        # xy + y, once on ("y", "x") and once on ("x", "y")
        p = MultiPoly(("y", "x"), {(1, 1): 1, (1, 0): 1})
        q = MultiPoly(("x", "y"), {(1, 1): 1, (0, 1): 1})
        assert (p - q).is_zero
        assert p == q
        assert hash(p) == hash(q)
        assert p != MultiPoly(("x", "y"), {(1, 1): 1, (1, 0): 1})


def unsorted_polys(names=("z", "x", "w", "y"), degree=3):
    """Polynomials built on the variables in an arbitrary order."""
    exps = st.tuples(*[st.integers(0, degree) for _ in names])
    return st.builds(
        lambda order, terms: MultiPoly(order, terms),
        st.permutations(names), st.dictionaries(exps, st.integers(-9, 9), max_size=4),
    )


def _on_sorted_support(p: MultiPoly) -> bool:
    """vars is the sorted tuple of the variables that occur."""
    used = {v for exps in p.terms for v, e in zip(p.vars, exps) if e}
    return p.vars == tuple(sorted(used)) and all(len(e) == len(p.vars) for e in p.terms)


class TestSortedSupport:
    @given(
        unsorted_polys(), unsorted_polys(), st.integers(0, 3),
        st.sampled_from(["w", "x", "y", "z", "t"]), st.integers(0, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_operation_keeps_vars_on_the_sorted_support(self, p, q, n, var, power):
        x, y = MultiPoly.variables("x y")
        bound = p.substitute({"z": x - y, "w": RationalFunction(y, x + 1)})
        results = (
            p, q, p + q, (p + q) - q, p - p, p * q, p * MultiPoly.zero(), p**n,
            p.coefficient_of(var, power), bound.num, bound.den,
        )
        for r in results:
            assert _on_sorted_support(r), r

    def test_repeated_variable_is_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            MultiPoly(("x", "x"), {(1, 0): 1})


class TestSubstituteEval:
    def test_identity_binding(self):
        x = MultiPoly.variable("x")
        p = x**3 - 2 * x
        assert p.substitute({"x": x}) == as_rational_function(p)

    def test_inverse_binding(self):
        X, V = MultiPoly.variables("X V")
        rf = (X * X).substitute({"X": RationalFunction(MultiPoly.constant(1), V)})
        assert rf == RationalFunction(MultiPoly.constant(1), V * V)

    def test_zero_denominator_binding(self):
        x = MultiPoly.variable("x")
        with pytest.raises(DivisionByZeroPoly):
            x.substitute({"x": RationalFunction(x, MultiPoly.zero())})

    def test_eval_displayed_g(self):
        # direct expansion of 2b+3ay+5x^2y-5xy^2+5y^3-5y^2z+5yz^2 at
        # (x,y,z)=(0,1,-1), a=-1, b=0 gives -3+5+5+5 = 12
        x, y, z, a, b = MultiPoly.variables("x y z a b")
        G = 2*b + 3*a*y + 5*x**2*y - 5*x*y**2 + 5*y**3 - 5*y**2*z + 5*y*z**2
        assert G.eval({"x": 0, "y": 1, "z": -1, "a": -1, "b": 0}) == 12

    def test_eval_zero_poly(self):
        assert MultiPoly.zero().eval({}) == 0

    def test_pole(self):
        u, y = MultiPoly.variables("u y")
        rf = RationalFunction(MultiPoly.constant(1), u - 5 * y * y)
        with pytest.raises(PoleAtPoint):
            rf.eval({"u": 5, "y": 1})

    @given(small_polys(num_vars=2), st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_substitute_then_eval(self, p, a, b):
        # composing with polynomial bindings then evaluating agrees with
        # evaluating the bindings first
        x, y = MultiPoly.variables("x y")
        bind = {"x": x + y, "y": x * y - 1}
        composed = p.substitute(bind)
        direct = p.eval({"x": a + b, "y": a * b - 1})
        assert composed.eval({"x": a, "y": b}) == direct


class TestDiscriminant:
    def test_displayed_delta(self):
        x, y, z, a, b = MultiPoly.variables("x y z a b")
        G = 2*b + 3*a*y + 5*x**2*y - 5*x*y**2 + 5*y**3 - 5*y**2*z + 5*y*z**2
        delta = -5 * y * (15 * y**3 + 20 * x * y * (x - y) + 12 * a * y + 8 * b)
        assert discriminant_quadratic(G, "z") == delta

    def test_constant_quadratic(self):
        z = MultiPoly.variable("z")
        assert discriminant_quadratic(z * z - 1, "z") == 4

    def test_parametric(self):
        z, t = MultiPoly.variables("z t")
        assert discriminant_quadratic(z * z + t * z, "z") == t * t

    def test_not_quadratic(self):
        z = MultiPoly.variable("z")
        with pytest.raises(NotQuadratic):
            discriminant_quadratic(z**3, "z")
        with pytest.raises(NotQuadratic):
            discriminant_quadratic(z, "z")

    @given(
        st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)
    )
    @settings(max_examples=80)
    def test_matches_scalar_discriminant(self, a, b, c, x0):
        if a == 0:
            return
        z, x = MultiPoly.variables("z x")
        p = a * z * z + (b * x) * z + c
        d = discriminant_quadratic(p, "z")
        assert d.eval({"x": x0}) == (b * x0) ** 2 - 4 * a * c


class TestRationalFunction:
    def test_zero_test(self):
        x, y = MultiPoly.variables("x y")
        assert as_rational_function(x - x).is_identically_zero
        assert not as_rational_function(x - y).is_identically_zero

    def test_cross_multiplied_equality(self):
        x = MultiPoly.variable("x")
        one_plus = RationalFunction(x * x - 1, x - 1)
        assert one_plus == as_rational_function(x + 1)

    def test_division_by_zero_function(self):
        x = MultiPoly.variable("x")
        with pytest.raises(DivisionByZeroPoly):
            as_rational_function(x) / as_rational_function(x - x)

    def test_serialization_shape(self):
        x, y = MultiPoly.variables("x y")
        p = 3 * x**2 * y - y + 1
        assert str(p) == "3*x^2*y + -1*y + 1"


# ---------------------------------------------------------------------------
# the scalar contract: int-or-Fraction coefficients, integral representatives

def scalars():
    return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


def polys():
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(exps, scalars(), max_size=4).map(
        lambda terms: MultiPoly(("x", "y"), terms)
    )


def assert_exact_poly(poly):
    assert all(type(c) in (int, Fraction) for c in poly.terms.values())


def assert_integral_representative(rf):
    comps = [*rf.num.terms.values(), *rf.den.terms.values()]
    assert all(type(q) is int for q in comps)
    assert math.gcd(*comps) == 1
    assert rf.den.terms[max(rf.den.terms, key=lambda e: (sum(e), e))] > 0


class TestScalarContract:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_operations_agree_with_scalar_arithmetic(self, data):
        p, q = data.draw(polys()), data.draw(polys())
        n = data.draw(st.integers(0, 3))
        at = {"x": data.draw(scalars()), "y": data.draw(scalars())}
        P, Q = Fraction(p.eval(at)), Fraction(q.eval(at))
        for poly, value in ((p + q, P + Q), (p - q, P - Q), (p * q, P * Q), (p**n, P**n)):
            assert_exact_poly(poly)
            assert poly.eval(at) == value
        assume(Q and Q * Q + Q)
        r = p / q
        s = RationalFunction(p + q, q * q + q)
        R, S = P / Q, (P + Q) / (Q * Q + Q)
        cases = [(r, R), (s, S), (r + s, R + S), (r - s, R - S), (r * s, R * S),
                 (r**n, R**n), (p / 3, P / 3), (p * r, P * R)]
        if R:
            cases += [(s / r, S / R), (r**-n, R**-n)]
        for rf, value in cases:
            assert_exact_poly(rf.num)
            assert_exact_poly(rf.den)
            assert_integral_representative(rf)
            result = rf.eval(at)
            assert type(result) is Fraction
            assert result == value

    def test_integral_quotient_evaluates_to_a_fraction(self):
        x = MultiPoly.variable("x")
        half = RationalFunction(x, 2).eval({"x": 1})
        assert half == Fraction(1, 2) and type(half) is Fraction
        assert type((x / 2).eval({"x": 4})) is Fraction

    def test_integral_coefficients_are_ints(self):
        x = MultiPoly.variable("x")
        p = MultiPoly(("x",), {(1,): Fraction(4, 2), (0,): 3})
        assert [type(c) for c in p.terms.values()] == [int, int]
        assert type((p * x).eval({"x": 2})) is int

    def test_representative_is_scaled_to_integers(self):
        x = MultiPoly.variable("x")
        rf = RationalFunction(x * Fraction(2, 3), -4 * x * x + Fraction(1, 3))
        assert_integral_representative(rf)
        assert rf == RationalFunction(x * 2, -12 * x * x + 1)
