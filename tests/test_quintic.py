import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quinticpoints.poly import MultiPoly, RationalFunction, as_rational_function
from quinticpoints.quintic import (
    DegenerateQuintic,
    Point4,
    PointNotOnHypersurface,
    QuinticCoeffs,
    classify,
    residual,
    residual_symbolic,
    scale_to_integers,
)

EXAMPLE1_POINT = Point4(
    Fraction(-2, 5), Fraction(1, 5), Fraction(3, 5), Fraction(-4, 5)
)


class TestQuinticCoeffs:
    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateQuintic):
            QuinticCoeffs(0, 0, 0)

    def test_eval(self):
        f = QuinticCoeffs(1, 1, 1)
        assert f(Fraction(1)) == 4  # 1 + 1 + 1 + 1


class TestResidual:
    def test_example1_point(self):
        # oracle: direct exact evaluation of f = X^5 - X^3
        f = QuinticCoeffs(-1, 0, 0)
        vals = [x**5 - x**3 for x in EXAMPLE1_POINT.coords()]
        assert vals[0] + vals[1] - vals[2] - vals[3] == 0
        assert residual(f, EXAMPLE1_POINT) == 0

    def test_identical_sides(self):
        f = QuinticCoeffs(3, -2, 7)
        p = Point4(Fraction(1, 3), Fraction(-5), Fraction(1, 3), Fraction(-5))
        assert residual(f, p) == 0

    def test_off_surface(self):
        # oracle: f(1) = 1+1+1+1 = 4, the other three coordinates give 0
        f = QuinticCoeffs(1, 1, 1)
        assert residual(f, Point4(1, 0, 0, 0)) == 4

    @given(
        st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5),
        st.fractions(min_value=-20, max_value=20, max_denominator=6),
        st.fractions(min_value=-20, max_value=20, max_denominator=6),
        st.fractions(min_value=-20, max_value=20, max_denominator=6),
        st.fractions(min_value=-20, max_value=20, max_denominator=6),
    )
    @settings(max_examples=80)
    def test_antisymmetry(self, a, b, c, p, q, r, s):
        if (a, b, c) == (0, 0, 0):
            return
        f = QuinticCoeffs(a, b, c)
        pt = Point4(p, q, r, s)
        swapped = Point4(r, s, p, q)
        assert residual(f, pt) == -residual(f, swapped)


class TestClassify:
    def test_example1_nontrivial(self):
        f = QuinticCoeffs(-1, 0, 0)
        # oracle values 168/3125, -24/3125, -432/3125, 576/3125 pairwise
        # distinct across the two sides
        assert f(Fraction(-2, 5)) == Fraction(168, 3125)
        assert f(Fraction(1, 5)) == Fraction(-24, 3125)
        assert f(Fraction(3, 5)) == Fraction(-432, 3125)
        assert f(Fraction(-4, 5)) == Fraction(576, 3125)
        assert classify(f, EXAMPLE1_POINT) is True

    def test_coordinate_overlap(self):
        f = QuinticCoeffs(1, 0, 0)
        assert classify(f, Point4(1, 2, 2, 1)) is False

    def test_value_overlap_via_even_part(self):
        # f = X^5 + X^2 has f(1) = 2 but f(-1) = 0: the residual is 2, so the
        # point is off V_f and is not nontrivial
        f = QuinticCoeffs(0, 1, 0)
        assert f(Fraction(1)) == 2
        assert f(Fraction(-1)) == 0
        assert classify(f, Point4(1, 0, -1, 0)) is False

    def test_value_overlap_engineered(self):
        # same f-value on both sides without coordinate overlap:
        # f = X^5 - 5X^3 + 4X vanishes at 0, 1, -1, 2, -2
        f = QuinticCoeffs(-5, 0, 4)
        point = Point4(1, 2, -1, -2)
        assert residual(f, point) == 0
        assert classify(f, point) is False

    @given(
        st.fractions(min_value=-12, max_value=12, max_denominator=5),
        st.fractions(min_value=-12, max_value=12, max_denominator=5),
        st.fractions(min_value=-12, max_value=12, max_denominator=5),
        st.fractions(min_value=-12, max_value=12, max_denominator=5),
    )
    @settings(max_examples=60)
    def test_swap_invariance(self, p, q, r, s):
        f = QuinticCoeffs(2, -3, 1)
        verdicts = {
            classify(f, Point4(*coords))
            for coords in [(p, q, r, s), (q, p, r, s), (p, q, s, r), (r, s, p, q)]
        }
        assert len(verdicts) == 1


class TestScaleToIntegers:
    def test_example1_scaling(self):
        f = QuinticCoeffs(-1, 0, 0)
        big, points = scale_to_integers(f, [EXAMPLE1_POINT])
        assert (big.a, big.b, big.c) == (-25, 0, 0)
        assert points[0] == Point4(
            Fraction(-2), Fraction(1), Fraction(3), Fraction(-4)
        )
        assert residual(big, points[0]) == 0

    def test_integer_points_unchanged(self):
        f = QuinticCoeffs(1, 1, 1)
        p = Point4(Fraction(2), Fraction(0), Fraction(0), Fraction(2))
        big, points = scale_to_integers(f, [p])
        assert big == f and points == [p]

    def test_mixed_denominators(self):
        f = QuinticCoeffs(0, 1, 0)
        # both points land on V_f: (p, q, p, q) is always on it
        p1 = Point4(Fraction(1, 2), Fraction(3), Fraction(1, 2), Fraction(3))
        p2 = Point4(Fraction(1, 3), Fraction(-2), Fraction(1, 3), Fraction(-2))
        big, points = scale_to_integers(f, [p1, p2])
        assert all(pt.is_integral() for pt in points)
        assert points[0].p == 3  # d = 6
        assert all(residual(big, pt) == 0 for pt in points)

    def test_rejects_non_points(self):
        f = QuinticCoeffs(1, 1, 1)
        with pytest.raises(PointNotOnHypersurface):
            scale_to_integers(f, [Point4(1, 0, 0, 0)])

    @given(
        st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
        st.integers(1, 9),
        st.fractions(min_value=-10, max_value=10, max_denominator=6),
    )
    @settings(max_examples=80)
    def test_scaling_identity(self, a, b, c, d, x):
        if (a, b, c) == (0, 0, 0):
            return
        f = QuinticCoeffs(a, b, c)
        F = QuinticCoeffs(a * d * d, b * d**3, c * d**4)
        assert F(d * x) == d**5 * f(x)


class TestResidualSymbolic:
    def test_r1_factorization(self):
        res = residual_symbolic()
        x, y, z = MultiPoly.variables("x y z")
        a, b = MultiPoly.variables("a b")
        sub = {
            "p": as_rational_function(x),
            "q": as_rational_function(y - x),
            "r": as_rational_function(z),
            "s": as_rational_function(y - z),
        }
        G = (
            2 * b + 3 * a * y + 5 * x**2 * y - 5 * x * y**2
            + 5 * y**3 - 5 * y**2 * z + 5 * y * z**2
        )
        assert (res.substitute(sub) - (x - z) * (x - y + z) * G).is_identically_zero

    def test_r4_factorization(self):
        res = residual_symbolic()
        x, y, z, a = MultiPoly.variables("x y z a")
        five = MultiPoly.constant(5)
        sub = {
            "p": RationalFunction(-x + y + 3 * z, five),
            "q": RationalFunction(2 * x + y, five),
            "r": RationalFunction(3 * y, five),
            "s": RationalFunction(x - y + 3 * z, five),
            "b": as_rational_function(MultiPoly.zero()),
        }
        lhs = res.substitute(sub) * 625
        rhs = (
            6 * (x - y) * (x + 2 * y - 3 * z) * (x + 2 * y + 3 * z)
            * (x * x + 2 * y * y + 3 * z * z + 5 * a)
        )
        assert (lhs - rhs).is_identically_zero

    def test_zero_point(self):
        res = residual_symbolic(QuinticCoeffs(1, 2, 3))
        assert res.eval({"p": 0, "q": 0, "r": 0, "s": 0}) == 0


def test_point_json_round_trip():
    p = Point4(Fraction(-2, 5), Fraction(1, 5), Fraction(3, 5), Fraction(-4, 5))
    assert Point4.from_json(p.to_json()) == p
    assert p.to_json()["field"] == "Q"
