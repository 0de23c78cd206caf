import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quinticpoints.elliptic import (
    IDENTITY,
    CurvePoint,
    DegenerateSpecialization,
    PointNotOnCurve,
    SingularCurve,
    WeierstrassCurve,
    _b_invariants,
    add,
    conjecture2_search,
    integral_model,
    is_nontorsion,
    load_table,
    mul,
    negate,
    on_curve,
    rationals_by_height,
    search_points,
    specialization_curve,
    table_verify,
    verify_row,
)
from quinticpoints.exact import factor

D1_CURVE = specialization_curve(1, 0, Fraction(2, 45))
D1_POINT = CurvePoint(1, Fraction(403, 405))


def rhs(curve, x):
    """The right side x^3 + a2 x^2 + a4 x + a6 of the curve's equation."""
    return ((x + curve.a2) * x + curve.a4) * x + curve.a6


class TestCurveBasics:
    def test_d1_spot_row(self):
        # both sides must equal 162409/164025 exactly
        assert D1_CURVE.a2 == Fraction(-16, 164025)
        assert D1_CURVE.a6 == Fraction(-1600, 164025)
        assert on_curve(D1_CURVE, D1_POINT)
        assert D1_POINT.y ** 2 == Fraction(162409, 164025)
        assert rhs(D1_CURVE, D1_POINT.x) == Fraction(162409, 164025)

    def test_identity_on_curve(self):
        assert on_curve(D1_CURVE, IDENTITY)

    def test_not_on_curve(self):
        c = WeierstrassCurve(0, 0, 0, 0, -1)
        assert not on_curve(c, CurvePoint(0, 0))

    def test_discriminant_never_zero_in_family(self):
        for t in (Fraction(1), Fraction(2, 45), Fraction(-3, 7)):
            assert not specialization_curve(5, 2, t).is_singular


class TestGroupLaw:
    def test_identity_element(self):
        assert add(D1_CURVE, D1_POINT, IDENTITY) == D1_POINT

    def test_inverse_element(self):
        assert add(D1_CURVE, D1_POINT, negate(D1_CURVE, D1_POINT)) == IDENTITY

    def test_closure_of_doubling(self):
        p2 = mul(D1_CURVE, 2, D1_POINT)
        assert on_curve(D1_CURVE, p2)
        assert not p2.is_identity

    def test_commutative_and_associative(self):
        p = D1_POINT
        q = mul(D1_CURVE, 2, p)
        r = mul(D1_CURVE, 3, p)
        assert add(D1_CURVE, p, q) == add(D1_CURVE, q, p)
        assert add(D1_CURVE, add(D1_CURVE, p, q), r) == add(
            D1_CURVE, p, add(D1_CURVE, q, r)
        )

    @given(st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=30, deadline=None)
    def test_mul_additive(self, m, n):
        curve = WeierstrassCurve(0, 0, 0, 0, 1)  # y^2 = x^3 + 1
        p = CurvePoint(2, 3)
        assert on_curve(curve, p)
        assert mul(curve, m + n, p) == add(curve, mul(curve, m, p), mul(curve, n, p))

    def test_singular_rejected(self):
        nodal = WeierstrassCurve(0, 0, 0, 0, 0)
        with pytest.raises(SingularCurve):
            add(nodal, CurvePoint(1, 1), CurvePoint(1, 1))

    def test_off_curve_rejected(self):
        with pytest.raises(PointNotOnCurve):
            add(D1_CURVE, CurvePoint(0, 0), D1_POINT)

    def test_mul_checks_at_entry(self):
        # also for n = 0 and n < 0, where no chord step runs
        for n in (0, -2, 3):
            with pytest.raises(PointNotOnCurve):
                mul(D1_CURVE, n, CurvePoint(0, 0))
        with pytest.raises(SingularCurve):
            mul(WeierstrassCurve(0, 0, 0, 0, 0), 0, CurvePoint(1, 1))

    def test_mul_negative(self):
        assert mul(D1_CURVE, -3, D1_POINT) == negate(D1_CURVE, mul(D1_CURVE, 3, D1_POINT))


class TestNontorsion:
    def test_table_point_nontorsion(self):
        assert is_nontorsion(D1_CURVE, D1_POINT)

    def test_two_torsion_detected(self):
        curve = WeierstrassCurve(0, 0, 0, 1, 0)  # y^2 = x^3 + x
        assert mul(curve, 2, CurvePoint(0, 0)).is_identity
        assert not is_nontorsion(curve, CurvePoint(0, 0))

    def test_d89_row(self):
        curve = specialization_curve(89, 0, Fraction(1))
        assert is_nontorsion(curve, CurvePoint(8381, 766104))

    def test_identity_is_torsion(self):
        assert not is_nontorsion(D1_CURVE, IDENTITY)

    @pytest.mark.parametrize(
        "curve, point, order",
        [
            (WeierstrassCurve(0, 0, 0, 0, 1), CurvePoint(2, 3), 6),  # y^2 = x^3 + 1
            (WeierstrassCurve(0, 0, 0, 0, 1), CurvePoint(0, 1), 3),
            (WeierstrassCurve(0, 0, 0, 0, 1), CurvePoint(-1, 0), 2),
            (WeierstrassCurve(0, 0, 0, 4, 0), CurvePoint(2, 4), 4),  # y^2 = x^3 + 4x
            # (2, 3) scaled to y^2 = x^3 + 1/64: integral only after clearing denominators
            (WeierstrassCurve(0, 0, 0, 0, Fraction(1, 64)), CurvePoint(Fraction(1, 2), Fraction(3, 8)), 6),
            # long form y^2 + y = x^3 - x^2: no integrality exit, the loop alone decides
            (WeierstrassCurve(0, -1, 1, 0, 0), CurvePoint(0, 0), 5),
        ],
    )
    def test_torsion_points_detected(self, curve, point, order):
        assert mul(curve, order, point).is_identity
        assert all(not mul(curve, n, point).is_identity for n in range(1, order))
        assert not is_nontorsion(curve, point)

    def test_integral_point_of_infinite_order(self):
        curve = WeierstrassCurve(0, 0, 0, 0, -2)  # y^2 = x^3 - 2
        assert is_nontorsion(curve, CurvePoint(3, 5))

    def test_checks_at_entry(self):
        with pytest.raises(PointNotOnCurve):
            is_nontorsion(D1_CURVE, CurvePoint(0, 0))
        with pytest.raises(SingularCurve):
            is_nontorsion(WeierstrassCurve(0, 0, 0, 0, 0), CurvePoint(1, 1))

    def test_agrees_with_sixteen_multiples_on_every_row(self):
        def reference(curve, point):
            acc = IDENTITY
            for _ in range(16):
                acc = add(curve, acc, point)
                if acc.is_identity:
                    return False
            return True

        for row in load_table():
            curve, point = row.curve(), row.point()
            assert is_nontorsion(curve, point) == reference(curve, point), row.d


class TestIntegralModel:
    def test_round_trip_d1(self):
        # a2 = -16/405^2 needs u = 405; the lcm of the denominators is 405^2
        u, *ints = integral_model(D1_CURVE)
        assert u == 405
        image = CurvePoint(u * u * D1_POINT.x, u**3 * D1_POINT.y)
        assert on_curve(WeierstrassCurve(*ints), image)
        assert D1_CURVE.integral == (u, *ints)

    def test_already_integral(self):
        c = WeierstrassCurve(1, -2, 3, -4, 6)
        assert integral_model(c) == (1, 1, -2, 3, -4, 6)

    def test_quarter_coefficient(self):
        c = WeierstrassCurve(0, 0, 0, Fraction(-1, 4), 0)
        assert integral_model(c) == (2, 0, 0, 0, -4, 0)


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
short_curves = st.builds(
    lambda a2, a4, a6: WeierstrassCurve(0, a2, 0, a4, a6),
    small_rationals, small_rationals, small_rationals,
)
long_curves = st.builds(
    WeierstrassCurve, small_rationals, small_rationals, small_rationals, small_rationals,
    small_rationals,
)
curves = st.one_of(short_curves, long_curves)


def _on_curve_reference(curve, point):
    x, y = point.x, point.y
    return y * y + curve.a1 * x * y + curve.a3 * y == rhs(curve, x)


def _nontorsion_reference(curve, point):
    """Up to 12 multiples on the checked, Fraction-based ``add``."""
    acc = IDENTITY
    for _ in range(12):
        acc = add(curve, acc, point)
        if acc.is_identity:
            return False
    return True


class TestIntegerArithmetic:
    """The integer on-curve test, torsion certificate and discriminant
    against the Fraction formulas they replace."""

    @given(curves)
    @settings(max_examples=100, deadline=None)
    def test_integral_model_is_ints(self, curve):
        u, *ints = curve.integral
        assert all(type(v) is int for v in (u, *ints))
        assert ints == [u**w * a for a, w in zip(curve.coeffs(), (1, 2, 3, 4, 6))]
        # minimal: dividing u by any of its primes leaves some u^w a_w non-integral
        for p in factor(u):
            assert any((u // p) ** w * a % 1 for a, w in zip(curve.coeffs(), (1, 2, 3, 4, 6)))

    @given(curves)
    @settings(max_examples=100, deadline=None)
    def test_discriminant_matches_fraction_formula(self, curve):
        b2, b4, b6, b8 = _b_invariants(*curve.coeffs())
        assert curve.discriminant == -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @given(curves, small_rationals, small_rationals)
    @settings(max_examples=100, deadline=None)
    def test_on_curve_matches_fraction_equation(self, curve, x, y):
        point = CurvePoint(x, y)
        assert on_curve(curve, point) == _on_curve_reference(curve, point)

    @given(curves)
    # y^2 = x^3 + 1: torsion of order 2, 3 and 6
    @example(WeierstrassCurve(0, 0, 0, 0, 1))
    # y^2 = x^3 + 1/64: the same torsion, integral only on the scaled model
    @example(WeierstrassCurve(0, 0, 0, 0, Fraction(1, 64)))
    # y^2 + y = x^3 - x^2 scaled by u = 2: long-form 5-torsion such as (1/4, 0)
    @example(WeierstrassCurve(0, Fraction(-1, 4), Fraction(1, 8), 0, 0))
    # y^2 + xy = x^3 - x^2 - 1/4 x: long form, rational a4
    @example(WeierstrassCurve(1, -1, 0, Fraction(-1, 4), 0))
    @settings(max_examples=100, deadline=None)
    def test_searched_points_match_references(self, curve):
        assume(not curve.is_singular)
        for point in search_points(curve, 12):
            assert on_curve(curve, point) and _on_curve_reference(curve, point)
            assert is_nontorsion(curve, point) == _nontorsion_reference(curve, point), point
            moved = CurvePoint(point.x, point.y + Fraction(1, 3))
            assert on_curve(curve, moved) == _on_curve_reference(curve, moved)

    def test_examples_include_torsion(self):
        curve = WeierstrassCurve(0, 0, 0, 0, Fraction(1, 64))
        points = search_points(curve, 12)
        assert sum(not is_nontorsion(curve, p) for p in points) == 5  # 2 of order 6, 2 of 3, 1 of 2


class TestSearch:
    def test_recovers_table_point(self):
        # x = 1 is X = u^2 = 164025 on the integral model
        pts = search_points(D1_CURVE, 165000)
        assert D1_POINT in pts

    def test_empty_is_legal(self):
        c = WeierstrassCurve(0, 0, 0, 0, 7)
        assert search_points(c, 3) == []

    def test_soundness_and_determinism(self):
        c = WeierstrassCurve(0, 0, 0, 0, 1)
        run1 = search_points(c, 30)
        run2 = search_points(c, 30)
        assert run1 == run2 and run1
        assert all(on_curve(c, p) for p in run1)

    @given(
        st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 120),
    )
    # the window has 233 X: a multiple of no sieve prime
    @example(a2=0, a4=-2, a6=1, bound=116)
    # y^2 = x^3 - x: three points with y = 0
    @example(a2=0, a4=-1, a6=0, bound=1)
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_on_short_curves(self, a2, a4, a6, bound):
        curve = WeierstrassCurve(0, a2, 0, a4, a6)
        assume(not curve.is_singular)
        assert search_points(curve, bound) == _search_reference(curve, bound)

    @given(
        st.integers(-3, 3), st.integers(-9, 9), st.integers(-3, 3), st.integers(-9, 9),
        st.integers(-9, 9), st.integers(1, 60),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_on_long_curves(self, a1, a2, a3, a4, a6, bound):
        curve = WeierstrassCurve(a1, a2, a3, a4, a6)
        assume(not curve.is_singular)
        assert search_points(curve, bound) == _search_reference(curve, bound)

    def test_bound_below_one_is_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            search_points(D1_CURVE, 0)
        with pytest.raises(ValueError, match=">= 1"):
            conjecture2_search(1, 0, [], 0)


def _search_reference(curve, bound):
    """Every integer x with |x| <= bound, no sieve: y solves
    y^2 + (a1 x + a3) y = rhs(x), tested with math.isqrt.  Integral curves
    only, so the integral model is the curve itself."""
    found = []
    for x in range(-bound, bound + 1):
        lin = curve.a1 * x + curve.a3
        disc = int(lin * lin + 4 * rhs(curve, x))  # an integer on an integral curve
        if disc < 0 or math.isqrt(disc) ** 2 != disc:
            continue
        root = math.isqrt(disc)
        for sign in (1, -1) if root else (1,):
            found.append(CurvePoint(x, (-lin + sign * root) / 2))
    return found


class TestSpecialization:
    def test_degenerate_t(self):
        with pytest.raises(DegenerateSpecialization):
            specialization_curve(1, 0, Fraction(0))

    def test_degenerate_cf(self):
        with pytest.raises(DegenerateSpecialization):
            specialization_curve(3, 3, Fraction(1))


class TestTable:
    def test_loads_100_rows(self):
        rows = load_table()
        assert len(rows) == 100
        assert [r.d for r in rows] == list(range(1, 101))

    def test_all_rows_verify(self):
        reports = table_verify(load_table())
        assert all(r.ok for r in reports)

    def test_corrupted_row_fails(self):
        row = load_table()[0]
        bad = type(row)(d=row.d, t=row.t, x=row.x, y=Fraction(404, 405))
        assert not verify_row(bad).on_curve

    def test_empty_report(self):
        assert table_verify([]) == []


class TestConjectureSearch:
    def test_d89_finds_paper_row(self):
        # t = 1 is the first enumerated rational and carries the paper's point
        found = conjecture2_search(89, 0, rationals_by_height(3), 20000)
        assert found is not None
        t, point = found
        assert t == 1 and point == CurvePoint(8381, 766104)

    def test_exhausted(self):
        found = conjecture2_search(1, 0, rationals_by_height(1), 10)
        assert found is None

    def test_enumeration_order(self):
        # height ascending, then denominator, then numerator
        seq = list(rationals_by_height(3))
        assert seq == [
            Fraction(1),
            Fraction(2), Fraction(1, 2),
            Fraction(3), Fraction(3, 2), Fraction(1, 3), Fraction(2, 3),
        ]
