import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracle import long_add, long_is_nontorsion, long_mul, long_on_curve

from quinticpoints.elliptic import (
    IDENTITY,
    CurvePoint,
    DegenerateSpecialization,
    PointNotOnCurve,
    WeierstrassCurve,
    _negative_throughout,
    _no_real_point,
    _square_sieve,
    _table_cell,
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
    table_lines,
    verify_row,
)
from quinticpoints.exact import factor, format_rational

# t of height <= 30, either sign
nonzero_ts = st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 30))

D1_CURVE = specialization_curve(1, 0, Fraction(2, 45))
D1_POINT = CurvePoint(1, Fraction(403, 405))


def rhs(curve, x):
    """The right side x^3 + (a2/u^2) x^2 + a6/u^6 of the curve's equation
    over Q."""
    u, a2, a6 = curve
    return (x + Fraction(a2, u * u)) * x * x + Fraction(a6, u**6)


def _discriminant(curve):
    """-16 a6 (4 a2^3 + 27 a6): the discriminant of the model Y^2 = X^3 +
    a2 X^2 + a6, which is 0 exactly when the curve is singular."""
    _, a2, a6 = curve
    return -16 * a6 * (4 * a2**3 + 27 * a6)


def _scales_to_ints(d, t, u):
    """Whether u^2 a2 and u^6 a6 of E_t, a2 = -25 t^4 and a6 = -2500 D^2
    t^4, are both integers."""
    a2, a6 = -25 * t**4, -2500 * d * d * t**4
    return (u * u * a2).denominator == 1 and (u**6 * a6).denominator == 1


class TestCurveBasics:
    def test_d1_spot_row(self):
        # a2 = -16/405^2 and a6 = -1600/405^2 on the model with u = 405;
        # both sides must equal 162409/164025 exactly
        assert D1_CURVE == (405, -16, -1600 * 405**4)
        assert on_curve(D1_CURVE, D1_POINT)
        assert D1_POINT.y ** 2 == Fraction(162409, 164025)
        assert rhs(D1_CURVE, D1_POINT.x) == Fraction(162409, 164025)

    def test_identity_on_curve(self):
        assert on_curve(D1_CURVE, IDENTITY)

    def test_not_on_curve(self):
        c = WeierstrassCurve(1, 0, -1)
        assert not on_curve(c, CurvePoint(0, 0))

    @given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6), nonzero_ts)
    @example(5, 2, Fraction(1))
    @example(5, 2, Fraction(2, 45))
    @example(5, 2, Fraction(-3, 7))
    @settings(max_examples=200, deadline=None)
    def test_discriminant_never_zero_in_family(self, c, f, t):
        # so nothing in elliptic needs a singular branch
        assume(c != f)
        assert _discriminant(specialization_curve(c, f, t)) != 0


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
        curve = WeierstrassCurve(1, 0, 1)  # y^2 = x^3 + 1
        p = CurvePoint(2, 3)
        assert on_curve(curve, p)
        assert mul(curve, m + n, p) == add(curve, mul(curve, m, p), mul(curve, n, p))

    def test_off_curve_rejected(self):
        with pytest.raises(PointNotOnCurve):
            add(D1_CURVE, CurvePoint(0, 0), D1_POINT)

    def test_mul_checks_at_entry(self):
        # also for n = 0 and n < 0, where no chord step runs
        for n in (0, -2, 3):
            with pytest.raises(PointNotOnCurve):
                mul(D1_CURVE, n, CurvePoint(0, 0))

    def test_mul_negative(self):
        assert mul(D1_CURVE, -3, D1_POINT) == negate(D1_CURVE, mul(D1_CURVE, 3, D1_POINT))


class TestNontorsion:
    def test_table_point_nontorsion(self):
        assert is_nontorsion(D1_CURVE, D1_POINT)

    def test_two_torsion_detected(self):
        curve = specialization_curve(5, 0, Fraction(1))  # y^2 = x^3 - 25x^2 - 62500
        assert mul(curve, 2, CurvePoint(50, 0)).is_identity
        assert not is_nontorsion(curve, CurvePoint(50, 0))

    def test_d89_row(self):
        curve = specialization_curve(89, 0, Fraction(1))
        assert is_nontorsion(curve, CurvePoint(8381, 766104))

    def test_identity_is_torsion(self):
        assert not is_nontorsion(D1_CURVE, IDENTITY)

    @pytest.mark.parametrize(
        "curve, point, order",
        [
            (WeierstrassCurve(1, 0, 1), CurvePoint(2, 3), 6),  # y^2 = x^3 + 1
            (WeierstrassCurve(1, 0, 1), CurvePoint(0, 1), 3),
            (WeierstrassCurve(1, 0, 1), CurvePoint(-1, 0), 2),
            (WeierstrassCurve(1, -1, 12), CurvePoint(2, 4), 4),  # y^2 = x^3 - x^2 + 12
            # (2, 3) scaled to y^2 = x^3 + 1/64: integral only on the model (u = 2)
            (WeierstrassCurve(2, 0, 1), CurvePoint(Fraction(1, 2), Fraction(3, 8)), 6),
            # y^2 + y = x^3 - x^2 with the square completed: (0, 0) there is
            # (0, 1/2) on y^2 = x^3 - x^2 + 1/4, whose model Y^2 = X^3 - 4X^2 +
            # 16 (u = 2) holds its image (0, 4); no integrality exit, the loop
            # alone decides
            (WeierstrassCurve(2, -4, 16), CurvePoint(0, Fraction(1, 2)), 5),
        ],
    )
    def test_torsion_points_detected(self, curve, point, order):
        assert mul(curve, order, point).is_identity
        assert all(not mul(curve, n, point).is_identity for n in range(1, order))
        assert not is_nontorsion(curve, point)

    def test_integral_point_of_infinite_order(self):
        curve = WeierstrassCurve(1, 0, -2)  # y^2 = x^3 - 2
        assert is_nontorsion(curve, CurvePoint(3, 5))

    def test_checks_at_entry(self):
        with pytest.raises(PointNotOnCurve):
            is_nontorsion(D1_CURVE, CurvePoint(0, 0))

    def test_agrees_with_sixteen_multiples_on_every_row(self):
        def reference(curve, point):
            acc = IDENTITY
            for _ in range(16):
                acc = add(curve, acc, point)
                if acc.is_identity:
                    return False
            return True

        for d, t, point in load_table():
            curve = specialization_curve(d, 0, t)
            assert is_nontorsion(curve, point) == reference(curve, point), d


class TestIntegralModel:
    def test_round_trip_d1(self):
        # t = 2/45: a2 = -16/405^2 needs u = 405 = 45^2 / 5, as 5 | 45
        u, *ints = integral_model(1, 2, 45)
        assert u == 405
        image = CurvePoint(u * u * D1_POINT.x, u**3 * D1_POINT.y)
        assert on_curve(WeierstrassCurve(1, *ints), image)
        assert D1_CURVE == (u, *ints)

    def test_already_integral(self):
        # an integer t needs no rescaling: a2 = -25 t^4, a6 = -2500 D^2 t^4
        assert integral_model(3, 2, 1) == (1, -400, -360000)


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def short_curves(draw):
    """WeierstrassCurve(u, a2, a6) with u = 1..4: the curve y^2 = x^3 +
    (a2/u^2) x^2 + a6/u^6.  Half the draws pass through an integral point
    of the model with |X| <= 12, so that a search at bound 12 finds it."""
    u, a2 = draw(st.integers(1, 4)), draw(st.integers(-40, 40))
    if draw(st.booleans()):
        x, y = draw(st.integers(-12, 12)), draw(st.integers(0, 60))
        a6 = y * y - (x + a2) * x * x
    else:
        a6 = draw(st.integers(-500, 500))
    return WeierstrassCurve(u, a2, a6)


def _on_curve_reference(curve, point):
    return point.y ** 2 == rhs(curve, point.x)


def _long(curve):
    """The coefficients (a1, a2, a3, a4, a6) of the curve over Q in the long
    form of ``oracle``."""
    u, a2, a6 = curve
    return 0, Fraction(a2, u * u), 0, 0, Fraction(a6, u**6)


def _pair(point):
    """A CurvePoint as a point of ``oracle``: an (x, y) pair, None for O."""
    return None if point.is_identity else (point.x, point.y)


def _nontorsion_reference(curve, point):
    """Up to 12 multiples on the long-form group law of ``oracle``."""
    return long_is_nontorsion(_long(curve), _pair(point))


class TestIntegerArithmetic:
    """The integer on-curve test and torsion certificate against the
    Fraction formulas they replace, and the model ints of E_t and the
    discriminant the tests use against the rational curve."""

    @given(st.integers(-50, 50), st.integers(-50, 50), nonzero_ts)
    @settings(max_examples=100, deadline=None)
    def test_integral_model_is_ints(self, c, f, t):
        assume(c != f)
        curve = specialization_curve(c, f, t)
        assert all(type(v) is int for v in curve)
        u, a2, a6 = curve
        assert Fraction(a2, u * u) == -25 * t**4
        assert Fraction(a6, u**6) == -2500 * (c - f) ** 2 * t**4

    @given(short_curves())
    @settings(max_examples=100, deadline=None)
    def test_discriminant_matches_fraction_formula(self, curve):
        # the long-form b-invariants of the curve over Q at a1 = a3 = a4 = 0;
        # the discriminant has weight 12
        u, a2, a6 = curve
        a2, a6 = Fraction(a2, u * u), Fraction(a6, u**6)
        b2, b6, b8 = 4 * a2, 4 * a6, 4 * a2 * a6
        assert _discriminant(curve) == u**12 * (-b2 * b2 * b8 - 27 * b6 * b6)

    @given(short_curves(), small_rationals, small_rationals)
    @settings(max_examples=100, deadline=None)
    def test_on_curve_matches_fraction_equation(self, curve, x, y):
        point = CurvePoint(x, y)
        assert on_curve(curve, point) == _on_curve_reference(curve, point)

    @given(short_curves())
    # y^2 = x^3 + 1: torsion of order 2, 3 and 6
    @example(WeierstrassCurve(1, 0, 1))
    # y^2 = x^3 + 1/64: the same torsion, integral only on the scaled model
    @example(WeierstrassCurve(2, 0, 1))
    # y^2 + y/8 = x^3 - x^2/4 (y^2 + y = x^3 - x^2 scaled by u = 2) with the
    # square completed, y^2 = x^3 - x^2/4 + 1/256: 5-torsion such as (1/4, 1/16)
    @example(WeierstrassCurve(4, -4, 16))
    @settings(max_examples=100, deadline=None)
    def test_searched_points_match_references(self, curve):
        assume(_discriminant(curve) != 0)
        for point in search_points(curve, 12):
            assert on_curve(curve, point) and _on_curve_reference(curve, point)
            assert is_nontorsion(curve, point) == _nontorsion_reference(curve, point), point
            moved = CurvePoint(point.x, point.y + Fraction(1, 3))
            assert on_curve(curve, moved) == _on_curve_reference(curve, moved)

    def test_examples_include_torsion(self):
        curve = WeierstrassCurve(2, 0, 1)  # y^2 = x^3 + 1/64
        points = search_points(curve, 12)
        assert sum(not is_nontorsion(curve, p) for p in points) == 5  # 2 of order 6, 2 of 3, 1 of 2


class TestLongFormReference:
    """The short group law against the long-form one in ``oracle``, run at
    (a1, a2, a3, a4, a6) = (0, a2/u^2, 0, 0, a6/u^6)."""

    @given(short_curves())
    # y^2 = x^3 - x^2 + 1/4 (y^2 + y = x^3 - x^2, square completed): 5-torsion
    # (0, 1/2) and (1, 1/2), where the tangent slope needs the a2 term
    @example(WeierstrassCurve(2, -4, 16))
    # y^2 = x^3 + 1: torsion of order 2, 3 and 6
    @example(WeierstrassCurve(1, 0, 1))
    # y^2 = x^3 - 7x^2 + 36 = (x + 2)(x - 3)(x - 6): three points of order 2
    @example(WeierstrassCurve(1, -7, 36))
    # y^2 = x^3 + 2x^2 + 1: (0, 1) and (-2, 1) have infinite order
    @example(WeierstrassCurve(1, 2, 1))
    @settings(max_examples=100, deadline=None)
    def test_group_law_matches_long_form(self, curve):
        assume(_discriminant(curve) != 0)
        a = _long(curve)
        points = [IDENTITY, *search_points(curve, 12)[:6]]
        for p in points:
            assert on_curve(curve, p) and long_on_curve(a, _pair(p))
            if not p.is_identity:
                moved = CurvePoint(p.x, p.y + Fraction(1, 3))
                assert on_curve(curve, moved) == long_on_curve(a, _pair(moved))
                assert is_nontorsion(curve, p) == _nontorsion_reference(curve, p), p
            for n in range(-2, 5):
                assert _pair(mul(curve, n, p)) == long_mul(a, n, _pair(p)), (n, p)
            for q in points:
                assert _pair(add(curve, p, q)) == long_add(a, _pair(p), _pair(q)), (p, q)


class TestSearch:
    def test_recovers_table_point(self):
        # x = 1 is X = u^2 = 164025 on the integral model
        pts = search_points(D1_CURVE, 165000)
        assert D1_POINT in pts

    def test_empty_is_legal(self):
        c = WeierstrassCurve(1, 0, 7)
        assert search_points(c, 3) == []

    def test_soundness_and_determinism(self):
        c = WeierstrassCurve(1, 0, 1)
        run1 = search_points(c, 30)
        run2 = search_points(c, 30)
        assert run1 == run2 and run1
        assert all(on_curve(c, p) for p in run1)

    @given(st.integers(1, 3), st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 120))
    # the window has 233 X: a multiple of no sieve prime
    @example(u=1, a2=0, a6=1, bound=116)
    # y^2 = x^3 - 7x^2 + 36: three points with y = 0
    @example(u=1, a2=-7, a6=36, bound=6)
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_on_short_curves(self, u, a2, a6, bound):
        curve = WeierstrassCurve(u, a2, a6)
        assume(_discriminant(curve) != 0)
        assert search_points(curve, bound) == _search_reference(curve, bound)

    def test_bound_below_one_is_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            search_points(D1_CURVE, 0)
        with pytest.raises(ValueError, match=">= 1"):
            conjecture2_search(1, 0, 1, 0)


def _search_reference(curve, bound):
    """Every integer X with |X| <= bound on the integral model, no sieve:
    Y^2 = X^3 + A2 X^2 + A6 is tested with math.isqrt, and (X, Y) maps back
    to (X/u^2, Y/u^3)."""
    u, a2, a6 = curve
    found = []
    for x in range(-bound, bound + 1):
        value = (x + a2) * x * x + a6
        if value < 0 or math.isqrt(value) ** 2 != value:
            continue
        root = math.isqrt(value)
        for sign in (1, -1) if root else (1,):
            found.append(CurvePoint(Fraction(x, u * u), Fraction(sign * root, u**3)))
    return found


def _cubic(c2, c1, c0):
    return lambda m: ((m + c2) * m + c1) * m + c0


@st.composite
def cubics_and_windows(draw):
    """(c2, c1, c0, lo, hi) for R(m) = m^3 + c2 m^2 + c1 m + c0.  Half the
    draws put the window near the local maximum of R, before, across or
    after it, and shift c0 so that R is near 0 at some integer of the
    window: the cases where the sign test is close."""
    big = st.integers(-(10**40), 10**40)
    c2, c1, c0 = draw(big), draw(big), draw(big)
    lo, width = draw(st.integers(-60, 60)), draw(st.integers(0, 40))
    disc = c2 * c2 - 3 * c1
    if disc > 0 and draw(st.booleans()):
        lo = (-c2 - math.isqrt(disc)) // 3 + draw(st.integers(-width - 3, 40))
        c0 = -_cubic(c2, c1, 0)(lo + draw(st.integers(0, width))) + draw(st.integers(-2, 2))
    return c2, c1, c0, lo, lo + width


@st.composite
def cubics_with_integral_maximum(draw):
    """R' = 3 (m - r1)(m - r2) with integers r1 < r2 of even difference 2j,
    so that c2 = -3 (r1 + r2) / 2 is an integer: the local maximum is the
    integer r1 and D = 9 j^2 is a perfect square.  R(r1) is -1, 0 or 1, and
    the window holds r1."""
    r1 = draw(st.integers(-(10**13), 10**13))
    j = draw(st.integers(1, 10**6))
    c2, c1 = -3 * (r1 + j), 3 * r1 * (r1 + 2 * j)
    c0 = -_cubic(c2, c1, 0)(r1) + draw(st.integers(-1, 1))
    return c2, c1, c0, r1 - draw(st.integers(0, 5)), r1 + draw(st.integers(0, 5))


class TestRealLocus:
    """``_negative_throughout`` against R evaluated at every integer of the
    window."""

    @given(st.one_of(cubics_and_windows(), cubics_with_integral_maximum()))
    # D < 0: R rises throughout, so hi decides
    @example((0, 1, -2, -1, 1))
    @example((0, 1, -3, -1, 1))
    # D = 0: an inflection at 0 with R(0) = 0
    @example((0, 0, 0, -3, 0))
    # one-point windows
    @example((0, 0, -1, 0, 0))
    @example((0, 0, 0, 0, 0))
    # R = m^3 + 2m^2 + c0: local maximum c0 + 32/27 at m = -4/3, between the
    # integers, where R(-2) = c0 and R(-1) = c0 + 1
    @example((2, 0, -2, -2, -1))
    @example((2, 0, -1, -2, -1))
    # local maximum at the integer 0 (D = 9), R(0) = c0, and the window
    # runs from it to the local minimum at 2
    @example((-3, 0, 0, 0, 2))
    @example((-3, 0, -1, 0, 2))
    # R = m^3 - 15m^2 + m: local maximum just past 0, where R(0) = 0 is the
    # only value that is not negative, so floor(r1) decides
    @example((-15, 1, 0, -1, 1))
    # R = m^3 - 15m^2 + 52: the window 2..3 lies past the local maximum
    # at 0, where R falls, so lo decides
    @example((-15, 0, 52, 2, 3))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, case):
        c2, c1, c0, lo, hi = case
        brute = all(_cubic(c2, c1, c0)(m) < 0 for m in range(lo, hi + 1))
        assert _negative_throughout(lo, hi, c2, c1, c0) == brute

    def test_empty_window_skips_the_sieve(self, monkeypatch):
        import quinticpoints.elliptic as elliptic

        def no_sieve(*args):
            raise AssertionError("sieved a window where R < 0 throughout")

        monkeypatch.setattr(elliptic, "_square_sieve", no_sieve)
        # X^3 - 25 X^2 - 2500 is negative for every X <= 25
        assert search_points(specialization_curve(1, 0, Fraction(1)), 25) == []
        assert search_points(WeierstrassCurve(1, 0, -1000), 9) == []
        # at X = 29 the right side is positive, so that window is sieved
        with pytest.raises(AssertionError, match="sieved"):
            search_points(specialization_curve(1, 0, Fraction(1)), 40)


@st.composite
def cubics_with_squares(draw):
    """(start, length, c2, c1, c0) with R(m) = m^3 + c2 m^2 + c1 m + c0 a
    perfect square at a drawn m of the window, so that the sieve has a
    square to keep."""
    start, length = draw(st.integers(-500, 500)), draw(st.integers(1, 600))
    c2, c1 = draw(st.integers(-(10**12), 10**12)), draw(st.integers(-(10**12), 10**12))
    m = start + draw(st.integers(0, length - 1))
    c0 = draw(st.integers(0, 10**9)) ** 2 - _cubic(c2, c1, 0)(m)
    return start, length, c2, c1, c0


class TestSquareSieve:
    @given(cubics_with_squares())
    @settings(max_examples=200, deadline=None)
    def test_every_square_keeps_its_bit(self, case):
        start, length, c2, c1, c0 = case
        mask = _square_sieve(start, length, c2, c1, c0)
        assert 0 <= mask < 1 << length
        for j in range(length):
            value = _cubic(c2, c1, c0)(start + j)
            if value >= 0 and math.isqrt(value) ** 2 == value:
                assert mask >> j & 1, start + j

    def test_stops_at_two_survivors(self, monkeypatch):
        import quinticpoints.elliptic as elliptic

        # R(m) = m^3 + 1 over 0..999, where R(0) = 1 is a square
        tried = []
        squares_mod = elliptic._squares_mod

        def counting(p):
            tried.append(p)
            return squares_mod(p)

        monkeypatch.setattr(elliptic, "_squares_mod", counting)
        mask = _square_sieve(0, 1000, 0, 0, 1)
        assert mask.bit_count() <= 2 and mask & 1
        assert len(tried) < len(elliptic._SIEVE_PRIMES)


def _first_real_x(curve):
    """The least X >= 1 at which X^3 + A2 X^2 + A6 >= 0 on the integral model
    of E_t, by bisection: the window |X| <= bound has a real point iff bound
    reaches it."""
    _, a2, a6 = curve
    lo, hi = 1, 1
    while hi * hi * (hi + a2) + a6 < 0:
        lo, hi = hi, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if mid * mid * (mid + a2) + a6 < 0 else (lo, mid)
    return lo


@st.composite
def screened_windows(draw):
    """(c, f, t, bound) with c != f; half the draws put the bound within 2
    of the first X where the window gains a real point."""
    c, f = draw(st.integers(-300, 300)), draw(st.integers(-300, 300))
    assume(c != f)
    t = draw(nonzero_ts)
    if draw(st.booleans()):
        bound = draw(st.integers(1, 10**6))
    else:
        bound = max(1, _first_real_x(specialization_curve(c, f, t)) + draw(st.integers(-2, 2)))
    return c, f, t, bound


class TestScreenT:
    """``_no_real_point`` rules t out before E_t is built, and only where
    ``_negative_throughout`` would skip the window of the integral model."""

    @given(screened_windows())
    # t = 1, c - f = 1: X^2 (X - 25) - 2500 < 0 for every X <= 25 (B <= N2)
    # and up to X = 28 (28^2 * 3 < 2500), but not at X = 29
    @example((1, 0, Fraction(1), 25))
    @example((1, 0, Fraction(1), 28))
    @example((1, 0, Fraction(1), 29))
    # t = 10: B = N2 = 250000 is skipped by the first test alone
    @example((1, 0, Fraction(10), 250000))
    @example((1, 0, Fraction(10), 250001))
    # 5 | m: a2 = -25/5^4 has N2 = 1 and D2 = 25
    @example((1, 0, Fraction(1, 5), 2))
    @example((1, 0, Fraction(2, 45), 165000))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_window_test_on_the_integral_model(self, case):
        # the minimal u has u^2 = D2, so both bounds are equalities and the
        # screen is exact; soundness, skip => no real point, is the half
        # the search needs
        c, f, t, bound = case
        _, a2, a6 = specialization_curve(c, f, t)
        screened = _no_real_point(c, f, t.numerator, t.denominator, bound)
        assert screened == _negative_throughout(-bound, bound, a2, 0, a6)

    @staticmethod
    def _count_curves(monkeypatch):
        import quinticpoints.elliptic as elliptic

        built = []
        original = elliptic.specialization_curve

        def counting(c, f, t):
            built.append(t)
            return original(c, f, t)

        monkeypatch.setattr(elliptic, "specialization_curve", counting)
        return built

    def test_table_search_workload_builds_32_curves(self, monkeypatch):
        # the 30 rows at height 4 and bound 200 try 250 values of t
        built = self._count_curves(monkeypatch)
        found = [conjecture2_search(d, 0, 4, 200) for d in range(1, 31)]
        assert len(built) == 32
        assert sum(row is not None for row in found) == 8

    def test_small_bound_at_large_height_builds_no_curve(self, monkeypatch):
        built = self._count_curves(monkeypatch)
        assert conjecture2_search(1, 0, 300, 3) is None
        assert built == []


def _rationals_reference(max_height):
    """The positive rationals of height <= max_height as Fractions, each
    height's pairs sorted by denominator, then numerator: the reference
    order for the int pairs of ``rationals_by_height``."""
    for h in range(1, max_height + 1):
        pairs = [(h, den) for den in range(1, h + 1)] + [
            (num, h) for num in range(1, h)
        ]
        for num, den in sorted(pairs, key=lambda nd: (nd[1], nd[0])):
            if math.gcd(num, den) == 1:
                yield Fraction(num, den)


class TestRationalT:
    """The search on E_t for t that is not an integer, whose integral model
    rescales by some u > 1, against the brute force of ``_search_reference``."""

    CURVES = [
        (d, t) for d in range(1, 13) for t in _rationals_reference(3) if t.denominator > 1
    ]

    def test_search_matches_brute_force(self):
        hits = 0
        for d, t in self.CURVES:
            curve = specialization_curve(d, 0, t)
            found = search_points(curve, 1000)
            assert found == _search_reference(curve, 1000), (d, t)
            hits += len(found)
        assert hits  # E_{1/2} has points for D = 5 and D = 9

    @pytest.mark.parametrize("d", range(1, 13))
    def test_conjecture2_search_matches_brute_force(self, d):
        # height 4 at bound 200 is the table-search workload's setting
        for height, bound in ((3, 300), (4, 200)):
            expected = next(
                (
                    (t, point)
                    for t in _rationals_reference(height)
                    for point in _search_reference(specialization_curve(d, 0, t), bound)
                    if _nontorsion_reference(specialization_curve(d, 0, t), point)
                ),
                None,
            )
            assert conjecture2_search(d, 0, height, bound) == expected


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
        assert [d for d, _, _ in rows] == list(range(1, 101))

    @pytest.mark.parametrize("n", [1, 37, 100])
    def test_first_n_rows_parse_alone(self, n):
        assert load_table(n) == load_table()[:n]

    def test_all_rows_verify(self):
        reports = [verify_row(line) for line in table_lines()]
        assert all(r["status"] == "ok" and r["on_curve"] and r["nontorsion"] for r in reports)

    def test_corrupted_row_fails(self):
        d, t, x, _ = table_lines()[0].split(",")
        report = verify_row(f"{d},{t},{x},404/405")
        assert not report["on_curve"] and report["status"] == "FAIL"

    @pytest.mark.parametrize(
        "text, cell",
        [("7", (7, 1)), ("4/90", (2, 45)), ("-2/45", (-2, 45)), ("2/-45", (-2, 45)),
         ("-4/-90", (2, 45)), ("0/5", (0, 1)), ("-0", (0, 1))],
    )
    def test_cells_reduce_as_fraction_does(self, text, cell):
        assert _table_cell(text) == cell
        assert Fraction(*cell) == _cell_reference(text)

    @pytest.mark.parametrize("text", ["1/0", "0/0", "-3/0"])
    def test_zero_denominator_cell_raises(self, text):
        with pytest.raises(ZeroDivisionError):
            _table_cell(text)

    @pytest.mark.parametrize("line", ["0,2/45,1,403/405", "-0,1,8381,766104", "1,0,1,1", "1,0/7,1,1"])
    def test_degenerate_row_raises(self, line):
        with pytest.raises(DegenerateSpecialization):
            verify_row(line)


def _cell_reference(text):
    """A table cell "n/d" or "n" as a Fraction.  ``Fraction(int, int)``,
    since ``Fraction("2/-45")`` refuses a negative denominator."""
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def _family_long(d, t):
    """E_t over Q, a2 = -25 t^4 and a6 = -2500 D^2 t^4, as (a1, a2, a3, a4,
    a6) in the long form of ``oracle``."""
    return 0, -25 * t**4, 0, 0, -2500 * d * d * t**4


def _verify_reference(line):
    """``verify_row``'s report by the Fraction path of ``oracle``: the
    point's cells as Fractions on E_t over Q, tested by ``long_on_curve``
    and, when on it, ``long_is_nontorsion``."""
    d, t, x, y = line.split(",")
    d, t = int(d), _cell_reference(t)
    a, point = _family_long(d, t), (_cell_reference(x), _cell_reference(y))
    member = long_on_curve(a, point)
    nontor = member and long_is_nontorsion(a, point)
    return {
        "D": d, "t": format_rational(t), "on_curve": member, "nontorsion": nontor,
        "status": "ok" if nontor else "FAIL",
    }


# (D, t, X): 2-torsion points (X, 0) on E_t, found by search_points.  At t = 1,
# (25 + k^2, 0) is one whenever D = (25 + k^2) k / 50 is an integer.
TORSION = [(5, "1", 50), (11, "2/5", 20), (25, "2", 500), (75, "3", 2250), (80, "2", 800),
           (195, "3", 2925)] + [((25 + k * k) * k // 50, "1", 25 + k * k) for k in (15, 25, 35)]


def _written(q, k, flip):
    """The rational q as a table cell "n/d" scaled by k, both signs flipped
    when ``flip``: a non-canonical spelling of the same value."""
    q = Fraction(q)
    sign = -1 if flip else 1
    return f"{sign * k * q.numerator}/{sign * k * q.denominator}"


@st.composite
def table_lines_drawn(draw):
    """Data lines "D,t,X,Y": shipped rows, their multiples kP, points
    pushed off the curve and 2-torsion points, each cell possibly spelled
    non-canonically (4/90 for 2/45, 2/-45 for -2/45) and D and t possibly
    negated."""
    kind = draw(st.sampled_from(["shipped", "multiple", "perturbed", "torsion"]))
    if kind == "torsion":
        d, t, x = draw(st.sampled_from(TORSION))
        t, point = Fraction(t), CurvePoint(x, 0)
    else:
        d, t, point = draw(st.sampled_from(load_table()))
        if kind == "multiple":
            point = mul(specialization_curve(d, 0, t), draw(st.integers(2, 3)), point)
        elif kind == "perturbed":
            delta = draw(st.fractions(-3, 3, max_denominator=7))
            point = CurvePoint(point.x, point.y + delta) if draw(st.booleans()) else (
                CurvePoint(point.x + delta, point.y))
    d, t = draw(st.sampled_from([d, -d])), draw(st.sampled_from([t, -t]))
    cells = [
        _written(q, draw(st.integers(1, 3)), draw(st.booleans())) if draw(st.booleans())
        else format_rational(q)
        for q in (t, point.x, point.y)
    ]
    return ",".join([str(d), *cells])


class TestIntVerify:
    """``verify_row`` checks a line in ints alone, from the closed-form
    model of E_t; each part is held against the Fraction path it replaces."""

    @given(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6),
           st.integers(-1000, 1000).filter(bool), st.integers(1, 1000), st.booleans())
    @example(1, 0, 2, 45, False)  # the D = 1 row: 5 | m, u = 405
    @example(3, -2, 1, 5, False)  # u = 5
    @example(-7, 4, 999, 1000, False)  # 5^3 | m
    @example(1, 0, 1, 1, False)  # u = 1
    @settings(max_examples=300, deadline=None)
    def test_closed_form_model_is_the_least_one(self, c, f, n, m, five):
        # half the draws put 5 in m, where u = m^2 / 5 and not m^2
        m = 5 * m if five and m <= 200 else m
        assume(c != f and math.gcd(n, m) == 1)
        t = Fraction(n, m)
        u, a2, a6 = integral_model(c - f, n, m)
        assert specialization_curve(c, f, t) == (u, a2, a6)
        assert Fraction(a2, u * u) == -25 * t**4
        assert Fraction(a6, u**6) == -2500 * (c - f) ** 2 * t**4
        # least: u^2 a2 and u^6 a6 are integers, and for no prime p of u
        # are (u/p)^2 a2 and (u/p)^6 a6
        assert _scales_to_ints(c - f, t, u)
        for p in factor(u):
            assert not _scales_to_ints(c - f, t, u // p)

    @given(table_lines_drawn())
    @example("1,4/90,1,403/405")
    @example("1,-2/45,1,403/405")
    @example("1,2/-45,1,-403/405")
    @example("5,1,50,0")
    @example("1,2/45,1,404/405")
    @settings(max_examples=300, deadline=None)
    def test_report_matches_the_fraction_path(self, line):
        assert verify_row(line) == _verify_reference(line)


@st.composite
def family_points(draw):
    """(D, t, P) with P on E_t: a shipped row, a multiple kP of one built by
    ``oracle``, or a 2-torsion point of TORSION; t possibly negated."""
    kind = draw(st.sampled_from(["shipped", "multiple", "torsion"]))
    if kind == "torsion":
        d, t, x = draw(st.sampled_from(TORSION))
        t, point = Fraction(t), CurvePoint(x, 0)
    else:
        d, t, point = draw(st.sampled_from(load_table()))
        if kind == "multiple":
            point = CurvePoint(*long_mul(_family_long(d, t), draw(st.integers(2, 3)), _pair(point)))
    return d, draw(st.sampled_from([t, -t])), point


class TestFamilyAgainstOracle:
    """add, mul, on_curve and is_nontorsion on points of E_t, which the
    program builds as model ints, against the long-form group law of
    ``oracle`` on E_t's rational coefficients."""

    @given(family_points(), st.integers(-3, 3))
    @example((5, Fraction(1), CurvePoint(50, 0)), 2)
    @example((1, Fraction(2, 45), D1_POINT), 3)
    @settings(max_examples=100, deadline=None)
    def test_group_law_matches_long_form(self, case, n):
        d, t, p = case
        curve, a = specialization_curve(d, 0, t), _family_long(d, t)
        assert on_curve(curve, p) and long_on_curve(a, _pair(p))
        moved = CurvePoint(p.x, p.y + 1)
        assert on_curve(curve, moved) == long_on_curve(a, _pair(moved))
        assert is_nontorsion(curve, p) == long_is_nontorsion(a, _pair(p))
        q = mul(curve, n, p)
        assert _pair(q) == long_mul(a, n, _pair(p))
        for r in (IDENTITY, p, negate(curve, p), q):
            assert _pair(add(curve, p, r)) == long_add(a, _pair(p), _pair(r)), r


class TestConjectureSearch:
    def test_d89_finds_paper_row(self):
        # t = 1 is the first enumerated rational and carries the paper's point
        found = conjecture2_search(89, 0, 3, 20000)
        assert found is not None
        t, point = found
        assert t == 1 and point == CurvePoint(8381, 766104)

    def test_exhausted(self):
        found = conjecture2_search(1, 0, 1, 10)
        assert found is None

    def test_enumeration_order(self):
        # height ascending, then denominator, then numerator
        seq = list(rationals_by_height(3))
        assert seq == [(1, 1), (2, 1), (1, 2), (3, 1), (3, 2), (1, 3), (2, 3)]

    def test_pairs_match_the_sorted_reference(self):
        for height in range(61):
            pairs = [Fraction(n, m) for n, m in rationals_by_height(height)]
            assert pairs == list(_rationals_reference(height)), height
