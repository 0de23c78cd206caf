import ast
import re
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import quinticpoints
from quinticpoints import surfaces
from quinticpoints.exact import GAUSSIAN_I, CertificateError, GaussianRational
from quinticpoints.poly import MultiPoly, RationalFunction
from quinticpoints.quintic import (
    FIELD_Q,
    FIELD_QI,
    Point4,
    PointNotOnHypersurface,
    QuinticCoeffs,
    classify,
    f_value,
    integral_image,
    residual,
    residual_symbolic,
    scale_to_integers,
)


class TestCertificate:
    def test_nonzero_residual_raises(self):
        # f = X^5 + X^3 + X^2 + X: f(1) = 4 and f(0) = 0, so the residual is 4
        point = Point4(Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        assert residual(QuinticCoeffs(1, 1, 1), point) == 4
        with pytest.raises(CertificateError):
            surfaces.Certificate("thm1", {}, point, Fraction(4), True)

    def test_certificate_error_is_not_invalid_input(self):
        # the CLI and the thm1 spot checks read ValueError as a bad input
        assert not issubclass(CertificateError, ValueError)
        assert issubclass(CertificateError, RuntimeError)


class TestFValue:
    def test_rational_gaussian_and_poly_agree_with_expansion(self):
        a, b, c = 2, -3, 5
        for x in (Fraction(-7, 3), Fraction(0), Fraction(11, 2)):
            assert f_value(a, b, c, x) == x**5 + a * x**3 + b * x**2 + c * x
        z = GaussianRational(Fraction(1, 2), Fraction(-3))
        assert f_value(a, b, c, z) == z**5 + a * z**3 + b * z**2 + c * z
        x, sa, sb, sc = MultiPoly.variables("x a b c")
        assert f_value(sa, sb, sc, x) == x**5 + sa * x**3 + sb * x**2 + sc * x

    def test_zero_coefficients_allowed(self):
        assert f_value(0, 0, 0, Fraction(2, 3)) == Fraction(32, 243)


class TestFamiliesCertify:
    """Every construction emits a point whose certificate holds; the CLI
    golden set checks the exact bytes, these check the certificate path."""

    def test_thm1(self):
        cert = surfaces.thm1_point(QuinticCoeffs(2, 1, -1), Fraction(1, 2), Fraction(1))
        assert isinstance(cert, surfaces.Certificate)
        assert cert.residual == 0 and cert.nontrivial

    def test_thm2(self):
        cert = surfaces.thm2_point(-1, 3, 1, 3, search_bound=30)
        assert cert.residual == 0 and cert.nontrivial

    def test_gaussian_and_fifth_power(self):
        cert = surfaces.gaussian_point((1, -2, 0), 2, GaussianRational(1, 1))
        assert not cert.residual and cert.point.field == FIELD_QI
        five = surfaces.fifth_power_solution(GaussianRational(2, 0), GaussianRational(1, 1))
        p, q, r, s = five.point
        assert not five.residual
        assert five.nontrivial == (not ({p, q} & {r, s}) and not ({p**5, q**5} & {r**5, s**5}))

    def test_mixed_and_symmetric(self):
        d, t, _ = surfaces.elliptic.load_table()[0]
        mixed = surfaces.mixed_point(d, 0, t, 2)
        assert mixed.residual == 0 and mixed.nontrivial
        sym = surfaces.symmetric_rational_point(
            surfaces.SymmetricQuinticCoeffs(1, 1, 1, 1, 1, 1, 1, 1, 1, 29), 1, (3, 8), 2
        )
        assert sym.residual == 0 and sym.nontrivial

    def test_mixed_verdict_needs_distinct_f_values(self):
        # F = x^5 - x and G = x^5 - 16x: F(0) = F(1) = 0 and G(0) = G(2) = 0,
        # so p != r and q != s, yet both sides are (0, 0)
        assert surfaces._mixed_verdicts((-1, -16), Point4(0, 0, 1, 2)) == (0, False)

    def test_mixed_reads_only_its_own_table_row(self, monkeypatch):
        rows = surfaces.elliptic.load_table()
        assert [surfaces.elliptic.table_row(d) for d in range(1, 101)] == rows
        monkeypatch.setattr(surfaces.elliptic, "load_table", None)
        d, t, _ = rows[87]
        assert surfaces.mixed_point(d, 0, t, 2).nontrivial

    @pytest.mark.parametrize("c, f, t", [(101, 0, 1), (0, 1, 1), (-3, 0, 2), (1, 0, 2)])
    def test_mixed_without_a_table_row(self, c, f, t):
        message = f"no shipped table row for D = {c - f} at t = {t}; pass a point explicitly"
        with pytest.raises(ValueError, match=re.escape(message)):
            surfaces.mixed_point(c, f, t, 1)

    def test_mixed_rejects_a_point_off_its_curve(self):
        # the check is elliptic.mul's own, made at entry, for every k
        for k in (0, 2):
            with pytest.raises(surfaces.elliptic.PointNotOnCurve):
                surfaces.mixed_point(1, 0, 1, k, point=surfaces.elliptic.CurvePoint(0, 0))


class TestBrokenPipelinesFail:
    def test_thm1_spotchecks_fail_instead_of_skipping(self, monkeypatch):
        monkeypatch.setattr(surfaces, "residual", lambda f, point: Fraction(1))
        (check,) = surfaces.identity_suite(only="thm1-spotchecks")
        assert not check.ok
        assert check.detail.startswith("CertificateError")


def test_the_suite_runs_every_check_in_registry_order():
    assert [c.name for c in surfaces.identity_suite()] == [
        "r1-factorization",
        "thm1-surface",
        "r4-factorization",
        "thm2-conic",
        "question3-identity",
        "gaussian-parametrization",
        "gaussian-residual",
        "fifth-power",
        "norm-lift",
        "mixed-h",
        "mixed-maps",
        "symmetric-g",
        "example1-display",
        "consani-scholten-display",
        "c29-display",
        "corollary1-scaling",
        "thm1-spotchecks",
    ]


def _perturb_first(display):
    def perturbed(*args):
        first, *rest = display(*args)
        return (first + 1, *rest)

    return perturbed


def _plus_one(display):
    return lambda *args: display(*args) + 1


# a display that returns one value, not a tuple, is perturbed by adding 1
PERTURBATIONS = {"_mixed_h": _plus_one, "_surface_g": _plus_one}
C29 = surfaces.SymmetricQuinticCoeffs(1, 1, 1, 1, 1, 1, 1, 1, 1, 29)
_, D1_T, _ = surfaces.elliptic.load_table()[0]  # t of the shipped D = 1 row


@pytest.mark.parametrize(
    "display, checks, constructors",
    [
        (
            "_gaussian_coords",
            ["gaussian-residual", "gaussian-parametrization"],
            [lambda: surfaces.gaussian_point((1, -2, 0), 2, GaussianRational(1, 1))],
        ),
        (
            "_fifth_power_coords",
            ["fifth-power"],
            [lambda: surfaces.fifth_power_solution(2, GaussianRational(1, 1))],
        ),
        (
            "_ansatz_values",
            ["thm1-surface", "thm1-spotchecks"],
            [lambda: surfaces.thm1_point(QuinticCoeffs(2, 1, -1), Fraction(1, 2), 1)],
        ),
        (
            "_surface_map",
            ["thm1-surface", "thm1-spotchecks"],
            [lambda: surfaces.thm1_point(QuinticCoeffs(2, 1, -1), Fraction(1, 2), 1)],
        ),
        (
            "_conic_lines",
            ["consani-scholten-display", "c29-display"],
            [
                lambda: surfaces.symmetric_gaussian_point(surfaces.CONSANI_SCHOLTEN, 2, 1),
                lambda: surfaces.symmetric_rational_point(C29, 1, (3, 8), 2),
            ],
        ),
        (
            "_uv_coords",
            ["mixed-h", "symmetric-g", "consani-scholten-display", "c29-display"],
            [
                lambda: surfaces.mixed_point(1, 0, D1_T, 2),
                lambda: surfaces.symmetric_gaussian_point(surfaces.CONSANI_SCHOLTEN, 2, 1),
                lambda: surfaces.symmetric_rational_point(C29, 1, (3, 8), 2),
            ],
        ),
        (
            "r4_point",
            ["r4-factorization", "example1-display"],
            [lambda: surfaces.thm2_point(-1, 3, 1, 3, search_bound=30)],
        ),
        (
            "_conic_sweep",
            ["thm2-conic", "example1-display"],
            [lambda: surfaces.thm2_point(-1, 3, 1, 3, search_bound=30)],
        ),
        (
            "_mixed_forward",
            ["mixed-maps"],
            [lambda: surfaces.mixed_point(1, 0, D1_T, 2)],
        ),
        # mixed_point evaluates the maps, not H, so no constructor runs _mixed_h
        ("_mixed_h", ["mixed-h", "mixed-maps"], []),
        # gaussian-residual proves G(p, y, r) = 0; no constructor builds G
        ("_surface_g", ["r1-factorization", "thm1-surface", "gaussian-residual"], []),
        (
            "_r2_point",
            ["thm1-surface", "thm1-spotchecks"],
            [lambda: surfaces.thm1_point(QuinticCoeffs(2, 1, -1), Fraction(1, 2), 1)],
        ),
    ],
)
def test_a_wrong_display_fails_its_check_and_its_constructor(
    monkeypatch, display, checks, constructors
):
    """Each display is one function that the constructor runs and the
    identity suite proves: perturb it, and both must fail."""
    for cached in (surfaces.thm2_parametrize, surfaces.mixed_special_maps):
        cached.cache_clear()
    perturb = PERTURBATIONS.get(display, _perturb_first)
    monkeypatch.setattr(surfaces, display, perturb(getattr(surfaces, display)))
    try:
        failed = {c.name for c in surfaces.identity_suite() if not c.ok}
        assert failed == set(checks)
        for construct in constructors:
            with pytest.raises(CertificateError):
                construct()
    finally:
        for cached in (surfaces.thm2_parametrize, surfaces.mixed_special_maps):
            cached.cache_clear()


def test_gaussian_coords_lie_on_every_v_f():
    """The full residual substitution that gaussian-residual reduces to
    p + q = r + s = y and G(p, y, r) = 0, run over MultiPoly with a, b, c
    free and i the variable I reduced by I^2 = -1."""
    a, b, y, u = MultiPoly.variables("a b y u")
    coords = surfaces._gaussian_coords(a, b, y, u, surfaces._I)
    res = residual_symbolic().substitute(dict(zip("pqrs", coords)))
    assert surfaces._vanishes_over_qi(res)


def _polys_in(names, max_degree):
    """Random polynomials on ``names`` with small rational coefficients; the
    degree in each variable is at most its ``max_degree``."""
    exps = st.tuples(*(st.integers(0, d) for d in max_degree))
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    return st.dictionaries(exps, coeffs, max_size=6).map(lambda t: MultiPoly(names, t))


def _at_i(poly, x, y):
    """poly(I = i, x, y) in GaussianRational arithmetic, term by term."""
    at = {"I": GAUSSIAN_I, "x": GaussianRational.of(x), "y": GaussianRational.of(y)}
    total = GaussianRational(0, 0)
    for exps, coeff in poly.terms.items():
        term = GaussianRational.of(coeff)
        for var, e in zip(poly.vars, exps):
            term = term * at[var] ** e
        total = total + term
    return total


def _reduce_square_by_lowering(poly, var, rhs):
    """The reference reduction: lower each var^k, k >= 2, by one var^2 per
    pass until none is left."""
    while poly.degree(var) >= 2:
        i = poly.vars.index(var)
        keep = {}
        lowered = MultiPoly.zero()
        for exps, coeff in poly.terms.items():
            if exps[i] >= 2:
                mono = MultiPoly(poly.vars, {exps[:i] + (exps[i] - 2,) + exps[i + 1:]: coeff})
                lowered = lowered + mono * rhs
            else:
                keep[exps] = coeff
        poly = MultiPoly(poly.vars, keep) + lowered
    return poly


class TestReduceSquare:
    @given(
        _polys_in(("I", "x", "y"), (7, 2, 2)),
        st.fractions(-8, 8, max_denominator=5),
        st.fractions(-8, 8, max_denominator=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_reduction_by_i_squared_is_evaluation_at_i(self, p, x, y):
        reduced = surfaces._reduce_square(p, "I", -1)
        assert reduced.degree("I") <= 1
        re, im = (reduced.coefficient_of("I", k).eval({"x": x, "y": y}) for k in (0, 1))
        assert GaussianRational(re, im) == _at_i(p, x, y)

    @given(_polys_in(("X", "Y", "t"), (2, 7, 2)), _polys_in(("X", "t"), (3, 2)))
    @settings(max_examples=60, deadline=None)
    def test_one_pass_matches_repeated_lowering(self, p, rhs):
        assert surfaces._reduce_square(p, "Y", rhs) == _reduce_square_by_lowering(p, "Y", rhs)

    def test_vanishing_over_qi_needs_a_denominator_that_survives(self):
        i, x, y = surfaces._I, *MultiPoly.variables("x y")
        assert surfaces._vanishes_over_qi(RationalFunction(x * (i * i + 1), y))
        assert not surfaces._vanishes_over_qi(RationalFunction(x, y))
        assert not surfaces._vanishes_over_qi(i)
        # 0/0 in Q(i), though the quotient is x/y over Q[I]
        assert not surfaces._vanishes_over_qi(RationalFunction(x * (i * i + 1), y * (i * i + 1)))
        assert not surfaces._vanishes_over_qi(RationalFunction(i * i + 1, i**3 + i))


@pytest.mark.parametrize(
    "display, flipped, checks, construct",
    [
        ("_fifth_power_coords", 1, {"fifth-power"},
         lambda: surfaces.fifth_power_solution(2, GaussianRational(1, 1))),
        ("_gaussian_coords", 0, {"gaussian-parametrization", "gaussian-residual"},
         lambda: surfaces.gaussian_point((1, -2, 0), 2, GaussianRational(1, 1))),
    ],
)
def test_the_sign_of_i_in_a_coordinate_fails_its_checks(
    monkeypatch, display, flipped, checks, construct
):
    """One coordinate taken with -i in place of i fails the Q(i) checks and
    the constructor.  Flipping i in every coordinate gives the conjugate
    display, which solves the same equations over Q, so only the check that
    writes its own i, gaussian-parametrization, catches that."""
    coords = getattr(surfaces, display)

    def one_flipped(*args):
        out = list(coords(*args))
        out[flipped] = coords(*args[:-1], -args[-1])[flipped]
        return tuple(out)

    monkeypatch.setattr(surfaces, display, one_flipped)
    assert {c.name for c in surfaces.identity_suite() if not c.ok} == checks
    with pytest.raises(CertificateError):
        construct()
    monkeypatch.setattr(surfaces, display, lambda *args: coords(*args[:-1], -args[-1]))
    assert {c.name for c in surfaces.identity_suite() if not c.ok} == checks & {
        "gaussian-parametrization"
    }


def test_identity_suite_runs_every_check_once(monkeypatch):
    """A check added to surfaces but left out of the registry is never run."""
    names = sorted(name for name in vars(surfaces) if name.startswith("_check_"))
    calls = []
    for name in names:
        monkeypatch.setattr(surfaces, name, lambda *args, name=name: calls.append(name) or True)
    results = surfaces.identity_suite()
    assert sorted(calls) == names
    assert len(results) == len({r.name for r in results}) == len(names) == 17


def test_a_shift_that_keeps_both_sums_fails_the_gaussian_checks(monkeypatch):
    """p + 1 and q - 1 keep p + q = r + s = y, so only G(p, y, r) = 0 can
    catch the shift in gaussian-residual."""
    coords = surfaces._gaussian_coords

    def shifted(*args):
        p, q, r, s = coords(*args)
        return p + 1, q - 1, r, s

    monkeypatch.setattr(surfaces, "_gaussian_coords", shifted)
    failed = {c.name for c in surfaces.identity_suite() if not c.ok}
    assert failed == {"gaussian-residual", "gaussian-parametrization"}
    with pytest.raises(CertificateError):
        surfaces.gaussian_point((1, -2, 0), 2, GaussianRational(1, 1))


def test_printed_sign_of_the_v_map_fails_its_check_and_mixed_point(monkeypatch):
    """The paper prints a leading minus on the V component of the forward
    map: with it, the mixed-maps check and construct mixed both fail."""
    maps = surfaces.mixed_special_maps

    def printed(c, f):
        forward, inverse = maps(c, f)

        def negated_v(*args):
            U, V = forward(*args)
            return U, -V

        return negated_v, inverse

    monkeypatch.setattr(surfaces, "mixed_special_maps", printed)
    assert surfaces._check_mixed_maps() is False
    assert {c.name for c in surfaces.identity_suite(only="mixed") if not c.ok} == {"mixed-maps"}
    with pytest.raises(CertificateError):
        surfaces.mixed_point(1, 0, D1_T, 1)


def test_no_assert_statements_in_src():
    """Checks must survive python -O: raise CertificateError instead."""
    found = []
    for path in sorted(Path(quinticpoints.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


_SMALL = st.fractions(min_value=-9, max_value=9, max_denominator=12)
_SCALARS = st.one_of(_SMALL, st.builds(GaussianRational, _SMALL, _SMALL))


def _shifted(draw, point):
    """``point``, or half the time the point with p shifted off its equation."""
    if draw(st.booleans()):
        point = (point[0] + draw(_SCALARS.filter(bool)), *point[1:])
    return Point4(*point)


@st.composite
def _quintic_points(draw):
    """(V_F, (a, b, c), P): P on V_f by one of four constructions, over Q or
    Q(i), shifted off it half the time; a = b = c = 0 is drawn too."""
    a, b, c = (draw(st.integers(-3, 3)) for _ in "abc")
    kind = draw(st.sampled_from(["swap", "odd", "gaussian", "fifth-power"]))
    x, y = draw(_SCALARS), draw(_SCALARS)
    if kind == "swap":  # on every V_f, and trivial
        point = (x, y, y, x)
    elif kind == "odd":  # f is odd when b = 0, so f(x) + f(-x) = 0 = f(y) + f(-y)
        b, point = 0, (x, -x, y, -y)
    elif kind == "gaussian":
        y = draw(_SMALL.filter(bool))
        try:
            point = surfaces._gaussian_coords(a, b, y, GaussianRational.of(x), GAUSSIAN_I)
        except ZeroDivisionError:  # u = 5iy^2, the pole
            assume(False)
    else:
        a = b = c = 0
        point = surfaces._fifth_power_coords(GaussianRational.of(x), GaussianRational.of(y), GAUSSIAN_I)
    return surfaces._V_F, (a, b, c), _shifted(draw, point)


@st.composite
def _mixed_points(draw):
    """(mixed, (c, f), P): P on F(p)+G(q) = F(r)+G(s), F = x^5+cx and G =
    x^5+fx, over Q or Q(i): (p, q, p, q), trivial; (x, -x, y, -y) with F = G,
    which is odd; or a point of ``mixed_point`` on a shipped row.  Shifted off
    half the time."""
    c, f = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(["swap", "odd", "row"]))
    x, y = draw(_SCALARS), draw(_SCALARS)
    if kind == "swap":
        point = (x, y, x, y)
    elif kind == "odd":
        f, point = c, (x, -x, y, -y)
    else:
        (c, t, _), f = draw(st.sampled_from(surfaces.elliptic.load_table(3))), 0
        point = surfaces.mixed_point(c, f, t, draw(st.sampled_from([1, 2, -1]))).point
    return surfaces._MIXED, (c, f), _shifted(draw, point)


@st.composite
def _symmetric_points(draw):
    """(symmetric, coefficients, P): P on f(p,q) = f(r,s) over Q or Q(i):
    (p, q, q, p), trivial; the line through the conic point (i, 0) at a drawn
    t, as ``symmetric_gaussian_point`` runs it; or C29's line through the seed
    (3, 8) at t = 1.  Shifted off half the time."""
    coeffs = surfaces.SymmetricQuinticCoeffs(*(draw(st.integers(-2, 2)) for _ in range(10)))
    kind = draw(st.sampled_from(["swap", "gaussian", "rational"]))
    x, y = draw(_SCALARS), draw(_SCALARS)
    if kind == "swap":
        point = (x, y, y, x)
    else:
        if kind == "gaussian":
            t, seed, slope = draw(_SMALL), (GAUSSIAN_I, 0), GaussianRational.of(x)
        else:
            coeffs, t, seed, slope = surfaces.C29, 1, (3, 8), draw(_SMALL)
        assume(coeffs.b20_at(t))
        try:
            U, V = surfaces._conic_lines(coeffs.b20_at(t), coeffs.b02_at(t), t, seed, slope)
            point = surfaces._uv_coords(t, U, V)
        except ZeroDivisionError:  # a slope along the conic's tangent, or V = 0
            assume(False)
    return surfaces._SYMMETRIC, coeffs, _shifted(draw, point)


def _fraction_verdicts(equation, coeffs, point):
    """The residual of ``point`` on ``equation`` and its own triviality rule,
    evaluated on the point as given: in Fractions or Q(i) unless it is
    integral."""
    p, q, r, s = point
    if equation is surfaces._V_F:
        f = partial(f_value, *coeffs)
        return residual(f, point), classify(f, point)
    if equation is surfaces._MIXED:
        F, G = (partial(f_value, 0, 0, k) for k in coeffs)
        return F(p) + G(q) - F(r) - G(s), p != r and q != s and F(p) != F(r)
    f = surfaces.SymmetricQuinticCoeffs(*coeffs).f_eval
    return f(p, q) - f(r, s), {p, q} != {r, s}


def _integral(v) -> bool:
    parts = (v.re, v.im) if isinstance(v, GaussianRational) else (v,)
    return all(Fraction(part).denominator == 1 for part in parts)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_quintic_points(), _mixed_points(), _symmetric_points()))
def test_the_integral_image_gives_the_verdicts_on_fractions(drawn):
    """Certified on d P and its equation's scaled coefficients, a point of
    V_f, of the mixed or of the symmetric equation gets the verdicts that
    its residual and its triviality rule give on P in Fractions; off its
    equation, the certifier raises CertificateError naming d, and
    scale-integers PointNotOnHypersurface."""
    equation, coeffs, point = drawn
    on = not _fraction_verdicts(equation, coeffs, point)[0]
    event(f"{equation.name} over {point.field}, {'on' if on else 'off'} it")
    d, big, (scaled,) = integral_image(coeffs, [point], equation.weights)
    assert all(map(_integral, scaled))
    assert big == tuple(k * d**w for k, w in zip(coeffs, equation.weights))
    res, nontrivial = _fraction_verdicts(equation, big, scaled)
    assert res == d**5 * _fraction_verdicts(equation, coeffs, point)[0]
    try:
        cert = surfaces._certificate("drawn", {}, point, equation, coeffs)
    except CertificateError as exc:
        assert not on and f"of d*P on {equation.name}, d = {d}," in str(exc)
    else:
        assert on and cert.point == point and str(cert.residual) == "0"
        assert cert.nontrivial == _fraction_verdicts(equation, coeffs, point)[1] == nontrivial
    if equation is surfaces._V_F and point.field == FIELD_Q and any(coeffs):
        try:
            _, scaled_points, residuals = scale_to_integers(QuinticCoeffs(*coeffs), [point])
        except PointNotOnHypersurface:
            assert not on
        else:
            assert on and scaled_points == [scaled] and residuals == [0]


def test_the_quintic_weights_are_corollary_1s():
    point = Point4(Fraction(1, 6), 0, 0, 0)
    d, big, _ = integral_image((5, -7, 11), [point], surfaces._V_F.weights)
    assert d == 6 and big == (5 * 6**2, -7 * 6**3, 11 * 6**4)


_TEN_5000 = 10**5000


@pytest.mark.parametrize(
    "value, shown",
    [
        (_TEN_5000 - 1, "<5000 digits>"),
        (_TEN_5000, "<5001 digits>"),
        (-_TEN_5000 - 1, "<5001 digits>"),
        (Fraction(1, 7 * _TEN_5000), "<5001 digits>"),
        (GaussianRational(Fraction(1, 3), _TEN_5000 - 1), "<5000 digits>"),
        (Point4(1, Fraction(2, 3), GaussianRational(0, 10**4400), _TEN_5000 - 1), "<5000 digits>"),
        (Point4(1, Fraction(2, 3), 0, -4), str(Point4(1, Fraction(2, 3), 0, -4).to_json())),
        (Fraction(-2, 3), "-2/3"),
    ],
    ids=["10^5000-1", "10^5000", "negative", "fraction", "gaussian", "point", "small-point",
         "small"],
)
def test_a_value_past_the_int_to_str_limit_is_shown_by_its_digits(value, shown):
    """str() stops at 4300 digits, so a failing certificate names a longer
    value by the digits of its longest integer, counted without str()."""
    show = Point4.to_json if isinstance(value, Point4) else str
    assert surfaces._shown(value, show) == shown


def test_a_failing_certificate_of_a_long_point_is_still_a_certificate_error():
    point = Point4(_TEN_5000, 0, 1, 0)
    with pytest.raises(CertificateError) as exc:
        surfaces.Certificate("drawn", {}, point, _TEN_5000, True)
    assert str(exc.value) == "drawn: residual <5001 digits> at <5001 digits>"


def _calls_in_src(name: str) -> set[str]:
    """The functions of ``src/quinticpoints`` whose bodies call ``name``,
    directly or as an attribute such as ``surfaces.name``."""
    callers = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                    callers.add(function)
            visit(child, inner)

    for path in Path(quinticpoints.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return callers


def test_one_path_scales_and_certifies_a_quintic_point():
    """Only ``integral_image`` scales a point, and one function builds every
    Certificate, on V_f, the mixed and the symmetric equation alike; it and
    ``scale_to_integers`` alone scale, and only V_f's verdicts run
    ``classify``."""
    assert _calls_in_src("lcm_of_denominators") == {"integral_image"}
    assert _calls_in_src("Certificate") == {"_certificate"}
    assert _calls_in_src("integral_image") == {"_certificate", "scale_to_integers"}
    assert _calls_in_src("classify") == {"_quintic_verdicts"}
    assert _calls_in_src("_certificate") == {
        "thm1_point", "thm2_point", "question3_points", "gaussian_point",
        "fifth_power_solution", "mixed_point", "_symmetric_point_from_uv",
    }


def test_no_module_reads_another_modules_private_name():
    """A name with one leading underscore is read only in its own module of
    ``src/quinticpoints``: no other module imports it or reads it as an
    attribute of its module."""
    package = Path(quinticpoints.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}: {a.name}" for a in node.names if private(a.name)]
            elif isinstance(node, ast.Attribute) and private(node.attr):
                owner = node.value
                name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
                if name in modules - {path.stem}:
                    found.append(f"{path.name}: {name}.{node.attr}")
    assert found == []
