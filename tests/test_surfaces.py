import ast
from fractions import Fraction
from pathlib import Path

import pytest

import quinticpoints
from quinticpoints import surfaces
from quinticpoints.exact import CertificateError, GaussianRational
from quinticpoints.poly import MultiPoly
from quinticpoints.quintic import (
    FIELD_TAG_QI,
    Point4,
    QuinticCoeffs,
    f_value,
    residual,
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
        assert not cert.residual and cert.point.field == FIELD_TAG_QI
        five = surfaces.fifth_power_solution(GaussianRational(2, 0), GaussianRational(1, 1))
        p, q, r, s = five.point.coords()
        assert not five.residual
        assert five.nontrivial == (not ({p, q} & {r, s}) and not ({p**5, q**5} & {r**5, s**5}))

    def test_mixed_and_symmetric(self):
        row = surfaces.elliptic.load_table()[0]
        mixed = surfaces.mixed_point(row.d, 0, row.t, 2)
        assert mixed.residual == 0 and mixed.nontrivial
        sym = surfaces.symmetric_rational_point(
            surfaces.SymmetricQuinticCoeffs(1, 1, 1, 1, 1, 1, 1, 1, 1, 29), 1, (3, 8), 2
        )
        assert sym.residual == 0 and sym.nontrivial

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


def _perturb_first(display):
    def perturbed(*args):
        first, *rest = display(*args)
        return (first + 1, *rest)

    return perturbed


C29 = surfaces.SymmetricQuinticCoeffs(1, 1, 1, 1, 1, 1, 1, 1, 1, 29)


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
                lambda: surfaces.mixed_point(1, 0, surfaces.elliptic.load_table()[0].t, 2),
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
            [lambda: surfaces.mixed_point(1, 0, surfaces.elliptic.load_table()[0].t, 2)],
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
    monkeypatch.setattr(surfaces, display, _perturb_first(getattr(surfaces, display)))
    try:
        failed = {c.name for c in surfaces.identity_suite() if not c.ok}
        assert failed == set(checks)
        for construct in constructors:
            with pytest.raises(CertificateError):
                construct()
    finally:
        for cached in (surfaces.thm2_parametrize, surfaces.mixed_special_maps):
            cached.cache_clear()


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
    assert not any(c.ok for c in surfaces.mixed_maps_checks(1, 0))
    assert {c.name for c in surfaces.identity_suite(only="mixed") if not c.ok} == {"mixed-maps"}
    with pytest.raises(CertificateError):
        surfaces.mixed_point(1, 0, surfaces.elliptic.load_table()[0].t, 1)


def test_no_assert_statements_in_src():
    """Checks must survive python -O: raise CertificateError instead."""
    found = []
    for path in sorted(Path(quinticpoints.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []
