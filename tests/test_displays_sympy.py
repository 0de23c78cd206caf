"""The shared display functions of surfaces.py, evaluated over sympy and
checked there, so that poly.MultiPoly is not the only judge of its own
identities.  Residuals are put over one denominator and expanded; sympy's
simplify is avoided because it is several times slower and decides nothing
more here."""

import pytest

sympy = pytest.importorskip("sympy")

from quinticpoints import surfaces  # noqa: E402


def vanishes(expr) -> bool:
    return sympy.expand(sympy.numer(sympy.together(expr))) == 0


def quintic_residual(a, b, c, p, q, r, s):
    def f(x):
        return x**5 + a * x**3 + b * x**2 + c * x

    return f(p) + f(q) - f(r) - f(s)


def test_gaussian_coords_lie_on_every_v_f():
    a, b, c, y, u = sympy.symbols("a b c y u")
    coords = surfaces._gaussian_coords(a, b, y, u, sympy.I)
    assert vanishes(quintic_residual(a, b, c, *coords))


def test_fifth_power_coords_solve_the_equal_sums():
    u, v = sympy.symbols("u v")
    p, q, r, s = surfaces._fifth_power_coords(u, v, sympy.I)
    assert sympy.expand(p**5 + q**5 - r**5 - s**5) == 0


def test_r4_point_factors_the_residual_as_displayed():
    x, y, z, a, c = sympy.symbols("x y z a c")
    res = quintic_residual(a, 0, c, *surfaces.r4_point(x, y, z))
    displayed = (
        6 * (x - y) * (x + 2 * y - 3 * z) * (x + 2 * y + 3 * z)
        * (x**2 + 2 * y**2 + 3 * z**2 + 5 * a)
    )
    assert sympy.expand(625 * res - displayed) == 0


def test_conic_sweep_stays_on_the_conic_of_its_base():
    x0, y0, z0, u, v = sympy.symbols("x0 y0 z0 u v")
    x, y, z = surfaces._conic_sweep((x0, y0, z0), u, v)
    assert vanishes(x**2 + 2 * y**2 + 3 * z**2 - (x0**2 + 2 * y0**2 + 3 * z0**2))
    # the line through the base with direction (u, v, 1)
    assert vanishes(x - x0 - u * (z - z0)) and vanishes(y - y0 - v * (z - z0))


def test_conic_lines_through_a_symbolic_seed_stay_on_its_conic():
    b20, b02, t, U0, V0, w = sympy.symbols("b20 b02 t U0 V0 w")
    U, V = surfaces._conic_lines(b20, b02, t, (U0, V0), w)

    def G(U, V):
        return b20 * (U**2 + 1) - t * b20 * (U * V + V) + b02 * V**2

    assert vanishes(G(U, V) - G(U0, V0))
    # the line of slope w through the seed
    assert vanishes(U - U0 - w * (V - V0))


def test_mixed_h_coeffs_cancel_the_mixed_residual():
    """V^4 (F(p) + G(q) - F(r) - G(s)) + (tV - U - 1) H(U, V, t) = 0 with
    all six coefficients of F = x^5+ax^3+bx^2+cx, G = x^5+dx^3+ex^2+fx free,
    H = _mixed_h and (p, q, s, r) = _uv_coords(t, U, V) as in mixed_point."""
    a, b, c, d, e, f, t, U, V = sympy.symbols("a b c d e f t U V")
    H = surfaces._mixed_h(a, b, c, d, e, f, U, V, t)
    p, q, s, r = surfaces._uv_coords(t, U, V)

    def F(x):
        return x**5 + a * x**3 + b * x**2 + c * x

    def G(x):
        return x**5 + d * x**3 + e * x**2 + f * x

    residual = F(p) + G(q) - F(r) - G(s)
    assert vanishes(V**4 * residual + (t * V - U - 1) * H)


def test_conic_at_cancels_the_symmetric_residual():
    """V^4 (f(p, q) - f(r, s)) + (U - 1)(tV - U - 1) G(U, V, t) = 0 for the
    symmetric quintic with all ten coefficients free, f and G taken from
    SymmetricQuinticCoeffs.f_eval and conic_at."""
    names = ("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "c0", "c1")
    coeffs = surfaces.SymmetricQuinticCoeffs(*sympy.symbols(names))
    t, U, V = sympy.symbols("t U V")
    p, q, s, r = surfaces._uv_coords(t, U, V)
    residual = coeffs.f_eval(p, q) - coeffs.f_eval(r, s)
    G = coeffs.conic_at(t, U, V)
    assert vanishes(V**4 * residual + (U - 1) * (t * V - U - 1) * G)


def test_ansatz_values_put_the_r2_point_on_e():
    """Under (R3) the (R2) point (X, Y, t)(T) on
    Y^2 = X^3 - 75 a^2 X - 125(5 b^2 t^2 + 10 b^2 + 2 a^3) leaves an equation
    linear in T, and the displayed T is its root; a, b, u, v are free, and the
    displayed coefficients a_0..a_5 are not used."""
    a, b, u, v, T = sympy.symbols("a b u v T")
    P, Q, R, S, root = surfaces._ansatz_values(a, b, u, v)
    X = T**2 + 10 * u * T + P
    Y = T**3 + Q * T**2 + R * T
    t = v / (5 * b) * T**2 + S
    E = Y**2 - X**3 + 75 * a**2 * X + 625 * b**2 * t**2 + 1250 * b**2 + 250 * a**3
    a0, a1 = sympy.Poly(sympy.expand(sympy.numer(sympy.together(E))), T).all_coeffs()[::-1]
    assert a1 != 0
    assert vanishes(a0 + a1 * root)


def test_mixed_maps_invert_each_other_and_land_on_h():
    """Modulo Y^2 = X^3 - 25 t^4 X^2 - 2500 D^2 t^4, with D, X and t free:
    the forward image of (X, Y) makes H = _mixed_h for F = x^5 + Dx and
    G = x^5 vanish, and the inverse map undoes the forward one."""
    D, X, Y, t, U, V = sympy.symbols("D X Y t U V")
    curve = Y**2 - (X**3 - 25 * t**4 * X**2 - 2500 * D**2 * t**4)

    def vanishes_on_e(expr) -> bool:
        num = sympy.expand(sympy.numer(sympy.together(expr)))
        return sympy.rem(num, curve, Y) == 0

    image = dict(zip((U, V), surfaces._mixed_forward(D, X, Y, t)))
    H = surfaces._mixed_h(0, 0, D, 0, 0, 0, U, V, t)
    assert vanishes_on_e(H.subs(image))
    X_back, Y_back = surfaces._mixed_inverse(D, U, V, t)
    assert vanishes_on_e(X_back.subs(image) - X)
    assert vanishes_on_e(Y_back.subs(image) - Y)


def test_consani_scholten_display_with_sympy_i():
    """The printed Consani-Scholten lines through (i, 0), with the U
    numerator's +tu, and the four printed coordinates, i = sympy.I."""
    i = sympy.I
    t, u = sympy.symbols("t u")
    cs = surfaces.CONSANI_SCHOLTEN
    U, V = surfaces._conic_lines(cs.b20_at(t), cs.b02_at(t), t, (i, 0), u)
    den = u**2 - t * u + t**2 - t + 1
    assert vanishes(U - (-i * u**2 + t * u + i * (t**2 - t + 1)) / den)
    assert vanishes(V - (1 + i) * (t - (1 + i) * u) / den)
    den2 = 2 * (t - (1 + i) * u)
    printed = (
        (1 + i) * (u**2 - (2 - i) * t * u - i * t**2 + t - 1) / den2,
        (1 + i) * (-(u**2) - i * t * u + t**2 - t + 1) / den2,
        (1 + i) * (i * u**2 - (2 + i) * t * u + t**2 - i * t + i) / den2,
        (1 - i) * (u**2 - t * u + t**2 - t + 1) / den2,
    )
    for got, shown in zip(surfaces._uv_coords(t, U, V), printed):
        assert vanishes(got - shown)


def test_c29_display():
    """The printed lines of slope w through (3, 8) on the c1 = 29 conic at
    t = 1, and the four printed coordinates."""
    coeffs = surfaces.SymmetricQuinticCoeffs(1, 1, 1, 1, 1, 1, 1, 1, 1, 29)
    w = sympy.symbols("w")
    U, V = surfaces._conic_lines(coeffs.b20_at(1), coeffs.b02_at(1), 1, (3, 8), w)
    den = 32 * w**2 - 32 * w + 11
    assert vanishes(U - (160 * w**2 - 144 * w + 33) / den)
    assert vanishes(V - 8 * (32 * w**2 - 24 * w + 5) / den)
    den2 = 8 * (32 * w**2 - 24 * w + 5)
    printed = (
        96 * w**2 - 48 * w + 7, 160 * w**2 - 144 * w + 33,
        224 * w**2 - 160 * w + 29, 32 * w**2 - 32 * w + 11,
    )
    for got, shown in zip(surfaces._uv_coords(1, U, V), printed):
        assert vanishes(got - shown / den2)


def test_example1_display():
    """Theorem 2 at a = -1 through the base point that the witness box
    yields, against the printed (p, q, r, s)(u, v); and the display lies on
    V_f for f = X^5 - X^3 + cX."""
    u, v, c = sympy.symbols("u v c")
    coords = surfaces.thm2_parametrize(-1)(u, v)
    den = 5 * (u**2 + 2 * v**2 + 3)
    printed = (
        2 * (2 * u**2 + (2 * v + 3) * u + 2 * v**2 - 9 * v - 3),
        u**2 - 4 * (2 * v + 3) * u - 2 * v**2 - 6 * v + 3,
        3 * (u**2 - 2 * v**2 - 6 * v + 3),
        2 * (u**2 - (2 * v + 3) * u + 4 * v**2 - 3 * (v + 2)),
    )
    for got, shown in zip(coords, printed):
        assert vanishes(got - shown / den)
    assert vanishes(quintic_residual(-1, 0, c, *(shown / den for shown in printed)))
