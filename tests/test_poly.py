import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle import TuplePoly

from quinticpoints import poly, surfaces
from quinticpoints.poly import (
    DivisionByZeroPoly,
    MultiPoly,
    NotQuadratic,
    PoleAtPoint,
    RationalFunction,
    as_rational_function,
    discriminant_quadratic,
    substitute_all,
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

    def test_composed_denominator_that_vanishes(self):
        x, y = MultiPoly.variables("x y")
        for call in (
            lambda: RationalFunction(y, x - y).substitute({"x": y}),
            lambda: substitute_all([x, RationalFunction(y, x - y)], {"x": y}),
        ):
            with pytest.raises(DivisionByZeroPoly):
                call()

    def test_shared_binding_denominator_cancels(self):
        # x/y at x = a/(a+1), y = b/(a+1) is a/b: numerator and denominator
        # are composed over the same a+1, which cancels
        x, y, a, b = MultiPoly.variables("x y a b")
        rf = RationalFunction(x, y).substitute({"x": a / (a + 1), "y": b / (a + 1)})
        assert rf.den.degree() == 1
        assert (rf.num, rf.den) == (a, b)

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


# ---------------------------------------------------------------------------
# the packed kernel against the tuple-keyed reference

_fresh = itertools.count()


def _fresh_name():
    """A name this process has not seen: it sorts between "a" and "x", so
    its field is registered mid-test and out of name order."""
    return f"m{next(_fresh)}"


def _names():
    name = st.sampled_from(["a", "b", "x", "y", "z"]) | st.builds(_fresh_name)
    return st.lists(name, min_size=1, max_size=4, unique=True)


def _paired(names, degree=3):
    """The same terms over ``names`` as a (MultiPoly, TuplePoly) pair."""
    exps = st.tuples(*[st.integers(0, degree) for _ in names])
    coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
    return st.dictionaries(exps, coeffs, max_size=4).map(
        lambda t: (MultiPoly(names, t), TuplePoly(names, t))
    )


def _as_tuples(p: MultiPoly) -> TuplePoly:
    return TuplePoly(p.vars, p.terms)


def _assert_matches(new, ref, names):
    assert str(new) == str(ref)
    assert new.vars == ref.vars
    assert new.terms == ref.terms
    assert hash(new) == hash(ref)
    assert new.degree() == ref.degree()
    for v in names:
        assert new.degree(v) == ref.degree(v)
        for k in range(3):
            coeff, ref_coeff = new.coefficient_of(v, k), ref.coefficient_of(v, k)
            assert str(coeff) == str(ref_coeff)
            assert coeff.terms == ref_coeff.terms


class TestTupleReference:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_packed_kernel_matches_the_tuple_reference(self, data):
        names = data.draw(_names())
        p, P = data.draw(_paired(data.draw(st.permutations(names))))
        q, Q = data.draw(_paired(data.draw(st.permutations(names))[: len(names) - 1 or 1]))
        n = data.draw(st.integers(0, 3))
        cases = [
            (p, P), (q, Q), (p + q, P + Q), (p - q, P - Q), (p * q, P * Q),
            (p**n, P**n), (p * Fraction(3, 2), P * Fraction(3, 2)), (p + 2, P + 2),
        ]
        for new, ref in cases:
            _assert_matches(new, ref, names)
        assert (p == q) == (P == Q)
        assert (p * q == q * p) and hash(p * q) == hash(q * p)
        # bind some names to polynomials and quotients over the same pool
        bound = data.draw(st.lists(st.sampled_from(names), unique=True))
        bindings, ref_bindings = {}, {}
        for name in bound:
            (num, NUM), (den, DEN) = data.draw(_paired(names, 2)), data.draw(_paired(names, 1))
            assume(not den.is_zero)
            bindings[name] = RationalFunction(num, den)
            ref_bindings[name] = (NUM, DEN)
        rf = p.substitute(bindings)
        ref_num, ref_den = P.substitute(ref_bindings)
        _assert_matches(rf.num, ref_num, names)
        _assert_matches(rf.den, ref_den, names)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_rational_substitution_matches_the_tuple_quotient(self, data):
        names = data.draw(_names())
        (n, _), (d, _) = data.draw(_paired(names)), data.draw(_paired(names, 2))
        assume(not d.is_zero)
        rf = RationalFunction(n, d)
        n, d = rf.num, rf.den  # a zero numerator goes over 1
        N, D = _as_tuples(n), _as_tuples(d)
        # binding denominators come from a pool of two polynomials and a
        # constant, so names share one, differ, or sit over a scalar
        pool = [data.draw(_paired(names, 1)) for _ in range(2)]
        pool.append((MultiPoly.constant(3), TuplePoly.constant(3)))
        bindings, ref_bindings = {}, {}
        for name in data.draw(st.lists(st.sampled_from(names), unique=True)):
            (num, NUM), (den, DEN) = data.draw(_paired(names, 2)), data.draw(st.sampled_from(pool))
            assume(not den.is_zero)
            bindings[name] = RationalFunction(num, den)
            ref_bindings[name] = (NUM, DEN)
        bindings["never_seen"] = RationalFunction(MultiPoly.constant(1), pool[0][0] + 7)
        (ref_nn, ref_nd), (ref_dn, ref_dd) = N.substitute(ref_bindings), D.substitute(ref_bindings)
        if ref_dn == TuplePoly.constant(0):
            for call in (lambda: rf.substitute(bindings), lambda: substitute_all([rf], bindings)):
                with pytest.raises(DivisionByZeroPoly):
                    call()
            return
        # (nn / nd) / (dn / dd), by cross-multiplication
        ref_num, ref_den = ref_nn * ref_dd, ref_nd * ref_dn
        got = rf.substitute(bindings)
        together = substitute_all([n, rf, d, 5], bindings)
        for new in (got, together[1]):
            assert _as_tuples(new.num) * ref_den == ref_num * _as_tuples(new.den)
        # each expression keeps its own denominator; a polynomial keeps its
        # exact representative
        assert (str(together[1].num), str(together[1].den)) == (str(got.num), str(got.den))
        for new, (ref_n, ref_d) in zip(together[::2], ((ref_nn, ref_nd), (ref_dn, ref_dd))):
            _assert_matches(new.num, ref_n, names)
            _assert_matches(new.den, ref_d, names)
        assert (str(together[3].num), str(together[3].den)) == ("5", "1")

    def test_printing_and_equality_ignore_registry_order(self):
        script = """
import sys
from quinticpoints import poly
from quinticpoints.poly import MultiPoly, RationalFunction
order = sys.argv[1].split()
for name in order:
    MultiPoly.variable(name)
assert list(poly._SHIFT) == order
w, x, y, z = MultiPoly.variables("w x y z")
p = 3 * x**2 * y - w * z + 1
q = (y - x) * (z + 2 * w) - 1
rf = (p * q).substitute({"x": RationalFunction(y - z, w - x), "z": x * x})
for value in (p * q, p + q, p - q, (p - q) ** 2, rf.num, rf.den, q.coefficient_of("z", 1)):
    print(value, value.vars, sorted(value.terms.items()), value.degree(), hash(value))
print(p * q == q * p, (p + q) - q == p, p == q, (p - p).is_zero)
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
        outs = [
            subprocess.run(
                [sys.executable, "-c", script, order], env=env, capture_output=True,
                text=True, check=True, timeout=60,
            ).stdout
            for order in ("w x y z", "z y x w")
        ]
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[-1] == "True True False True"


class TestInputChecks:
    @pytest.mark.parametrize("exps", [(-1,), (1.5,), (True,), (Fraction(1),), ("1",)])
    def test_exponents_must_be_non_negative_ints(self, exps):
        with pytest.raises(ValueError, match="non-negative ints"):
            MultiPoly(("x",), {exps: 1, (0,): 2})

    def test_constants_hash_as_their_scalars(self):
        x = MultiPoly.variable("x")
        for poly_, scalar in (
            (MultiPoly.constant(3), 3), (MultiPoly.zero(), 0), (x - x, 0),
            (MultiPoly.constant(Fraction(1, 2)), Fraction(1, 2)),
            (MultiPoly.constant(Fraction(4, 2)), Fraction(2)),
        ):
            assert poly_ == scalar
            assert hash(poly_) == hash(scalar)
            assert len({poly_, scalar}) == 1

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: MultiPoly.constant(0.1),
            lambda x: x * 0.1,
            lambda x: 0.5 * x,
            lambda x: x + 0.5,
            lambda x: x.eval({"x": 0.1}),
        ],
        ids=["constant", "mul", "rmul", "add", "eval"],
    )
    def test_floats_are_refused(self, call):
        # 0.1 would enter as 3602879701896397/36028797018963968
        with pytest.raises(TypeError, match="never a float"):
            call(MultiPoly.variable("x"))


class TestDegreeGuard:
    LIMIT = 1 << (poly.W - 1)

    def test_power_past_the_field_width(self):
        x = MultiPoly.variable("x")
        with pytest.raises(ValueError, match="packed limit"):
            x ** (2**poly.W)

    def test_product_just_past_the_bound(self):
        x, y = MultiPoly.variables("x y")
        top = x ** (self.LIMIT - 1) + y
        assert top.degree() == self.LIMIT - 1
        for factor in (x, y, x + 1):
            with pytest.raises(ValueError, match="packed limit"):
                top * factor
        with pytest.raises(ValueError, match="packed limit"):
            MultiPoly(("x", "y"), {(self.LIMIT - 1, 1): 1})

    def test_fields_stay_apart_just_under_the_bound(self):
        a, b = MultiPoly.variables("guard_a guard_b")
        assert poly.shift_of("guard_b") == poly.shift_of("guard_a") + poly.W
        k = (self.LIMIT - 1) // 2
        p = (a * b) ** k
        assert p.vars == ("guard_a", "guard_b")
        assert p.terms == {(k, k): 1}
        assert p.degree("guard_a") == p.degree("guard_b") == k
        assert p.coefficient_of("guard_a", k) == b**k


def _tuple_reduce_square(P, var, rhs):
    """Lower var^k, k >= 2, by one var^2 = rhs per pass, on tuple keys."""
    while P.degree(var) >= 2:
        i = P.vars.index(var)
        keep = {e: c for e, c in P.terms.items() if e[i] < 2}
        high = {e[:i] + (e[i] - 2,) + e[i + 1:]: c for e, c in P.terms.items() if e[i] >= 2}
        P = TuplePoly(P.vars, keep) + TuplePoly(P.vars, high) * rhs
    return P


def test_ring_operations_read_no_tuple_view(monkeypatch):
    """The ring operations, substitution and the I^2 = -1 reduction work on
    packed keys alone: with the tuple views patched to raise they still
    run, and the results match the reference."""
    I, w, x, y, z = MultiPoly.variables("I w x y z")
    p = 3 * x**2 * y - I * z + Fraction(1, 2)
    q = (y - x) * (z + 2 * I) - w
    rhs = x * x + 1
    bindings = {"x": RationalFunction(y - z, I + 1), "z": x * x - 3, "w": 2}

    P, Q, RHS = map(_as_tuples, (p, q, rhs))
    rfs = {name: as_rational_function(value) for name, value in bindings.items()}
    tuples = {name: (_as_tuples(rf.num), _as_tuples(rf.den)) for name, rf in rfs.items()}

    def refuse(self):
        raise AssertionError("a ring operation read a tuple view")

    monkeypatch.setattr(MultiPoly, "vars", property(refuse))
    monkeypatch.setattr(MultiPoly, "terms", property(refuse))
    got = [p * q, p + q, p - q, 2 - p, p**3, p * 5]
    rf = p.substitute(bindings)
    quotient = RationalFunction(q, p).substitute(bindings)
    together = substitute_all([p, RationalFunction(q, p)], bindings)
    reduced = [surfaces._reduce_square(p**3, "I", -1), surfaces._reduce_square(p**3, "y", rhs)]
    monkeypatch.undo()

    expected = [P * Q, P + Q, P - Q, -P + 2, P**3, P * 5]
    for new, ref in zip(got, expected):
        assert str(new) == str(ref)
    ref_num, ref_den = P.substitute(tuples)
    assert (str(rf.num), str(rf.den)) == (str(ref_num), str(ref_den))
    assert (str(together[0].num), str(together[0].den)) == (str(ref_num), str(ref_den))
    # (q_num / q_den) / (p_num / p_den), compared by cross-multiplication
    ref_q_num, ref_q_den = Q.substitute(tuples)
    ref_q_num, ref_q_den = ref_q_num * ref_den, ref_q_den * ref_num
    for new in (quotient, together[1]):
        assert _as_tuples(new.num) * ref_q_den == ref_q_num * _as_tuples(new.den)
    minus_one = TuplePoly.constant(-1)
    for new, ref in zip(reduced, (_tuple_reduce_square(P**3, "I", minus_one),
                                  _tuple_reduce_square(P**3, "y", RHS))):
        assert str(new) == str(ref)
