import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from quinticpoints import quadform
from quinticpoints.exact import CertificateError, factor
from quinticpoints.poly import MultiPoly, RationalFunction
from quinticpoints.quadform import (
    DiagonalForm,
    NotNormalized,
    ZeroCoefficient,
    find_zero,
    normalize,
    pull_back_witness,
    question3_family,
    represents_zero,
    ternary_base_solution,
    ternary_solvable,
)
from quinticpoints.surfaces import _conic_sweep

from oracle import agreement_sweep, congruence_sweep, local_oracle


def _ternary(x, y, z):
    return x * x + 2 * y * y + 3 * z * z


EXAMPLE1_BASE = (Fraction(0), Fraction(1), Fraction(1))  # on x^2+2y^2+3z^2 = 5


class TestNormalize:
    def test_already_normalized(self):
        form, back = normalize(1, 2, 3, -5)
        assert form == (1, 2, 3, -5)
        assert back == (1, 1, 1, 1)

    def test_square_extraction(self):
        form, back = normalize(4, 2, 3, -5)
        assert form == (1, 2, 3, -5)
        assert back[0] == Fraction(1, 2)

    def test_question3_shape(self):
        g1 = 3
        form, back = normalize(1, 2, 3, -5 * (5 * g1) ** 2)
        assert form == (1, 2, 3, -5)
        assert back[3] == Fraction(1, 5 * g1)

    def test_three_common_factor(self):
        form, back = normalize(3, 6, 15, 7)
        assert form.is_normalized()
        # solvability-preserving: witnesses pull back to the original form
        w = find_zero(form, 30)
        if w:
            pulled = pull_back_witness(back, w)
            assert sum(a * x * x for a, x in zip((3, 6, 15, 7), pulled)) == 0

    def test_zero_rejected(self):
        with pytest.raises(ZeroCoefficient):
            normalize(1, 0, 3, 4)
        with pytest.raises(ZeroCoefficient):
            DiagonalForm(0, 1, 1, 1)

    @given(
        st.lists(
            st.builds(
                lambda a, p, e: a * p**e,
                st.integers(-40, 40).filter(bool),
                st.sampled_from([3, 10007, 1000003, 10**20 + 39]),
                st.integers(0, 3),
            ),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_invariants_hold_after(self, coeffs):
        form, back = normalize(*coeffs)
        assert form.is_normalized()
        assert form.factors == tuple(factor(a) for a in form)
        # a_i X_i^2 with X_i = back_i Y_i is c * n_i Y_i^2, one c for all slots
        ratios = {a * b * b / m for a, b, m in zip(coeffs, back, form)}
        assert len(ratios) == 1


class TestRepresentsZero:
    def test_example1_form(self):
        solvable, _ = represents_zero(DiagonalForm(1, 2, 3, -5))
        assert solvable
        # witness (0,1,1,1) from the worked example
        assert DiagonalForm(1, 2, 3, -5).value((0, 1, 1, 1)) == 0

    def test_all_positive(self):
        solvable, conditions = represents_zero(DiagonalForm(1, 2, 3, 10))
        assert not conditions["signs"] and not solvable

    def test_two_adic_failure(self):
        solvable, conditions = represents_zero(DiagonalForm(1, 2, 3, -10))
        assert conditions["signs"]
        assert conditions["two_adic"] == {"applies": True, "ok": False}
        assert not solvable

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            represents_zero(DiagonalForm(4, 2, 3, -5))
        with pytest.raises(NotNormalized):
            local_oracle(DiagonalForm(3, 6, 15, 7))

    def test_odd_prime_condition_applies(self):
        # p = 7 divides two coefficients of (1, 3, 7, -7): d = -147,
        # d/49 = -3, (-3|7) = 1 so the condition binds; (-1*3|7) = (-3|7)=1
        _, conditions = represents_zero(DiagonalForm(1, 3, 7, -7))
        assert conditions["odd_primes"] == [{"p": 7, "applies": True, "ok": True}]

    @given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 80))
    @settings(max_examples=60, deadline=None)
    def test_square_scaling_invariance(self, k, seed):
        import random

        rng = random.Random(seed)
        base = [rng.choice([-1, 1]) * rng.randint(1, 20) for _ in range(4)]
        if all(b > 0 for b in base) or all(b < 0 for b in base):
            base[0] = -base[0]
        form1, _ = normalize(*base)
        scaled = list(base)
        scaled[seed % 4] *= k * k
        form2, _ = normalize(*scaled)
        assert represents_zero(form1)[0] == represents_zero(form2)[0]


def _mod8_sum_of_three_squares_oracle(target):
    """Brute residue check used for the (1,1,1,-7) style examples."""
    residues = {(x * x + y * y + z * z) % 8 for x in range(8) for y in range(8) for z in range(8) if x % 2 or y % 2 or z % 2}
    return target % 8 in residues


class TestLocalOracle:
    def test_example1(self):
        assert local_oracle(DiagonalForm(1, 2, 3, -5))

    def test_seven_not_sum_of_three_squares(self):
        # 7 * (odd)^2 = 7 (mod 8) is never x^2+y^2+z^2 mod 8 primitively
        assert not _mod8_sum_of_three_squares_oracle(7)
        assert not local_oracle(DiagonalForm(1, 1, 1, -7))

    def test_definite(self):
        assert not local_oracle(DiagonalForm(1, 1, 1, 1))

    def test_two_adic_block(self):
        assert not local_oracle(DiagonalForm(1, 2, 3, -10))


_COEFF = st.integers(-40, 40).filter(bool)


@st.composite
def _half_zero_forms(draw):
    """c*p^2 and -c*q^2 side by side, so one half holds the zero (q, p)."""
    c = draw(st.integers(-5, 5).filter(bool))
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pair, other = [c * p * p, -c * q * q], draw(st.lists(_COEFF, min_size=2, max_size=2))
    coeffs = pair + other if draw(st.booleans()) else other + pair
    return "half", tuple(coeffs), draw(st.integers(max(p, q), 15))


@st.composite
def _deep_zero_forms(draw):
    """a4 = -(a1*x1^2 + a2*x2^2 + a3*x3^2), so (x1, x2, x3, 1) is a zero."""
    a = draw(st.lists(_COEFF, min_size=3, max_size=3))
    x = draw(st.lists(st.integers(0, 15), min_size=3, max_size=3))
    a4 = -sum(ai * xi * xi for ai, xi in zip(a, x))
    assume(a4 != 0)
    return "deep", (*a, a4), draw(st.integers(max(x), 15))


@st.composite
def _zero_free_forms(draw):
    """Forms with no rational zero at all: definite, or locally unsolvable."""
    coeffs = draw(st.lists(_COEFF, min_size=4, max_size=4))
    assume(not represents_zero(normalize(*coeffs)[0])[0])
    return "none", tuple(coeffs), draw(st.integers(0, 15))


class TestFindZero:
    def test_example1_witness(self):
        assert find_zero(DiagonalForm(1, 2, 3, -5), 2) == (0, 1, 1, 1)

    def test_definite_no_witness(self):
        assert find_zero(DiagonalForm(1, 1, 1, 1), 6) is None

    def test_unsolvable_no_witness(self):
        assert find_zero(DiagonalForm(1, 2, 3, -10), 100) is None

    def test_witness_soundness(self):
        for coeffs in [(1, 2, 3, -5), (1, 3, 7, -7), (1, 1, -1, -1), (2, 3, -5, 30)]:
            form = DiagonalForm(*coeffs)
            w = find_zero(form, 12)
            if w is not None:
                assert form.value(w) == 0
                assert math.gcd(*w) == 1
                assert represents_zero(form)[0]

    def test_deterministic(self):
        form = DiagonalForm(1, 1, -1, -1)
        assert find_zero(form, 5) == find_zero(form, 5)

    @given(
        st.lists(st.integers(-40, 40).filter(bool), min_size=4, max_size=4),
        st.sampled_from([0, 1, 3, 8]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_triple_loop(self, coeffs, bound):
        form = DiagonalForm(*coeffs)
        witness = find_zero(form, bound)
        assert witness == _find_zero_reference(form, bound)
        if bound == 0:
            assert witness is None

    def test_no_wraparound(self):
        # 9 * 2049638230412172402 = 2^64 + 2: in int64, (0, 3, 1, 1) looked like a zero
        form = DiagonalForm(1, 2049638230412172402, 1, -3)
        assert form.value((0, 3, 1, 1)) == 2**64
        assert find_zero(form, 3) is None

    @given(st.one_of(_half_zero_forms(), _deep_zero_forms(), _zero_free_forms()))
    @example(("half", (1, -1, 1, -1), 15))
    @example(("half", (1, -4, -2, -3), 15))
    @example(("half", (1, 1, 1, -4), 2))
    @example(("none", (1, 1, 1, -7), 15))
    @settings(max_examples=120, deadline=None)
    def test_matches_triple_loop_by_kind(self, drawn):
        """Each kind of form the shell walk treats apart: a first zero with
        one pair (0, 0), matched against the seed 0; a first zero past
        shell 1; and a box with no zero, searched in full."""
        kind, coeffs, bound = drawn
        form = DiagonalForm(*coeffs)
        expected = _find_zero_reference(form, bound)
        if kind == "half":
            assume(expected is not None and 0 in (max(expected[:2]), max(expected[2:])))
        elif kind == "deep":
            assume(expected is not None and max(expected) > 1)
        else:
            assert expected is None
        event(kind)
        assert find_zero(form, bound) == expected

    def test_stops_at_the_first_shell(self):
        # searched in full, the 400-box takes about 25 MB; shell 1 holds the zero
        tracemalloc.start()
        try:
            witness = find_zero(DiagonalForm(1, 2, 3, -5), 400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert witness == (0, 1, 1, 1)
        assert peak < 200_000

    def test_zero_pull_back_is_a_certificate_error(self, monkeypatch):
        # a primitive witness pulls back to a nonzero vector, so only the
        # not-any(zero) clause of certified_zero sees this
        monkeypatch.setattr(quadform, "pull_back_witness", lambda back, witness: (0, 0, 0, 0))
        with pytest.raises(CertificateError, match="pulled-back witness"):
            quadform.certified_zero(1, 2, 3, -5, 2)


def _find_zero_reference(form, bound):
    """O(bound^3): every (x1, x2, x3) of the box, x4 solved with math.isqrt,
    the first primitive zero by max-norm, then 0, 1, -1, 2, -2, ... per slot."""
    a1, a2, a3, a4 = form
    box = range(-bound, bound + 1)
    hits = []
    for x1 in box:
        for x2 in box:
            for x3 in box:
                q, r = divmod(-(a1 * x1 * x1 + a2 * x2 * x2 + a3 * x3 * x3), a4)
                t = math.isqrt(q) if q >= 0 else -1
                if r or t < 0 or t * t != q or t > bound:
                    continue
                hits.extend((x1, x2, x3, x4) for x4 in {t, -t} if math.gcd(x1, x2, x3, x4) == 1)
    if not hits:
        return None
    return min(hits, key=lambda w: (max(map(abs, w)),) + tuple((abs(v), v < 0) for v in w))


class TestTernary:
    def test_minus_one_solvable(self):
        assert ternary_solvable(-1)

    def test_positive_unsolvable(self):
        assert not ternary_solvable(1)

    def test_minus_two_unsolvable(self):
        assert not ternary_solvable(-2)

    def test_dickson_criterion(self):
        # Theorem 2: the closed form (a < 0 and -a is not 4^k (16m + 2),
        # Dickson's criterion at n = -5a) agrees with the decision procedure
        assert not ternary_solvable(0)
        for a in range(-5000, 0):
            decided, _ = represents_zero(normalize(1, 2, 3, 5 * a)[0])
            assert ternary_solvable(a) == decided, a

    def test_abstract_congruence_alone_admits_minus_eight(self):
        # -a = 8 avoids 2, 18, 34 mod 48, but 8 = 4 * 2 is excluded
        assert 8 % 48 not in (2, 18, 34)
        assert not ternary_solvable(-8)

    def test_base_solution(self):
        base = ternary_base_solution(-1)
        assert base == EXAMPLE1_BASE
        assert all(type(c) is Fraction for c in base)
        assert _ternary(*base) == 5


class TestParametrizeConic:
    """The lines through a base point, surfaces._conic_sweep, on the conic
    of Example 1 (a = -1)."""

    def test_example1_displayed_functions(self):
        u, v = MultiPoly.variables("u v")
        x, y, z = _conic_sweep(EXAMPLE1_BASE, u, v)
        den = u * u + 2 * v * v + 3
        assert x == RationalFunction(-2 * u * (2 * v + 3), den)
        assert y == RationalFunction(u * u - 2 * v * v - 6 * v + 3, den)
        assert z == RationalFunction(u * u + 2 * v * v - 4 * v - 3, den)

    def test_origin_evaluation(self):
        sol = _conic_sweep(EXAMPLE1_BASE, Fraction(0), Fraction(0))
        assert sol == (0, 1, -1)
        assert _ternary(*sol) == 5

    def test_base_not_on_conic(self, monkeypatch):
        # neither is a zero of (1, 2, 3, -5): the pull-back of (1, 1, 1, 1) is
        # off the conic, and that of (1, 0, 0, 0) has x4 = 0
        for witness in ((1, 1, 1, 1), (1, 0, 0, 0)):
            monkeypatch.setattr(quadform, "find_zero", lambda form, bound: witness)
            with pytest.raises(CertificateError):
                ternary_base_solution(-1)

    @given(
        st.fractions(min_value=-15, max_value=15, max_denominator=5),
        st.fractions(min_value=-15, max_value=15, max_denominator=5),
    )
    @settings(max_examples=80)
    def test_parametrization_stays_on_conic(self, u, v):
        sol = _conic_sweep(EXAMPLE1_BASE, u, v)
        assert all(type(c) is Fraction for c in sol)
        assert _ternary(*sol) == 5


class TestQuestion3:
    def test_n1(self):
        a1, sols = question3_family(1)
        assert a1 == -225
        assert sols[0] == (25, 10, -10)
        # 625 + 200 + 300 = 1125 = -5 a_1
        assert 625 + 2 * 100 + 3 * 100 == 1125 == -5 * a1

    def test_n3_distinct_divisible(self):
        a3, sols = question3_family(3)
        assert len(set(sols)) == 3
        for s in sols:
            assert all(c % 5 == 0 for c in s)
            assert _ternary(*s) == -5 * a3

    @pytest.mark.parametrize("n", range(1, 9))
    def test_invariant_125_g_squared(self, n):
        g = math.prod(k * k + 2 for k in range(1, n + 1))
        a_n, sols = question3_family(n)
        assert a_n == -25 * g * g
        for s in sols:
            assert _ternary(*s) == 125 * g * g


class TestSweeps:
    def test_agreement_small(self):
        result = agreement_sweep(10)
        assert result["disagreements"] == []
        assert result["forms"] > 500

    def test_congruence_sweep_structure(self):
        r = congruence_sweep(-60, -1)
        assert r["oracle_disagreements"] == []
        assert r["insolvable_minus_a"] == [2, 8, 18, 32, 34, 50]
        assert r["abstract_classes_fully_insolvable"]
        assert not r["matches_abstract_residues"]
