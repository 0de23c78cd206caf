import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quinticpoints.exact import factor
from quinticpoints.quadform import (
    BaseNotOnConic,
    DiagonalForm,
    NotNormalized,
    TernarySolution,
    ZeroCoefficient,
    find_zero,
    normalize,
    parametrize_conic,
    question3_family,
    represents_zero,
    ternary_base_solution,
    ternary_solvable,
)

from oracle import agreement_sweep, congruence_sweep, local_oracle


class TestNormalize:
    def test_already_normalized(self):
        n = normalize(1, 2, 3, -5)
        assert n.form.coeffs() == (1, 2, 3, -5)
        assert n.back_scalings == (1, 1, 1, 1)

    def test_square_extraction(self):
        n = normalize(4, 2, 3, -5)
        assert n.form.coeffs() == (1, 2, 3, -5)
        assert n.back_scalings[0] == Fraction(1, 2)

    def test_question3_shape(self):
        g1 = 3
        n = normalize(1, 2, 3, -5 * (5 * g1) ** 2)
        assert n.form.coeffs() == (1, 2, 3, -5)
        assert n.back_scalings[3] == Fraction(1, 5 * g1)

    def test_three_common_factor(self):
        n = normalize(3, 6, 15, 7)
        assert n.form.is_normalized()
        # solvability-preserving: witnesses pull back to the original form
        w = find_zero(n.form, 30)
        if w:
            pulled = n.pull_back_witness(w)
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
        n = normalize(*coeffs)
        assert n.form.is_normalized()
        assert n.form.factors == tuple(factor(a) for a in n.form.coeffs())
        # a_i X_i^2 with X_i = back_i Y_i is c * n_i Y_i^2, one c for all slots
        ratios = {a * b * b / m for a, b, m in zip(coeffs, n.back_scalings, n.form.coeffs())}
        assert len(ratios) == 1


class TestRepresentsZero:
    def test_example1_form(self):
        report = represents_zero(DiagonalForm(1, 2, 3, -5))
        assert report.solvable
        # witness (0,1,1,1) from the worked example
        assert DiagonalForm(1, 2, 3, -5).value((0, 1, 1, 1)) == 0

    def test_all_positive(self):
        report = represents_zero(DiagonalForm(1, 2, 3, 10))
        assert not report.signs_ok and not report.solvable

    def test_two_adic_failure(self):
        report = represents_zero(DiagonalForm(1, 2, 3, -10))
        assert report.signs_ok
        assert report.two_adic_applies and not report.two_adic_ok
        assert not report.solvable

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            represents_zero(DiagonalForm(4, 2, 3, -5))
        with pytest.raises(NotNormalized):
            local_oracle(DiagonalForm(3, 6, 15, 7))

    def test_odd_prime_condition_applies(self):
        # p = 7 divides two coefficients of (1, 3, 7, -7): d = -147,
        # d/49 = -3, (-3|7) = 1 so the condition binds; (-1*3|7) = (-3|7)=1
        report = represents_zero(DiagonalForm(1, 3, 7, -7))
        conditions = {c.p: c for c in report.odd_primes}
        assert 7 in conditions

    @given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 80))
    @settings(max_examples=60, deadline=None)
    def test_square_scaling_invariance(self, k, seed):
        import random

        rng = random.Random(seed)
        base = [rng.choice([-1, 1]) * rng.randint(1, 20) for _ in range(4)]
        if all(b > 0 for b in base) or all(b < 0 for b in base):
            base[0] = -base[0]
        n1 = normalize(*base)
        scaled = list(base)
        scaled[seed % 4] *= k * k
        n2 = normalize(*scaled)
        assert (
            represents_zero(n1.form).solvable == represents_zero(n2.form).solvable
        )


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
                assert represents_zero(form).solvable

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


def _find_zero_reference(form, bound):
    """O(bound^3): every (x1, x2, x3) of the box, x4 solved with math.isqrt,
    the first primitive zero by max-norm, then 0, 1, -1, 2, -2, ... per slot."""
    a1, a2, a3, a4 = form.coeffs()
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
            decided = represents_zero(normalize(1, 2, 3, 5 * a).form).solvable
            assert ternary_solvable(a) == decided, a

    def test_abstract_congruence_alone_admits_minus_eight(self):
        # -a = 8 avoids 2, 18, 34 mod 48, but 8 = 4 * 2 is excluded
        assert 8 % 48 not in (2, 18, 34)
        assert not ternary_solvable(-8)

    def test_base_solution(self):
        base = ternary_base_solution(-1)
        assert base == TernarySolution(0, 1, 1)
        assert base.ternary_value() == 5


class TestParametrizeConic:
    def test_example1_displayed_functions(self):
        cp = parametrize_conic(-1, TernarySolution(0, 1, 1))
        from quinticpoints.poly import MultiPoly, RationalFunction

        u, v = MultiPoly.variables("u v")
        den = u * u + 2 * v * v + 3
        assert cp.x == RationalFunction(-2 * u * (2 * v + 3), den)
        assert cp.y == RationalFunction(u * u - 2 * v * v - 6 * v + 3, den)
        assert cp.z == RationalFunction(u * u + 2 * v * v - 4 * v - 3, den)

    def test_origin_evaluation(self):
        cp = parametrize_conic(-1, TernarySolution(0, 1, 1))
        sol = _conic_point(cp, 0, 0)
        assert sol == TernarySolution(0, 1, -1)
        assert sol.ternary_value() == 5

    def test_base_not_on_conic(self):
        with pytest.raises(BaseNotOnConic):
            parametrize_conic(-1, TernarySolution(1, 1, 1))

    @given(
        st.fractions(min_value=-15, max_value=15, max_denominator=5),
        st.fractions(min_value=-15, max_value=15, max_denominator=5),
    )
    @settings(max_examples=80)
    def test_parametrization_stays_on_conic(self, u, v):
        cp = parametrize_conic(-1, TernarySolution(0, 1, 1))
        assert _conic_point(cp, u, v).ternary_value() == 5


def _conic_point(cp, u, v) -> TernarySolution:
    """The parametrization's point at (u, v)."""
    at = {"u": u, "v": v}
    return TernarySolution(cp.x.eval(at), cp.y.eval(at), cp.z.eval(at))


class TestQuestion3:
    def test_n1(self):
        a1, sols = question3_family(1)
        assert a1 == -225
        assert [int(c) for c in sols[0].coords()] == [25, 10, -10]
        # 625 + 200 + 300 = 1125 = -5 a_1
        assert 625 + 2 * 100 + 3 * 100 == 1125 == -5 * a1

    def test_n3_distinct_divisible(self):
        a3, sols = question3_family(3)
        assert len({s.coords() for s in sols}) == 3
        for s in sols:
            assert all(int(c) % 5 == 0 for c in s.coords())
            assert s.ternary_value() == -5 * a3

    @pytest.mark.parametrize("n", range(1, 9))
    def test_invariant_125_g_squared(self, n):
        g = math.prod(k * k + 2 for k in range(1, n + 1))
        a_n, sols = question3_family(n)
        assert a_n == -25 * g * g
        for s in sols:
            assert s.ternary_value() == 125 * g * g


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
