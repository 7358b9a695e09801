"""Unit and property tests for the closed-form bound functions.

Frozen reference values were computed independently with mpmath at 50
significant digits (see the inline expressions next to each constant).
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eur import core
from eur.errors import DomainError, SingularValueError

LN2 = math.log(2.0)

# mpmath, 50 dps:
H_09 = 0.3250829733914482  # -0.9 ln 0.9 - 0.1 ln 0.1
H_098 = 0.0980391132797320  # -0.98 ln 0.98 - 0.02 ln 0.02
F_INV_SQRT2 = 0.8329910613993749  # 2 h((1 + 1/sqrt2)/2)
F_09 = 0.3970304866917451
G_09 = 0.4862229646617923  # h(0.81)
G_08 = 0.6534181947937018  # h(0.64)
MINF_05 = 0.9389225472284164
MINF_06 = 0.7911862938396773  # = ln 2 + h(0.98)
E1_LIM_06 = 0.5448548417354877  # (1-2c^2) ln((sqrt(1-c^2)+c)/(sqrt(1-c^2)-c)), c=0.6
E1_LIM_09 = -0.5688403039922690  # -c sqrt(1-c^2) ln(c^2/(1-c^2)), c=0.9
KKT_075 = 0.9514261508963460  # 2 sqrt(3/16) ln 3
KEND_05 = 1.7189620110971610  # -s ln((1+s)/(1-s)) + 4, s = sqrt(3)/2
PB_07_C08 = 0.9959272667157606


def overlaps(min_value=1e-6, max_value=1.0):
    return st.floats(min_value=min_value, max_value=max_value, exclude_min=False)


def interior_points():
    """(c, p_a) with p_a at a safely interior relative position."""
    return st.tuples(
        st.floats(min_value=0.05, max_value=0.99),
        st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
    )


def _interior(c, t):
    iv = core.admissible_interval(c)
    return iv.lo + t * iv.width


class TestBinaryEntropy:
    def test_values(self):
        assert core.binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)
        assert core.binary_entropy(1.0) == 0.0
        assert core.binary_entropy(0.0) == 0.0
        assert core.binary_entropy(0.9) == pytest.approx(H_09, abs=1e-15)

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            core.binary_entropy(p)

    @given(st.floats(min_value=0.5, max_value=1.0))
    def test_symmetry_exact(self, p):
        # 1 - p is exact for p >= 0.5, and every complement pair has such a member
        assert core.binary_entropy(p) == core.binary_entropy(1.0 - p)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry_up_to_complement_rounding(self, p):
        assert core.binary_entropy(p) == pytest.approx(core.binary_entropy(1.0 - p), abs=2e-15)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range(self, p):
        h = core.binary_entropy(p)
        assert 0.0 <= h <= LN2 + 1e-15


class TestMultiplicity:
    @pytest.mark.parametrize(
        "p,m", [(1.0, 1), (0.5, 2), (0.6, 1), (1.0 / 3.0, 3), (0.25, 4), (0.26, 3)]
    )
    def test_examples(self, p, m):
        assert core.multiplicity_of(p) == m

    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5, 5e-324])  # 1/5e-324 overflows
    def test_domain(self, p):
        with pytest.raises(DomainError):
            core.multiplicity_of(p)

    @given(st.floats(min_value=1e-6, max_value=1.0))
    def test_defining_inequality(self, p):
        m = core.multiplicity_of(p)
        # 1/(m+1) < p <= 1/m, up to one ulp of slack at representation edges
        assert p * (m + 1) > 1.0
        assert p * m <= 1.0 + 4 * math.ulp(1.0)


class TestHMin:
    def test_values(self):
        assert core.h_min(1.0) == 0.0
        assert core.h_min(0.5) == pytest.approx(LN2, abs=1e-15)
        assert core.h_min(1.0 / 3.0) == pytest.approx(math.log(3.0), abs=1e-14)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_continuity_at_reciprocals(self, m):
        # the vanishing remainder contributes m*eps*ln(1/(m*eps)) ~ 1e-8 at eps = 1e-10
        p = 1.0 / m
        left = core.h_min(p - 1e-10)
        right = core.h_min(p + 1e-10)
        assert abs(left - right) <= 1e-7
        assert core.h_min(p) == pytest.approx(math.log(m), abs=1e-12)

    def test_one_sided_continuity_at_one(self):
        # p = 1 is the domain edge; the approach is x ln x slow
        assert core.h_min(1.0 - 1e-10) <= 1e-8

    @pytest.mark.parametrize("p", [0.0, 1e-310])  # 1/1e-310 overflows
    def test_domain(self, p):
        with pytest.raises(DomainError):
            core.h_min(p)

    @given(st.floats(min_value=0.5, max_value=1.0))
    def test_equals_binary_entropy_above_half(self, p):
        assert core.h_min(p) == pytest.approx(core.binary_entropy(p), abs=1e-14)

    @given(overlaps())
    def test_matches_g_bound(self, c):
        # g_bound is h_min evaluated at the boundary pair's second probability
        assert core.g_bound(c) == pytest.approx(core.h_min(c * c), abs=1e-13)


class TestBMu:
    def test_values(self):
        assert core.b_mu(1.0) == 0.0
        assert core.b_mu(core.INV_SQRT2) == pytest.approx(LN2, abs=1e-14)
        assert core.b_mu(0.5) == pytest.approx(2 * LN2, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            core.b_mu(0.0)
        with pytest.raises(DomainError):
            core.b_mu(1.2)


class TestFBound:
    def test_values(self):
        assert core.f_bound(1.0) == 0.0
        assert core.f_bound(core.INV_SQRT2) == pytest.approx(F_INV_SQRT2, abs=1e-14)
        assert core.f_bound(0.9) == pytest.approx(F_09, abs=1e-14)

    @given(overlaps())
    def test_twice_binary_entropy(self, c):
        assert core.f_bound(c) == pytest.approx(
            2.0 * core.binary_entropy(0.5 * (1.0 + c)), abs=1e-14
        )


class TestGBound:
    def test_values(self):
        assert core.g_bound(1.0) == 0.0
        assert core.g_bound(0.9) == pytest.approx(G_09, abs=1e-14)
        assert core.g_bound(0.8) == pytest.approx(G_08, abs=1e-14)
        assert core.g_bound(core.INV_SQRT2) == pytest.approx(LN2, abs=1e-12)


class TestLatticeBound:
    @pytest.mark.parametrize(
        "c,val",
        [
            (1.0, 0.0),
            (0.8, math.log(2.0)),
            (0.5, math.log(4.0)),
            (core.INV_SQRT2, math.log(2.0)),
            (0.55, math.log(4.0)),  # 1/2 <= 0.55 < 1/sqrt(3)
        ],
    )
    def test_values(self, c, val):
        assert core.lattice_bound(c) == pytest.approx(val, abs=1e-12)

    @pytest.mark.parametrize("c", [0.0, 1.5, 1e-170, 1e-160])  # c*c underflows / 1/c^2 overflows
    def test_domain(self, c):
        with pytest.raises(DomainError):
            core.lattice_bound(c)


class TestPbOfPa:
    def test_endpoints_and_fixed_point(self):
        for c in (0.3, 0.6, 0.8, 0.95):
            assert core.p_b_of_p_a(1.0, c) == pytest.approx(c * c, abs=1e-15)
            mid = 0.5 * (1.0 + c)
            assert core.p_b_of_p_a(mid, c) == pytest.approx(mid, abs=1e-15)
        assert core.p_b_of_p_a(0.7, 0.8) == pytest.approx(PB_07_C08, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            core.p_b_of_p_a(0.5, 0.8)  # below c^2
        with pytest.raises(DomainError):
            core.p_b_of_p_a(1.1, 0.8)

    @given(interior_points())
    @settings(max_examples=200)
    def test_overlap_round_trip(self, cp):
        c, t = cp
        p = _interior(c, t)
        q = core.p_b_of_p_a(p, c)
        assert abs(core.eqc_overlap(p, q) - c) <= 1e-12

    @given(interior_points())
    @settings(max_examples=200)
    def test_involution(self, cp):
        c, t = cp
        p = _interior(c, t)
        assert abs(core.p_b_of_p_a(core.p_b_of_p_a(p, c), c) - p) <= 1e-12

    def test_endpoint_duality(self):
        # regular endpoints (c < 1/sqrt2): linear-rate convergence
        for c in (0.3, 0.5, 0.65):
            iv = core.admissible_interval(c)
            assert abs(core.p_b_of_p_a(iv.lo + 1e-10, c) - iv.hi) <= 1e-8
            assert abs(core.p_b_of_p_a(iv.hi - 1e-10, c) - iv.lo) <= 1e-8
        # singular upper endpoint (c >= 1/sqrt2): sqrt-rate toward lo
        for c in (0.8, 0.9):
            iv = core.admissible_interval(c)
            assert abs(core.p_b_of_p_a(iv.lo + 1e-10, c) - iv.hi) <= 1e-8
            assert abs(core.p_b_of_p_a(iv.hi - 1e-10, c) - iv.lo) <= 3e-5


class TestAdmissibleInterval:
    def test_branches(self):
        iv = core.admissible_interval(0.6)
        assert iv.lo == 0.5
        assert iv.hi == pytest.approx(0.98, abs=1e-15)
        iv = core.admissible_interval(0.9)
        assert (iv.lo, iv.hi) == (pytest.approx(0.81, abs=1e-15), 1.0)

    def test_boundary_agreement(self):
        # both branch formulas coincide at the crossover
        c = core.INV_SQRT2
        iv = core.admissible_interval(c)
        first_branch_hi = (c + math.sqrt(1.0 - c * c)) ** 2 / 2.0
        assert abs(iv.lo - 0.5) <= 1e-15
        assert iv.hi == 1.0
        assert abs(first_branch_hi - 1.0) <= 1e-12

    @given(overlaps(max_value=1.0 - 1e-9))
    def test_invariants(self, c):
        iv = core.admissible_interval(c)
        assert iv.lo < iv.hi <= 1.0
        assert iv.lo >= 0.5 - 1e-15
        assert iv.lo >= c * c - 1e-15
        assert iv.contains(0.5 * (1.0 + c), tol=1e-12)

    def test_degenerate_at_one(self):
        iv = core.admissible_interval(1.0)
        assert (iv.lo, iv.hi) == (1.0, 1.0)


class TestM1Objective:
    def test_symmetric_point_equals_f(self):
        for c in (0.1, 0.3, 0.5, core.INV_SQRT2, 0.8, 0.9, 0.99):
            mid = 0.5 * (1.0 + c)
            assert abs(core.m1_objective(mid, c) - core.f_bound(c)) <= 1e-14

    def test_endpoint_limit(self):
        # approaching P_A = 1/2 at c = 0.6 the sum tends to ln 2 + h(0.98)
        val = core.m1_objective(0.5 + 1e-9, 0.6)
        assert val == pytest.approx(LN2 + H_098, abs=1e-6)
        assert MINF_06 == pytest.approx(LN2 + H_098, abs=1e-15)

    @given(interior_points())
    @settings(max_examples=100)
    def test_swap_symmetry(self, cp):
        c, t = cp
        p = _interior(c, t)
        q = core.p_b_of_p_a(p, c)
        assert core.m1_objective(p, c) == pytest.approx(core.m1_objective(q, c), abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            core.m1_objective(0.4, 0.6)


class TestEFunction:
    def test_zero_at_symmetric_point(self):
        for c in (0.3, 0.6, 0.8, 0.95):
            assert abs(core.e_function(0.5 * (1.0 + c), c)) <= 1e-13

    def test_limit_small_c(self):
        assert core.e_limit_lo(0.6) == pytest.approx(E1_LIM_06, abs=1e-14)
        assert core.e_limit_hi(0.6) == pytest.approx(-E1_LIM_06, abs=1e-14)
        # raw evaluation just inside agrees with the closed form
        assert core.e_function(0.5 + 1e-7, 0.6) == pytest.approx(E1_LIM_06, abs=1e-4)

    def test_limit_large_c(self):
        assert core.e_limit_lo(0.9) == pytest.approx(E1_LIM_09, abs=1e-14)
        assert core.e_function(0.81 + 1e-7, 0.9) == pytest.approx(E1_LIM_09, abs=1e-4)

    @given(interior_points())
    @settings(max_examples=200)
    def test_antisymmetry(self, cp):
        c, t = cp
        p = _interior(c, t)
        q = core.p_b_of_p_a(p, c)
        assert abs(core.e_function(q, c) + core.e_function(p, c)) <= 1e-10

    def test_endpoint_guard(self):
        iv = core.admissible_interval(0.8)
        with pytest.raises(DomainError):
            core.e_function(iv.lo + 1e-12 * iv.width, 0.8)

    def test_higher_multiplicity_singular(self):
        # m = 2 makes 1 - m P_B negative everywhere on the admissible range
        with pytest.raises(SingularValueError):
            core.e_function(0.7, 0.6, m=2)

    def test_bad_multiplicity(self):
        with pytest.raises(DomainError, match="multiplicity must be a positive integer"):
            core.e_function(0.7, 0.6, m=0)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf, 0.5, 1.5])
    def test_non_integral_multiplicity(self, m):
        with pytest.raises(DomainError, match="multiplicity must be a positive integer"):
            core.e_function(0.75, 0.8, m=m)

    def test_integral_multiplicity_accepted(self):
        assert core.e_function(0.75, 0.8, m=1) == core.e_function(0.75, 0.8, m=1.0)


class TestKFunction:
    def test_max_value_identity(self):
        for c in (0.3, 0.5, 0.8, 0.95):
            mid = 0.5 * (1.0 + c)
            assert core.k_function(mid, c) == pytest.approx(core.k_max_value(c), abs=1e-10)

    def test_max_sign(self):
        assert core.k_max_value(0.3) > 0.0  # small overlap: positive peak
        assert core.k_max_value(0.95) < 0.0  # beyond critical: negative everywhere

    def test_negative_everywhere_above_critical(self):
        iv = core.admissible_interval(0.95)
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert core.k_function(iv.lo + t * iv.width, 0.95) < 0.0

    @given(interior_points())
    @settings(max_examples=100)
    def test_swap_symmetry(self, cp):
        c, t = cp
        p = _interior(c, t)
        q = core.p_b_of_p_a(p, c)
        assert abs(core.k_function(p, c) - core.k_function(q, c)) <= 1e-10


class TestKEndpointValue:
    def test_values(self):
        assert core.k_endpoint_value(1e-8) == pytest.approx(4.0, abs=1e-6)
        assert core.k_endpoint_value(0.5) == pytest.approx(KEND_05, abs=1e-13)
        assert core.k_endpoint_value(core.INV_SQRT2 - 1e-12) == -math.inf

    def test_matches_k_function_near_endpoint(self):
        for c in (0.3, 0.5):
            assert core.k_function(0.5 + 1e-7, c) == pytest.approx(
                core.k_endpoint_value(c), abs=1e-4
            )

    @pytest.mark.parametrize("c", [0.0, core.INV_SQRT2, 0.9])
    def test_domain(self, c):
        with pytest.raises(DomainError):
            core.k_endpoint_value(c)


class TestNFunction:
    def test_zero_at_symmetric_point(self):
        for c in (0.3, 0.6, 0.8, 0.95):
            mid = 0.5 * (1.0 + c)
            assert abs(core.n_function(mid, c)) <= 1e-10
            assert core.n_function(mid - 1e-3, c) > 0.0
            assert core.n_function(mid + 1e-3, c) < 0.0

    @pytest.mark.parametrize("c", [0.3, 0.6, 0.8, 0.95])
    def test_strictly_decreasing_sampled(self, c):
        iv = core.admissible_interval(c)
        xs = [iv.lo + k * iv.width / 1000.0 for k in range(1, 1000)]
        vals = [core.n_function(x, c) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestRFunction:
    def test_values(self):
        assert core.r_function(0.5) == 0.0
        assert core.r_function(0.75) < 0.0
        assert core.r_function(0.25) > 0.0

    @given(st.floats(min_value=1e-3, max_value=1.0 - 1e-3))
    def test_antisymmetry(self, x):
        assert core.r_function(x) == pytest.approx(-core.r_function(1.0 - x), abs=1e-10)

    # 5e-324 and 1e-310: (1-2x)/(2x(1-x)) overflows to inf
    @pytest.mark.parametrize("x", [0.0, 1.0, -0.2, 5e-324, 1e-310])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            core.r_function(x)


class TestMInf:
    def test_values(self):
        assert core.m_inf(0.5) == pytest.approx(MINF_05, abs=1e-14)
        assert core.m_inf(0.6) == pytest.approx(MINF_06, abs=1e-14)
        assert core.m_inf(1e-9) == pytest.approx(2 * LN2, abs=1e-7)
        assert core.m_inf(core.INV_SQRT2) == pytest.approx(LN2, abs=1e-15)

    @given(st.floats(min_value=1e-6, max_value=core.INV_SQRT2))
    def test_identity(self, c):
        s = min(2.0 * c * math.sqrt(1.0 - c * c), 1.0)
        assert abs(core.m_inf(c) - (LN2 + core.binary_entropy(0.5 * (1.0 + s)))) <= 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            core.m_inf(0.75)


class TestEqcOverlap:
    def test_values(self):
        assert core.eqc_overlap(1.0, 1.0) == 1.0

    @given(overlaps(min_value=1e-3))
    def test_symmetric_pair(self, c):
        mid = 0.5 * (1.0 + c)
        assert core.eqc_overlap(mid, mid) == pytest.approx(c, abs=1e-14)

    @given(overlaps(min_value=1e-3))
    def test_boundary_pair(self, c):
        assert core.eqc_overlap(1.0, c * c) == pytest.approx(c, abs=1e-15)


class TestIneqCMax:
    @pytest.mark.parametrize("ma,mb,val", [(1, 1, 1.0), (1, 4, 0.5), (2, 2, 0.0), (2, 3, -0.4082482904638631)])
    def test_values(self, ma, mb, val):
        assert core.ineq_c_max(ma, mb) == pytest.approx(val, abs=1e-14)

    def test_corollary(self):
        assert core.ineq_c_max_single(1, 4) == 0.5
        assert core.ineq_c_max_single(2, 1) == pytest.approx(core.INV_SQRT2, abs=1e-15)

    @pytest.mark.parametrize("fn", [core.ineq_c_max, core.ineq_c_max_single], ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "ma,mb", [(0, 1), (1, 0), (math.nan, 1), (1, math.nan), (math.inf, 1), (1, math.inf), (1.5, 1), (1, 2.5)]
    )
    def test_domain(self, fn, ma, mb):
        with pytest.raises(DomainError):
            fn(ma, mb)

    def test_integral_floats_are_accepted(self):
        assert core.ineq_c_max(1.0, 4.0) == core.ineq_c_max(1, 4)
        assert core.ineq_c_max_single(2.0, 1.0) == core.ineq_c_max_single(2, 1)

    @pytest.mark.parametrize("ma,mb", [(1e155, 1e155), (1e308, 1e308), (2.0, 1e308), (10**200, 10**200)])
    def test_overflowing_product(self, ma, mb):
        with pytest.raises(DomainError, match="m_a m_b overflows"):
            core.ineq_c_max(ma, mb)

    def test_largest_finite_product(self):
        assert core.ineq_c_max(1.0, 1e308) == 1e-154


class TestKktMultiplier:
    def test_values(self):
        assert core.kkt_multiplier(0.75) == pytest.approx(KKT_075, abs=1e-14)
        assert 0.0 < core.kkt_multiplier(0.5 + 1e-9) < 1e-7

    @given(overlaps(min_value=1e-3, max_value=1.0 - 1e-9))
    def test_symmetric_point_identity(self, c):
        # rounding of (1+c)/2 perturbs 1-mid by ~ulp/(1-c) relative near c = 1
        mid = 0.5 * (1.0 + c)
        if not 0.5 < mid < 1.0:
            return
        expected = math.sqrt(1.0 - c * c) * math.log((1.0 + c) / (1.0 - c))
        assert core.kkt_multiplier(mid) == pytest.approx(expected, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 1.0, 0.2])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            core.kkt_multiplier(p)


class TestDerivativeConsistency:
    """Central finite differences against the exact slope relations."""

    CS = (0.3, 0.5, 0.75, 0.9)
    TS = (0.2, 0.35, 0.6, 0.8)
    STEP = 1e-6

    @staticmethod
    def _fd(f, x, h):
        return (f(x + h) - f(x - h)) / (2.0 * h)

    @pytest.mark.parametrize("c", CS)
    def test_objective_slope_is_e_over_weight(self, c):
        for t in self.TS:
            p = _interior(c, t)
            fd = self._fd(lambda x: core.m1_objective(x, c), p, self.STEP)
            ref = core.e_function(p, c) / math.sqrt(p * (1.0 - p))
            assert fd == pytest.approx(ref, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("c", CS)
    def test_e_slope_is_minus_k_over_weight(self, c):
        for t in self.TS:
            p = _interior(c, t)
            fd = self._fd(lambda x: core.e_function(x, c), p, self.STEP)
            ref = -core.k_function(p, c) / (2.0 * math.sqrt(p * (1.0 - p)))
            assert fd == pytest.approx(ref, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("c", CS)
    def test_k_slope_is_n_over_weight(self, c):
        for t in self.TS:
            p = _interior(c, t)
            fd = self._fd(lambda x: core.k_function(x, c), p, self.STEP)
            ref = core.n_function(p, c) / math.sqrt(p * (1.0 - p))
            assert fd == pytest.approx(ref, rel=1e-4, abs=1e-6)

    @pytest.mark.parametrize("c", CS)
    def test_sign_agreement(self, c):
        for t in self.TS:
            p = _interior(c, t)
            fd = self._fd(lambda x: core.m1_objective(x, c), p, self.STEP)
            e = core.e_function(p, c)
            if abs(e) > 1e-6:
                assert math.copysign(1.0, fd) == math.copysign(1.0, e)


def test_nats_to_bits():
    assert core.nats_to_bits(LN2) == pytest.approx(1.0, abs=1e-15)
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="entropy must be finite"):
            core.nats_to_bits(x)
    assert core.nats_to_bits(1.2e308) == pytest.approx(1.2e308 / LN2, rel=1e-15)
    for x in (sys.float_info.max, -1.3e308):
        with pytest.raises(DomainError, match="overflows"):
            core.nats_to_bits(x)
