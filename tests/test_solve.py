"""Tests for root finding, the critical constants, the piecewise bound, and
the angle-equation critique."""

import math
import random

import numpy as np
import pytest

from eur import core, solve
from eur.errors import BracketError, ConvergenceError, DomainError, EurError, SingularValueError

LN2 = math.log(2.0)

# mpmath, 50 dps
CSTAR = 0.8335565596009647
CDAGGER = 0.6109737705648677
H1_REF = {
    0.75: 0.6830575877093680,
    0.80: 0.6364221790841765,
    0.82: 0.6026321023464310,
}
H1_ROOT_REF = {
    0.75: 0.5842158917203524,
    0.80: 0.7236067977499790,
    0.82: 0.8052197713785939,
}


def e1_grid(c: float, n: int) -> np.ndarray:
    """Vectorized stationarity function on an n-point open grid (test-side)."""
    iv = core.admissible_interval(c)
    p = iv.lo + np.arange(1, n) * (iv.width / n)
    q = (np.sqrt((1.0 - c * c) * (1.0 - p)) + c * np.sqrt(p)) ** 2
    vals = np.sqrt(q * (1.0 - q)) * np.log(q / (1.0 - q)) - np.sqrt(p * (1.0 - p)) * np.log(
        p / (1.0 - p)
    )
    return vals[np.isfinite(vals)]


def sign_changes(vals: np.ndarray) -> int:
    s = np.sign(vals)
    s = s[s != 0]
    return int(np.sum(s[1:] * s[:-1] < 0))


class TestFindRoot:
    def test_sqrt_two(self):
        rr = solve.find_root(lambda x: x * x - 2.0, 1.0, 2.0, abs_tol=1e-12)
        assert abs(rr.root - math.sqrt(2.0)) <= 1e-12
        assert rr.iterations > 0
        assert rr.residual <= 1e-10

    def test_identity(self):
        rr = solve.find_root(lambda x: x, -1.0, 1.0)
        assert abs(rr.root) <= 1e-13

    def test_orientation_agnostic(self):
        rr = solve.find_root(lambda x: 2.0 - x * x, 1.0, 2.0)  # f(lo) > 0 > f(hi)
        assert abs(rr.root - math.sqrt(2.0)) <= 1e-12

    def test_endpoint_zero(self):
        rr = solve.find_root(lambda x: x - 1.0, 1.0, 2.0)
        assert rr.root == 1.0 and rr.iterations == 0

    def test_transcendental(self):
        rr = solve.find_root(lambda x: math.cos(x) - x, 0.0, 1.0)
        assert abs(math.cos(rr.root) - rr.root) <= 1e-14

    def test_bracket_error(self):
        with pytest.raises(BracketError):
            solve.find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_convergence_error(self, monkeypatch):
        monkeypatch.setattr(solve, "_MAX_ITER", 2)
        message = r"no convergence within 2 iterations on \[1.0, 2.0\]"
        with pytest.raises(ConvergenceError, match=message):
            solve.find_root(lambda x: x * x - 2.0, 1.0, 2.0, abs_tol=1e-15)


class TestConstants:
    def test_c_star(self):
        rr = solve.c_star()
        assert 0.8330 <= rr.root <= 0.8345
        assert abs(rr.root - CSTAR) <= 2e-15
        assert abs(rr.root * math.log((1.0 + rr.root) / (1.0 - rr.root)) - 2.0) <= 1e-12
        assert abs(rr.root * math.atanh(rr.root) - 1.0) <= 1e-12

    def test_c_star_equation_is_its_written_form(self):
        # -K_max / 2 equals c ln((1+c)/(1-c)) - 2 bit for bit
        cs = [k / 1000 for k in range(1, 1000)] + [10.0**-k for k in range(1, 320)] + [CSTAR]
        written = [c * math.log((1.0 + c) / (1.0 - c)) - 2.0 for c in cs]
        assert [solve._c_star_equation(c) for c in cs] == written

    def test_c_star_memoized(self):
        assert solve.c_star() is solve.c_star()

    def test_c_dagger(self):
        rr = solve.c_dagger()
        assert 0.60 <= rr.root <= 0.62
        assert abs(rr.root - CDAGGER) <= 2e-15
        assert abs(core.f_bound(rr.root) - core.b_mu(rr.root)) <= 1e-10

    def test_symmetric_value_exceeds_mu_above_c_dagger(self):
        assert core.f_bound(0.65) > core.b_mu(0.65)
        assert core.f_bound(0.55) < core.b_mu(0.55)


class TestClassifyRegion:
    @pytest.mark.parametrize(
        "c,tag",
        [
            (0.3, solve.RegionTag.MU),
            (0.5, solve.RegionTag.MU),
            (0.8, solve.RegionTag.H1),
            (0.99, solve.RegionTag.F),
            (1.0, solve.RegionTag.F),
        ],
    )
    def test_regions(self, c, tag):
        assert solve.classify_region(c).tag is tag

    def test_boundary_ties(self):
        assert solve.classify_region(core.INV_SQRT2).tag is solve.RegionTag.H1
        assert solve.classify_region(solve.c_star().root).tag is solve.RegionTag.F

    def test_domain(self):
        with pytest.raises(DomainError):
            solve.classify_region(0.0)

    def test_mu_overlap_does_not_solve_c_star(self, monkeypatch):
        def boom():
            raise AssertionError("c_star solved for an MU overlap")

        monkeypatch.setattr(solve, "c_star", boom)
        assert solve.b_vs(0.5).region.tag is solve.RegionTag.MU


class TestH1Bound:
    @pytest.mark.parametrize("c", sorted(H1_REF))
    def test_reference_values(self, c):
        assert solve.h1_bound(c) == pytest.approx(H1_REF[c], abs=1e-12)
        pa, pb = solve.h1_witness(c)
        assert pa == pytest.approx(H1_ROOT_REF[c], abs=1e-10)
        assert abs(core.e_function(pa, c)) <= 1e-10
        assert pb == pytest.approx(core.p_b_of_p_a(pa, c), abs=1e-14)

    def test_left_edge(self):
        assert solve.h1_bound(core.INV_SQRT2) == pytest.approx(LN2, abs=1e-12)

    def test_right_edge(self):
        cs = solve.c_star().root
        assert solve.h1_bound(cs) == pytest.approx(core.f_bound(cs), abs=1e-12)

    def test_between_mu_and_g(self):
        for c in (0.72, 0.75, 0.8, 0.82, 0.83):
            h1 = solve.h1_bound(c)
            assert core.b_mu(c) < h1 < core.g_bound(c)

    def test_mirrored_value_agreement(self):
        for c in (0.73, 0.78, 0.81, 0.83):
            pa, pb = solve.h1_witness(c)
            direct = core.binary_entropy(pa) + core.binary_entropy(pb)
            mirrored = core.binary_entropy(pb) + core.binary_entropy(core.p_b_of_p_a(pb, c))
            assert abs(direct - mirrored) <= 1e-10

    @pytest.mark.parametrize("c", [0.73, 0.75, 0.81])
    def test_mirrored_value_check_is_live(self, monkeypatch, c):
        """H(P_B) is shared by the value and its mirror; the mirror's own
        P_B(P_B) still feeds the check, so a mirror off by 1e-6 is caught."""
        p_b, calls = solve._p_b, []

        def off_on_mirror(p, c):
            calls.append(p)
            return p_b(p, c) + (1e-6 if len(calls) == 2 else 0.0)

        witness = solve.h1_witness(c)
        monkeypatch.setattr(solve, "_p_b", off_on_mirror)
        with pytest.raises(ConvergenceError, match=f"mirrored stationary values disagree at c = {c}: "):
            solve.h1_bound(c)
        assert calls == [witness[0], witness[1]]

    @pytest.mark.parametrize("c", [0.70, 0.84, 0.2])
    def test_domain(self, c):
        with pytest.raises(DomainError):
            solve.h1_bound(c)


def reference_find_root(f, lo, hi, abs_tol=1e-13, max_iter=200):
    """solve.find_root as it was before its checks and its Brent loop were
    split into find_root and solve._brent: one function that evaluates both
    bracket ends itself.  Kept as the reference for the H1 solve."""
    a, b = float(lo), float(hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return solve.RootResult(a, (lo, hi), 0.0, 0)
    if fb == 0.0:
        return solve.RootResult(b, (lo, hi), 0.0, 0)
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketError(f"f({lo}) = {fa} and f({hi}) = {fb} have the same sign")

    c_, fc = a, fa
    d = e = b - a
    eps = math.ulp(1.0)
    for it in range(1, max_iter + 1):
        if math.copysign(1.0, fb) == math.copysign(1.0, fc):
            c_, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c_ = b, c_, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * eps * abs(b) + 0.5 * abs_tol
        m = 0.5 * (c_ - b)
        if abs(m) <= tol or fb == 0.0:
            return solve.RootResult(b, (lo, hi), abs(fb), it)
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c_:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    raise ConvergenceError(f"no convergence within {max_iter} iterations on [{lo}, {hi}]")


def _h1_reference(c):
    """_h1_solution with every E_1 evaluation, bracket ends and iterates, through
    the checked core.e_function, the root from reference_find_root, which
    evaluates both ends a second time, and the witness through the public
    functions.  Returns the value, the witness and the Brent iteration count
    (None when a degenerate case answers without a solve)."""
    iv = core.admissible_interval(c)
    mid = 0.5 * (1.0 + c)
    delta = solve.BRACKET_INSET * (mid - iv.lo)
    a, b = iv.lo + delta, mid - delta
    if core.e_function(a, c) >= 0.0:
        return core.binary_entropy(iv.lo), (iv.lo, 1.0), None
    if core.e_function(b, c) <= 0.0:
        return core.f_bound(c), (mid, mid), None
    rr = reference_find_root(lambda p: core.e_function(p, c), a, b)
    pb = core.p_b_of_p_a(rr.root, c)
    return core.binary_entropy(rr.root) + core.binary_entropy(pb), (rr.root, pb), rr.iterations


def _outcome(fn, *args):
    """fn(*args), or the type and message of the EurError it raises."""
    try:
        return fn(*args)
    except EurError as exc:
        return type(exc), str(exc)


def separate_curves(p_a, c):
    """N, K - 4 and E_1 at p_a as three separate formulas, each through the
    checked p_b_of_p_a and its own square roots and log ratios."""
    p_b = core.p_b_of_p_a(p_a, c)
    n = (
        2.0 * math.sqrt(p_b * (1.0 - p_b)) * math.log(p_b / (1.0 - p_b))
        - (1.0 - 2.0 * p_b) / math.sqrt(p_b * (1.0 - p_b))
        - 2.0 * math.sqrt(p_a * (1.0 - p_a)) * math.log(p_a / (1.0 - p_a))
        + (1.0 - 2.0 * p_a) / math.sqrt(p_a * (1.0 - p_a))
    )
    k = (1.0 - 2.0 * p_b) * math.log(p_b / (1.0 - p_b)) + (1.0 - 2.0 * p_a) * math.log(
        p_a / (1.0 - p_a)
    )
    e1 = math.sqrt(p_b * (1.0 - p_b)) * math.log(p_b / (1.0 - p_b)) - math.sqrt(
        p_a * (1.0 - p_a)
    ) * math.log(p_a / (1.0 - p_a))
    return n, k, e1


class TestUncheckedKernel:
    """The H1 root solve evaluates only the unchecked kernels: E_1 bound to c
    by core._e_kernel (bracket ends and iterates) and core._p_b (the witness
    and its mirror).  It hands the bracket end values to solve._brent, so
    each end is evaluated once.  Results must be bit-identical to checking
    every evaluation and evaluating both ends again."""

    @staticmethod
    def overlaps():
        lo, cs = core.INV_SQRT2, solve.c_star().root
        edges = [x for e in (lo, cs) for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0))]
        return [lo + (cs - lo) * k / 2000 for k in range(2000)] + edges

    def test_h1_solution_matches_checked_solve(self, monkeypatch):
        """Value, witness and Brent iteration count are == to the reference,
        and E_1 runs once per bracket end and once per Brent iterate."""
        runs = []  # (iterations, E_1 evaluations) of each Brent solve
        evals = [0]
        kernel, brent = core._e_kernel, solve._brent

        def counting_kernel(c, m=1):
            e = kernel(c, m)

            def counted(p_a):
                evals[0] += 1
                return e(p_a)

            return counted

        def recording_brent(*args):
            rr = brent(*args)
            runs.append(rr.iterations)
            return rr

        cs = self.overlaps()  # solves c_star before the Brent kernel is recorded
        assert len(cs) >= 2006
        monkeypatch.setattr(solve, "_e_kernel", counting_kernel)
        monkeypatch.setattr(solve, "_brent", recording_brent)
        got, e_counts = [], []
        for c in cs:
            evals[0] = 0
            value, witness = solve._h1_solution(c)
            iterations = runs.pop() if runs else None
            got.append((value, witness, iterations))
            # both ends, then one iterate per Brent iteration but the last
            e_counts.append((evals[0], 2 if iterations is None else iterations + 1))
        assert got == [_h1_reference(c) for c in cs]
        assert sum(it is not None for _, _, it in got) >= 1999  # all but the degenerate ends
        assert all(n == expected for n, expected in e_counts)

    def test_e_kernel_matches_e_function(self):
        """The per-overlap kernel returns what e_function returns, or raises
        the same error, for m = 1, 2, 3."""
        for c in self.overlaps():
            iv = core.admissible_interval(c)
            points = [iv.lo + t * iv.width for t in (1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6)]
            for m in (1, 2, 3):
                e = core._e_kernel(c, m)
                for p in points:
                    assert _outcome(e, p) == _outcome(core.e_function, p, c, m)

    @pytest.mark.parametrize("c", [0.3, 0.6, core.INV_SQRT2, 0.75, 0.8, 0.9, 0.99])
    def test_helpers_match_public_functions(self, c):
        iv = core.admissible_interval(c)
        e = core._e_kernel(c)
        for t in (1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-6):
            p = iv.lo + t * iv.width
            n, k, e1 = separate_curves(p, c)
            assert core._p_b(p, c) == core.p_b_of_p_a(p, c)
            assert e(p) == core.e_function(p, c) == e1
            assert core.n_function(p, c) == n
            assert core.k_function(p, c) == k + 4.0

    def test_shared_terms_equal_separate_formulas(self):
        """N, K - 4 and E_1 from one evaluation of their shared terms are ==
        to the three formulas evaluated separately, at 200 points of each of
        40 overlaps from 0.01 to 0.99 and at 1/sqrt(2) and c_star."""
        cs = [0.01 + 0.98 * j / 39 for j in range(40)] + [core.INV_SQRT2, solve.c_star().root]
        for c in cs:
            iv = core.admissible_interval(c)
            ps = [iv.lo + iv.width * i / 201 for i in range(1, 201)]
            expected = [separate_curves(p, c) for p in ps]
            assert core._curves(ps, c) == tuple(list(column) for column in zip(*expected))

    def test_singular_messages(self):
        """Where P_B rounds to 1 at an interior P_A, n_function raises N's
        message, and k_function and e_function that of the log ratio of the
        B side."""
        for c in (1.0 - 1e-6, 1.0 - 1e-9, 0.9999999999995):
            iv = core.admissible_interval(c)
            p = iv.lo
            while not (iv.strict_interior(p) and core.p_b_of_p_a(p, c) == 1.0):
                p = math.nextafter(p, 1.0)
            assert p - iv.lo < 1e-3 * iv.width
            n_message = r"^n_function undefined at probability 0 or 1$"
            with pytest.raises(SingularValueError, match=n_message):
                core.n_function(p, c)
            with pytest.raises(SingularValueError, match=r"^nonpositive log argument: 1\.0/0\.0$"):
                core.k_function(p, c)
            with pytest.raises(SingularValueError, match=r"^nonpositive log argument: 1\.0/0\.0$"):
                core.e_function(p, c)
            with pytest.raises(SingularValueError, match=r"^n_function undefined"):
                core._curves([0.5 * (1.0 + c), p], c)


class TestBVs:
    def test_mu_region(self):
        rep = solve.b_vs(0.5)
        assert rep.nats == pytest.approx(2 * LN2, abs=1e-15)
        assert rep.region.tag is solve.RegionTag.MU
        assert rep.witness is None

    def test_f_region(self):
        rep = solve.b_vs(0.9)
        assert rep.nats == pytest.approx(0.3970304866917451, abs=1e-14)
        assert rep.region.tag is solve.RegionTag.F
        assert rep.witness == (pytest.approx(0.95), pytest.approx(0.95))

    def test_h1_region_witness(self):
        rep = solve.b_vs(0.8)
        assert rep.region.tag is solve.RegionTag.H1
        pa, pb = rep.witness
        assert core.m1_objective(pa, 0.8) == pytest.approx(rep.nats, abs=1e-12)
        assert pb == pytest.approx(core.p_b_of_p_a(pa, 0.8), abs=1e-14)

    def test_trivial_overlap(self):
        assert solve.b_vs(1.0).nats == 0.0

    def test_improves_on_mu_bound(self):
        cs = solve.c_star().root
        for k in range(1, 1000):
            c = core.INV_SQRT2 + k * (1.0 - core.INV_SQRT2) / 1000.0
            margin = solve.b_vs(c).nats - core.b_mu(c)
            if abs(c - core.INV_SQRT2) < 1e-12 or c > 1.0 - 1e-12:
                continue
            assert margin > 0.0, f"no improvement at c = {c}"
        # equality only at the region edge and at c = 1
        assert solve.b_vs(core.INV_SQRT2).nats == pytest.approx(
            core.b_mu(core.INV_SQRT2), abs=1e-12
        )

    def test_branch_continuity(self):
        cs = solve.c_star().root
        assert abs(solve.h1_bound(core.INV_SQRT2 + 1e-6) - LN2) <= 1e-3
        assert abs(solve.h1_bound(cs - 1e-6) - core.f_bound(cs)) <= 1e-3


class TestShapeInvariants:
    @pytest.mark.parametrize(
        "c,count",
        [
            (0.3, 1),
            (0.5, 1),
            (0.65, 1),
            (0.75, 3),
            (0.8, 3),
            (0.82, 3),
            (0.85, 1),
            (0.9, 1),
            (0.99, 1),
        ],
    )
    def test_e1_sign_change_count(self, c, count):
        assert sign_changes(e1_grid(c, 100_000)) == count

    @pytest.mark.parametrize("c", [0.3, 0.5, 0.75, 0.82])
    def test_symmetric_point_is_maximum_below_c_star(self, c):
        mid = 0.5 * (1.0 + c)
        v0 = core.m1_objective(mid, c)
        assert core.m1_objective(mid - 1e-4, c) < v0
        assert core.m1_objective(mid + 1e-4, c) < v0

    @pytest.mark.parametrize("c", [0.85, 0.9, 0.99])
    def test_symmetric_point_is_minimum_above_c_star(self, c):
        mid = 0.5 * (1.0 + c)
        v0 = core.m1_objective(mid, c)
        assert core.m1_objective(mid - 1e-4, c) > v0
        assert core.m1_objective(mid + 1e-4, c) > v0

    def test_delta_f_increasing_and_negative(self):
        cs = solve.c_star().root
        prev = None
        for k in range(1, 1000):
            c = cs + k * (1.0 - cs) / 1000.0
            delta = core.b_mu(c) - core.f_bound(c)
            assert delta < 0.0
            if prev is not None:
                assert delta > prev
            prev = delta
        assert core.b_mu(1.0) - core.f_bound(1.0) == 0.0

    def test_delta_m_inf_decreasing_and_positive(self):
        lo, hi = 1e-6, core.INV_SQRT2 - 1e-6
        prev = None
        for k in range(1000):
            c = lo + k * (hi - lo) / 999.0
            delta = core.b_mu(c) - core.m_inf(c)
            assert delta > 0.0
            if prev is not None:
                assert delta < prev
            prev = delta

    def test_g_dominates_h1_and_f(self):
        cs = solve.c_star().root
        for k in range(1, 100):
            c = core.INV_SQRT2 + k * (cs - core.INV_SQRT2) / 100.0
            assert core.g_bound(c) > solve.h1_bound(c)
        for k in range(1, 100):
            c = cs + k * (1.0 - cs) / 101.0
            assert core.g_bound(c) > core.f_bound(c)

    def test_lattice_dominates_b_vs(self):
        for k in range(101):
            c = core.INV_SQRT2 + k * (1.0 - core.INV_SQRT2) / 100.0
            assert core.lattice_bound(c) >= solve.b_vs(c).nats - 1e-12


class TestKktAtStationaryPoints:
    @pytest.mark.parametrize("c", [0.73, 0.78, 0.81, 0.83])
    def test_multiplier_sides_agree(self, c):
        pa, pb = solve.h1_witness(c)
        assert abs(core.kkt_multiplier(pa) - core.kkt_multiplier(pb)) <= 1e-10


class TestEqsinResidual:
    def test_excluded_points(self):
        theta = math.acos(0.6)
        with pytest.raises(DomainError):
            solve.eqsin_residual(theta / 2.0, theta)
        with pytest.raises(DomainError):
            solve.eqsin_residual(theta / 2.0 + math.pi / 4.0, theta)

    def test_conjugate_angle_zero_nearby(self):
        # at theta = pi/2 the value vanishes along alpha -> pi/4 (which is the
        # excluded point theta/2 itself, so probe next to it)
        val = solve.eqsin_residual(math.pi / 4.0 + 1e-8, math.pi / 2.0)
        assert abs(val) <= 1e-6

    def test_singular_points(self):
        # a nonpositive log argument in either term: cos 2a = 1 at alpha = 0,
        # sin(a - t) = 0 at alpha = theta
        theta = math.acos(0.6)
        for alpha in (0.0, theta):
            message = f"^nonpositive log argument at alpha = {alpha!r}$"
            with pytest.raises(SingularValueError, match=message):
                solve.eqsin_residual(alpha, theta)

    # 1e308 is finite, but 2 * 1e308 is not
    @pytest.mark.parametrize(
        "alpha,theta",
        [(0.3, math.inf), (math.inf, 0.5), (1e308, 0.5), (math.nan, 0.5), (0.3, math.nan)],
    )
    def test_non_finite_angles(self, alpha, theta):
        with pytest.raises(DomainError, match="out of range"):
            solve.eqsin_residual(alpha, theta)


def reference_eqsin_roots(theta):
    """The eqsin_roots scan with every sample through the checked
    eqsin_residual, which rejects the identical-zero points itself."""
    lo, hi = -0.25 * math.pi, 0.5 * math.pi
    excl = (0.5 * theta, 0.5 * theta + 0.25 * math.pi)
    roots, prev = [], None
    for k in range(1, int((hi - lo) / solve._SCAN_STEP) + 1):
        x = lo + k * solve._SCAN_STEP
        if x >= hi:
            break
        if min(abs(x - e) for e in excl) <= 1e-6:
            prev = None
            continue
        try:
            v = solve.eqsin_residual(x, theta)
        except DomainError:
            prev = None
            continue
        if v == 0.0:
            roots.append(x)
            prev = None
            continue
        if prev is not None and math.copysign(1.0, prev[1]) != math.copysign(1.0, v):
            try:
                rr = solve.find_root(
                    lambda a: solve.eqsin_residual(a, theta), prev[0], x, abs_tol=1e-12
                )
            except DomainError:
                pass
            else:
                roots.append(rr.root)
        prev = (x, v)
    deduped = []
    for r in sorted(r for r in roots if min(abs(r - e) for e in excl) > 1e-6):
        if not deduped or r - deduped[-1] >= solve._SCAN_STEP:
            deduped.append(r)
    return deduped


# where the extra roots are born (ROADMAP item 6), and an overlap whose
# angle rounds to within 1e-15 of pi/2
_BIRTH_OVERLAPS = [
    0.5524341245247490,
    0.5524341245247495,
    0.55243412452475,
    0.552434125,
    0.55243413,
]
_ORDER_OVERLAPS = _BIRTH_OVERLAPS + [1e-15, 1e-8, 0.3, 0.6, 0.7071067811865466]


class TestEqsinRoots:
    # near 0 and pi/2, overlaps on both sides of 1/sqrt(2), at the tiny
    # overlaps whose root near -c/2 is lost and across (0, 1/sqrt(2)), every
    # pi/32 and every pi/128 in between, two angles that put a scan point on
    # theta/2 and on theta/2 + pi/4, and the birth region of the extra roots
    @pytest.mark.parametrize(
        "theta",
        [1e-9, 1e-6, 1e-3, 0.5 * math.pi - 1e-3, 0.5 * math.pi - 1e-6]
        + [math.nextafter(0.5 * math.pi, 0.0)]
        + [math.acos(c) for c in (0.1, 0.3, 0.5, 0.6, 0.7, 0.7071, 0.8, 0.99)]
        + [math.acos(c) for c in (1e-8, 1e-12, 1e-15, 0.7071067811865466)]
        + [
            math.acos(c)
            for c in (1e-4, 0.05, 0.15, 0.2, 0.25, 0.35, 0.4, 0.45, 0.55, 0.65, 0.68, 0.69, 0.705)
        ]
        + [k * math.pi / 32 for k in range(1, 16)]
        + [k * math.pi / 128 for k in range(1, 64) if k % 4]
        + [2.0 * (-0.25 * math.pi + 10_000 * 1e-4), 2.0 * (-0.5 * math.pi + 20_000 * 1e-4)]
        + [math.acos(c) for c in _BIRTH_OVERLAPS],
    )
    def test_equals_checked_scan(self, theta):
        assert solve.eqsin_roots(theta) == reference_eqsin_roots(theta)

    def test_call_order_and_table_rebuild(self):
        """The roots do not depend on the order of the calls, nor on whether
        the table of the theta-free term was built by an earlier call."""
        thetas = [math.acos(c) for c in _ORDER_OVERLAPS]
        expected = {t: reference_eqsin_roots(t) for t in thetas}
        for seed in (1, 2):
            shuffled = list(thetas)
            random.Random(seed).shuffle(shuffled)
            solve._alpha_terms.cache_clear()
            assert {t: solve.eqsin_roots(t) for t in shuffled} == expected
        solve._alpha_terms.cache_clear()
        assert {t: solve.eqsin_roots(t) for t in reversed(thetas)} == expected

    def test_alpha_table(self):
        """One entry per scan angle, each the theta-free term of the
        residual there, or nan where that term is singular."""
        table = solve._alpha_terms()
        assert table is solve._alpha_terms()
        lo = -0.25 * math.pi
        angles = [lo + k * solve._SCAN_STEP for k in range(1, len(table) + 2)]
        assert angles[-2] < 0.5 * math.pi <= angles[-1]
        # no scan angle is singular: the closest to 0 is 1.8e-6
        assert list(table) == [solve._eqsin_alpha_term(x) for x in angles[:-1]]
        theta = math.acos(0.6)
        for k in (1, 5000, 12_345, len(table)):
            x = angles[k - 1]
            residual = solve.eqsin_residual(x, theta)
            assert table[k - 1] + solve._eqsin_theta_term(x, theta) == residual

    def test_singular_alpha_term_is_skipped(self, monkeypatch):
        """A scan angle where the theta-free term is singular (nan) is a nan
        in the table and is skipped like the checked scan skips it: here the
        one just above the root near -0.5536 at c = 0.6, which loses that
        root."""
        theta = math.acos(0.6)
        k = math.ceil((-0.5535743588970451 + 0.25 * math.pi) / solve._SCAN_STEP)
        singular = -0.25 * math.pi + k * solve._SCAN_STEP
        alpha_term = solve._eqsin_alpha_term

        def singular_at(alpha):
            return math.nan if alpha == singular else alpha_term(alpha)

        monkeypatch.setattr(solve, "_eqsin_alpha_term", singular_at)
        solve._alpha_terms.cache_clear()
        try:
            assert math.isnan(solve._alpha_terms()[k - 1])
            roots = solve.eqsin_roots(theta)
            assert roots == reference_eqsin_roots(theta)
            assert len(roots) == 4 and roots[0] > -0.4
        finally:
            solve._alpha_terms.cache_clear()

    def test_window_spans_one_and_a_half_periods(self):
        """The residual has period pi/2 in alpha, so the roots that the
        window (-pi/4, pi/2) finds above pi/4 are the translates of those in
        (-pi/4, 0).  At c = 0.6 two of the five are."""
        theta = math.acos(0.6)
        for a in (-0.7, -0.5, -0.3, -0.1, 0.1, 0.2):
            assert solve.eqsin_residual(a + 0.5 * math.pi, theta) == pytest.approx(
                solve.eqsin_residual(a, theta), rel=1e-12, abs=1e-14
            )
        roots = solve.eqsin_roots(theta)
        expected = [-0.553574, -0.321751, -0.089927, 1.017222, 1.48087]
        assert roots == pytest.approx(expected, abs=1e-5)
        lower = [r for r in roots if r < 0.0]
        for r in roots[3:]:
            assert min(abs(r - 0.5 * math.pi - r0) for r0 in lower) <= 1e-12

    @pytest.mark.parametrize("c", [0.3, 0.5, 0.6])
    def test_roots_contract(self, c):
        theta = math.acos(c)
        roots = solve.eqsin_roots(theta)
        assert len(roots) >= 1
        excl = (theta / 2.0, theta / 2.0 + math.pi / 4.0)
        for r in roots:
            assert abs(solve.eqsin_residual(r, theta)) <= 1e-10
            assert min(abs(r - e) for e in excl) > 1e-6
        for a, b in zip(roots, roots[1:]):
            assert b - a >= 1e-4

    def test_nontrivial_root_exists(self):
        theta = math.acos(0.6)
        roots = solve.eqsin_roots(theta)
        assert any(
            abs(math.cos(r) ** 2 - math.cos(theta - r) ** 2) > 1e-6 for r in roots
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            solve.eqsin_roots(0.0)
        with pytest.raises(DomainError):
            solve.eqsin_roots(math.pi)


class TestCritiqueReport:
    @pytest.mark.parametrize("c", [0.3, 0.5, 0.6])
    def test_all_roots_inadmissible(self, c):
        rep = solve.critique_report(c)
        assert len(rep.roots) >= 1
        assert rep.inadmissible_count == len(rep.roots)
        for root in rep.roots:
            assert not root.admissible
            assert root.violated_constraint in (
                "multiplicity_range",
                "admissible_interval",
                "overlap_identity",
            )
            assert root.residual <= 1e-10

    def test_mapped_probabilities(self):
        rep = solve.critique_report(0.6)
        for root in rep.roots:
            assert root.p_a == pytest.approx(math.cos(root.alpha) ** 2, abs=1e-14)
            assert root.p_b == pytest.approx(math.cos(rep.theta - root.alpha) ** 2, abs=1e-14)

    def test_refines_through_find_root(self, monkeypatch):
        """The critique refines its crossings through the module-level
        solve.find_root; the benchmark's trace divides by the count of those
        calls."""
        calls = [0]
        find_root = solve.find_root

        def counting(*args, **kwargs):
            calls[0] += 1
            return find_root(*args, **kwargs)

        monkeypatch.setattr(solve, "find_root", counting)
        rep = solve.critique_report(0.6)
        assert calls[0] >= len(rep.roots) >= 1

    def test_interval_matches_core(self):
        rep = solve.critique_report(0.5)
        iv = core.admissible_interval(0.5)
        assert rep.interval == (iv.lo, iv.hi)

    @pytest.mark.parametrize("c", [0.75, core.INV_SQRT2, 1.0, 0.0])
    def test_domain(self, c):
        with pytest.raises(DomainError):
            solve.critique_report(c)
