"""Tests for the brute-force verification oracles."""

import math
import random

import numpy as np
import pytest
from mpmath import mp, mpf

from eur import cli, core, oracle, solve
from eur.errors import DomainError, EurError


def reference_random_state_check(dim, samples, seed):
    """The per-sample loop that random_state_check batches: one QR, one state
    draw and one exact bound per sample, keeping the first least margin."""
    rng = np.random.default_rng(seed)
    min_margin, arg_idx, arg_c = math.inf, -1, math.nan
    for idx in range(samples):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        q = q * (d / np.abs(d))
        c = min(float(np.max(np.abs(q))), 1.0)
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = psi / np.linalg.norm(psi)
        p_a = np.abs(psi) ** 2
        p_b = np.abs(q.conj().T @ psi) ** 2
        entropy_sum = float(oracle._entropy_rows(p_a) + oracle._entropy_rows(p_b))
        margin = entropy_sum - oracle.b_vs(c).nats
        if margin < min_margin:
            min_margin, arg_idx, arg_c = margin, idx, c
    return oracle.RandomStateSummary(dim, samples, seed, min_margin, arg_idx, arg_c)


def dense_min(ang_a, h_a, ang_b, h_b, theta):
    """Row-major argmin of the full constrained table, built row by row."""
    best = (math.inf, 0, 0)
    for i, (a, ha) in enumerate(zip(ang_a, h_a)):
        row = [ha + hb if a + b >= theta else math.inf for b, hb in zip(ang_b, h_b)]
        v = min(row)
        if v < best[0]:
            best = (v, i, row.index(v))
    return best


def reference_sign_changes(values):
    s = np.sign(values)
    s = s[s != 0.0]
    return int(np.sum(s[1:] * s[:-1] < 0.0))


def reference_k_minus_4(p_a, c):
    """The two log terms of k_function, without the constant 4, from the
    checked p_b_of_p_a."""
    p_b = core.p_b_of_p_a(p_a, c)
    return (1.0 - 2.0 * p_b) * math.log(p_b / (1.0 - p_b)) + (1.0 - 2.0 * p_a) * math.log(
        p_a / (1.0 - p_a)
    )


def reference_shape_check(c, grid=10_000):
    """The numpy shape_check that the plain-Python one replaces: every sample
    through the checked n_function and e_function, and K - 4 through
    reference_k_minus_4, each with its own P_B, square roots and logs."""
    region = oracle.classify_region(c)
    iv = core.admissible_interval(c)
    lo, w = iv.lo, iv.width
    mid = 0.5 * (1.0 + c)
    xs = lo + np.arange(1, grid) * (w / grid)

    n_vals = np.array([core.n_function(float(x), c) for x in xs])
    negative = np.flatnonzero(n_vals < 0.0)
    n_zero_at = float(xs[negative[0]] if negative.size else xs[-1])

    # K - 4, as shape_check scans it, written out here rather than taken from
    # the scan's shared terms; n_function has checked every sample
    k_vals = np.array([reference_k_minus_4(float(x), c) for x in xs])
    k_diffs = np.diff(k_vals)

    x_in = lo + 1e-4 * w
    k_gap = abs(core.k_function(x_in, c) - core.k_function(core.p_b_of_p_a(x_in, c), c))

    e_count = reference_sign_changes(np.array([core.e_function(float(x), c) for x in xs]))

    h_off = min(1e-4, w / 4.0)
    v0 = core.m1_objective(mid, c)
    return oracle.ShapeSummary(
        c,
        str(region.tag),
        int(np.sum(~(np.diff(n_vals) < 0.0))),
        reference_sign_changes(n_vals),
        abs(n_zero_at - mid) / (w / grid),
        int(np.sum(~(k_diffs[xs[1:] < mid] > 0.0))),
        int(np.sum(~(k_diffs[xs[:-1] > mid] < 0.0))),
        k_gap,
        e_count,
        core.m1_objective(mid - h_off, c) - v0,
        core.m1_objective(mid + h_off, c) - v0,
    )


def outcome(f, *args):
    """f(*args), or the type and message of the EurError it raises."""
    try:
        return f(*args)
    except EurError as exc:
        return type(exc), str(exc)


_C_STAR = solve.c_star().root
# overlaps where the region, the multiplicity or the float format changes
_SPECIAL_OVERLAPS = [
    1e-300,
    1e-4,
    math.nextafter(core.INV_SQRT2, 0.0),
    core.INV_SQRT2,
    math.nextafter(core.INV_SQRT2, 1.0),
    math.nextafter(_C_STAR, 0.0),
    _C_STAR,
    math.nextafter(_C_STAR, 1.0),
    0.9999,
    math.nextafter(1.0, 0.0),
    1.0,
]
# one ulp below 1/sqrt(2) the MU check `oracle_min < b_mu` has a margin of
# 2e-16 (b_mu - m_inf); c_star - 1 ulp (H1) and c_star (F)
_PINNED = [
    0.7071067811865475,
    core.INV_SQRT2,
    math.nextafter(core.INV_SQRT2, 1.0),
    0.8335565596009646,
    0.8335565596009648,
]


def mp_line_min(c):
    """grid_min's minimum re-derived at 30 digits: h_min(cos^2 a) +
    h_min(cos^2(theta - a)) is symmetric about theta/2, so a 200-point scan
    of [0, theta/2] and a golden section to 1e-20 around its best point."""
    with mp.workdps(30):
        theta = mp.acos(mpf(c))

        def h_min(p):
            m = mp.floor(1 / p)
            rem = 1 - m * p
            return -m * p * mp.log(p) - (rem * mp.log(rem) if rem > 0 else 0)

        def f(a):
            return h_min(mp.cos(a) ** 2) + h_min(mp.cos(theta - a) ** 2)

        step = theta / 2 / 199
        scan = [f(k * step) for k in range(200)]
        k = scan.index(min(scan))
        lo, hi = max(k - 1, 0) * step, min(k + 1, 199) * step
        gr = (mp.sqrt(5) - 1) / 2
        while hi - lo > mpf("1e-20"):
            x1, x2 = hi - gr * (hi - lo), lo + gr * (hi - lo)
            if f(x1) < f(x2):
                hi = x2
            else:
                lo = x1
        return float(min(f((lo + hi) / 2), scan[k]))


class TestGridMin:
    def test_matches_analytic_small_grid(self):
        rep = oracle.grid_min(0.9, points_per_axis=501)
        assert abs(rep.gap) <= 5e-3
        assert rep.analytic_ref == pytest.approx(core.f_bound(0.9), abs=1e-14)

    def test_relaxed_region_reaches_endpoint_infimum(self):
        rep = oracle.grid_min(0.5, points_per_axis=501)
        assert rep.oracle_min <= core.m_inf(0.5) + 5e-3
        assert rep.oracle_min < core.b_mu(0.5)

    def test_exact_across_the_domain(self):
        # 200 seeded overlaps plus the region edges: the 1-D minimum meets
        # the bound to 1e-10 in H1 and F, and the endpoint infimum in MU
        rng = random.Random(16)
        overlaps = [1.0 - rng.random() for _ in range(200)] + _SPECIAL_OVERLAPS + _PINNED
        for c in overlaps:
            rep = oracle.grid_min(c)
            if solve.classify_region(c).tag is solve.RegionTag.MU:
                assert rep.gap <= 1e-10 and rep.oracle_min < core.b_mu(c), c
            else:
                assert abs(rep.gap) <= 1e-10, c

    @pytest.mark.parametrize("c", [0.3, 0.65, 0.75, 0.8, 0.9, 0.99])
    def test_agrees_with_mpmath(self, c):
        assert oracle.grid_min(c).oracle_min == pytest.approx(mp_line_min(c), abs=1e-10)

    @pytest.mark.parametrize("n", [100, 101, 301])
    def test_dense_scan_never_below(self, n):
        # every feasible pair of an n x n angle grid is a point the 1-D
        # minimum must not exceed
        overlaps = [0.05, 0.3, 0.5, 0.636985, 0.7, 0.75, 0.8, 0.9, 0.95] + _SPECIAL_OVERLAPS
        ang = [i * (math.pi / 2) / n for i in range(n)]
        h = [oracle._h_min(math.cos(a) ** 2) for a in ang]
        for c in overlaps:
            dense = dense_min(ang, h, ang, h, math.acos(c))[0]
            assert dense >= oracle.grid_min(c).oracle_min - 1e-10, c

    def test_argmin_feasible(self):
        rep = oracle.grid_min(0.8, points_per_axis=301)
        pa, pb = rep.argmin
        theta = math.acos(0.8)
        assert math.acos(math.sqrt(pa)) + math.acos(math.sqrt(pb)) >= theta - 1e-12

    # 50 overlaps over (0, 1], the old failure window near 1/sqrt(2), the
    # ulps around 1/sqrt(2) and c_star, and the ends
    def test_passes_across_the_domain(self, capsys):
        overlaps = [k / 50 for k in range(1, 51)] + [0.636985, 0.70, 0.707, 0.7071, 1e-4, 1.0]
        overlaps += _PINNED
        code = cli.main(["verify", "--suite", "grid", "--c-list", *map(repr, overlaps)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[-1] == f"RESULT: {len(overlaps)} passed, 0 failed"
        assert all(line.startswith("PASS grid ") and "(tol 1e-09)" in line for line in lines[:-1])

    def test_domain(self):
        with pytest.raises(DomainError):
            oracle.grid_min(0.0)
        for n in (0, 50, 99, 100.0, 100.5, 2001.0, math.nan, math.inf, None):
            with pytest.raises(DomainError, match="points_per_axis must be an integer of at least"):
                oracle.grid_min(0.5, points_per_axis=n)

    def test_h_min_matches_core(self):
        angles = [i * (math.pi / 2) / 101 for i in range(101)]
        ps = (
            [1e-3 + k * (1.0 - 1e-3) / 996 for k in range(997)]
            + [1.0 / m for m in range(1, 12)]
            + [1.0 / m + 1e-12 for m in range(2, 12)]
            + [math.cos(a) ** 2 for a in angles]
        )
        for p in ps:
            assert oracle._h_min(p) == pytest.approx(core.h_min(p), abs=1e-12), p


class TestScanGolden:
    def test_refines_between_scan_points(self):
        x, val = oracle._scan_golden(lambda x: (x - 0.123456789) ** 2, 0.01, 100, 1e-12)
        assert x == pytest.approx(0.123456789, abs=1e-12)
        assert val <= 1e-24

    def test_keeps_a_lower_scan_point(self):
        # a dip at scan point 3 too narrow for the golden section to land on
        step = 0.01

        def f(x):
            return -1.0 if x == 3 * step else abs(x - 0.031)

        x, val = oracle._scan_golden(f, step, 10, 1e-10)
        assert (x, val) == (3 * step, -1.0)


class TestQubitMin:
    def test_common_eigenstate(self):
        rep = oracle.qubit_min(1.0)
        assert rep.oracle_min <= 1e-12
        assert rep.argmin == pytest.approx((1.0, 1.0), abs=1e-8)

    def test_f_region_argmin_at_half_angle(self):
        # phi = theta/2 gives ((1+c)/2, (1+c)/2); the copy at theta/2 + pi/2
        # gives ((1-c)/2, (1-c)/2) and is rejected
        rep = oracle.qubit_min(0.9)
        assert abs(rep.gap) <= 1e-9
        assert rep.argmin == pytest.approx((0.95, 0.95), abs=1e-6)

    def test_h1_region(self):
        rep = oracle.qubit_min(0.8)
        assert abs(rep.oracle_min - solve.h1_bound(0.8)) <= 1e-9

    def test_twenty_point_agreement(self):
        lo, hi = core.INV_SQRT2 + 1e-3, 1.0 - 1e-3
        for k in range(20):
            c = lo + k * (hi - lo) / 19.0
            rep = oracle.qubit_min(c)
            assert abs(rep.gap) <= 1e-6, f"qubit oracle off at c = {c}"

    def test_domain(self):
        with pytest.raises(DomainError):
            oracle.qubit_min(0.7)

    def test_agrees_to_rounding(self):
        # 100 overlaps over [1/sqrt(2), 1], ten more around c_star
        overlaps = [core.INV_SQRT2 + (1.0 - core.INV_SQRT2) * k / 99 for k in range(100)]
        overlaps += [_C_STAR * (1.0 + d) for d in (-1e-3, -1e-5, -1e-7, -1e-9, 0.0)]
        overlaps += [min(_C_STAR * (1.0 + d), 1.0) for d in (1e-9, 1e-7, 1e-5, 1e-3, 1e-2)]
        for c in overlaps:
            assert abs(oracle.qubit_min(c).gap) <= 1e-14, c

    def test_states_satisfy_constraint(self):
        # the probability pair of any pure state respects the angle inequality
        for c in (0.75, 0.9):
            theta = math.acos(c)
            for phi in np.linspace(0.0, math.pi, 10_000, endpoint=False):
                pa = max(math.cos(phi) ** 2, math.sin(phi) ** 2)
                pb = max(math.cos(theta - phi) ** 2, math.sin(theta - phi) ** 2)
                lhs = math.acos(math.sqrt(pa)) + math.acos(math.sqrt(pb))
                assert lhs >= theta - 1e-12


# H1 and F overlaps at least 1e-4 from c*: within about 1e-6 of c* the
# minimum is quartic-flat, and the minimizers drift apart by up to 5e-5
_WITNESS_OVERLAPS = [
    core.INV_SQRT2, math.nextafter(core.INV_SQRT2, 1.0), core.INV_SQRT2 + 1e-6, 0.72, 0.75, 0.8,
    _C_STAR - 1e-4, 0.85, 0.9, 0.95, 0.99, 0.999, 1.0,
]


@pytest.mark.parametrize("c", _WITNESS_OVERLAPS)
@pytest.mark.parametrize("minimize", [oracle.grid_min, oracle.qubit_min], ids=["grid", "qubit"])
def test_oracle_argmin_is_the_b_vs_witness(minimize, c):
    """Each oracle's minimizing (P_A, P_B) is b_vs's witness, up to swap."""
    witness = solve.b_vs(c).witness
    argmin = minimize(c).argmin
    if abs(argmin[0] - witness[0]) > abs(argmin[0] - witness[1]):
        argmin = argmin[::-1]
    assert argmin == pytest.approx(witness, abs=1e-6)


class TestRandomStateCheck:
    def test_no_violations(self):
        for dim in (2, 3, 4, 5):
            summary = oracle.random_state_check(dim, samples=1000, seed=20240811)
            assert summary.min_margin >= -1e-9
            assert 1.0 / math.sqrt(dim) - 1e-9 <= summary.argmin_overlap <= 1.0

    def test_reproducible(self):
        a = oracle.random_state_check(3, samples=500, seed=7)
        b = oracle.random_state_check(3, samples=500, seed=7)
        assert a == b

    def test_seed_changes_result(self):
        a = oracle.random_state_check(3, samples=500, seed=7)
        b = oracle.random_state_check(3, samples=500, seed=8)
        assert a != b

    def test_eigenstate_respects_bound(self):
        rng = np.random.default_rng(99)
        bases, _ = oracle._draw_samples(rng, 4, 1)
        q = bases[0]
        c = min(float(np.max(np.abs(q))), 1.0)
        p_b = np.abs(q.conj().T[:, 0]) ** 2  # state = first computational vector
        entropy = -float(np.sum(p_b[p_b > 1e-300] * np.log(p_b[p_b > 1e-300])))
        assert entropy >= solve.b_vs(c).nats - 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_generated_basis_is_unitary(self, dim):
        rng = np.random.default_rng(5)
        bases, states = oracle._draw_samples(rng, dim, 20)
        for q, psi in zip(bases, states):
            assert np.max(np.abs(q.conj().T @ q - np.eye(dim))) <= 1e-10
            c = float(np.max(np.abs(q)))
            assert 1.0 / math.sqrt(dim) - 1e-12 <= c <= 1.0 + 1e-12
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12

    @pytest.mark.parametrize("dim", range(2, 9))  # BLAS ddot: blocks of 4, then a tail
    @pytest.mark.parametrize("k", [1, 127, 128])
    def test_states_equal_per_row_norm(self, dim, k):
        # the batched norm must equal the 1-D norm bit for bit; a numpy or
        # BLAS change that splits the two fails here, not in drifted margins
        _, states = oracle._draw_samples(np.random.default_rng(31), dim, k)
        n = dim * dim
        x = np.random.default_rng(31).standard_normal((k, 2 * n + 2 * dim))
        raw = x[:, 2 * n : 2 * n + dim] + 1j * x[:, 2 * n + dim :]
        expected = np.array([psi / np.linalg.norm(psi) for psi in raw])
        assert (states == expected).all()

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "samples,seed", [(1, 1234), (255, 1234), (256, 3), (257, 3), (2001, 1234), (2001, 99)]
    )
    def test_equals_per_sample_loop(self, dim, samples, seed):
        # chunk edges, a partial last chunk and a single sample
        expected = reference_random_state_check(dim, samples, seed)
        assert oracle.random_state_check(dim, samples, seed) == expected

    @pytest.mark.parametrize(
        "dim,regions,delta",
        [
            (2, ("H1", "F"), 1e-3),
            (2, ("H1",), 1e-3),  # an upward jump at 1/sqrt(2)
            # raises wider than a knot cell: several violations in a chunk,
            # the least of which a screen that stopped early would miss
            (2, ("H1", "F"), 1e-2),
            (3, ("MU", "H1", "F"), 0.2),
        ],
        ids=["h1_and_f", "h1_only", "h1_and_f_wide", "dim3_all_wide"],
    )
    def test_raised_bound_is_caught(self, monkeypatch, dim, regions, delta):
        # runs the real bound first, so a knot table kept from it would hide the raise
        assert oracle.random_state_check(dim, 10_000, 1234).min_margin >= -1e-9
        real = oracle.b_vs

        def raised(c):
            rep = real(c)
            if rep.region.tag.name in regions:
                return rep._replace(nats=rep.nats + delta)
            return rep

        monkeypatch.setattr(oracle, "b_vs", raised)
        got = oracle.random_state_check(dim, 10_000, 1234)
        assert got == reference_random_state_check(dim, 10_000, 1234)
        assert got.min_margin < -1e-9

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [7, 1234])
    def test_screen_leaves_few_exact_bounds(self, monkeypatch, dim, seed):
        # the knot table is built first; after it, the screen must leave the
        # exact bound to under 1% of the samples
        real = oracle.b_vs
        calls = []

        def counting(c):
            calls.append(c)
            return real(c)

        monkeypatch.setattr(oracle, "b_vs", counting)
        oracle._bound_cells(counting)
        calls.clear()
        oracle.random_state_check(dim, 10_000, seed)
        assert 1 <= len(calls) < 100

    def test_domain(self):
        with pytest.raises(DomainError):
            oracle.random_state_check(1, 10, 0)
        with pytest.raises(DomainError):
            oracle.random_state_check(2, 0, 0)
        for seed in (-1, 1.5, None):
            with pytest.raises(DomainError, match="seed must be a non-negative integer"):
                oracle.random_state_check(2, 10, seed)

    @pytest.mark.parametrize(
        "dim,samples,match",
        [
            (2.0, 10, "dim must be an integer"),
            (math.nan, 10, "dim must be an integer"),
            (math.inf, 10, "dim must be an integer"),
            (2, 10.5, "samples must be a positive integer"),
            (2, 10.0, "samples must be a positive integer"),
            (2, math.nan, "samples must be a positive integer"),
            (2, math.inf, "samples must be a positive integer"),
        ],
    )
    def test_non_integral_dim_or_samples(self, dim, samples, match):
        with pytest.raises(DomainError, match=match):
            oracle.random_state_check(dim, samples, 0)


def assert_structure(s, count, extremum):
    """Every clause of shape_check's summary s meets the shape suite's bound,
    with `count` sign changes of E_1 and the `extremum` of the objective at
    (1+c)/2: both steps away from it negative at a maximum, positive at a
    minimum."""
    sign = -1.0 if extremum == "maximum" else 1.0
    assert (s.n_steps_not_falling, s.n_sign_changes) == (0, 1)
    assert s.n_zero_offset <= 2.0
    assert (s.k_steps_not_rising, s.k_steps_not_falling) == (0, 0)
    assert s.k_endpoint_gap <= 1e-8
    assert s.e1_sign_changes == count
    assert sign * s.m1_step_below > 0.0 and sign * s.m1_step_above > 0.0


class TestShapeCheck:
    @pytest.mark.parametrize(
        "c,count,extremum",
        [(0.5, 1, "maximum"), (0.8, 3, "maximum"), (0.9, 1, "minimum")],
    )
    def test_structure(self, c, count, extremum):
        summary = oracle.shape_check(c)
        assert (summary.c, summary.region) == (c, str(solve.classify_region(c).tag))
        assert_structure(summary, count, extremum)

    @pytest.mark.parametrize("c", [1e-5, 1e-6, 1e-7])
    def test_small_overlaps_pass(self, c):
        # near the flat peak K steps by less than ulp(4); K - 4 resolves them
        assert_structure(oracle.shape_check(c), 1, "maximum")

    def test_small_grid_rejected(self):
        for grid in (100, 999, 1000.0, 10_000.5, math.nan):
            with pytest.raises(DomainError, match="grid must be an integer of at least 1000"):
                oracle.shape_check(0.5, grid=grid)

    # 50 overlaps over (0, 1], the known-fail windows and the ends of the domain
    @pytest.mark.parametrize(
        "c",
        [k / 50 for k in range(1, 51)]
        + [1e-5, 1e-4, 0.7072, 0.71, 0.72, 0.9995, 0.9999, 1e-12, 1e-13, 1.0 - 1e-12]
        + [core.INV_SQRT2, math.nextafter(core.INV_SQRT2, 1.0), _C_STAR, 0.0, math.nan]
        + [_C_STAR * (1.0 - 1e-9), math.nextafter(math.nextafter(_C_STAR, 0.0), 0.0)],
    )
    def test_equals_numpy_reference(self, c):
        # the same summary, or the same error and message, as the numpy scan
        # that checks every sample; the summaries are compared whole, also at
        # the overlaps where a clause fails
        assert outcome(oracle.shape_check, c) == outcome(reference_shape_check, c)

    @pytest.mark.parametrize("grid", [1000, 1001, 4096])
    def test_equals_numpy_reference_other_grids(self, grid):
        for c in (0.3, 0.75, 0.9):
            assert outcome(oracle.shape_check, c, grid) == outcome(reference_shape_check, c, grid)

    def test_sign_changes_like_np_sign(self):
        nan, inf = math.nan, math.inf
        cases = [
            ([1.0, -1.0], 1),
            ([1.0, 0.0, -0.0, -1.0], 1),
            ([1.0, nan, -1.0], 0),  # a nan is kept, but never part of a change
            ([1.0, nan, 2.0, -1.0], 1),
            ([nan, nan], 0),
            ([1e-200, -1e-200], 1),  # the product of the values would underflow
            ([-inf, inf, 5e-324], 1),
            ([], 0),
        ]
        for values, count in cases:
            assert oracle._sign_changes(values) == count == reference_sign_changes(values)
        rng = np.random.default_rng(5)
        for _ in range(200):
            values = rng.choice([-2.0, -1e-300, -0.0, 0.0, 1e-300, 3.0, nan, inf, -inf], 12)
            assert oracle._sign_changes(values.tolist()) == reference_sign_changes(values)


class TestBoundaryCaseMin:
    def test_above_critical(self):
        rep = oracle.boundary_case_min(0.9)
        assert rep.oracle_min == pytest.approx(core.g_bound(0.9), abs=1e-14)
        assert rep.gap > 0.0
        assert rep.argmin == (1.0, pytest.approx(0.81))

    def test_h1_region(self):
        rep = oracle.boundary_case_min(0.8)
        assert rep.oracle_min == pytest.approx(core.g_bound(0.8), abs=1e-14)
        assert rep.oracle_min > solve.h1_bound(0.8)

    def test_lattice_wins_near_one(self):
        # close to c = 1 the two-point entropy beats ln 2 is false: g -> 0
        rep = oracle.boundary_case_min(0.999)
        assert rep.oracle_min == pytest.approx(core.g_bound(0.999), abs=1e-14)

    def test_trivial_overlap(self):
        rep = oracle.boundary_case_min(1.0)
        assert rep.oracle_min == 0.0
        assert rep.gap == 0.0

    def test_undercut_is_reported_not_raised(self, monkeypatch):
        # a bound raised by 1 lies above both candidates: the gap says so
        before = oracle.boundary_case_min(0.9)
        real = oracle.b_vs
        monkeypatch.setattr(oracle, "b_vs", lambda c: real(c)._replace(nats=real(c).nats + 1.0))
        rep = oracle.boundary_case_min(0.9)
        assert rep.oracle_min == before.oracle_min
        assert rep.gap < 0.0
        assert rep.gap == pytest.approx(before.gap - 1.0, abs=1e-14)

    @pytest.mark.parametrize("c", [core.INV_SQRT2, 0.5])
    def test_domain(self, c):
        with pytest.raises(DomainError):
            oracle.boundary_case_min(c)


class TestDeltaMInfLimit:
    def test_decreasing_to_zero(self):
        pairs = oracle.delta_m_inf_limit()
        diffs = [d for _, d in pairs]
        assert all(d > 0.0 for d in diffs)
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-6  # converges to 0, far below ln 2
