"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; each test prints PASS/FAIL before asserting.
"""

import math
import time

import numpy as np
import pytest

from eur import cli, core, oracle, solve

LN2 = math.log(2.0)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_c_star_reproduction():
    solve.c_star.cache_clear()
    t0 = time.perf_counter()
    rr = solve.c_star()
    elapsed_first = time.perf_counter() - t0
    runtime = min(
        elapsed_first,
        *(
            _timed(lambda: solve.find_root(solve._c_star_equation, core.INV_SQRT2, 1.0 - 1e-9, abs_tol=1e-15))
            for _ in range(5)
        ),
    )
    residual = abs(rr.root * math.log((1.0 + rr.root) / (1.0 - rr.root)) - 2.0)
    ok = 0.8330 <= rr.root <= 0.8345 and residual <= 1e-12 and runtime < 1e-3
    report(
        "criterion 1 (c_star)",
        ok,
        f"c* = {rr.root:.10f}, residual = {residual:.2e}, solve time = {runtime * 1e6:.0f} us",
    )


def _timed(f):
    t0 = time.perf_counter()
    f()
    return time.perf_counter() - t0


def test_criterion_02_c_dagger_reproduction():
    rr = solve.c_dagger()
    residual = abs(core.f_bound(rr.root) - core.b_mu(rr.root))
    ok = 0.60 <= rr.root <= 0.62 and residual <= 1e-10
    report(
        "criterion 2 (c_dagger)",
        ok,
        f"c_dagger = {rr.root:.10f}, residual = {residual:.2e}",
    )


def test_criterion_03_qubit_oracle_equivalence():
    cs = [0.71, 0.75, 0.80, 0.8336, 0.87, 0.95, 0.99]
    t0 = time.perf_counter()
    gaps = {c: abs(oracle.qubit_min(c).gap) for c in cs}
    elapsed = time.perf_counter() - t0
    worst = max(gaps.values())
    ok = worst <= 1e-6 and elapsed < 5.0
    report(
        "criterion 3 (qubit oracle)",
        ok,
        f"max |qubit - analytic| = {worst:.2e} over {cs}, runtime = {elapsed:.2f} s",
    )


def test_criterion_04_grid_oracle_equivalence():
    details = []
    ok = True
    for c in (0.75, 0.80, 0.90, 0.99):
        t0 = time.perf_counter()
        rep = oracle.grid_min(c, points_per_axis=2001)
        dt = time.perf_counter() - t0
        good = abs(rep.gap) <= 2e-3 and dt < 60.0
        ok &= good
        details.append(f"c={c}: gap={rep.gap:+.2e} ({dt:.1f}s)")
    for c in (0.3, 0.5, 0.65):
        t0 = time.perf_counter()
        rep = oracle.grid_min(c, points_per_axis=2001)
        dt = time.perf_counter() - t0
        good = (
            rep.oracle_min <= core.m_inf(c) + 2e-3
            and rep.oracle_min < core.b_mu(c)
            and dt < 60.0
        )
        ok &= good
        details.append(f"c={c}: min={rep.oracle_min:.5f} vs m_inf={core.m_inf(c):.5f}")
    report("criterion 4 (grid oracle)", ok, "; ".join(details))


def test_criterion_05_improvement_claims():
    cs = solve.c_star().root
    ok = True
    for k in range(1, 1000):
        c = cs + k * (1.0 - cs) / 1001.0
        ok &= core.f_bound(c) > core.b_mu(c)
    for k in range(1, 1000):
        c = core.INV_SQRT2 + k * (cs - core.INV_SQRT2) / 1001.0
        ok &= solve.h1_bound(c) > core.b_mu(c)
    prev = None
    for k in range(1000):
        c = 1e-6 + k * (core.INV_SQRT2 - 2e-6) / 999.0
        delta = core.b_mu(c) - core.m_inf(c)
        ok &= delta > 0.0
        if prev is not None:
            ok &= delta < prev
        prev = delta
    report(
        "criterion 5 (improvement claims)",
        ok,
        "f > b_mu on (c*,1), h1 > b_mu on (1/sqrt2,c*), m_inf < b_mu decreasing, 1e3 points each",
    )


def test_criterion_06_boundary_dominance():
    cs = solve.c_star().root
    ok = True
    for k in range(1, 100):
        c = core.INV_SQRT2 + k * (cs - core.INV_SQRT2) / 100.0
        ok &= core.g_bound(c) > solve.h1_bound(c)
    for k in range(1, 100):
        c = cs + k * (1.0 - cs) / 101.0
        ok &= core.g_bound(c) > core.f_bound(c)
    report("criterion 6 (boundary dominance)", ok, "g > h1 and g > f at 10^2 points per branch")


def test_criterion_07_branch_continuity():
    cs = solve.c_star().root
    gap_left = abs(solve.h1_bound(core.INV_SQRT2 + 1e-6) - LN2)
    gap_right = abs(solve.h1_bound(cs - 1e-6) - core.f_bound(cs))
    ok = gap_left <= 1e-3 and gap_right <= 1e-3
    report(
        "criterion 7 (branch continuity)",
        ok,
        f"|h1(1/sqrt2+1e-6) - ln2| = {gap_left:.2e}, |h1(c*-1e-6) - f(c*)| = {gap_right:.2e}",
    )


def test_criterion_08_shape_suite():
    expected = {0.5: (1, "maximum"), 0.8: (3, "maximum"), 0.9: (1, "minimum")}
    details = []
    ok = True
    for c, (count, extremum) in expected.items():
        summary = oracle.shape_check(c, grid=10_000)
        good = (
            summary.e1_sign_changes == count
            and summary.extremum == extremum
            and summary.k_endpoint_gap <= 1e-8
            and abs(summary.n_zero_at - 0.5 * (1.0 + c)) <= 1e-3
        )
        ok &= good
        details.append(
            f"c={c}: changes={summary.e1_sign_changes}, {summary.extremum}, "
            f"k-gap={summary.k_endpoint_gap:.1e}"
        )
    report("criterion 8 (shape suite)", ok, "; ".join(details))


def test_criterion_09_critique_reproduction(capsys):
    ok = True
    details = []
    for c in (0.3, 0.5, 0.6):
        rep = solve.critique_report(c)
        good = len(rep.roots) >= 1 and rep.inadmissible_count == len(rep.roots)
        ok &= good
        details.append(f"c={c}: {len(rep.roots)} roots, {rep.inadmissible_count} inadmissible")
    exit_code = cli.main(["verify", "--suite", "critique"])
    capsys.readouterr()
    ok &= exit_code == 0
    details.append(f"verify exit {exit_code}")
    with capsys.disabled():
        report("criterion 9 (critique)", ok, "; ".join(details))


def test_criterion_10_universal_bound_respect():
    t0 = time.perf_counter()
    margins = {}
    for dim in (2, 3, 4, 5):
        summary = oracle.random_state_check(dim, samples=10_000, seed=20240811)
        margins[dim] = summary.min_margin
    elapsed = time.perf_counter() - t0
    ok = all(m >= -1e-9 for m in margins.values()) and elapsed < 30.0
    report(
        "criterion 10 (random states)",
        ok,
        f"tightest margins {'; '.join(f'dim {d}: {m:.2e}' for d, m in margins.items())}, "
        f"runtime = {elapsed:.1f} s",
    )


def test_criterion_11_core_identities():
    ok = True
    worst_rt, worst_inv, worst_f, worst_anti = 0.0, 0.0, 0.0, 0.0
    for c in (0.1, 0.3, 0.5, core.INV_SQRT2, 0.8, 0.9, 0.99):
        iv = core.admissible_interval(c)
        for t in np.linspace(1e-3, 1.0 - 1e-3, 41):
            p = iv.lo + t * iv.width
            q = core.p_b_of_p_a(p, c)
            worst_rt = max(worst_rt, abs(core.eqc_overlap(p, q) - c))
            worst_inv = max(worst_inv, abs(core.p_b_of_p_a(q, c) - p))
        mid = 0.5 * (1.0 + c)
        worst_f = max(worst_f, abs(core.m1_objective(mid, c) - core.f_bound(c)))
        for t in (0.1, 0.3, 0.45):
            p = iv.lo + t * iv.width
            worst_anti = max(
                worst_anti,
                abs(core.e_function(core.p_b_of_p_a(p, c), c) + core.e_function(p, c)),
            )
    ok &= worst_rt <= 1e-12 and worst_inv <= 1e-12 and worst_f <= 1e-14 and worst_anti <= 1e-10

    worst_kkt = 0.0
    for c in (0.72, 0.78, 0.83):
        pa, pb = solve.h1_witness(c)
        worst_kkt = max(worst_kkt, abs(core.kkt_multiplier(pa) - core.kkt_multiplier(pb)))
    ok &= worst_kkt <= 1e-10
    report(
        "criterion 11 (core identities)",
        ok,
        f"round-trip {worst_rt:.1e}, involution {worst_inv:.1e}, symmetric-point "
        f"{worst_f:.1e}, antisymmetry {worst_anti:.1e}, multiplier match {worst_kkt:.1e}",
    )


def test_criterion_12_documented_discrepancy():
    pairs = oracle.delta_m_inf_limit()
    diffs = [d for _, d in pairs]
    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))
    positive = all(d > 0.0 for d in diffs)
    converges_to_zero = diffs[-1] < 1e-6
    far_from_ln2 = abs(diffs[-1] - LN2) > 0.5
    ok = decreasing and positive and converges_to_zero and far_from_ln2
    report(
        "criterion 12 (edge limit of the b_mu - m_inf difference)",
        ok,
        "measured limit "
        + ", ".join(f"{d:.2e}" for d in diffs)
        + " -> 0 (informational); positivity and monotonicity hold",
    )
