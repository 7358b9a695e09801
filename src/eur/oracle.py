"""Brute-force verification oracles, independent of the analytic reduction.

Four checks, each attacking the closed-form results from a different side:

  * grid_min          -- minimum of h_min(P_A) + h_min(P_B) under the raw
                         Landau-Pollak constraint, on the line where it is
                         saturated, using the full multiplicity structure
                         (all m, not just m = 1) and never the closed-form
                         P_B(P_A) curve;
  * qubit_min         -- exact two-dimensional state-space sweep: the entropy
                         sum over states (cos phi, sin phi) against bases at
                         relative angle theta;
  * random_state_check-- random bases and states in dimension N, reporting
                         the tightest margin of the entropy sum over the
                         piecewise bound; samples are drawn and measured in
                         batches, and a knot-table screen (sound where the
                         bound is monotone between knots) leaves the exact
                         bound to the few samples that can be the minimum;
  * shape_check       -- sampled measurements of the monotonicity and sign
                         structure of the auxiliary curves (slope,
                         curvature, their controls) and of the extremum
                         character of the constrained objective; N, K and
                         E_1 are sampled in one pass, from one evaluation of
                         their shared terms per sample.
delta_m_inf_limit is not a check but an informational measurement.

grid_min and qubit_min share one saturated-line minimizer (_line_min), a
scan refined by golden section (_scan_golden); they differ only in h,
range, points and tolerance.  Only random_state_check uses numpy, which it
imports when called, and chunks its work; its result does not depend on the
chunk size.  The other oracles are plain Python over floats, so importing
this module or running them does not load numpy.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .core import (
    INV_SQRT2,
    _check_unit,
    _curves,
    _p_b,
    admissible_interval,
    b_mu,
    binary_entropy,
    k_function,
    m1_objective,
    m_inf,
    n_function,
)
from .errors import DomainError
from .solve import BoundReport, _region_edges, b_vs

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "OracleReport",
    "RandomStateSummary",
    "ShapeSummary",
    "grid_min",
    "qubit_min",
    "random_state_check",
    "shape_check",
]


class OracleReport(NamedTuple):
    c: float
    oracle_min: float
    analytic_ref: float  # b_vs(c).nats, in every region
    gap: float  # oracle_min - analytic_ref, signed
    argmin: tuple[float, float]  # the (P_A, P_B) pair at oracle_min
    resolution: str


class RandomStateSummary(NamedTuple):
    dim: int
    samples: int
    seed: int
    min_margin: float  # tightest observed H(A)+H(B) - bound
    argmin_index: int
    argmin_overlap: float


class ShapeSummary(NamedTuple):
    c: float
    n_steps_not_falling: int  # (a) steps of N that do not fall
    n_sign_changes: int  # (a) sign changes of N
    n_zero_offset: float  # (a) first negative N sample to (1+c)/2, in sample steps
    k_steps_not_rising: int  # (b) steps of K before (1+c)/2 that do not rise
    k_steps_not_falling: int  # (b) steps of K after (1+c)/2 that do not fall
    k_endpoint_gap: float  # (c) |K(x) - K(P_B(x))| near the lower end
    e1_sign_changes: int  # (d) sign changes of E_1
    m1_step_below: float  # (e) objective one step below (1+c)/2, minus its value there
    m1_step_above: float  # (e) the same, one step above


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy; probabilities below 1e-300 contribute 0."""
    import numpy as np

    out = np.zeros_like(p)
    mask = p > 1e-300
    np.multiply(p, np.log(p, where=mask, out=np.zeros_like(p)), where=mask, out=out)
    return -out.sum(axis=-1)


def _h_min(p: float) -> float:
    """Least entropy at fixed maximum probability p in (0, 1].

    Re-derives the multiplicity rule 1/(m+1) < p <= 1/m directly so the grid
    oracle does not lean on the scalar path it is meant to check.
    """
    m = math.floor(1.0 / p)
    if p * (m + 1) <= 1.0:
        m += 1
    rem = max(1.0 - m * p, 0.0)
    out = -m * p * math.log(p)
    return out - rem * math.log(rem) if rem > 1e-300 else out


def _scan_golden(
    f: Callable[[float], float], step: float, n: int, tol: float
) -> tuple[float, float]:
    """(x, f(x)) at the least value found: f is scanned at k step for k in
    range(n), and its best scan point k is refined by golden-section search
    on [(k-1) step, (k+1) step] down to width tol.  The scan point is kept
    if it is lower than the refined one."""
    scan = [f(k * step) for k in range(n)]
    k = scan.index(min(scan))
    a, b = (k - 1) * step, (k + 1) * step

    gr = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - gr * (b - a), a + gr * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - gr * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + gr * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    val = f(x)
    if scan[k] < val:  # ties drift the search to the edge of a float-flat bottom
        x, val = k * step, scan[k]
    return x, val


def _line_min(
    c: float, h: Callable[[float], float], step: float, n: int, tol: float, scan: str
) -> OracleReport:
    """Least value of h(cos^2 x) + h(cos^2(theta - x)), theta = arccos(c), on
    the saturated line alpha_A + alpha_B = theta: scanned at x = k step,
    k in range(n), and refined by golden section to width tol (_scan_golden).
    Reported against b_vs(c).nats, with argmin (cos^2 x, cos^2(theta - x))
    at the minimum and the scanned range, scan, in its resolution."""
    ref = b_vs(c).nats
    theta = math.acos(c)

    def f(x: float) -> float:
        return h(math.cos(x) ** 2) + h(math.cos(theta - x) ** 2)

    x, val = _scan_golden(f, step, n, tol)
    return OracleReport(
        c=c,
        oracle_min=val,
        analytic_ref=ref,
        gap=val - ref,
        argmin=(math.cos(x) ** 2, math.cos(theta - x) ** 2),
        resolution=f"{n}-point scan of {scan} + golden section to {tol:g}",
    )


def grid_min(c: float, points_per_axis: int = 2001) -> OracleReport:
    """Minimum of h_min(P_A) + h_min(P_B) subject to the raw Landau-Pollak
    constraint alpha_A + alpha_B >= theta = arccos(c), where P = cos^2(alpha).

    h_min(p) decreases in p and cos^2 decreases on [0, pi/2], so the
    objective increases in each angle and its minimum lies on the saturated
    line alpha_A + alpha_B = theta.  _line_min scans it at points_per_axis
    points of alpha in [0, theta] and refines the best by golden section to
    1e-12 in alpha.  qubit_min shares that minimizer and differs only in h,
    range, points and tolerance; points_per_axis is an integer of at least 100.

    The refinement may step up to one scan step outside [0, theta]; it needs
    no clipping, because every real alpha gives a feasible pair.  cos^2 is
    even and pi-periodic, so the pair's angles in [0, pi/2] are
    d(alpha) and d(theta - alpha), with d the distance to the nearest
    multiple of pi; by the triangle inequality on R / pi Z their sum is at
    least d(theta) = theta, since theta <= pi/2.  So no point the search
    visits can undercut the true minimum.

    Independent of the path it checks: h_min re-derives the multiplicity
    rule, and the constraint stays in angle form (no P_B(P_A) curve).  The
    gap is against b_vs(c).nats, also below 1/sqrt(2), where the minimum is
    m_inf(c).  argmin is the pair (P_A, P_B) at the minimum.
    """
    _check_unit(c, "overlap")
    if not isinstance(points_per_axis, numbers.Integral) or points_per_axis < 100:
        raise DomainError(
            f"points_per_axis must be an integer of at least 100, got {points_per_axis!r}"
        )
    n = points_per_axis
    return _line_min(c, _h_min, math.acos(c) / (n - 1), n, 1e-12, "alpha_A + alpha_B = theta")


def qubit_min(c: float) -> OracleReport:
    """Exact minimum entropy sum over two-dimensional pure states.

    The state (cos phi, sin phi) in the first eigenbasis yields outcome
    probabilities cos^2(phi) and cos^2(theta - phi).  Turning the state by
    pi/2 swaps cos and sin, which leaves both binary entropies unchanged, so
    a 500-point scan of phi over [0, pi/2) sees every state; _line_min
    refines its best point by golden section to 1e-10 in phi.  That is
    grid_min's minimizer, with the binary entropy for h_min, a wider range,
    fewer points and a looser tolerance.  Dimension two forces
    c >= 1/sqrt(2).  argmin is the outcome pair (P_A, P_B) =
    (cos^2 phi, cos^2(theta - phi)) at the minimum.
    """
    if not (INV_SQRT2 - 1e-12 <= c <= 1.0):
        raise DomainError(f"qubit_min requires 1/sqrt(2) <= c <= 1, got {c!r}")
    return _line_min(c, binary_entropy, 0.5 * math.pi / 500, 500, 1e-10, "[0, pi/2)")


# random_state_check works on chunks of samples: past about 128 a larger chunk
# gains little, while peak memory keeps growing (a 1024 chunk: about +10%).
# With one BLAS thread, fresh `verify --suite random --seed 7` processes at
# chunks of 128 / 256 / 512 took 1.000 / 0.98-1.07 / 0.96-0.99 of the wall time
# at 128 and peaked at 36.6 / 36.9 / 37.8 MB (medians of 8 and of 16 runs on
# 2 vCPUs); in-process, 256 and 512 saved 5-7% of the four checks' 0.11 s.
_RANDOM_CHUNK = 128
_BOUND_KNOTS = 1024  # screen knots i/_BOUND_KNOTS, i = 1.._BOUND_KNOTS
_SCREEN_SLACK = 1e-9  # covers float noise of the bound inside a cell


def _draw_samples(rng: np.random.Generator, dim: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k random bases and k random pure states, in the per-sample draw order.

    Sample i reads one row of 2 dim^2 + 2 dim standard normals: the real and
    imaginary parts of a complex matrix, then those of a state.  The matrix
    is orthonormalized by QR (the columns of q[i] are the basis) with the
    phase fix that makes q a deterministic function of the entries.  The
    states are normalized with one batched norm, computed as the 1-D
    np.linalg.norm computes it for a complex vector: the dot product of the
    real parts plus that of the imaginary parts.  vecdot runs the same BLAS
    ddot on the same strided views, so each norm equals the 1-D norm bit for
    bit (norm(axis=1) and a plain sum of squares do not).
    """
    import numpy as np

    n = dim * dim
    x = rng.standard_normal((k, 2 * n + 2 * dim))
    z = x[:, :n].reshape(k, dim, dim) + 1j * x[:, n : 2 * n].reshape(k, dim, dim)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[:, None, :]
    psi = x[:, 2 * n : 2 * n + dim] + 1j * x[:, 2 * n + dim :]
    norms = np.sqrt(np.vecdot(psi.real, psi.real) + np.vecdot(psi.imag, psi.imag))
    return q, psi / norms[:, None]


@lru_cache(maxsize=1)
def _bound_cells(bound: Callable[[float], BoundReport]) -> tuple[np.ndarray, np.ndarray]:
    """Knots on (0, 1] and an upper bound of bound(c).nats on each cell.

    The knots are i/_BOUND_KNOTS plus the region edges of _region_edges, so
    no cell holds two regions.  Cell j is (knots[j-1], knots[j]]; its
    upper bound is the larger of its two end values plus _SCREEN_SLACK,
    which holds wherever the bound is monotone inside the cell, in either
    direction.  Cell 0 gets +inf, since -2 ln c has no bound as c -> 0.
    Keyed on the function, so a replaced bound gets its own table.
    """
    import numpy as np

    steps = np.arange(1, _BOUND_KNOTS + 1) / _BOUND_KNOTS
    knots = np.sort(np.append(steps, _region_edges()))
    values = np.array([bound(float(c)).nats for c in knots])
    upper = np.append(np.inf, np.maximum(values[:-1], values[1:]) + _SCREEN_SLACK)
    return knots, upper


def random_state_check(dim: int, samples: int, seed: int) -> RandomStateSummary:
    """Draw random bases and pure states, and report the least margin
    H(A) + H(B) - bound over the samples, at each sample's measured overlap.

    Each sample orthonormalizes a complex standard-normal matrix into the
    second basis (the first is computational), measures c as the largest
    absolute matrix element, draws a normalized complex standard-normal
    state, and takes its margin over b_vs(c).  A negative margin is a
    violation of the bound; judging it against a tolerance is the caller's.

    Samples are drawn and measured _RANDOM_CHUNK at a time (_draw_samples).
    A screen then bounds each margin from below with the knot table of
    _bound_cells, and the exact bound is evaluated only for samples whose
    lower bound could still be the minimum.  The screen is sound wherever
    the bound is monotone inside each knot cell; the result equals that of
    evaluating every sample exactly, one after another, with ties going to
    the lower index.  dim (at least 2), samples (at least 1) and seed
    (non-negative) are integers; for a fixed seed the result is
    bit-reproducible on a given numpy/BLAS build, whatever the BLAS thread
    count.
    """
    if not isinstance(dim, numbers.Integral) or dim < 2:
        raise DomainError(f"dim must be an integer of at least 2, got {dim!r}")
    if not isinstance(samples, numbers.Integral) or samples < 1:
        raise DomainError(f"samples must be a positive integer, got {samples!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    import numpy as np

    rng = np.random.default_rng(seed)
    knots, upper = _bound_cells(b_vs)
    best = (math.inf, -1, math.nan)  # (margin, index, c); ties go to the lower index
    for start in range(0, samples, _RANDOM_CHUNK):
        q, psi = _draw_samples(rng, dim, min(_RANDOM_CHUNK, samples - start))
        c = np.minimum(np.abs(q).max(axis=(1, 2)), 1.0)
        p_a = np.abs(psi) ** 2
        p_b = np.abs((q.conj().swapaxes(-1, -2) @ psi[..., None])[..., 0]) ** 2
        entropy_sum = _entropy_rows(p_a) + _entropy_rows(p_b)
        lower = entropy_sum - upper[np.searchsorted(knots, c)]
        for j in np.argsort(lower, kind="stable"):
            if lower[j] > best[0]:
                break  # no later sample of the chunk can be the minimum
            cj = float(c[j])
            best = min(best, (float(entropy_sum[j]) - b_vs(cj).nats, start + int(j), cj))
    return RandomStateSummary(
        dim=dim,
        samples=samples,
        seed=seed,
        min_margin=best[0],
        argmin_index=best[1],
        argmin_overlap=best[2],
    )


def _sign_changes(values: Sequence[float]) -> int:
    """Sign changes between neighbors once zeros are dropped.  As with
    np.sign, a nan is kept but is never part of a change."""
    signs = [(v > 0.0) - (v < 0.0) for v in values if v != 0.0]
    return sum(a * b < 0 for a, b in zip(signs, signs[1:]))


def shape_check(c: float, grid: int = 10_000) -> ShapeSummary:
    """Sampled measurements of the structure of the auxiliary curves at
    overlap c, for each of five clauses; judging them is the caller's.

    (a) the slope control N: its steps that do not fall, its sign changes,
        and the distance from its first negative sample (the last sample if
        none) to (1+c)/2, in sample steps;
    (b) the curvature function K: its steps that do not rise before (1+c)/2
        and that do not fall after it;
    (c) the gap between the values of K at dual near-endpoint points;
    (d) the sign changes of the stationarity function E_1;
    (e) the constrained objective one step below and one step above (1+c)/2,
        minus its value there.
    By the paper, N falls with one zero at (1+c)/2, K rises and then falls,
    the gap is 0, E_1 changes sign three times from 1/sqrt(2) to c_star and
    once elsewhere, and the objective has a maximum at (1+c)/2 below c_star
    and a minimum above; the caller places c in its region.

    The samples lo + i w / grid, i = 1..grid-1, increase, so once the first
    and the last pass n_function, every sample lies strictly inside the
    admissible interval.  Clauses (a), (b) and (d) then share one pass, the
    unchecked _curves: at each sample it gives N, K - 4 and E_1 from one
    P_B and one square root and log ratio per side, and it raises N's error
    where N is undefined.
    """
    if not isinstance(grid, numbers.Integral) or grid < 1000:
        raise DomainError(f"grid must be an integer of at least 1000, got {grid!r}")
    iv = admissible_interval(c)
    lo, w = iv.lo, iv.width
    mid = 0.5 * (1.0 + c)
    step = w / grid
    xs = [lo + i * step for i in range(1, grid)]
    n_function(xs[0], c)
    n_function(xs[-1], c)

    # K - 4 is scanned: near the flat peak neighbouring values of K differ by
    # less than ulp(4) and would round to equal
    n_vals, k_vals, e_vals = _curves(xs, c)
    n_zero_at = next((x for x, v in zip(xs, n_vals) if v < 0.0), xs[-1])
    # the pair that straddles (1+c)/2 is skipped (float-flat at a quadratic maximum)
    k_diffs = [b - a for a, b in zip(k_vals, k_vals[1:])]
    # the 1e-4 inset keeps the dual point outside the raw-evaluation endpoint guard
    x_in = lo + 1e-4 * w
    # (1+c)/2 lies at least w/4 from either end of the interval
    h_off = min(1e-4, w / 4.0)
    v0 = m1_objective(mid, c)
    return ShapeSummary(
        c=c,
        n_steps_not_falling=sum(1 for a, b in zip(n_vals, n_vals[1:]) if not b - a < 0.0),
        n_sign_changes=_sign_changes(n_vals),
        n_zero_offset=abs(n_zero_at - mid) / step,
        k_steps_not_rising=sum(1 for x, d in zip(xs[1:], k_diffs) if x < mid and not d > 0.0),
        k_steps_not_falling=sum(1 for x, d in zip(xs, k_diffs) if x > mid and not d < 0.0),
        k_endpoint_gap=abs(k_function(x_in, c) - k_function(_p_b(x_in, c), c)),
        e1_sign_changes=_sign_changes(e_vals),
        m1_step_below=m1_objective(mid - h_off, c) - v0,
        m1_step_above=m1_objective(mid + h_off, c) - v0,
    )


def delta_m_inf_limit() -> list[tuple[float, float]]:
    """Measured values of b_mu(c) - m_inf(c) at c = 1/sqrt(2) - 10^-k, k = 3..8.

    Informational: the difference is positive and strictly decreasing on
    (0, 1/sqrt(2)), and the measured values converge to 0 at the right edge.
    Returned as (c, difference) pairs.
    """
    out = []
    for k in (3, 4, 5, 6, 7, 8):
        c = INV_SQRT2 - 10.0 ** (-k)
        out.append((c, b_mu(c) - m_inf(c)))
    return out
