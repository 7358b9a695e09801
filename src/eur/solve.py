"""Root finding for the transcendental equations behind the piecewise bound.

Provides the bracketed hybrid root finder, the two critical overlaps

  * c_star:   root of c ln((1+c)/(1-c)) = 2, where the asymmetric stationary
              pair merges into the symmetric one;
  * c_dagger: root of f_bound(c) = b_mu(c) inside the small-overlap region,
              above which the symmetric stationary value exceeds -2 ln c;

the asymmetric-branch bound h1_bound, the full piecewise bound b_vs with
region classification, and the scan that reproduces the spurious solutions of
the trigonometric stationarity equation in the angle variable alpha (where
P_A = cos^2(alpha), P_B = cos^2(theta - alpha)).  The scan's grid does not
depend on theta, so the equation's theta-free term is tabulated on it once
per process, at the first scan, and each overlap computes only the other term.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .core import (
    INV_SQRT2,
    _check_unit,
    _e_kernel,
    _p_b,
    admissible_interval,
    b_mu,
    binary_entropy,
    eqc_overlap,
    f_bound,
    k_max_value,
)
from .errors import BracketError, ConvergenceError, DomainError, SingularValueError

if TYPE_CHECKING:
    from array import array

__all__ = [
    "RootResult",
    "RegionTag",
    "Region",
    "BoundReport",
    "CritiqueRoot",
    "CritiqueReport",
    "find_root",
    "c_star",
    "c_dagger",
    "classify_region",
    "h1_bound",
    "h1_witness",
    "b_vs",
    "eqsin_residual",
    "eqsin_roots",
    "critique_report",
]

# Relative inset used when bracketing roots away from singular endpoints.
BRACKET_INSET = 1e-6
_MAX_ITER = 200  # iteration cap of the Brent kernel _brent


class RootResult(NamedTuple):
    root: float
    bracket: tuple[float, float]
    residual: float
    iterations: int


class RegionTag(Enum):
    MU = "MuRegion"
    H1 = "H1Region"
    F = "FRegion"

    def __str__(self) -> str:  # CSV/CLI label
        return self.value


class Region(NamedTuple):
    tag: RegionTag


_MU, _H1, _F = (Region(tag) for tag in RegionTag)


class BoundReport(NamedTuple):
    c: float
    nats: float
    region: Region
    witness: Optional[tuple[float, float]]  # extremizing (P_A, P_B) if any


class CritiqueRoot(NamedTuple):
    alpha: float
    p_a: float
    p_b: float
    residual: float
    admissible: bool
    violated_constraint: Optional[str]


class CritiqueReport(NamedTuple):
    c: float
    theta: float
    interval: tuple[float, float]
    roots: tuple[CritiqueRoot, ...]

    @property
    def inadmissible_count(self) -> int:
        return sum(1 for r in self.roots if not r.admissible)


def find_root(
    f: Callable[[float], float], lo: float, hi: float, abs_tol: float = 1e-13
) -> RootResult:
    """Bracketed root of a continuous scalar function.

    Evaluates f at both ends, returns an end where f is exactly 0, rejects a
    bracket without a sign change, and leaves the iteration to the Brent
    kernel _brent.  The bracket may be given in either sign orientation.
    Stops when the bracket shrinks below max(abs_tol, a few ulps) or an
    exact zero is hit.
    """
    a, b = float(lo), float(hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return RootResult(a, (lo, hi), 0.0, 0)
    if fb == 0.0:
        return RootResult(b, (lo, hi), 0.0, 0)
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketError(f"f({lo}) = {fa} and f({hi}) = {fb} have the same sign")
    return _brent(f, lo, hi, fa, fb, abs_tol)


def _brent(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    f_lo: float,
    f_hi: float,
    abs_tol: float = 1e-13,
) -> RootResult:
    """find_root without its checks, for a caller that has already evaluated
    f at both ends and found values that are nonzero and of opposite sign.

    Brent-style iteration: bisection safeguarded by secant / inverse quadratic
    interpolation.
    """
    a, b, fa, fb = float(lo), float(hi), f_lo, f_hi
    c_, fc = a, fa
    d = e = b - a
    eps = math.ulp(1.0)
    for it in range(1, _MAX_ITER + 1):
        if math.copysign(1.0, fb) == math.copysign(1.0, fc):
            c_, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c_ = b, c_, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * eps * abs(b) + 0.5 * abs_tol
        m = 0.5 * (c_ - b)
        if abs(m) <= tol or fb == 0.0:
            return RootResult(b, (lo, hi), abs(fb), it)
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m  # bisection
        else:
            s = fb / fa
            if a == c_:
                p = 2.0 * m * s  # secant
                q = 1.0 - s
            else:
                q = fa / fc  # inverse quadratic
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
    raise ConvergenceError(f"no convergence within {_MAX_ITER} iterations on [{lo}, {hi}]")


def _c_star_equation(c: float) -> float:
    # c ln((1+c)/(1-c)) - 2; scaling K_max by -1/2 is exact in floats
    return -0.5 * k_max_value(c)


@lru_cache(maxsize=1)
def c_star() -> RootResult:
    """Critical overlap solving c ln((1+c)/(1-c)) = 2, equivalently
    c artanh(c) = 1; approximately 0.8336.  The zero of the peak curvature
    k_max_value, positive below it and negative above.  Computed once per process."""
    return find_root(_c_star_equation, INV_SQRT2, 1.0 - 1e-9, abs_tol=1e-15)


@lru_cache(maxsize=1)
def c_dagger() -> RootResult:
    """Overlap where the symmetric stationary value f_bound crosses the
    -2 ln c bound inside (0, 1/sqrt(2)); approximately 0.611."""
    return find_root(lambda c: f_bound(c) - b_mu(c), 0.1, INV_SQRT2, abs_tol=1e-15)


def classify_region(c: float) -> Region:
    """Branch of the piecewise bound containing c.  Boundary ties: exactly
    1/sqrt(2) classifies as H1Region, exactly c_star as FRegion."""
    _check_unit(c, "overlap")
    if c < INV_SQRT2:
        return _MU
    return _H1 if c < c_star().root else _F


def _h1_solution(c: float) -> tuple[float, tuple[float, float]]:
    """Minimum of the unit-multiplicity entropy sum on the asymmetric branch,
    with its extremizing (P_A, P_B).

    Brackets the lower zero of e_function between the inset lower endpoint
    (where the limit is negative) and the symmetric point (just below which
    the function is positive).  Degenerate cases: at c = 1/sqrt(2) the zero
    merges into the lower endpoint, at c = c_star into the symmetric point;
    both are detected by the bracket signs and answered with the endpoint /
    symmetric closed forms.  Otherwise the end values are nonzero and of
    opposite sign, so they go straight to the Brent kernel _brent, which
    evaluates neither end again.  c is a validated overlap in
    [1/sqrt(2), c_star].  The bracket ends sit BRACKET_INSET of the
    half-width inside the interval, at least 700 times the ENDPOINT_GUARD
    inset, and Brent iterates stay inside [a, b]; the root r and its mirror
    P_B(r) lie in the interval too.  So every evaluation runs on the
    unchecked kernels: E_1 bound once to c by _e_kernel, and _p_b.
    """
    iv = admissible_interval(c)
    mid = 0.5 * (1.0 + c)
    delta = BRACKET_INSET * (mid - iv.lo)
    a, b = iv.lo + delta, mid - delta
    e = _e_kernel(c)
    ea = e(a)
    eb = e(b)
    if ea >= 0.0:
        # zero merged with the lower endpoint (c at or within noise of 1/sqrt(2)):
        # P_B -> 1 contributes nothing
        return binary_entropy(iv.lo), (iv.lo, 1.0)
    if eb <= 0.0:
        # zero merged with the symmetric point (c at or beyond c_star)
        return f_bound(c), (mid, mid)
    r = _brent(e, a, b, ea, eb).root
    pb = _p_b(r, c)
    h_pb = binary_entropy(pb)
    value = binary_entropy(r) + h_pb
    mirrored = h_pb + binary_entropy(_p_b(pb, c))
    if abs(value - mirrored) > 1e-10:
        raise ConvergenceError(
            f"mirrored stationary values disagree at c = {c}: {value} vs {mirrored}"
        )
    return value, (r, pb)


def h1_bound(c: float) -> float:
    """Entropy-sum minimum over the asymmetric stationary pair, defined for
    1/sqrt(2) <= c <= c_star.  Equals ln 2 at the left edge and f_bound(c_star)
    at the right edge."""
    return _h1_solution(_check_h1_domain(c))[0]


def h1_witness(c: float) -> tuple[float, float]:
    """Extremizing (P_A, P_B) behind h1_bound; the swapped pair attains the
    same value."""
    return _h1_solution(_check_h1_domain(c))[1]


def _check_h1_domain(c: float) -> float:
    cs = c_star().root
    if not (INV_SQRT2 - 1e-12 <= c <= cs + 1e-12):
        raise DomainError(f"h1_bound requires 1/sqrt(2) <= c <= c_star ({cs:.6f}), got {c!r}")
    return min(max(c, INV_SQRT2), cs)


def b_vs(c: float) -> BoundReport:
    """Piecewise entropy-sum lower bound:

        -2 ln c            for c <  1/sqrt(2)   (MuRegion)
        h1_bound(c)        for 1/sqrt(2) <= c < c_star   (H1Region)
        f_bound(c)         for c >= c_star      (FRegion)

    The report carries the region and, outside MuRegion, the extremizing
    (P_A, P_B) pair.
    """
    region = classify_region(c)  # one of _MU, _H1, _F
    if region is _MU:
        return BoundReport(c, b_mu(c), region, None)
    if region is _H1:
        value, witness = _h1_solution(c)
        return BoundReport(c, value, region, witness)
    mid = 0.5 * (1.0 + c)
    return BoundReport(c, f_bound(c), region, (mid, mid))


# --- trigonometric stationarity equation in the angle variable ------------

_EXCLUSION_RADIUS = 1e-6  # around the removable points theta/2, theta/2 + pi/4
_SCAN_STEP = 1e-4  # alpha spacing of the eqsin_roots scan and its root-merge distance


def _excluded_points(theta: float) -> tuple[float, float]:
    return (0.5 * theta, 0.5 * theta + 0.25 * math.pi)


def eqsin_residual(alpha: float, theta: float) -> float:
    """Residual of the angle-variable stationarity equation

        sin(2a) ln((1+cos 2a)/(1-cos 2a))
          + sin(2(a-t)) ln((1+cos 2(a-t)) / (2(1-cos^2(a-t)))) = 0

    for a = alpha, t = theta.  The points alpha = theta/2 and
    alpha = theta/2 + pi/4 satisfy it identically (they carry P_A = P_B and
    P_A + P_B = 1 respectively) and are rejected as inputs, as are angles
    whose doubles 2a and 2(a-t) are not finite.
    """
    if not (math.isfinite(2.0 * alpha) and math.isfinite(2.0 * (alpha - theta))):
        raise DomainError(f"angles out of range: alpha = {alpha!r}, theta = {theta!r}")
    for pt in _excluded_points(theta):
        if abs(alpha - pt) < 1e-12:
            raise DomainError(f"alpha = {alpha!r} is an excluded identical-zero point")
    return _eqsin_value(alpha, theta)


def _eqsin_value(alpha: float, theta: float) -> float:
    # eqsin_residual without its checks, for finite angles outside the
    # exclusion radius of the identical-zero points (the eqsin_roots
    # refinement and the critique residuals)
    value = _eqsin_alpha_term(alpha) + _eqsin_theta_term(alpha, theta)
    if value != value:
        raise SingularValueError(f"nonpositive log argument at alpha = {alpha!r}")
    return value


# Each term is nan where one of its log arguments is nonpositive, and only
# there: elsewhere the first is finite and the second finite or +-inf, so
# their sum is nan exactly where the residual is singular.


def _eqsin_alpha_term(alpha: float) -> float:
    # sin(2a) ln((1+cos 2a)/(1-cos 2a)), the theta-free term
    a2 = 2.0 * alpha
    cos2a = math.cos(a2)
    num, den = 1.0 + cos2a, 1.0 - cos2a
    if num <= 0.0 or den <= 0.0:
        return math.nan
    return math.sin(a2) * math.log(num / den)


def _eqsin_theta_term(alpha: float, theta: float) -> float:
    # sin(2(a-t)) ln((1+cos 2(a-t)) / (2(1-cos^2(a-t)))), the other term
    d = alpha - theta
    d2 = 2.0 * d
    cos2d = math.cos(d2)
    sin_d = math.sin(d)
    num, den = 1.0 + cos2d, 2.0 * sin_d * sin_d  # 2(1 - cos^2) = 2 sin^2
    if num <= 0.0 or den <= 0.0:
        return math.nan
    return math.sin(d2) * math.log(num / den)


_SCAN_LO, _SCAN_HI = -0.25 * math.pi, 0.5 * math.pi  # the eqsin_roots window


@lru_cache(maxsize=1)
def _alpha_terms() -> array:
    """_eqsin_alpha_term at the eqsin_roots scan angles
    _SCAN_LO + k _SCAN_STEP, k = 1, 2, ..., below _SCAN_HI, in order; nan
    where a log argument is nonpositive.  The scan grid does not depend on
    theta, so the table is built once per process, at the first scan; array
    is imported here, since it is a shared library that only the scan uses."""
    from array import array

    table = array("d")
    for k in range(1, int((_SCAN_HI - _SCAN_LO) / _SCAN_STEP) + 1):
        x = _SCAN_LO + k * _SCAN_STEP
        if x >= _SCAN_HI:
            break
        table.append(_eqsin_alpha_term(x))
    return table


def eqsin_roots(theta: float) -> list[float]:
    """All distinct zeros of eqsin_residual over alpha in (-pi/4, pi/2).

    Scans at the fixed step _SCAN_STEP = 1e-4, refines each sign change with
    find_root, skips the identical-zero points and their 1e-6
    neighborhoods, and merges refined roots closer than one step.

    The residual has period pi/2 in alpha: alpha -> alpha + pi/2 maps
    (P_A, P_B) to (1 - P_A, 1 - P_B) and leaves both of its terms unchanged.
    The window therefore spans 1.5 periods, and a root in (-pi/4, 0) is
    found again at its translate in (pi/4, pi/2); at c = 0.6, 1.017222 and
    1.48087 are the translates of -0.553574 and -0.089927.

    The residual is the sum of a theta-free term in alpha and a term in
    alpha - theta.  The scan reads the first from a table over its fixed
    grid (_alpha_terms, built once per process) and computes only the
    second, so each sample is the same float as _eqsin_value.  Scan and
    refinement run on the unchecked terms: every scan angle is finite and
    outside both neighborhoods, and a bracket can straddle an identical-zero
    point, but a refinement that converges onto one returns a root inside
    its neighborhood, which is dropped.
    """
    if not (0.0 < theta < 0.5 * math.pi):
        raise DomainError(f"theta must lie in (0, pi/2), got {theta!r}")
    e1, e2 = _excluded_points(theta)
    # an exclusion neighborhood is far narrower than a step, so the only scan
    # angle that can lie in it is the one nearest its point
    skipped = set()
    for e in (e1, e2):
        k = round((e - _SCAN_LO) / _SCAN_STEP)
        if abs(_SCAN_LO + k * _SCAN_STEP - e) <= _EXCLUSION_RADIUS:
            skipped.add(k)

    roots: list[float] = []
    # the previous sample, if it can bracket a crossing; prev_v is never 0
    # or nan otherwise, so prev_v = 0.0 marks that there is none
    prev_x = prev_v = 0.0
    for k, term_a in enumerate(_alpha_terms(), 1):
        if k in skipped:
            prev_v = 0.0
            continue
        x = _SCAN_LO + k * _SCAN_STEP
        v = term_a + _eqsin_theta_term(x, theta)
        if v != v:  # singular
            prev_v = 0.0
            continue
        if v == 0.0:
            roots.append(x)
            prev_v = 0.0
            continue
        if prev_v < 0.0 < v or v < 0.0 < prev_v:
            try:
                rr = find_root(lambda a: _eqsin_value(a, theta), prev_x, x, abs_tol=1e-12)
            except SingularValueError:
                # a log argument cancelled to 0: the crossing is dropped, and
                # for c <= 1e-8 that loses the root near -c/2
                pass
            else:
                roots.append(rr.root)
        prev_x, prev_v = x, v

    roots = [
        r for r in roots if abs(r - e1) > _EXCLUSION_RADIUS and abs(r - e2) > _EXCLUSION_RADIUS
    ]
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] >= _SCAN_STEP:
            deduped.append(r)
    return deduped


_CHECK_ORDER = ("multiplicity_range", "admissible_interval", "overlap_identity")
_EQC_TOL = 1e-9


def critique_report(c: float) -> CritiqueReport:
    """Constraint audit of every angle-equation root for c < 1/sqrt(2).

    Maps each root alpha of eqsin_roots (fixed 1e-4 scan step) to (P_A, P_B) =
    (cos^2 alpha, cos^2(theta - alpha)) and checks, in fixed order: (1) both
    probabilities in (1/2, 1] (unit multiplicity), (2) P_A inside the
    admissible interval, (3) the saturated overlap identity
    sqrt(P_A P_B) - sqrt((1-P_A)(1-P_B)) = c.  Each root is labeled
    admissible or with the first check it violates.
    """
    if not (0.0 < c < INV_SQRT2):
        raise DomainError(f"critique_report requires 0 < c < 1/sqrt(2), got {c!r}")
    theta = math.acos(c)
    if theta >= 0.5 * math.pi:
        raise DomainError(f"c = {c!r} is too small: arccos(c) rounds to pi/2")
    iv = admissible_interval(c)
    entries = []
    for alpha in eqsin_roots(theta):
        p_a = math.cos(alpha) ** 2
        p_b = math.cos(theta - alpha) ** 2
        violated: Optional[str] = None
        if not (0.5 < p_a <= 1.0 and 0.5 < p_b <= 1.0):
            violated = _CHECK_ORDER[0]
        elif not iv.contains(p_a, tol=1e-12):
            violated = _CHECK_ORDER[1]
        elif abs(eqc_overlap(p_a, p_b) - c) > _EQC_TOL:
            violated = _CHECK_ORDER[2]
        entries.append(
            CritiqueRoot(
                alpha=alpha,
                p_a=p_a,
                p_b=p_b,
                residual=abs(_eqsin_value(alpha, theta)),
                admissible=violated is None,
                violated_constraint=violated,
            )
        )
    return CritiqueReport(c, theta, (iv.lo, iv.hi), tuple(entries))
