"""Closed-form bound functions and auxiliary curves for entropy-sum minimization.

Everything here is a pure function of scalar inputs, in natural-log units
(nats).  The single physical parameter is the overlap c in (0, 1], the largest
absolute inner product between the eigenbases of two observables; theta =
arccos(c) is the associated angle.  The curves evaluated here describe the
minimum of H(A) + H(B) over probability pairs (P_A, P_B) whose maxima are
linked by the Landau-Pollak inequality

    arccos(sqrt(P_A)) + arccos(sqrt(P_B)) >= arccos(c).

Conventions:
  * 0 * ln 0 = 0, implemented by explicit branches (never NaN propagation).
  * Values "at an endpoint" of an admissible interval come from the dedicated
    closed-form limit functions; raw evaluation inside a 1e-9-relative
    neighborhood of an endpoint raises DomainError.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Iterable, NamedTuple

from .errors import DomainError, SingularValueError

INV_SQRT2 = math.sqrt(0.5)

# Relative inset below which raw evaluation near an interval endpoint is
# refused (singular logs; use the *_limit functions instead).
ENDPOINT_GUARD = 1e-9

__all__ = [
    "INV_SQRT2",
    "AdmissibleInterval",
    "binary_entropy",
    "multiplicity_of",
    "h_min",
    "b_mu",
    "f_bound",
    "g_bound",
    "lattice_bound",
    "p_b_of_p_a",
    "admissible_interval",
    "m1_objective",
    "e_function",
    "e_limit_lo",
    "e_limit_hi",
    "k_function",
    "k_max_value",
    "k_endpoint_value",
    "n_function",
    "r_function",
    "m_inf",
    "eqc_overlap",
    "ineq_c_max",
    "ineq_c_max_single",
    "kkt_multiplier",
    "nats_to_bits",
]


class AdmissibleInterval(NamedTuple):
    """Open interval (lo, hi) of P_A values compatible with a saturated
    Landau-Pollak constraint at unit multiplicity."""

    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, p: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= p <= self.hi + tol

    def strict_interior(self, p: float) -> bool:
        d = ENDPOINT_GUARD * self.width
        return self.lo + d < p < self.hi - d


def _check_unit(x: float, name: str) -> None:
    # the comparison is false for nan, so nan is rejected too
    if not 0.0 < x <= 1.0:
        raise DomainError(f"{name} must lie in (0, 1], got {x!r}")


def _check_multiplicities(*ms: int) -> None:
    for m in ms:
        # m % 1 is nan for m = inf and nonzero for non-integral m; nan fails m >= 1
        if not (m >= 1 and m % 1 == 0):
            if len(ms) == 1:
                raise DomainError(f"multiplicity must be a positive integer, got {m!r}")
            raise DomainError(f"multiplicities must be positive integers, got {ms[0]!r}, {ms[1]!r}")


def _reciprocal(x: float, name: str) -> float:
    """1/x for x > 0; an x so small that 1/x overflows is a DomainError."""
    inv = 1.0 / x if x > 0.0 else math.inf
    if inv == math.inf:
        raise DomainError(f"{name} = {x!r} is too small: 1/{name} overflows")
    return inv


def _inverse_square(c: float) -> float:
    """1/c^2 for an overlap c; a c so small that 1/c^2 overflows is a
    DomainError that names c^2."""
    _check_unit(c, "overlap")
    return _reciprocal(c * c, "c^2")


def _xlnx(x: float) -> float:
    # 0 ln 0 = 0 by explicit branch
    if x <= 0.0:
        return 0.0
    return x * math.log(x)


def binary_entropy(p: float) -> float:
    """Shannon entropy -p ln p - (1-p) ln(1-p) of a two-outcome distribution.

    Symmetric under p -> 1-p; maximal (ln 2) at p = 1/2; zero at p in {0, 1}.
    """
    if not (0.0 <= p <= 1.0):
        raise DomainError(f"probability must lie in [0, 1], got {p!r}")
    return -_xlnx(p) - _xlnx(1.0 - p)


def multiplicity_of(p: float) -> int:
    """Unique positive integer m with 1/(m+1) < p <= 1/m.

    Exact reciprocals p = 1/m map to m, which keeps h_min continuous across
    the boundary.
    """
    _check_unit(p, "p")
    m = max(1, int(math.floor(_reciprocal(p, "p"))))
    # floor(1/p) can undershoot by one when 1/p rounds down across an integer
    if p * (m + 1) <= 1.0:
        m += 1
    return m


def h_min(p: float) -> float:
    """Least Shannon entropy of any distribution whose largest probability is p.

    Attained by m copies of p plus one remainder 1 - m*p, m = multiplicity_of(p).
    Equals binary_entropy(p) for p >= 1/2 and ln m at exact reciprocals.
    """
    m = multiplicity_of(p)  # validates p
    rem = 1.0 - m * p
    if rem < 0.0:  # ulp-level overshoot at reciprocal boundaries
        rem = 0.0
    return -m * p * math.log(p) - _xlnx(rem)


def b_mu(c: float) -> float:
    """Universal entropy-sum lower bound -2 ln c (Maassen-Uffink)."""
    _check_unit(c, "overlap")
    return -2.0 * math.log(c)


def f_bound(c: float) -> float:
    """Entropy sum at the symmetric stationary pair P_A = P_B = (1+c)/2:

        F(c) = -(1+c) ln((1+c)/2) - (1-c) ln((1-c)/2).

    Equals 2 * binary_entropy((1+c)/2).  For c >= 1/2 the difference 1-c is
    computed exactly in doubles, so there is no cancellation near c = 1;
    inputs within 1e-12 of 1 simply lose resolution in c itself.
    """
    _check_unit(c, "overlap")
    return -_xlnx_half(1.0 + c) - _xlnx_half(1.0 - c)


def _xlnx_half(x: float) -> float:
    # x ln(x/2) with the 0 ln 0 convention
    if x <= 0.0:
        return 0.0
    return x * math.log(0.5 * x)


def g_bound(c: float) -> float:
    """Entropy sum of the boundary candidate (P_A, P_B) = (1, c^2).

    With k = floor(1/c^2) this is -c^2 k ln(c^2) - (1 - c^2 k) ln(1 - c^2 k);
    for c > 1/sqrt(2), k = 1 and the value is the binary entropy of c^2.
    Identical to h_min(c^2).
    """
    _inverse_square(c)  # validates c, and names c^2 (not h_min's p) if it is too small
    return h_min(c * c)


def lattice_bound(c: float) -> float:
    """Entropy sum ln(M_A * M_B) minimized over reciprocal pairs P_I = 1/M_I.

    Returns 0 at c = 1, else ln M for the unique integer M >= 2 with
    1/sqrt(M) <= c < 1/sqrt(M-1).
    """
    return math.log(_lattice_multiplicity(c))


def _lattice_multiplicity(c: float) -> int:
    """Least integer M with 1/sqrt(M) <= c, i.e. ceil(1/c^2); the reciprocal
    pair (1, 1/M) is the lattice candidate at overlap c."""
    return math.ceil(_inverse_square(c))


def p_b_of_p_a(p_a: float, c: float) -> float:
    """Partner maximum probability on the saturated Landau-Pollak curve:

        P_B(P_A) = (sqrt((1-c^2)(1-P_A)) + c sqrt(P_A))^2.

    Requires P_A >= c^2 (below that the defining square root of 1-P_B would
    be negative).  The map is an involution on [c^2, 1].
    """
    _check_unit(c, "overlap")
    if math.isnan(p_a) or p_a > 1.0:
        raise DomainError(f"p_a must lie in [c^2, 1], got {p_a!r}")
    c2 = c * c
    if p_a < c2:
        raise DomainError(f"p_a must be >= c^2 = {c2!r}, got {p_a!r}")
    return _p_b(p_a, c)


def _p_b(p_a: float, c: float) -> float:
    # p_b_of_p_a without its checks, for callers that validated (p_a, c)
    root = math.sqrt((1.0 - c * c) * (1.0 - p_a)) + c * math.sqrt(p_a)
    val = root * root
    return 1.0 if val > 1.0 else val  # clip ulp overshoot at the fixed point


def admissible_interval(c: float) -> AdmissibleInterval:
    """Range (P_A^-, P_A^+) of P_A compatible with unit multiplicity on both
    sides of a saturated Landau-Pollak constraint.

    (1/2, (c + sqrt(1-c^2))^2 / 2) for c < 1/sqrt(2), else (c^2, 1); the two
    branches agree at c = 1/sqrt(2), which is assigned to the second branch.
    """
    _check_unit(c, "overlap")
    if c < INV_SQRT2:
        hi = (c + math.sqrt(1.0 - c * c)) ** 2 / 2.0
        return AdmissibleInterval(0.5, min(hi, 1.0))
    return AdmissibleInterval(c * c, 1.0)


def _require_interior(p_a: float, c: float) -> AdmissibleInterval:
    iv = admissible_interval(c)
    if not iv.strict_interior(p_a):
        raise DomainError(
            f"p_a = {p_a!r} is not strictly inside ({iv.lo!r}, {iv.hi!r}); "
            "use the closed-form limit functions at the endpoints"
        )
    return iv


def m1_objective(p_a: float, c: float) -> float:
    """Entropy sum binary_entropy(P_A) + binary_entropy(P_B(P_A)) along the
    saturated constraint at unit multiplicity.

    Symmetric under P_A -> P_B(P_A); equals f_bound(c) at P_A = (1+c)/2.
    """
    iv = admissible_interval(c)
    if not iv.contains(p_a):
        raise DomainError(f"p_a = {p_a!r} outside admissible interval ({iv.lo!r}, {iv.hi!r})")
    # c^2 <= lo <= p_a <= hi <= 1: p_b_of_p_a's checks cannot fail
    return binary_entropy(p_a) + binary_entropy(_p_b(p_a, c))


def e_function(p_a: float, c: float, m: int = 1) -> float:
    """Scaled slope of the constrained entropy sum in P_A, with the B side
    carrying multiplicity m:

        E_m = m sqrt(P_B(1-P_B)) ln(P_B / (1 - m P_B))
                - sqrt(P_A(1-P_A)) ln(P_A / (1-P_A)).

    Shares the sign of d(m1_objective)/dP_A when m = 1, where it is also
    antisymmetric under P_A -> P_B(P_A).  Zeros are the stationary points of
    the constrained minimization.
    """
    _check_multiplicities(m)
    _require_interior(p_a, c)
    return _e_kernel(c, m)(p_a)


def _e_kernel(c: float, m: int = 1) -> Callable[[float], float]:
    """E_m(., c) as a function of P_A alone, without e_function's checks.

    Bound once per overlap for the H1 root solve, which evaluates it at many
    P_A already known to lie strictly inside the admissible interval.  It
    computes E_m and its terms, never N or K."""
    # a float m gives the same products as an integral m (Python converts it
    # to float to multiply), and float products take the interpreter's fast path
    mf = float(m)

    def e(p_a: float) -> float:
        return _e_terms(p_a, c, mf)[0]

    return e


def _e_terms(
    p_a: float, c: float, m: float = 1.0
) -> tuple[float, float, float, float, float, float]:
    """E_m at P_A without e_function's checks, followed by the terms it is
    built from:

        (E_m, P_B, sqrt(P_B(1-P_B)), ln(P_B/(1 - m P_B)),
         sqrt(P_A(1-P_A)), ln(P_A/(1-P_A))).

    m is a positive integer, passed as a float.  At m = 1 these are also the
    terms of N and K - 4, so _curves builds all three from one call per
    sample.  A nonpositive log argument raises SingularValueError, the B
    side's first.
    """
    p_b = _p_b(p_a, c)
    den_b = 1.0 - m * p_b
    if p_b <= 0.0 or den_b <= 0.0:
        raise SingularValueError(f"nonpositive log argument: {p_b!r}/{den_b!r}")
    den_a = 1.0 - p_a
    if p_a <= 0.0 or den_a <= 0.0:
        raise SingularValueError(f"nonpositive log argument: {p_a!r}/{den_a!r}")
    sb = math.sqrt(p_b * (1.0 - p_b))
    lb = math.log(p_b / den_b)
    sa = math.sqrt(p_a * den_a)
    la = math.log(p_a / den_a)
    return m * sb * lb - sa * la, p_b, sb, lb, sa, la


def _curves(
    ps: Iterable[float], c: float
) -> tuple[list[float], list[float], list[float]]:
    """N, K - 4 and E_1 at each P_A of ps, in order, without their checks,
    each built from one evaluation of their shared terms by _e_terms; for
    P_A strictly inside the admissible interval (the shape oracle samples
    them).

    At the first P_A where P_A or P_B is 0 or 1, N's SingularValueError is
    raised.  P_A and P_B lie in [0, 1], so those are exactly the points where
    a square root of _e_terms is 0 and where, at m = 1, one of its log
    arguments is nonpositive.
    """
    n_vals: list[float] = []
    k_vals: list[float] = []
    e_vals: list[float] = []
    try:
        for p_a in ps:
            e1, p_b, sb, lb, sa, la = _e_terms(p_a, c)
            n_vals.append(
                2.0 * sb * lb - (1.0 - 2.0 * p_b) / sb - 2.0 * sa * la + (1.0 - 2.0 * p_a) / sa
            )
            k_vals.append(_k_log_terms(p_a, p_b, lb, la))
            e_vals.append(e1)
    except SingularValueError:
        raise SingularValueError("n_function undefined at probability 0 or 1") from None
    return n_vals, k_vals, e_vals


def e_limit_lo(c: float) -> float:
    """Limit of e_function(., c, 1) at the lower admissible endpoint.

    For c < 1/sqrt(2) (endpoint P_A = 1/2) the limit is

        (1 - 2c^2) ln((sqrt(1-c^2) + c) / (sqrt(1-c^2) - c)) > 0,

    for c >= 1/sqrt(2) (endpoint P_A = c^2, where P_B -> 1) it is

        -c sqrt(1-c^2) ln(c^2 / (1-c^2)) <= 0.
    """
    _check_unit(c, "overlap")
    s = math.sqrt(1.0 - c * c)
    if c < INV_SQRT2:
        return (1.0 - 2.0 * c * c) * math.log((s + c) / (s - c))
    if c == 1.0:
        return 0.0
    return -c * s * math.log(c * c / (1.0 - c * c))


def e_limit_hi(c: float) -> float:
    """Limit of e_function(., c, 1) at the upper admissible endpoint; equal to
    -e_limit_lo(c) by the involution antisymmetry."""
    return -e_limit_lo(c)


def k_function(p_a: float, c: float) -> float:
    """Curvature control for e_function:

        K = (1-2P_B) ln(P_B/(1-P_B)) + (1-2P_A) ln(P_A/(1-P_A)) + 4,

    with P_B = p_b_of_p_a(P_A).  -K shares the sign of dE_1/dP_A.  K is
    symmetric under P_A -> P_B(P_A), rises to its maximum at P_A = (1+c)/2
    and falls beyond it.
    """
    _require_interior(p_a, c)
    _, p_b, _, lb, _, la = _e_terms(p_a, c)
    return _k_log_terms(p_a, p_b, lb, la) + 4.0


def _k_log_terms(p_a: float, p_b: float, lb: float, la: float) -> float:
    # the two log terms of K, without the constant 4, from the log ratios lb
    # and la of _e_terms at m = 1: near the flat peak of K they resolve steps
    # below ulp(4) (the shape oracle samples them)
    return (1.0 - 2.0 * p_b) * lb + (1.0 - 2.0 * p_a) * la


def k_max_value(c: float) -> float:
    """Peak of k_function, attained at P_A = (1+c)/2:

        K_max = -2c ln((1+c)/(1-c)) + 4.

    Positive below the critical overlap solving c ln((1+c)/(1-c)) = 2,
    negative above it.
    """
    _check_unit(c, "overlap")
    if c == 1.0:
        return -math.inf
    return -2.0 * c * math.log((1.0 + c) / (1.0 - c)) + 4.0


def k_endpoint_value(c: float) -> float:
    """Common limit of k_function at both admissible endpoints for
    c < 1/sqrt(2):

        -2c sqrt(1-c^2) ln((1 + 2c sqrt(1-c^2)) / (1 - 2c sqrt(1-c^2))) + 4,

    decreasing from 4 (c -> 0) to -inf (c -> 1/sqrt(2)).  Returns -inf once
    2c sqrt(1-c^2) >= 1 - 1e-15.
    """
    if not (0.0 < c < INV_SQRT2):
        raise DomainError(f"k_endpoint_value requires 0 < c < 1/sqrt(2), got {c!r}")
    s = 2.0 * c * math.sqrt(1.0 - c * c)
    if s >= 1.0 - 1e-15:
        return -math.inf
    return -s * math.log((1.0 + s) / (1.0 - s)) + 4.0


def n_function(p_a: float, c: float) -> float:
    """Slope control for k_function:

        N = 2 sqrt(P_B(1-P_B)) ln(P_B/(1-P_B)) - (1-2P_B)/sqrt(P_B(1-P_B))
          - 2 sqrt(P_A(1-P_A)) ln(P_A/(1-P_A)) + (1-2P_A)/sqrt(P_A(1-P_A)).

    Shares the sign of dK/dP_A; strictly decreasing on the admissible
    interval with its unique zero at P_A = (1+c)/2.
    """
    _require_interior(p_a, c)
    return _curves((p_a,), c)[0][0]


def r_function(x: float) -> float:
    """ln(x/(1-x)) + (1-2x)/(2x(1-x)); negative on (1/2, 1), antisymmetric
    about x = 1/2.  Drives the monotonicity of n_function."""
    if not (0.0 < x < 1.0):
        raise DomainError(f"r_function requires 0 < x < 1, got {x!r}")
    value = math.log(x / (1.0 - x)) + (1.0 - 2.0 * x) / (2.0 * x * (1.0 - x))
    if value == math.inf:  # the second term overflows for x below about 2.8e-309
        raise DomainError(f"r_function({x!r}) overflows")
    return value


def m_inf(c: float) -> float:
    """Infimum of the unit-multiplicity entropy sum for c < 1/sqrt(2),
    attained in the limit at the admissible-interval endpoints.

    With s = 2c sqrt(1-c^2):

        M_inf = -((1+s)/2) ln((1+s)/4) - ((1-s)/2) ln((1-s)/4)
              = ln 2 + binary_entropy((1+s)/2).

    Evaluation is permitted up to c = 1/sqrt(2) inclusive, where the value is
    ln 2.
    """
    if not (0.0 < c <= INV_SQRT2):
        raise DomainError(f"m_inf requires 0 < c <= 1/sqrt(2), got {c!r}")
    s = min(2.0 * c * math.sqrt(1.0 - c * c), 1.0)
    # ((1+-s)/2) ln((1+-s)/4) = x ln(x/2) with x = (1+-s)/2
    return -_xlnx_half(0.5 * (1.0 + s)) - _xlnx_half(0.5 * (1.0 - s))


def eqc_overlap(p_a: float, p_b: float) -> float:
    """Overlap implied by a saturated Landau-Pollak pair:

        sqrt(P_A P_B) - sqrt((1-P_A)(1-P_B)).
    """
    _check_unit(p_a, "p_a")
    _check_unit(p_b, "p_b")
    return math.sqrt(p_a * p_b) - math.sqrt((1.0 - p_a) * (1.0 - p_b))


def ineq_c_max(m_a: int, m_b: int) -> float:
    """Largest overlap compatible with multiplicities (m_a, m_b):

        (1 - (m_a - 1)(m_b - 1)) / sqrt(m_a m_b).

    Nonpositive as soon as both multiplicities exceed 1, which is what forces
    one of them to unity for any c > 0.
    """
    _check_multiplicities(m_a, m_b)
    # (m_a - 1)(m_b - 1) < m_a m_b, so a finite product keeps every term finite
    if not m_a * m_b <= sys.float_info.max:
        raise DomainError(f"multiplicities {m_a!r}, {m_b!r} are too large: m_a m_b overflows")
    return (1.0 - (m_a - 1) * (m_b - 1)) / math.sqrt(m_a * m_b)


def ineq_c_max_single(m_a: int, m_b: int) -> float:
    """Weaker corollary bound 1/sqrt(max(m_a, m_b)) once one multiplicity is 1."""
    _check_multiplicities(m_a, m_b)
    return 1.0 / math.sqrt(max(m_a, m_b))


def kkt_multiplier(p_a: float) -> float:
    """Lagrange multiplier of the saturated Landau-Pollak constraint
    recovered from the stationarity condition at unit multiplicity:

        lambda = 2 sqrt(P_A(1-P_A)) ln(P_A/(1-P_A)),

    positive on (1/2, 1).  At a zero of e_function(., c, 1) the A-side and
    B-side recoveries agree.
    """
    if not (0.5 < p_a < 1.0):
        raise DomainError(f"kkt_multiplier requires 1/2 < p_a < 1, got {p_a!r}")
    return 2.0 * math.sqrt(p_a * (1.0 - p_a)) * math.log(p_a / (1.0 - p_a))


_BITS_PER_NAT = 1.0 / math.log(2.0)


def nats_to_bits(x: float) -> float:
    """Display-time conversion of an entropy value from nats to bits."""
    if not math.isfinite(x):
        raise DomainError(f"entropy must be finite, got {x!r}")
    bits = x * _BITS_PER_NAT
    if not math.isfinite(bits):
        raise DomainError(f"entropy {x!r} nats is too large: its value in bits overflows")
    return bits
