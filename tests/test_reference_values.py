"""Re-derive the frozen reference constants with 50-digit arithmetic.

The literals asserted across the test suite were produced by exactly these
expressions; this module keeps that derivation executable so a transcription
error cannot survive unnoticed.  mpmath is never used by the package
itself.
"""

import pytest
from mpmath import mp, mpf, log, sqrt, findroot

mp.dps = 50


def h(p):
    if p == 0 or p == 1:
        return mpf(0)
    return -p * log(p) - (1 - p) * log(1 - p)


def pb(pa, c):
    return (sqrt((1 - c**2) * (1 - pa)) + c * sqrt(pa)) ** 2


def e1(pa, c):
    q = pb(pa, c)
    return sqrt(q * (1 - q)) * log(q / (1 - q)) - sqrt(pa * (1 - pa)) * log(pa / (1 - pa))


def solve_h1(c):
    lo, mid = c**2, (1 + c) / 2
    a, b = lo + mpf("1e-25"), mid - mpf("1e-25")
    fa = e1(a, c)
    for _ in range(200):
        m = (a + b) / 2
        fm = e1(m, c)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    r = (a + b) / 2
    return r, h(r) + h(pb(r, c))


CASES = [
    # (computed at 50 dps, frozen double used in the tests)
    (lambda: h(mpf(9) / 10), 0.3250829733914482),
    (lambda: h(mpf(98) / 100), 0.0980391132797320),
    (lambda: 2 * h((1 + 1 / sqrt(mpf(2))) / 2), 0.8329910613993749),
    (lambda: 2 * h((1 + mpf(9) / 10) / 2), 0.3970304866917451),
    (lambda: h(mpf(81) / 100), 0.4862229646617923),
    (lambda: h(mpf(64) / 100), 0.6534181947937018),
    (lambda: log(mpf(2)) + h((1 + sqrt(mpf(3)) / 2) / 2), 0.9389225472284164),
    (lambda: log(mpf(2)) + h(mpf(98) / 100), 0.7911862938396773),
    (
        lambda: (1 - 2 * (mpf(3) / 5) ** 2)
        * log((sqrt(1 - (mpf(3) / 5) ** 2) + mpf(3) / 5) / (sqrt(1 - (mpf(3) / 5) ** 2) - mpf(3) / 5)),
        0.5448548417354877,
    ),
    (
        lambda: -(mpf(9) / 10) * sqrt(1 - (mpf(9) / 10) ** 2) * log((mpf(9) / 10) ** 2 / (1 - (mpf(9) / 10) ** 2)),
        -0.5688403039922690,
    ),
    (lambda: 2 * sqrt(mpf(3) / 16) * log(mpf(3)), 0.9514261508963460),
    (
        lambda: (lambda s: -s * log((1 + s) / (1 - s)) + 4)(sqrt(mpf(3)) / 2),
        1.7189620110971610,
    ),
    (lambda: pb(mpf(7) / 10, mpf(4) / 5), 0.9959272667157606),
    (lambda: findroot(lambda c: c * log((1 + c) / (1 - c)) - 2, mpf("0.83")), 0.8335565596009647),
    (
        lambda: findroot(lambda c: 2 * h((1 + c) / 2) + 2 * log(c), mpf("0.61")),
        0.6109737705648677,
    ),
    (lambda: solve_h1(mpf(3) / 4)[1], 0.6830575877093680),
    (lambda: solve_h1(mpf(4) / 5)[1], 0.6364221790841765),
    (lambda: solve_h1(mpf(82) / 100)[1], 0.6026321023464310),
    (lambda: solve_h1(mpf(3) / 4)[0], 0.5842158917203524),
    (lambda: solve_h1(mpf(4) / 5)[0], 0.7236067977499790),
    (lambda: solve_h1(mpf(82) / 100)[0], 0.8052197713785939),
]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_frozen_constant(case):
    compute, frozen = CASES[case]
    value = compute()
    if hasattr(value, "imag"):  # findroot may answer on the complex line
        assert abs(float(value.imag)) < 1e-40
        value = value.real
    assert float(value) == pytest.approx(frozen, abs=2e-15)
