"""Output checks for every benchmark operation.

Each check takes the exit code and standard output of one `eur` call (plus
the CSV file for `sweep`) and returns a list of problems; an empty list means
the output is correct.  Numbers are re-derived here with mpmath, independently
of the package, the way tests/test_reference_values.py re-derives the frozen
constants.

Known failures.  At the parent commit of this benchmark the `grid` and
`shape` oracles fail at some overlaps inside their own domains (measured on a
dense scan, see README.md).  Those inputs stay in the draw.  A FAIL line (or
exit code 2 from `shape`) at an overlap inside KNOWN_FAIL_WINDOWS is reported
as a known failure, listed with its overlap; any other failure counts as a
failed operation.
"""

from __future__ import annotations

import csv
import json
import math
import re
from functools import lru_cache

from mpmath import acos, ceil, findroot, floor, log, mp, mpf, sqrt

mp.dps = 30

ABS_TOL = 1e-10  # agreement with the mpmath re-derivation
SWEEP_HEADER = ["c", "theta", "b_mu", "f", "g", "lattice", "m_inf", "h1", "b_vs", "region"]
ENTROPY_FIELDS = ("b_mu", "f", "g", "lattice", "m_inf", "h1", "b_vs")

INV_SQRT2 = math.sqrt(0.5)
KNOWN_FAIL_WINDOWS = {
    # grid minimum above the endpoint infimum by more than the default 2e-3
    "grid": [(0.64, 0.71)],
    # clause (e) leaves the admissible interval (exit 2) near c = 0 and 1;
    # clause (d) misses the two extra sign changes just above 1/sqrt(2)
    "shape": [(0.0, 5e-4), (INV_SQRT2, 0.73), (0.9995, 1.0)],
}


def known_failure(suite: str, c: float) -> bool:
    return any(lo <= c <= hi for lo, hi in KNOWN_FAIL_WINDOWS.get(suite, ()))


# --- mpmath re-derivation ---------------------------------------------------


def _h(p):
    return mpf(0) if p <= 0 or p >= 1 else -p * log(p) - (1 - p) * log(1 - p)


def _pb(pa, c):
    return (sqrt((1 - c**2) * (1 - pa)) + c * sqrt(pa)) ** 2


def _e1(pa, c):
    q = _pb(pa, c)
    return sqrt(q * (1 - q)) * log(q / (1 - q)) - sqrt(pa * (1 - pa)) * log(pa / (1 - pa))


def _h1(c):
    """Bisection for the lower zero of E_1 on (c^2, (1+c)/2)."""
    a, b = c**2, (1 + c) / 2
    a, b = a + (b - a) * mpf("1e-9"), b - (b - a) * mpf("1e-9")
    if _e1(a, c) >= 0:
        return _h(c**2)
    if _e1(b, c) <= 0:
        return 2 * _h((1 + c) / 2)
    fa = _e1(a, c)
    for _ in range(110):
        m = (a + b) / 2
        fm = _e1(m, c)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    r = (a + b) / 2
    return _h(r) + _h(_pb(r, c))


@lru_cache(maxsize=1)
def c_star():
    return findroot(lambda c: c * log((1 + c) / (1 - c)) - 2, (mpf("0.8"), mpf("0.86")), solver="anderson")


@lru_cache(maxsize=1)
def c_dagger():
    return findroot(lambda c: 2 * _h((1 + c) / 2) + 2 * log(c), (mpf("0.55"), mpf("0.65")), solver="anderson")


def reference_row(c_float: float) -> dict:
    """Every bound at overlap c in nats, plus theta and the region label."""
    c = mpf(c_float)
    p = c**2
    m = floor(1 / p)
    if p * (m + 1) <= 1:
        m += 1
    rem = 1 - m * p
    row = {
        "c": c,
        "theta": acos(c),
        "b_mu": -2 * log(c),
        "f": 2 * _h((1 + c) / 2) if c < 1 else mpf(0),
        "g": -m * p * log(p) - (rem * log(rem) if rem > 0 else 0),
        "lattice": mpf(0) if c == 1 else log(ceil(1 / p)),
        "m_inf": None,
        "h1": None,
    }
    if c < 1 / sqrt(2):
        s = 2 * c * sqrt(1 - p)
        row["m_inf"] = log(2) + _h((1 + s) / 2)
        row["region"], row["b_vs"] = "MuRegion", row["b_mu"]
    elif c < c_star():
        row["h1"] = _h1(c)
        row["region"], row["b_vs"] = "H1Region", row["h1"]
    else:
        row["region"], row["b_vs"] = "FRegion", row["f"]
    return row


def compare_row(got: dict, c: float, bits: bool) -> list[str]:
    """Compare parsed fields (floats or None) against reference_row(c)."""
    ref = reference_row(c)
    scale = 1 / log(2) if bits else 1
    problems = []
    if got.get("region") != ref["region"]:
        problems.append(f"c={c!r}: region {got.get('region')} != {ref['region']}")
    for key in ("c", "theta") + ENTROPY_FIELDS:
        want = ref[key]
        if key in ENTROPY_FIELDS and want is not None:
            want = want * scale
        have = got.get(key)
        if (want is None) != (have is None):
            problems.append(f"c={c!r}: {key} = {have!r}, expected {want}")
        elif want is not None and abs(have - want) > ABS_TOL:
            problems.append(f"c={c!r}: {key} = {have!r} differs from {float(want)!r}")
    return problems


# --- parsers ----------------------------------------------------------------


def _num(text: str):
    return None if text.strip() in ("", "None") else float(text)


def _parse_eval_text(out: str) -> dict:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key.strip()] = value.strip()
    rec = {k: _num(v) for k, v in fields.items() if k not in ("region", "unit")}
    rec["region"] = fields.get("region")
    rec["unit"] = fields.get("unit")
    return rec


_VERIFY_LINE = re.compile(r"^(PASS|FAIL) (\w+) (?:c=(\S+)|dim=(\d+))?")
_RESULT_LINE = re.compile(r"^RESULT: (\d+) passed, (\d+) failed$")


def parse_verify(out: str) -> dict:
    """PASS/FAIL lines as (status, suite, c or None, line), the RESULT counts,
    and the summed sample counts of random-suite lines."""
    lines, result, samples = [], None, 0
    for line in out.splitlines():
        m = _VERIFY_LINE.match(line)
        if m:
            lines.append((m.group(1), m.group(2), _num(m.group(3)) if m.group(3) else None, line))
            s = re.search(r" samples=(\d+) ", line)
            samples += int(s.group(1)) if s else 0
        r = _RESULT_LINE.match(line)
        if r:
            result = (int(r.group(1)), int(r.group(2)))
    return {"lines": lines, "result": result, "samples": samples}


def random_margins(op, out: str) -> str:
    """The random suite's per-dimension tightest margins and overlaps, which
    must repeat exactly for the same --seed."""
    lines = [line for line in out.splitlines() if " random dim=" in line]
    return f"random margins seed={op.argv[-1]}: " + " | ".join(lines)


# --- per-operation checks ---------------------------------------------------


class Outcome:
    """What one operation produced: problems (a failed operation when any),
    units of work done, and known failures observed."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.work = 0
        self.known: list[str] = []


def check_op(op, code: int, out: str, err: str) -> Outcome:
    res = Outcome()
    try:
        _CHECKS[op.kind](op, code, out, err, res)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, OSError) as exc:
        res.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return res


def _expect_ok(code: int, err: str, res: Outcome) -> bool:
    if code != 0:
        res.problems.append(f"exit code {code}: {err.strip()[-200:]}")
    return code == 0


def _check_eval(op, code, out, err, res):
    res.work = 1
    if not _expect_ok(code, err, res):
        return
    as_json = "--json" in op.argv
    bits = "--bits" in op.argv
    rec = json.loads(out) if as_json else _parse_eval_text(out)
    if rec["unit"] != ("bits" if bits else "nats"):
        res.problems.append(f"unit {rec['unit']!r}")
    res.problems += compare_row(rec, op.c_list[0], bits)


def _check_constants(op, code, out, err, res):
    res.work = 1
    if not _expect_ok(code, err, res):
        return
    values = dict(re.findall(r"^(c_star|c_dagger) = (\S+)$", out, re.M))
    for name, ref in (("c_star", c_star()), ("c_dagger", c_dagger())):
        if abs(float(values[name]) - ref) > 1e-11:  # printed to 12 digits
            res.problems.append(f"{name} = {values[name]} differs from {float(ref)!r}")


def _check_critique(op, code, out, err, res):
    res.work = 1
    if not _expect_ok(code, err, res):
        return
    c = op.c_list[0]
    head = re.match(r"c = (\S+)  theta = (\S+)\nadmissible interval for P_A: \((\S+), (\S+)\)", out)
    cm = mpf(c)
    if abs(float(head.group(2)) - acos(cm)) > ABS_TOL:
        res.problems.append(f"critique c={c!r}: theta {head.group(2)}")
    if abs(float(head.group(4)) - (cm + sqrt(1 - cm**2)) ** 2 / 2) > ABS_TOL:
        res.problems.append(f"critique c={c!r}: interval end {head.group(4)}")
    roots = re.findall(r"residual = (\S+)  (\S+)", out)
    if not roots:
        res.problems.append(f"critique c={c!r}: no roots reported")
    for residual, status in roots:
        if float(residual) > ABS_TOL or status == "admissible":
            res.problems.append(f"critique c={c!r}: root {status} with residual {residual}")


def _check_sweep(op, code, out, err, res):
    if not _expect_ok(code, err, res):
        return
    with open(op.out, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != SWEEP_HEADER:
        res.problems.append(f"sweep header {rows[0]}")
    body = rows[1:]
    res.work = len(body)
    if len(body) != op.rows:
        res.problems.append(f"sweep wrote {len(body)} rows, expected {op.rows}")
    for k in op.sample_rows:
        rec = {name: _num(v) for name, v in zip(SWEEP_HEADER[:-1], body[k])}
        rec["region"] = body[k][-1]
        res.problems += compare_row(rec, rec["c"], bits=False)


def _check_verify(op, code, out, err, res):
    parsed = parse_verify(out)
    lines = parsed["lines"]
    res.work = parsed["samples"] if op.kind == "random" else len(lines)
    fails = [(suite, c, line) for status, suite, c, line in lines if status == "FAIL"]
    unknown = [line for suite, c, line in fails if c is None or not known_failure(suite, c)]
    res.known += [line for suite, c, line in fails if c is not None and known_failure(suite, c)]
    if code == 2 and any(known_failure(op.kind, c) for c in op.c_list):
        res.known.append(f"exit 2 {op.kind} c-list {op.c_list}: {err.strip()[-120:]}")
        return
    if code not in (0, 4) or parsed["result"] is None:
        res.problems.append(f"exit code {code}: {err.strip()[-200:]}")
        return
    if parsed["result"] != (len(lines) - len(fails), len(fails)):
        res.problems.append(f"RESULT {parsed['result']} does not match the check lines")
    if (code == 4) != bool(fails):
        res.problems.append(f"exit code {code} with {len(fails)} failed checks")
    res.problems += [f"unexpected failure: {line}" for line in unknown]
    if op.kind == "random" and {int(m) for m in re.findall(r" dim=(\d+) ", out)} != {2, 3, 4, 5}:
        res.problems.append("random suite did not report dims 2..5")


_CHECKS = {
    "eval": _check_eval,
    "constants": _check_constants,
    "critique": _check_critique,
    "sweep": _check_sweep,
    "random": _check_verify,
    "grid": _check_verify,
    "qubit": _check_verify,
    "shape": _check_verify,
    "critique_suite": _check_verify,
}
