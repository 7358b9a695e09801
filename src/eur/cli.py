"""Command-line front end.

    eur eval      --c C [--bits] [--json]
    eur constants [--json]
    eur sweep     --from A --to B --step S --out FILE [--bits]
    eur verify    --suite {grid,qubit,shape,random,critique,all}
                  [--c-list C ...] [--tol T] [--grid N] [--seed S]
    eur critique  --c C [--json]

Exit codes: 0 success, 2 domain error or failed write (to --out or
stdout), 3 solver failure (no convergence or no bracket), 4 verification
failure.  Defaults for --tol and --grid can also come from the environment
(EUR_TOL, EUR_GRID); explicit flags win.  The random suite runs BLAS on one
thread (OPENBLAS_NUM_THREADS=1) unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS
or OMP_NUM_THREADS is set.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import math
import os
import sys
from typing import Iterator, NamedTuple, Optional, Sequence

from . import core, solve
from .errors import BracketError, ConvergenceError, DomainError, EurError

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_VERIFY = 4

# exit code by error class, looked up along the raised class's MRO
_EXIT_CODES = {
    DomainError: EXIT_DOMAIN,
    BracketError: EXIT_CONVERGENCE,
    ConvergenceError: EXIT_CONVERGENCE,
}

# One row of `eval` and `sweep`; every column after theta is an entropy.
_COLUMNS = ("c", "theta", "b_mu", "f", "g", "lattice", "m_inf", "h1", "b_vs")

# The region tags, looked up once: on CPython 3.11 each lookup of an Enum
# member takes about 0.15 us, and a sweep row would make five.
_MU, _H1, _F = solve.RegionTag

_RANDOM_DIMS = (2, 3, 4, 5)
_RANDOM_SAMPLES = 10_000
_DEFAULT_SEED = 1234


def _setting(flag, name: str, kind: type, noun: str, default):
    """The flag if given, else environment variable `name` parsed by `kind`,
    else the default."""
    if flag is not None:
        return flag
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return kind(raw)
    except ValueError:
        raise DomainError(f"environment variable {name} is not {noun}: {raw!r}")


# An `eval` or `sweep` cell holding x prints _CELL % x: 12 significant digits.
_CELL = "%.12g"

# The _COLUMNS that each region leaves blank: m_inf outside the MU region, h1
# outside the H1 region.
_BLANKS = {_MU: ("h1",), _H1: ("m_inf",), _F: ("m_inf", "h1")}


def _line_template(tag: solve.RegionTag) -> str:
    """The %-template of a `sweep` line in region `tag`: _CELL for each of the
    _COLUMNS that the region fills, an empty field for each of _BLANKS[tag],
    then the region label."""
    blanks = _BLANKS[tag]
    return ",".join(["" if col in blanks else _CELL for col in _COLUMNS] + [str(tag)]) + "\n"


def _cells(c: float, tag: solve.RegionTag, nats: float, bits: bool) -> tuple[float, ...]:
    """The values of the _COLUMNS that region `tag` fills, at overlap c, whose
    b_vs value is `nats`; entropies in nats, or in bits.  Each closed form
    runs once, as its core kernel, without its checks: b_vs is b_mu in the MU
    region and f_bound in the F region, and g and lattice share 1/c^2.  So c
    must lie in `tag`, and 1/c^2 must be finite.  Nothing can fail in the
    conversion to bits then: every entropy is finite, below 710 nats."""
    c2 = c * c
    inv_c2 = 1.0 / c2
    theta, g, lattice = math.acos(c), core._h_min(c2, inv_c2), core._lattice_bound(inv_c2)
    if tag is _MU:
        cells = (c, theta, nats, core._f_bound(c), g, lattice, core._m_inf(c), nats)
    elif tag is _H1:
        cells = (c, theta, core._b_mu(c), core._f_bound(c), g, lattice, nats, nats)
    else:
        cells = (c, theta, core._b_mu(c), nats, g, lattice, nats)
    if bits:
        return (c, theta, *map(core._nats_to_bits, cells[2:]))
    return cells


def _print_json(obj) -> None:
    """Print obj as one JSON line; json is loaded only by a --json command."""
    import json

    print(json.dumps(obj))


def cmd_eval(args: argparse.Namespace) -> int:
    report = solve.b_vs(args.c)  # validates c
    core._inverse_square(args.c)  # g_bound's and lattice_bound's error if c^2 is too small
    tag, witness = report.region.tag, report.witness
    values, blanks = iter(_cells(args.c, tag, report.nats, args.bits)), _BLANKS[tag]
    rec = {col: None if col in blanks else next(values) for col in _COLUMNS}
    rec["region"] = str(tag)
    rec["witness_p_a"] = witness[0] if witness else None
    rec["witness_p_b"] = witness[1] if witness else None
    rec["unit"] = "bits" if args.bits else "nats"
    if args.json:
        _print_json(rec)
        return EXIT_OK
    width = max(map(len, rec))
    for k, v in rec.items():
        text = "" if v is None else v if isinstance(v, str) else _CELL % v
        print(f"{k:<{width}} = {text}")
    return EXIT_OK


def cmd_constants(args: argparse.Namespace) -> int:
    rows = {"c_star": solve.c_star(), "c_dagger": solve.c_dagger()}
    if args.json:
        _print_json(
            {
                name: {
                    "value": rr.root,
                    "residual": rr.residual,
                    "bracket_lo": rr.bracket[0],
                    "bracket_hi": rr.bracket[1],
                    "iterations": rr.iterations,
                }
                for name, rr in rows.items()
            }
        )
        return EXIT_OK
    for name, rr in rows.items():
        print(f"{name} = {rr.root:.12g}")
        print(f"  residual   = {rr.residual:.3e}")
        print(f"  bracket    = [{rr.bracket[0]:.12g}, {rr.bracket[1]:.12g}]")
        print(f"  iterations = {rr.iterations}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    """Write the _COLUMNS of every overlap from --from to --to in steps of
    --step, and the region label, as CSV to --out.  Each row is one %
    operation on its region's line template with the row's _cells, which
    prints each value as an `eval` cell does."""
    lo, hi, step = args.from_, args.to, args.step
    if not (0.0 < lo < hi <= 1.0 and step > 0.0):
        raise DomainError(f"need 0 < from < to <= 1 and step > 0, got {lo}, {hi}, {step}")
    if step == math.inf:
        raise DomainError("step must be finite, got inf")
    span = (hi - lo) / step
    if not math.isfinite(span) or lo + step == lo:
        raise DomainError(f"step {step} is too small to advance from {lo} to {hi}")
    # every row has from <= c <= to <= 1, where b_vs accepts c and 1/c^2 is at
    # most 1/from^2: this one check, before --out is created, covers them all
    core._inverse_square(lo)
    mu_end, h1_end = solve._region_edges()
    mu_line, h1_line, f_line = map(_line_template, (_MU, _H1, _F))
    try:
        with open(args.out, "w", newline="") as out:
            out.write(",".join([*_COLUMNS, "region"]) + "\n")
            for k in itertools.count():
                c = lo + k * step
                if k and abs(c - hi) < step * 1e-6:  # row 0 stays at `from`
                    c = hi  # snap the final sample; k*step can overshoot by ulps
                elif c > hi:
                    break
                # the rows run kernels only, but for the H1 solve, which keeps
                # its mirrored-value check behind b_vs
                if c < mu_end:
                    tag, nats, line = _MU, core._b_mu(c), mu_line
                elif c < h1_end:
                    tag, nats, line = _H1, solve.b_vs(c).nats, h1_line
                else:
                    tag, nats, line = _F, core._f_bound(c), f_line
                out.write(line % _cells(c, tag, nats, args.bits))
    except OSError as exc:
        return _cannot_write(args.out, exc)
    return EXIT_OK


def cmd_critique(args: argparse.Namespace) -> int:
    report = solve.critique_report(args.c)
    if args.json:
        _print_json(
            {
                "c": report.c,
                "theta": report.theta,
                "interval_lo": report.interval[0],
                "interval_hi": report.interval[1],
                "roots": [r._asdict() for r in report.roots],
            }
        )
        return EXIT_OK
    print(f"c = {report.c:.12g}  theta = {report.theta:.12g}")
    print(f"admissible interval for P_A: ({report.interval[0]:.12g}, {report.interval[1]:.12g})")
    if not report.roots:
        print("no nontrivial stationarity roots found")
        return EXIT_OK
    for r in report.roots:
        status = "admissible" if r.admissible else f"INADMISSIBLE ({r.violated_constraint})"
        print(
            f"  alpha = {r.alpha: .12g}  P_A = {r.p_a:.6f}  P_B = {r.p_b:.6f}  "
            f"residual = {r.residual:.2e}  {status}"
        )
    return EXIT_OK


class Check(NamedTuple):
    """One line of `eur verify` output; passed=None marks an INFO line."""

    suite: str
    passed: Optional[bool]
    text: str

    def line(self) -> str:
        status = "INFO" if self.passed is None else "PASS" if self.passed else "FAIL"
        return f"{status} {self.suite} {self.text}"


# Every runner takes (c_list, tol, grid_n, seed) and ignores what its suite
# does not use; _SUITES passes None for a tolerance or grid it has no default for.


def _grid_checks(c_list, tol, grid_n, seed) -> Iterator[Check]:
    from . import oracle

    for c in c_list:
        rep = oracle.grid_min(c, points_per_axis=grid_n)
        if solve.classify_region(c).tag is not _MU:
            passed = abs(rep.gap) <= tol
            desc = f"|oracle-analytic| = {abs(rep.gap):.3e}"
        else:
            m = core.m_inf(c)  # the endpoint infimum, under b_vs = -2 ln c
            passed = rep.oracle_min <= m + tol and rep.oracle_min < rep.analytic_ref
            desc = (
                f"min = {rep.oracle_min:.6f} vs endpoint-infimum {m:.6f} "
                f"(excess {rep.oracle_min - m:.3e})"
            )
        yield Check("grid", passed, f"c={c:g} {desc} (tol {tol:g})")


def _qubit_checks(c_list, tol, grid_n, seed) -> Iterator[Check]:
    from . import oracle

    for c in c_list:
        gap = abs(oracle.qubit_min(c).gap)
        yield Check("qubit", gap <= tol, f"c={c:g} |oracle-analytic| = {gap:.3e} (tol {tol:g})")


def _shape_checks(c_list, tol, grid_n, seed) -> Iterator[Check]:
    from . import oracle

    for c in c_list:
        tag = solve.classify_region(c).tag
        s = oracle.shape_check(c, grid=max(grid_n, 1000))
        # the bounds are fixed, and --tol does not reach them
        extremum, sign = ("minimum", 1.0) if tag is _F else ("maximum", -1.0)
        changes = 3 if tag is _H1 else 1
        failed = []
        if s.n_steps_not_falling or s.n_sign_changes != 1 or s.n_zero_offset > 2.0:
            failed.append(
                f"clause (a): slope control has {s.n_steps_not_falling} non-falling steps, "
                f"{s.n_sign_changes} sign changes, zero {s.n_zero_offset:.3g} steps from (1+c)/2"
            )
        if s.k_steps_not_rising or s.k_steps_not_falling:
            failed.append(
                f"clause (b): curvature function has {s.k_steps_not_rising} non-rising steps "
                f"before the peak and {s.k_steps_not_falling} non-falling steps after it"
            )
        if s.k_endpoint_gap > 1e-8:
            failed.append(f"clause (c): endpoint values differ by {s.k_endpoint_gap:.3e}")
        if s.e1_sign_changes != changes:
            failed.append(f"clause (d): {s.e1_sign_changes} sign changes, expected {changes}")
        if not (sign * s.m1_step_below > 0.0 and sign * s.m1_step_above > 0.0):
            failed.append(
                f"clause (e): expected a {extremum} at (1+c)/2, objective steps "
                f"{s.m1_step_below:.3e} below and {s.m1_step_above:.3e} above"
            )
        if failed:
            yield Check("shape", False, f"c={c:g} {'; '.join(failed)} at c = {c!r}")
        else:
            yield Check(
                "shape",
                True,
                f"c={c:g} sign-changes={s.e1_sign_changes} "
                f"extremum={extremum} endpoint-gap={s.k_endpoint_gap:.2e}",
            )
    limit = oracle.delta_m_inf_limit()
    for c, diff in limit:
        if diff <= 0.0:
            yield Check("shape", False, f"margin b_mu - m_inf = {diff:.3e} at c={c!r} not positive")
    yield Check(
        "shape",
        None,
        f"measured limit of b_mu - m_inf toward 1/sqrt(2) is {limit[-1][1]:.3e} "
        "(converges to 0; the difference stays positive on the open interval)",
    )


# The variables that set OpenBLAS's thread count when numpy loads it; the
# first one set wins.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _random_checks(c_list, tol, grid_n, seed) -> Iterator[Check]:
    # Every BLAS call of the random oracle is on a 5x5 matrix or smaller, so a
    # second BLAS thread only spins: one thread cuts the suite's CPU time by
    # about 30% at the same wall time and the same output.  A thread count
    # the user set, or a numpy already loaded, is left alone.
    if "numpy" not in sys.modules and not any(var in os.environ for var in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from . import oracle

    for dim in _RANDOM_DIMS:
        summary = oracle.random_state_check(dim, _RANDOM_SAMPLES, seed)
        yield Check(
            "random",
            summary.min_margin >= -tol,
            f"dim={dim} samples={summary.samples} tightest margin = "
            f"{summary.min_margin:.3e} at c = {summary.argmin_overlap:.4f} (tol {tol:g})",
        )


def _critique_checks(c_list, tol, grid_n, seed) -> Iterator[Check]:
    for c in c_list:
        rep = solve.critique_report(c)
        nontrivial = len(rep.roots)
        all_flagged = nontrivial > 0 and rep.inadmissible_count == nontrivial
        residual_ok = all(r.residual <= tol for r in rep.roots)
        yield Check(
            "critique",
            all_flagged and residual_ok,
            f"c={c:g} roots={nontrivial} inadmissible={rep.inadmissible_count} max-residual="
            f"{max((r.residual for r in rep.roots), default=0.0):.2e} (tol {tol:g})",
        )


# suite -> (runner, default c-list, default tol, default grid), in `--suite all` order
_SUITES = {
    "grid": (_grid_checks, (0.3, 0.5, 0.65, 0.75, 0.80, 0.90, 0.99), 1e-9, 2001),
    "qubit": (_qubit_checks, (0.71, 0.75, 0.80, 0.8336, 0.87, 0.95, 0.99), 1e-6, None),
    "shape": (_shape_checks, (0.5, 0.8, 0.9), None, 10_000),
    "random": (_random_checks, (), 1e-9, None),
    "critique": (_critique_checks, (0.3, 0.5, 0.6), 1e-10, None),
}


def cmd_verify(args: argparse.Namespace) -> int:
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    # a suite with no default c-list draws its own overlaps
    self_drawn = [suite for suite in suites if not _SUITES[suite][1]]
    if args.c_list is not None and self_drawn:
        raise DomainError(
            f"the {self_drawn[0]} suite draws its own overlaps; --c-list does not apply"
        )
    if args.seed < 0:
        raise DomainError(f"--seed must be a non-negative integer, got {args.seed}")
    # every setting is resolved and checked before the first suite runs
    runs = []
    for suite in suites:
        run, c_list, tol, grid_n = _SUITES[suite]
        if tol is not None:
            tol = _setting(args.tol, "EUR_TOL", float, "a number", tol)
            if not 0.0 <= tol < math.inf:
                raise DomainError(f"tolerance must be finite and non-negative, got {tol!r}")
        if grid_n is not None:
            grid_n = _setting(args.grid, "EUR_GRID", int, "an integer", grid_n)
            if grid_n < 1:
                raise DomainError(f"grid must be a positive integer, got {grid_n}")
        runs.append((run, args.c_list or c_list, tol, grid_n))
    checks: list[Check] = []
    for run, c_list, tol, grid_n in runs:
        checks.extend(run(c_list, tol, grid_n, args.seed))
    for check in checks:
        print(check.line())
    n_pass = sum(check.passed is True for check in checks)
    n_fail = sum(check.passed is False for check in checks)
    print(f"RESULT: {n_pass} passed, {n_fail} failed")
    return EXIT_VERIFY if n_fail else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eur", description="entropic uncertainty bounds: evaluate, solve, verify"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate every bound at one overlap")
    p_eval.add_argument("--c", type=float, required=True, help="overlap in (0, 1]")
    p_eval.add_argument("--bits", action="store_true", help="report entropies in bits")
    p_eval.add_argument("--json", action="store_true", help="one JSON object instead of text")
    p_eval.set_defaults(func=cmd_eval)

    p_const = sub.add_parser("constants", help="solved critical overlaps with residuals")
    p_const.add_argument("--json", action="store_true")
    p_const.set_defaults(func=cmd_constants)

    p_sweep = sub.add_parser("sweep", help="CSV table of all bounds over a c range")
    p_sweep.add_argument("--from", dest="from_", type=float, required=True)
    p_sweep.add_argument("--to", type=float, required=True)
    p_sweep.add_argument("--step", type=float, required=True)
    p_sweep.add_argument("--out", type=str, required=True)
    p_sweep.add_argument("--bits", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run a brute-force verification suite")
    p_verify.add_argument("--suite", choices=[*_SUITES, "all"], required=True)
    p_verify.add_argument("--c-list", dest="c_list", type=float, nargs="+", default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--grid", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    p_verify.set_defaults(func=cmd_verify)

    p_crit = sub.add_parser("critique", help="constraint audit of the angle-equation roots")
    p_crit.add_argument("--c", type=float, required=True, help="overlap in (0, 1/sqrt(2))")
    p_crit.add_argument("--json", action="store_true")
    p_crit.set_defaults(func=cmd_critique)

    return parser


def _cannot_write(target: str, exc: OSError) -> int:
    print(f"error: cannot write {target}: {exc}", file=sys.stderr)
    return EXIT_DOMAIN


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # sweep writes only to --out; every other command prints its result
    writes_stdout = args.func is not cmd_sweep
    if writes_stdout and sys.stdout is None:
        # the process started with descriptor 1 closed: print would drop every line
        return _cannot_write("stdout", OSError(errno.EBADF, os.strerror(errno.EBADF)))
    try:
        code = args.func(args)
        if writes_stdout:
            sys.stdout.flush()  # a full disk or a closed pipe shows here, not at exit
        return code
    except EurError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)
    except OSError as exc:
        # only stdout is written outside cmd_sweep's own handler.  Point its
        # descriptor at devnull, as the `signal` module docs advise for a
        # broken pipe, so that the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _cannot_write("stdout", exc)


if __name__ == "__main__":
    sys.exit(main())
