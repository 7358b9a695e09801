"""Traced run: per-layer metrics for one workload.

Two parts, both in this process with eur imported from ./src:

* Micro-timings, warm and untraced, of the public functions of each layer
  (cli, solve, oracle, core) on inputs drawn from the seed; a few of them
  under the tracer for counts and shares.  Every workload reports them.
* A replay of the workload's first generated calls through eur.cli.main,
  once untraced and once traced.  The tracer wraps each solve / oracle
  function at the module reference its callers use (a span: count, total
  and self time) and each core function reached from solve and oracle (a
  call counter only: those calls take a few microseconds).  Core functions
  that the cli module calls as `core.<name>` get spans, so that the cli
  row writer's own time can be separated from the bounds it prints.

Span self time is the span's duration minus its child spans'; the self times
of all spans add up to the traced replay's wall time up to the loop's own
overhead, which is checked against CLOSURE_MIN.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import checks
import workloads

REPLAY_OPS = {"interactive": 100, "sweep": 3, "verify_random": 1, "verify_scan": 8}
CLOSURE_MIN = 0.9  # sum of span self times over the traced replay wall time

SOLVE_SPANS = ("h1_bound", "critique_report")  # plus b_vs, shared with oracle
ORACLE_SPANS = ("grid_min", "qubit_min", "shape_check", "random_state_check", "delta_m_inf_limit")
CLI_CORE_SPANS = ("b_mu", "f_bound", "g_bound", "lattice_bound", "m_inf")
SOLVE_COUNTERS = (
    "e_function", "p_b_of_p_a", "binary_entropy", "f_bound", "b_mu", "admissible_interval",
    "eqc_overlap",
)
SOLVE_OWN_COUNTERS = ("eqsin_residual", "find_root")  # solve calling itself, not core
ORACLE_COUNTERS = (
    "e_function", "n_function", "k_function", "p_b_of_p_a", "binary_entropy", "m1_objective",
    "m_inf", "b_mu", "g_bound", "lattice_bound", "admissible_interval",
)
CORE_NS = ("e_function", "n_function", "k_function", "p_b_of_p_a", "h_min", "f_bound", "binary_entropy")


class Tracer:
    """Spans aggregated by name: [calls, total ns, self ns]; counters by
    '<calling module>:<function>'; time inside H1-region b_vs calls."""

    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = {}
        self.counts: Counter = Counter()
        self.h1_ns = 0
        self._open: list[int] = []  # child time accumulated by each open span

    def span(self, name, fn, on_exit=None):
        stats = self.spans.setdefault(name, [0, 0, 0])
        stack, clock = self._open, time.perf_counter_ns

        def wrapped(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                if stack:
                    stack[-1] += dur
                if on_exit is not None and result is not None:
                    on_exit(result, dur)

        return wrapped

    def counter(self, name, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0, 0])[2] / 1e9

    def total_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0, 0])[1] / 1e9


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers on eur's module references; restore the
    originals on exit."""
    import numpy as np

    from eur import cli, core, oracle, solve

    def on_b_vs(report, dur):
        if report.region.tag is solve.RegionTag.H1:
            tracer.h1_ns += dur

    saved = []

    def patch(module, attr, make):
        # a reference the module no longer has is simply not traced
        if hasattr(module, attr):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, make(getattr(module, attr)))

    b_vs = tracer.span("solve.b_vs", solve.b_vs, on_b_vs)
    patch(solve, "b_vs", lambda fn: b_vs)
    patch(oracle, "b_vs", lambda fn: b_vs)
    for name in SOLVE_SPANS:
        patch(solve, name, lambda fn, n=name: tracer.span(f"solve.{n}", fn))
    for name in ORACLE_SPANS:
        patch(oracle, name, lambda fn, n=name: tracer.span(f"oracle.{n}", fn))
    for name in CLI_CORE_SPANS:
        patch(core, name, lambda fn, n=name: tracer.span(f"core.{n}", fn))
    patch(np.linalg, "qr", lambda fn: tracer.span("numpy.linalg.qr", fn))
    for name in SOLVE_COUNTERS + SOLVE_OWN_COUNTERS:
        patch(solve, name, lambda fn, n=name: tracer.counter(f"solve:{n}", fn))
    for name in ORACLE_COUNTERS:
        patch(oracle, name, lambda fn, n=name: tracer.counter(f"oracle:{n}", fn))
    main = tracer.span("cli.main", cli.main)
    try:
        yield main
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def call_main(main, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def per_call(fn, args_list, min_s=0.05, rounds=5) -> float:
    """Median over rounds of the mean seconds per call of fn(*args), cycling
    through args_list; each round runs at least min_s."""
    reps = len(args_list)
    t0 = time.perf_counter()
    for args in args_list:
        fn(*args)
    one = max(time.perf_counter() - t0, 1e-9)
    loops = max(1, math.ceil(min_s / one))
    results = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(loops):
            for args in args_list:
                fn(*args)
        results.append((time.perf_counter() - t0) / (loops * reps))
    return statistics.median(results)


def _probe(args: list[str], env: dict, repeats: int) -> list[subprocess.CompletedProcess]:
    outs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"probe {args} failed: {proc.stderr.strip()[-300:]}")
        outs.append(proc)
    return outs


def process_probes(env: dict) -> dict:
    """Interpreter start, eur.cli import and numpy's share of it, each the
    median over fresh interpreters."""
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        _probe(["-c", "pass"], env, 1)
        walls.append(time.perf_counter() - t0)
    code = "import time; t = time.perf_counter(); import eur.cli; print(time.perf_counter() - t)"
    imports = [float(p.stdout) for p in _probe(["-c", code], env, 5)]
    numpy_us = []
    for proc in _probe(["-X", "importtime", "-c", "import eur.cli"], env, 3):
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                numpy_us.append(int(parts[1]))
    return {
        "cli.interp_s": (statistics.median(walls), "s"),
        "cli.import_s": (statistics.median(imports), "s"),
        # 0 once `import eur.cli` no longer imports numpy
        "cli.numpy_import_s": (statistics.median(numpy_us) / 1e6 if numpy_us else 0.0, "s"),
    }


def micro(rng: random.Random, work: Path) -> dict:
    """Warm in-process timings and counts, independent of the workload."""
    from eur import cli, core, oracle, solve

    inv, cs = workloads.INV_SQRT2, workloads.C_STAR
    mu = [inv * (1 - rng.random()) for _ in range(50)]
    h1 = [inv + (cs - inv) * rng.random() for _ in range(50)]
    f = [cs + (1 - cs) * (1 - rng.random()) for _ in range(50)]
    m = {}

    def quiet(argv):
        call_main(cli.main, argv)

    m["cli.main_ms.eval"] = (1e3 * per_call(quiet, [(("eval", "--c", repr(c)),) for c in mu[:5] + h1[:5] + f[:5]]), "ms")
    m["cli.main_ms.constants"] = (1e3 * per_call(quiet, [(("constants",),)]), "ms")
    crit = [(("critique", "--c", repr(c)),) for c in mu[:2]]
    m["cli.main_ms.critique"] = (1e3 * per_call(quiet, crit, rounds=3), "ms")

    lo = round(0.40 + 0.10 * rng.random(), 5)
    sweep = ("sweep", "--from", repr(lo), "--to", repr(round(lo + 0.1, 5)), "--step", "2e-05",
             "--out", str(work / "micro.csv"))
    m["cli.sweep_row_us"] = (1e6 * per_call(quiet, [(sweep,)], rounds=3) / 5001, "us")
    tr = Tracer()
    with traced(tr) as main:
        call_main(main, sweep)
    m["cli.sweep_self_share"] = (tr.self_s("cli.main") / tr.total_s("cli.main"), "ratio")

    def cold_c_star():
        getattr(solve.c_star, "cache_clear", lambda: None)()
        solve.c_star()

    m["solve.c_star_cold_ms"] = (1e3 * per_call(cold_c_star, [()]), "ms")
    for region, cs_ in (("mu", mu), ("h1", h1), ("f", f)):
        m[f"solve.b_vs_us.{region}"] = (1e6 * per_call(solve.b_vs, [(c,) for c in cs_]), "us")
    tr = Tracer()
    with traced(tr):
        for c in h1:
            solve.b_vs(c)
    m["solve.h1_e_evals"] = (tr.counts["solve:e_function"] / len(h1), "count")
    crit_c = mu[:3]
    m["solve.critique_report_ms"] = (1e3 * per_call(solve.critique_report, [(c,) for c in crit_c], rounds=3), "ms")
    tr = Tracer()
    with traced(tr):
        kept = sum(len(solve.critique_report(c).roots) for c in crit_c)
    m["solve.eqsin_evals"] = (tr.counts["solve:eqsin_residual"] / len(crit_c), "count")
    m["solve.eqsin_refine_useful"] = (kept / tr.counts["solve:find_root"], "ratio")

    grid_c = [1 - rng.random() for _ in range(3)]
    qubit_c = [inv + (1 - inv) * (1 - rng.random()) for _ in range(5)]
    shape_c = [0.75 + 0.2 * rng.random(), 0.1 + 0.5 * rng.random()]
    m["oracle.grid_min_ms"] = (1e3 * per_call(oracle.grid_min, [(c,) for c in grid_c], rounds=3), "ms")
    m["oracle.qubit_min_ms"] = (1e3 * per_call(oracle.qubit_min, [(c,) for c in qubit_c], rounds=3), "ms")
    m["oracle.shape_check_ms"] = (1e3 * per_call(oracle.shape_check, [(c,) for c in shape_c], rounds=3), "ms")
    tr = Tracer()
    with traced(tr):
        for c in shape_c:
            oracle.shape_check(c)
    scalar = sum(tr.counts[f"oracle:{n}"] for n in ("n_function", "k_function", "e_function"))
    m["oracle.shape_scalar_calls"] = (scalar / len(shape_c), "count")

    samples = 1000
    seed = rng.randrange(2**31)
    for dim in (2, 3, 4, 5):
        t0 = time.perf_counter()
        oracle.random_state_check(dim, samples, seed)
        m[f"oracle.random_us_per_sample.d{dim}"] = (1e6 * (time.perf_counter() - t0) / samples, "us")
    tr = Tracer()
    with traced(tr):
        for dim in (2, 3, 4, 5):
            oracle.random_state_check(dim, samples, seed)
    total = tr.total_s("oracle.random_state_check")
    m["oracle.random_bvs_share"] = (tr.total_s("solve.b_vs") / total, "ratio")
    m["oracle.random_qr_share"] = (tr.total_s("numpy.linalg.qr") / total, "ratio")

    args = {
        "e_function": [(core.admissible_interval(c).lo + 0.3 * (1 - c * c), c) for c in h1[:10]],
        "n_function": [(0.5 * (1 + c) - 0.01, c) for c in h1[:10]],
        "k_function": [(0.5 * (1 + c) - 0.01, c) for c in h1[:10]],
        "p_b_of_p_a": [(0.5 * (1 + c), c) for c in h1[:10]],
        "h_min": [(p,) for p in (rng.random() * 0.999 + 0.001 for _ in range(10))],
        "f_bound": [(c,) for c in f[:10]],
        "binary_entropy": [(rng.random(),) for _ in range(10)],
    }
    for name in CORE_NS:
        m[f"core.{name}_ns"] = (1e9 * per_call(getattr(core, name), args[name], min_s=0.02), "ns")
    return m


def replay(workload: str, seed: int, work: Path) -> dict:
    """The workload's first REPLAY_OPS calls through eur.cli.main, untraced
    then traced; both outputs are checked and must be identical."""
    from eur import cli

    ops = list(islice(workloads.operations(workload, seed, str(work)), REPLAY_OPS[workload]))
    plain, t0 = [], time.perf_counter()
    for op in ops:
        plain.append(call_main(cli.main, op.argv))
    untraced_s = time.perf_counter() - t0

    tracer, problems, known, outputs = Tracer(), [], [], []
    with traced(tracer) as main:
        t0 = time.perf_counter()
        for op in ops:
            outputs.append(call_main(main, op.argv))
        traced_s = time.perf_counter() - t0
    failed = 0
    for op, before, (code, out, err) in zip(ops, plain, outputs):
        outcome = checks.check_op(op, code, out, err)
        bad = list(outcome.problems)
        if (code, out) != before[:2]:
            bad.append("traced output differs from untraced output")
        failed += bool(bad)
        problems += [f"{' '.join(op.argv)[:120]}: {p}" for p in bad[:3]]
        known += outcome.known
    return {
        "ops": ops, "outputs": outputs, "tracer": tracer, "untraced_s": untraced_s,
        "traced_s": traced_s, "failed": failed, "problems": problems, "known": known,
    }


def report_traced(args, work: Path, env: dict) -> dict:
    rng = random.Random(f"micro-{args.seed}")
    metrics = process_probes(env)
    metrics.update(micro(rng, work))
    rep = replay(args.workload, args.seed, work)
    tr, traced_s = rep["tracer"], rep["traced_s"]
    closure = sum(s[2] for s in tr.spans.values()) / 1e9 / traced_s
    core_calls = sum(n for k, n in tr.counts.items() if k.split(":")[1] not in SOLVE_OWN_COUNTERS)
    core_calls += sum(tr.spans.get(f"core.{n}", [0])[0] for n in CLI_CORE_SPANS)
    metrics.update(
        {
            "trace.replay_s": (rep["untraced_s"], "s"),
            "trace.overhead": (traced_s / rep["untraced_s"], "ratio"),
            "trace.closure": (closure, "ratio"),
            "solve.h1_share": (tr.h1_ns / 1e9 / traced_s, "ratio"),
            "self_s.cli.main": (tr.self_s("cli.main"), "s"),
            "self_s.solve.b_vs": (tr.self_s("solve.b_vs"), "s"),
            "core.calls_per_op": (core_calls / len(rep["ops"]), "count"),
        }
    )
    print(f"replayed {len(rep['ops'])} calls: untraced {rep['untraced_s']:.4f} s, traced {traced_s:.4f} s")
    for name, (calls, total, own) in sorted(tr.spans.items()):
        print(f"self_s.{args.workload}.{name} = {own / 1e9:.6g} s  (calls {calls}, total {total / 1e9:.6g} s)")
    for name, calls in sorted(tr.counts.items()):
        print(f"count.{args.workload}.{name} = {calls}")
    if args.workload == "verify_random":
        for op, (_, out, _) in zip(rep["ops"], rep["outputs"]):
            print(checks.random_margins(op, out))
    for line in rep["known"]:
        print("KNOWN-FAIL", line)
    for line in rep["problems"]:
        print("FAILED", line)
    closed = CLOSURE_MIN <= closure <= 1.0 + 1e-9
    print(f"closure: span self times cover {closure:.4f} of the traced replay (required >= {CLOSURE_MIN})")
    return {
        "correct": rep["failed"] == 0 and closed,
        "attempted": len(rep["ops"]),
        "failed": rep["failed"],
        "metrics": metrics,
    }
