"""Benchmark for the `eur` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from ./src).
With --trace 0 it drives the CLI as a user does: one fresh interpreter per
call, one call at a time (a closed loop with one client), for S seconds, and
reports the end-to-end metrics; their times are gated in units of a fixed
reference computation timed around each call, which cancels the host's speed
drift (README.md, "The reference").  With --trace 1 it replays the same generated
calls in-process through eur.cli.main with spans and counters around the
solve / oracle / core functions, and reports the per-layer metrics.  The last
line of standard output is one JSON object; README.md lists every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 11
RUN_DEADLINE_S = 170.0  # a call still running then is killed and counts as failed
STARTED = time.perf_counter()
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
REF_LOOP = 60_000
REF_SMALL = np.linspace(0.0, 1.0, 400_000)  # 3.2 MB: stays in cache
REF_SMALL_PASSES = 3
REF_LARGE = np.linspace(0.0, 1.0, 4_000_000)  # 32 MB, and fresh pages for each result
SETUP_CODE = (
    "import time, eur.cli, eur.solve\n"
    "eur.solve.c_star()\n"
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n"
)


def child_env() -> dict:
    """The caller's environment with ./src first on the path and the eur
    tolerance/grid overrides removed, so only generated inputs reach eur."""
    env = {k: v for k, v in os.environ.items() if k not in ("EUR_TOL", "EUR_GRID")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


class Spawner:
    """Runs children one at a time through launcher.py, a small helper
    process started once per run, so that each child's peak RSS is its own
    (see launcher.py).  Stops the helper and waits for it on close()."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def spawn(self, args: list[str]) -> dict:
        """Run one child to completion; wall time from spawn to reaped exit,
        and the child's CPU time and peak RSS from wait4."""
        out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
        request = {
            "argv": [sys.executable, *args],
            "env": self.env,
            "out": str(out_path),
            "err": str(err_path),
            "deadline": max(1.0, RUN_DEADLINE_S - (time.perf_counter() - STARTED)),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher.py exited early")
        res = json.loads(reply)
        return {
            "code": res["code"],
            "out": out_path.read_text(),
            "err": err_path.read_text(),
            "wall": res["wall"],
            "cpu": res["cpu"],
            "rss_mb": res["rss_kb"] / 1024.0,
        }

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=RUN_DEADLINE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def reference() -> float:
    """Seconds this process takes for a fixed piece of work: a pure-Python
    loop, numpy passes over an array that fits in cache, and one over an
    array that does not, whose results land on freshly mapped pages as a
    new process's memory does (about 45 ms in all on a 2.1 GHz Xeon vCPU).
    No eur code runs in it, so a change to the program cannot move it; it
    tracks how fast the host is at that moment."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, REF_LOOP):
        acc += math.log(i) * i
    for _ in range(REF_SMALL_PASSES):
        acc += float((np.sin(REF_SMALL) * REF_SMALL).sum())
    acc += float((np.sqrt(REF_LARGE) * REF_LARGE).sum())
    return time.perf_counter() - t0


def setup_probe(spawner: Spawner) -> float:
    """Time from spawn to the first c_star() returning in a fresh interpreter
    (CLOCK_MONOTONIC is shared by all processes)."""
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    res = spawner.spawn(["-c", SETUP_CODE])
    if res["code"] != 0:
        raise RuntimeError(f"set-up child failed: {res['err'].strip()[-300:]}")
    return (int(res["out"]) - t0) / 1e9


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (None when
    the checkout is not a repository)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def environment(workload: str, seed: int) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "eur").glob("*.py")):
        src_hash.update(path.name.encode() + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "inputs_sha256": workloads.inputs_digest(workload, seed),
    }


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten operations above it, and
    its nearest-rank value; None when fewer than 20 operations ran."""
    n = len(values)
    if n < 20:
        return None
    pct = int(100 * (n - 10) / n)
    rank = max(1, -(-pct * n // 100))
    return pct, sorted(values)[rank - 1]


def run_closed_loop(workload: str, seed: int, seconds: float, spawner: Spawner) -> dict:
    """Issue generated calls one at a time until the next whole cycle of the
    workload would end past the time budget (at least one cycle); check each
    output after it exits.  Whole cycles keep the mix of call kinds fixed.

    The reference work runs right before the first call and right after
    each call and each set-up probe; a call's or probe's `ref` is the mean
    of the two around it.  Set-up probes are spread over the run (machine
    speed drifts over seconds) between calls, outside their timed windows."""
    records, failures, known, setups = [], [], [], []
    cycle = workloads.CYCLE.get(workload, 1)
    start = time.perf_counter()
    ref_before = reference()

    def ref_around() -> float:
        """Run the reference after a call or probe; return the mean of it and
        the one before that call or probe."""
        nonlocal ref_before
        ref_after = reference()
        ref, ref_before = (ref_before + ref_after) / 2, ref_after
        return ref

    for op in workloads.operations(workload, seed, str(WORK)):
        elapsed = time.perf_counter() - start
        while len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append((setup_probe(spawner), ref_around()))
        if records and len(records) % cycle == 0:
            est = cycle * statistics.median(r["wall"] for r in records)
            if elapsed + est > seconds:
                break
        res = spawner.spawn(["-m", "eur.cli", *op.argv])
        res["ref"] = ref_around()
        outcome = checks.check_op(op, res["code"], res["out"], res["err"])
        if op.out:
            Path(op.out).unlink(missing_ok=True)  # before writeback: no disk traffic in later calls
        res.update(op=op, work=outcome.work, failed=bool(outcome.problems))
        records.append(res)
        failures += [f"{' '.join(op.argv)[:120]}: {p}" for p in outcome.problems[:3]]
        known += outcome.known
    while len(setups) < SETUP_REPEATS:
        setups.append((setup_probe(spawner), ref_around()))
    cycles = [records[i : i + cycle] for i in range(0, len(records), cycle)]
    return {
        "records": records,
        "cycles": cycles,
        "failures": failures,
        "known": known,
        "setup_s": statistics.median(t for t, _ in setups),
        "setup_ref": statistics.median(t / ref for t, ref in setups),
    }


def report_untraced(args, env: dict) -> dict:
    spawner = Spawner(env)
    try:
        setup_probe(spawner)  # untimed warm-ups
        for _ in range(5):
            reference()
        loop = run_closed_loop(args.workload, args.seed, args.seconds, spawner)
    finally:
        spawner.close()
    recs = loop["records"]
    walls = [r["wall"] for r in recs]
    work = sum(r["work"] for r in recs)
    attempted, failed = len(recs), sum(r["failed"] for r in recs)
    metrics = {
        "setup_s": (loop["setup_s"], "s"),
        "setup_ref": (loop["setup_ref"], "ref"),
        "op_p50_ref": (statistics.median(r["wall"] / r["ref"] for r in recs), "ref"),
        "work_per_ref": (
            statistics.median(
                sum(r["work"] for r in cyc) / sum(r["wall"] / r["ref"] for r in cyc)
                for cyc in loop["cycles"]
            ),
            "1/ref",
        ),
        "cpu_ref_per_op": (statistics.median(r["cpu"] / r["ref"] for r in recs), "ref"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in recs), "MB"),
    }
    # The same in plain seconds, as a user on this host sees them (not gated:
    # the host's speed drifts by tens of percent over minutes).
    print(f"ref_s = {statistics.median(r['ref'] for r in recs):.6g} s (reference work, median over calls)")
    print(f"op_p50_s = {statistics.median(walls):.6g} s")
    print(f"{workloads.WORK_UNIT[args.workload]} = {work / sum(walls):.6g} 1/s")
    print(f"cpu_s_per_op = {statistics.median(r['cpu'] for r in recs):.6g} s")
    tl = tail(walls)
    if tl:
        print(f"op_tail_s = {tl[1]:.6g} s (p{tl[0]} of {attempted} operations)")
    else:
        print(f"op_tail_s not reported: {attempted} operations, fewer than 20")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}")
    if args.workload == "verify_random":
        for r in recs:
            print(checks.random_margins(r["op"], r["out"]))
    for line in loop["known"]:
        print("KNOWN-FAIL", line)
    for line in loop["failures"]:
        print("FAILED", line)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORK_UNIT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "eur" / "cli.py").is_file():
        print(f"error: no eur package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    print("env", json.dumps(environment(args.workload, args.seed)))
    try:
        if args.trace:
            sys.path.insert(0, str(SRC))
            import eur
            import trace_run

            if Path(eur.__file__).parent != SRC / "eur":
                raise RuntimeError(f"imported eur from {eur.__file__}, not from {SRC}")

            result = trace_run.report_traced(args, WORK, child_env())
        else:
            result = report_untraced(args, child_env())
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
