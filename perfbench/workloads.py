"""Seeded input generators, one per workload.

Every workload is an endless, deterministic sequence of `eur` CLI calls drawn
from `random.Random("<workload>-<seed>")`; a run takes as many as fit in its
time budget.  The same seed always yields the same sequence.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator

INV_SQRT2 = math.sqrt(0.5)
C_STAR = 0.8335565596009647  # root of c ln((1+c)/(1-c)) = 2

SWEEP_ROWS = 25_001  # 0.5-wide range at step 2e-5
SWEEP_STEP = 2e-5
SWEEP_CHECKED_ROWS = 16
SCAN_CYCLE = (("grid", 4), ("qubit", 16), ("shape", 2), ("critique", 4))  # (suite, list length)
# Runs end on a whole cycle, so the median over a run's calls always sees the
# same mix of call kinds.
CYCLE = {"verify_scan": len(SCAN_CYCLE)}

# Workload names, with the unit of work each counts in work_per_ref (why each
# workload exists: README.md and BENCHMARK.json).
WORK_UNIT = {
    "interactive": "calls_per_s",
    "sweep": "rows_per_s",
    "verify_random": "samples_per_s",
    "verify_scan": "checks_per_s",
}


@dataclass(frozen=True)
class Op:
    """One CLI call: argv after `eur`, and what the checks need to know."""

    kind: str
    argv: tuple[str, ...]
    c_list: tuple[float, ...] = ()
    rows: int = 0
    sample_rows: tuple[int, ...] = ()
    out: str = ""  # the CSV file a sweep writes


def _unit(rng: random.Random) -> float:
    return 1.0 - rng.random()  # (0, 1]


def _below_inv_sqrt2(rng: random.Random) -> float:
    c = 0.0
    while c == 0.0:
        c = INV_SQRT2 * rng.random()  # (0, 1/sqrt(2))
    return c


def _c(c: float) -> str:
    return repr(c)


def _interactive(rng: random.Random) -> Iterator[Op]:
    # Blocks of ten, shuffled: every block evaluates one overlap in each of
    # the MU, H1 and F regions, so each stretch of the run hits all three.
    while True:
        block = [
            INV_SQRT2 * _unit(rng),
            INV_SQRT2 + (C_STAR - INV_SQRT2) * rng.random(),
            C_STAR + (1.0 - C_STAR) * _unit(rng),
        ]
        block += [_unit(rng) for _ in range(5)]
        ops = [Op("eval", ("eval", "--c", _c(c)), (c,)) for c in block]
        c = _unit(rng)
        ops.append(Op("eval", ("eval", "--json", "--bits", "--c", _c(c)), (c,)))
        ops.append(Op("constants", ("constants",)))
        c = _below_inv_sqrt2(rng)
        ops.append(Op("critique", ("critique", "--c", _c(c)), (c,)))
        rng.shuffle(ops)
        yield from ops


def _sweep(rng: random.Random, out_dir: str) -> Iterator[Op]:
    for k in count():
        out = f"{out_dir}/sweep-{k}.csv"
        lo = round(0.40 + 0.10 * rng.random(), 5)
        hi = round(lo + SWEEP_STEP * (SWEEP_ROWS - 1), 5)
        sample = tuple(sorted(rng.sample(range(SWEEP_ROWS), SWEEP_CHECKED_ROWS)))
        argv = ("sweep", "--from", _c(lo), "--to", _c(hi), "--step", _c(SWEEP_STEP), "--out", out)
        yield Op("sweep", argv, rows=SWEEP_ROWS, sample_rows=sample, out=out)


def _verify_random(rng: random.Random) -> Iterator[Op]:
    while True:
        seed = rng.randrange(2**31)
        yield Op("random", ("verify", "--suite", "random", "--seed", str(seed)))


_SCAN_DOMAIN = {
    "grid": _unit,  # (0, 1]
    "qubit": lambda rng: INV_SQRT2 + (1.0 - INV_SQRT2) * _unit(rng),  # [1/sqrt(2), 1]
    "shape": _unit,
    "critique": _below_inv_sqrt2,
}


def _verify_scan(rng: random.Random) -> Iterator[Op]:
    for suite, n in (SCAN_CYCLE[k % len(SCAN_CYCLE)] for k in count()):
        cs = [_SCAN_DOMAIN[suite](rng) for _ in range(n)]
        kind = "critique_suite" if suite == "critique" else suite
        yield Op(kind, ("verify", "--suite", suite, "--c-list", *map(_c, cs)), tuple(cs))


def operations(workload: str, seed: int, out_dir: str) -> Iterator[Op]:
    rng = random.Random(f"{workload}-{seed}")
    if workload == "interactive":
        return _interactive(rng)
    if workload == "sweep":
        return _sweep(rng, out_dir)
    if workload == "verify_random":
        return _verify_random(rng)
    if workload == "verify_scan":
        return _verify_scan(rng)
    raise ValueError(f"unknown workload {workload!r}")


def inputs_digest(workload: str, seed: int, n: int = 200) -> str:
    """sha256 of the first n generated calls; equal seeds give equal digests."""
    ops = islice(operations(workload, seed, "<out>"), n)
    return hashlib.sha256(json.dumps([op.argv for op in ops]).encode()).hexdigest()
