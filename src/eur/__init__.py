"""Entropic uncertainty bounds for overlap-parameterized observable pairs.

Closed-form bound evaluators (core), transcendental-equation solvers and the
piecewise bound (solve), brute-force verification oracles (oracle), and a CLI
(cli).  All entropies are in nats.

Only the random-state oracle uses numpy, and it imports numpy when called.
`eur.oracle`, its names and `__all__` are loaded on first access, so
importing `eur` loads neither; every command but `verify --suite random|all`
runs without importing numpy.
"""

import importlib

from . import core, errors, solve
from .core import *
from .errors import *
from .solve import *

__version__ = "0.1.0"

# oracle.__all__, resolved lazily by __getattr__
_ORACLE_NAMES = (
    "OracleReport",
    "RandomStateSummary",
    "ShapeSummary",
    "grid_min",
    "qubit_min",
    "random_state_check",
    "shape_check",
    "boundary_case_min",
)


def __getattr__(name: str):
    # Any other name falls through at once: `from eur import cli` probes
    # eur.cli before importing it, and that must not load the oracle.
    if name not in ("oracle", "__all__", *_ORACLE_NAMES):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    oracle = importlib.import_module(".oracle", __name__)  # binds eur.oracle
    namespace = globals()
    namespace.update((n, getattr(oracle, n)) for n in oracle.__all__)
    namespace["__all__"] = [*core.__all__, *errors.__all__, *oracle.__all__, *solve.__all__]
    return namespace[name]
