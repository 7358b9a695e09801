"""Entropic uncertainty bounds for overlap-parameterized observable pairs.

Closed-form bound evaluators (core), transcendental-equation solvers and the
piecewise bound (solve), brute-force verification oracles (oracle), and a CLI
(cli).  All entropies are in nats.

The package root re-exports core, errors and solve.  The oracles live in
`eur.oracle` (`from eur import oracle`), which `import eur` does not load:
only the `verify` suites that run an oracle import it.  Only the random-state
oracle uses numpy, and it imports numpy when called.
"""

from . import core, errors, solve
from .core import *
from .errors import *
from .solve import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *errors.__all__, *solve.__all__]
