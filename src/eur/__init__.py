"""Entropic uncertainty bounds for overlap-parameterized observable pairs.

Closed-form bound evaluators (core), transcendental-equation solvers and the
piecewise bound (solve), brute-force verification oracles (oracle), and a CLI
(cli).  All entropies are in nats.
"""

from . import core, errors, oracle, solve
from .core import *
from .errors import *
from .oracle import *
from .solve import *

__all__ = [*core.__all__, *errors.__all__, *oracle.__all__, *solve.__all__]

__version__ = "0.1.0"
