"""Equilibrium-measure curvature of finite connected graphs.

The curvature vector w of a connected graph on n vertices solves the distance
system ``D w = n * 1``. This package builds D exactly, classifies solvability
over the rationals (unique / affine family / none), canonicalizes
multi-solution cases by the max-min criterion, falls back to the exact
Moore-Penrose solution when no solution exists (so every curvature value is a
Fraction), and verifies the accompanying theorem suite (Bonnet-Myers with
rigidity, its reverse, Lichnerowicz, the minimax bracketing, generalized bounds
for arbitrary positive weights, a spectral solvability criterion, and the
product law ``rho(G x H) = rho(G) + rho(H)`` with ``rho = n / (1.w)``) on
built-in graph families and user-supplied graphs.
"""

__version__ = "0.1.0"

from . import curvature, graphs, linalg, theorems
from .curvature import *  # noqa: F403
from .graphs import *  # noqa: F403
from .linalg import *  # noqa: F403
from .theorems import *  # noqa: F403

__all__ = ["__version__", *graphs.__all__, *linalg.__all__, *curvature.__all__, *theorems.__all__]
