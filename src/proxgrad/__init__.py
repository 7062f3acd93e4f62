"""Composite-optimization solver: backtracking proximal gradient methods that
need no Lipschitz constants, with oracle libraries, trace diagnostics, and a
CLI for reproducible desk-scale experiments."""

from .core import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .prox_oracles import *  # noqa: F401,F403
from .smooth_oracles import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.1.0"
