"""Refinement of left-right invariant subspace pairs by two-sided
Grassmann Rayleigh quotient iteration, with structure-exploiting one-sided
variants, a Newton baseline, problem generators, and experiment drivers.
The public API: each module's ``__all__`` and every class of ``errors``.
"""

from .errors import *
from .kernels import *
from .iterations import *
from .structured import *
from .testgen import *
from .mmio import *
from .experiments import *

__version__ = "0.1.0"
