"""Nash equilibria for proof-of-work mining under resource uncertainty.

Three interchangeable best-response back-ends drive one Gauss-Seidel
iteration: a deterministic closed form and two robust back-ends.  The robust
ones share one alternating-optimization driver (``robust``) and differ only
in the certificate of the chance constraint: a Bernstein-type tail bound
under Gaussian uncertainty (``bti``), or the exact worst-case CVaR over a
mean/variance ambiguity set (``cvar``).  Monte Carlo and analytic two-point
oracles validate the robustness of the results.
"""

from . import bti, cvar, deterministic, equilibrium, model, robust, validate
from .bti import *
from .cvar import *
from .deterministic import *
from .equilibrium import *
from .model import *
from .robust import *
from .validate import *

__version__ = "0.1.0"

# each submodule's __all__ is the one statement of what it exports
__all__ = [
    name
    for module in (bti, cvar, deterministic, equilibrium, model, robust, validate)
    for name in module.__all__
]
