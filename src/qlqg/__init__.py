"""Optimal filtering and LQG feedback control for linear quantum systems.

The package has two layers.  The phase-space layer propagates Gaussian
beliefs: Riccati and Lyapunov flows for covariances, a Kalman-type
update for the posterior mean, optimal feedback gains and a closed-loop
Monte Carlo simulator.  The density-matrix layer integrates the
conditional master equation on small finite-dimensional systems and is
used to cross-check the Gaussian layer against first principles.
"""

from . import (
    errors, phase_space, riccati, kalman, control, ensemble, closed_loop, sme, free_particle,
)
from .errors import *
from .phase_space import *
from .riccati import *
from .kalman import *
from .control import *
from .ensemble import *
from .closed_loop import *
from .sme import *

# each public name is listed once, in the __all__ of the module defining it
__all__ = [
    *errors.__all__,
    *phase_space.__all__,
    *riccati.__all__,
    *kalman.__all__,
    *control.__all__,
    *ensemble.__all__,
    *closed_loop.__all__,
    *sme.__all__,
    "free_particle",
]

__version__ = "0.3.0"
