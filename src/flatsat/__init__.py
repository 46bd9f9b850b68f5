"""Flatness-based saturated control for a quadcopter.

Exact linearization of the translational dynamics, the convex command set
with its largest inscribed ball, an optimization-free ray-saturation
operator, offline invariant-ellipsoid certificates, and a closed-loop
simulator with constraint and Lyapunov monitors.

The package re-exports the public names of its five modules: each name is
listed once, in its own module's ``__all__``, and ``flatsat.__all__`` is
those lists joined.
"""

from . import constraint_sets, flat_model, saturation, simulation, synthesis
from .constraint_sets import *
from .flat_model import *
from .saturation import *
from .simulation import *
from .synthesis import *

__version__ = "0.1.0"

__all__ = [
    *flat_model.__all__,
    *constraint_sets.__all__,
    *saturation.__all__,
    *synthesis.__all__,
    *simulation.__all__,
]
