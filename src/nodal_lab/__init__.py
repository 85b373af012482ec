"""Nodal intersections of arithmetic random waves on the three-torus.

The package enumerates lattice-point shells |mu|^2 = m, restricts the random
Laplace eigenfunction F to straight line segments, counts the zeros of that
restriction, and evaluates the exact pair-sum bounds on the zero-count
variance for rational, irrational, and half-rational direction classes.  The
``nodal-lab`` command exposes the same pipeline as CSV/JSON report runs.

Each library module's ``__all__`` is its share of the public surface: the
package re-exports those names and its ``__all__`` is their union.
"""

from . import arithmetic, diophantine, geometry, lattice, nodal, randomwave
from .arithmetic import *  # noqa: F401,F403
from .diophantine import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .nodal import *  # noqa: F401,F403
from .randomwave import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (arithmetic, diophantine, geometry, lattice, nodal, randomwave)
           for name in module.__all__]
