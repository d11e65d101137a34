"""Conservative-dynamics convex optimization with adaptive restarts.

A massive particle released at rest in the force field of a convex objective
picks up kinetic energy exactly equal to the objective decrease; restarting
(zeroing the velocity) at well-chosen instants turns the frictionless flow
into a convergent optimization method.  This package implements the
continuous-time flow with mean-dissipation and kinetic-energy restarts, its
symplectic-Euler discretizations with four restart criteria (smooth and
l1-composite), the Nesterov/FISTA baselines used for comparison, and a
benchmark harness that reproduces the reference experiment families.  The
package's public names are those of its modules' ``__all__`` lists.
"""

from .objectives import *  # noqa: F401,F403
from .discrete import *  # noqa: F401,F403
from .composite import *  # noqa: F401,F403
from .continuous import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"
