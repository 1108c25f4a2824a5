"""Secrecy rates, link budgets and orbital-pass analysis for OOK
coherent-state satellite downlinks.

The package exports exactly the names its modules list in ``__all__``.
"""

from .detection import *  # noqa: F401,F403
from .linkbudget import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .orbitsim import *  # noqa: F401,F403
from .receiver import *  # noqa: F401,F403
from .scenario_io import *  # noqa: F401,F403
from .secrecy import *  # noqa: F401,F403

__version__ = "0.1.0"
