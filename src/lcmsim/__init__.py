"""Exact simulator for Look-Compute-Move robots on the rational line.

The package builds bounded executions of oblivious robot protocols under
hostile schedulers and checks fairness, splitting and gathering on the
resulting traces.  All coordinates are exact rationals end to end.

The package exports every library module's `__all__`; the command line
lives in `lcmsim.cli` and is not imported here (`python -m lcmsim` runs it).
"""

# Kept equal to pyproject.toml's version; trace headers record it.  Set
# before the submodules are imported, as `execution` reads it.
__version__ = "0.1.0"

from . import adversary, core, demons, execution, properties, robograms, sampling
from .adversary import *  # noqa: F403
from .core import *  # noqa: F403
from .demons import *  # noqa: F403
from .execution import *  # noqa: F403
from .properties import *  # noqa: F403
from .robograms import *  # noqa: F403
from .sampling import *  # noqa: F403

__all__ = sorted(
    {
        name
        for module in (adversary, core, demons, execution, properties, robograms, sampling)
        for name in module.__all__
    }
)
