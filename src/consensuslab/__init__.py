"""Steady-state disagreement of noisy consensus on graphs.

Exact formulas (hitting times / Kemeny constant / spectrum / effective
resistance), a Lyapunov-doubling oracle, Monte Carlo simulation, scaling
sweeps over graph families, and a formation-control layer whose long-run
error is a Kemeny constant in disguise.

The package exports the ``__all__`` of each library module, and nothing
else but ``__version__``.  Every exported name has a caller: the CLI
reaches it, or the README documents it, or the benchmark tracer wraps it.
A name only the tests use lives in the tests (``tests/conftest.py`` and
``tests/referees.py``); ``tests/test_api.py`` checks the rule.
"""

from . import disagreement, errors, formation, graphs, markov, simulate
from .errors import *
from .graphs import *
from .markov import *
from .disagreement import *
from .simulate import *
from .formation import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *graphs.__all__,
    *markov.__all__,
    *disagreement.__all__,
    *simulate.__all__,
    *formation.__all__,
]
