"""depmark: transient dependability analysis of small Markov reliability
models.

The package parses a plain-text modelling language into a continuous-time
Markov chain, solves the transient state probabilities by several methods
(uniformization by default), collapses distributions into reliability and
safety metrics, sweeps parameters such as detection coverage, cross-checks
everything against a seeded Monte Carlo simulator, and audits externally
published metric tables for internal consistency.  The `depmark` command
wraps the same operations for batch use.
"""

__version__ = "0.1.0"

from . import analysis, lang, model, simulate, solve

# the public names are those of the modules, gathered before the star
# imports below rebind ``simulate`` from the module to the function
__all__ = ["__version__"]
__all__ += [name for module in (model, lang, solve, analysis, simulate) for name in module.__all__]

from .model import *  # noqa: E402,F403
from .lang import *  # noqa: E402,F403
from .solve import *  # noqa: E402,F403
from .analysis import *  # noqa: E402,F403
from .simulate import *  # noqa: E402,F403
