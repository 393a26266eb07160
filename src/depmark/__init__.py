"""depmark: transient dependability analysis of small Markov reliability
models.

The package parses a plain-text modelling language into a continuous-time
Markov chain, solves the transient state probabilities by several methods
(uniformization by default), collapses distributions into reliability and
safety metrics, sweeps parameters such as detection coverage, cross-checks
everything against a seeded Monte Carlo simulator, and audits externally
published metric tables for internal consistency.  The `depmark` command
wraps the same operations for batch use.

``import depmark`` loads no submodule: a public name resolves on first use
(PEP 562) from the submodule whose ``__all__`` lists it, so the language
and validation load without numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

#: The submodules whose ``__all__`` lists, in this order, are the public names.
_MODULES = ("model", "lang", "solve", "analysis", "simulate")


def __getattr__(name):
    if name in _MODULES:  # loading it binds it, or its function simulate, here
        importlib.import_module(f"{__name__}.{name}")
        return globals()[name]
    # ``cli`` and the dunders (``__main__``, ``__wrapped__``) are in no
    # ``__all__``: ``from depmark import cli`` and probes such as
    # ``inspect.unwrap`` ask for them without loading every module to learn it
    if name == "cli" or name.startswith("__") and name.endswith("__") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    modules = (importlib.import_module(f"{__name__}.{m}") for m in _MODULES)  # loaded in turn
    if name == "__all__":
        value = ["__version__", *(n for module in modules for n in module.__all__)]
    else:
        owner = next((module for module in modules if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *getattr(sys.modules[__name__], "__all__")})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # the import system binds each loaded submodule here; one that exports
        # a name of its own (``simulate``) leaves that name to the export
        if isinstance(value, types.ModuleType) and name in getattr(value, "__all__", ()):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
