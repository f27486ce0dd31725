"""Finite-horizon exchange-rate target-zone model with non-Gaussian risk.

Closed-form stationary and transient solutions, eigenvalue spectra and
relaxation-time feasibility analysis, regime-shift detection, honeymoon
contact-point analysis, and Monte Carlo simulation of the regulated
fundamental with intervention policies and density estimation.

Importing the package loads no submodule (PEP 562).  A submodule's own
``__all__`` is the one declaration of its public names: on first access a
name is looked up in the submodules of ``_PUBLIC``, imported in that order
until one lists it, so a CLI run loads only what its command uses.
"""

import importlib

__version__ = "0.1.0"

# each after the modules it imports, except the leaf honeymoon
_PUBLIC = ("errors", "params", "spectral", "honeymoon", "stationary", "transient", "mc")
_SUBMODULES = {*_PUBLIC, "cli", "roots"}


def __getattr__(name: str):
    """Import a submodule, or the first submodule of ``_PUBLIC`` that lists a name."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    # no public name starts with "_": probes like __wrapped__ import nothing
    if name.startswith("_") and name != "__all__":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    modules = (importlib.import_module(f"{__name__}.{m}") for m in _PUBLIC)
    if name == "__all__":
        value = [n for mod in modules for n in mod.__all__]
    else:
        mod = next((mod for mod in modules if name in mod.__all__), None)
        if mod is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(mod, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__getattr__("__all__"), *_SUBMODULES})
