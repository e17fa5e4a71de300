"""aerobot: perception and control toolkit for aerial inspection robots.

Submodules load on first attribute access (PEP 562), so ``import aerobot``
stays cheap and a command that needs no numpy never loads it.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["errors", "flight", "fuzzy", "neural", "raster", "sidewalk", "sizing", "thermal",
           "vision"]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
