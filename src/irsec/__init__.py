"""Effective capacity of a reflecting-surface assisted downlink.

Closed-form capacity under perfect and absent transmitter channel
knowledge, fixed-rate optimization, and an independent Monte Carlo
oracle for cross-checking every analytical result. Submodules load on
first access (PEP 562): only irsec.mcoracle imports numpy.
"""

import importlib

__all__ = ["channel", "eccore", "mcoracle", "paper", "rateopt", "specfun", "sweeps"]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f"irsec.{name}")
    raise AttributeError(f"module 'irsec' has no attribute {name!r}")
