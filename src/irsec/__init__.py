"""Effective capacity of a reflecting-surface assisted downlink.

Closed-form capacity under perfect and absent transmitter channel
knowledge, fixed-rate optimization, and an independent Monte Carlo
oracle for cross-checking every analytical result.
"""

from irsec import channel, eccore, mcoracle, paper, rateopt, specfun, sweeps

__all__ = ["channel", "eccore", "mcoracle", "paper", "rateopt", "specfun", "sweeps"]

__version__ = "0.1.0"
