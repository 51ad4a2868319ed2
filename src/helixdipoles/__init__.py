"""Quantum bound states of aligned dipoles confined to a helical trap."""

__version__ = "0.1.0"
