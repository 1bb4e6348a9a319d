"""Simulator and secrecy-capacity calculator for measurement-device-
independent quantum secure direct communication protocols.

The package exports only ``__version__``: import each name from the module
that defines it."""

__version__ = "0.1.0"
