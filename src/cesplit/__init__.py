"""Finite-stage workbench for splitting constructions on c.e. sets."""

from .kernel import EventLog, HostGenerator, Kernel
from .setalg import ComputablePair, before, before_then

__all__ = [
    "EventLog",
    "HostGenerator",
    "Kernel",
    "ComputablePair",
    "before",
    "before_then",
]
