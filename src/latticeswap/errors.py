"""Exception types shared across the package."""

from __future__ import annotations


class LatticeSwapError(Exception):
    """Base class for errors raised by this package."""


class InvalidArrangement(LatticeSwapError):
    """Placement is not a bijection between cells and object labels."""


class InvalidConfig(LatticeSwapError, ValueError):
    """A planner setting is out of range or names an unknown option."""


class InvalidPlanStructure(LatticeSwapError):
    """A plan does not have the structure an operation requires."""


class SizeLimitExceeded(LatticeSwapError):
    """Instance is larger than the configured cap for an exact method."""


class MergeStateLimit(LatticeSwapError):
    """Merge DP state count exceeds the configured guard.

    Retry with fewer buffers, a smaller instance, or a beam width.
    """


class PlanningTimeout(LatticeSwapError):
    """A planner exceeded its wall-clock limit."""


class MissingBaseline(LatticeSwapError):
    """Savings report requested against a baseline absent from the results."""
