"""Exception types shared across the package, and the unknown-key check for
config dataclasses read from JSON."""

import dataclasses
from collections.abc import Mapping


class PanelFormatError(ValueError):
    """Malformed panel data (bad CSV cell, inconsistent columns, bad label)."""


class DuplicateTimeIndex(PanelFormatError):
    """Two rows carry the same (subject_id, t) pair."""


class DimensionMismatch(ValueError):
    """Vector or panel dimensions disagree."""


class ConflictingLabels(PanelFormatError):
    """One subject carries more than one distinct observed label."""


class DomainError(ValueError):
    """Multiplier vector outside the feasible box [0, c)."""


class DegenerateProblem(ValueError):
    """Dual problem whose maximizer sits on the boundary lambda = 0."""


class NonConvergence(RuntimeError):
    """Solver hit its iteration budget before reaching tolerance.

    Carries the best solution found so far in ``solution``.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class NonFiniteObjective(RuntimeError):
    """Training objective became NaN or infinite (diverged step size)."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class ZeroFeatureVector(ValueError):
    """Confidence is undefined for an all-zero feature vector."""


def reject_unknown_keys(cls, payload) -> None:
    """Raise ValueError unless ``payload`` is a mapping whose keys are all
    fields of the dataclass ``cls``, so a malformed or misspelt config is a
    validation error rather than a TypeError from the constructor."""
    if not isinstance(payload, Mapping):
        kind = type(payload).__name__
        raise ValueError(f"{cls.__name__} must be a JSON object, got {kind}")
    unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(sorted(unknown))}")
