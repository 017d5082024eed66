"""Exception types shared across the package, the base of the config
dataclasses read from JSON, which checks each field's type and range, and
the field reader of the model files."""

import dataclasses
import functools
import math
import numbers
import typing
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


@dataclasses.dataclass(frozen=True)
class Range:
    """The numbers a value, or each entry of a tuple, may take. ``low`` is
    inclusive unless ``open_low``; ``high`` likewise, and open when
    infinite, so NaN and +-inf never lie within."""

    low: float
    high: float = math.inf
    open_low: bool = False
    open_high: bool = False

    def check(self, name: str, value) -> None:
        """Raise ValueError naming ``name`` unless the number ``value`` lies within."""
        above = value > self.low if self.open_low else value >= self.low
        below = value < self.high if self.open_high or self.high == math.inf else value <= self.high
        if not (above and below):
            finite = "" if isinstance(value, numbers.Integral) else "finite and "
            raise ValueError(f"{name} must be {finite}{self}, got {value!r}")

    def __str__(self) -> str:
        if self.high == math.inf and self.low == 0:
            return "positive" if self.open_low else "non-negative"
        if self.high == math.inf:
            return f"{'>' if self.open_low else '>='} {self.low:g}"
        left, right = "(" if self.open_low else "[", ")" if self.open_high else "]"
        return f"in {left}{self.low:g}, {self.high:g}{right}"


GT_ZERO = Range(0.0, open_low=True)
GE_ZERO = Range(0.0)


def json_field(payload, key: str, build=lambda value: value):
    """``build(payload[key])`` of a JSON object; a payload that is no object,
    a missing field, or a ValueError or TypeError of ``build`` raises
    ValueError naming ``key``."""
    if not isinstance(payload, Mapping):
        raise ValueError(f"must be a JSON object, got {type(payload).__name__}")
    if key not in payload:
        raise ValueError(f"field {key!r} is missing")
    try:
        return build(payload[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from None


# per annotated type: the type a value must have, and its name for one and for many
_KINDS = {
    int: (numbers.Integral, "an integer", "integers"),
    float: (numbers.Real, "a real number", "real numbers"),
    str: (str, "a string", "strings"),
}


@functools.cache
def _field_rules(cls) -> tuple:
    """(name, type, is_tuple, optional, Range) per field of the dataclass
    ``cls``, read from its annotations once per class."""
    hints = typing.get_type_hints(cls, include_extras=True)
    rules = []
    for f in dataclasses.fields(cls):
        kind, bound = hints[f.name], None
        optional = type(None) in typing.get_args(kind)
        if optional:
            (kind,) = set(typing.get_args(kind)) - {type(None)}
        if typing.get_origin(kind) is typing.Annotated:
            kind, bound = typing.get_args(kind)
        is_tuple = typing.get_origin(kind) is tuple
        if is_tuple:
            kind = typing.get_args(kind)[0]
        if kind in (int, float) and bound is None:
            raise TypeError(f"{cls.__name__}.{f.name} is a number without a Range")
        rules.append((f.name, kind, is_tuple, optional, bound))
    return tuple(rules)


class Config:
    """Base of the frozen config dataclasses read from JSON.

    Construction checks every field against its annotation: int, float, str,
    a class, or a tuple of int, float or str given as a non-empty list, each
    optionally ``| None``. A number, or a tuple of them, is ``Annotated``
    with its Range. A bool is never a number. The first field that fails
    raises ValueError naming it. Tuple fields are stored as tuples, of floats
    where the entries are reals. Subclasses add only cross-field rules,
    after ``super().__post_init__()``.
    """

    def __post_init__(self):
        for name, kind, is_tuple, optional, bound in _field_rules(type(self)):
            value = getattr(self, name)
            if value is None and optional:
                continue
            wanted, one, many = _KINDS.get(kind, (kind, f"a {kind.__name__} object", ""))
            if is_tuple:
                noun = f"a non-empty list of {many}"
                entries = value if isinstance(value, (list, tuple)) and value else None
            else:
                noun, entries = one, (value,)
            if entries is None or not all(
                isinstance(v, wanted) and not isinstance(v, bool) for v in entries
            ):
                raise ValueError(f"{name} must be {noun}, got {value!r}")
            if bound is not None:
                for entry in entries:
                    bound.check(f"{name} entries" if is_tuple else name, entry)
            if is_tuple:
                stored = tuple(float(v) for v in value) if kind is float else tuple(value)
                object.__setattr__(self, name, stored)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload):
        """Build from a JSON object, refusing unknown keys with ValueError; a
        nested config given as an object is built by its own from_dict, and
        its error names the parent field."""
        if not isinstance(payload, Mapping):
            kind = type(payload).__name__
            raise ValueError(f"{cls.__name__} must be a JSON object, got {kind}")
        unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls.__name__} keys: {', '.join(sorted(unknown))}")
        payload = dict(payload)
        for name, kind, *_ in _field_rules(cls):
            if issubclass(kind, Config) and payload.get(name) is not None:
                try:
                    payload[name] = kind.from_dict(payload[name])
                except ValueError as exc:  # "sim.seed must ...", else "sim: need ..."
                    own = str(exc).split(" ", 1)[0] in {f.name for f in dataclasses.fields(kind)}
                    raise ValueError(f"{name}{'.' if own else ': '}{exc}") from None
        return cls(**payload)
