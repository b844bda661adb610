"""Exception hierarchy for the nadyn toolkit.

``MalformedInput`` and its subclasses map to CLI exit code 2: the parse
errors, the rejected maps, and the requests that do not fit the system
(``OutOfDomain``, ``GridMismatch``, ``ScaleMismatch``, ``HorizonExceeded``).
So does ``ValueError``, which the library's own argument checks raise (``horizon
must be >= 1``).  ``BudgetExceeded`` maps to exit 3, ``UnknownExample`` to exit 4.
"""

from __future__ import annotations


class NadynError(Exception):
    """Base class for all toolkit errors."""


class MalformedInput(NadynError):
    """Input rejected: it does not parse into exact data, or does not fit the system."""


class MalformedRational(MalformedInput):
    pass


class MalformedInterval(MalformedInput):
    pass


class MalformedSystemFile(MalformedInput):
    """System description file rejected; message carries field context."""

    def __init__(self, message: str, *, path: str | None = None, field: str | None = None):
        self.path = path
        self.field = field
        self.message = message
        # an empty path or field (the top level) adds no prefix
        prefix = ": ".join(str(p) for p in (path, field) if p)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class PieceGap(MalformedInput):
    """Pieces leave part of the domain uncovered."""


class PieceOverlap(MalformedInput):
    """Pieces cover part of the domain twice, or stick out of it."""


class NotSelfMap(MalformedInput):
    """Some piece maps outside the domain; carries the offending piece."""

    def __init__(self, message: str, piece=None, image=None):
        self.piece = piece
        self.image = image
        super().__init__(message)


class OutOfDomain(MalformedInput):
    pass


class BudgetExceeded(NadynError):
    """Interval-set part count exceeded the propagation budget.

    Raised hard: no truncated result is ever returned.  Step 0 refuses a
    request before any step, and ``message`` then says what was charged.
    """

    def __init__(self, step: int, parts: int, max_parts: int, message: str | None = None):
        self.step = step
        self.parts = parts
        self.max_parts = max_parts
        super().__init__(
            message or f"part budget exceeded at step {step}: {parts} parts > {max_parts} allowed"
        )


class HorizonExceeded(MalformedInput):
    pass


class NotExtractable(NadynError):
    """No valid breakpoint sequence exists within the horizon.

    This is an analysis verdict (the averages are not decaying at this
    horizon), not an internal failure; the CLI reports it with exit 0.
    """

    def __init__(self, message: str, *, threshold_index: int | None = None):
        self.threshold_index = threshold_index
        super().__init__(message)


class GridMismatch(MalformedInput):
    pass


class ScaleMismatch(MalformedInput):
    pass


class DegeneratePair(NadynError):
    pass


class NotInvariant(NadynError):
    """Invariant-set certificate check failed; carries the offending set."""

    def __init__(self, condition: str, offending, message: str):
        self.condition = condition
        self.offending = offending
        super().__init__(message)


class UnknownExample(NadynError):
    pass
