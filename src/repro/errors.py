"""Diagnostics and error hierarchy for the SIGNAL reproduction compiler.

Every user-facing failure raised by the toolchain derives from
:class:`SignalError`, so callers can catch a single exception type at the
compiler boundary.  Errors that can be attributed to a source location carry
a :class:`SourceLocation`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class SourceLocation(NamedTuple):
    """A position in a SIGNAL source text (1-based line and column).

    An immutable named tuple: the lexer builds one per token.
    """

    line: int
    column: int
    filename: str = "<signal>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


class SignalError(Exception):
    """Base class of all errors raised by the SIGNAL toolchain."""

    def __init__(self, message: str, location: Optional[SourceLocation] = None):
        self.message = message
        self.location = location
        if location is not None:
            super().__init__(f"{location}: {message}")
        else:
            super().__init__(message)


class LexerError(SignalError):
    """Raised when the source text contains an unrecognized token."""


class ParseError(SignalError):
    """Raised when the source text does not conform to the SIGNAL grammar."""


class TypeError_(SignalError):
    """Raised when signal types cannot be reconciled across equations."""


class NameResolutionError(SignalError):
    """Raised for references to undeclared signals or duplicate definitions."""


class ClockCalculusError(SignalError):
    """Raised when the system of clock equations is inconsistent.

    This corresponds to a *temporally incorrect* program in the paper's
    terminology: an equation whose orientation induces a cycle, or an
    equality of clock formulas that cannot be proved.
    """


class ResolutionIncompleteError(ClockCalculusError):
    """Raised when the heuristic triangularization gives up.

    The paper's algorithm is deliberately incomplete (the underlying problem
    is NP-hard); programs it cannot explicitize are rejected even though a
    complete solver might accept them.
    """


class CausalityError(SignalError):
    """Raised when the conditional dependency graph has an instantaneous cycle."""


class PartitionError(SignalError):
    """Raised when a program cannot be split across its ``at`` locations.

    Covers contradictory placement annotations (a signal pinned to two
    different locations) and partitions whose locations would have to
    exchange values in both directions within one instant (a communication
    cycle the lock-step harness cannot schedule).
    """


class CodeGenerationError(SignalError):
    """Raised when code generation cannot proceed (e.g. no master clock)."""


class SimulationError(SignalError):
    """Raised by the runtime when a trace violates the program's clock constraints."""


class ResourceLimitExceeded(SignalError):
    """Raised when a resource-limited computation exceeds its budget.

    Used by the characteristic-function baseline of Figure 13 to reproduce
    the ``unable-cpu`` / ``unable-mem`` outcomes of the paper.
    """

    def __init__(self, message: str, kind: str = "cpu"):
        super().__init__(message)
        #: either ``"cpu"`` or ``"mem"``, mirroring the paper's two limits
        self.kind = kind
