"""Exception types shared across the toolkit."""

from __future__ import annotations


class CctError(Exception):
    """Base class for all toolkit errors."""


class NotAGroup(CctError):
    """A multiplication table violates a group axiom.

    `witness` is a triple (a, b, c) with (a*b)*c != a*(b*c) for
    associativity failures, a single offending element index for inverse
    failures, and None when no identity exists at all.
    """

    def __init__(self, reason: str, witness=None):
        super().__init__(f"{reason}" + (f" (witness: {witness})" if witness is not None else ""))
        self.reason = reason
        self.witness = witness


class OrderBudgetExceeded(CctError):
    """A construction or enumeration grew past its configured bound."""

    def __init__(self, limit: int, context: str = ""):
        msg = f"order budget {limit} exceeded"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.limit = limit


class InputTooLarge(CctError, ValueError):
    """An input is larger than a configured limit allows, found before it is built.

    `what` names the input, `size` is its size and `limit` the limit it
    exceeds.  Like the ValueErrors of the constructors, spec files report
    it with its line.
    """

    def __init__(self, what: str, size: int, limit: int):
        super().__init__(f"{what} {size} exceeds the limit {limit}")
        self.what = what
        self.size = size
        self.limit = limit


class BudgetExceeded(CctError):
    """Coset enumeration ran out of cosets.

    The presented group may be infinite, or the budget too small; a raised
    BudgetExceeded never means the enumeration closed.  `max_cosets` counts
    every coset defined; `live` is how many of them were still alive (not
    merged into another) when the enumeration stopped.
    """

    def __init__(self, max_cosets: int, live: int):
        super().__init__(
            f"coset enumeration exceeded {max_cosets} cosets ({live} live at abort); "
            "the group may be infinite or the budget too small"
        )
        self.max_cosets = max_cosets
        self.live = live


class NotNormal(CctError):
    """A quotient was requested by a non-normal subgroup.

    `witness` is a pair (g, n) whose conjugate g*n*g^-1 falls outside the
    subgroup.
    """

    def __init__(self, witness):
        super().__init__(f"subgroup is not normal (witness conjugation: {witness})")
        self.witness = witness


class ParseError(CctError):
    """Syntax error in a presentation string or group-spec file."""

    def __init__(self, message: str, line: int = 1, column: int = 0, expected: str = ""):
        loc = f"line {line}, column {column}"
        full = f"{loc}: {message}"
        if expected:
            full += f" (expected {expected})"
        super().__init__(full)
        self.line = line
        self.column = column
        self.expected = expected


class UndefinedName(CctError):
    """A group-spec definition refers to a name not yet defined."""

    def __init__(self, name: str, line: int = 0):
        super().__init__(f"undefined name {name!r}" + (f" at line {line}" if line else ""))
        self.name = name
        self.line = line
