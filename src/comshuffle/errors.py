"""Shared exception types."""


class ComshuffleError(Exception):
    """Base class for library errors."""


class SizeGuardError(ComshuffleError):
    """A resource guard (word length, clause count, state count, bound) was exceeded.

    Each raise site names the `guard`, its `limit` and the `observed` size
    that crossed it.
    """

    def __init__(self, message, guard=None, limit=None, observed=None):
        super().__init__(message)
        self.guard = guard
        self.limit = limit
        self.observed = observed

    @classmethod
    def over(cls, label: str, guard: str, limit: int, observed: int) -> "SizeGuardError":
        """The error for `observed` past `limit`; `label` names the guard in words."""
        return cls(f"{label} guard exceeded: {observed} > {limit}", guard, limit, observed)


class CriterionError(ComshuffleError):
    """A decision-procedure precondition does not hold for the given input."""

    def __init__(self, message, letter=None):
        super().__init__(message)
        self.letter = letter


class NonRegularError(CriterionError):
    """The iterated shuffle is proven not regular: `letter` occurs in its
    restriction to the letters `subalphabet` without a unary period.
    `aperiodic.union_iterated_shuffle` sets `linear_sets` to the closure's
    fold."""

    def __init__(self, message, letter, subalphabet):
        super().__init__(message, letter)
        self.subalphabet = subalphabet


class NotInPositiveClassError(ComshuffleError):
    """Automaton-to-normal-form extraction found the language outside the positive class."""


class ParseError(ComshuffleError):
    """Syntax or validation error in the expression language."""

    def __init__(self, message, pos=None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


class FragmentError(ComshuffleError):
    """The expression requires a closure operation outside the implemented fragment."""


class UndecidedError(ComshuffleError):
    """The implemented sufficient criteria neither confirm nor refute the query.
    `aperiodic.union_iterated_shuffle` sets `linear_sets` to the closure's
    fold."""
