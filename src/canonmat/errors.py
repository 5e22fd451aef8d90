"""Exception types shared across the package.

The CLI maps these onto its exit-code contract:
parse -> 2, digit range -> 3, budget -> 4, integrity -> 5.
"""


class ParseError(ValueError):
    """A matrix file or a command's arguments are malformed or invalid."""


class DigitRangeError(ValueError):
    """A digit or encoded value lies outside the admissible range."""


class BudgetExceededError(RuntimeError):
    """A search exceeded its configured node budget or size guard."""

    def __init__(self, message: str, nodes: int = 0, partial_count: int = 0):
        super().__init__(message)
        self.nodes = nodes
        self.partial_count = partial_count


class IntegrityError(RuntimeError):
    """Two independent computations of the same quantity disagree."""

    def __init__(self, message: str, enumerated: int, expected: int):
        super().__init__(message)
        self.enumerated = enumerated
        self.expected = expected
