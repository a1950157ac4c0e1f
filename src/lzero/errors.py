"""Exception hierarchy shared by the whole package.

Each class carries the exit code the CLI returns for it as
``exit_code``: file/syntax/structure problems exit with 2, domain-level
refusals (an invariant that is genuinely undefined for the input, an
inapplicable move, ...) exit with 1, and work over a budget or out of
memory or recursion depth exits with 3 (the CLI turns a ``MemoryError``
or ``RecursionError`` into :class:`ResourceLimitError`).  Any other
exception is a bug: it escapes as a Python traceback.
"""


class LZeroError(Exception):
    """Base class for every error raised deliberately by this package."""

    exit_code = 1


class DiagramParseError(LZeroError):
    """A diagram file could not be tokenized/decoded.

    Carries the 1-based line and column of the offending token.
    """

    exit_code = 2

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class DiagramStructureError(LZeroError):
    """A diagram parsed syntactically but violates a structural invariant.

    ``violations`` holds one human-readable string per violated rule,
    each naming the offending record.
    """

    exit_code = 2

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class MovePatternError(LZeroError):
    """The requested local move does not match the diagram at the site."""


class InvariantUndefinedError(LZeroError):
    """An invariant was requested outside its domain of definition.

    ``pair`` names the offending component pair and ``linking`` the
    nonzero linking number that blocks the computation, when relevant.
    """

    def __init__(self, message: str, pair=None, linking=None):
        self.pair = pair
        self.linking = linking
        super().__init__(message)


class NotClassifiableError(InvariantUndefinedError):
    """Classification requested for a diagram with nonzero linking."""


class ExpansionError(LZeroError):
    """An expansion fails a relation; on a planar diagram, only when
    some pairwise linking number is nonzero."""


class ResourceLimitError(LZeroError):
    """The input asks for more work than a documented budget allows, or
    the process ran out of memory or recursion depth on it."""

    exit_code = 3
