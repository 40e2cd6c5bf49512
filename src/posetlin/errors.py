"""Exception types raised across the package.

``PosetlinError`` covers every domain-level failure (bad order data, absent
bounds, size caps, ...).  ``ParseError`` is kept separate because the CLI maps
the two branches to different exit codes.
"""


class PosetlinError(Exception):
    """Base class for domain errors."""


class DuplicateElementError(PosetlinError):
    pass


class UnknownElementError(PosetlinError):
    pass


class CycleError(PosetlinError):
    """The declared pairs close to a relation that is not irreflexive."""


class ArityMismatchError(PosetlinError):
    pass


class NotALatticeError(PosetlinError):
    pass


class EmptyPosetError(PosetlinError):
    pass


class PosetMismatchError(PosetlinError):
    """A linearisation or mapping was combined with the wrong poset."""


class MixedArityError(PosetlinError):
    pass


class MissingTupleError(PosetlinError):
    """A mapping table does not cover every argument tuple."""


class LinearLatticeError(PosetlinError):
    """The lattice is linear, so no incomparable pair exists."""


class RanksNotOrderPreservingError(PosetlinError):
    """The supplied rank function does not preserve the strict order."""


class TooLargeError(PosetlinError):
    """Input exceeds a hard size cap: ``MAX_TABLE_ENTRIES`` or an oracle's cap."""


class EmptyInputError(PosetlinError):
    pass


class OracleMismatchError(PosetlinError):
    """The optimised result disagrees with the brute-force reference."""


class ParseError(Exception):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
