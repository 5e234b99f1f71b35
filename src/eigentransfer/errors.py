"""Shared exception types.

Every domain error raised by the library derives from :class:`TransferError`,
so callers (in particular the command line driver) can distinguish failures of
the mathematics from ordinary programming errors.
"""

__all__ = [
    "TransferError",
    "MissingSymbol",
    "NonSquareAssignment",
    "BlockMismatch",
    "ShapeMismatch",
    "SizeMismatch",
    "InvalidSigma",
    "NonIntegralShift",
    "NotRelevant",
    "NotSymmetric",
    "UnsupportedLinked",
    "EmptyPacket",
    "SchemaError",
]


class TransferError(Exception):
    """Base class for domain errors raised by this library."""


class MissingSymbol(TransferError):
    """An evaluation assignment lacks a symbol that occurs in the value."""


class NonSquareAssignment(TransferError):
    """A half-integer exponent met an assignment without a declared rational root."""


class BlockMismatch(TransferError):
    """Laurent polynomial operands declare different variable block structures."""


class ShapeMismatch(TransferError):
    """Operands are attached to different group shapes."""


class SizeMismatch(TransferError):
    """An object has the wrong number of entries for the ambient group."""


class InvalidSigma(TransferError):
    """The configured permutation is not increasing on each source block."""


class NonIntegralShift(TransferError):
    """The weight-lattice shifts are not integers for the configured twist exponent."""


class NotRelevant(TransferError):
    """No discrete parameter, or no realizing reordering, exists for the input."""


class NotSymmetric(TransferError):
    """A spherical transfer input fails the required block symmetry."""


class UnsupportedLinked(TransferError):
    """Accessibility is only decided for descriptors with distinct, unlinked parameters."""


class EmptyPacket(TransferError):
    """A packet of target dimensions must be nonempty."""


class SchemaError(TransferError):
    """A JSON payload does not match the documented schema."""
