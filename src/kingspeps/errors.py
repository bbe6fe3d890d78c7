"""Exception types shared across the package.

Two broad families matter for callers: input/validation problems
(:class:`ParseError` and friends) and numerical failures during
contraction (:class:`NumericError` and subclasses). The CLI maps the
former to exit code 1 and the latter to exit code 2.
"""

import math
import operator

# the most entries one table, all tables of a model together, an
# enumeration or a frontier sweep's table may hold: 128 MiB of float64
# (and the most bytes a frontier sweep's backpointers, or the arrays a
# network or a frontier sweep builds over a model's tables, may take)
SIZE_GUARD = 2 ** 24


class SolverError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SolverError):
    """Malformed instance text. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateEntryError(ParseError):
    """The same coupling, field, or table entry was specified twice."""


class InvalidIndexError(SolverError):
    """A spin, site, or state index is out of its valid range."""


class GeometryError(SolverError):
    """An interaction connects sites that are not king-adjacent."""


class DimensionError(SolverError):
    """Mismatched sizes: assignment length, tensor bonds, topology counts."""


class UnsupportedError(SolverError):
    """The requested operation needs data the object does not carry."""


class TooLargeError(SolverError):
    """A table, a model's tables together, an enumeration or a frontier
    sweep's table would exceed :data:`SIZE_GUARD` entries, or the sweep's
    backpointers, or the arrays a network or a frontier sweep builds
    (counted from the grid's positions, edges and table entries), its
    128 MiB. An Ising graph's spins and a grid's sites count too: each
    takes a field or a node-table entry at least."""


class NumericError(SolverError):
    """Non-finite values appeared where finite ones are required."""


class TransformDisagreementError(NumericError):
    """Lattice transforms of one model found different best energies."""


class DegenerateStateError(NumericError):
    """A boundary state with zero norm cannot be compressed."""


class ContractionDegenerateError(NumericError):
    """All conditional weights underflowed to zero during contraction."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at site {position})"
        super().__init__(message)
        self.position = position


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, a numpy one too
    (:func:`operator.index`)."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def check_count(name: str, value, low: int | None = None):
    """Raise :class:`DimensionError` naming ``name`` unless ``value`` is
    an integer (:func:`is_integer`) of at least ``low``, when given."""
    if not is_integer(value):
        raise DimensionError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise DimensionError(f"{name} must be >= {low}, got {value}")


def check_size(what: str, size: int):
    """Raise :class:`TooLargeError` naming ``what`` when ``size`` entries
    exceed ``SIZE_GUARD``; checked before anything that large is built."""
    if size > SIZE_GUARD:
        raise TooLargeError(f"{what} has {size} entries, more than the "
                            f"size guard of {SIZE_GUARD}")


def check_beta(beta):
    """Raise :class:`NumericError` unless the inverse temperature ``beta``
    is positive and finite."""
    if not (beta > 0 and math.isfinite(beta)):
        raise NumericError(f"beta must be positive and finite, got {beta}")
