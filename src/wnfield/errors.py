"""Exception types shared across the toolkit."""

import contextlib

import numpy as np


class DimensionMismatchError(ValueError):
    """Operands whose sizes must agree do not."""


class UnknownKernelError(ValueError):
    """Requested covariance kernel name is not in the builtin registry."""


class InvalidParameterError(ValueError):
    """A kernel parameter, ``drop_tol`` or a series truncation out of its range."""


class NumericError(RuntimeError):
    """A numeric quantity that must be finite is not."""


@contextlib.contextmanager
def overflow_raises(what: str):
    """Raise numpy's overflow or invalid-value warning in the block as a
    NumericError naming ``what``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericError(f"{what}: {exc}") from exc


class NotPositiveSemidefiniteError(NumericError):
    """Covariance operator has an eigenvalue below the round-off band.

    Carries the offending eigenvalue so callers can report how far the
    input is from admissible.
    """

    def __init__(self, message: str, worst_eigenvalue: float):
        super().__init__(message)
        self.worst_eigenvalue = worst_eigenvalue


class NotInRkhsError(ValueError):
    """Field vector lies outside the retained eigen-span.

    ``residual`` is the relative L2(nu) norm of the out-of-span part.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class InsufficientSamplesError(ValueError):
    """Too few draws for the requested statistic."""
