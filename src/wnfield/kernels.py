"""Covariance kernels and assembly of covariance matrices over a space.

The builtin corpus spans the eigenvalue-decay regimes the factorization has
to survive: nonsmooth (Brownian motion, fractional Brownian motion), smooth
(squared exponential, numerically rank deficient), rank-structured
(Brownian bridge) and diagonal (white noise on the nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NumericError,
    UnknownKernelError,
)
from .spaces import DiscreteMeasureSpace

__all__ = [
    "CovarianceKernel",
    "builtin_kernel",
    "builtin_kernel_names",
    "assemble",
    "trace_of_operator",
    "matrix_kernel",
    "check_symmetric",
]


@dataclass(frozen=True)
class CovarianceKernel:
    """Symmetric positive kernel K(s, t) given by a pure evaluator.

    The evaluator must accept broadcastable ndarrays of point coordinates and
    return the kernel values elementwise; symmetry is the caller's promise,
    which ``spectral.decompose`` checks and never repairs. Data-defined
    kernels have no evaluator: they carry their dense entries in ``matrix``,
    indexed by node position instead of coordinate.
    """

    name: str
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    params: Mapping[str, float] = field(default_factory=dict)
    matrix: np.ndarray | None = None


#: largest max|C - C^T| a covariance matrix may have, relative to max|C|
SYMMETRY_TOL = 1e-10

#: side of the square tiles of the blocked passes over the upper triangle
_TILE = 64

#: kernels whose formulas only make sense for scalar coordinates
_SCALAR_ONLY = ("brownian_motion", "brownian_bridge", "fbm")


def _brownian_motion(s, t):
    return np.minimum(s, t)


def _brownian_bridge(s, t):
    return np.minimum(s, t) - s * t


def _make_fbm(hurst: float):
    twoH = 2.0 * hurst

    def fbm(s, t):
        return 0.5 * (
            np.abs(s) ** twoH + np.abs(t) ** twoH - np.abs(s - t) ** twoH
        )

    return fbm


def _make_squared_exponential(length_scale: float):
    def sqexp(s, t):
        d2 = (s - t) ** 2
        if np.ndim(d2) > 2:  # (n, n, d) point blocks: Euclidean distance
            d2 = d2.sum(axis=-1)
        return np.exp(-d2 / (2.0 * length_scale**2))

    return sqexp


def _make_white_diagonal(sigma2: float):
    def white(s, t):
        eq = s == t
        if np.ndim(eq) > 2:
            eq = eq.all(axis=-1)
        return np.where(eq, sigma2, 0.0)

    return white


#: the builtins, in the order ``builtin_kernel_names`` lists them: each
#: name maps to the factory of its evaluator, which takes the parameters by
#: keyword, and to (default, low, high, message) per parameter. A value is
#: valid when low < value < high (no upper bound when high is None), so NaN
#: never is; the message is formatted with the rejected value.
_BUILTINS = {
    "brownian_motion": (lambda: _brownian_motion, {}),
    "brownian_bridge": (lambda: _brownian_bridge, {}),
    "fbm": (_make_fbm, {"hurst": (0.5, 0.0, 1.0, "fbm hurst must lie in (0, 1), got {}")}),
    "squared_exponential": (_make_squared_exponential, {
        "length_scale": (1.0, 0.0, None, "length_scale must be > 0, got {}")}),
    "white_diagonal": (_make_white_diagonal, {
        "sigma2": (1.0, 0.0, None, "sigma2 must be > 0, got {}")}),
}


def builtin_kernel(name: str, params: Mapping[str, float] | None = None) -> CovarianceKernel:
    """Look up a builtin kernel by name.

    Parameters
    ----------
    name : str
        One of ``brownian_motion``, ``brownian_bridge``, ``fbm``,
        ``squared_exponential``, ``white_diagonal``.
    params : mapping, optional
        ``fbm`` takes ``hurst`` in (0, 1) (default 0.5);
        ``squared_exponential`` takes ``length_scale`` > 0 (default 1.0);
        ``white_diagonal`` takes ``sigma2`` > 0 (default 1.0). The Brownian
        kernels take none. NaN is outside every range.
    """
    if name not in _BUILTINS:
        raise UnknownKernelError(
            f"unknown kernel '{name}'; builtins are {', '.join(builtin_kernel_names())}"
        )
    factory, ranges = _BUILTINS[name]
    params = dict(params or {})
    extras = set(params) - set(ranges)
    if extras:
        raise InvalidParameterError(
            f"kernel '{name}' does not take parameters {sorted(extras)}"
        )
    values = {}
    for key, (default, low, high, message) in ranges.items():
        value = float(params.get(key, default))
        if not (low < value and (high is None or value < high)):
            raise InvalidParameterError(message.format(value))
        values[key] = value
    return CovarianceKernel(name, factory(**values), values)


def builtin_kernel_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def _upper_tiles(n: int):
    """Square tiles (I, J) of the upper triangle, J at or right of I, by
    rows of tiles: each tile and its mirror C[J, I] fit in cache, so a pass
    reads C transposed without a full n x n temporary."""
    for a in range(0, n, _TILE):
        for c in range(a, n, _TILE):
            yield slice(a, a + _TILE), slice(c, c + _TILE)


def check_symmetric(C: np.ndarray, what: str) -> None:
    """Reject a square matrix that is not finite or not symmetric.

    Raises NumericError naming the first non-finite entry (i, j), and
    InvalidParameterError naming the worst pair (the first in row-major
    order among ties) when max|C - C^T| exceeds ``SYMMETRY_TOL`` * max|C|.
    A non-finite entry makes its gap non-finite, so one blocked pass over
    the upper triangle serves both checks.
    """
    if not C.size:
        return
    worst, pair = 0.0, (0, 0)
    for I, J in _upper_tiles(len(C)):
        gap = np.abs(C[I, J] - C[J, I].T)
        k = np.argmax(gap)   # a NaN first, else the first maximum
        if not np.isfinite(gap.flat[k]):
            bad = np.argwhere(~np.isfinite(C))
            if bad.size:
                i, j = bad[0]
                raise NumericError(f"{what} is not finite at entry ({i}, {j})")
        at = (I.start + k // gap.shape[1], J.start + k % gap.shape[1])
        if gap.flat[k] > worst or gap.flat[k] == worst and at < pair:
            worst, pair = gap.flat[k], at
    if worst > SYMMETRY_TOL * max(C.max(), -C.min()):
        i, j = pair
        raise InvalidParameterError(
            f"{what} is not symmetric: |C[{i}, {j}] - C[{j}, {i}]| = {worst:.3e} "
            f"exceeds {SYMMETRY_TOL:g} * max|C|"
        )


def matrix_kernel(entries: np.ndarray, name: str = "custom") -> CovarianceKernel:
    """Wrap a user-supplied dense matrix as a kernel over point indices.

    Entry C[i, j] is the covariance of nodes i and j, so the kernel only
    makes sense together with a space whose size matches the matrix. Used
    for kernels supplied as data files instead of code. The matrix must be
    finite and symmetric up to ``SYMMETRY_TOL`` relative to its largest
    entry (``check_symmetric``): a grossly asymmetric one is rejected, and
    a smaller asymmetry is kept as it is.
    """
    C = np.asarray(entries, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise InvalidParameterError(f"matrix kernel must be square, got shape {C.shape}")
    check_symmetric(C, "matrix kernel")
    return CovarianceKernel(name, None, {"size": C.shape[0]}, matrix=C)


def assemble(kernel: CovarianceKernel, space: DiscreteMeasureSpace) -> np.ndarray:
    """Evaluate C_ij = K(x_i, x_j) on the space, as the kernel gives it.

    Nothing is averaged: the builtins are exactly symmetric, and the
    symmetry of any other kernel is checked (never repaired) by
    ``spectral.decompose``. A matrix kernel gives a copy of its matrix.
    Non-finite values are a hard error naming the first offending pair.
    """
    n = space.size
    if kernel.matrix is not None:
        if kernel.matrix.shape[0] != n:
            raise DimensionMismatchError(
                f"matrix kernel is {kernel.matrix.shape[0]}x{kernel.matrix.shape[0]} "
                f"but space has {n} points"
            )
        C = np.array(kernel.matrix, dtype=float)
    else:
        pts = space.points
        if pts.ndim == 1:
            S, T = pts[:, None], pts[None, :]
        else:
            if kernel.name in _SCALAR_ONLY:
                raise InvalidParameterError(
                    f"kernel '{kernel.name}' is defined for scalar coordinates only"
                )
            S, T = pts[:, None, :], pts[None, :, :]
        C = np.asarray(kernel.evaluator(S, T), dtype=float)
    if C.shape != (n, n):
        raise DimensionMismatchError(
            f"kernel '{kernel.name}' produced shape {C.shape}, expected ({n}, {n})"
        )
    bad = ~np.isfinite(C)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NumericError(
            f"kernel '{kernel.name}' is not finite at point pair "
            f"({space.points[i]}, {space.points[j]})"
        )
    return C


def trace_of_operator(C: np.ndarray, space: DiscreteMeasureSpace) -> float:
    """Discrete trace of the covariance operator: sum_i C_ii w_i."""
    C = np.asarray(C, dtype=float)
    if C.shape != (space.size, space.size):
        raise DimensionMismatchError(
            f"matrix shape {C.shape} does not match space size {space.size}"
        )
    return float(np.dot(np.diag(C), space.weights))
