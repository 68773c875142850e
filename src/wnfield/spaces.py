"""Discrete measure spaces: finite quadrature rules with a weighted inner product.

A compact index set with a positive measure is represented by its quadrature
nodes and cell masses. Every function on the space is a plain ndarray of
values at the nodes ("field vector"), and the L2 geometry is the weighted
inner product sum_i f_i g_i w_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

__all__ = ["DiscreteMeasureSpace", "interval_grid"]


def _unit_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x / 2^e, e), 2^e the power of two just above max |x_i| (e = 0 if x is
    zero or not finite): an exact scaling whose largest square lies in
    [1/4, 1), so a sum of squares neither overflows nor underflows to 0."""
    e = int(np.frexp(np.max(np.abs(x), initial=0.0))[1])
    return np.ldexp(x, -e), e


@dataclass(frozen=True)
class DiscreteMeasureSpace:
    """Finite point set with strictly positive quadrature weights.

    ``points`` has shape (n,) for scalar coordinates or (n, d) for points in
    R^d; entries are only ever fed to kernel evaluators, no geometry beyond
    the weighted inner product is assumed. Immutable after construction and
    safe to share across threads.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.shape[0] == 0:
            raise ValueError("space must contain at least one point")
        if pts.shape[0] != w.shape[0]:
            raise DimensionMismatchError(
                f"{pts.shape[0]} points but {w.shape[0]} weights"
            )
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        flat = pts.reshape(pts.shape[0], -1)
        if len(np.unique(flat, axis=0)) != pts.shape[0]:
            raise ValueError("points must be pairwise distinct")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def _check_length(self, f: np.ndarray, name: str) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape != (self.size,):
            raise DimensionMismatchError(
                f"{name} has shape {f.shape}, expected ({self.size},)"
            )
        return f

    def inner(self, f, g) -> float:
        """Weighted inner product sum_i f_i g_i w_i."""
        f = self._check_length(f, "f")
        g = self._check_length(g, "g")
        return float(np.dot(f * self.weights, g))

    def norm(self, f) -> float:
        """Weighted L2 norm sqrt(inner(f, f)), formed at the power-of-two
        scale of f (``_unit_scaled``), so its squares neither overflow nor
        underflow."""
        f, e = _unit_scaled(self._check_length(f, "f"))
        with np.errstate(over="ignore"):   # only a non-finite f is left unscaled
            squares = np.dot(f * f, self.weights)
        return float(np.ldexp(np.sqrt(squares), e))


def interval_grid(n: int) -> DiscreteMeasureSpace:
    """Midpoint rule on the unit interval: n cells of mass 1/n.

    Nodes sit at (i - 1/2)/n, so the total mass is exactly 1.
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    pts = (np.arange(n) + 0.5) / n
    w = np.full(n, 1.0 / n)
    return DiscreteMeasureSpace(points=pts, weights=w)
