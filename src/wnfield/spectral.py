"""Spectral factorization of covariance operators and the associated RKHS.

The covariance matrix C over a space with weights w is turned into the
eigenproblem of the whitened operator S = D^{1/2} C D^{1/2}, D = diag(w),
whose eigenpairs give L2(nu)-orthonormal eigenfunctions phi_k and
eigenvalues lambda_k. From these the toolkit builds white-noise factors h
with

    C_ij = sum_k h_ik h_jk        (coordinates against the phi_k basis)

under a choice of gauge (the factor is unique only up to an orthogonal
rotation of the noise coordinates), and realizes the reproducing-kernel
space of the field: elements are coefficient vectors against the basis
Phi_k = sqrt(lambda_k) phi_k, and kernel sections reproduce point
evaluation under the coefficient inner product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotInRkhsError,
    NotPositiveSemidefiniteError,
    NumericError,
)
from .kernels import check_symmetric
from .spaces import DiscreteMeasureSpace

__all__ = [
    "MercerDecomposition",
    "WhiteNoiseKernel",
    "RkhsElement",
    "GAUGES",
    "decompose",
    "factorize",
    "reproduce_covariance",
    "pointwise_kernel_matrix",
    "to_rkhs",
    "rkhs_inner",
    "kernel_section",
]

GAUGES = ("symmetric_sqrt", "triangular", "rotated")

#: eigenvalues within this relative band below zero are round-off, not
#: indefiniteness, and get clamped
NEGATIVE_EIGENVALUE_BAND = 1e-10

#: component threshold for the eigenvector sign convention
SIGN_FIX_THRESHOLD = 1e-8

#: relative width of an eigenvalue cluster treated as degenerate
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class MercerDecomposition:
    """Retained eigenpairs of the covariance operator on a space.

    ``eigenfunctions`` has shape (n, rank); column k holds phi_k at the
    nodes, orthonormal in the weighted inner product. ``eigenvalues`` are
    sorted descending and strictly above the drop threshold;
    ``dropped_mass`` is the total eigenvalue mass discarded (tiny negatives
    clamped to zero first) and ``clamped_mass`` the total |lambda| of the
    negative eigenvalues clamped to zero.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    rank: int
    dropped_mass: float
    clamped_mass: float
    space: DiscreteMeasureSpace

    def reconstruction(self) -> np.ndarray:
        """Rank-m covariance rebuild sum_k lambda_k phi_k phi_k^T."""
        return (self.eigenfunctions * self.eigenvalues) @ self.eigenfunctions.T

    def whitened_vectors(self) -> np.ndarray:
        """Orthonormal eigenvectors v_k = D^{1/2} phi_k of the whitened operator."""
        return self.eigenfunctions * np.sqrt(self.space.weights)[:, None]


@dataclass(frozen=True)
class WhiteNoiseKernel:
    """White-noise factor of a covariance under a fixed gauge.

    ``factor`` has shape (n, m): row i holds the coordinates of h(x_i, .)
    against the orthonormal eigenfunction basis, so plain row dot products
    are inner products in L2(nu).
    """

    factor: np.ndarray
    gauge: str


@dataclass(frozen=True)
class RkhsElement:
    """Element of the field's reproducing-kernel space as coefficients a_k
    against the basis Phi_k = sqrt(lambda_k) phi_k; the norm is l2 on the
    coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.coeffs, dtype=float).ravel()
        if not np.all(np.isfinite(a)):
            raise ValueError("RKHS coefficients must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "coeffs", a)

    def norm_squared(self) -> float:
        return float(np.dot(self.coeffs, self.coeffs))


def _sign_fix(V: np.ndarray) -> np.ndarray:
    """Flip columns so the first component with |v| > threshold is positive."""
    V = V.copy()
    for k in range(V.shape[1]):
        col = V[:, k]
        big = np.nonzero(np.abs(col) > SIGN_FIX_THRESHOLD)[0]
        if big.size and col[big[0]] < 0.0:
            V[:, k] = -col
    return V


def _order_degenerate_clusters(lam: np.ndarray, V: np.ndarray, scale: float):
    """Stable order inside numerically equal eigenvalue clusters.

    Ties are broken by descending lexicographic comparison of the
    sign-fixed eigenvectors; distributional quantities do not depend on
    this, it only stabilizes serialized factors across runs.
    """
    if lam.size < 2:
        return lam, V
    tol = DEGENERACY_TOL * max(scale, 1e-300)
    order = np.arange(lam.size)
    start = 0
    for end in range(1, lam.size + 1):
        if end == lam.size or lam[start] - lam[end] > tol:
            if end - start > 1:
                block = order[start:end]
                block = sorted(block, key=lambda j: tuple(V[:, j]), reverse=True)
                order[start:end] = block
            start = end
    return lam[order], V[:, order]


def _lapack(routine: str, *args, **kwargs):
    """Call a scipy LAPACK wrapper; a nonzero ``info`` raises NumericError."""
    *out, info = getattr(lapack, routine)(*args, **kwargs)
    if info != 0:
        raise NumericError(f"LAPACK {routine} failed with info = {info}")
    return out


def decompose(
    C: np.ndarray,
    space: DiscreteMeasureSpace,
    drop_tol: float = 1e-12,
) -> MercerDecomposition:
    """Eigendecompose the covariance operator over the space.

    One Householder reduction of the whitened operator to tridiagonal form
    gives every eigenvalue (divide and conquer, as in LAPACK ``syevd``), so
    the PSD check, the clamp and ``dropped_mass`` see the whole spectrum,
    but only the retained eigenvectors are back-transformed to the nodes.

    Parameters
    ----------
    C : (n, n) array
        Covariance matrix on the nodes; must be finite, symmetric up to
        ``kernels.SYMMETRY_TOL`` relative to max|C|, and operator-positive
        up to round-off (eigenvalues of the whitened form >= -1e-10 *
        largest).
    space : DiscreteMeasureSpace
        Supplies the quadrature weights defining the operator geometry.
    drop_tol : float
        Eigenvalues <= drop_tol * lambda_1 are discarded into
        ``dropped_mass``; the default keeps the numerical rank stable
        across platforms. Must be finite and >= 0.

    Raises
    ------
    DimensionMismatchError
        If C is not n x n for the space's n points.
    NumericError
        If C has a non-finite entry (the first offending (i, j) is
        named), or if a LAPACK routine reports failure.
    InvalidParameterError
        If C is not symmetric (the worst (i, j) is named), or if
        ``drop_tol`` is negative or not finite.
    NotPositiveSemidefiniteError
        If an eigenvalue falls below the round-off band; the worst
        offender is reported.
    """
    try:
        valid = 0.0 <= float(drop_tol) < np.inf   # false for NaN too
    except OverflowError:   # an int past the float range
        valid = False
    if not valid:
        raise InvalidParameterError(f"drop_tol must be finite and >= 0, got {drop_tol!r}")
    drop_tol = float(drop_tol)
    C = np.asarray(C, dtype=float)
    n = space.size
    if C.shape != (n, n):
        raise DimensionMismatchError(
            f"covariance shape {C.shape} does not match space size {n}"
        )
    check_symmetric(C, "covariance")
    w_sqrt = np.sqrt(space.weights)
    S = C * w_sqrt[:, None] * w_sqrt[None, :]
    # S = Q T Q^T with T tridiagonal; LAPACK reads the lower triangle of the
    # Fortran-ordered S.T (the upper triangle of S) and overwrites it with
    # the Householder reflectors that make up Q
    (lwork,) = _lapack("dsytrd_lwork", n, lower=1)
    refl, d, e, tau = _lapack("dsytrd", S.T, lower=1, lwork=int(lwork), overwrite_a=1)
    # dstevd needs a non-empty off-diagonal even when n == 1
    lam, W = _lapack("dstevd", d, e if n > 1 else np.zeros(1), compute_v=1)
    lam, W = lam[::-1], W[:, ::-1]

    lam_max = float(lam[0])
    neg_band = NEGATIVE_EIGENVALUE_BAND * max(lam_max, 0.0)
    worst = float(lam[-1])
    if worst < -neg_band:
        raise NotPositiveSemidefiniteError(
            f"covariance operator is not positive semidefinite: eigenvalue "
            f"{worst:.6e} below tolerance {-neg_band:.6e}",
            worst_eigenvalue=worst,
        )
    clamped_mass = float(np.abs(lam[lam < 0.0]).sum())
    lam = np.maximum(lam, 0.0)

    keep = lam > drop_tol * lam_max if lam_max > 0.0 else np.zeros(n, dtype=bool)
    dropped_mass = float(lam[~keep].sum())
    lam_kept = lam[keep]
    V_kept = W[:, keep]
    if n > 1:
        # Q = diag(1, Q') with Q' the product of the n - 1 reflectors
        # (LAPACK dormtr, uplo 'L'), applied to the kept columns only
        reflectors = refl[1:, :-1]
        _, work = _lapack("dormqr", "L", "N", reflectors, tau, V_kept[1:], -1)
        V_kept[1:] = _lapack("dormqr", "L", "N", reflectors, tau, V_kept[1:],
                             int(work[0]))[0]
    V_kept = _sign_fix(V_kept)
    lam_kept, V_kept = _order_degenerate_clusters(lam_kept, V_kept, lam_max)

    phi = V_kept / w_sqrt[:, None]
    lam_kept.setflags(write=False)
    phi.setflags(write=False)
    return MercerDecomposition(
        eigenvalues=lam_kept,
        eigenfunctions=phi,
        rank=int(lam_kept.size),
        dropped_mass=dropped_mass,
        clamped_mass=clamped_mass,
        space=space,
    )


def _haar_orthogonal(m: int, seed: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix from a seeded generator."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    G = rng.standard_normal((m, m))
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diag(R))


def factorize(dec: MercerDecomposition, gauge: str = "symmetric_sqrt", seed: int = 0) -> WhiteNoiseKernel:
    """Build a white-noise factor of the decomposed covariance.

    Gauges
    ------
    ``symmetric_sqrt``
        h_ik = sqrt(lambda_k) phi_k(x_i): the canonical symmetric-root
        factor.
    ``triangular``
        Columns rotated so the pointwise matrix h(x_i, z_j) is lower
        triangular in the weighted sense (C = H diag(w) H^T with H lower
        triangular). Exact pointwise triangularity needs full numerical
        rank; at deficient rank the whitened coordinate factor is made
        lower trapezoidal instead, so the value at x_i involves only the
        first i noise coordinates.
    ``rotated``
        Columns multiplied by a seeded Haar-random orthogonal matrix;
        distributionally equivalent to the others.
    """
    lam = dec.eigenvalues
    sqrt_lam = np.sqrt(lam)
    A = dec.eigenfunctions * sqrt_lam[None, :]
    if gauge == "symmetric_sqrt":
        return WhiteNoiseKernel(factor=A, gauge=gauge)
    if gauge == "triangular":
        n, m = A.shape
        if m == 0:
            return WhiteNoiseKernel(factor=A, gauge=gauge)
        V = dec.whitened_vectors()
        Z = V * sqrt_lam[None, :]
        # LQ of Z: Z = L Q_l with L lower trapezoidal, Q_l orthogonal; only
        # L is needed, so Q_l is never formed
        (R,) = scipy.linalg.qr(Z.T, mode="r")
        flip = np.sign(np.diag(R))
        flip[flip == 0.0] = 1.0
        L = R.T * flip[None, :]
        w_sqrt = np.sqrt(dec.space.weights)
        if m == n:
            F = (L @ V) / w_sqrt[:, None]
        else:
            F = L / w_sqrt[:, None]
        return WhiteNoiseKernel(factor=F, gauge=gauge)
    if gauge == "rotated":
        U = _haar_orthogonal(dec.rank, seed)
        return WhiteNoiseKernel(factor=A @ U.T, gauge=f"rotated:{seed}")
    raise ValueError(f"unknown gauge '{gauge}'; expected one of {GAUGES}")


def reproduce_covariance(h: WhiteNoiseKernel, space: DiscreteMeasureSpace) -> np.ndarray:
    """Rebuild the covariance from the factor: C_ij = sum_k h_ik h_jk."""
    F = np.asarray(h.factor, dtype=float)
    if F.shape[0] != space.size:
        raise DimensionMismatchError(
            f"factor has {F.shape[0]} rows but space has {space.size} points"
        )
    return F @ F.T


def pointwise_kernel_matrix(h: WhiteNoiseKernel, dec: MercerDecomposition) -> np.ndarray:
    """Evaluate the factor pointwise: H[i, j] = h(x_i, z_j) on the nodes."""
    F = np.asarray(h.factor, dtype=float)
    if F.shape != (dec.space.size, dec.rank):
        raise DimensionMismatchError(
            f"factor shape {F.shape} does not match decomposition "
            f"({dec.space.size}, {dec.rank})"
        )
    return F @ dec.eigenfunctions.T


def to_rkhs(f, dec: MercerDecomposition, membership_tol: float = 1e-8) -> RkhsElement:
    """Project a field vector into RKHS coordinates a_k = <f, phi_k>_nu / sqrt(lambda_k).

    The vector must lie in the retained eigen-span up to ``membership_tol``
    relative residual in L2(nu), otherwise NotInRkhsError reports the
    relative residual.
    """
    space = dec.space
    f = np.asarray(f, dtype=float)
    if f.shape != (space.size,):
        raise DimensionMismatchError(
            f"field vector shape {f.shape} does not match space size {space.size}"
        )
    proj = (dec.eigenfunctions * space.weights[:, None]).T @ f
    residual_vec = f - dec.eigenfunctions @ proj
    f_norm = space.norm(f)
    res = space.norm(residual_vec)
    if f_norm > 0.0 and res > membership_tol * f_norm:
        raise NotInRkhsError(
            f"field vector is outside the eigen-span: relative residual "
            f"{res / f_norm:.3e} exceeds membership tolerance {membership_tol:.3e}",
            residual=res / f_norm,
        )
    # retained eigenvalues are strictly above the drop threshold
    return RkhsElement(coeffs=proj / np.sqrt(dec.eigenvalues))


def rkhs_inner(a: RkhsElement, b: RkhsElement) -> float:
    """Coefficient inner product sum_k a_k b_k."""
    if a.coeffs.shape != b.coeffs.shape:
        raise DimensionMismatchError(
            f"coefficient lengths differ: {a.coeffs.shape[0]} vs {b.coeffs.shape[0]}"
        )
    return float(np.dot(a.coeffs, b.coeffs))


def kernel_section(x_index: int, dec: MercerDecomposition) -> RkhsElement:
    """RKHS coordinates of the kernel section K(x, .) at node index x.

    Sections reproduce point evaluation: rkhs_inner(to_rkhs(f), section)
    equals f(x) for f in the eigen-span.
    """
    if not 0 <= x_index < dec.space.size:
        raise IndexError(
            f"point index {x_index} out of range for space of size {dec.space.size}"
        )
    a = np.sqrt(dec.eigenvalues) * dec.eigenfunctions[x_index, :]
    return RkhsElement(coeffs=a)
