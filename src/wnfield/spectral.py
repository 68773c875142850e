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

import math
import reprlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotInRkhsError,
    NotPositiveSemidefiniteError,
    NumericError,
    overflow_raises,
)
from .kernels import check_symmetric
from .spaces import DiscreteMeasureSpace, _unit_scaled

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

    ``eigenvalues`` are sorted descending and strictly above the drop
    threshold, and ``rank`` is their number; ``eigenfunctions`` has shape
    (n, rank), and column k holds phi_k at the nodes, orthonormal in the
    weighted inner product. ``dropped_mass`` is the total eigenvalue mass
    discarded (tiny negatives clamped to zero first) and ``clamped_mass``
    the total |lambda| of the negative eigenvalues clamped to zero, so that
    the operator trace is sum(eigenvalues) + dropped_mass - clamped_mass.

    ``tail_bound`` is 0.0 when the whole spectrum was computed. When the
    eigenpairs come from a randomized sketch it is the certified residual
    ||S - V diag(eigenvalues of the sketch) V^T||_F of the whitened operator
    S, at most min(drop_tol, 1e-10) * lambda_1: every eigenvalue the sketch
    did not resolve lies within +-tail_bound. There ``clamped_mass`` counts
    the negative Ritz values of the sketch, and ``dropped_mass`` is the
    exact trace minus the kept mass plus ``clamped_mass``.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    dropped_mass: float
    clamped_mass: float
    space: DiscreteMeasureSpace
    tail_bound: float = 0.0

    @property
    def rank(self) -> int:
        return self.eigenvalues.size

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
    big = V > SIGN_FIX_THRESHOLD
    big |= V < -SIGN_FIX_THRESHOLD
    first = big.argmax(axis=0)   # 0 for a column with no big entry
    cols = np.arange(V.shape[1])
    flip = big[first, cols] & (V[first, cols] < 0.0)
    np.negative(V, out=V, where=flip)
    return V


def _order_degenerate_clusters(lam: np.ndarray, V: np.ndarray):
    """Stable order inside numerically equal eigenvalue clusters.

    Ties are broken by descending lexicographic comparison of the
    sign-fixed eigenvectors; distributional quantities do not depend on
    this, it only stabilizes serialized factors across runs.
    """
    if lam.size < 2:
        return lam, V
    tol = DEGENERACY_TOL * max(lam[0], 1e-300)
    order = np.arange(lam.size)
    start = 0
    for end in range(1, lam.size + 1):
        if end == lam.size or lam[start] - lam[end] > tol:
            if end - start > 1:
                block = order[start:end]   # np.lexsort sorts on its last key first
                order[start:end] = block[np.lexsort(V[::-1, block])[::-1]]
            start = end
    return lam[order], V[:, order]


def _lapack(routine: str, *args, **kwargs):
    """Call a scipy LAPACK wrapper; a nonzero ``info`` raises NumericError."""
    *out, info = getattr(lapack, routine)(*args, **kwargs)
    if info != 0:
        raise NumericError(f"LAPACK {routine} failed with info = {info}")
    return out


def _clamp_and_keep(lam: np.ndarray, drop_tol: float, e: int):
    """The PSD check, the clamp and the drop rule on descending eigenvalues
    of S / 2^e: returns (clamped eigenvalues, keep mask, clamped_mass). An
    eigenvalue below -NEGATIVE_EIGENVALUE_BAND * lambda_1 raises, reported
    with its tolerance times 2^e, at the scale of S."""
    lam_max = float(lam[0])
    neg_band = NEGATIVE_EIGENVALUE_BAND * max(lam_max, 0.0)
    if lam[-1] < -neg_band:
        with overflow_raises("covariance eigenvalues"):
            worst, tol = np.ldexp([lam[-1], -neg_band], e).tolist()
        raise NotPositiveSemidefiniteError(
            f"covariance operator is not positive semidefinite: eigenvalue "
            f"{worst:.6e} below tolerance {tol:.6e}",
            worst_eigenvalue=worst,
        )
    clamped_mass = float(np.abs(lam[lam < 0.0]).sum())
    lam = np.maximum(lam, 0.0)
    keep = lam > drop_tol * lam_max if lam_max > 0.0 else np.zeros(lam.size, dtype=bool)
    return lam, keep, clamped_mass


def _dense_pairs(S: np.ndarray, drop_tol: float, e: int):
    """Kept eigenpairs of S from the whole spectrum: one Householder
    reduction to tridiagonal form, every eigenvalue by divide and conquer
    (as in LAPACK ``syevd``), and a back-transform of the kept vectors only.
    Overwrites S. The tail bound is 0.0: no eigenvalue is left unresolved."""
    n = S.shape[0]
    # S = Q T Q^T with T tridiagonal; LAPACK reads the lower triangle of the
    # Fortran-ordered S.T (the upper triangle of S) and overwrites it with
    # the Householder reflectors that make up Q
    (lwork,) = _lapack("dsytrd_lwork", n, lower=1)
    refl, d, offdiag, tau = _lapack("dsytrd", S.T, lower=1, lwork=int(lwork), overwrite_a=1)
    # dstevd needs a non-empty off-diagonal even when n == 1
    lam, W = _lapack("dstevd", d, offdiag if n > 1 else np.zeros(1), compute_v=1)
    lam, W = lam[::-1], W[:, ::-1]
    lam, keep, clamped_mass = _clamp_and_keep(lam, drop_tol, e)
    dropped_mass = float(lam[~keep].sum())
    V_kept = W[:, keep]
    if n > 1:
        # Q = diag(1, Q') with Q' the product of the n - 1 reflectors
        # (LAPACK dormtr, uplo 'L'), applied to the kept columns only
        reflectors = refl[1:, :-1]
        _, work = _lapack("dormqr", "L", "N", reflectors, tau, V_kept[1:], -1)
        V_kept[1:] = _lapack("dormqr", "L", "N", reflectors, tau, V_kept[1:],
                             int(work[0]))[0]
    return lam[keep], V_kept, dropped_mass, clamped_mass, 0.0


#: smallest n for which ``decompose`` tries the sketch: below it the dense
#: path is as fast (both about 5 ms at n = 256 on a rank-29 operator)
_SKETCH_MIN_N = 512
#: columns of the probe that reads how fast the spectrum decays
_PROBE_COLUMNS = 16
#: columns the sketch takes past the rank the probe predicts
_OVERSAMPLE = 8
#: the sketch is at most n // _SKETCH_MAX_FRACTION columns wide; a wider
#: one costs about as much as the dense reduction
_SKETCH_MAX_FRACTION = 8
#: subspace iterations of the sketch (the probe does none)
_POWER_ITERATIONS = 1
#: entries of the residual the certificate forms at a time
_RESIDUAL_BLOCK = 2**18


def _ritz_pairs(S: np.ndarray, width: int, power_iterations: int):
    """Ritz pairs of S, descending, on the range of S^(q+1) Omega, with
    Omega an n x width Gaussian test matrix from a fixed-key stream (Halko,
    Martinsson & Tropp, SIAM Rev. 2011, algorithms 4.3 and 4.4).

    Every product goes through scipy's BLAS, the library the dense path's
    LAPACK calls use: numpy may link a second BLAS whose idle threads keep
    spinning and slow the next LAPACK call when the sketch is rejected.
    S enters as op(S.T) with trans_a, so its C-ordered buffer is not copied.
    """
    gen = np.random.Generator(np.random.Philox(key=0))
    Y = blas.dgemm(1.0, S.T, gen.standard_normal((width, S.shape[0])).T, trans_a=1)
    Q = scipy.linalg.qr(Y, mode="economic", overwrite_a=True, check_finite=False)[0]
    for _ in range(power_iterations):
        Y = blas.dgemm(1.0, S.T, Q, trans_a=1)
        Q = scipy.linalg.qr(Y, mode="economic", overwrite_a=True, check_finite=False)[0]
    B = blas.dgemm(1.0, Q, blas.dgemm(1.0, S.T, Q, trans_a=1), trans_a=1)
    theta, U = scipy.linalg.eigh(B, overwrite_a=True, check_finite=False)
    return theta[::-1], blas.dgemm(1.0, Q, U[:, ::-1])


def _sketch_width(theta: np.ndarray, drop_tol: float) -> int | None:
    """Sketch columns for the probe's Ritz values ``theta``, or None when
    the spectrum is not seen to fall below drop_tol * theta_1 soon."""
    if not theta[0] > 0.0:
        return None
    cut = drop_tol * theta[0]
    below = np.flatnonzero(theta <= cut)
    if below.size:
        return int(below[0]) + _OVERSAMPLE
    quarter = theta.size // 4
    t1, t2, t3 = theta[quarter - 1], theta[2 * quarter - 1], theta[3 * quarter - 1]
    early, late = math.log(t1 / t2), math.log(t2 / t3)
    # algebraic decay (rough kernels) slows down and a flat spectrum does
    # not decay; at a decay that speeds up (smooth kernels), extrapolating
    # the late rate geometrically overestimates the rank
    if not late > early:
        return None
    return 3 * quarter + math.ceil(quarter * math.log(t3 / cut) / late) + _OVERSAMPLE


def _residual_norm(S: np.ndarray, theta: np.ndarray, V: np.ndarray) -> float:
    """||S - V diag(theta) V^T||_F, formed a block of rows at a time."""
    n = S.shape[0]
    rows = max(1, _RESIDUAL_BLOCK // n)
    W = V * theta
    total = 0.0
    for r0 in range(0, n, rows):
        # (V W[r0:r1]^T)^T = W[r0:r1] V^T, C-ordered like S[r0:r1]
        R = blas.dgemm(1.0, V, W[r0:r0 + rows], trans_b=1).T
        np.subtract(S[r0:r0 + rows], R, out=R)
        total += float(np.einsum("ij,ij->", R, R))
    return math.sqrt(total)


def _sketch_pairs(S: np.ndarray, drop_tol: float, e: int):
    """Kept eigenpairs of S from a certified randomized range finder, or
    None when the dense path must run.

    A probe of _PROBE_COLUMNS columns sizes the sketch. The sketch is
    accepted only when its residual eps = ||S - V Theta V^T||_F is at most
    min(drop_tol, NEGATIVE_EIGENVALUE_BAND) * theta_1: by Weyl's inequality
    every eigenvalue it did not resolve lies within +-eps, so the dense
    path would drop it and would not call it negative.
    """
    width = _sketch_width(_ritz_pairs(S, _PROBE_COLUMNS, 0)[0], drop_tol)
    if width is None or width > S.shape[0] // _SKETCH_MAX_FRACTION:
        return None
    theta, V = _ritz_pairs(S, width, _POWER_ITERATIONS)
    tail_bound = _residual_norm(S, theta, V)
    if not tail_bound <= min(drop_tol, NEGATIVE_EIGENVALUE_BAND) * theta[0]:
        return None
    lam, keep, clamped_mass = _clamp_and_keep(theta, drop_tol, e)
    lam_kept = lam[keep]
    # the trace is exact, so trace = kept + dropped - clamped as on the dense path
    dropped_mass = float(np.trace(S)) - float(lam_kept.sum()) + clamped_mass
    return lam_kept, V[:, keep], dropped_mass, clamped_mass, tail_bound


def decompose(
    C: np.ndarray,
    space: DiscreteMeasureSpace,
    drop_tol: float = 1e-12,
) -> MercerDecomposition:
    """Eigendecompose the covariance operator over the space.

    Two paths give the same rank, drop rule and PSD check. For n >= 512
    and drop_tol > 0, a randomized range finder whose probe predicts a
    narrow enough sketch is tried first, and its eigenpairs are kept only
    under the certificate ``tail_bound`` <= min(drop_tol, 1e-10) * lambda_1
    (see ``MercerDecomposition``). Otherwise, one Householder reduction to
    tridiagonal form gives every eigenvalue, so the PSD check, the clamp
    and ``dropped_mass`` see the whole spectrum, and only the retained
    eigenvectors are back-transformed to the nodes.

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
        If C has a non-finite entry (the first (i, j) is named), if a
        LAPACK routine fails, or if an eigenvalue overflows.
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
        raise InvalidParameterError(   # reprlib clips a huge integer to 40 characters
            f"drop_tol must be finite and >= 0, got {reprlib.repr(drop_tol)}")
    drop_tol = float(drop_tol)
    C = np.asarray(C, dtype=float)
    n = space.size
    if C.shape != (n, n):
        raise DimensionMismatchError(
            f"covariance shape {C.shape} does not match space size {n}"
        )
    # S / 2^e, 2^e just above max|C| max(w) >= max|S|, split between the two
    # weight vectors: each step is exact under C -> 2^k C, and the results scale back
    e = int(np.frexp(check_symmetric(C, "covariance"))[1] + np.frexp(space.weights.max())[1])
    w_sqrt = np.sqrt(space.weights)
    S = C * np.ldexp(w_sqrt, -(e // 2))[:, None]
    S *= np.ldexp(w_sqrt, e // 2 - e)[None, :]
    sketch = _sketch_pairs(S, drop_tol, e) if n >= _SKETCH_MIN_N and drop_tol > 0.0 else None
    lam_kept, V_kept, dropped_mass, clamped_mass, tail_bound = sketch or _dense_pairs(S, drop_tol, e)
    V_kept = _sign_fix(V_kept)
    lam_kept, V_kept = _order_degenerate_clusters(lam_kept, V_kept)
    with overflow_raises("covariance eigenvalues"):   # of S / 2^e, times 2^e
        lam_kept = np.ldexp(lam_kept, e)
        dropped_mass, clamped_mass, tail_bound = np.ldexp(
            [dropped_mass, clamped_mass, tail_bound], e).tolist()
    # the drop rule again at C's scale, where a subnormal C's eigenvalue may round to 0
    keep = lam_kept > drop_tol * lam_kept.max(initial=0.0)
    if not keep.all():
        dropped_mass += float(lam_kept[~keep].sum())
        lam_kept, V_kept = lam_kept[keep], V_kept[:, keep]
    phi = V_kept / w_sqrt[:, None]
    lam_kept.setflags(write=False)
    phi.setflags(write=False)
    return MercerDecomposition(eigenvalues=lam_kept, eigenfunctions=phi, dropped_mass=dropped_mass,
                               clamped_mass=clamped_mass, space=space, tail_bound=tail_bound)


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
            # L V with L triangular: half the flops of a full product
            F = blas.dtrmm(1.0, L, V, lower=1) / w_sqrt[:, None]
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
    f, e = _unit_scaled(f)   # formed at f's power-of-two scale, as ``norm`` is
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
    return RkhsElement(coeffs=np.ldexp(proj / np.sqrt(dec.eigenvalues), e))


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
