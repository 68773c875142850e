"""Gaussian field sampling and white-noise functionals over a discrete space.

Draws are generated from the series B = sum_k xi_k h_k, where h_k are the
columns of the field's white-noise factor and xi_k are i.i.d. standard
normals. Noise is addressed positionally in a counter-based stream keyed by
the seed: draw r always owns the same counter-block range, so batches are
reproducible, any row range can be regenerated on its own, and truncations
at the same seed share their noise with the full series. Noise is filled
from one serial stream and consumed in row blocks (``noise_blocks``), so a
batch never needs more than one block of noise.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DimensionMismatchError, InsufficientSamplesError, InvalidParameterError, overflow_raises
from .kernels import CovarianceKernel, _upper_tiles, assemble
from .spaces import DiscreteMeasureSpace, _unit_scaled
from .spectral import (
    MercerDecomposition,
    WhiteNoiseKernel,
    decompose,
    factorize,
    pointwise_kernel_matrix,
)

__all__ = [
    "GaussianField",
    "SampleBatch",
    "build_field",
    "noise_matrix",
    "noise_blocks",
    "noise_gram",
    "sample",
    "empirical_covariance",
    "covariance_standard_error",
    "truncation_error",
    "mollify_factor",
    "tangent_gram",
]


@dataclass(frozen=True)
class GaussianField:
    """A centered Gaussian field: its decomposition (and so its space) and factor."""

    dec: MercerDecomposition
    factor: WhiteNoiseKernel

    def __post_init__(self):
        shape = (self.dec.space.size, self.dec.rank)
        if self.factor.factor.shape != shape:
            raise DimensionMismatchError(
                f"factor shape {self.factor.factor.shape} does not match {shape}")

    @property
    def space(self) -> DiscreteMeasureSpace:
        return self.dec.space


@dataclass(frozen=True)
class SampleBatch:
    """Batch of field realizations, one per row, with its provenance.

    A batch from ``sample`` also carries the n x m factor columns its draws
    were summed from (``factor``, read-only) and the noise stride, so its
    draws are ``noise_matrix(N, m, seed, stride=stride) @ factor.T`` and
    ``draws`` is read-only. A batch built by hand has neither.
    """

    draws: np.ndarray
    seed: int
    truncation: int
    factor: np.ndarray | None = None
    stride: int | None = None


def build_field(
    kernel: CovarianceKernel,
    space: DiscreteMeasureSpace,
    gauge: str = "symmetric_sqrt",
    drop_tol: float = 1e-12,
    gauge_seed: int = 0,
) -> GaussianField:
    """Assemble, decompose, and factorize a kernel into a sampleable field."""
    C = assemble(kernel, space)
    dec = decompose(C, space, drop_tol=drop_tol)
    h = factorize(dec, gauge=gauge, seed=gauge_seed)
    return GaussianField(dec, h)


#: generated variates per row block that ``noise_blocks`` yields (16 MB)
_BLOCK_VARIATES = 2**21
#: cost of one generated variate in multiply-adds of the X^T X product:
#: fitted to where the two paths of ``empirical_covariance`` take equal
#: time (n 128-2048, N 500-20000, 2 CPUs), the switch falls at m between
#: about n/8 and n/3
_VARIATE_MADDS = 1000
#: variates ``noise_matrix`` generates at a time into its one buffer (128 KB)
_CHUNK_VARIATES = 2**14


def _row_width(stride: int) -> int:
    """Uniforms a stream row owns: one Philox counter block yields 4."""
    return 4 * max(1, -(-stride // 4))


def noise_matrix(
    n_draws: int,
    m: int,
    seed: int,
    row_start: int = 0,
    stride: int | None = None,
) -> np.ndarray:
    """Standard-normal matrix whose row r is stream block row_start + r.

    Each row owns ceil(stride / 4) Philox counter blocks and exposes the
    first ``m`` variates, transformed by the normal inverse CDF (fixed
    consumption of one stream position per variate keeps rows addressable:
    any row range can be regenerated independently). Rows are filled in
    order from one stream advanced to ``row_start``, about
    ``_CHUNK_VARIATES`` variates at a time through one buffer.
    """
    if stride is None:
        stride = m
    if m > stride:
        raise ValueError(f"width {m} exceeds stride {stride}")
    if n_draws < 1:
        raise ValueError("need at least one draw")
    width = _row_width(stride)
    out = np.empty((n_draws, m))
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(row_start * width // 4)
    gen = np.random.Generator(bitgen)
    step = max(1, _CHUNK_VARIATES // width)
    buffer = np.empty((min(step, n_draws), width))
    for r0 in range(0, n_draws, step):
        dest = out[r0:r0 + step]
        u = buffer[:len(dest)]
        gen.random(out=u)
        np.maximum(u, 2.0**-53, out=u)   # ndtri(0) = -inf; probability 2^-53 per variate
        ndtri(u[:, :m], out=dest)
    return out


def noise_blocks(n_draws: int, m: int, seed: int, stride: int | None = None):
    """Rows 0..n_draws-1 of ``noise_matrix(n_draws, m, seed, stride=stride)``
    as consecutive ``(row_start, block)`` pairs of about 2^21 generated
    variates each. A consumer that drops each block before the next is
    generated (``del``) holds one block at a time."""
    rows = max(1, _BLOCK_VARIATES // _row_width(m if stride is None else stride))
    for r0 in range(0, n_draws, rows):
        yield r0, noise_matrix(min(rows, n_draws - r0), m, seed, row_start=r0, stride=stride)


def noise_gram(n_draws: int, m: int, seed: int, stride: int | None = None) -> np.ndarray:
    """Gram matrix xi^T xi of ``noise_matrix(n_draws, m, seed, stride=stride)``,
    summed one ``noise_blocks`` block at a time with one block held.
    """
    G = np.zeros((m, m))
    for _, xi in noise_blocks(n_draws, m, seed, stride):
        G += xi.T @ xi
        del xi   # before the next block is drawn
    return G


def sample(
    field: GaussianField,
    n_draws: int,
    m: int | None = None,
    seed: int = 0,
) -> SampleBatch:
    """Draw field realizations from the truncated factor series.

    Parameters
    ----------
    field : GaussianField
        Field whose factor columns drive the series; in the canonical
        gauge the truncation is the eigen-series truncation.
    n_draws : int
        Number of realizations (rows).
    m : int, optional
        Number of factor columns used; defaults to the full rank. Noise is
        always addressed at full-rank stride, so truncated and full draws
        from the same seed share their xi.
    seed : int
        Noise stream key.
    """
    rank = field.dec.rank
    if m is None:
        m = rank
    if not 0 <= m <= rank:
        raise InvalidParameterError(f"truncation m={m} out of range [0, {rank}]")
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    draws = np.empty((n_draws, field.space.size))
    F = field.factor.factor[:, :m]
    F.setflags(write=False)   # this view only; the field's factor keeps its flags
    for r0, xi in noise_blocks(n_draws, m, seed, stride=rank):
        np.matmul(xi, F.T, out=draws[r0:r0 + len(xi)])
        del xi   # before the next block is drawn
    draws.setflags(write=False)
    return SampleBatch(draws=draws, seed=seed, truncation=m, factor=F, stride=rank)


def _gram_pays(n_draws: int, n: int, m: int, stride: int) -> bool:
    """Whether the noise Gram path of ``empirical_covariance`` is cheaper.

    In multiply-adds: regenerating the noise and forming G cost
    N (V width + m^2 / 2) and ``_noise_moment`` n m^2 + n^2 m, against
    N n^2 / 2 for X^T X. A variate counts V = ``_VARIATE_MADDS``.
    """
    gram = n_draws * (_VARIATE_MADDS * _row_width(stride) + m * m / 2) + n * m * m + n * n * m
    return gram < n_draws * n * n / 2


def _noise_moment(F: np.ndarray, G: np.ndarray, n_draws: int) -> np.ndarray:
    """Second moment (1/N) F G F^T of draws X = xi F^T with G = xi^T xi.

    One product; each upper tile is then copied onto its mirror (on a
    diagonal tile, its upper triangle onto its lower), so the result is
    exactly symmetric.
    """
    E = F @ G @ F.T
    E /= n_draws
    for I, J in _upper_tiles(len(E)):
        if I == J:
            T = E[I, I]
            lower = np.tril_indices(len(T), -1)
            T[lower] = T.T[lower]
        else:
            E[J, I] = E[I, J].T
    return E


def empirical_covariance(batch: SampleBatch) -> np.ndarray:
    """Centered second-moment estimator (1/N) sum_r X_r X_r^T.

    No mean subtraction: the fields are centered by construction. A batch
    from ``sample`` has draws X = xi F^T with F of width m, so X^T X =
    F G F^T for the m x m noise Gram matrix G = xi^T xi. When that is
    cheaper (m well below n), G is regenerated from the seed by
    ``noise_gram`` and E = (1/N) F G F^T (``_noise_moment``): exactly
    symmetric, and equal to X^T X / N up to round-off, so positive
    semidefinite up to round-off. Otherwise (full rank, say), and for a
    batch built by hand, E = X^T X / N.
    """
    X = batch.draws
    n_draws, n = X.shape
    if n_draws < 2:
        raise InsufficientSamplesError(
            f"need at least 2 draws for an empirical covariance, got {n_draws}"
        )
    F = batch.factor
    if F is None or not _gram_pays(n_draws, n, F.shape[1], batch.stride or F.shape[1]):
        E = X.T @ X
        E /= n_draws
        return E
    G = noise_gram(n_draws, F.shape[1], batch.seed, stride=batch.stride)
    return _noise_moment(F, G, n_draws)


def covariance_standard_error(C: np.ndarray, n_draws: int) -> np.ndarray:
    """Entrywise standard error of the centered covariance estimator.

    For centered jointly Gaussian coordinates, Var(X_i X_j) =
    C_ii C_jj + C_ij^2, so SE_ij = sqrt((C_ii C_jj + C_ij^2) / N),
    computed at the power-of-two scale of C (``_unit_scaled``).
    """
    C, e = _unit_scaled(np.asarray(C, dtype=float))
    d = np.diag(C)
    return np.ldexp(np.sqrt((np.outer(d, d) + C**2) / n_draws), e)


def truncation_error(dec: MercerDecomposition, m: int) -> float:
    """Exact L2 truncation error of the eigen-series: sum_{k>m} lambda_k."""
    if not 0 <= m <= dec.rank:
        raise InvalidParameterError(f"truncation m={m} out of range [0, {dec.rank}]")
    return float(dec.eigenvalues[m:].sum())


def _mollifier_window(points: np.ndarray, bandwidth: float) -> np.ndarray:
    """Row-stochastic Gaussian window on the nodes, truncated at 4 bandwidths.

    Renormalization (not reflection) handles the boundary: each row is
    rescaled to unit mass over the nodes it reaches.
    """
    flat = points.reshape(points.shape[0], -1)
    diff = flat[:, None, :] - flat[None, :, :]
    dist2 = (diff**2).sum(axis=-1)
    G = np.exp(-dist2 / (2.0 * bandwidth**2))
    G[dist2 > (4.0 * bandwidth) ** 2] = 0.0
    return G / G.sum(axis=1, keepdims=True)


def mollify_factor(field: GaussianField, bandwidth: float) -> WhiteNoiseKernel:
    """Smooth the factor along its noise coordinate with a Gaussian window.

    The pointwise factor h(x, z) is convolved in z; the result is
    re-expressed in the eigenfunction coordinates, giving a valid factor
    of a perturbed covariance that approaches the original as the
    bandwidth shrinks. A window narrower than one cell is the identity.
    """
    if bandwidth <= 0.0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    dec = field.dec
    H = pointwise_kernel_matrix(field.factor, dec)
    G = _mollifier_window(field.space.points, bandwidth)
    H_smooth = H @ G.T
    F_smooth = H_smooth @ (dec.eigenfunctions * field.space.weights[:, None])
    return WhiteNoiseKernel(
        factor=F_smooth,
        gauge=f"mollified({field.factor.gauge}, bw={bandwidth:g})",
    )


def tangent_gram(
    field: GaussianField,
    t_index: int,
    offsets,
    r: float,
) -> np.ndarray:
    """Gram matrix of rescaled factor increments at a base node.

    G_ab = <(h(x_{t+o_a}) - h(x_t))/r, (h(x_{t+o_b}) - h(x_t))/r> in the
    noise coordinates; captures the local structure of the field at the
    node for the scaling exponent implied by r. Overflow raises NumericError.
    """
    if r <= 0.0:
        raise ValueError(f"scaling r must be > 0, got {r}")
    n = field.space.size
    if not 0 <= t_index < n:
        raise IndexError(f"base index {t_index} out of range for size {n}")
    shifted = [int(t_index) + int(o) for o in offsets]   # Python ints: no overflow
    if not all(0 <= s < n for s in shifted):
        raise IndexError(f"offsets move base index {t_index} to {reprlib.repr(shifted)}, "
                         f"outside [0, {n})")
    shifted = np.array(shifted, dtype=int)
    F = field.factor.factor
    with overflow_raises("tangent Gram matrix"):
        D = (F[shifted, :] - F[t_index, :]) / r
        return D @ D.T
