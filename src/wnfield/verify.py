"""The invariant battery behind ``wnfield verify``.

The white-noise factor is unique only up to an orthogonal gauge, and every
truncation of the series sum_k xi_k h_k is a function of the same noise
vector, so one factor per gauge and one noise Gram matrix serve every check.
Each check is a record ``{name, pass, error, tolerance, detail}``; a
statistic that overflows or is not finite raises NumericError naming its check.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from . import chaos, field, integrals, kernels, spaces, spectral
from .errors import NumericError, overflow_raises

__all__ = ["DEFAULT_TOLERANCES", "check", "battery"]

#: deterministic tolerances; each can be overridden by name
DEFAULT_TOLERANCES = {
    "factorization": 1e-8,   # relative to the top eigenvalue
    "orthonormality": 1e-10,
    "trace": 1e-10,          # relative
    "reproducing": 1e-6,     # scaled by ||f|| sqrt(K(x,x))
    "duality": 1e-10,
    "isometry": 1e-12,
}
#: family-wise false-alarm rate of each sampling check on correct noise
_ALPHA = 1e-6


def check(name: str, error: float, tolerance: float, detail: str = "") -> dict:
    if not np.isfinite(error):
        raise NumericError(f"check {name}: error is {error}")
    return {
        "name": name,
        "pass": bool(error <= tolerance),
        "error": float(error),
        "tolerance": float(tolerance),
        "detail": detail,
    }


def _factor_checks(C, dec, factors: dict, tol: dict) -> list[dict]:
    """hh^T = C for each gauge's factor, and the spread across gauges: the
    largest entrywise max - min, which is the largest pairwise difference."""
    scale = tol["factorization"] * (dec.eigenvalues[0] if dec.rank else 0.0)
    checks, hi, lo = [], None, None
    for g, h in factors.items():
        name = f"factorization_identity[{g}]"
        with overflow_raises(f"check {name}"):
            R = spectral.reproduce_covariance(h, dec.space)
            checks.append(check(name, float(np.max(np.abs(R - C))), scale,
                                "max entrywise |hh^T - C|"))
        hi = R if hi is None else np.maximum(hi, R, out=hi)
        lo = R.copy() if lo is None else np.minimum(lo, R, out=lo)
    with overflow_raises("check gauge_invariance"):
        checks.append(check("gauge_invariance", float(np.max(np.abs(hi - lo))), scale,
                            "max entrywise spread of reproduced covariances"))
    return checks


def _spectral_checks(C, dec, canonical, rng, n_functions: int, tol: dict) -> list[dict]:
    """Orthonormal eigenfunctions, trace = sum of eigenvalues, and
    <f, K(x, .)> = f(x) at every node for random f in the eigen-span.

    Row x of the canonical factor Phi Lambda^{1/2} holds the RKHS
    coordinates of the section K(x, .), so one matmul covers every node.
    """
    V = dec.whitened_vectors()   # orthonormal columns: nothing here can overflow
    gram = V.T @ V
    gram[np.diag_indices(dec.rank)] -= 1.0   # V^T V - I
    ortho = float(np.max(np.abs(gram, out=gram), initial=0.0))   # rank may be 0
    checks = [check("eigenfunction_orthonormality", ortho, tol["orthonormality"])]
    with overflow_raises("check trace_consistency"):
        trace = kernels.trace_of_operator(C, dec.space)
        # less n 2^-1073: the trace's n terms and the n eigenvalues each lose up to 2^-1075 when subnormal
        gap = max(abs(trace - float(dec.eigenvalues.sum())) - dec.space.size * 2.0**-1073, 0.0)
        rel_err = gap / abs(trace) if trace else (np.inf if gap else 0.0)
        checks.append(check("trace_consistency", rel_err, tol["trace"],
                            "relative |trace - sum of eigenvalues|"))
    with overflow_raises("check reproducing_property"):
        root_diag = np.sqrt(np.maximum(np.diag(C), 0.0))
        worst = 0.0
        for _ in range(n_functions):
            coeffs = rng.standard_normal(dec.rank)
            fvec = dec.eigenfunctions @ (np.sqrt(dec.eigenvalues) * coeffs)
            element = spectral.to_rkhs(fvec, dec)
            scale = np.maximum(np.sqrt(element.norm_squared()) * root_diag, 1e-300)
            residual = np.abs(canonical.factor @ element.coeffs - fvec) / scale
            worst = max(worst, float(np.max(residual)))
        checks.append(check("reproducing_property", worst, tol["reproducing"],
                            "scaled |<f, K(x,.)> - f(x)| over random eigen-span f"))
    return checks


def _sidak_threshold(family: int, alpha: float) -> float:
    """The level that ``family`` independent |N(0, 1)| (at least one) all
    stay below with probability 1 - alpha: -ndtri(p/2), p = 1 - (1 - alpha)^(1/family)."""
    p = -np.expm1(np.log1p(-alpha) / max(family, 1))
    return float(-ndtri(p / 2.0))


def _sampling_checks(dec, seed: int, n_draws: int) -> list[dict]:
    """Whiteness of the noise ``field.sample`` reads at this seed, and the
    truncation band, from the noise Gram matrix G = xi^T xi alone.

    Draws are X = xi F^T, so Chat - C = F (G/N - I) F^T + (F F^T - C): the
    second term is the factorization identity, and the first depends on the
    noise only, through z = sqrt(N) (G/N - I) with the diagonal divided by
    sqrt(2), entrywise of mean 0 and variance 1. The canonical factor A =
    Phi Lambda^{1/2} has A^T W A = Lambda, so the tail draws after t terms
    have mean squared norm sum_{k>t} lambda_k G_kk / N, which lies
    sum_{k>t} lambda_k z_kk / ||lambda_{k>t}|| sds from its mean. Each check
    gates its largest score at the Sidak threshold of family-wise rate
    ``_ALPHA``.
    """
    m = dec.rank
    G = field.noise_gram(n_draws, m, seed)
    z = (G / n_draws - np.eye(m)) * np.sqrt(n_draws)
    z[np.diag_indices(m)] /= np.sqrt(2.0)
    upper = np.abs(np.triu(z))
    detail = f"max |z_kl| over modes k <= l, N={n_draws}"
    if m:
        k, l = np.unravel_index(np.argmax(upper), upper.shape)
        detail += f"; worst (k, l) = ({k + 1}, {l + 1})"
    checks = [check("noise_gram_band", float(np.max(upper, initial=0.0)),
                    _sidak_threshold(m * (m + 1) // 2, _ALPHA), detail)]
    if m >= 2:
        cuts = sorted({1, m // 2})   # terms kept
        worst = 0.0
        for t in cuts:
            tail, _ = spaces._unit_scaled(dec.eigenvalues[t:])   # no square over- or underflows
            worst = max(worst, abs(float(tail @ np.diagonal(z)[t:])) / float(np.sqrt(tail @ tail)))
        checks.append(check("truncation_band", worst, _sidak_threshold(len(cuts), _ALPHA),
                            f"max |sum_(k>t) lambda_k z_kk| / ||lambda_(k>t)|| over "
                            f"truncations t in {cuts}"))
    return checks


def _chaos_checks(dec, rng, n_pairs: int, tol: dict) -> list[dict]:
    """Skorokhod duality over random polynomial pairs, and the isometry
    E[delta(f)^2] = ||f||^2 for deterministic f, both symbolic."""
    worst_dual = 0.0
    for _ in range(n_pairs):
        m_vars = int(rng.integers(1, 7))
        F = chaos.random_polynomial(rng, m_vars, 4, 5)
        u = integrals.RandomIntegrand(
            tuple(chaos.random_polynomial(rng, m_vars, 4, 4) for _ in range(m_vars))
        )
        worst_dual = max(worst_dual, integrals.duality_check(F, u))
    iso_err = 0.0
    for _ in range(5):
        f = spectral.RkhsElement(rng.standard_normal(min(dec.rank, 6)))
        delta = integrals.skorokhod_integral(integrals.deterministic_integrand(f))
        iso_err = max(iso_err, abs(chaos.expectation(delta * delta) - f.norm_squared()))
    return [
        check("duality_battery", worst_dual, tol["duality"],
              f"|E[F delta(u)] - E[<DF,u>]| over {n_pairs} random pairs"),
        check("deterministic_isometry", iso_err, tol["isometry"],
              "|E[delta(f)^2] - ||f||^2| symbolically"),
    ]


def battery(C, dec, *, gauge_seed: int = 0, seed: int = 0, n_draws: int = 20000,
            reproducing_functions: int = 10, duality_pairs: int = 100,
            tolerances: dict | None = None, external_factor=None) -> list[dict]:
    """Every check on covariance ``C`` and its decomposition, in report order.

    ``gauge_seed`` picks the ``rotated`` gauge; ``seed`` keys the noise and
    the random test functions and polynomials. An ``external_factor`` (read
    from a file, say) replaces the canonical one in the factorization
    identity and gauge invariance checks only.
    """
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    rng = np.random.default_rng(seed)
    factors = {g: spectral.factorize(dec, g, seed=gauge_seed) for g in spectral.GAUGES}
    canonical = factors["symmetric_sqrt"]
    checked = factors if external_factor is None else {**factors, "symmetric_sqrt": external_factor}
    return [
        *_factor_checks(C, dec, checked, tol),
        *_spectral_checks(C, dec, canonical, rng, reproducing_functions, tol),
        *_sampling_checks(dec, seed, n_draws),
        *_chaos_checks(dec, rng, duality_pairs, tol),
    ]
