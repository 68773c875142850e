"""Stochastic integrals against the field and their exact duality checks.

Deterministic integrands integrate to linear combinations of the noise
coordinates; random integrands (polynomial coefficients against the RKHS
basis) integrate through the divergence series

    delta(u) = sum_k (P_k * xi_k - dP_k/dxi_k)

whose defining property, E[F delta(u)] = E[<DF, u>], is verifiable to
round-off in the polynomial algebra. The transfer map re-reads the same
coefficients against the orthonormal basis of the underlying white noise,
so both sides of the integral identity can be computed independently.
"""

from __future__ import annotations

import numpy as np

from .chaos import (
    ChaosPolynomial,
    HmuValuedPolynomial,
    _sum,
    expectation,
    malliavin_derivative,
)
from .errors import DimensionMismatchError
from .spectral import MercerDecomposition, RkhsElement

__all__ = [
    "RandomIntegrand",
    "deterministic_integrand",
    "wiener_integral",
    "skorokhod_integral",
    "duality_check",
    "transfer",
]

#: A random integrand u = sum_k P_k Phi_k is exactly an RKHS-valued
#: polynomial; the alias marks intent at call sites.
RandomIntegrand = HmuValuedPolynomial


def deterministic_integrand(f: RkhsElement) -> RandomIntegrand:
    """Lift an RKHS element to a (constant-component) random integrand."""
    return HmuValuedPolynomial(
        tuple(ChaosPolynomial.constant(a) for a in f.coeffs)
    )


def wiener_integral(f: RkhsElement, xi) -> float | np.ndarray:
    """Integral of a deterministic integrand against noise xi: sum_k a_k xi_k.

    The coefficients against the RKHS basis are exactly the series
    weights, so across draws the value is centered Gaussian with variance
    equal to the squared RKHS norm of f. A noise vector gives a float; an
    (N, m) noise matrix, one draw per row, gives the N values.

    Raises
    ------
    DimensionMismatchError
        If the noise is not a vector or a matrix whose rows have one
        entry per coefficient.
    """
    a = f.coeffs
    xi = np.asarray(xi, dtype=float)
    if xi.ndim not in (1, 2) or xi.shape[-1] != a.size:
        raise DimensionMismatchError(
            f"integrand has {a.size} coefficients but noise has shape {xi.shape}"
        )
    values = xi @ a
    return float(values) if xi.ndim == 1 else values


def skorokhod_integral(u: RandomIntegrand) -> ChaosPolynomial:
    """Divergence of a random integrand: sum_k (P_k xi_k - dP_k/dxi_k).

    Always centered: taking F = 1 in the duality gives E[delta(u)] = 0.
    For constant components this reduces to the deterministic series.
    """
    return _sum((P * ChaosPolynomial.variable(k) - P.partial(k) for k, P in enumerate(u.components)),
                max(len(u), u.num_vars))


def duality_check(F: ChaosPolynomial, u: RandomIntegrand) -> float:
    """|E[F delta(u)] - E[<DF, u>]|: zero (to round-off) for all polynomials.

    This is the defining property of the divergence; it is what validates
    the series form used by skorokhod_integral.
    """
    lhs = expectation(F * skorokhod_integral(u))
    # E[<DF, u>] = sum_k E[dF/dxi_k u_k]; components past the shorter side are zero
    rhs = sum(expectation(a * b) for a, b in zip(malliavin_derivative(F).components, u.components))
    return abs(lhs - rhs)


def transfer(u: RandomIntegrand, dec: MercerDecomposition) -> RandomIntegrand:
    """Re-express an integrand against the white-noise side of the field.

    The unitary identification sends the k-th RKHS basis element to the
    k-th orthonormal eigenfunction, so coordinates are preserved and only
    their basis interpretation changes; the divergence of the result,
    computed coefficientwise, agrees with the field-side divergence.
    """
    if len(u.components) != dec.rank:
        raise DimensionMismatchError(
            f"integrand has {len(u.components)} components but decomposition "
            f"rank is {dec.rank}"
        )
    return HmuValuedPolynomial(u.components)
