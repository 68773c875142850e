import numpy as np
import pytest

from wnfield.chaos import (
    ChaosPolynomial,
    HmuValuedPolynomial,
    expectation,
    random_polynomial,
)
from wnfield.errors import DimensionMismatchError
from wnfield.field import build_field, noise_matrix, sample
from wnfield.integrals import (
    RandomIntegrand,
    deterministic_integrand,
    duality_check,
    skorokhod_integral,
    transfer,
    wiener_integral,
)
from wnfield.kernels import builtin_kernel
from wnfield.spaces import interval_grid
from wnfield.spectral import RkhsElement, kernel_section

X1 = ChaosPolynomial.variable(0)
X2 = ChaosPolynomial.variable(1)
ONE = ChaosPolynomial.constant(1.0)


def terms_of(poly):
    return dict(poly.terms)


def reference_divergence(components):
    """Independent white-noise-side series: sum_k (Q_k xi_k - dQ_k/dxi_k).

    Implemented from scratch (dict arithmetic) so the transfer identity is
    checked against a second code path.
    """
    total: dict = {}

    def add_term(key, coeff):
        total[key] = total.get(key, 0.0) + coeff
        if total[key] == 0.0:
            del total[key]

    for k, Q in enumerate(components):
        for key, coeff in Q.terms.items():
            padded = list(key) + [0] * (max(0, k + 1 - len(key)))
            bumped = list(padded)
            bumped[k] += 1
            add_term(tuple(bumped), coeff)
            if padded[k] > 0:
                lowered = list(padded)
                lowered[k] -= 1
                while lowered and lowered[-1] == 0:
                    lowered.pop()
                add_term(tuple(lowered), -coeff * padded[k])
    return total


def test_wiener_integral_basis_element():
    xi = noise_matrix(1, 4, seed=9)[0]
    f = RkhsElement([1.0, 0.0, 0.0, 0.0])
    assert wiener_integral(f, xi) == xi[0]
    zero = RkhsElement(np.zeros(4))
    assert wiener_integral(zero, xi) == 0.0
    with pytest.raises(DimensionMismatchError):
        wiener_integral(RkhsElement([1.0, 2.0]), xi)


def test_wiener_integral_noise_matrix_rows():
    xi = noise_matrix(50, 4, seed=9)
    f = RkhsElement([0.5, -1.0, 2.0, 0.25])
    values = wiener_integral(f, xi)
    assert values.shape == (50,)
    np.testing.assert_allclose(values, [wiener_integral(f, row) for row in xi], rtol=1e-14, atol=0)
    with pytest.raises(DimensionMismatchError):
        wiener_integral(RkhsElement([1.0, 2.0]), xi)


def test_wiener_integral_linearity():
    rng = np.random.default_rng(4)
    xi = noise_matrix(1, 6, seed=8)[0]
    for _ in range(20):
        h, g = rng.standard_normal((2, 6))
        a, b = rng.standard_normal(2)
        lhs = wiener_integral(RkhsElement(a * h + b * g), xi)
        rhs = a * wiener_integral(RkhsElement(h), xi) + b * wiener_integral(RkhsElement(g), xi)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_wiener_integral_variance_matches_reproducing_kernel():
    # K(0.5, 0.5) = 0.5 for Brownian motion; 0.5 is a node of odd grids
    n_draws = 100_000
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(33))
    section = kernel_section(16, fld.dec)
    assert fld.space.points[16] == 0.5
    xi = noise_matrix(n_draws, fld.dec.rank, seed=77, stride=fld.dec.rank)
    values = xi @ section.coeffs
    target = section.norm_squared()
    assert target == pytest.approx(0.5, rel=1e-8)
    se = target * np.sqrt(2.0 / n_draws)
    assert abs((values**2).mean() - 0.5) < 5.0 * se


def test_skorokhod_deterministic_component():
    u = HmuValuedPolynomial((ONE,))
    assert terms_of(skorokhod_integral(u)) == {(1,): 1.0}


def test_skorokhod_classic_identity():
    # delta(xi_1 Phi_1) = xi_1^2 - 1, the W(h)^2 - ||h||^2 identity
    u = HmuValuedPolynomial((X1,))
    delta = skorokhod_integral(u)
    assert terms_of(delta) == {(2,): 1.0, (): -1.0}
    # duality oracle over test functionals F in {1, xi_1, xi_1^2}
    for F, expect_lhs in ((ONE, 0.0), (X1, 0.0), (X1**2, 2.0)):
        lhs = expectation(F * delta)
        assert lhs == pytest.approx(expect_lhs, abs=1e-14)
        assert duality_check(F, u) <= 1e-14


def test_skorokhod_cross_variable():
    u = HmuValuedPolynomial((X2, ChaosPolynomial.zero(2)))
    assert terms_of(skorokhod_integral(u)) == {(1, 1): 1.0}


def test_duality_trivial_cases():
    u = HmuValuedPolynomial((X1 * X2, X2**2))
    assert duality_check(ONE, u) == 0.0
    assert duality_check(X1, HmuValuedPolynomial((ONE,))) == 0.0
    assert duality_check(X1**2, HmuValuedPolynomial((X1,))) == 0.0


def test_duality_battery_hundred_pairs():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        m = int(rng.integers(1, 7))
        F = random_polynomial(rng, m, 4, 5)
        u = RandomIntegrand(tuple(random_polynomial(rng, m, 4, 4) for _ in range(m)))
        assert duality_check(F, u) <= 1e-10


def _builtin_sum_divergence(u):
    """The reference: each component's divergence added on by builtin ``sum``,
    one new polynomial per component."""
    return sum((P * ChaosPolynomial.variable(k) - P.partial(k) for k, P in enumerate(u.components)),
               ChaosPolynomial.zero(max(len(u), u.num_vars)))


#: few coefficients, so terms can cancel
_COEFFS = [1.0, -1.0, 2.0, -2.0, 0.5, 0.1, -0.3, 3.0]


def test_skorokhod_integral_matches_the_builtin_sum():
    rng = np.random.default_rng(27)
    for _ in range(300):   # up to 8 components of up to 6 terms in up to 8 variables
        width = int(rng.integers(0, 9))
        u = HmuValuedPolynomial(tuple(
            ChaosPolynomial({tuple(rng.integers(0, 4, rng.integers(0, width + 1))): rng.choice(_COEFFS)
                             for _ in range(rng.integers(0, 7))}, width)
            for _ in range(rng.integers(0, 9))))
        delta, reference = skorokhod_integral(u), _builtin_sum_divergence(u)
        assert terms_of(delta) == terms_of(reference)
        assert delta.num_vars == reference.num_vars


def test_skorokhod_is_centered():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        u = RandomIntegrand(tuple(random_polynomial(rng, m, 4, 4) for _ in range(m)))
        assert expectation(skorokhod_integral(u)) == pytest.approx(0.0, abs=1e-12)


def test_deterministic_reduction_is_linear_form():
    coeffs = np.array([0.5, -1.0, 2.0])
    delta = skorokhod_integral(deterministic_integrand(RkhsElement(coeffs)))
    assert terms_of(delta) == {(1,): 0.5, (0, 1): -1.0, (0, 0, 1): 2.0}


def test_deterministic_variance_formula():
    rng = np.random.default_rng(6)
    for _ in range(10):
        coeffs = rng.standard_normal(5)
        f = RkhsElement(coeffs)
        delta = skorokhod_integral(deterministic_integrand(f))
        assert abs(expectation(delta * delta) - f.norm_squared()) <= 1e-12


def test_transfer_basis_element():
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(4))
    u = RandomIntegrand(
        (ONE,) + tuple(ChaosPolynomial.zero() for _ in range(fld.dec.rank - 1))
    )
    out = transfer(u, fld.dec)
    assert [terms_of(c) for c in out.components] == [terms_of(c) for c in u.components]
    assert terms_of(skorokhod_integral(out)) == {(1,): 1.0}


def test_transfer_zero_integrand():
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(3))
    u = RandomIntegrand(tuple(ChaosPolynomial.zero() for _ in range(fld.dec.rank)))
    assert skorokhod_integral(transfer(u, fld.dec)).is_zero()


def test_transfer_rank_mismatch():
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(4))
    with pytest.raises(DimensionMismatchError):
        transfer(RandomIntegrand((X1,)), fld.dec)


def test_transfer_divergences_agree_coefficientwise():
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(5))
    rank = fld.dec.rank
    rng = np.random.default_rng(404)
    for _ in range(20):
        u = RandomIntegrand(
            tuple(random_polynomial(rng, rank, 3, 3) for _ in range(rank))
        )
        field_side = skorokhod_integral(u)
        noise_side = reference_divergence(transfer(u, fld.dec).components)
        keys = set(field_side.terms) | set(noise_side)
        for key in keys:
            assert abs(field_side.terms.get(key, 0.0) - noise_side.get(key, 0.0)) <= 1e-12


def test_strong_representation_correlation():
    # integrating the kernel section against the same noise reproduces the
    # sampled field value itself
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(33))
    x = 16
    section = kernel_section(x, fld.dec)
    n_draws = 500
    xi = noise_matrix(n_draws, fld.dec.rank, seed=5, stride=fld.dec.rank)
    b = sample(fld, n_draws, seed=5).draws[:, x]
    w = xi @ section.coeffs
    assert np.max(np.abs(b - w)) <= 1e-12
    corr = np.corrcoef(b, w)[0, 1]
    assert abs(corr - 1.0) <= 1e-12
