import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wnfield.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NotInRkhsError,
    NotPositiveSemidefiniteError,
    NumericError,
)
from wnfield.kernels import (
    CovarianceKernel,
    assemble,
    builtin_kernel,
    matrix_kernel,
    trace_of_operator,
)
from wnfield import spectral
from wnfield.spaces import DiscreteMeasureSpace, interval_grid
from wnfield.spectral import (
    GAUGES,
    RkhsElement,
    WhiteNoiseKernel,
    decompose,
    factorize,
    kernel_section,
    pointwise_kernel_matrix,
    reproduce_covariance,
    rkhs_inner,
    to_rkhs,
)

ALL_KERNELS = [
    ("brownian_motion", {}),
    ("brownian_bridge", {}),
    ("fbm", {"hurst": 0.7}),
    ("squared_exponential", {"length_scale": 1.0}),
    ("white_diagonal", {"sigma2": 1.0}),
]

# analytic Karhunen-Loeve eigenvalues of Brownian motion on [0,1]
BM_ANALYTIC = [1.0 / (((k - 0.5) * np.pi) ** 2) for k in range(1, 6)]


def _kernel_case(name, params, n):
    sp = interval_grid(n)
    return assemble(builtin_kernel(name, params), sp), sp


def _decompose_builtin(name, params, n):
    C, sp = _kernel_case(name, params, n)
    return C, sp, decompose(C, sp)


def test_white_diagonal_grid2_operator_eigenvalues():
    # operator eigenvalues carry the measure weight: S = diag(0.5, 0.5)
    _, _, dec = _decompose_builtin("white_diagonal", {"sigma2": 1.0}, 2)
    assert np.allclose(dec.eigenvalues, [0.5, 0.5], atol=1e-15)
    # eigenfunctions are indicator vectors scaled sqrt(2)
    cols = {tuple(np.round(dec.eigenfunctions[:, k], 10)) for k in range(2)}
    root2 = round(np.sqrt(2.0), 10)
    assert cols == {(root2, 0.0), (0.0, root2)}


def test_brownian_motion_eigenvalues_converge_to_analytic():
    _, _, dec512 = _decompose_builtin("brownian_motion", {}, 512)
    _, _, dec128 = _decompose_builtin("brownian_motion", {}, 128)
    for k in range(5):
        err512 = abs(dec512.eigenvalues[k] - BM_ANALYTIC[k]) / BM_ANALYTIC[k]
        err128 = abs(dec128.eigenvalues[k] - BM_ANALYTIC[k]) / BM_ANALYTIC[k]
        assert err512 < 0.01
        assert err512 < err128  # refinement improves the estimate


def test_rank_one_kernel():
    sp = interval_grid(32)
    k = CovarianceKernel("product", lambda s, t: s * t)
    dec = decompose(assemble(k, sp), sp)
    assert dec.rank == 1
    quadrature_oracle = float(np.dot(sp.points**2, sp.weights))
    assert dec.eigenvalues[0] == pytest.approx(quadrature_oracle, rel=1e-12)
    # single-column factor reproduces the kernel as an outer product
    h = factorize(dec, "symmetric_sqrt")
    c = h.factor[:, 0]
    assert np.allclose(np.outer(c, c), assemble(k, sp), atol=1e-12)


def test_factorize_single_point_unit_kernel():
    sp = DiscreteMeasureSpace(points=[0.0], weights=[1.0])
    dec = decompose(np.array([[1.0]]), sp)
    h = factorize(dec, "symmetric_sqrt")
    assert h.factor.shape == (1, 1)
    assert h.factor[0, 0] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("name,params", ALL_KERNELS)
@pytest.mark.parametrize("gauge", GAUGES)
def test_reproduce_covariance_all_gauges(name, params, gauge):
    C, sp, dec = _decompose_builtin(name, params, 64)
    h = factorize(dec, gauge, seed=7)
    R = reproduce_covariance(h, sp)
    assert np.max(np.abs(R - C)) <= 1e-8 * dec.eigenvalues[0]


def test_rotated_matches_symmetric_reproduction():
    C, sp, dec = _decompose_builtin("brownian_motion", {}, 64)
    R_sym = reproduce_covariance(factorize(dec, "symmetric_sqrt"), sp)
    R_rot = reproduce_covariance(factorize(dec, "rotated", seed=7), sp)
    assert np.max(np.abs(R_sym - R_rot)) <= 1e-8 * dec.eigenvalues[0]


def test_rotated_seed_changes_factor_not_distribution():
    _, sp, dec = _decompose_builtin("brownian_motion", {}, 16)
    h1 = factorize(dec, "rotated", seed=1)
    h2 = factorize(dec, "rotated", seed=2)
    assert not np.allclose(h1.factor, h2.factor)
    assert np.allclose(
        reproduce_covariance(h1, sp), reproduce_covariance(h2, sp), atol=1e-12
    )
    assert h1.gauge == "rotated:1"


def test_unknown_gauge():
    _, _, dec = _decompose_builtin("brownian_motion", {}, 8)
    with pytest.raises(ValueError, match="gauge"):
        factorize(dec, "cholesky")


def test_triangular_gauge_pointwise_matrix_is_lower_triangular():
    for name, params in ALL_KERNELS:
        if name == "squared_exponential":
            continue  # rank deficient: pointwise triangularity not achievable
        _, sp, dec = _decompose_builtin(name, params, 32)
        assert dec.rank == 32
        H = pointwise_kernel_matrix(factorize(dec, "triangular"), dec)
        scale = np.max(np.abs(H))
        assert np.max(np.abs(np.triu(H, k=1))) <= 1e-10 * scale


def test_triangular_gauge_deficient_rank_factor_is_trapezoidal():
    _, sp, dec = _decompose_builtin("squared_exponential", {"length_scale": 1.0}, 64)
    assert dec.rank < 64
    h = factorize(dec, "triangular")
    whitened = h.factor * np.sqrt(sp.weights)[:, None]
    for i in range(dec.rank - 1):
        assert np.max(np.abs(whitened[i, i + 1:])) <= 1e-12


def test_reproduce_zero_and_rank_one_shapes():
    sp = interval_grid(4)
    zero = WhiteNoiseKernel(factor=np.zeros((4, 0)), gauge="symmetric_sqrt")
    assert np.array_equal(reproduce_covariance(zero, sp), np.zeros((4, 4)))
    c = np.array([[1.0], [2.0], [0.5], [-1.0]])
    single = WhiteNoiseKernel(factor=c, gauge="symmetric_sqrt")
    assert np.allclose(reproduce_covariance(single, sp), np.outer(c, c), atol=0)


def test_reproduce_dimension_mismatch():
    h = WhiteNoiseKernel(factor=np.ones((3, 2)), gauge="symmetric_sqrt")
    with pytest.raises(DimensionMismatchError):
        reproduce_covariance(h, interval_grid(4))


def test_to_rkhs_basis_element():
    _, sp, dec = _decompose_builtin("brownian_motion", {}, 16)
    j = 3
    f = np.sqrt(dec.eigenvalues[j]) * dec.eigenfunctions[:, j]
    a = to_rkhs(f, dec)
    expected = np.zeros(dec.rank)
    expected[j] = 1.0
    assert np.allclose(a.coeffs, expected, atol=1e-10)


def test_to_rkhs_linear_function_under_brownian_motion():
    # the RKHS of min(s,t) consists of f with f(0)=0, norm^2 = int (f')^2;
    # f(t) = t has norm exactly 1
    _, sp, dec = _decompose_builtin("brownian_motion", {}, 512)
    a = to_rkhs(sp.points.copy(), dec)
    assert a.norm_squared() == pytest.approx(1.0, rel=0.02)


def test_to_rkhs_kernel_row_matches_section():
    C, sp, dec = _decompose_builtin("brownian_motion", {}, 64)
    x = 20
    a = to_rkhs(C[:, x], dec)
    section = kernel_section(x, dec)
    assert np.allclose(a.coeffs, section.coeffs, atol=1e-10)
    assert a.norm_squared() == pytest.approx(section.norm_squared(), rel=1e-10)


def test_to_rkhs_rejects_out_of_span():
    C, sp, dec = _decompose_builtin("squared_exponential", {"length_scale": 1.0}, 64)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(64)  # almost surely far outside the rank-8 span
    with pytest.raises(NotInRkhsError) as err:
        to_rkhs(f, dec, membership_tol=1e-8)
    assert 0.0 < err.value.residual <= 1.0


def test_to_rkhs_rejects_out_of_span_at_every_scale():
    # a tiny vector is tested like any other: its norm does not underflow to 0
    C, sp, dec = _decompose_builtin("squared_exponential", {"length_scale": 0.3}, 16)
    assert dec.rank == 13
    residuals = []
    for scale in (1.0, 1e-100, 1e-170, 1e-300):
        f = np.zeros(16)
        f[0] = scale
        with pytest.raises(NotInRkhsError) as err:
            to_rkhs(f, dec)
        residuals.append(err.value.residual)
    assert residuals[0] == pytest.approx(4.2e-3, rel=0.01)
    assert residuals == pytest.approx([residuals[0]] * 4, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", [-600, -1, 1, 600])
@pytest.mark.parametrize("weight", [0.25, 1e300], ids=["unit-mass", "heavy"])
def test_to_rkhs_commutes_with_powers_of_two(weight, k):
    # formed at the power-of-two scale of f, so exact for any power of two,
    # even where the weighted products of 2^k f itself would overflow
    sp = DiscreteMeasureSpace(points=[0.1, 0.4, 0.6, 0.9], weights=[weight] * 4)
    dec = decompose(assemble(builtin_kernel("squared_exponential", {"length_scale": 0.3}), sp), sp)
    f = np.array([1.0, -1.0, 3.0, 0.0])
    a = to_rkhs(f, dec).coeffs
    assert np.array_equal(to_rkhs(np.ldexp(f, k), dec).coeffs, np.ldexp(a, k))


def test_rkhs_inner_examples():
    a = RkhsElement([1.0, 0.0, 0.0])
    assert rkhs_inner(a, a) == 1.0
    b = RkhsElement([0.0, 2.0, 0.0])
    assert rkhs_inner(a, b) == 0.0
    with pytest.raises(DimensionMismatchError):
        rkhs_inner(a, RkhsElement([1.0, 2.0]))


def test_rkhs_element_requires_finite_coefficients():
    with pytest.raises(ValueError):
        RkhsElement([1.0, np.inf])


def test_kernel_sections_reproduce_covariance_entries():
    C, sp, dec = _decompose_builtin("brownian_motion", {}, 64)
    lam1 = dec.eigenvalues[0]
    rng = np.random.default_rng(8)
    for _ in range(20):
        x, y = rng.integers(0, 64, size=2)
        value = rkhs_inner(kernel_section(int(x), dec), kernel_section(int(y), dec))
        assert abs(value - C[x, y]) <= 1e-8 * lam1


def test_kernel_section_single_point():
    sp = DiscreteMeasureSpace(points=[0.0], weights=[1.0])
    dec = decompose(np.array([[1.0]]), sp)
    section = kernel_section(0, dec)
    assert np.allclose(section.coeffs, [1.0], atol=1e-14)
    assert rkhs_inner(section, section) == pytest.approx(1.0, abs=1e-14)


def test_kernel_section_brownian_middle():
    C, sp, dec = _decompose_builtin("brownian_motion", {}, 512)
    x = 255
    section = kernel_section(x, dec)
    assert rkhs_inner(section, section) == pytest.approx(C[x, x], rel=1e-10)
    # reproducing f(t) = t at x
    a = to_rkhs(sp.points.copy(), dec)
    assert rkhs_inner(a, section) == pytest.approx(sp.points[x], rel=0.01)


def test_kernel_section_index_range():
    _, _, dec = _decompose_builtin("brownian_motion", {}, 8)
    with pytest.raises(IndexError):
        kernel_section(8, dec)
    with pytest.raises(IndexError):
        kernel_section(-1, dec)


def test_reproducing_property_random_functions():
    rng = np.random.default_rng(17)
    for name in ("brownian_motion", "squared_exponential"):
        C, sp, dec = _decompose_builtin(name, {}, 128)
        for _ in range(10):
            coeffs = rng.standard_normal(dec.rank)
            f = dec.eigenfunctions @ (np.sqrt(dec.eigenvalues) * coeffs)
            a = to_rkhs(f, dec)
            norm = np.sqrt(a.norm_squared())
            for x in range(0, 128, 7):
                lhs = rkhs_inner(a, kernel_section(x, dec))
                scale = norm * np.sqrt(max(C[x, x], 1e-300))
                assert abs(lhs - f[x]) <= 1e-6 * scale


@pytest.mark.parametrize("name,params", ALL_KERNELS)
def test_eigenfunction_orthonormality(name, params):
    _, sp, dec = _decompose_builtin(name, params, 64)
    V = dec.whitened_vectors()
    gram = V.T @ V
    assert np.max(np.abs(gram - np.eye(dec.rank))) <= 1e-10


@pytest.mark.parametrize("name,params", ALL_KERNELS)
def test_mercer_reconstruction(name, params):
    C, sp, dec = _decompose_builtin(name, params, 64)
    assert np.max(np.abs(dec.reconstruction() - C)) <= 1e-8 * dec.eigenvalues[0]
    assert np.all(np.diff(dec.eigenvalues) <= 1e-12 * dec.eigenvalues[0])


@pytest.mark.parametrize("name,params", ALL_KERNELS)
def test_parseval_trace(name, params):
    C, sp, dec = _decompose_builtin(name, params, 64)
    tr = trace_of_operator(C, sp)
    assert abs(dec.eigenvalues.sum() - tr) <= 1e-10 * tr


def test_decompose_rejects_indefinite():
    sp = interval_grid(3)
    C = np.diag([1.0, 1.0, -0.5])
    with pytest.raises(NotPositiveSemidefiniteError) as err:
        decompose(C, sp)
    assert err.value.worst_eigenvalue < 0.0


@pytest.mark.parametrize("k", [-600, 0, 600])
def test_indefinite_is_reported_at_the_scale_of_c(k):
    # max|C| max(w) = 4/3, so the eigensolver sees S / 2^2: the error scales
    # the eigenvalue and its tolerance back
    with pytest.raises(NotPositiveSemidefiniteError) as err:
        decompose(np.diag(np.ldexp([4.0, 4.0, -2.0], k)), interval_grid(3))
    worst, tol = np.ldexp([-2.0 / 3.0, -4.0 / 3.0 * spectral.NEGATIVE_EIGENVALUE_BAND], k)
    assert err.value.worst_eigenvalue == worst
    assert str(err.value) == (f"covariance operator is not positive semidefinite: "
                              f"eigenvalue {worst:.6e} below tolerance {tol:.6e}")


def test_decompose_clamps_roundoff_negatives():
    sp = DiscreteMeasureSpace(points=[0.0, 1.0], weights=[1.0, 1.0])
    C = np.diag([1.0, -1e-12])
    dec = decompose(C, sp)
    assert dec.rank == 1
    assert dec.dropped_mass == 0.0
    assert dec.clamped_mass == pytest.approx(1e-12, rel=1e-12, abs=0.0)


def test_decompose_rejects_non_finite_entries():
    C = np.array([[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NumericError, match=r"not finite at entry \(0, 1\)"):
        decompose(C, interval_grid(3))
    C = np.eye(3)
    C[2, 1] = np.inf
    with pytest.raises(NumericError, match=r"not finite at entry \(2, 1\)"):
        decompose(C, interval_grid(3))


def test_decompose_reports_lapack_failure(monkeypatch):
    monkeypatch.setattr(spectral.lapack, "dstevd", lambda *args, **kwargs: (None, None, 5))
    with pytest.raises(NumericError, match="dstevd failed with info = 5"):
        decompose(np.eye(3), interval_grid(3))


def test_decompose_zero_matrix():
    dec = decompose(np.zeros((4, 4)), interval_grid(4))
    assert dec.rank == 0
    assert dec.dropped_mass == 0.0
    assert dec.eigenvalues.size == 0


def test_drop_tolerance_accumulates_mass():
    sp = DiscreteMeasureSpace(points=[0.0, 1.0], weights=[1.0, 1.0])
    C = np.diag([1.0, 1e-15])
    dec = decompose(C, sp, drop_tol=1e-12)
    assert dec.rank == 1
    assert dec.dropped_mass == pytest.approx(1e-15, abs=0)


def test_decompose_rejects_bad_drop_tol():
    # drop_tol=-1 would keep the zero eigenvalues, nan or inf drop everything,
    # and an int past the float range overflowed in drop_tol * lambda_1
    C = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    for bad in (np.nan, np.inf, -1.0, 10**400):
        with pytest.raises(InvalidParameterError, match="drop_tol"):
            decompose(C, interval_grid(3), drop_tol=bad)


def test_decomposition_is_deterministic():
    for name, params in ALL_KERNELS:
        _, sp, dec1 = _decompose_builtin(name, params, 32)
        _, _, dec2 = _decompose_builtin(name, params, 32)
        assert np.array_equal(dec1.eigenvalues, dec2.eigenvalues)
        assert np.array_equal(dec1.eigenfunctions, dec2.eigenfunctions)


def test_sign_convention():
    _, _, dec = _decompose_builtin("brownian_motion", {}, 32)
    for k in range(dec.rank):
        col = dec.eigenfunctions[:, k]
        first_big = col[np.abs(col) > 1e-8][0]
        assert first_big > 0.0


def test_sign_fix_on_random_columns():
    rng = np.random.default_rng(7)
    V = rng.standard_normal((40, 8))
    V[:5] *= 1e-9                                    # leading entries below the threshold
    V[:, 1] = rng.uniform(-1e-8, 1e-8, 40)           # no entry above it
    V[0, 1] = -1e-9
    V[:6, 2], V[6, 2] = -0.0, -0.5                   # -0.0 ahead of a negative big entry
    V[:2, 3] = -1e-8, 0.25                           # exactly -1e-8 is not big
    V[:2, 4] = -1e-8, -0.25
    V[:, 5] = -0.0
    before = V.copy()
    W = spectral._sign_fix(V)
    assert np.array_equal(V, before) and np.array_equal(np.signbit(V), np.signbit(before))
    expected = V.copy()
    for k in range(V.shape[1]):
        big = np.flatnonzero(np.abs(V[:, k]) > 1e-8)
        if big.size and V[big[0], k] < 0.0:
            expected[:, k] = -V[:, k]
        if big.size:
            assert W[big[0], k] > 0.0
    assert np.array_equal(W, expected) and np.array_equal(np.signbit(W), np.signbit(expected))
    for k in (1, 3, 5):                              # left as they were, bit for bit
        assert np.array_equal(np.signbit(W[:, k]), np.signbit(V[:, k]))
        assert np.array_equal(W[:, k], V[:, k])
    for k in (2, 4):
        assert np.array_equal(W[:, k], -V[:, k])
    assert not np.signbit(W[:6, 2]).any()


def test_degenerate_cluster_order_is_stable():
    _, _, dec = _decompose_builtin("white_diagonal", {"sigma2": 2.0}, 8)
    assert np.allclose(dec.eigenvalues, 2.0 / 8.0, atol=1e-14)
    # indicator eigenfunctions, deterministically ordered by point index
    expected = np.eye(8) * np.sqrt(8.0)
    assert np.allclose(dec.eigenfunctions, expected, atol=1e-12)


def _clusters_by_sorted_column_tuples(lam, V):
    """The cluster order as Python's sort of column tuples gives it."""
    tol = spectral.DEGENERACY_TOL * max(lam[0], 1e-300)
    order, start = list(range(lam.size)), 0
    for end in range(1, lam.size + 1):
        if end == lam.size or lam[start] - lam[end] > tol:
            order[start:end] = sorted(order[start:end], key=lambda j: tuple(V[:, j]), reverse=True)
            start = end
    return lam[order], V[:, order]


def _one_repeated_eigenvalue():
    Q = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 6)))[0]
    C = (Q * [3.0, 2.0, 2.0, 1.0, 0.5, 0.25]) @ Q.T
    return assemble(matrix_kernel((C + C.T) / 2), interval_grid(6)), interval_grid(6)


@pytest.mark.parametrize("case", [lambda: _kernel_case("white_diagonal", {"sigma2": 1.0}, 64),
                                  _one_repeated_eigenvalue], ids=["white-64", "one-repeated"])
def test_degenerate_clusters_keep_the_order_of_sorted_column_tuples(monkeypatch, case):
    calls, order = [], spectral._order_degenerate_clusters

    def recorded(lam, V):
        calls.append((lam, V))
        return order(lam, V)

    monkeypatch.setattr(spectral, "_order_degenerate_clusters", recorded)
    C, space = case()
    dec = decompose(C, space)
    (lam, V), = calls
    assert np.min(-np.diff(lam)) <= spectral.DEGENERACY_TOL * lam[0]   # a cluster to order
    expected_lam, expected_V = _clusters_by_sorted_column_tuples(lam, V)
    # the pairs are ordered at the power-of-two scale of S, then scaled back
    e = np.frexp(np.abs(C).max())[1] + np.frexp(space.weights.max())[1]
    assert np.array_equal(dec.eigenvalues, np.ldexp(expected_lam, e))
    assert np.array_equal(dec.eigenfunctions, expected_V / np.sqrt(dec.space.weights)[:, None])


def test_decompose_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        decompose(np.eye(3), interval_grid(4))


@st.composite
def _low_rank_covariances(draw):
    """C = D^{-1/2} Z Z^T D^{-1/2} on random positive weights D: the whitened
    operator Z Z^T has a random part of rank r and a scaled identity block,
    so blocks of size >= 2 give a repeated eigenvalue."""
    n = draw(st.integers(1, 24))
    block = draw(st.integers(0, n))
    r = draw(st.integers(0, n - block))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z = np.zeros((n, r + block))
    Z[: n - block, :r] = rng.standard_normal((n - block, r)) * rng.uniform(0.1, 2.0, r)
    Z[n - block:, r:] = np.eye(block) * draw(st.floats(0.1, 2.0))
    weights = rng.uniform(0.1, 1.0, n)
    w_isqrt = 1.0 / np.sqrt(weights)
    C = (Z @ Z.T) * w_isqrt[:, None] * w_isqrt[None, :]
    return C, DiscreteMeasureSpace(points=np.arange(float(n)), weights=weights)


#: sketch constants that let ``decompose`` try the sketch from n = 8 on
FORCED_SKETCH = {"_SKETCH_MIN_N": 8, "_PROBE_COLUMNS": 8, "_OVERSAMPLE": 4,
                 "_SKETCH_MAX_FRACTION": 1}


def _force_sketch(monkeypatch):
    for name, value in FORCED_SKETCH.items():
        monkeypatch.setattr(spectral, name, value)


def _count_calls(monkeypatch, module, name):
    """Record each call of module.name in the returned list."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(module, name, spy)
    return calls


def _dense_reference(C, sp, drop_tol=1e-12):
    """Descending eigenvalues of the whitened operator from a dense ``eigh``,
    clamped at zero, and the mask the drop rule keeps."""
    w_sqrt = np.sqrt(sp.weights)
    ref = np.linalg.eigh((C * w_sqrt[:, None]) * w_sqrt[None, :])[0][::-1]
    lam_1 = max(ref[0], 0.0)
    ref = np.maximum(ref, 0.0)
    keep = ref > drop_tol * lam_1 if lam_1 > 0.0 else np.zeros(ref.size, dtype=bool)
    return ref, keep, max(lam_1, 1e-300)


def test_decompose_matches_dense_reference(monkeypatch):
    # every case runs at the default constants (dense at these sizes) and
    # with the sketch forced; the forced run must both accept and reject it
    sketches = _count_calls(monkeypatch, spectral, "_sketch_pairs")

    @settings(derandomize=True, deadline=None, database=None, max_examples=200)
    @given(_low_rank_covariances())
    def matches(case):
        C, sp = case
        ref, keep, scale = _dense_reference(C, sp)
        for forced in (False, True):
            with monkeypatch.context() as m:
                if forced:
                    _force_sketch(m)
                dec = decompose(C, sp)
            assert dec.rank == keep.sum()
            assert np.max(np.abs(dec.eigenvalues - ref[keep]), initial=0.0) <= 1e-12 * scale
            assert abs(dec.dropped_mass - ref[~keep].sum()) <= 1e-12 * scale
            V = dec.whitened_vectors()
            assert np.max(np.abs(V.T @ V - np.eye(dec.rank)), initial=0.0) <= 1e-10
            assert np.max(np.abs(dec.reconstruction() - C)) <= 1e-8 * scale
            trace = trace_of_operator(C, sp)
            assert abs(dec.eigenvalues.sum() + dec.dropped_mass - dec.clamped_mass - trace) \
                <= 1e-12 * scale
            assert 0.0 <= dec.tail_bound <= 1e-12 * scale

    matches()
    accepted = [found is not None for found in sketches]
    assert True in accepted and False in accepted


def _spectrum_matrix(eigenvalues, seed=0):
    """Covariance on interval_grid(n) whose whitened operator has the given
    spectrum, with eigenvectors from a random orthogonal matrix."""
    lam = np.asarray(eigenvalues, dtype=float)
    sp = interval_grid(lam.size)
    U = np.linalg.qr(np.random.default_rng(seed).standard_normal((lam.size, lam.size)))[0]
    S = (U * lam) @ U.T
    S = (S + S.T) / 2.0
    return S / sp.weights[0], sp


def _dense_decompose(monkeypatch, C, sp, drop_tol=1e-12):
    with monkeypatch.context() as m:
        m.setattr(spectral, "_SKETCH_MIN_N", 10**9)
        return decompose(C, sp, drop_tol=drop_tol)


def _assert_same(dec, ref):
    assert np.array_equal(dec.eigenvalues, ref.eigenvalues)
    assert np.array_equal(dec.eigenfunctions, ref.eigenfunctions)
    assert (dec.dropped_mass, dec.clamped_mass, dec.tail_bound) == \
        (ref.dropped_mass, ref.clamped_mass, ref.tail_bound)


def _plateau_case():
    # a Gaussian-like decay that the probe extrapolates to below drop_tol,
    # over a flat tail at 1e-8 that no sketch of that width resolves
    k = np.arange(512)
    return _spectrum_matrix(np.maximum(np.exp(-0.05 * k**2), 1e-8))


@pytest.mark.parametrize("case,drop_tol,forced", [
    (lambda: _kernel_case("fbm", {"hurst": 0.7}, 64), 1e-12, True),
    (_plateau_case, 1e-12, False),
    (lambda: _kernel_case("squared_exponential", {"length_scale": 0.1}, 512), 0.0, False),
], ids=["full_rank", "plateau_above_drop_tol", "drop_tol_zero"])
def test_decompose_falls_back_to_dense(monkeypatch, case, drop_tol, forced):
    C, sp = case()
    ref = _dense_decompose(monkeypatch, C, sp, drop_tol)
    if forced:
        _force_sketch(monkeypatch)
    reductions = _count_calls(monkeypatch, spectral.lapack, "dsytrd")
    dec = decompose(C, sp, drop_tol=drop_tol)
    assert len(reductions) == 1
    _assert_same(dec, ref)
    assert dec.tail_bound == 0.0


@pytest.mark.parametrize("k", [0, 40])
def test_sketch_rejects_indefinite(monkeypatch, k):
    # rank 3 plus one clearly negative eigenvalue: the sketch resolves all
    # four, so its certificate holds and its Ritz values fail the PSD check,
    # reported at the scale of C
    _force_sketch(monkeypatch)
    C, sp = _spectrum_matrix([1.0, 0.5, 0.2, -0.3] + [0.0] * 28)
    reductions = _count_calls(monkeypatch, spectral.lapack, "dsytrd")
    with pytest.raises(NotPositiveSemidefiniteError) as err:
        decompose(np.ldexp(C, k), sp)
    assert err.value.worst_eigenvalue == pytest.approx(np.ldexp(-0.3, k), rel=1e-10)
    assert reductions == []


def test_sketch_records_clamped_negative(monkeypatch):
    # a negative eigenvalue inside the round-off band is resolved, clamped
    # and counted, and the trace identity still holds
    _force_sketch(monkeypatch)
    C, sp = _spectrum_matrix([1.0, 0.5, 0.2, -5e-11] + [0.0] * 28)
    reductions = _count_calls(monkeypatch, spectral.lapack, "dsytrd")
    dec = decompose(C, sp)
    assert reductions == []
    assert dec.rank == 3
    assert dec.clamped_mass == pytest.approx(5e-11, rel=1e-4)
    assert abs(dec.dropped_mass) <= 1e-14
    trace = trace_of_operator(C, sp)
    assert abs(dec.eigenvalues.sum() + dec.dropped_mass - dec.clamped_mass - trace) <= 1e-14


def test_certificate_residual_matches_dense_norm(monkeypatch):
    monkeypatch.setattr(spectral, "_RESIDUAL_BLOCK", 3 * 40 + 7)   # ragged blocks of 3 rows
    rng = np.random.default_rng(5)
    S = rng.standard_normal((40, 40))
    V = np.linalg.qr(rng.standard_normal((40, 6)))[0]
    theta = rng.standard_normal(6)
    expected = np.linalg.norm(S - (V * theta) @ V.T)
    assert spectral._residual_norm(S, theta, V) == pytest.approx(expected, rel=1e-12)


def test_sketch_is_deterministic(monkeypatch):
    _force_sketch(monkeypatch)
    C, sp = _spectrum_matrix(np.exp(-0.5 * np.arange(48.0) ** 2), seed=3)
    dec1, dec2 = decompose(C, sp), decompose(C, sp)
    assert dec1.tail_bound > 0.0
    _assert_same(dec1, dec2)


def test_sketch_at_real_size_matches_dense_reference(monkeypatch):
    # default constants: squared exponential l=0.1 at n=1024 has rank 29
    C, sp = _kernel_case("squared_exponential", {"length_scale": 0.1}, 1024)
    reductions = _count_calls(monkeypatch, spectral.lapack, "dsytrd")
    dec = decompose(C, sp)
    assert reductions == []
    ref, keep, lam_1 = _dense_reference(C, sp)
    assert dec.rank == keep.sum() == 29
    assert np.max(np.abs(dec.eigenvalues - ref[keep])) <= 1e-12 * lam_1
    assert abs(dec.dropped_mass - ref[~keep].sum()) <= 1e-12 * lam_1
    # the dropped mass (about 2e-13) is that of the tail, not just a small number
    assert dec.dropped_mass == pytest.approx(ref[~keep].sum(), rel=0.05)
    assert 0.0 < dec.tail_bound <= 1e-12 * lam_1
    trace = trace_of_operator(C, sp)
    assert abs(dec.eigenvalues.sum() + dec.dropped_mass - dec.clamped_mass - trace) <= 1e-12 * lam_1
    assert np.max(np.abs(dec.reconstruction() - C)) <= 1e-8 * lam_1


def _brownian_decomposition(n=4):
    sp = interval_grid(n)
    return decompose(assemble(builtin_kernel("brownian_motion"), sp), sp)


#: calls that must fail, the exception each raises and its message
SPECTRAL_BRANCHES = [
    pytest.param(lambda: pointwise_kernel_matrix(WhiteNoiseKernel(np.ones((4, 3)), "symmetric_sqrt"),
                                                 _brownian_decomposition()),
                 DimensionMismatchError, "factor shape (4, 3) does not match decomposition (4, 4)",
                 id="pointwise-factor-shape"),
    pytest.param(lambda: to_rkhs(np.ones(3), _brownian_decomposition()), DimensionMismatchError,
                 "field vector shape (3,) does not match space size 4", id="rkhs-vector-shape"),
    # an eigenvalue, or at rank 0 the dropped mass, past the float range
    pytest.param(lambda: decompose(np.full((4, 4), 1e308), DiscreteMeasureSpace(np.arange(4.0), np.ones(4))),
                 NumericError, "covariance eigenvalues: overflow encountered in ldexp",
                 id="eigenvalue-overflows"),
    pytest.param(lambda: decompose(np.eye(4) * 1e308, DiscreteMeasureSpace(np.arange(4.0), np.ones(4)),
                                   drop_tol=1e300),
                 NumericError, "covariance eigenvalues: overflow encountered in ldexp",
                 id="dropped-mass-overflows"),
]


@pytest.mark.parametrize("call,error,message", SPECTRAL_BRANCHES)
def test_spectral_error_branches(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
