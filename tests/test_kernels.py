import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wnfield import kernels

from wnfield.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NumericError,
    UnknownKernelError,
)
from wnfield.kernels import (
    SYMMETRY_TOL,
    CovarianceKernel,
    assemble,
    builtin_kernel,
    builtin_kernel_names,
    check_symmetric,
    matrix_kernel,
    trace_of_operator,
)
from wnfield.spaces import DiscreteMeasureSpace, interval_grid
from wnfield.spectral import decompose

ALL_KERNELS = [
    ("brownian_motion", {}),
    ("brownian_bridge", {}),
    ("fbm", {"hurst": 0.7}),
    ("squared_exponential", {"length_scale": 1.0}),
    ("white_diagonal", {"sigma2": 1.0}),
]


def test_builtin_names_complete():
    assert builtin_kernel_names() == tuple(name for name, _ in ALL_KERNELS)


def test_brownian_motion_is_min():
    k = builtin_kernel("brownian_motion")
    assert k.evaluator(0.25, 0.75) == 0.25


def test_fbm_half_matches_brownian_motion():
    sp = interval_grid(32)
    C_bm = assemble(builtin_kernel("brownian_motion"), sp)
    C_fbm = assemble(builtin_kernel("fbm", {"hurst": 0.5}), sp)
    assert np.max(np.abs(C_bm - C_fbm)) <= 1e-14


def test_brownian_bridge_midpoint():
    k = builtin_kernel("brownian_bridge")
    assert k.evaluator(0.5, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_assemble_brownian_motion_grid2():
    C = assemble(builtin_kernel("brownian_motion"), interval_grid(2))
    assert np.allclose(C, [[0.25, 0.25], [0.25, 0.75]], atol=1e-15)


def test_white_diagonal_is_identity():
    sp = interval_grid(5)
    C = assemble(builtin_kernel("white_diagonal", {"sigma2": 1.0}), sp)
    assert np.array_equal(C, np.eye(5))


def test_squared_exponential_adjacent_entries():
    # independent high-precision evaluation of exp (mpmath, 30 digits):
    # exp(-0.25^2/2) for the grid-of-4 spacing, exp(-(1/3)^2/2) for 3 cells
    C4 = assemble(builtin_kernel("squared_exponential", {"length_scale": 1.0}), interval_grid(4))
    assert C4[0, 1] == pytest.approx(0.969233234476344081848109193246, rel=1e-14)
    C3 = assemble(builtin_kernel("squared_exponential", {"length_scale": 1.0}), interval_grid(3))
    assert C3[0, 1] == pytest.approx(0.945959468906765462893604622484, rel=1e-14)


def test_trace_white_unit_mass():
    sp = interval_grid(7)
    C = assemble(builtin_kernel("white_diagonal", {"sigma2": 1.0}), sp)
    assert trace_of_operator(C, sp) == pytest.approx(1.0, abs=1e-14)


def test_trace_brownian_motion_grid4():
    sp = interval_grid(4)
    C = assemble(builtin_kernel("brownian_motion"), sp)
    assert trace_of_operator(C, sp) == pytest.approx(0.5, abs=1e-15)


def test_trace_fbm_direct_summation_oracle():
    sp = interval_grid(4)
    C = assemble(builtin_kernel("fbm", {"hurst": 0.75}), sp)
    oracle = sum(t**1.5 for t in (0.125, 0.375, 0.625, 0.875)) / 4.0
    assert trace_of_operator(C, sp) == pytest.approx(oracle, rel=1e-14)


def test_unknown_kernel():
    with pytest.raises(UnknownKernelError):
        builtin_kernel("matern")


def test_fbm_hurst_range():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(InvalidParameterError):
            builtin_kernel("fbm", {"hurst": bad})


@pytest.mark.parametrize("name,params,message", [
    ("fbm", {"hurst": 1.0}, "fbm hurst must lie in (0, 1), got 1.0"),
    ("fbm", {"hurst": float("nan")}, "fbm hurst must lie in (0, 1), got nan"),
    ("squared_exponential", {"length_scale": 0}, "length_scale must be > 0, got 0.0"),
    ("squared_exponential", {"length_scale": -2.5}, "length_scale must be > 0, got -2.5"),
    ("squared_exponential", {"length_scale": float("nan")}, "length_scale must be > 0, got nan"),
    ("white_diagonal", {"sigma2": -1e-300}, "sigma2 must be > 0, got -1e-300"),
    ("white_diagonal", {"sigma2": float("nan")}, "sigma2 must be > 0, got nan"),
    ("brownian_motion", {"hurst": 0.5}, "kernel 'brownian_motion' does not take parameters ['hurst']"),
    ("fbm", {"hurst": 0.7, "b": 1, "a": 2}, "kernel 'fbm' does not take parameters ['a', 'b']"),
])
def test_parameter_out_of_range_message(name, params, message):
    with pytest.raises(InvalidParameterError) as info:
        builtin_kernel(name, params)
    assert str(info.value) == message


@pytest.mark.parametrize("name,params,stored", [
    ("brownian_motion", None, {}),
    ("brownian_bridge", {}, {}),
    ("fbm", None, {"hurst": 0.5}),
    ("fbm", {"hurst": 1e-300}, {"hurst": 1e-300}),
    ("squared_exponential", None, {"length_scale": 1.0}),
    ("squared_exponential", {"length_scale": 3}, {"length_scale": 3.0}),
    ("white_diagonal", None, {"sigma2": 1.0}),
    ("white_diagonal", {"sigma2": 1e300}, {"sigma2": 1e300}),
])
def test_builtin_params_are_stored_as_floats(name, params, stored):
    kernel = builtin_kernel(name, params)
    assert kernel.name == name and kernel.matrix is None
    assert kernel.params == stored
    assert all(type(value) is float for value in kernel.params.values())


def test_unexpected_parameters_rejected():
    with pytest.raises(InvalidParameterError):
        builtin_kernel("brownian_motion", {"hurst": 0.5})


@pytest.mark.parametrize("name,params", ALL_KERNELS)
@pytest.mark.parametrize("n", [8, 64, 256])
def test_assembled_operator_positive(name, params, n):
    sp = interval_grid(n)
    C = assemble(builtin_kernel(name, params), sp)
    assert np.max(np.abs(C - C.T)) <= 1e-12
    w_sqrt = np.sqrt(sp.weights)
    S = C * w_sqrt[:, None] * w_sqrt[None, :]
    eig = np.linalg.eigvalsh((S + S.T) / 2.0)
    assert eig.min() >= -1e-10 * eig.max()


@pytest.mark.parametrize("name,params", ALL_KERNELS)
def test_trace_matches_eigenvalue_sum(name, params):
    sp = interval_grid(64)
    C = assemble(builtin_kernel(name, params), sp)
    dec = decompose(C, sp)
    tr = trace_of_operator(C, sp)
    assert abs(tr - dec.eigenvalues.sum()) <= 1e-10 * tr


def test_nonfinite_kernel_reports_pair():
    def blows_up(s, t):
        return np.where((s > 0.6) & (t > 0.6), np.inf, np.minimum(s, t))

    k = CovarianceKernel("bad", blows_up)
    with pytest.raises(NumericError, match="not finite"):
        assemble(k, interval_grid(4))


def test_matrix_kernel_roundtrip():
    entries = np.array([[2.0, 0.5], [0.5, 1.0]])
    sp = interval_grid(2)
    C = assemble(matrix_kernel(entries), sp)
    assert np.array_equal(C, entries)


def test_matrix_kernel_shape_checks():
    with pytest.raises(InvalidParameterError):
        matrix_kernel(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        assemble(matrix_kernel(np.eye(3)), interval_grid(2))


def _decompose_on_grid(M):
    return decompose(M, interval_grid(M.shape[0]))


@pytest.mark.parametrize("accept", [matrix_kernel, _decompose_on_grid],
                         ids=["matrix_kernel", "decompose"])
def test_rejects_asymmetric_entries(accept):
    with pytest.raises(InvalidParameterError, match=r"not symmetric: \|C\[0, 1\] - C\[1, 0\]\|"):
        accept(np.array([[1.0, 0.9, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    # asymmetry at round-off level is accepted
    accept(np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]]))


def test_asymmetric_evaluator_is_returned_unchanged_and_checked_by_decompose():
    sp = interval_grid(8)
    S, T = sp.points[:, None], sp.points[None, :]
    skewed = {}
    for skew in (1e-13, 1e-3):
        kernel = CovarianceKernel("skewed", lambda s, t: np.minimum(s, t) + skew * (s - t))
        skewed[skew] = assemble(kernel, sp)
        assert skewed[skew].tobytes() == (np.minimum(S, T) + skew * (S - T)).tobytes()
    decompose(skewed[1e-13], sp)   # round-off asymmetry is accepted as it is
    C = skewed[1e-3]
    with pytest.raises(InvalidParameterError) as info:
        decompose(C, sp)
    gap = abs(C[0, 7] - C[7, 0])
    assert str(info.value) == (f"covariance is not symmetric: |C[0, 7] - C[7, 0]| = {gap:.3e} "
                               f"exceeds {SYMMETRY_TOL:g} * max|C|")


@pytest.mark.parametrize("name,params", ALL_KERNELS + [
    ("fbm", {"hurst": 0.3}), ("squared_exponential", {"length_scale": 0.1})])
@pytest.mark.parametrize("n", [1, 2, 7, 64, 255, 256])
def test_builtins_assemble_exactly_symmetric(name, params, n):
    kernel = builtin_kernel(name, params)
    C = assemble(kernel, interval_grid(n))
    assert np.array_equal(C, C.T)
    if name in ("squared_exponential", "white_diagonal"):
        points = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 2))
        C = assemble(kernel, DiscreteMeasureSpace(points=points, weights=np.full(n, 1.0 / n)))
        assert np.array_equal(C, C.T)


def test_scalar_only_kernels_reject_multidimensional_points():
    sp = DiscreteMeasureSpace(points=[[0.0, 0.0], [1.0, 1.0]], weights=[0.5, 0.5])
    for name in ("brownian_motion", "brownian_bridge", "fbm"):
        params = {"hurst": 0.7} if name == "fbm" else {}
        with pytest.raises(InvalidParameterError):
            assemble(builtin_kernel(name, params), sp)


def test_squared_exponential_on_planar_points():
    sp = DiscreteMeasureSpace(points=[[0.0, 0.0], [3.0, 4.0]], weights=[0.5, 0.5])
    C = assemble(builtin_kernel("squared_exponential", {"length_scale": 5.0}), sp)
    assert C[0, 1] == pytest.approx(np.exp(-25.0 / 50.0), rel=1e-14)
    C_white = assemble(builtin_kernel("white_diagonal"), sp)
    assert np.array_equal(C_white, np.eye(2))


def _one_shot_check_symmetric(C, what):
    """The reference: one full n x n gap matrix."""
    if not C.size:
        return
    gap = C - C.T
    np.abs(gap, out=gap)
    worst = gap.max()
    if not np.isfinite(worst):
        bad = np.argwhere(~np.isfinite(C))
        if bad.size:
            i, j = bad[0]
            raise NumericError(f"{what} is not finite at entry ({i}, {j})")
    if worst > SYMMETRY_TOL * max(C.max(), -C.min()):
        i, j = np.unravel_index(np.argmax(gap), gap.shape)
        raise InvalidParameterError(
            f"{what} is not symmetric: |C[{i}, {j}] - C[{j}, {i}]| = {gap[i, j]:.3e} "
            f"exceeds {SYMMETRY_TOL:g} * max|C|"
        )


def _outcome(fn, *args):
    try:
        fn(*args)
    except (NumericError, InvalidParameterError) as exc:
        return type(exc), str(exc)
    return None


#: few distinct values, so gaps tie; extremes overflow C - C^T
_ENTRIES = [0.0, -0.0, 1.0, -1.0, 2.5, 3.0, 1e-11, 5e-324, 1e308, -1e308]


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(1, 12))
    C = np.array(draw(st.lists(st.sampled_from(_ENTRIES), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):   # mirror the upper triangle, signed zeros kept
        C = np.where(np.triu(np.ones((n, n), dtype=bool)), C, C.T)
    node = st.integers(0, n - 1)
    if draw(st.booleans()):   # a pair whose gap overflows to inf
        i, j = draw(node), draw(node)
        C[i, j], C[j, i] = 1e308, -1e308
    for _ in range(draw(st.integers(0, 3))):   # a tie: one pair's entries copied to another
        i, j, k, l = (draw(node) for _ in range(4))
        C[k, l], C[l, k] = (C[i, j], C[j, i]) if draw(st.booleans()) else (C[j, i], C[i, j])
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(node), draw(node)
        C[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 1.0 + 1e-12, 3.0 - 4e-16]))
    return C


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(_square_matrices(), st.integers(1, 5))
def test_blocked_symmetry_pass_matches_one_shot(C, tile):
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(kernels, "_TILE", tile)   # ragged tiles unless tile divides n
        assert _outcome(check_symmetric, C, "covariance") == \
            _outcome(_one_shot_check_symmetric, C, "covariance")
        if np.all(np.isfinite(C)):   # assemble returns C's bytes, -0.0 included
            for kernel in (CovarianceKernel("given", lambda s, t: C.copy()),
                           CovarianceKernel("given", None, matrix=C)):
                assert assemble(kernel, interval_grid(len(C))).tobytes() == C.tobytes()


#: calls that must fail, the exception each raises and its message
KERNEL_BRANCHES = [
    pytest.param(lambda: assemble(CovarianceKernel("flat", lambda s, t: np.ones(3)), interval_grid(4)),
                 DimensionMismatchError, "kernel 'flat' produced shape (3,), expected (4, 4)",
                 id="evaluator-shape"),
    pytest.param(lambda: trace_of_operator(np.eye(3), interval_grid(4)), DimensionMismatchError,
                 "matrix shape (3, 3) does not match space size 4", id="trace-space-mismatch"),
    # an empty matrix passes the symmetry check, and then meets no space
    pytest.param(lambda: assemble(matrix_kernel(np.zeros((0, 0))), interval_grid(2)),
                 DimensionMismatchError, "matrix kernel is 0x0 but space has 2 points",
                 id="empty-matrix-kernel"),
    # a gap that overflows, or is inf - inf, is an answer and raises no numpy warning
    pytest.param(lambda: check_symmetric(np.array([[1.0, 1e308], [-1e308, 1.0]]), "covariance"),
                 InvalidParameterError, "covariance is not symmetric: |C[0, 1] - C[1, 0]| = inf "
                 "exceeds 1e-10 * max|C|", id="gap-overflows"),
    pytest.param(lambda: check_symmetric(np.array([[1.0, np.inf], [np.inf, 1.0]]), "covariance"),
                 NumericError, "covariance is not finite at entry (0, 1)", id="gap-inf-minus-inf"),
]


@pytest.mark.parametrize("call,error,message", KERNEL_BRANCHES)
def test_kernels_error_branches(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def _old_builtin(name, params):
    """Each builtin as one expression of whole arrays, as it was written
    before it was computed in place."""
    if name == "brownian_motion":
        return lambda s, t: np.minimum(s, t)
    if name == "brownian_bridge":
        return lambda s, t: np.minimum(s, t) - s * t
    if name == "fbm":
        twoH = 2.0 * params["hurst"]
        return lambda s, t: 0.5 * (np.abs(s) ** twoH + np.abs(t) ** twoH - np.abs(s - t) ** twoH)
    if name == "squared_exponential":
        def sqexp(s, t):
            d2 = (s - t) ** 2
            if np.ndim(d2) > 2:
                d2 = d2.sum(axis=-1)
            return np.exp(-d2 / (2.0 * params["length_scale"] ** 2))
        return sqexp

    def white(s, t):
        eq = s == t
        if np.ndim(eq) > 2:
            eq = eq.all(axis=-1)
        return np.where(eq, params["sigma2"], 0.0)
    return white


_BIT_FOR_BIT = [
    ("brownian_motion", {}),
    ("brownian_bridge", {}),
    ("fbm", {"hurst": 0.25}),   # 2H = 0.5: ** takes numpy's sqrt
    ("fbm", {"hurst": 0.5}),
    ("fbm", {"hurst": 0.7}),
    ("squared_exponential", {"length_scale": 0.1}),
    ("squared_exponential", {"length_scale": 1.0}),
    ("white_diagonal", {"sigma2": 1e308}),
]


@pytest.mark.parametrize("n", [1, 2, 7, 64, 1024])
@pytest.mark.parametrize("name,params", _BIT_FOR_BIT)
def test_builtins_keep_the_bits_of_their_whole_array_expressions(name, params, n):
    space = interval_grid(n)
    pts = space.points
    expected = _old_builtin(name, params)(pts[:, None], pts[None, :])
    assert assemble(builtin_kernel(name, params), space).tobytes() == expected.tobytes()


@pytest.mark.parametrize("name,params", [
    ("squared_exponential", {"length_scale": 0.3}), ("white_diagonal", {"sigma2": 2.5})])
def test_builtins_keep_their_bits_on_points_in_the_plane(name, params):
    pts = np.random.default_rng(5).random((40, 2))
    pts[7, 0] = pts[3, 0]   # one coordinate shared: white noise needs both to be equal
    space = DiscreteMeasureSpace(points=pts, weights=np.full(40, 1 / 40))
    expected = _old_builtin(name, params)(pts[:, None, :], pts[None, :, :])
    assert assemble(builtin_kernel(name, params), space).tobytes() == expected.tobytes()
