import dataclasses
import hashlib
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wnfield import field, kernels, verify
from wnfield.errors import DimensionMismatchError, InsufficientSamplesError, NumericError
from wnfield.field import (
    GaussianField,
    SampleBatch,
    build_field,
    covariance_standard_error,
    empirical_covariance,
    mollify_factor,
    noise_blocks,
    noise_gram,
    noise_matrix,
    sample,
    tangent_gram,
    truncation_error,
)
from wnfield.kernels import CovarianceKernel, assemble, builtin_kernel, matrix_kernel
from wnfield.spaces import DiscreteMeasureSpace, interval_grid
from wnfield.spectral import GAUGES, WhiteNoiseKernel, decompose, factorize, reproduce_covariance

ZERO_KERNEL = CovarianceKernel("zero", lambda s, t: np.zeros(np.broadcast(s, t).shape))
CONSTANT_KERNEL = CovarianceKernel("constant", lambda s, t: np.full(np.broadcast(s, t).shape, 0.7))


def test_sample_deterministic_given_seed():
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(8))
    b1 = sample(fld, 2, seed=5)
    b2 = sample(fld, 2, seed=5)
    assert np.array_equal(b1.draws, b2.draws)
    b3 = sample(fld, 2, seed=6)
    assert not np.array_equal(b1.draws, b3.draws)


def test_sample_zero_kernel_gives_zero_draws():
    fld = build_field(ZERO_KERNEL, interval_grid(6))
    assert fld.dec.rank == 0
    batch = sample(fld, 4, seed=1)
    assert np.array_equal(batch.draws, np.zeros((4, 6)))


@pytest.mark.parametrize("gram", [False, True], ids=["draws", "noise-gram"])
@pytest.mark.parametrize("drop_tol", [1e-12, 1e300], ids=["truncation-0", "rank-0"])
def test_truncation_zero_batch_is_a_sampled_batch(monkeypatch, gram, drop_tol):
    # no special case: the n x 0 factor sums to zeros like any factor sums to draws
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(8), drop_tol=drop_tol)
    monkeypatch.setattr(field, "_gram_pays", lambda *shape: gram)
    calls = []
    monkeypatch.setattr(field, "noise_gram", lambda *a, **k: calls.append(a) or noise_gram(*a, **k))
    batch = sample(fld, 50, 0, seed=5)
    assert batch.factor.shape == (8, 0) and batch.stride == fld.dec.rank
    assert batch.truncation == 0 and np.array_equal(batch.draws, np.zeros((50, 8)))
    assert np.array_equal(empirical_covariance(batch), np.zeros((8, 8)))
    assert len(calls) == gram


def test_sample_single_point_standard_normal():
    # counting measure on one point with unit white kernel: draws ~ N(0,1)
    space = DiscreteMeasureSpace(points=[0.0], weights=[1.0])
    fld = build_field(builtin_kernel("white_diagonal", {"sigma2": 1.0}), space)
    draws = sample(fld, 100_000, seed=314).draws.ravel()
    assert 0.985 <= draws.var() <= 1.015


def test_sample_truncation_validation():
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(8))
    with pytest.raises(ValueError):
        sample(fld, 3, m=9)
    with pytest.raises(ValueError):
        sample(fld, 3, m=-1)
    with pytest.raises(ValueError):
        sample(fld, 0)


def test_sample_truncations_share_noise():
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(8))
    full = sample(fld, 10, seed=3)
    part = sample(fld, 10, m=2, seed=3)
    expected = noise_matrix(10, 2, 3, stride=8) @ fld.factor.factor[:, :2].T
    assert np.array_equal(part.draws, expected)
    assert full.truncation == 8 and part.truncation == 2


def test_empirical_covariance_zero_rows_and_sample_count():
    fld = build_field(ZERO_KERNEL, interval_grid(3))
    batch = sample(fld, 5, seed=0)
    assert np.array_equal(empirical_covariance(batch), np.zeros((3, 3)))
    with pytest.raises(InsufficientSamplesError):
        empirical_covariance(sample(fld, 1, seed=0))


def test_empirical_covariance_band_brownian():
    n_draws = 40_000
    sp = interval_grid(16)
    fld = build_field(builtin_kernel("brownian_motion"), sp)
    C = assemble(builtin_kernel("brownian_motion"), sp)
    emp = empirical_covariance(sample(fld, n_draws, seed=2026))
    se = covariance_standard_error(C, n_draws)
    assert np.max(np.abs(emp - C) / se) < 5.0


def test_covariance_standard_error_scales_exactly():
    C = assemble(builtin_kernel("fbm", {"hurst": 0.7}), interval_grid(32))
    se = covariance_standard_error(C, 1000)
    d = np.diag(C)
    assert np.array_equal(se, np.sqrt((np.outer(d, d) + C**2) / 1000))   # in range: same bits
    for k in (600, -600):   # squares of 2^k C overflow, or underflow
        assert np.array_equal(covariance_standard_error(2.0**k * C, 1000), 2.0**k * se)


def test_empirical_covariance_band_at_extreme_variances():
    bands = []
    for sigma2 in (1.0, 1e200, 1e-200):
        kernel = builtin_kernel("white_diagonal", {"sigma2": sigma2})
        sp = interval_grid(6)
        C = assemble(kernel, sp)
        emp = empirical_covariance(sample(build_field(kernel, sp), 1000, seed=3))
        bands.append(np.max(np.abs(emp - C) / covariance_standard_error(C, 1000)))
    assert bands[0] == pytest.approx(2.6385, abs=1e-4)
    assert bands[1:] == pytest.approx([bands[0]] * 2, rel=1e-9, abs=0.0)


def test_empirical_covariance_rank_one_truncation():
    n_draws = 40_000
    sp = interval_grid(16)
    fld = build_field(builtin_kernel("brownian_motion"), sp)
    lam1 = fld.dec.eigenvalues[0]
    phi1 = fld.dec.eigenfunctions[:, 0]
    C1 = lam1 * np.outer(phi1, phi1)
    emp = empirical_covariance(sample(fld, n_draws, m=1, seed=7))
    se = covariance_standard_error(C1, n_draws)
    assert np.max(np.abs(emp - C1) / se) < 5.0


def test_gauge_does_not_change_sampling_distribution():
    n_draws = 40_000
    sp = interval_grid(16)
    C = assemble(builtin_kernel("brownian_motion"), sp)
    se = covariance_standard_error(C, n_draws)
    for gauge, gauge_seed in (("symmetric_sqrt", 0), ("rotated", 11)):
        fld = build_field(builtin_kernel("brownian_motion"), sp, gauge=gauge,
                          gauge_seed=gauge_seed)
        emp = empirical_covariance(sample(fld, n_draws, seed=31))
        assert np.max(np.abs(emp - C) / se) < 5.0


def test_field_is_its_decomposition_and_factor():
    # the space and the rank are stored once: in the decomposition, and as
    # the number of its eigenvalues
    assert [f.name for f in dataclasses.fields(GaussianField)] == ["dec", "factor"]
    b = DiscreteMeasureSpace(points=[0.1, 0.4, 0.9], weights=[0.125, 0.5, 0.375])
    fld = build_field(builtin_kernel("brownian_motion"), b)
    assert fld.space is fld.dec.space is b
    sketched = build_field(builtin_kernel("squared_exponential", {"length_scale": 0.1}),
                           interval_grid(1024)).dec
    assert sketched.tail_bound > 0.0   # the randomized sketch was kept
    rank_0 = decompose(assemble(builtin_kernel("brownian_motion"), b), b, drop_tol=1e300)
    for dec in (rank_0, fld.dec, sketched):
        assert type(dec.rank) is int and dec.rank == dec.eigenvalues.size
    assert (rank_0.rank, fld.dec.rank) == (0, 3) and 0 < sketched.rank < 1024


def test_largest_white_noise_variance_builds_a_field():
    # every entry is finite; an average (C + C^T) / 2 would overflow the diagonal
    sp = interval_grid(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fld = build_field(builtin_kernel("white_diagonal", {"sigma2": 1e308}), sp)
    assert np.array_equal(fld.dec.eigenvalues, np.full(4, 2.5e307))
    assert np.allclose(reproduce_covariance(fld.factor, sp), 1e308 * np.eye(4),
                       rtol=1e-15, atol=0.0)


def test_truncation_error_edges():
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(32))
    dec = fld.dec
    assert truncation_error(dec, dec.rank) == 0.0
    assert truncation_error(dec, 0) == pytest.approx(dec.eigenvalues.sum(), rel=1e-15)
    with pytest.raises(ValueError):
        truncation_error(dec, dec.rank + 1)


def test_truncation_error_brownian_tail_vs_analytic():
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(512))
    analytic_head = sum(1.0 / (((k - 0.5) * np.pi) ** 2) for k in range(1, 6))
    assert truncation_error(fld.dec, 5) == pytest.approx(0.5 - analytic_head, rel=0.01)


def test_truncation_error_matches_empirical():
    n_draws = 40_000
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(16))
    sp = fld.space
    full = sample(fld, n_draws, seed=99).draws
    for m in (1, fld.dec.rank // 2):
        trunc = sample(fld, n_draws, m=m, seed=99).draws
        sq = ((full - trunc) ** 2 * sp.weights[None, :]).sum(axis=1)
        target = truncation_error(fld.dec, m)
        se = np.sqrt(2.0 * np.sum(fld.dec.eigenvalues[m:] ** 2) / n_draws)
        assert abs(sq.mean() - target) < 5.0 * se


def test_white_noise_functional_second_moment():
    # ||h|| = 2: E[W(h)^2] = 4, chi-square standard error 4*sqrt(2/N)
    n_draws = 100_000
    h = np.array([2.0, 0.0, 0.0])
    xi = noise_matrix(n_draws, 3, seed=21)
    values = xi @ h
    se = 4.0 * np.sqrt(2.0 / n_draws)
    assert abs((values**2).mean() - 4.0) < 5.0 * se


def test_white_noise_isometry_battery():
    n_draws = 100_000
    rng = np.random.default_rng(55)
    xi = noise_matrix(n_draws, 8, seed=13)
    for _ in range(20):
        h, g = rng.standard_normal((2, 8))
        target = float(np.dot(h, g))
        estimate = ((xi @ h) * (xi @ g)).mean()
        se = np.sqrt((np.dot(h, h) * np.dot(g, g) + target**2) / n_draws)
        assert abs(estimate - target) < 5.0 * se


def test_noise_rows_are_order_independent():
    A = noise_matrix(12, 5, seed=42)
    B = noise_matrix(4, 5, seed=42, row_start=6)
    assert np.array_equal(B, A[6:10])


#: SHA-256 of the bytes of noise_matrix(n_draws, m, seed, row_start, stride),
#: for rows that use every uniform they own (m == width) and rows that leave
#: some unused (m < width); the bits must never move
NOISE_DIGESTS = [
    ((8197, 8, 11, 3, None), "2df05f1d4a9c12ae204c90067b1e3510a4ccab736d33a40ba4b509844f533608"),
    ((135, 1024, 11, 5, None), "23d2b98c109a2834a2b6347ba109e77211d94a8e6637e65e4c6bbff4a8c152d8"),
    ((1, 8, 2, 0, None), "22a084283d19d8cf5cc55755c2f121d4e9f07db68f9b73998e0f72d59353589a"),
    ((8197, 5, 11, 3, 7), "c99553964a6e5a24cee974e4293475b24cf9a05618b2c3380311b0d8e5b05fe5"),
    ((135, 1000, 11, 5, 1023), "b1b956754f2e193dbe2c4dffc38f51149e55586dad3377e24a71fd05db61fcad"),
    ((4100, 3, 4, 9, None), "48f2ae821f6adc1c54ef219d6b1b0027de7c4a2303ada217b688622776cc6064"),
]


@pytest.mark.parametrize("args,digest", NOISE_DIGESTS)
def test_noise_keeps_its_bits(args, digest):
    n_draws, m, seed, row_start, stride = args
    width = field._row_width(m if stride is None else stride)
    if n_draws > 1:   # rows that straddle a chunk boundary
        assert n_draws % max(1, field._CHUNK_VARIATES // width) not in (0, n_draws)
    xi = noise_matrix(n_draws, m, seed, row_start, stride)
    assert hashlib.sha256(xi.tobytes()).hexdigest() == digest


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(1, 200), st.integers(1, 40), st.data(), st.integers(0, 10**6),
       st.integers(0, 2**64 - 1), st.integers(1, 600), st.integers(1, 900))
def test_noise_is_identical_for_any_split(n_draws, stride, data, row_start, seed,
                                          chunk, block):
    m = data.draw(st.integers(0, stride))
    with pytest.MonkeyPatch.context() as mp:
        # one piece: the reference
        mp.setattr(field, "_CHUNK_VARIATES", 2**62)
        ref = noise_matrix(n_draws, m, seed, row_start, stride)
        ref0 = noise_matrix(n_draws, m, seed, 0, stride)
        mp.setattr(field, "_CHUNK_VARIATES", chunk)
        mp.setattr(field, "_BLOCK_VARIATES", block)
        assert np.array_equal(noise_matrix(n_draws, m, seed, row_start, stride), ref)
        starts, rows = zip(*noise_blocks(n_draws, m, seed, stride))
        gram = noise_gram(n_draws, m, seed, stride)
    assert starts == tuple(np.cumsum([0, *map(len, rows[:-1])]))
    assert np.array_equal(np.vstack(rows), ref0)
    # the Gram matrix sums one block at a time, whatever the chunks
    step = max(1, block // field._row_width(stride))
    expected = np.zeros((m, m))
    for r0 in range(0, n_draws, step):
        expected += ref0[r0:r0 + step].T @ ref0[r0:r0 + step]
    assert np.array_equal(gram, expected)


def test_sample_in_ragged_blocks(monkeypatch):
    fld = build_field(builtin_kernel("fbm", {"hurst": 0.3}), interval_grid(24))
    rank = fld.dec.rank
    monkeypatch.setattr(field, "_BLOCK_VARIATES", 7 * 24)   # 7 rows per block: 50 = 7*7 + 1
    monkeypatch.setattr(field, "_CHUNK_VARIATES", 16)
    for m in (rank, rank // 2):
        draws = sample(fld, 50, m, seed=4).draws
        assert np.array_equal(sample(fld, 50, m, seed=4).draws, draws)
        series = noise_matrix(50, m, 4, stride=rank) @ fld.factor.factor[:, :m].T
        assert np.max(np.abs(draws - series)) <= 1e-12 * np.max(np.abs(series))


def test_noise_starts_no_threads():
    before = threading.enumerate()
    noise_matrix(20000, 64, 1)
    noise_gram(20000, 64, 1)
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(64))
    assert fld.dec.rank == 64
    sample(fld, 20000, seed=1)
    assert threading.enumerate() == before
    assert not [t.name for t in before if t.name.startswith("wnfield-noise")]


@st.composite
def _low_rank_fields(draw):
    """A field of rank <= r on n nodes with eigenvalues over six decades,
    under any gauge."""
    n = draw(st.integers(2, 24))
    r = draw(st.integers(1, min(n, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.standard_normal((n, r)) * 10.0 ** rng.uniform(-3.0, 0.0, r)
    gauge = draw(st.sampled_from(["symmetric_sqrt", "triangular", "rotated"]))
    return build_field(matrix_kernel(B @ B.T), interval_grid(n), gauge=gauge,
                       gauge_seed=draw(st.integers(0, 99)))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_low_rank_fields(), st.data(), st.integers(0, 2**32 - 1), st.integers(1, 12),
       st.integers(1, 7))
def test_gram_covariance_matches_draws(fld, data, seed, block_rows, tile):
    m = data.draw(st.integers(1, fld.dec.rank))
    n_draws = data.draw(st.integers(2, max(2, m - 1)) | st.integers(max(2, m), 3 * m + 2))
    gram_calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_gram_pays", lambda *shape: True)
        mp.setattr(field, "_BLOCK_VARIATES", block_rows * field._row_width(fld.dec.rank))
        mp.setattr(kernels, "_TILE", tile)   # ragged tiles of E
        mp.setattr(field, "noise_gram", lambda *a, **k: gram_calls.append(a) or noise_gram(*a, **k))
        batch = sample(fld, n_draws, m, seed)
        E = empirical_covariance(batch)
    assert len(gram_calls) == 1
    X = batch.draws
    ref = X.T @ X / n_draws
    assert np.max(np.abs(E - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(E, E.T)


@pytest.mark.parametrize("gram", [False, True], ids=["draws", "noise-gram"])
def test_empirical_covariance_keeps_the_bits_of_its_whole_array_expression(monkeypatch, gram):
    n_draws, m, seed = 300, 20, 4
    fld = build_field(builtin_kernel("fbm", {"hurst": 0.7}), interval_grid(64))
    monkeypatch.setattr(field, "_gram_pays", lambda *shape: gram)
    batch = sample(fld, n_draws, m, seed)
    if gram:
        F = batch.factor
        moment = F @ noise_gram(n_draws, m, seed, stride=batch.stride) @ F.T / n_draws
        expected = moment.copy()   # the upper triangle mirrored onto the lower
        lower = np.tril_indices(len(moment), -1)
        expected[lower] = moment.T[lower]
    else:
        expected = (batch.draws.T @ batch.draws) / n_draws
    assert empirical_covariance(batch).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 64])
def test_orthonormality_check_keeps_the_bits_of_its_whole_array_expression(n):
    space = interval_grid(n)
    C = assemble(builtin_kernel("fbm", {"hurst": 0.7}), space)
    dec = decompose(C, space)
    V = dec.whitened_vectors()
    expected = float(np.max(np.abs(V.T @ V - np.eye(dec.rank)), initial=0.0))
    checks = verify.battery(C, dec, gauge_seed=0, seed=0, n_draws=50,
                            reproducing_functions=1, duality_pairs=1)
    assert [c["error"] for c in checks if c["name"] == "eigenfunction_orthonormality"] == [expected]


def test_verify_check_rejects_a_non_finite_error():
    with pytest.raises(NumericError, match=r"^check x: error is nan$"):
        verify.check("x", float("nan"), 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_verify_noise_band_reads_the_sampled_noise(seed):
    # the battery's noise band is the largest score of the Gram matrix of the
    # noise field.sample draws at its seed, bit for bit
    n_draws = 3000
    space = interval_grid(64)
    C = assemble(builtin_kernel("brownian_motion"), space)
    dec = decompose(C, space)
    xi = noise_matrix(n_draws, dec.rank, seed)
    z = (xi.T @ xi / n_draws - np.eye(dec.rank)) * np.sqrt(n_draws)
    z[np.diag_indices(dec.rank)] /= np.sqrt(2.0)
    band = max(abs(z[k, l]) for k in range(dec.rank) for l in range(k, dec.rank))
    checks = verify.battery(C, dec, seed=seed, n_draws=n_draws, reproducing_functions=1,
                            duality_pairs=1)
    assert [c["error"] for c in checks if c["name"] == "noise_gram_band"] == [band]


def _rank_8_decomposition():
    space = interval_grid(8)
    return decompose(assemble(builtin_kernel("brownian_motion"), space), space)


def test_sampling_checks_false_alarm_rates_are_their_alpha():
    # correct noise over 10^4 seeds exceeds the Sidak threshold of rate alpha
    # on about alpha of them: 36 scores in the noise band, 2 truncations
    dec = _rank_8_decomposition()
    rows = [verify._sampling_checks(dec, seed, 2000) for seed in range(10_000)]
    for i, family in enumerate((36, 2)):
        errors = np.array([r[i]["error"] for r in rows])
        for alpha in (1e-2, 1e-3):
            rate = float(np.mean(errors > verify._sidak_threshold(family, alpha)))
            assert alpha / 1.5 <= rate <= 1.5 * alpha, (rows[0][i]["name"], alpha, rate)


@pytest.mark.parametrize("k,l,entry,fails", [
    (2, 2, np.sqrt(1.1), True),    # variance 1.1: z about 10
    (2, 5, 0.1, True),             # correlation 0.1: z about 14
    (2, 2, np.sqrt(1.03), False),  # variance 1.03: z about 3, below any such threshold
], ids=["variance-1.1", "correlation-0.1", "variance-1.03"])
def test_noise_band_finds_and_names_a_defect(monkeypatch, k, l, entry, fails):
    # noise xi A in place of xi: column l gets entry times column k, with
    # column l's own share cut so that its variance stays 1 unless k == l
    A = np.eye(8)
    A[k, l] = entry
    if k != l:
        A[l, l] = np.sqrt(1.0 - entry**2)
    gram = field.noise_gram
    monkeypatch.setattr(field, "noise_gram", lambda *args: A.T @ gram(*args) @ A)
    [band, _] = verify._sampling_checks(_rank_8_decomposition(), 0, 20000)
    assert band["pass"] is not fails
    if fails:
        assert band["detail"].endswith(f"worst (k, l) = ({k + 1}, {l + 1})")


@pytest.mark.parametrize("name,params,n", [("brownian_motion", {}, 16),
                                           ("fbm", {"hurst": 0.7}, 32)], ids=["bm", "fbm"])
def test_verify_truncation_band_is_that_of_sampled_draws(name, params, n):
    # criterion 4's statistic from real draws: full minus truncated draws of
    # the canonical field at the battery's seed, so the battery reads the
    # noise at the stride field.sample uses
    n_draws, seed = 4000, 17
    space = interval_grid(n)
    C = assemble(builtin_kernel(name, params), space)
    dec = decompose(C, space)
    canonical = GaussianField(dec, factorize(dec))
    full = sample(canonical, n_draws, seed=seed).draws
    worst = 0.0
    for m in (1, dec.rank // 2):
        trunc = sample(canonical, n_draws, m=m, seed=seed).draws
        sq = ((full - trunc) ** 2 * space.weights[None, :]).sum(axis=1)
        tail_se = np.sqrt(2.0 * np.sum(dec.eigenvalues[m:] ** 2) / n_draws)
        worst = max(worst, abs(float(sq.mean()) - truncation_error(dec, m)) / tail_se)
    checks = verify.battery(C, dec, gauge_seed=3, seed=seed, n_draws=n_draws,
                            reproducing_functions=1, duality_pairs=1)
    [band] = [c["error"] for c in checks if c["name"] == "truncation_band"]
    assert worst > 0.0 and band == pytest.approx(worst, rel=1e-9)


@pytest.mark.parametrize("external", [False, True], ids=["gauges", "external-factor"])
@pytest.mark.parametrize("name,params,n,drop_tol", [
    ("fbm", {"hurst": 0.3}, 64, 1e-12),
    ("brownian_motion", {}, 16, 1e300),   # rank 0
    ("white_diagonal", {"sigma2": 1.0}, 8, 1e-12),
    ("white_diagonal", {"sigma2": 1.0}, 64, 1e-12),
    ("brownian_bridge", {}, 33, 1e-12),
], ids=["fbm-rough", "bm-rank-0", "white-8", "white-64", "bridge"])
def test_gauge_invariance_is_the_largest_pairwise_spread(name, params, n, drop_tol, external):
    # oracle: every pair of reproduced covariances differenced, bit for bit
    space = interval_grid(n)
    C = assemble(builtin_kernel(name, params), space)
    dec = decompose(C, space, drop_tol=drop_tol)
    factors = [factorize(dec, gauge) for gauge in GAUGES]
    if external:   # replaces the canonical factor, as verify.factor_file does
        factors[0] = WhiteNoiseKernel(factorize(dec, "rotated", seed=5).factor, "file")
    R = [reproduce_covariance(h, space) for h in factors]
    oracle = max(float(np.max(np.abs(a - b))) for i, a in enumerate(R) for b in R[i + 1:])
    checks = verify.battery(C, dec, n_draws=50, reproducing_functions=1, duality_pairs=1,
                            external_factor=factors[0] if external else None)
    [spread] = [c["error"] for c in checks if c["name"] == "gauge_invariance"]
    assert spread.hex() == oracle.hex()


def test_verify_passes_on_a_correct_rough_field():
    # fBm at full rank: the rough_fullrank benchmark workload's seed 10, round 3
    # verify, where the n^2 covariance band read 5.65 standard errors
    space = interval_grid(1024)
    C = assemble(builtin_kernel("fbm", {"hurst": 0.6996810287015152}), space)
    checks = verify.battery(C, decompose(C, space), seed=1640924251)
    assert [c["name"] for c in checks if not c["pass"]] == []


def test_full_rank_and_hand_built_batches_use_the_draws(monkeypatch):
    monkeypatch.setattr(field, "noise_gram", None)   # any call fails
    fld = build_field(builtin_kernel("fbm", {"hurst": 0.7}), interval_grid(64))
    batch = sample(fld, 500, seed=9)
    assert fld.dec.rank == 64 and batch.factor.shape == (64, 64)
    X = batch.draws
    assert np.array_equal(empirical_covariance(batch), (X.T @ X) / 500)
    by_hand = SampleBatch(draws=X[:, :40].copy(), seed=9, truncation=64)
    assert by_hand.factor is None
    assert np.array_equal(empirical_covariance(by_hand), (X[:, :40].T @ X[:, :40]) / 500)


def test_sample_batch_is_read_only():
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(8))
    for m in (None, 3, 0):
        batch = sample(fld, 4, m, seed=1)
        with pytest.raises(ValueError):
            batch.draws[0, 0] = 1.0
        if m != 0:
            assert batch.stride == 8 and np.shares_memory(batch.factor, fld.factor.factor)
            with pytest.raises(ValueError):
                batch.factor[0, 0] = 1.0


def test_gram_covariance_at_real_size_never_reads_the_draws():
    n, n_draws = 1024, 4000
    fld = build_field(builtin_kernel("squared_exponential", {"length_scale": 0.1}),
                      interval_grid(n))
    batch = sample(fld, n_draws, seed=11)
    assert fld.dec.rank < 64
    X = batch.draws
    ref = X.T @ X / n_draws
    # draws of zeros: only the noise regenerated from the seed can give ref
    blank = dataclasses.replace(batch, draws=np.zeros_like(X))
    tracemalloc.start()
    try:
        E = empirical_covariance(blank)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(E - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(E, E.T)
    assert peak < n_draws * n * 8


def test_mollify_identity_below_cell_width():
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(32))
    out = mollify_factor(fld, 1e-4)
    assert np.max(np.abs(out.factor - fld.factor.factor)) <= 1e-12


def test_mollify_constant_factor_unchanged():
    fld = build_field(CONSTANT_KERNEL, interval_grid(16))
    assert fld.dec.rank == 1
    for bw in (0.01, 0.1, 1.0):
        out = mollify_factor(fld, bw)
        assert np.max(np.abs(out.factor - fld.factor.factor)) <= 1e-12


def test_mollify_bandwidth_ladder_monotone():
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(128))
    C = assemble(builtin_kernel("brownian_motion"), fld.space)
    distances = []
    for bw in (0.1, 0.05, 0.025, 0.0125):
        Cn = reproduce_covariance(mollify_factor(fld, bw), fld.space)
        distances.append(np.max(np.abs(Cn - C)))
    for a, b in zip(distances, distances[1:]):
        assert b <= a + 1e-12


def test_mollify_rejects_bad_bandwidth():
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(8))
    with pytest.raises(ValueError):
        mollify_factor(fld, 0.0)
    with pytest.raises(ValueError):
        mollify_factor(fld, -0.1)


def test_tangent_gram_zero_offsets():
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(64))
    G = tangent_gram(fld, 30, [0, 0], r=0.125)
    assert np.array_equal(G, np.zeros((2, 2)))


def test_tangent_gram_brownian_increment_variance():
    # (K(t+c,t+c) - 2K(t+c,t) + K(t,t))/c = 1 exactly for min(s,t)
    n = 128
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(n))
    G = tangent_gram(fld, n // 2, [1], r=np.sqrt(1.0 / n))
    assert abs(G[0, 0] - 1.0) <= 1e-8


def test_tangent_gram_fbm_scaling():
    n = 1024
    hurst = 0.7
    fld = build_field(builtin_kernel("fbm", {"hurst": hurst}), interval_grid(n))
    c = 1.0 / n
    G = tangent_gram(fld, n // 2, [1], r=c**hurst)
    assert G[0, 0] == pytest.approx(1.0, rel=0.02)


def test_tangent_gram_kernel_arithmetic_oracle():
    n = 64
    fld = build_field(builtin_kernel("fbm", {"hurst": 0.3}), interval_grid(n))
    C = assemble(builtin_kernel("fbm", {"hurst": 0.3}), fld.space)
    t, offs, r = 20, [1, 3], 0.2
    G = tangent_gram(fld, t, offs, r)
    for a, oa in enumerate(offs):
        for b, ob in enumerate(offs):
            oracle = (C[t + oa, t + ob] - C[t + oa, t] - C[t, t + ob] + C[t, t]) / r**2
            assert G[a, b] == pytest.approx(oracle, abs=1e-9)


def test_tangent_gram_validation():
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(16))
    with pytest.raises(IndexError):
        tangent_gram(fld, 15, [1], r=0.1)
    with pytest.raises(IndexError):
        tangent_gram(fld, 0, [-1], r=0.1)
    with pytest.raises(ValueError):
        tangent_gram(fld, 3, [1], r=0.0)


def _field_with_factor_columns(m):
    fld = build_field(builtin_kernel("brownian_motion"), interval_grid(4))
    return GaussianField(fld.dec, WhiteNoiseKernel(fld.factor.factor[:, :m], "symmetric_sqrt"))


#: calls that must fail, the exception each raises and its message
FIELD_BRANCHES = [
    pytest.param(lambda: _field_with_factor_columns(3), DimensionMismatchError,
                 "factor shape (4, 3) does not match (4, 4)", id="factor-shape"),
    pytest.param(lambda: noise_matrix(2, 5, 0, stride=4), ValueError,
                 "width 5 exceeds stride 4", id="width-above-stride"),
    pytest.param(lambda: noise_matrix(0, 3, 0), ValueError, "need at least one draw",
                 id="no-draws"),
    pytest.param(lambda: tangent_gram(build_field(builtin_kernel("white_diagonal", {"sigma2": 1e308}),
                                                  interval_grid(4)), 1, [1], 0.5),
                 NumericError, "tangent Gram matrix: overflow encountered in matmul",
                 id="tangent-gram-overflow"),
]


@pytest.mark.parametrize("call,error,message", FIELD_BRANCHES)
def test_field_error_branches(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
