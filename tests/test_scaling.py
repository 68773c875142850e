"""Exact scale relations of the representation: C -> 4^j C.

Multiplying a covariance by a power of two is exact in floating point, and
every stage acts on the product in a known way, so each relation holds bit
for bit: the eigenvalues and the sketch's tail bound scale by 4^j, the
eigenfunctions do not change, each gauge's factor scales by 2^j, and the
battery's errors and tolerances keep their bits on every scale-free row
and scale by 4^j on the rows that compare covariances. The decomposition
keeps the relation across the float range, wherever C's entries stay
normal.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from wnfield import spectral, verify
from wnfield.kernels import assemble, builtin_kernel
from wnfield.spaces import interval_grid

#: j in C -> 4^j C
POWERS = (-20, 20)
#: the rows whose error and tolerance are covariances, so scale with C
FACTOR_ROWS = {f"factorization_identity[{g}]" for g in spectral.GAUGES} | {"gauge_invariance"}


def _run(C, space):
    dec = spectral.decompose(C, space)
    factors = {g: spectral.factorize(dec, g, seed=5).factor for g in spectral.GAUGES}
    checks = verify.battery(C, dec, gauge_seed=5, seed=3, n_draws=2000, duality_pairs=3)
    return dec, factors, checks


@pytest.fixture(scope="module", params=[
    ("fbm", {"hurst": 0.7}, 256),                       # the dense eigensolve
    ("squared_exponential", {"length_scale": 0.1}, 1024),   # the sketch, rank 29
], ids=["fbm-dense", "sqexp-sketch"])
def case(request):
    name, params, n = request.param
    space = interval_grid(n)
    return assemble(builtin_kernel(name, params), space), space


@pytest.fixture(scope="module")
def runs(case):
    C, space = case
    return {j: _run(np.ldexp(C, 2 * j), space) for j in (0, *POWERS)}


def test_the_cases_take_both_eigensolver_paths(runs):
    dec = runs[0][0]
    if dec.space.size == 256:
        assert dec.rank == 256 and dec.tail_bound == 0.0
    else:
        assert dec.rank == 29 and dec.tail_bound > 0.0


@pytest.mark.parametrize("j", POWERS)
def test_decomposition_and_factors_scale_exactly(runs, j):
    (dec, factors, _), (scaled, scaled_factors, _) = runs[0], runs[j]
    assert np.array_equal(scaled.eigenvalues, np.ldexp(dec.eigenvalues, 2 * j))
    assert scaled.tail_bound == np.ldexp(dec.tail_bound, 2 * j)
    assert np.array_equal(scaled.eigenfunctions, dec.eigenfunctions)
    for g in spectral.GAUGES:
        assert np.array_equal(scaled_factors[g], np.ldexp(factors[g], j)), g


@pytest.mark.parametrize("j", POWERS)
def test_battery_is_scale_free_but_for_the_factor_rows(runs, j):
    checks, scaled = runs[0][2], runs[j][2]
    assert [c["name"] for c in scaled] == [c["name"] for c in checks]
    for c, s in zip(checks, scaled):
        k = 2 * j if c["name"] in FACTOR_ROWS else 0
        assert (s["error"], s["tolerance"]) == (np.ldexp(c["error"], k),
                                                np.ldexp(c["tolerance"], k)), c["name"]
        assert s["pass"] == c["pass"] and s["detail"] == c["detail"]


@pytest.mark.parametrize("k", [-1000, -600, -300, 300, 600, 1000])
def test_decomposition_scales_exactly_across_the_float_range(case, runs, k):
    C, space = case
    # a negative k stops where C's smallest entry would leave the normal
    # range: 2^-950 for the sq-exp entry exp(-50 (1023/1024)^2) < 2^-71
    k = max(k, -1021 - int(np.frexp(np.abs(C[C != 0]).min())[1]))
    dec, scaled = runs[0][0], spectral.decompose(np.ldexp(C, k), space)
    assert np.array_equal(scaled.eigenvalues, np.ldexp(dec.eigenvalues, k))
    assert np.array_equal(scaled.eigenfunctions, dec.eigenfunctions)
    for mass in ("dropped_mass", "clamped_mass", "tail_bound"):
        assert getattr(scaled, mass) == np.ldexp(getattr(dec, mass), k), mass
    assert (scaled.tail_bound > 0.0) == (dec.tail_bound > 0.0)   # the same path


def test_a_subnormal_covariance_decomposes_quietly(case):
    C, space = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = spectral.decompose(np.ldexp(C, -1040), space)
        # the smallest kept eigenvalue divides in the RKHS coordinates
        coeffs = spectral.to_rkhs(dec.eigenfunctions[:, -1], dec).coeffs
    assert dec.rank > 0 and np.all(dec.eigenvalues > 1e-12 * dec.eigenvalues[0])
    assert np.all(np.isfinite(coeffs))


@pytest.mark.parametrize("k", [0, -600, -1040])
def test_trace_consistency_fails_a_cut_decomposition_at_every_scale(k):
    # the CI's subnormal kernel at k = -1040; cut to its first eigenvalue,
    # the trace misses three quarters of its mass at every scale
    space = interval_grid(512)
    C = np.ldexp(assemble(builtin_kernel("squared_exponential", {"length_scale": 0.1}), space), k)
    dec = spectral.decompose(C, space)
    cut = dataclasses.replace(dec, eigenvalues=dec.eigenvalues[:1], eigenfunctions=dec.eigenfunctions[:, :1])
    for d, passes in ((dec, True), (cut, False)):
        checks = verify._spectral_checks(C, d, spectral.factorize(d), np.random.default_rng(0), 0,
                                         verify.DEFAULT_TOLERANCES)
        (trace,) = [c for c in checks if c["name"] == "trace_consistency"]
        assert trace["pass"] == passes, (d.rank, trace["error"])
