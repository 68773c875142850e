import argparse
import errno
import io
import json
import os
import stat
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wnfield import _numtext, chaos, cli, field, integrals, spectral, verify
from wnfield.cli import main
from wnfield.errors import NumericError
from wnfield.kernels import assemble, builtin_kernel
from wnfield.spaces import interval_grid


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def bm_config(tmp_path, n=64, extra=None):
    payload = {
        "space": {"type": "interval_grid", "n": n},
        "kernel": {"name": "brownian_motion"},
        "seed": 7,
    }
    payload.update(extra or {})
    return write_config(tmp_path / "config.json", payload)


def test_factorize_brownian_reports_rank_and_trace(tmp_path, capsys):
    cfg = bm_config(tmp_path)
    assert main(["factorize", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "rank: 64" in out
    sp = interval_grid(64)
    oracle = float(np.dot(sp.points, sp.weights))  # sum t_i w_i
    trace_line = [l for l in out.splitlines() if l.startswith("trace:")][0]
    assert float(trace_line.split(":")[1]) == pytest.approx(oracle, rel=1e-12)

    payload = json.loads((tmp_path / "decomposition.json").read_text())
    assert payload["rank"] == 64
    assert payload["dropped_mass"] == 0.0
    assert payload["clamped_mass"] == 0.0
    assert len(payload["eigenvalues"]) == 64
    phi = np.loadtxt(tmp_path / "eigenfunctions.csv", delimiter=",", skiprows=1)
    assert phi.shape == (64, 64)
    factor = np.loadtxt(tmp_path / "factor.csv", delimiter=",", skiprows=1)
    C = assemble(builtin_kernel("brownian_motion"), sp)
    assert np.max(np.abs(factor @ factor.T - C)) <= 1e-8 * payload["eigenvalues"][0]


def test_factorize_white_diagonal_full_rank(tmp_path, capsys):
    cfg = write_config(tmp_path / "w.json", {
        "space": {"type": "interval_grid", "n": 12},
        "kernel": {"name": "white_diagonal", "params": {"sigma2": 1.0}},
    })
    assert main(["factorize", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "rank: 12" in capsys.readouterr().out


def test_factorize_largest_white_noise_variance(tmp_path, capsys):
    # every entry is finite; an average (C + C^T) / 2 would overflow the diagonal
    cfg = write_config(tmp_path / "w.json", {
        "space": {"type": "interval_grid", "n": 4},
        "kernel": {"name": "white_diagonal", "params": {"sigma2": 1e308}},
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["factorize", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "trace: 1e+308\n" in capsys.readouterr().out
    payload = json.loads((tmp_path / "decomposition.json").read_text())
    assert payload["eigenvalues"] == [2.5e307] * 4
    factor = np.loadtxt(tmp_path / "factor.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(factor))
    assert np.allclose(factor @ factor.T, 1e308 * np.eye(4), rtol=1e-15, atol=0.0)


def test_factorize_overflowing_trace_exits_1_before_writing(tmp_path, capsys):
    # every eigenvalue is finite, but their sum, the operator trace, is not
    np.savetxt(tmp_path / "big.csv", 1e308 * np.eye(4), delimiter=",")
    cfg = write_config(tmp_path / "big.json", {
        "space": {"type": "custom", "points": [0.1, 0.4, 0.6, 0.9], "weights": [1, 1, 1, 1]},
        "kernel": {"name": "custom", "file": "big.csv"},
    })
    assert main(["factorize", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: operator trace: overflow encountered in dot\n"
    assert not list((tmp_path / "out").iterdir())   # no output file, whole or part


def test_factorize_indefinite_matrix_exits_1(tmp_path, capsys):
    matrix = tmp_path / "neg.csv"
    np.savetxt(matrix, np.diag([1.0, -0.5, 1.0]), delimiter=",")
    cfg = write_config(tmp_path / "neg.json", {
        "space": {"type": "interval_grid", "n": 3},
        "kernel": {"name": "custom", "file": "neg.csv"},
    })
    assert main(["factorize", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "not positive semidefinite" in err
    assert "e-01" in err or "-0.5" in err  # names the worst eigenvalue


def test_factorize_asymmetric_matrix_exits_1(tmp_path, capsys):
    np.savetxt(tmp_path / "skew.csv", [[1.0, 0.9], [0.1, 1.0]], delimiter=",")
    cfg = write_config(tmp_path / "skew.json", {
        "space": {"type": "interval_grid", "n": 2},
        "kernel": {"name": "custom", "file": "skew.csv"},
    })
    assert main(["factorize", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "not symmetric" in capsys.readouterr().err
    assert not (tmp_path / "factor.csv").exists()


def test_sample_reproducible_and_shaped(tmp_path, capsys):
    cfg = bm_config(tmp_path, n=16, extra={"sample": {"n_draws": 1000}})
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["sample", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sample", "--config", cfg, "--out", str(out2)]) == 0
    bytes1 = (out1 / "samples.csv").read_bytes()
    assert bytes1 == (out2 / "samples.csv").read_bytes()
    draws = np.loadtxt(out1 / "samples.csv", delimiter=",", skiprows=1)
    assert draws.shape == (1000, 16)
    sidecar = json.loads((out1 / "samples_meta.json").read_text())
    assert sidecar["seed"] == 7
    assert sidecar["truncation"] == 16
    assert sidecar["gauge"] == "symmetric_sqrt"


def test_sample_truncated_to_first_mode(tmp_path):
    cfg = bm_config(tmp_path, n=16, extra={"sample": {"n_draws": 100}, "truncate": 1})
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    draws = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
    # every draw is proportional to the leading eigenfunction
    base = draws[np.argmax(np.abs(draws[:, 8]))]
    for row in draws:
        scale = row[8] / base[8]
        assert np.allclose(row, scale * base, atol=1e-10)


def test_sample_long_format(tmp_path):
    cfg = bm_config(tmp_path, n=4, extra={"sample": {"n_draws": 3, "format": "long"}})
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "samples.csv").read_text().splitlines()
    assert text[0] == "draw,point_index,value"
    assert len(text) == 1 + 3 * 4


def test_sample_long_format_streams_the_same_text(tmp_path, monkeypatch):
    n, n_draws = 8, 4096
    cfg = bm_config(tmp_path, n=n, extra={"sample": {"n_draws": n_draws, "format": "long"}})
    monkeypatch.setattr(cli, "_LONG_BLOCK_VALUES", 2**12)   # 8 blocks
    tracemalloc.start()
    try:
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole (draw, point_index, value) table is n_draws * n * 3 doubles
    assert peak < n_draws * n * 3 * 8
    draws = field.sample(field.build_field(builtin_kernel("brownian_motion"), interval_grid(n)),
                         n_draws, seed=7).draws
    table = np.column_stack([np.repeat(np.arange(n_draws), n), np.tile(np.arange(n), n_draws),
                             draws.ravel()])
    expected = io.StringIO()
    np.savetxt(expected, table, delimiter=",", fmt="%.15g", header="draw,point_index,value",
               comments="")
    # compared as lists of lines: a failing string comparison this long
    # would make pytest diff it for minutes
    expected = expected.getvalue().splitlines(keepends=True)
    assert (tmp_path / "a" / "samples.csv").read_text().splitlines(keepends=True) == expected
    monkeypatch.setattr(cli, "_LONG_BLOCK_VALUES", 7 * n + 5)   # ragged blocks of 7 draws
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "samples.csv").read_text().splitlines(keepends=True) == expected


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)])
def test_outputs_honour_the_umask(tmp_path, umask, mode):
    cfg = bm_config(tmp_path, n=8, extra={
        "sample": {"n_draws": 10},
        "integrate": {"integrand": {"components": ["1"]}, "n_draws": 100},
    })
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        for cmd in ("factorize", "sample", "integrate"):
            assert main([cmd, "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert modes == {name: mode for name in ("decomposition.json", "factor.csv",
                                             "eigenfunctions.csv", "samples.csv",
                                             "samples_meta.json", "integral.json")}


def test_sample_seed_override(tmp_path):
    cfg = bm_config(tmp_path, n=8, extra={"sample": {"n_draws": 5}})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sample", "--config", cfg, "--out", str(out1), "--seed", "99"]) == 0
    assert main(["sample", "--config", cfg, "--out", str(out2)]) == 0
    d1 = np.loadtxt(out1 / "samples.csv", delimiter=",", skiprows=1)
    d2 = np.loadtxt(out2 / "samples.csv", delimiter=",", skiprows=1)
    assert not np.array_equal(d1, d2)
    assert json.loads((out1 / "samples_meta.json").read_text())["seed"] == 99


@pytest.mark.parametrize("gauge", spectral.GAUGES)
def test_verify_default_brownian_all_pass(tmp_path, capsys, gauge):
    cfg = bm_config(tmp_path, n=24, extra={
        "gauge": gauge,
        "verify": {"n_draws": 20000, "duality_pairs": 25},
    })
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["all_pass"] is True
    names = {c["name"] for c in report["checks"]}
    assert "factorization_identity[symmetric_sqrt]" in names
    assert "duality_battery" in names
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_draws_noise_once_and_factors_each_gauge_once(tmp_path, monkeypatch):
    noise_rows, gauges = [], []
    noise_matrix, factorize = field.noise_matrix, spectral.factorize

    def counting_noise_matrix(n_draws, m, seed, row_start=0, stride=None):
        noise_rows.append((row_start, row_start + n_draws))
        return noise_matrix(n_draws, m, seed, row_start, stride)

    def counting_factorize(dec, gauge="symmetric_sqrt", seed=0):
        gauges.append(gauge)
        return factorize(dec, gauge, seed)

    monkeypatch.setattr(field, "noise_matrix", counting_noise_matrix)
    monkeypatch.setattr(field, "_BLOCK_VARIATES", 300 * 8)   # rank 8: blocks of 300 rows
    monkeypatch.setattr(spectral, "factorize", counting_factorize)
    cfg = bm_config(tmp_path, n=8, extra={
        "gauge": "rotated",
        "verify": {"n_draws": 2000, "duality_pairs": 3},
    })
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    # the requested row ranges tile [0, 2000) exactly once
    assert len(noise_rows) == 7
    assert sorted(noise_rows) == [(r, min(r + 300, 2000)) for r in range(0, 2000, 300)]
    assert sorted(gauges) == sorted(spectral.GAUGES)


def test_verify_memory_stays_below_one_draw_matrix():
    # numpy reports its buffers to tracemalloc; the battery holds one noise
    # block and n x n moments, never the 20000 x 128 noise or draw matrix
    n, n_draws = 128, 20000
    space = interval_grid(n)
    C = assemble(builtin_kernel("brownian_motion"), space)
    dec = spectral.decompose(C, space)
    tracemalloc.start()
    try:
        checks = verify.battery(C, dec, n_draws=n_draws, duality_pairs=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c["pass"] for c in checks)
    assert peak < n_draws * n * 8


def test_write_json_streams_and_leaves_nothing_on_failure(tmp_path):
    payload = {"matrix": np.random.default_rng(1).standard_normal((512, 512)).tolist()}
    expected = json.dumps(payload, indent=2) + "\n"
    tracemalloc.start()
    try:
        cli._write_json(tmp_path / "out.json", payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(expected)
    assert (tmp_path / "out.json").read_text() == expected
    payload["matrix"][300][7] = float("nan")
    with pytest.raises(NumericError, match="non-finite"):
        cli._write_json(tmp_path / "bad.json", payload)
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


_EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308,
                                1e-5, 0.1, 1e16, -1e16, 1e300, 1.7976931348623157e308])
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS
_FLOAT_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0,
                                                        max_side=4), elements=_FLOATS)
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _FLOATS.map(np.float64) | st.text()
    | st.lists(_FLOATS) | _FLOAT_ARRAYS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24)


def _as_lists(payload):
    if isinstance(payload, np.ndarray):
        return payload.tolist()
    if isinstance(payload, dict):
        return {key: _as_lists(value) for key, value in payload.items()}
    if isinstance(payload, list):
        return [_as_lists(item) for item in payload]
    return payload


@settings(derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_PAYLOADS)
def test_write_json_writes_the_bytes_of_json_dump(tmp_path, payload):
    cli._write_json(tmp_path / "out.json", payload)
    expected = json.dumps(_as_lists(payload), indent=2) + "\n"
    assert (tmp_path / "out.json").read_bytes() == expected.encode()


@settings(derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=_PAYLOADS, bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
       matrix=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                                                       max_side=4), elements=_FLOATS),
       data=st.data())
def test_write_json_rejects_any_non_finite_float(tmp_path, payload, bad, matrix, data):
    matrix = matrix.copy()
    matrix[data.draw(st.integers(0, matrix.shape[0] - 1)),
           data.draw(st.integers(0, matrix.shape[1] - 1))] = bad
    for where in ({"x": bad}, [1.0, bad], [bad, 1], {"a": [payload, {"m": matrix}]},
                  {"a": [payload, {"m": matrix.tolist()}]}, {"v": np.float64(bad)}):
        with pytest.raises(NumericError, match="non-finite"):
            cli._write_json(tmp_path / "bad.json", where)
    assert list(tmp_path.iterdir()) == []


def test_verify_zero_covariance_all_pass(tmp_path):
    # rank 0: every identity holds with an empty factor
    np.savetxt(tmp_path / "zero.csv", np.zeros((3, 3)), delimiter=",")
    cfg = write_config(tmp_path / "zero.json", {
        "space": {"type": "interval_grid", "n": 3},
        "kernel": {"name": "custom", "file": "zero.csv"},
        "verify": {"n_draws": 100, "duality_pairs": 2},
    })
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "verification.json").read_text())["all_pass"] is True


@pytest.mark.parametrize("kernel,extra", [
    ({"name": "brownian_motion"}, {"drop_tol": 1e300}),
    ({"name": "custom", "file": "zero.csv"}, {}),
], ids=["all-dropped", "zero-kernel"])
def test_rank_zero_factor_file_round_trips(tmp_path, capsys, kernel, extra):
    np.savetxt(tmp_path / "zero.csv", np.zeros((6, 6)), delimiter=",")
    payload = {"space": {"type": "interval_grid", "n": 6}, "kernel": kernel,
               "verify": {"n_draws": 100, "duality_pairs": 2}, **extra}
    cfg = write_config(tmp_path / "plain.json", payload)
    assert main(["factorize", "--config", cfg, "--out", str(tmp_path)]) == 0
    # an empty header line, then one empty line per node
    assert (tmp_path / "factor.csv").read_bytes() == b"\n" * 7
    code = main(["verify", "--config", cfg, "--out", str(tmp_path / "plain")])
    payload["verify"]["factor_file"] = "factor.csv"
    cfg = write_config(tmp_path / "file.json", payload)
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "file")]) == code
    assert capsys.readouterr().err == ""
    assert ((tmp_path / "file" / "verification.json").read_bytes()
            == (tmp_path / "plain" / "verification.json").read_bytes())


@pytest.mark.parametrize("n,kernel,extra", [
    (64, {"name": "fbm", "params": {"hurst": 0.7}}, {}),
    (6, {"name": "brownian_motion"}, {"drop_tol": 1e300}),
    (6, {"name": "custom", "file": "zero.csv"}, {}),
], ids=["fbm", "all-dropped", "zero-kernel"])
def test_eigenfunctions_csv_round_trips_bit_for_bit(tmp_path, capsys, n, kernel, extra):
    np.savetxt(tmp_path / "zero.csv", np.zeros((6, 6)), delimiter=",")
    cfg = write_config(tmp_path / "c.json",
                       {"space": {"type": "interval_grid", "n": n}, "kernel": kernel, **extra})
    assert main(["factorize", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    args = argparse.Namespace(seed=None, truncate=None, gauge=None)
    dec = cli._decompose(cli.load_config(cfg, args), tmp_path)[1]
    path = tmp_path / "out" / "eigenfunctions.csv"
    if dec.rank:
        header = ",".join(f"phi{j + 1}" for j in range(dec.rank))
        assert path.read_text().splitlines()[0] == header
        phi = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert phi.shape == dec.eigenfunctions.shape
        assert phi.tobytes() == np.ascontiguousarray(dec.eigenfunctions).tobytes()
    else:   # as factor.csv: an empty header line, then one empty line per node
        assert path.read_bytes() == b"\n" * (n + 1)
    assert "eigenfunctions" not in json.loads((tmp_path / "out" / "decomposition.json").read_text())


def test_verify_duality_battery_size_is_configurable(tmp_path):
    cfg = bm_config(tmp_path, n=8, extra={
        "verify": {"n_draws": 2000, "duality_pairs": 7},
    })
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    battery = [c for c in report["checks"] if c["name"] == "duality_battery"][0]
    assert "7 random pairs" in battery["detail"]


def test_verify_tolerance_override_can_force_failure(tmp_path):
    cfg = bm_config(tmp_path, n=8, extra={
        "verify": {"n_draws": 2000, "duality_pairs": 5,
                   "tolerances": {"factorization": 1e-18}},
    })
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "verification.json").read_text())
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed and all("factorization" in c["name"] or "gauge" in c["name"]
                          for c in failed)


def test_verify_corrupted_factor_fails(tmp_path, capsys):
    cfg = bm_config(tmp_path, n=16, extra={"verify": {"n_draws": 2000}})
    assert main(["factorize", "--config", cfg, "--out", str(tmp_path)]) == 0
    factor_path = tmp_path / "factor.csv"
    lines = factor_path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[3] = str(float(cells[3]) + 0.5)  # corrupt one entry
    lines[5] = ",".join(cells)
    factor_path.write_text("\n".join(lines) + "\n")

    cfg2 = bm_config(tmp_path, n=16, extra={
        "verify": {"n_draws": 2000, "factor_file": "factor.csv"},
    })
    assert main(["verify", "--config", cfg2, "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "verification.json").read_text())
    broken = [c for c in report["checks"]
              if c["name"] == "factorization_identity[symmetric_sqrt]"][0]
    assert broken["pass"] is False
    assert "[FAIL]" in capsys.readouterr().out


def test_integrate_deterministic_section(tmp_path, capsys):
    # kernel row at the midpoint node: variance = K(0.5, 0.5) = 0.5
    sp = interval_grid(33)
    C = assemble(builtin_kernel("brownian_motion"), sp)
    integrand = tmp_path / "f.json"
    integrand.write_text(json.dumps({"field_values": C[:, 16].tolist()}))
    cfg = bm_config(tmp_path, n=33)
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path),
                 "--integrand", str(integrand)]) == 0
    result = json.loads((tmp_path / "integral.json").read_text())
    assert result["kind"] == "deterministic"
    assert result["rkhs_norm_squared"] == pytest.approx(0.5, rel=1e-8)
    assert result["histogram"]["variance"] == pytest.approx(0.5, rel=0.1)


def test_integrate_histogram_reads_noise_blocks(tmp_path, monkeypatch):
    # the integrand "1" is the first basis element: each draw is xi_1
    n, n_draws = 128, 40000
    cfg = bm_config(tmp_path, n=n, extra={
        "integrate": {"integrand": {"components": ["1"]}, "n_draws": n_draws},
    })
    monkeypatch.setattr(field, "_BLOCK_VARIATES", 2**16)   # blocks of 512 rows
    tracemalloc.start()
    try:
        assert main(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_draws * n * 8 / 4   # the whole noise matrix is n_draws * rank doubles
    xi = field.noise_matrix(n_draws, n, seed=7)[:, 0]
    histogram = json.loads((tmp_path / "integral.json").read_text())["histogram"]
    assert histogram["mean"] == float(xi.mean())
    assert histogram["variance"] == float(xi.var())
    assert histogram["quantiles"]["0.05"] == float(np.quantile(xi, 0.05))


@pytest.mark.parametrize("texts", [["x1*x2", "2*x3"], ["x2", "-x1", "x1*x2"]],
                         ids=["products", "cancelling"])
def test_integrate_divides_the_parsed_components_only(tmp_path, monkeypatch, texts):
    # no zero components pad the integrand to the rank: the divergence, its
    # mean and its variance are still those of the zero-padded integrand
    n, seen = 16, []
    skorokhod = integrals.skorokhod_integral
    monkeypatch.setattr(integrals, "skorokhod_integral", lambda u: seen.append(u) or skorokhod(u))
    cfg = bm_config(tmp_path, n=n, extra={"integrate": {"integrand": {"components": texts}}})
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 0
    parsed = tuple(chaos.parse_polynomial(t, num_vars=n) for t in texts)
    assert [u.components for u in seen] == [parsed]
    zeros = (chaos.ChaosPolynomial.zero(),) * (n - len(texts))
    delta = skorokhod(integrals.RandomIntegrand(parsed + zeros))
    mean = chaos.expectation(delta)
    assert json.loads((tmp_path / "integral.json").read_text()) == {
        "kind": "random", "polynomial": chaos.format_polynomial(delta), "mean": mean,
        "variance": chaos.expectation(delta * delta) - mean * mean}


def test_integrate_constant_components_are_padded_to_the_rank(tmp_path):
    # the noise is read at the rank's stride: the histogram is that of the
    # same coefficients padded with zeros to the rank
    n, n_draws = 256, 2000
    cfg = bm_config(tmp_path, n=n, extra={"integrate": {
        "n_draws": n_draws, "integrand": {"components": ["1", "-2.5", "0"]}}})
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 0
    sp = interval_grid(n)
    rank = spectral.decompose(assemble(builtin_kernel("brownian_motion"), sp), sp).rank
    assert rank >= 256
    coeffs = np.zeros(rank)
    coeffs[:3] = [1.0, -2.5, 0.0]
    draws = field.noise_matrix(n_draws, rank, seed=7) @ coeffs
    result = json.loads((tmp_path / "integral.json").read_text())
    assert result["rkhs_norm_squared"] == 7.25
    assert result["histogram"] == {
        "n_draws": n_draws, "seed": 7, "mean": float(draws.mean()), "variance": float(draws.var()),
        "quantiles": {str(q): float(np.quantile(draws, q)) for q in (0.05, 0.25, 0.5, 0.75, 0.95)}}


def test_integrate_builds_no_factor(tmp_path, monkeypatch):
    # the integral depends on the decomposition only, not on the gauge
    sp = interval_grid(16)
    C = assemble(builtin_kernel("brownian_motion"), sp)
    integrand = tmp_path / "f.json"
    integrand.write_text(json.dumps({"field_values": C[:, 5].tolist()}))
    cfg = bm_config(tmp_path, n=16, extra={"integrate": {"n_draws": 500}})
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "ref"),
                 "--integrand", str(integrand)]) == 0
    calls = []
    monkeypatch.setattr(spectral, "factorize", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(field, "factorize", lambda *a, **k: calls.append(a))
    reference = (tmp_path / "ref" / "integral.json").read_bytes()
    for gauge in ("triangular", "rotated:3"):
        out = tmp_path / gauge
        assert main(["integrate", "--config", cfg, "--out", str(out),
                     "--integrand", str(integrand), "--gauge", gauge]) == 0
        assert (out / "integral.json").read_bytes() == reference
    assert calls == []


def test_integrate_random_polynomial(tmp_path, capsys):
    integrand = tmp_path / "u.json"
    integrand.write_text(json.dumps({"components": ["x1"]}))
    cfg = bm_config(tmp_path, n=8)
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path),
                 "--integrand", str(integrand)]) == 0
    result = json.loads((tmp_path / "integral.json").read_text())
    assert result["kind"] == "random"
    assert result["polynomial"] == "x1^2 - 1"
    assert result["mean"] == pytest.approx(0.0, abs=1e-14)
    assert result["variance"] == pytest.approx(2.0, abs=1e-12)


def test_integrate_empty_integrand_usage_error(tmp_path, capsys):
    integrand = tmp_path / "empty.json"
    integrand.write_text(json.dumps({"components": []}))
    cfg = bm_config(tmp_path, n=8)
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path),
                 "--integrand", str(integrand)]) == 2
    cfg_no = bm_config(tmp_path, n=8)
    assert main(["integrate", "--config", cfg_no, "--out", str(tmp_path)]) == 2


def test_integrate_out_of_rkhs_exits_1(tmp_path, capsys):
    # squared-exponential span has numerical rank ~8 at n=32; a random
    # vector is far outside it
    rng = np.random.default_rng(3)
    integrand = tmp_path / "f.json"
    integrand.write_text(json.dumps({"field_values": rng.standard_normal(32).tolist()}))
    cfg = write_config(tmp_path / "se.json", {
        "space": {"type": "interval_grid", "n": 32},
        "kernel": {"name": "squared_exponential", "params": {"length_scale": 1.0}},
    })
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path),
                 "--integrand", str(integrand)]) == 1
    assert "residual" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e-170, 1e-300])
def test_integrate_rejects_an_out_of_span_vector_at_every_scale(tmp_path, capsys, scale):
    # a tiny integrand is tested like any other: its norm does not underflow to 0
    cfg = write_config(tmp_path / "se.json", {
        "space": {"type": "interval_grid", "n": 16},
        "kernel": {"name": "squared_exponential", "params": {"length_scale": 0.3}},
        "integrate": {"integrand": {"field_values": [scale] + [0.0] * 15}},
    })
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: integrand is not in the field's reproducing-kernel "
                                       "space: relative residual 4.201e-03\n")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("name,params,rank,tol", [
    ("fbm", {"hurst": 0.7}, 64, 1e-12),
    ("squared_exponential", {"length_scale": 0.3}, 13, 1e-8),
], ids=["full-rank", "deficient-rank"])
def test_integrate_a_kernel_column_reports_the_sampled_field_at_its_node(
        tmp_path, name, params, rank, tol):
    # X(t_j) = int K(t_j, .) dW: integrating column j of C reads the noise
    # rows that field.sample sums, at the rank's stride, so its histogram is
    # that of column j of the draws. The mean and the median sit near 0, so
    # each statistic is compared at the scale of X(t_j), its sd sqrt(C_jj)
    n, j, n_draws, seed = 64, 21, 3000, 11
    sp = interval_grid(n)
    C = assemble(builtin_kernel(name, params), sp)
    cfg = write_config(tmp_path / "c.json", {
        "space": {"type": "interval_grid", "n": n}, "kernel": {"name": name, "params": params},
        "seed": seed, "integrate": {"n_draws": n_draws,
                                    "integrand": {"field_values": C[:, j].tolist()}}})
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path)]) == 0
    fld = field.build_field(builtin_kernel(name, params), sp)
    assert fld.dec.rank == rank
    x = field.sample(fld, n_draws, seed=seed).draws[:, j]
    histogram = json.loads((tmp_path / "integral.json").read_text())["histogram"]
    assert histogram["n_draws"] == n_draws and histogram["seed"] == seed
    sd = np.sqrt(C[j, j])
    assert abs(histogram["mean"] - x.mean()) <= tol * sd
    assert abs(histogram["variance"] - x.var()) <= tol * sd**2
    for q, value in histogram["quantiles"].items():
        assert abs(value - np.quantile(x, float(q))) <= tol * sd


def test_integrate_overflowing_moments_exit_1(tmp_path, capsys):
    # the moments overflow to inf or nan (1e100*x1^101 already in mean^2);
    # x1^1e20 must not take p / 2 steps in p!!
    cfg = bm_config(tmp_path, n=8)
    integrand = tmp_path / "u.json"
    for text in ("x1^400", "x1^1e20", "1e100*x1^101"):
        integrand.write_text(json.dumps({"components": [text]}))
        out = tmp_path / text
        start = time.perf_counter()
        assert main(["integrate", "--config", cfg, "--out", str(out),
                     "--integrand", str(integrand)]) == 1
        assert time.perf_counter() - start < 1.0
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "integral.json").exists()


def test_integrate_variable_beyond_rank_exits_1(tmp_path, capsys):
    # x99999999 would pad an exponent list to 10^8 entries before the check
    cfg = bm_config(tmp_path, n=8)
    integrand = tmp_path / "u.json"
    for text in ("x300000", "x99999999"):
        integrand.write_text(json.dumps({"components": [text]}))
        out = tmp_path / text
        start = time.perf_counter()
        assert main(["integrate", "--config", cfg, "--out", str(out),
                     "--integrand", str(integrand)]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert text in err and "rank 8" in err
        assert not (out / "integral.json").exists()


def test_huge_integer_drop_tol_exits_2(tmp_path, capsys):
    # JSON integers have no range; float(10**400) overflows
    (tmp_path / "big.json").write_text(
        '{"space": {"type": "interval_grid", "n": 8}, "kernel": {"name": "brownian_motion"}, '
        '"drop_tol": 1' + "0" * 400 + "}")
    assert main(["factorize", "--config", str(tmp_path / "big.json"),
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "drop_tol" in err and len(err) < 200
    assert not (tmp_path / "decomposition.json").exists()


@pytest.mark.parametrize("command", ["factorize", "sample", "verify", "integrate", "tangent"])
@pytest.mark.parametrize("key,extra,flags", [
    ("seed", {"seed": -1}, []),
    ("seed", {"seed": 10**51}, []),
    ("seed", {"seed": 3.0}, []),
    ("gauge_seed", {"gauge": "rotated", "gauge_seed": -3}, []),
    ("gauge_seed", {"gauge": "rotated", "gauge_seed": 2**128}, []),
    ("seed", {}, ["--seed", "-1"]),
    ("seed", {}, ["--seed", str(2**128)]),
    ("gauge_seed", {}, ["--gauge", "rotated:-3"]),
])
def test_out_of_range_seed_exits_2(tmp_path, capsys, command, key, extra, flags):
    cfg = bm_config(tmp_path, n=8, extra=extra)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), *flags]) == 2
    assert f"at $.{key}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_largest_seeds_are_accepted(tmp_path):
    top = str(2**128 - 1)
    cfg = bm_config(tmp_path, n=8, extra={"verify": {"n_draws": 200, "duality_pairs": 1}})
    for command in ("sample", "verify"):
        assert main([command, "--config", cfg, "--out", str(tmp_path),
                     "--seed", top, "--gauge", f"rotated:{top}"]) == 0


@pytest.mark.parametrize("command", ["factorize", "sample", "verify"])
@pytest.mark.parametrize("kernel", [{"name": "brownian_motion"}, {"name": "brownian_bridge"},
                                    {"name": "fbm", "params": {"hurst": 0.7}}])
def test_scalar_only_kernel_on_plane_exits_2(tmp_path, capsys, command, kernel):
    cfg = write_config(tmp_path / "c.json", {
        "space": {"type": "custom", "points": [[0, 0], [1, 1], [0, 1]], "weights": [1, 1, 1]},
        "kernel": kernel,
    })
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "scalar coordinates only" in err


def test_non_finite_json_exits_2(tmp_path, capsys):
    cfg = bm_config(tmp_path, n=8, extra={"drop_tol": float("nan")})
    assert main(["factorize", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "config.json" in capsys.readouterr().err
    (tmp_path / "inf.json").write_text('{"space": {"type": "interval_grid", "n": 8}, '
                                       '"kernel": {"name": "brownian_motion"}, "drop_tol": 1e999}')
    assert main(["factorize", "--config", str(tmp_path / "inf.json"), "--out", str(tmp_path)]) == 2
    assert "inf.json" in capsys.readouterr().err
    integrand = tmp_path / "f.json"
    integrand.write_text(json.dumps({"field_values": [float("nan")] + [0.0] * 7}))
    assert main(["integrate", "--config", bm_config(tmp_path, n=8), "--out", str(tmp_path),
                 "--integrand", str(integrand)]) == 2
    assert "f.json" in capsys.readouterr().err


def test_integrate_non_finite_coefficient_exits_2(tmp_path, capsys):
    integrand = tmp_path / "u.json"
    for text in ("1e999*x1", "x1^1e400"):
        integrand.write_text(json.dumps({"components": [text]}))
        assert main(["integrate", "--config", bm_config(tmp_path, n=8), "--out", str(tmp_path),
                     "--integrand", str(integrand)]) == 2
        assert "finite" in capsys.readouterr().err


def test_tangent_command(tmp_path, capsys):
    n = 128
    cfg = write_config(tmp_path / "t.json", {
        "space": {"type": "interval_grid", "n": n},
        "kernel": {"name": "brownian_motion"},
        "tangent": {"t_index": n // 2, "offsets": [1], "r": float(np.sqrt(1.0 / n))},
    })
    assert main(["tangent", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "tangent.json").read_text())
    assert payload["gram"][0][0] == pytest.approx(1.0, abs=1e-8)


def test_schema_violation_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", {
        "space": {"type": "interval_grid", "n": 4},
    })
    assert main(["factorize", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "schema" in capsys.readouterr().err


def test_each_schema_is_checked_once(tmp_path, monkeypatch):
    checked = []
    check_schema = cli._Validator.check_schema

    def counting(schema, *args, **kwargs):
        checked.append(id(schema))
        return check_schema(schema, *args, **kwargs)

    monkeypatch.setattr(cli._Validator, "check_schema", counting)
    monkeypatch.setattr(cli.jsonschema, "validate", None)   # its metaschema check is per call
    cli._validator.cache_clear()
    cfg = bm_config(tmp_path, n=8, extra={"integrate": {"integrand": {"components": ["x1"]}}})
    args = argparse.Namespace(seed=None, truncate=None, gauge=None, integrand=None)
    for _ in range(2):
        config = cli.load_config(cfg, args)
    cli._load_integrand(config, args)
    assert sorted(checked) == sorted([id(cli.CONFIG_SCHEMA), id(cli.INTEGRAND_SCHEMA)])


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", {
        "space": {"type": "interval_grid", "n": 4},
        "kernel": {"name": "brownian_motion"},
        "truncation": 3,
    })
    assert main(["factorize", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["factorize", "--config", missing, "--out", str(tmp_path)]) == 2


def test_gauge_override(tmp_path):
    cfg = bm_config(tmp_path, n=8, extra={"sample": {"n_draws": 3}})
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out),
                 "--gauge", "rotated:5"]) == 0
    sidecar = json.loads((out / "samples_meta.json").read_text())
    assert sidecar["gauge"] == "rotated:5"
    assert main(["sample", "--config", cfg, "--out", str(out),
                 "--gauge", "sideways"]) == 2


def test_custom_space_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {
        "space": {"type": "custom", "points": [0.1, 0.4, 0.9], "weights": [0.2, 0.5, 0.3]},
        "kernel": {"name": "brownian_motion"},
    })
    assert main(["factorize", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "rank: 3" in capsys.readouterr().out


def test_bad_custom_space_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {
        "space": {"type": "custom", "points": [0.1, 0.4], "weights": [0.2, -0.5]},
        "kernel": {"name": "brownian_motion"},
    })
    assert main(["factorize", "--config", cfg, "--out", str(tmp_path)]) == 2


BAD_SPACE_ABSENT_KERNEL = {
    "space": {"type": "custom", "points": [0.1, 0.4], "weights": [0.2, -0.5]},
    "kernel": {"name": "custom", "file": "absent.csv"},
}
#: the largest white-noise variance: a valid field whose tangent Gram matrix overflows
HUGE_WHITE_NOISE = {"kernel": {"name": "white_diagonal", "params": {"sigma2": 1e308}}, "seed": 3}

#: an integer past the float range: JSON integers have no range
HUGE = 10**400


def _custom_points(points, weights=(0.5, 0.5)):
    """A squared-exponential kernel on a custom space (two points by default)."""
    return {"space": {"type": "custom", "points": points, "weights": weights},
            "kernel": {"name": "squared_exponential", "params": {"length_scale": 0.3}}}


#: command, config keys over a Brownian motion on 8 nodes, flags, files
#: beside the config, exit code, and a fragment of the one stderr line (for
#: exit 0, the truncation that samples_meta.json records)
CLI_BRANCHES = [
    pytest.param("factorize", {"kernel": {"name": "custom"}}, [], {}, 2,
                 "custom kernel requires a 'file'", id="custom-kernel-without-file"),
    pytest.param("factorize", {"kernel": {"name": "custom", "file": "absent.csv"}}, [], {}, 2,
                 "cannot read kernel matrix", id="custom-kernel-unreadable"),
    pytest.param("factorize", {"kernel": {"name": "custom", "file": "k.csv"}}, [],
                 {"k.csv": "1,x\n"}, 1, "is not numeric CSV", id="custom-kernel-not-numeric"),
    pytest.param("factorize", {"kernel": {"name": "custom", "file": "C.csv"}}, [], {"C.csv": ""},
                 1, "C.csv holds no numbers", id="custom-kernel-empty"),
    pytest.param("factorize", {"kernel": {"name": "matern"}}, [], {}, 2,
                 "unknown kernel 'matern'; builtins are brownian_motion, brownian_bridge, fbm, "
                 "squared_exponential, white_diagonal", id="unknown-kernel"),
    pytest.param("sample", {}, ["--truncate", "3"], {}, 0, 3, id="truncate-flag"),
    pytest.param("sample", {}, ["--gauge", "rotated:abc"], {}, 2,
                 "bad gauge spec 'rotated:abc': seed must be an integer", id="gauge-seed-not-int"),
    pytest.param("sample", {"truncate": 9}, [], {}, 2, "truncation m=9 out of range [0, 8]",
                 id="truncate-above-rank"),
    pytest.param("verify", {"verify": {"factor_file": "absent.csv"}}, [], {}, 1,
                 "cannot read factor file", id="factor-file-missing"),
    pytest.param("verify", {"verify": {"factor_file": "f.csv"}}, [], {"f.csv": "k1,k2\n1,2\n"}, 1,
                 "factor file shape (1, 2) does not match (8, 8)", id="factor-file-shape"),
    pytest.param("verify", {"verify": {"factor_file": "f.csv"}}, [], {"f.csv": "k1,k2\n"}, 1,
                 "f.csv holds no numbers", id="factor-file-without-rows"),
    pytest.param("verify", {"drop_tol": 1e300, "verify": {"factor_file": "f.csv"}}, [],
                 {"f.csv": "\n0.5\n" + "\n" * 7}, 1, "has entries but no column names",
                 id="factor-file-entries-without-column-names"),
    pytest.param("integrate", {"integrate": {"integrand": {"components": ["1"] * 9}}}, [], {}, 1,
                 "integrand has 9 components but the decomposition rank is 8",
                 id="more-components-than-rank"),
    pytest.param("tangent", {}, [], {}, 2,
                 "tangent command needs a 'tangent' section", id="tangent-without-section"),
    pytest.param("tangent", {"tangent": {"t_index": 8, "offsets": [1], "r": 0.5}}, [], {}, 2,
                 "base index 8 out of range for size 8", id="tangent-index-out-of-range"),
    # the space is built before the kernel: its error is the one reported
    *[pytest.param(command, {**BAD_SPACE_ABSENT_KERNEL, **extra}, [], {}, 2,
                   "error: bad space spec: weights must be finite and strictly positive\n",
                   id=f"{command}-bad-space-before-absent-kernel")
      for command, extra in [("factorize", {}), ("sample", {}), ("verify", {}),
                             ("tangent", {"tangent": {"t_index": 1, "offsets": [1], "r": 0.5}})]],
    # statistics that overflow on a valid field: one line naming what overflowed
    pytest.param("tangent", {**HUGE_WHITE_NOISE, "tangent": {"t_index": 2, "offsets": [1], "r": 0.5}},
                 [], {}, 1, "error: tangent Gram matrix: overflow encountered in matmul\n",
                 id="tangent-gram-overflows"),
    pytest.param("integrate", {**_custom_points([0.1, 0.4, 0.6, 0.9], [1e300] * 4),
                               "integrate": {"integrand": {"field_values": [1e200, -1e200, 3e200, 0]}}},
                 [], {}, 1, "error: squared RKHS norm of the integrand: overflow encountered in dot\n",
                 id="integrand-norm-overflows"),
    # integers past the float range are no numbers, and are clipped to 40
    # characters; points must be scalars or vectors of numbers
    *[pytest.param(command, extra, [], {}, 2,
                   f"error: {where}: 100000000000000000...0000000000000000000 is not of type 'number'",
                   id=f"huge-integer-{where.rsplit('.', 1)[-1]}")
      for command, where, extra in [
          ("factorize", "config schema violation at $.space.points[0]", _custom_points([HUGE, 0.5])),
          ("factorize", "config schema violation at $.space.weights[1]",
           _custom_points([0.1, 0.5], [0.5, HUGE])),
          ("factorize", "config schema violation at $.kernel.params.hurst",
           {"kernel": {"name": "fbm", "params": {"hurst": HUGE}}}),
          ("integrate", "integrand schema violation at $.field_values[0]",
           {"integrate": {"integrand": {"field_values": [HUGE] + [0] * 7}}}),
      ]],
    pytest.param("factorize", _custom_points([{}, {}]), [], {}, 2,
                 "error: config schema violation at $.space.points[0]: "
                 "{} is not of type 'number', 'array'\n", id="points-not-numbers"),
    pytest.param("factorize", _custom_points([[[0]], [[1]]]), [], {}, 2,
                 "error: config schema violation at $.space.points[0][0]: [0] is not of type 'number'\n",
                 id="points-three-dimensional"),
    pytest.param("tangent", {"tangent": {"t_index": 2, "offsets": [10**30], "r": 0.5}}, [], {}, 2,
                 f"error: offsets move base index 2 to [{10**30 + 2}], outside [0, 8)\n",
                 id="tangent-offset-huge"),
    # counts numpy cannot index: refused by the schema, before any work
    pytest.param("integrate", {"integrate": {"n_draws": 10**30,
                                             "integrand": {"field_values": [1] * 8}}}, [], {}, 2,
                 f"error: config schema violation at $.integrate.n_draws: {10**30} "
                 f"is greater than the maximum of {2**63 - 1}\n", id="integrate-n-draws-huge"),
    pytest.param("sample", {"sample": {"n_draws": 10**30}}, [], {}, 2,
                 f"error: config schema violation at $.sample.n_draws: {10**30} "
                 f"is greater than the maximum of {2**63 - 1}\n", id="sample-n-draws-huge"),
    pytest.param("verify", {"verify": {"n_draws": 10**30}}, [], {}, 2,
                 f"error: config schema violation at $.verify.n_draws: {10**30} "
                 f"is greater than the maximum of {2**63 - 1}\n", id="verify-n-draws-huge"),
    # the sampling checks gate at a fixed family-wise rate: no band width to set
    pytest.param("verify", {"verify": {"band_se": 5}}, [], {}, 2,
                 "error: config schema violation at $.verify: Additional properties are not "
                 "allowed ('band_se' was unexpected)\n", id="verify-band-se-removed"),
]


@pytest.mark.parametrize("command,extra,flags,files,code,expected", CLI_BRANCHES)
def test_cli_branch_exit_codes(tmp_path, capsys, command, extra, flags, files, code, expected):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", bm_config(tmp_path, n=8, extra=extra),
                 "--out", str(out), *flags]) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        assert json.loads((out / "samples_meta.json").read_text())["truncation"] == expected
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and expected in err


@pytest.mark.parametrize("command,extra", [
    ("sample", {"sample": {"n_draws": 10**11}}),
    ("integrate", {"integrate": {"n_draws": 10**11, "integrand": {"field_values": [1] * 8}}}),
], ids=["sample", "integrate"])
def test_n_draws_past_memory_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, command, extra):
    # the draws' allocation is refused as numpy refuses it, so no memory is asked for
    empty = np.empty

    def refusing_empty(shape, *args, **kwargs):
        if np.prod(shape, dtype=object) >= 10**11:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refusing_empty)
    out = tmp_path / "out"
    assert main([command, "--config", bm_config(tmp_path, n=8, extra=extra),
                 "--out", str(out)]) == 2
    shape = (10**11, 8) if command == "sample" else 10**11
    assert capsys.readouterr().err == (f"error: {command}.n_draws {10**11}: "
                                       f"Unable to allocate an array with shape {shape}\n")
    assert list(out.iterdir()) == []


def test_verify_sampling_bands_at_extreme_variances(tmp_path, capsys):
    bands = []
    for sigma2 in (1.0, 1e200, 1e-200):
        out = tmp_path / f"out{sigma2}"
        extra = {"kernel": {"name": "white_diagonal", "params": {"sigma2": sigma2}},
                 "seed": 3, "verify": {"n_draws": 1000}}
        assert main(["verify", "--config", bm_config(tmp_path, n=6, extra=extra),
                     "--out", str(out)]) == 0
        checks = json.loads((out / "verification.json").read_text())["checks"]
        bands.append([c["error"] for c in checks if c["name"].endswith("_band")])
    assert capsys.readouterr().err == ""
    assert len(bands[0]) == 2
    for band in bands[1:]:   # the standard errors' squares would overflow, or underflow
        assert band == pytest.approx(bands[0], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("command", ["factorize", "sample", "integrate"])
def test_huge_white_noise_factors_samples_and_integrates(tmp_path, capsys, command):
    extra = {**HUGE_WHITE_NOISE, "sample": {"n_draws": 10},
             "integrate": {"n_draws": 10, "integrand": {"components": ["1"]}}}
    assert main([command, "--config", bm_config(tmp_path, n=8, extra=extra),
                 "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


def test_huge_white_noise_verifies(tmp_path, capsys):
    # the sampling checks read the noise alone, so none of them overflows
    out = tmp_path / "out"
    assert main(["verify", "--config", bm_config(tmp_path, n=8, extra=HUGE_WHITE_NOISE),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    checks = json.loads((out / "verification.json").read_text())["checks"]
    assert all(c["pass"] for c in checks) and len(checks) == 11


@pytest.mark.parametrize("command,extra", [
    ("sample", {"sample": {"n_draws": 3}}),
    ("tangent", {"tangent": {"t_index": 2, "offsets": [1], "r": 0.5}}),
])
def test_sample_and_tangent_take_their_field_from_build_field(tmp_path, monkeypatch, command,
                                                              extra):
    calls = []
    build = field.build_field
    monkeypatch.setattr(field, "build_field", lambda *args: calls.append(args) or build(*args))
    assert main([command, "--config", bm_config(tmp_path, n=8, extra=extra),
                 "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["factorize", "sample", "verify", "integrate", "tangent"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_out_that_cannot_be_created_exits_2(tmp_path, capsys, command, below):
    blocker = tmp_path / "afile"
    blocker.touch()
    out = blocker / "sub" if below else blocker
    assert main([command, "--config", bm_config(tmp_path, n=8), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    reason = "Not a directory" if below else "File exists"
    assert err == f"error: cannot create output directory {out}: {reason}\n"
    assert blocker.read_bytes() == b""


@pytest.mark.parametrize("command,first_output,extra", [
    ("factorize", "decomposition.json", {}),
    ("sample", "samples.csv", {"sample": {"n_draws": 3}}),
    ("verify", "verification.json", {"verify": {"n_draws": 200}}),
    ("integrate", "integral.json",
     {"integrate": {"n_draws": 10, "integrand": {"components": ["1"]}}}),
    ("tangent", "tangent.json", {"tangent": {"t_index": 2, "offsets": [1], "r": 0.5}}),
])
def test_output_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch, command,
                                               first_output, extra):
    for cpus in (1, 2):   # one process, then forked pieces
        forked(monkeypatch, cpus)
        out = tmp_path / f"out{cpus}"
        (out / first_output).mkdir(parents=True)
        assert main([command, "--config", bm_config(tmp_path, n=8, extra=extra),
                     "--out", str(out)]) == 2
        no_children_left()
        assert capsys.readouterr().err == f"error: cannot write {out / first_output}: Is a directory\n"
        assert [p.name for p in out.iterdir()] == [first_output]   # no temp file left
        assert not any((out / first_output).iterdir())


def test_verify_non_finite_factor_file_exits_1(tmp_path, capsys):
    cfg = bm_config(tmp_path, n=8, extra={"verify": {"n_draws": 200, "factor_file": "factor.csv"}})
    assert main(["factorize", "--config", cfg, "--out", str(tmp_path)]) == 0
    factor_path = tmp_path / "factor.csv"
    lines = factor_path.read_text().splitlines()
    for row, col, text in ((3, 5, "nan"), (3, 6, "inf"), (6, 0, "nan")):
        cells = lines[row].split(",")
        cells[col] = text
        lines[row] = ",".join(cells)
    factor_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    # the header is line 0, so data row 2 holds the first non-finite entry
    assert capsys.readouterr().err == f"error: factor file {factor_path} is not finite at entry (2, 5)\n"
    assert not (tmp_path / "out" / "verification.json").exists()


# -- output pieces formatted in forked children ------------------------------


def forked(monkeypatch, cpus):
    """Make ``cpus`` CPUs usable and pieces tiny, so n=8 outputs are cut
    into up to ``cpus`` pieces."""
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "_PIECE_VALUES", 5)


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


#: every output of all five commands on 8 nodes, both sample formats
_EVERY_OUTPUT = [
    ("factorize", {}),
    ("sample", {"sample": {"n_draws": 40}}),
    ("sample", {"sample": {"n_draws": 40, "format": "long"}}),
    ("verify", {"verify": {"n_draws": 200, "duality_pairs": 2}}),
    ("integrate", {"integrate": {"n_draws": 10, "integrand": {"components": ["1"]}}}),
    ("tangent", {"tangent": {"t_index": 2, "offsets": [1, 2], "r": 0.5}}),
]


def _every_output(tmp_path, capsys):
    """Stdout and the bytes of every output file of each call in
    ``_EVERY_OUTPUT``, written to the same directory."""
    results = []
    for command, extra in _EVERY_OUTPUT:
        out = tmp_path / "out"
        cfg = bm_config(tmp_path, n=8, extra=extra)
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        no_children_left()
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        results.append((capsys.readouterr().out, files))
        for p in out.iterdir():
            p.unlink()
    return results


@pytest.mark.parametrize("cpus,fork_fails", [(2, False), (3, False), (3, True)],
                         ids=["2-cpus", "3-cpus", "fork-fails"])
def test_pieces_write_the_bytes_of_one_process(tmp_path, capsys, monkeypatch, cpus, fork_fails):
    monkeypatch.setattr(cli, "_LONG_BLOCK_VALUES", 7 * 8 + 5)   # ragged blocks of 7 draws
    expected = _every_output(tmp_path, capsys)
    forked(monkeypatch, cpus)
    forks = []

    def fork(real=os.fork):
        forks.append(1)
        if fork_fails:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    assert _every_output(tmp_path, capsys) == expected
    # factorize, and sample in both formats, fork cpus - 1 children each; a
    # piece whose fork failed is formatted in this process
    assert len(forks) == 3 * (cpus - 1)


@pytest.mark.parametrize("failure", ["second-fork"])
def test_pool_that_cannot_start_formats_every_piece_here(tmp_path, capsys, monkeypatch, failure):
    expected = _every_output(tmp_path, capsys)
    forked(monkeypatch, 3)
    forks = []

    def fork(real=os.fork):   # the first child of each publish is forked, the second is not
        forks.append(1)
        if len(forks) % 2 == 0:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    # no child left, and nothing in the output directory but the outputs
    assert _every_output(tmp_path, capsys) == expected
    assert len(forks) == 3 * 2


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_publish_whose_forks_fail_leaves_no_descriptor_open(tmp_path, monkeypatch):
    forked(monkeypatch, 2)

    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    outputs = [cli._dense_csv(tmp_path / "a.csv", "a,b,c,d,e", np.arange(40.0).reshape(8, 5))]
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        cli._publish(outputs)
    assert len(os.listdir("/proc/self/fd")) == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


def test_forked_publish_starts_no_thread(tmp_path, monkeypatch):
    forked(monkeypatch, 2)
    parent, write, threads = os.getpid(), _numtext.write, []

    def counting_write(*args, **kwargs):
        if os.getpid() == parent:
            threads.append(threading.active_count())
        write(*args, **kwargs)

    monkeypatch.setattr(_numtext, "write", counting_write)
    cli._publish([cli._dense_csv(tmp_path / "a.csv", "a,b,c,d,e",
                                 np.arange(40.0).reshape(8, 5))])   # two pieces
    no_children_left()
    assert threads == [1]


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
def test_forked_publish_keeps_no_reference_to_its_outputs(tmp_path, monkeypatch, fails):
    forked(monkeypatch, 2)
    write = _numtext.write

    def failing_write(*args, **kwargs):
        if fails:
            raise OSError(errno.ENOSPC, "No space left on device")
        write(*args, **kwargs)

    monkeypatch.setattr(_numtext, "write", failing_write)
    array = np.arange(40.0).reshape(8, 5)
    array_ref = weakref.ref(array)
    outputs = [cli._dense_csv(tmp_path / "a.csv", "a,b,c,d,e", array)]   # two pieces
    del array
    try:
        cli._publish(outputs)
    except cli.UsageError:
        assert fails
    else:
        assert not fails
    no_children_left()
    assert [p.name for p in tmp_path.iterdir()] == ([] if fails else ["a.csv"])
    del outputs
    assert array_ref() is None


@pytest.mark.parametrize("command,target,extra,cpus", [
    ("factorize", "factor.csv", {}, 2),
    ("sample", "samples.csv", {"sample": {"n_draws": 40}}, 3),
    ("factorize", "factor.csv", {}, 1),   # one process: the failure is this process's own
])
def test_failed_child_piece_exits_2_and_leaves_nothing(tmp_path, capsys, monkeypatch, command,
                                                       target, extra, cpus):
    forked(monkeypatch, cpus)

    def failing_write(*args, **kwargs):   # wherever the piece is formatted
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(_numtext, "write", failing_write)
    out = tmp_path / "out"
    assert main([command, "--config", bm_config(tmp_path, n=8, extra=extra),
                 "--out", str(out)]) == 2
    no_children_left()
    assert capsys.readouterr().err == f"error: cannot write {out / target}: No space left on device\n"
    assert list(out.iterdir()) == []   # no output renamed, no temp or part file left


def _one_process_bytes(tmp_path, command, extra):
    """The output files of ``command`` on 8 nodes, formatted in one process."""
    out = tmp_path / "one"
    assert main([command, "--config", bm_config(tmp_path, n=8, extra=extra),
                 "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command,extra,cpus", [
    ("factorize", {}, 2),
    ("sample", {"sample": {"n_draws": 40}}, 3),
])
def test_piece_that_fails_in_children_only_writes_the_bytes_of_one_process(
        tmp_path, capsys, monkeypatch, command, extra, cpus):
    expected = _one_process_bytes(tmp_path, command, extra)
    forked(monkeypatch, cpus)
    parent, write = os.getpid(), _numtext.write

    def failing_write(*args, **kwargs):
        if os.getpid() != parent:
            raise OSError(errno.ENOSPC, "No space left on device")
        write(*args, **kwargs)

    monkeypatch.setattr(_numtext, "write", failing_write)
    out = tmp_path / "out"
    assert main([command, "--config", bm_config(tmp_path, n=8, extra=extra),
                 "--out", str(out)]) == 0
    no_children_left()
    assert capsys.readouterr().err == ""
    # the outputs only: no temp or part file left
    assert {p.name: p.read_bytes() for p in sorted(out.iterdir())} == expected


def test_child_piece_that_ends_without_a_report_is_formatted_here(tmp_path, capsys, monkeypatch):
    expected = _one_process_bytes(tmp_path, "factorize", {})
    forked(monkeypatch, 2)
    parent, write = os.getpid(), _numtext.write

    def dying_write(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)   # after creating its part file
        write(*args, **kwargs)

    monkeypatch.setattr(_numtext, "write", dying_write)
    out = tmp_path / "out"
    assert main(["factorize", "--config", bm_config(tmp_path, n=8), "--out", str(out)]) == 0
    no_children_left()
    assert capsys.readouterr().err == ""
    assert {p.name: p.read_bytes() for p in sorted(out.iterdir())} == expected


def test_first_failed_piece_in_output_order_is_reported(tmp_path, capsys, monkeypatch):
    forked(monkeypatch, 3)   # samples.csv rows 0-12 here, 13-26 and 27-39 (+ sidecar) forked
    write_rows = cli._write_rows

    def failing(path, file, write, r0, r1):   # rows 13-26 and 27-39, in any process
        if r0 >= 13:
            raise cli.UsageError(f"cannot write {path}: rows from {r0}")
        write_rows(path, file, write, r0, r1)

    monkeypatch.setattr(cli, "_write_rows", failing)
    out = tmp_path / "out"
    assert main(["sample", "--config", bm_config(tmp_path, n=8, extra={"sample": {"n_draws": 40}}),
                 "--out", str(out)]) == 2
    no_children_left()
    assert capsys.readouterr().err == f"error: cannot write {out / 'samples.csv'}: rows from 13\n"
    assert list(out.iterdir()) == []


def test_interrupt_in_this_process_waits_for_every_child(tmp_path, monkeypatch):
    forked(monkeypatch, 2)
    parent, dump = os.getpid(), json.dump

    def interrupted(*args, **kwargs):   # decomposition.json is in this process's piece
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return dump(*args, **kwargs)

    monkeypatch.setattr(json, "dump", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(["factorize", "--config", bm_config(tmp_path, n=8), "--out", str(out)])
    no_children_left()
    assert list(out.iterdir()) == []


def test_no_affinity_mask_formats_in_this_process(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(cli, "_PIECE_VALUES", 5)

    def fork():
        raise AssertionError("forked a formatting process")

    monkeypatch.setattr(os, "fork", fork)
    assert cli._cpu_count() == 1
    assert main(["factorize", "--config", bm_config(tmp_path, n=8),
                 "--out", str(tmp_path / "out")]) == 0


@settings(derandomize=True, database=None, deadline=None)
@given(outputs=st.lists(st.tuples(st.integers(1, 30), st.integers(0, 9)), min_size=1, max_size=5),
       count=st.integers(1, 6))
def test_pieces_cover_every_row_once_in_order(outputs, count):
    outputs = [cli._Output(None, rows, width, None) for rows, width in outputs]
    pieces = cli._pieces(outputs, count)
    assert 1 <= len(pieces) <= count
    runs = [run for piece in pieces for run in piece]
    for i, o in enumerate(outputs):
        bounds = [(r0, r1) for j, r0, r1 in runs if j == i]
        assert bounds[0][0] == 0 and bounds[-1][1] == o.rows
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    assert [j for j, _, _ in runs] == sorted(j for j, _, _ in runs)
