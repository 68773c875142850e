"""Smoke-size self-test of the benchmark: tiny n, one round per workload.

    python3 -m pytest bench/test_bench.py -q

Checks that every metric is emitted with its unit, that the exact counts
repeat for a seed, that a second seed runs clean, that a gate trips on a
perturbed factor, and that the traced run records the program's own calls
and unwraps them afterwards.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

WORKLOADS = ("rough_fullrank", "smooth_lowrank")

#: per-operation metrics, per workload where the operation runs
NAMED = {
    "rough_fullrank": {"build_field_s", "draws_per_s", "factorize_cli_s", "verify_cli_s"},
    "smooth_lowrank": {"build_field_s", "draws_per_s", "truncated_draws_per_s",
                       "factorize_cli_s", "sample_cli_s"},
}
CLI_COMMANDS = {
    "rough_fullrank": ("factorize", "verify"),
    "smooth_lowrank": ("factorize", "sample"),
}
CHAOS_LAYER = ("chaos.mul_s", "chaos.expectation_s", "chaos.mul_term_pairs",
               "integrals.skorokhod_integral_s", "integrals.duality_check_s")
COUNTS = ("spectral.rank_ratio", "field.noise_variates", "field.noise_used_ratio",
          "chaos.mul_term_pairs")


def smoke(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One smoke run through the command line: (stdout JSON, results file)."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--profile", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    path = next(line.split(": ", 1)[1] for line in lines if line.startswith("results: "))
    return json.loads(lines[-1]), json.loads((ROOT / path).read_text())


def in_process(workload: str, seed: int, trace: bool, **kwargs) -> dict:
    return run.run_benchmark(workload, seed, 0, trace, "smoke", setup_children=0, **kwargs)


def test_benchmark_json_matches_the_emitted_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert tuple(run.import_workloads().WORKLOADS) == run.WORKLOADS == WORKLOADS
    assert {m["name"]: m for m in spec["end_to_end"]}["setup_s"]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    line, results = smoke(workload, 1, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == dict(wanted)
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    assert NAMED[workload] <= set(results["named"])
    for entry in results["named"].values():
        assert entry["seconds"]["n"] >= 1
    prov = results["provenance"]
    for key in ("wnfield_version", "git_commit", "python", "numpy", "scipy", "blas",
                "blas_threads", "nproc", "seed", "params"):
        assert key in prov
    if trace:
        layer = results["per_layer"]
        for cmd in CLI_COMMANDS[workload]:
            assert f"cli.{cmd}.overhead_s" in layer
            assert layer[f"cli.{cmd}.bytes_written"] > 0
        if workload == "rough_fullrank":      # CLI verify's duality battery
            assert all(layer[name] > 0 for name in CHAOS_LAYER)
        assert results["tracing"]["spans"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_for_a_seed(workload):
    first = in_process(workload, 7, True)["per_layer"]
    second = in_process(workload, 7, True)["per_layer"]
    names = COUNTS + tuple(f"cli.{cmd}.bytes_written" for cmd in CLI_COMMANDS[workload])
    assert {n: first[n] for n in names} == {n: second[n] for n in names}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_holdout_seed_runs_clean(workload):
    results = in_process(workload, 90210, False)
    assert results["failures"] == []


def test_perturbed_factor_file_trips_the_verify_gate():
    exact = in_process("rough_fullrank", 3, False, perturb_factor=0.0)
    assert exact["failures"] == []
    perturbed = in_process("rough_fullrank", 3, False, perturb_factor=1e-3)
    assert perturbed["failed"] == 1
    assert "cli.verify" in perturbed["failures"][0]
    assert "factorization_identity[symmetric_sqrt]" in perturbed["failures"][0]
    assert run.result_line(perturbed)["correct"] is False


def test_instrumentation_records_the_programs_calls_and_unwraps():
    workloads = run.import_workloads()
    import tracing
    from wnfield import field, kernels, spaces

    originals = (field.build_field, field.sample, field.noise_matrix, field.assemble,
                 kernels.assemble)
    tracer = tracing.Tracer("test")
    instr = workloads.instrumentation(tracer)
    space = spaces.interval_grid(16)
    kernel = kernels.builtin_kernel("fbm", {"hurst": 0.7})
    with instr.timed("bench.sample", op="sample", round=0):
        fld = field.build_field(kernel, space)
        field.sample(fld, 10, 3, 1)
    assert (field.build_field, field.sample, field.noise_matrix, field.assemble,
            kernels.assemble) == originals
    field.sample(fld, 10, None, 1)          # unwrapped: no span
    names = [s.name for s in tracer.spans]
    assert names == ["bench.sample", "field.build_field", "kernels.assemble",
                     "spectral.decompose", "spectral.factorize.symmetric_sqrt",
                     "field.sample", "field.noise_matrix"]
    parents = {s.name: tracer.spans[s.parent].name for s in tracer.spans if s.parent is not None}
    assert parents["kernels.assemble"] == "field.build_field"
    assert parents["field.noise_matrix"] == "field.sample"
    (inst,) = tracing.instances(tracer.spans)
    assert inst.spans == 6
    assert inst.counts["field.noise_variates"] == 10 * 16   # stride = rank 16
    assert inst.counts["field.noise_used"] == 10 * 3
    assert inst.counts["spectral.rank"] == 16


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
