#!/usr/bin/env python3
"""Benchmark of wnfield, run from outside the way its users drive it.

    python3 bench/run.py --workload rough_fullrank --seed 1 --seconds 55 --trace 0

Runs one workload (see workloads.py) as a closed loop with one client for
``--seconds`` seconds, checks every result, and prints a short summary and,
as the last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A results file with every named
metric, the provenance and any failures goes to bench/results/; a traced
run also writes its spans there.

End-to-end numbers come from untraced runs only. A traced run alternates
traced and untraced rounds; in a traced round the program's public
functions record a span per call while each timed call runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

#: set-ups per run (this process plus fresh child processes); setup_s is
#: their median
SETUP_REPEATS = {"full": 5, "smoke": 2}

#: (name, unit) printed with --trace 0; each is defined on every workload
END_TO_END = [
    ("setup_s", "s"),
    ("library_s", "s"),
    ("cli_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: (name, unit) printed with --trace 1; each is exercised on every workload
#: (the chaos, integrals and reproduce_covariance figures, which only
#: rough_fullrank's CLI verify calls, are in the results file)
PER_LAYER = [
    ("kernels.assemble_s", "s"),
    ("spectral.decompose_s", "s"),
    ("spectral.rank_ratio", "ratio"),
    ("spectral.factorize_s.symmetric_sqrt", "s"),
    ("spectral.factorize_s.triangular", "s"),
    ("spectral.factorize_s.rotated", "s"),
    ("field.noise_matrix_s", "s"),
    ("field.series_matmul_s", "s"),
    ("field.empirical_covariance_s", "s"),
    ("field.noise_variates", "count"),
    ("field.noise_used_ratio", "ratio"),
    ("cli.overhead_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("self.kernels_s", "s"),
    ("self.spectral_s", "s"),
    ("self.field_s", "s"),
    ("self.cli_s", "s"),
    ("self.bench_s", "s"),
    ("trace.overhead_s", "s"),
]

#: span names whose per-round time (children included) is a per-layer metric
SPAN_METRICS = {
    "kernels.assemble": "kernels.assemble_s",
    "spectral.decompose": "spectral.decompose_s",
    "spectral.factorize.symmetric_sqrt": "spectral.factorize_s.symmetric_sqrt",
    "spectral.factorize.triangular": "spectral.factorize_s.triangular",
    "spectral.factorize.rotated": "spectral.factorize_s.rotated",
    "spectral.reproduce_covariance": "spectral.reproduce_covariance_s",
    "field.noise_matrix": "field.noise_matrix_s",
    "field.empirical_covariance": "field.empirical_covariance_s",
    "chaos.mul": "chaos.mul_s",
    "chaos.expectation": "chaos.expectation_s",
    "integrals.skorokhod_integral": "integrals.skorokhod_integral_s",
    "integrals.duality_check": "integrals.duality_check_s",
}

LAYERS = ("kernels", "spectral", "field", "chaos", "integrals", "cli", "bench")

WORKLOADS = ("rough_fullrank", "smooth_lowrank")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=tuple(SETUP_REPEATS), default="full",
                   help="problem sizes: full (the benchmark) or smoke (self-test)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for setup_s)")
    return p.parse_args(argv)


def pin_blas_threads():
    """Pin BLAS/OpenMP threads to the CPUs this process may use.

    Only effective before numpy is first imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)


def import_workloads():
    """Import the package from this checkout's src/, never an installed copy."""
    if not (SRC / "wnfield" / "__init__.py").is_file():
        raise SystemExit(f"error: no wnfield source under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import wnfield
    import workloads

    if Path(wnfield.__file__).resolve().parent != (SRC / "wnfield").resolve():
        raise SystemExit(f"error: imported wnfield from {wnfield.__file__}, not {SRC}")
    return workloads


def set_up(name: str, seed: int, profile: str, work_dir: Path, perturb_factor=None):
    """Import, generate inputs, and warm every operation up once.

    The warm-up runs one round at smoke size: it finishes the lazy set-up
    (imports inside numpy/scipy, BLAS thread start, jsonschema) without
    spending a full-size round. Returns the workload and the warm-up runner.
    """
    workloads = import_workloads()
    wl = workloads.make(name, seed, profile, perturb_factor)
    warm = workloads.Runner(work_dir / "warmup")
    warm.start_round(0, traced=False, enforce_deadline=False)
    try:
        workloads.make(name, seed, "smoke").round(0, warm)
    except workloads.RoundAborted:
        pass
    finally:
        warm.end_round()
    return wl, warm


def child_setups(workload: str, seed: int, profile: str, count: int):
    """Time ``count`` set-ups, each in a fresh interpreter."""
    times, errors = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--profile", profile, "--setup-only"]
    for _ in range(count):
        try:
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            errors.append("set-up child timed out")
            continue
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            errors.append(f"set-up child exited {done.returncode}: {done.stderr.strip()[-400:]}")
            continue
        times.append(json.loads(lines[-1])["setup_s"])
    return times, errors


def measure(wl, workloads, seconds: float, instrumentation, work_dir: Path):
    """Closed loop: rounds until the window closes, at least one untraced
    round and, when tracing, one traced round before it (even rounds are
    traced)."""
    traced = instrumentation is not None
    run = workloads.Runner(work_dir, instrumentation)
    run.deadline = time.perf_counter() + seconds
    min_rounds = 2 if traced else 1
    index = 0
    while index < min_rounds or time.perf_counter() < run.deadline:
        run.start_round(index, traced=traced and index % 2 == 0,
                        enforce_deadline=index >= min_rounds)
        try:
            wl.round(index, run)
        except workloads.StopRun:
            break
        except workloads.RoundAborted:
            pass
        finally:
            run.end_round()
        index += 1
    return run


# -- statistics ---------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, sample count, and the highest of p75..p99 with >= 10 samples
    beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def end_to_end(wl, workloads, run, setup_times: list[float]) -> tuple[dict, dict]:
    """The stdout metrics and the named per-operation metrics."""
    medians = {op: statistics.median(ts) for op, ts in run.times.items()}
    kind = {op: workloads.OPS[op][1] for op in medians}
    metrics = {
        "setup_s": statistics.median(setup_times) if setup_times else math.nan,
        "library_s": sum(t for op, t in medians.items() if kind[op] == "library"),
        "cli_s": sum(t for op, t in medians.items() if kind[op] == "cli"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    named = {}
    items = {"sample": wl.sizes.draws, "sample_truncated": wl.sizes.draws}
    for op, times in run.times.items():
        entry = {"op": op, "seconds": summary(times), "samples_s": times}
        name = workloads.OPS[op][0]
        if name and name.endswith("_per_s"):
            entry["value"] = items[op] / medians[op]
            entry["items_per_call"] = items[op]
        elif name:
            entry["value"] = medians[op]
        named[name or f"{op}_s"] = entry
    return metrics, named


def per_layer(tracing, workloads, tracer) -> tuple[dict, dict]:
    """Per-layer metrics from the traced rounds.

    A time is seconds per round: for each operation, the median over its
    traced instances of the time spent in that span name (or of a self
    time), summed over operations. Counts come from round 0 alone, so they
    repeat exactly for a seed.
    """
    by_op: dict[str, list] = {}
    for inst in tracing.instances(tracer.spans):
        by_op.setdefault(inst.op, []).append(inst)

    def per_round(fn) -> float:
        return sum(statistics.median(fn(i) for i in insts) for insts in by_op.values())

    out = {metric: per_round(lambda i, s=span: i.durations.get(s, 0.0))
           for span, metric in SPAN_METRICS.items()}
    # sample's own time, its noise_matrix call excluded
    out["field.series_matmul_s"] = per_round(lambda i: i.self_time.get("field.sample", 0.0))
    for layer in LAYERS:
        out[f"self.{layer}_s"] = per_round(lambda i, l=layer: i.layer_self_time(l))

    counts: dict[str, float] = {}
    spans_round0 = 0
    for insts in by_op.values():
        for inst in insts:
            if inst.round == 0:
                spans_round0 += inst.spans
                for k, v in inst.counts.items():
                    counts[k] = counts.get(k, 0) + v
    out["spectral.rank_ratio"] = counts.get("spectral.rank", 0) / max(counts.get("spectral.size", 0), 1)
    out["field.noise_variates"] = counts.get("field.noise_variates", 0)
    out["field.noise_used_ratio"] = counts.get("field.noise_used", 0) / max(out["field.noise_variates"], 1)
    out["chaos.mul_term_pairs"] = counts.get("chaos.mul_term_pairs", 0)

    # a command's overhead is its own time: parsing, validation, in-command
    # arithmetic and output, outside the wrapped library calls
    cli_ops = [op for op in by_op if workloads.OPS[op][1] == "cli"]
    for op in cli_ops:
        out[f"{op}.overhead_s"] = statistics.median(i.self_time.get(op, 0.0) for i in by_op[op])
        out[f"{op}.bytes_written"] = counts.get(f"{op}.bytes_written", 0)
    out["cli.overhead_s"] = sum(out[f"{op}.overhead_s"] for op in cli_ops)
    out["cli.bytes_written"] = sum(out[f"{op}.bytes_written"] for op in cli_ops)

    # tracing overhead: the cost of one wrapped call times the wrapped calls
    # made inside the timed calls of a (complete) round
    per_call = tracing.wrapper_cost()
    out["trace.overhead_s"] = per_call * spans_round0
    traced_rounds = {i.round for insts in by_op.values() for i in insts}
    return out, {"traced_rounds": len(traced_rounds), "wrapper_cost_s": per_call,
                 "spans_round0": spans_round0}


# -- provenance -----------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(wl) -> dict:
    import numpy
    import scipy
    import wnfield

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "wnfield_version": wnfield.__version__,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": wl.seed,
        "workload": wl.name,
        "params": wl.params(),
    }


# -- entry points -----------------------------------------------------------------


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, profile: str = "full",
                  perturb_factor: float | None = None, setup_children: int | None = None,
                  t0: float | None = None) -> dict:
    """Set up, measure and evaluate one run; returns the full results.

    ``t0`` is when the process started, before anything was imported.
    """
    t0 = time.perf_counter() if t0 is None else t0
    work_dir = BENCH / ".work" / str(os.getpid())
    try:
        wl, warm = set_up(workload, seed, profile, work_dir, perturb_factor)
        setup_times = [time.perf_counter() - t0]
        import tracing
        import workloads

        failures = [f"warm-up {f.op}: {f.message}" for f in warm.failures]
        attempted = warm.attempted
        if setup_children is None:
            setup_children = SETUP_REPEATS[profile] - 1
        if setup_children:
            child_times, errors = child_setups(workload, seed, profile, setup_children)
            setup_times += child_times
            failures += errors
            attempted += setup_children
        tracer = tracing.Tracer(f"{workload}-{seed}-{os.getpid()}") if trace else None
        instrumentation = workloads.instrumentation(tracer) if trace else None
        run = measure(wl, workloads, seconds, instrumentation, work_dir / "run")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures += [f"round {f.round} {f.op}: {f.message}" for f in run.failures]
    attempted += run.attempted
    metrics, named = end_to_end(wl, workloads, run, setup_times)
    results = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "profile": profile,
        "rounds": run.rounds,
        "attempted": attempted,
        "failed": len(failures),
        "ops_failed_ratio": len(failures) / max(attempted, 1),
        "failures": failures,
        "setup_samples_s": setup_times,
        "end_to_end": metrics,
        "named": named,
        "provenance": provenance(wl),
    }
    if trace:
        layer, info = per_layer(tracing, workloads, tracer)
        results["per_layer"] = layer
        results["tracing"] = {"run_id": tracer.run_id, **info, "spans": len(tracer.spans)}
        results["_spans"] = [s.as_json() for s in tracer.spans]
    return results


def result_line(results: dict) -> dict:
    """The last stdout line: the BENCHMARK.json metrics, each with its unit."""
    source = results["per_layer"] if "per_layer" in results else results["end_to_end"]
    wanted = PER_LAYER if "per_layer" in results else END_TO_END
    metrics = {name: {"value": source.get(name, math.nan), "unit": unit} for name, unit in wanted}
    finite = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                 for m in metrics.values())
    return {
        "correct": results["failed"] == 0 and finite,
        "attempted": results["attempted"],
        "failed": results["failed"],
        "metrics": metrics,
    }


def write_results(results: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = (f"{results['workload']}-seed{results['seed']}-trace{int('per_layer' in results)}"
            f"-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    spans = results.pop("_spans", None)
    if spans is not None:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans))
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def print_summary(results: dict, path: Path):
    print(f"{results['workload']} seed {results['seed']}: {results['rounds']} rounds, "
          f"{results['attempted']} ops, {results['failed']} failed")
    for name, entry in results["named"].items():
        s = entry["seconds"]
        value = f"  value {entry['value']:.6g}" if "value" in entry else ""
        print(f"  {name:26s} median {s['median']:.4f} s over {s['n']}{value}")
    for failure in results["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"results: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    pin_blas_threads()
    if args.setup_only:
        work_dir = BENCH / ".work" / str(os.getpid())
        try:
            _, warm = set_up(args.workload, args.seed, args.profile, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        elapsed = time.perf_counter() - t0
        for f in warm.failures:
            print(f"FAILED warm-up {f.op}: {f.message}", file=sys.stderr)
        print(json.dumps({"setup_s": elapsed}))
        return 1 if warm.failures else 0
    results = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.profile, t0=t0)
    path = write_results(results)
    print_summary(results, path)
    print(json.dumps(result_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
