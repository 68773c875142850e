"""The benchmark's workloads, driving wnfield the way its users do.

Every workload is a closed loop with one client in one process: round ``i``
runs each operation once, in order, through ``Runner.op``, which times the
call and checks the result outside the timed region. In traced rounds the
program's public functions are wrapped while the call runs (``TARGETS``),
so the spans are the calls the program itself makes. Inputs come from the
seed only. Each round draws a fresh kernel parameter for every call that
consumes a covariance (``build_field`` and each CLI config), so no two
timed calls share a covariance input and a cache keyed on identical inputs
cannot show a gain users would not see.

Why these workloads:

``rough_fullrank``
    fBm at full numerical rank: the dense eigensolve, the O(n^3) gauges,
    noise generation and the text output of ``factorize`` all carry load;
    chaos does almost nothing.
``smooth_lowrank``
    Squared exponential at rank ~29 of 2048: nearly all of a full ``eigh``
    is thrown away and noise is negligible. A rank-adaptive solve must
    gain here; noise or series changes must not move it.

The chaos and integrals layers run inside CLI ``verify`` on
``rough_fullrank`` (its duality battery and isometry checks). A workload
that loads them alone is not kept: its pure-Python timings swing too much
from run to run on a shared host to meet the benchmark's bounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import wnfield
from wnfield import chaos, cli, field, integrals, kernels, spaces, spectral

from tracing import Instrumentation, Span, Target, Tracer

#: acceptance tolerances, used unchanged
FACTORIZATION_TOL = 1e-8   # times lambda_1
BAND_SE = 5.0
DUALITY_TOL = 1e-10
ISOMETRY_TOL = 1e-12

#: rows of a sample the same-seed gate draws again
SAME_SEED_ROWS = 256


class GateFailure(Exception):
    """An operation returned a result that fails its correctness gate."""


class StopRun(Exception):
    """The measurement window closed before the next operation."""


class RoundAborted(Exception):
    """An operation raised, so the rest of its round has no input."""


@dataclass(frozen=True)
class Sizes:
    rough_n: int = 1024
    smooth_n: int = 2048
    draws: int = 10_000
    cli_sample_draws: int = 1000
    rough_verify: dict | None = None          # None: the CLI's default battery


FULL = Sizes()
SMOKE = Sizes(rough_n=24, smooth_n=48, draws=2000, cli_sample_draws=400,
              rough_verify={"n_draws": 2000, "duality_pairs": 4})
PROFILES = {"full": FULL, "smoke": SMOKE}


# -- the loop ---------------------------------------------------------------


@dataclass
class Failure:
    op: str
    round: int
    message: str


class Runner:
    """Runs operations, records their times, gate failures and spans."""

    def __init__(self, work_dir: Path, instrumentation: Instrumentation | None = None):
        self.work_dir = work_dir
        self.instrumentation = instrumentation
        self.active: Instrumentation | None = None     # set in traced rounds
        self.root: Span | None = None                  # last traced instance
        self.round = 0
        self.deadline = float("inf")
        self.times: dict[str, list[float]] = {}
        self.traced_times: dict[str, list[float]] = {}
        self.failures: list[Failure] = []
        self.attempted = 0
        self.rounds = 0
        self.enforce_deadline = False

    def start_round(self, index: int, traced: bool, enforce_deadline: bool):
        self.round = index
        self.active = self.instrumentation if traced else None
        self.root = None
        self.enforce_deadline = enforce_deadline

    def end_round(self):
        shutil.rmtree(self.work_dir / f"r{self.round}", ignore_errors=True)

    def op(self, name: str, call, check=None):
        """Time ``call()``, traced in traced rounds, then gate its result.

        A gate failure is recorded and the round goes on with the result;
        an exception from the call is recorded and ends the round, since
        later operations depend on the result.
        """
        if self.enforce_deadline and time.perf_counter() + self.expected(name) >= self.deadline:
            raise StopRun
        self.attempted += 1
        self.rounds = self.round + 1
        timed = (self.active.timed(f"bench.{name}", op=name, round=self.round)
                 if self.active else contextlib.nullcontext())
        try:
            with timed as root:
                t0 = time.perf_counter()
                result = call()
                elapsed = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            self._fail(name, exc)
            raise RoundAborted from exc
        self.root = root
        passed = True
        if check is not None:
            try:
                check(result)
            except Exception as exc:  # noqa: BLE001 - gate errors count as failures
                self._fail(name, exc)
                passed = False
        if passed:
            (self.traced_times if self.active else self.times).setdefault(name, []).append(elapsed)
        return result

    def count(self, name: str, value: float):
        """Attach a count to the last traced operation instance."""
        if self.root is not None:
            self.root.counts = {**(self.root.counts or {}), name: value}

    def expected(self, name: str) -> float:
        """Median time of the operation so far: an operation that would not
        finish inside the window is not started."""
        done = self.times.get(name, []) + self.traced_times.get(name, [])
        return sorted(done)[len(done) // 2] if done else 0.0

    def _fail(self, name: str, exc: Exception):
        self.failures.append(Failure(name, self.round, f"{type(exc).__name__}: {exc}"))

    def cli_op(self, cmd: str, config: dict, check):
        """``wnfield <cmd>`` on a fresh config file and output directory,
        through ``wnfield.cli.main`` in process with its stdout captured.
        ``check(exit_code, out_dir)`` gates it."""
        out = self.work_dir / f"r{self.round}" / cmd
        out.mkdir(parents=True, exist_ok=True)
        cfg = out.parent / f"{cmd}.json"
        cfg.write_text(json.dumps(config))

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main([cmd, "--config", str(cfg), "--out", str(out)])

        self.op(f"cli.{cmd}", call, lambda rc: check(rc, out))
        self.count(f"cli.{cmd}.bytes_written", sum(
            p.stat().st_size for p in out.rglob("*") if p.is_file()))


# -- gates ------------------------------------------------------------------


def require(condition: bool, message: str):
    if not condition:
        raise GateFailure(message)


def check_factorization(h: spectral.WhiteNoiseKernel, C: np.ndarray, space, lam1: float):
    """max |F F^T - C| <= 1e-8 * lambda_1."""
    R = spectral.reproduce_covariance(h, space)
    R -= C
    err = float(np.max(np.abs(R, out=R)))
    require(err <= FACTORIZATION_TOL * lam1,
            f"factorization identity [{h.gauge}]: {err:.3e} > {FACTORIZATION_TOL:g}*lambda_1")


def check_band(emp_rows, C: np.ndarray, n_draws: int, rows: int = 64):
    """Empirical covariance within BAND_SE standard errors of C, entrywise.

    ``emp_rows(i, j)`` gives rows i:j of the empirical covariance. SE_ij =
    sqrt((C_ii C_jj + C_ij^2) / N) for centered Gaussian data. The check
    goes a block of rows at a time so the gate allocates little.
    """
    d = np.diag(C)
    z = 0.0
    for i in range(0, len(C), rows):
        block = C[i:i + rows]
        se = np.sqrt((np.outer(d[i:i + rows], d) + block**2) / n_draws)
        z = max(z, float(np.max(np.abs(emp_rows(i, i + rows) - block) / np.maximum(se, 1e-300))))
    require(z <= BAND_SE, f"empirical covariance {z:.2f} SE from C (limit {BAND_SE:g})")


def check_cli_ok(rc: int, cmd: str):
    require(rc == 0, f"{cmd} exited {rc}")


def check_same_draws(batch, fld, m: int | None, seed: int):
    """Noise rows are addressable, so the first SAME_SEED_ROWS draws of a
    second same-seed call must equal the batch's first rows."""
    rows = min(SAME_SEED_ROWS, len(batch.draws))
    again = field.sample(fld, rows, m, seed).draws
    require(np.array_equal(batch.draws[:rows], again), f"seed {seed} gave different draws")


# -- instrumentation: the program's public calls, wrapped in traced rounds --


def factorize_span(dec, gauge="symmetric_sqrt", seed=0) -> str:
    return f"spectral.factorize.{gauge}"


def cli_span(argv=None) -> str:
    return f"cli.{argv[0]}"


def count_decomposition(counts, dec, *args, **kwargs):
    counts["spectral.rank"] = dec.rank
    counts["spectral.size"] = len(dec.eigenfunctions)


def count_noise(counts, xi, n_draws, m, seed, row_start=0, stride=None):
    """Uniforms generated and used. In noise_matrix's stream layout a row
    owns ceil(stride/4) Philox blocks of 4 uniforms and uses m of them."""
    stride = m if stride is None else stride
    counts["field.noise_variates"] = n_draws * 4 * max(1, -(-stride // 4))
    counts["field.noise_used"] = xi.size


def count_term_pairs(counts, product, a, b):
    counts["chaos.mul_term_pairs"] = len(a.terms) * (
        len(b.terms) if isinstance(b, chaos.ChaosPolynomial) else 1)


def public(module, *names) -> list[Target]:
    layer = module.__name__.rsplit(".", 1)[-1]
    return [Target(module, name, f"{layer}.{name}") for name in names]


TARGETS = [
    *public(kernels, "assemble", "trace_of_operator"),
    Target(spectral, "decompose", "spectral.decompose", count_decomposition),
    Target(spectral, "factorize", factorize_span),
    *public(spectral, "reproduce_covariance", "to_rkhs", "rkhs_inner", "kernel_section"),
    Target(spectral.MercerDecomposition, "whitened_vectors", "spectral.whitened_vectors"),
    *public(field, "build_field", "sample", "empirical_covariance",
            "covariance_standard_error", "truncation_error"),
    Target(field, "noise_matrix", "field.noise_matrix", count_noise),
    Target(chaos.ChaosPolynomial, "__mul__", "chaos.mul", count_term_pairs),
    *public(chaos, "expectation", "malliavin_derivative", "inner_hmu", "random_polynomial",
            "parse_polynomial", "format_polynomial"),
    *public(integrals, "skorokhod_integral", "duality_check", "deterministic_integrand"),
    Target(cli, "main", cli_span),
]

#: every module whose bindings of a target are replaced too
MODULES = [wnfield, kernels, spaces, spectral, field, chaos, integrals, cli]


def instrumentation(tracer: Tracer) -> Instrumentation:
    return Instrumentation(tracer, TARGETS, MODULES)


# -- workloads --------------------------------------------------------------


def grid_config(n: int, kernel: str, params: dict, seed: int, **extra) -> dict:
    return {"space": {"type": "interval_grid", "n": n},
            "kernel": {"name": kernel, "params": params}, "seed": seed, **extra}


def kernel_of(config: dict):
    return kernels.builtin_kernel(config["kernel"]["name"], config["kernel"]["params"])


class Workload:
    """build_field, gauges, sample(s), empirical covariance and two CLI calls."""

    name = ""
    kernel = ""
    gauges: tuple[str, ...] = ()
    truncated = False           # also sample at m = rank // 2
    n = 0

    def __init__(self, seed: int, sizes: Sizes, perturb_factor: float | None = None):
        self.seed = seed
        self.sizes = sizes
        self.perturb_factor = perturb_factor

    def rng(self, index: int, site: int) -> np.random.Generator:
        """Generator for call site ``site`` of round ``index``."""
        return np.random.default_rng([self.seed, index, site])

    def jitter(self, index: int, site: int) -> float:
        """Uniform in [-1, 1): the per-call kernel parameter offset."""
        return float(self.rng(index, site).uniform(-1.0, 1.0))

    def params(self) -> dict:
        raise NotImplementedError

    def kernel_params(self, index: int, site: int) -> dict:
        raise NotImplementedError

    def round(self, index: int, run: Runner):
        space = spaces.interval_grid(self.n)
        kernel = kernels.builtin_kernel(self.kernel, self.kernel_params(index, 0))
        N = self.sizes.draws
        state = {}

        def check_build(fld):
            state["C"] = kernels.assemble(kernel, space)
            check_factorization(fld.factor, state["C"], space, fld.dec.eigenvalues[0])

        fld = run.op("build_field", lambda: field.build_field(kernel, space), check_build)
        lam1 = fld.dec.eigenvalues[0]
        gauge_seed = int(self.rng(index, 1).integers(2**31))
        for gauge in self.gauges:
            run.op(f"factorize.{gauge}",
                   lambda g=gauge: spectral.factorize(fld.dec, g, gauge_seed),
                   lambda h: check_factorization(h, state["C"], space, lam1))

        # the batch is dropped before the truncated sample, so no two
        # full batches are ever alive at once
        seeds = self.rng(index, 2).integers(2**31, size=2)
        batch = self.sample_op(run, "sample", fld, N, None, int(seeds[0]))
        run.op("empirical_covariance", lambda: field.empirical_covariance(batch),
               lambda emp: check_band(lambda i, j: emp[i:j], state["C"], N))
        del batch
        if self.truncated:
            self.sample_op(run, "sample_truncated", fld, N, fld.dec.rank // 2, int(seeds[1]))
        self.cli_factorize(index, run, space)
        self.second_cli(index, run, space)

    def sample_op(self, run, name, fld, N, m, seed):
        return run.op(name, lambda: field.sample(fld, N, m, seed),
                      lambda b: check_same_draws(b, fld, m, seed))

    def cli_factorize(self, index: int, run: Runner, space):
        config = grid_config(self.n, self.kernel, self.kernel_params(index, 3),
                             int(self.rng(index, 4).integers(2**31)))

        def check(rc, out):
            check_cli_ok(rc, "factorize")
            F = np.loadtxt(out / "factor.csv", delimiter=",", skiprows=1, ndmin=2)
            eigenvalues = json.loads((out / "decomposition.json").read_text())["eigenvalues"]
            require(F.shape == (self.n, len(eigenvalues)),
                    f"factor.csv shape {F.shape} vs rank {len(eigenvalues)}")
            check_factorization(spectral.WhiteNoiseKernel(F, "factor.csv"),
                                kernels.assemble(kernel_of(config), space), space, eigenvalues[0])

        run.cli_op("factorize", config, check)

    def second_cli(self, index: int, run: Runner, space):
        raise NotImplementedError


class RoughFullRank(Workload):
    name = "rough_fullrank"
    kernel = "fbm"
    gauges = ("triangular", "rotated")

    def __init__(self, seed, sizes, perturb_factor=None):
        super().__init__(seed, sizes, perturb_factor)
        self.n = sizes.rough_n

    def kernel_params(self, index, site):
        return {"hurst": 0.7 + 0.005 * self.jitter(index, site)}

    def params(self):
        return {"kernel": "fbm", "hurst": "0.7 +- 0.005 per call", "n": self.n,
                "draws": self.sizes.draws, "gauges": list(self.gauges),
                "cli": ["factorize", "verify"],
                "verify": self.sizes.rough_verify or "CLI defaults"}

    def second_cli(self, index, run, space):
        """CLI verify; the call counts only if the report is all-pass.

        With ``perturb_factor`` set, the canonical factor of this config is
        written with its [0, 0] entry shifted by that amount and passed as
        ``verify.factor_file`` (the self-test's gate trip).
        """
        config = grid_config(self.n, self.kernel, self.kernel_params(index, 5),
                             int(self.rng(index, 6).integers(2**31)))
        if self.sizes.rough_verify:
            config["verify"] = dict(self.sizes.rough_verify)
        if self.perturb_factor is not None:
            dec = spectral.decompose(kernels.assemble(kernel_of(config), space), space)
            F = spectral.factorize(dec).factor.copy()
            F[0, 0] += self.perturb_factor
            path = run.work_dir / f"r{run.round}" / "perturbed_factor.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            np.savetxt(path, F, delimiter=",", fmt="%.17g",
                       header=",".join(f"k{j + 1}" for j in range(dec.rank)), comments="")
            config["verify"] = {**config.get("verify", {}), "factor_file": str(path)}

        def check(rc, out):
            report = json.loads((out / "verification.json").read_text())
            failed = [c["name"] for c in report["checks"] if not c["pass"]]
            require(rc == 0 and report["all_pass"] and not failed,
                    f"verify exited {rc}, failed checks {failed}")

        run.cli_op("verify", config, check)


class SmoothLowRank(Workload):
    name = "smooth_lowrank"
    kernel = "squared_exponential"
    gauges = spectral.GAUGES
    truncated = True

    def __init__(self, seed, sizes, perturb_factor=None):
        super().__init__(seed, sizes, perturb_factor)
        self.n = sizes.smooth_n

    def kernel_params(self, index, site):
        return {"length_scale": 0.1 * (1.0 + 0.01 * self.jitter(index, site))}

    def params(self):
        return {"kernel": "squared_exponential", "length_scale": "0.1 * (1 +- 0.01) per call",
                "n": self.n, "draws": self.sizes.draws, "truncation": "rank // 2",
                "gauges": list(self.gauges), "cli": ["factorize", "sample"],
                "cli_sample_draws": self.sizes.cli_sample_draws}

    def second_cli(self, index, run, space):
        N = self.sizes.cli_sample_draws
        config = grid_config(self.n, self.kernel, self.kernel_params(index, 5),
                             int(self.rng(index, 6).integers(2**31)),
                             sample={"n_draws": N, "format": "dense"})

        def check(rc, out):
            check_cli_ok(rc, "sample")
            X = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
            require(X.shape == (N, self.n), f"samples.csv shape {X.shape}")
            check_band(lambda i, j: X[:, i:j].T @ X / N,
                       kernels.assemble(kernel_of(config), space), N)

        run.cli_op("sample", config, check)


WORKLOADS = {w.name: w for w in (RoughFullRank, SmoothLowRank)}

#: operation name -> the named end-to-end metric it feeds, and its kind
OPS = {
    "build_field": ("build_field_s", "library"),
    "factorize.symmetric_sqrt": (None, "library"),
    "factorize.triangular": (None, "library"),
    "factorize.rotated": (None, "library"),
    "sample": ("draws_per_s", "library"),
    "sample_truncated": ("truncated_draws_per_s", "library"),
    "empirical_covariance": (None, "library"),
    "cli.factorize": ("factorize_cli_s", "cli"),
    "cli.sample": ("sample_cli_s", "cli"),
    "cli.verify": ("verify_cli_s", "cli"),
}


def make(name: str, seed: int, profile: str = "full", perturb_factor: float | None = None):
    return WORKLOADS[name](seed, PROFILES[profile], perturb_factor)
