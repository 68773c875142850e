"""Command-line front end: config-driven factorization, sampling, and checks.

Subcommands
-----------
factorize   eigendecompose and factor a kernel; writes decomposition JSON,
            the factor matrix CSV and the eigenfunctions CSV
sample      draw field realizations; writes a samples CSV plus a JSON
            sidecar recording seed, truncation, and gauge
verify      run the invariant suite and write a pass/fail report; exits
            nonzero when any check fails
integrate   integrate a deterministic or random integrand against the field
tangent     Gram matrix of rescaled increments at a base node

Exit codes: 0 success, 1 data or verification failure, 2 usage/config
error. The noise is reproducible bit for bit from the seeds recorded in the
sidecars; outputs computed from it by BLAS are so only at a fixed BLAS
thread count (elsewhere they agree to round-off). Files are written
atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import reprlib
import secrets
import shutil
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from . import _numtext, chaos, field, integrals, kernels, spaces, spectral, verify
from .errors import (
    DimensionMismatchError,
    InsufficientSamplesError,
    InvalidParameterError,
    NotInRkhsError,
    NumericError,
    UnknownKernelError,
    overflow_raises,
)

__all__ = ["main", "CONFIG_SCHEMA"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

#: published schema for run configs; validated before any work happens
CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "wnfield run configuration",
    "type": "object",
    "required": ["space", "kernel"],
    "additionalProperties": False,
    "properties": {
        "space": {
            "oneOf": [
                {
                    "type": "object",
                    "required": ["type", "n"],
                    "additionalProperties": False,
                    "properties": {
                        "type": {"const": "interval_grid"},
                        "n": {"type": "integer", "minimum": 1},
                    },
                },
                {
                    "type": "object",
                    "required": ["type", "points", "weights"],
                    "additionalProperties": False,
                    "properties": {
                        "type": {"const": "custom"},
                        "points": {"type": "array", "minItems": 1,   # scalars or vectors
                                   "items": {"type": ["number", "array"], "items": {"type": "number"}}},
                        "weights": {
                            "type": "array",
                            "minItems": 1,
                            "items": {"type": "number"},
                        },
                    },
                },
            ]
        },
        "kernel": {
            "type": "object",
            "required": ["name"],
            "additionalProperties": False,
            "properties": {
                "name": {"type": "string"},
                "params": {
                    "type": "object",
                    "additionalProperties": {"type": "number"},
                },
                "file": {"type": "string"},
            },
        },
        "gauge": {"enum": list(spectral.GAUGES)},
        "gauge_seed": {"type": "integer", "minimum": 0, "maximum": 2**128 - 1},
        "drop_tol": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**128 - 1},
        "truncate": {"type": ["integer", "null"], "minimum": 0},
        "sample": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_draws": {"type": "integer", "minimum": 1, "maximum": 2**63 - 1},   # numpy's row limit
                "format": {"enum": ["dense", "long"]},
            },
        },
        "verify": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "duality_pairs": {"type": "integer", "minimum": 1},
                "n_draws": {"type": "integer", "minimum": 2, "maximum": 2**63 - 1},
                "reproducing_functions": {"type": "integer", "minimum": 1},
                "factor_file": {"type": "string"},
                "tolerances": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {name: {"type": "number", "exclusiveMinimum": 0}
                                   for name in verify.DEFAULT_TOLERANCES},
                },
            },
        },
        "integrate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "integrand": {"type": "object"},
                "n_draws": {"type": "integer", "minimum": 2, "maximum": 2**63 - 1},
            },
        },
        "tangent": {
            "type": "object",
            "required": ["t_index", "offsets", "r"],
            "additionalProperties": False,
            "properties": {
                "t_index": {"type": "integer", "minimum": 0},
                "offsets": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "integer"},
                },
                "r": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}

INTEGRAND_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "components": {"type": "array", "items": {"type": "string"}},
        "field_values": {"type": "array", "items": {"type": "number"}},
    },
}


#: values of the optional top-level keys a config leaves out
CONFIG_DEFAULTS = {"gauge": "symmetric_sqrt", "gauge_seed": 0, "drop_tol": 1e-12, "seed": 0}


class UsageError(Exception):
    """Config or invocation problem: exit code 2."""


class DataError(Exception):
    """Numeric or verification failure: exit code 1."""


# -- config plumbing ------------------------------------------------------


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _read_json(path, what: str):
    """A JSON document; NaN, Infinity and numbers that overflow to inf are rejected."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:   # JSONDecodeError is one
        raise UsageError(f"{what} {path} is not valid JSON: {exc}") from exc


#: draft 2020-12 counts 3.0 as an integer and 10^400 as a number; counts,
#: sizes and seeds must be ints, and no number may overflow a float, as an
#: int does from 2^1024 - 2^970 up (a bool is neither)
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many({
        "number": lambda _, value: type(value) in (int, float) and abs(value) < 2**1024 - 2**970,
        "integer": lambda _, value: type(value) is int and abs(value) < 2**1024 - 2**970}),
)


@functools.cache
def _validator(what: str):
    """The validator of the ``what`` schema, built once, after its own
    check against the draft 2020-12 metaschema."""
    schema = {"config": CONFIG_SCHEMA, "integrand": INTEGRAND_SCHEMA}[what]
    _Validator.check_schema(schema)
    return _Validator(schema)


def _validate(document, what: str):
    """Raise the error ``jsonschema.validate`` would, as a ``UsageError``,
    with the value clipped by ``reprlib`` (an integer to 40 characters)."""
    error = jsonschema.exceptions.best_match(_validator(what).iter_errors(document))
    if error is not None:
        message = error.message.replace(repr(error.instance), reprlib.repr(error.instance))
        raise UsageError(f"{what} schema violation at {error.json_path}: {message}")


def load_config(path: str, args) -> dict:
    """The config at ``path`` under the command-line overrides in ``args``,
    validated against ``CONFIG_SCHEMA``, with defaults filled in."""
    config = _read_json(path, "config")
    if isinstance(config, dict):   # anything else fails the schema as it is
        _apply_overrides(config, args)
    _validate(config, "config")
    return {**CONFIG_DEFAULTS, **config}


def build_space(config: dict) -> spaces.DiscreteMeasureSpace:
    spec = config["space"]
    try:
        if spec["type"] == "interval_grid":
            return spaces.interval_grid(spec["n"])
        return spaces.DiscreteMeasureSpace(points=spec["points"], weights=spec["weights"])
    except (ValueError, DimensionMismatchError) as exc:
        raise UsageError(f"bad space spec: {exc}") from exc


def build_kernel(config: dict, base_dir: Path) -> kernels.CovarianceKernel:
    spec = config["kernel"]
    name = spec["name"]
    if name == "custom":
        file = spec.get("file")
        if not file:
            raise UsageError("custom kernel requires a 'file' with the matrix CSV")
        path = base_dir / file   # an absolute file replaces base_dir
        try:
            entries = _load_csv(path, path, "kernel matrix")
        except OSError as exc:
            raise UsageError(f"cannot read kernel matrix {path}: {exc}") from exc
        except ValueError as exc:
            raise DataError(f"kernel matrix {path} is not numeric CSV: {exc}") from exc
        try:
            return kernels.matrix_kernel(entries)
        except InvalidParameterError as exc:
            raise DataError(str(exc)) from exc
    return kernels.builtin_kernel(name, spec.get("params"))


def _load_csv(source, path: Path, what: str) -> np.ndarray:
    """The numbers of the CSV ``source`` (``path`` or a file open on it), at least one."""
    with warnings.catch_warnings():   # the error below replaces loadtxt's warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        entries = np.loadtxt(source, delimiter=",", ndmin=2)
    if not entries.size:
        raise DataError(f"{what} {path} holds no numbers")
    return entries


def _decompose(config: dict, base_dir: Path):
    """The config's covariance matrix C and its decomposition."""
    space = build_space(config)   # before the kernel: a bad space is reported first
    C = kernels.assemble(build_kernel(config, base_dir), space)
    return C, spectral.decompose(C, space, drop_tol=config["drop_tol"])


def _field(config: dict, base_dir: Path) -> field.GaussianField:
    """The config's field, from ``field.build_field``."""
    space = build_space(config)   # before the kernel, as in ``_decompose``
    return field.build_field(build_kernel(config, base_dir), space, config["gauge"],
                             config["drop_tol"], config["gauge_seed"])


def _apply_overrides(config: dict, args):
    """Write the command-line overrides into ``config``."""
    if args.seed is not None:
        config["seed"] = args.seed
    if args.truncate is not None:
        config["truncate"] = args.truncate
    if args.gauge is not None:
        gauge = args.gauge
        if gauge.startswith("rotated:"):
            try:
                config["gauge_seed"] = int(gauge.split(":", 1)[1])
            except ValueError:
                raise UsageError(f"bad gauge spec {gauge!r}: seed must be an integer")
            gauge = "rotated"
        if gauge not in spectral.GAUGES:
            raise UsageError(
                f"unknown gauge {gauge!r}; expected one of {spectral.GAUGES} "
                "(rotated may carry a seed as rotated:SEED)"
            )
        config["gauge"] = gauge


# -- output plumbing ------------------------------------------------------


#: numbers a forked piece of output formats at least; a command whose
#: outputs hold fewer is formatted in this process alone
_PIECE_VALUES = 2**16


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where it cannot fork or cannot tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class _Output:
    """One output file of ``rows`` rows of ``width`` numbers each;
    ``write(fh, r0, r1)`` writes the text of rows r0 to r1, so a file made
    of consecutive row ranges holds the text of the whole."""
    path: Path
    rows: int
    width: int
    write: Callable


def _json_output(path: Path, payload) -> _Output:
    """``payload`` as ``json.dump(indent=2, allow_nan=False)`` writes it, numpy
    arrays and scalars as the values they hold; one row of one value, never split."""
    def write(fh, r0, r1):
        try:
            json.dump(payload, fh, indent=2, allow_nan=False, default=lambda obj: obj.tolist())
        except ValueError as exc:
            raise NumericError(f"{path.name} would hold a non-finite number: {exc}") from exc
        fh.write("\n")

    return _Output(path, 1, 1, write)


def _csv_output(path: Path, header: str, rows: int, width: int, blocks, precision=15) -> _Output:
    """A header line, then the rows of each 2-D array of ``blocks(r0, r1)``,
    with ``precision`` significant digits: the bytes of
    ``np.savetxt(fh, block, delimiter=",", fmt=f"%.{precision}g")``, written
    by the exact block formatter ``_numtext.write``. The header goes with
    row 0."""
    def write(fh, r0, r1):
        if r0 == 0:
            fh.write(header + "\n")
        for block in blocks(r0, r1):
            _numtext.write(fh, block, precision)

    return _Output(path, rows, width, write)


def _pieces(outputs: list[_Output], count: int) -> list[list[tuple[int, int, int]]]:
    """The rows of ``outputs``, numbered on through the files in order, cut
    into at most ``count`` runs of about equal numbers of values; a piece
    is its run as (output index, first row, end row) per output it meets."""
    total = sum(o.rows * o.width for o in outputs)
    targets = [total * j / count for j in range(1, count)]
    cuts, first, done = [], 0, 0
    for o in outputs:
        size = o.rows * o.width
        while targets and targets[0] < done + size:
            cuts.append(first + round((targets.pop(0) - done) / o.width))
        first, done = first + o.rows, done + size
    pieces = []
    for start, end in zip([0, *cuts], [*cuts, first]):
        piece, first = [], 0
        for i, o in enumerate(outputs):
            r0, r1 = max(start - first, 0), min(end - first, o.rows)
            if r0 < r1:
                piece.append((i, r0, r1))
            first += o.rows
        if piece:
            pieces.append(piece)
    return pieces


def _write_rows(path: Path, file: Path, write, r0: int, r1: int):
    """Create ``file`` and write rows r0 to r1 of ``path`` to it; an
    ``OSError`` becomes a ``UsageError`` naming ``path``. The file is
    created with mode 0666 less the umask, as ``open`` would create
    ``path``, and a rename keeps that mode."""
    try:
        with open(file, "x") as fh:
            write(fh, r0, r1)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _publish(outputs: list[_Output]):
    """Write every output atomically: each is renamed over its path, in
    order, only after all of them are formatted.

    The rows are cut into pieces (``_pieces``), one per CPU this process
    may use, but none of fewer than ``_PIECE_VALUES`` numbers. Piece 0 is
    formatted here and each other piece in a forked child that reports
    only its exit status; a run of rows from row 0 goes into the output's
    temp file, a later run into a part file appended to it in order. A
    piece not forked, or whose child failed, is formatted again here, so
    the first failed piece raises its error here. Every child is waited
    for on every exit path, and no temp or part file is left.
    """
    count = max(1, min(_cpu_count(), sum(o.rows * o.width for o in outputs) // _PIECE_VALUES))
    pieces = _pieces(outputs, count)
    token = secrets.token_hex(8)

    def file(i, r0):
        path = outputs[i].path
        return path.with_name(f"{path.name}.{token}" + (f".{r0}" if r0 else ""))

    def remove(runs):
        for i, r0, _ in runs:
            if os.path.exists(file(i, r0)):
                os.unlink(file(i, r0))

    def format_piece(piece):
        for i, r0, r1 in piece:
            _write_rows(outputs[i].path, file(i, r0), outputs[i].write, r0, r1)

    runs = [run for piece in pieces for run in piece]
    pids = {}
    try:
        for k, piece in enumerate(pieces[1:], 1):
            try:
                pids[k] = os.fork()
            except OSError:   # formatted here below
                continue
            if not pids[k]:   # the child never returns: no exit handler, no inherited buffer
                try:
                    format_piece(piece)
                    os._exit(0)
                finally:
                    os._exit(1)
        format_piece(pieces[0])
        for k, piece in enumerate(pieces[1:], 1):
            status = os.waitpid(pids[k], 0)[1] if k in pids else 1
            pids.pop(k, None)
            if status:   # not forked, or the child failed or was killed
                remove(piece)
                format_piece(piece)
        try:
            for i, o in enumerate(outputs):   # each part onto its temp file, in order
                for part in [file(j, r0) for j, r0, _ in runs if j == i and r0]:
                    with open(file(i, 0), "ab") as fh, open(part, "rb") as src:
                        shutil.copyfileobj(src, fh)
                    os.unlink(part)
            for i, o in enumerate(outputs):
                os.replace(file(i, 0), o.path)
        except OSError as exc:
            raise UsageError(f"cannot write {o.path}: {exc.strerror}") from exc
    finally:
        for pid in pids.values():   # left only on an error
            os.waitpid(pid, 0)
        remove(runs)   # not renamed or appended: an error


def _write_json(path: Path, payload):
    _publish([_json_output(path, payload)])


def _dense_csv(path: Path, header: str, array: np.ndarray, precision: int = 15) -> _Output:
    rows, cols = array.shape
    return _csv_output(path, header, rows, cols, lambda r0, r1: [array[r0:r1]], precision)


#: values of the long table that ``_long_table`` builds at a time
_LONG_BLOCK_VALUES = 2**14


def _long_table(draws: np.ndarray, start: int = 0):
    """The (draw, point_index, value) table of ``draws``, numbered from draw
    ``start``, one row per value, a block of draws at a time, so the whole
    table is never held."""
    rows, cols = draws.shape
    step = max(1, _LONG_BLOCK_VALUES // cols)
    for r0 in range(0, rows, step):
        block = draws[r0:r0 + step]
        yield np.column_stack([np.repeat(np.arange(start + r0, start + r0 + len(block)), cols),
                               np.tile(np.arange(cols), len(block)), block.ravel()])


# -- subcommands ----------------------------------------------------------


def cmd_factorize(config: dict, out_dir: Path, base_dir: Path) -> int:
    C, dec = _decompose(config, base_dir)
    h = spectral.factorize(dec, config["gauge"], seed=config["gauge_seed"])
    with overflow_raises("operator trace"):
        trace = kernels.trace_of_operator(C, dec.space)
    _publish([
        _json_output(out_dir / "decomposition.json", {
            "eigenvalues": dec.eigenvalues,
            "rank": dec.rank,
            "dropped_mass": dec.dropped_mass,
            "clamped_mass": dec.clamped_mass,
            "tail_bound": dec.tail_bound,
        }),
        _dense_csv(out_dir / "factor.csv", ",".join(f"k{j + 1}" for j in range(dec.rank)),
                   h.factor),
        # 17 significant digits: np.loadtxt gives back the exact doubles
        _dense_csv(out_dir / "eigenfunctions.csv",
                   ",".join(f"phi{j + 1}" for j in range(dec.rank)), dec.eigenfunctions, 17),
    ])
    print(f"rank: {dec.rank}")
    print(f"trace: {trace:.12g}")
    print(f"dropped_mass: {dec.dropped_mass:.12g}")
    print(f"gauge: {h.gauge}")
    print(f"wrote {out_dir / 'decomposition.json'}, {out_dir / 'factor.csv'} "
          f"and {out_dir / 'eigenfunctions.csv'}")
    return EXIT_OK


def cmd_sample(config: dict, out_dir: Path, base_dir: Path) -> int:
    fld = _field(config, base_dir)
    options = config.get("sample", {})
    n_draws = options.get("n_draws", 100)
    seed = config["seed"]
    try:
        batch = field.sample(fld, n_draws, m=config.get("truncate"), seed=seed)
    except InvalidParameterError:   # the truncation: reported as it is
        raise
    except (ValueError, MemoryError) as exc:   # more draws than an array can hold
        raise UsageError(f"sample.n_draws {reprlib.repr(n_draws)}: {exc}") from exc
    fmt = options.get("format", "dense")
    path, draws = out_dir / "samples.csv", batch.draws
    if fmt == "dense":
        samples = _dense_csv(path, ",".join(f"p{i + 1}" for i in range(fld.space.size)), draws)
    else:
        samples = _csv_output(path, "draw,point_index,value", n_draws, 3 * draws.shape[1],
                              lambda r0, r1: _long_table(draws[r0:r1], r0))
    _publish([samples, _json_output(out_dir / "samples_meta.json", {
        "command": "sample",
        "seed": seed,
        "truncation": batch.truncation,
        "gauge": fld.factor.gauge,
        "n_draws": n_draws,
        "space_size": fld.space.size,
        "kernel": config["kernel"],
        "format": fmt,
    })])
    print(f"wrote {n_draws} draws ({fmt}) to {out_dir / 'samples.csv'}")
    print(f"sidecar: {out_dir / 'samples_meta.json'}")
    return EXIT_OK


def _read_factor(file: str, base_dir: Path, dec) -> spectral.WhiteNoiseKernel:
    path = base_dir / file
    try:
        with open(path) as fh:
            if fh.readline().strip():   # the column names k1, k2, ...
                F = _load_csv(fh, path, "factor file")
            else:   # rank 0: no column names, then one empty line per node
                rows = fh.read().splitlines()
                if any(rows):
                    raise DataError(f"factor file {path} has entries but no column names")
                F = np.empty((len(rows), 0))
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read factor file {path}: {exc}") from exc
    if F.shape != (dec.space.size, dec.rank):
        raise DataError(
            f"factor file shape {F.shape} does not match ({dec.space.size}, {dec.rank})"
        )
    bad = np.argwhere(~np.isfinite(F))
    if bad.size:
        i, j = bad[0]
        raise DataError(f"factor file {path} is not finite at entry ({i}, {j})")
    return spectral.WhiteNoiseKernel(factor=F, gauge="file")


def cmd_verify(config: dict, out_dir: Path, base_dir: Path) -> int:
    options = dict(config.get("verify", {}))
    factor_file = options.pop("factor_file", None)
    C, dec = _decompose(config, base_dir)
    checks = verify.battery(
        C, dec, gauge_seed=config["gauge_seed"], seed=config["seed"],
        external_factor=_read_factor(factor_file, base_dir, dec) if factor_file else None,
        **options,
    )
    all_pass = all(c["pass"] for c in checks)
    _write_json(out_dir / "verification.json",
                {"all_pass": all_pass, "seed": config["seed"], "checks": checks})
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"[{status}] {c['name']}: error {c['error']:.3e} (tol {c['tolerance']:.3e})")
    print(f"report: {out_dir / 'verification.json'}")
    return EXIT_OK if all_pass else EXIT_FAILURE


def _load_integrand(config: dict, args) -> dict:
    if getattr(args, "integrand", None):
        # command-line path: resolved against the working directory
        spec = _read_json(Path(args.integrand), "integrand")
    else:
        spec = config.get("integrate", {}).get("integrand")
    if not spec:
        raise UsageError("no integrand given (config integrate.integrand or --integrand FILE)")
    _validate(spec, "integrand")
    if bool(spec.get("components")) == bool(spec.get("field_values")):
        raise UsageError("integrand needs exactly one of 'components' or 'field_values'")
    return spec


def cmd_integrate(config: dict, out_dir: Path, base_dir: Path, args) -> int:
    spec = _load_integrand(config, args)
    dec = _decompose(config, base_dir)[1]
    seed = config["seed"]
    n_draws = config.get("integrate", {}).get("n_draws", 10000)

    if spec.get("field_values"):
        # a wrong length raises DimensionMismatchError, which exits 1
        try:
            element = spectral.to_rkhs(spec["field_values"], dec)
        except NotInRkhsError as exc:
            raise DataError(
                f"integrand is not in the field's reproducing-kernel space: "
                f"relative residual {exc.residual:.3e}"
            ) from exc
        polys = []
    else:
        try:
            polys = [chaos.parse_polynomial(t, num_vars=dec.rank) for t in spec["components"]]
        except DimensionMismatchError as exc:   # a ValueError too
            raise DataError(f"integrand polynomial has more variables than the "
                            f"decomposition rank {dec.rank}: {exc}") from exc
        except ValueError as exc:
            raise UsageError(f"bad integrand polynomial: {exc}") from exc
        if len(polys) > dec.rank:
            raise DataError(
                f"integrand has {len(polys)} components but the decomposition "
                f"rank is {dec.rank}"
            )
        # the constant terms; noise is drawn at the rank's stride: pad with zeros
        coeffs = np.zeros(dec.rank)
        coeffs[:len(polys)] = [p.coefficient(()) for p in polys]
        element = spectral.RkhsElement(coeffs)

    if any(p.degree() > 0 for p in polys):
        delta = integrals.skorokhod_integral(integrals.RandomIntegrand(tuple(polys)))
        mean = chaos.expectation(delta)
        variance = chaos.expectation(delta * delta) - mean * mean   # ** raises on overflow
        result = {
            "kind": "random",
            "polynomial": chaos.format_polynomial(delta),
            "mean": mean,
            "variance": variance,
        }
        print(f"divergence polynomial: {chaos.format_polynomial(delta)}")
        print(f"mean: {mean:.12g}")
        print(f"variance: {variance:.12g}")
    else:
        with overflow_raises("squared RKHS norm of the integrand"):
            variance = element.norm_squared()
        try:
            draws = np.empty(n_draws)
        except (ValueError, MemoryError) as exc:   # more than an array can hold
            raise UsageError(f"integrate.n_draws {reprlib.repr(n_draws)}: {exc}") from exc
        for r0, xi in field.noise_blocks(n_draws, element.coeffs.size, seed):
            draws[r0:r0 + len(xi)] = integrals.wiener_integral(element, xi)
            del xi   # before the next block is drawn
        result = {
            "kind": "deterministic",
            "rkhs_norm_squared": variance,
            "histogram": {
                "n_draws": n_draws,
                "seed": seed,
                "mean": float(draws.mean()),
                "variance": float(draws.var()),
                "quantiles": {
                    str(q): float(np.quantile(draws, q))
                    for q in (0.05, 0.25, 0.5, 0.75, 0.95)
                },
            },
        }
        print(f"deterministic integrand: variance (squared RKHS norm) = {variance:.12g}")
        print(f"sampled {n_draws} draws: mean {draws.mean():.4g}, var {draws.var():.6g}")
    _write_json(out_dir / "integral.json", result)
    print(f"wrote {out_dir / 'integral.json'}")
    return EXIT_OK


def cmd_tangent(config: dict, out_dir: Path, base_dir: Path) -> int:
    options = config.get("tangent")
    if not options:
        raise UsageError("tangent command needs a 'tangent' section in the config")
    fld = _field(config, base_dir)
    try:
        gram = field.tangent_gram(
            fld, options["t_index"], options["offsets"], options["r"]
        )
    except (IndexError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    _write_json(out_dir / "tangent.json", {"t_index": options["t_index"],
                                           "offsets": options["offsets"], "r": options["r"],
                                           "gram": gram})
    print("rescaled-increment Gram matrix:")
    for row in gram:
        print("  " + " ".join(f"{v: .12g}" for v in row))
    print(f"wrote {out_dir / 'tangent.json'}")
    return EXIT_OK


# -- entry point ----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wnfield",
        description="Covariance factorization, field sampling, and stochastic "
                    "integration over discrete measure spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("factorize", "decompose a kernel and write the white-noise factor"),
        ("sample", "draw field realizations"),
        ("verify", "run the invariant verification suite"),
        ("integrate", "integrate a deterministic or random integrand"),
        ("tangent", "rescaled-increment Gram matrix at a node"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--truncate", type=int, default=None,
                       help="override series truncation")
        p.add_argument("--gauge", default=None,
                       help="override gauge (symmetric_sqrt | triangular | rotated[:SEED])")
        if name == "integrate":
            p.add_argument("--integrand", default=None,
                           help="JSON file with the integrand (overrides config)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
        base_dir = Path(args.config).resolve().parent
        if args.command == "integrate":
            return cmd_integrate(config, out_dir, base_dir, args)
        command = {"factorize": cmd_factorize, "sample": cmd_sample,
                   "verify": cmd_verify, "tangent": cmd_tangent}[args.command]
        return command(config, out_dir, base_dir)
    except (UsageError, InvalidParameterError, UnknownKernelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, NumericError, NotInRkhsError, DimensionMismatchError,
            InsufficientSamplesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
