"""Command-line front end: allocate, sweep, stats, export-population.

Exit codes: 0 success, 1 input error (malformed files, invalid parameters,
oversized enumeration requests) or a standard output closed before the run
ends (silently), 2 solver-level failure (a numerical failure).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import reprlib
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._textio import write_json
from .model import ConstraintSet, DegenerateGroupError, ModelParams
from .population import (
    MAX_GROUP_SIZE,
    RNG_STREAM,
    ClickConfig,
    PopulationSpec,
    UptakeConfig,
    allocation_to_csv,
    population_from_csv,
    population_to_csv,
    sample_population,
)
from .scenarios import (
    DEFAULT_JOBS,
    MAX_CELLS,
    MAX_GRID_POINTS,
    MAX_JOBS,
    UPTAKE_VARIANTS,
    ScenarioId,
    ScenarioSpec,
    UptakeVariant,
    aggregate,
    build_grid,
    builtin_scenario,
    json_number,
    run_sweep,
    write_aggregates_csv,
    write_aggregates_json,
    write_records_csv,
)
from .solver import (
    MAX_ENUMERATION_CAP,
    PopulationTooLargeError,
    SolveMode,
    SolveRequest,
    SolverNumericalError,
    solve,
)
from .stats import chi2_independence, conditional_proportions, table_from_csv, wilson_interval

_PARAM_DEFAULTS = dataclasses.asdict(ModelParams.default())

_UPTAKE_CHOICES = tuple(v.value for v in UptakeVariant)
_SCENARIO_CHOICES = tuple(s.value for s in ScenarioId)

# allocate's default tolerance in binary-exact mode, where a binary vector
# rarely meets the fractional default
_EXACT_TOLERANCE = 0.02

class _InputError(Exception):
    """User input problem; exits with code 1."""


def _parse_grid(text: str) -> tuple[float, ...]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise _InputError(f"--grid expects start:stop:step or a comma list, got {text!r}")
        try:
            start, stop, step = (float(x) for x in parts)
        except ValueError:
            raise _InputError(f"--grid values must be numbers, got {text!r}") from None
        try:
            return build_grid(start, stop, step)
        except ValueError as exc:
            raise _InputError(f"--grid: {exc}") from exc
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise _InputError(f"--grid values must be numbers, got {text!r}") from None


def _parse_shapes(text: str, flag: str) -> tuple[float, float]:
    parts = [x.strip() for x in text.split(",")]
    if len(parts) != 2:
        raise _InputError(f"{flag} expects 'shape1,shape2', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise _InputError(f"{flag} shapes must be numbers, got {text!r}") from None


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model parameters")
    for name, default in _PARAM_DEFAULTS.items():
        group.add_argument(
            f"--{name.replace('_', '-')}", type=float, default=default,
            dest=name, help=f"default {default}",
        )


def cmd_allocate(args: argparse.Namespace) -> int:
    if args.cap > MAX_ENUMERATION_CAP:
        raise _InputError(f"--cap {args.cap} exceeds the ceiling {MAX_ENUMERATION_CAP}")
    try:
        pop = population_from_csv(args.population)
    except OSError as exc:
        raise _InputError(f"cannot read population CSV: {exc}") from exc
    except ValueError as exc:
        raise _InputError(f"{args.population}: {exc}") from exc

    mode = SolveMode.BINARY_EXACT if args.mode == "binary-exact" else SolveMode.FRACTIONAL
    tol = args.tol
    if tol is None:
        tol = _EXACT_TOLERANCE if mode is SolveMode.BINARY_EXACT else ConstraintSet.tolerance
    try:
        params = ModelParams(**{k: getattr(args, k) for k in _PARAM_DEFAULTS})
        constraints = ConstraintSet(
            parity_exposure=args.parity,
            equality_opportunity=args.eo,
            equality_herm_opportunity=args.eho,
            tolerance=tol,
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    req = SolveRequest(pop, params, constraints, mode=mode, enumeration_cap=args.cap)
    try:
        result = solve(req)
    except (PopulationTooLargeError, DegenerateGroupError) as exc:
        raise _InputError(str(exc)) from exc
    except SolverNumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    alloc_path = outdir / "allocation.csv"
    allocation_to_csv(pop, result.allocation.values, alloc_path)
    # strict JSON: a gap undefined on this population (a group with zero
    # weight) is written as null
    summary = {
        "objective": result.objective,
        "status": result.status.value,
        "gap_orientation": "group B minus group A",
        "parity_gap": json_number(result.parity_gap),
        "eo_gap": json_number(result.eo_gap),
        "eho_gap": json_number(result.eho_gap),
        "n_fractional": result.n_fractional,
        "mode": mode.value,
        "constraints": list(constraints.active),
        "tolerance": tol,
        "n_users": pop.size,
        "version": __version__,
    }
    write_json(summary, outdir / "summary.json")
    print(f"wrote {alloc_path} (objective {result.objective:.6g}, status {result.status.value})")
    return 0


def _finite_number(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _grid(value) -> bool:
    if type(value) is dict:
        return sorted(value) == ["start", "step", "stop"] and all(
            map(_finite_number, value.values()))
    return type(value) is list and bool(value) and all(map(_finite_number, value))


_INTEGER = (lambda value: type(value) is int, "an integer")  # not true, not 1.0
_NUMBER = (_finite_number, "a finite number")

# The JSON type of each run-configuration key: a test and what it asks for.
# `--config` and the sweep flags fill one dict of these keys (each flag's
# dest is its key); value ranges are checked by the library.
_CONFIG_TYPES = {
    "scenario": (_SCENARIO_CHOICES.__contains__, f"one of {list(_SCENARIO_CHOICES)}"),
    "uptake": (_UPTAKE_CHOICES.__contains__, f"one of {list(_UPTAKE_CHOICES)}"),
    "seed": _INTEGER,
    "reps": _INTEGER,
    "grid": (_grid, "a non-empty list of finite numbers or a {start, stop, step} object"),
    "n_a": _INTEGER,
    "n_b": _INTEGER,
    "tolerance": _NUMBER,
    "jobs": _INTEGER,
}


def _check_config(config: dict) -> None:
    """Reject unknown keys and values of the wrong JSON type."""
    unknown = sorted(set(config) - set(_CONFIG_TYPES))
    if unknown:
        raise _InputError(f"unknown run configuration keys: {unknown}")
    for key, value in config.items():
        ok, want = _CONFIG_TYPES[key]
        if not ok(value):
            raise _InputError(f"{key} must be {want}, got {reprlib.repr(value)}")


def _load_sweep_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise _InputError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise _InputError(f"config is not valid JSON: {exc}") from exc
    if type(raw) is not dict:
        raise _InputError("config must be a JSON object")
    return raw


def cmd_sweep(args: argparse.Namespace) -> int:
    # explicit flags override the config file
    config = _load_sweep_config(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key in _CONFIG_TYPES}
    if flags["grid"] is not None:
        flags["grid"] = list(_parse_grid(flags["grid"]))
    config.update((key, value) for key, value in flags.items() if value is not None)
    if "scenario" not in config:
        raise _InputError("either --scenario or --config with a scenario is required")
    _check_config(config)

    grid = config.get("grid")
    if type(grid) is dict:
        try:
            grid = build_grid(grid["start"], grid["stop"], grid["step"])
        except ValueError as exc:
            raise _InputError(f"config grid: {exc}") from exc
    jobs = config.get("jobs", DEFAULT_JOBS)
    if jobs > MAX_JOBS:
        raise _InputError(f"jobs: {jobs} is greater than the maximum of {MAX_JOBS}")
    try:
        spec = builtin_scenario(
            config["scenario"],
            config.get("uptake", UptakeVariant.MAIN_B_ADVANTAGED.value),
            grid=grid,
            replications=config.get("reps", ScenarioSpec.replications),
            n_a=config.get("n_a", ScenarioSpec.n_a),
            n_b=config.get("n_b", ScenarioSpec.n_b),
            tolerance=config.get("tolerance", ScenarioSpec.tolerance),
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    seed = config.get("seed", PopulationSpec.seed)
    t0 = time.perf_counter()
    try:
        result = run_sweep(spec, base_seed=seed, jobs=jobs)
    except ValueError as exc:  # seed or jobs out of range, before any cell runs
        raise _InputError(str(exc)) from exc
    wall = time.perf_counter() - t0
    rows = aggregate(result)

    write_records_csv(result, outdir / "records.csv")
    write_aggregates_csv(result, rows, outdir / "aggregates.csv")
    write_aggregates_json(result, rows, outdir / "aggregates.json")
    metadata = {
        "version": __version__,
        "scenario": spec.scenario.value,
        "uptake_variant": spec.uptake_variant.value,
        "param_name": spec.varying,
        "grid": list(spec.grid),
        "replications": spec.replications,
        "n_a": spec.n_a,
        "n_b": spec.n_b,
        "tolerance": spec.tolerance,
        "base_seed": seed,
        "jobs": jobs,
        "rng_stream": RNG_STREAM,
        "numpy_version": np.__version__,
        "gap_orientation": "group A minus group B",
        "n_records": len(result.records),
        "n_failed": result.n_failed,
        "wall_time_s": wall,
    }
    write_json(metadata, outdir / "metadata.json")
    print(
        f"wrote {outdir}/records.csv ({len(result.records)} records, "
        f"{result.n_failed} failed) in {wall:.1f}s"
    )
    return 0


def _stats_out(args: argparse.Namespace):
    return sys.stdout if args.out in (None, "-") else args.out


def _read_table(args: argparse.Namespace):
    try:
        return table_from_csv(args.table)
    except OSError as exc:
        raise _InputError(f"cannot read table: {exc}") from exc
    except ValueError as exc:
        raise _InputError(f"{args.table}: {exc}") from exc


def cmd_stats_wilson(args: argparse.Namespace) -> int:
    if args.successes is None or args.n is None:
        raise _InputError("wilson requires --successes and --n")
    try:
        interval = wilson_interval(args.successes, args.n, args.confidence)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    write_json(
        {
            "test": "wilson",
            "successes": args.successes,
            "n": args.n,
            "confidence": args.confidence,
            "point": interval.point,
            "lo": interval.lo,
            "hi": interval.hi,
        },
        _stats_out(args),
    )
    return 0


def cmd_stats_chi2(args: argparse.Namespace) -> int:
    table = _read_table(args)
    correction = {"auto": "auto", "always": True, "never": False}[args.correction]
    res = chi2_independence(table, correction=correction)
    write_json(
        {
            "test": "chi2_independence",
            "row_labels": list(table.row_labels),
            "col_labels": list(table.col_labels),
            **dataclasses.asdict(res),
            "expected": res.expected.tolist(),
        },
        _stats_out(args),
    )
    return 0


def cmd_stats_proportions(args: argparse.Namespace) -> int:
    table = _read_table(args)
    try:
        cells = conditional_proportions(table, axis=args.axis, confidence=args.confidence)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    write_json(
        {
            "test": "conditional_proportions",
            "axis": args.axis,
            "row_labels": list(table.row_labels),
            "col_labels": list(table.col_labels),
            "cells": [[dataclasses.asdict(c) for c in row] for row in cells],
        },
        _stats_out(args),
    )
    return 0


def cmd_export_population(args: argparse.Namespace) -> int:
    if bool(args.beta_a) != bool(args.beta_b):
        raise _InputError("--beta-a and --beta-b must be given together")
    try:
        if args.beta_a:
            uptake = UptakeConfig(
                beta_a=_parse_shapes(args.beta_a, "--beta-a"),
                beta_b=_parse_shapes(args.beta_b, "--beta-b"),
            )
        else:
            uptake = UPTAKE_VARIANTS[UptakeVariant(args.uptake)]
        spec = PopulationSpec(
            n_a=args.na,
            n_b=args.nb,
            uptake=uptake,
            click=ClickConfig(k_a=args.ka, k_b=args.kb),
            seed=args.seed,
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    pop = sample_population(spec)
    population_to_csv(pop, args.out)
    print(f"wrote {args.out} ({pop.n_a}+{pop.n_b} users, seed {args.seed})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermfair",
        description="Fairness-constrained ad allocation: solve, sweep, and survey statistics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="solve one allocation from a population CSV")
    p_alloc.add_argument("population", help="CSV with header group,p,rho")
    _add_param_flags(p_alloc)
    p_alloc.add_argument("--parity", action="store_true", help="enforce exposure parity")
    p_alloc.add_argument("--eo", action="store_true", help="enforce click-weighted equality")
    p_alloc.add_argument("--eho", action="store_true", help="enforce uptake-weighted equality")
    p_alloc.add_argument("--mode", choices=("fractional", "binary-exact"), default="fractional")
    p_alloc.add_argument("--tol", type=float, default=None,
                         help=f"constraint tolerance (default {ConstraintSet.tolerance} "
                              f"fractional, {_EXACT_TOLERANCE} binary-exact)")
    p_alloc.add_argument("--cap", type=int, default=SolveRequest.enumeration_cap,
                         help=f"binary enumeration cap (default %(default)s, "
                              f"at most {MAX_ENUMERATION_CAP})")
    p_alloc.add_argument("--out", default=".", help="output directory")
    p_alloc.set_defaults(func=cmd_allocate)

    p_sweep = sub.add_parser("sweep", help="run a replicated scenario sweep")
    p_sweep.add_argument("--scenario", choices=_SCENARIO_CHOICES)
    p_sweep.add_argument("--config", help="JSON run configuration (flags override it)")
    p_sweep.add_argument("--uptake", choices=_UPTAKE_CHOICES, default=None)
    p_sweep.add_argument("--seed", type=int, default=None,
                         help=f"base seed (default {PopulationSpec.seed})")
    p_sweep.add_argument("--reps", type=int, default=None,
                         help=f"replications (default {ScenarioSpec.replications}; "
                              f"grid points x replications at most {MAX_CELLS})")
    p_sweep.add_argument("--grid", default=None,
                         help="varying-parameter grid: 'start:stop:step' or comma list "
                              f"(at most {MAX_GRID_POINTS} points)")
    p_sweep.add_argument("--na", type=int, default=None, dest="n_a",
                         help=f"group A size (default {ScenarioSpec.n_a}, "
                              f"at most {MAX_GROUP_SIZE})")
    p_sweep.add_argument("--nb", type=int, default=None, dest="n_b",
                         help=f"group B size (default {ScenarioSpec.n_b}, "
                              f"at most {MAX_GROUP_SIZE})")
    p_sweep.add_argument("--tol", type=float, default=None, dest="tolerance",
                         help=f"solver tolerance (default {ScenarioSpec.tolerance})")
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help=f"parallel workers (default {DEFAULT_JOBS}, at most {MAX_JOBS})")
    p_sweep.add_argument("--out", default="sweep-out", help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_stats = sub.add_parser("stats", help="contingency-table statistics")
    tests = p_stats.add_subparsers(dest="test", required=True)
    # each test takes only the arguments it reads
    table_arg = argparse.ArgumentParser(add_help=False)
    table_arg.add_argument("table", help="labelled contingency table CSV")
    out_flag = argparse.ArgumentParser(add_help=False)
    out_flag.add_argument("--out", default=None,
                          help="output JSON path (default stdout); its parent directory "
                               "must already exist")
    confidence_flag = argparse.ArgumentParser(add_help=False)
    confidence_flag.add_argument("--confidence", type=float, default=0.95,
                                 help="interval coverage (default %(default)s)")

    p_chi2 = tests.add_parser("chi2", parents=[table_arg, out_flag],
                              help="Pearson chi-squared test of independence with Cramer's V")
    p_chi2.add_argument("--correction", choices=("auto", "always", "never"), default="auto",
                        help="continuity correction (auto: 2x2 tables only)")
    p_chi2.set_defaults(func=cmd_stats_chi2)
    p_props = tests.add_parser("proportions", parents=[table_arg, out_flag, confidence_flag],
                               help="each cell over its row or column total, with a Wilson "
                                    "interval")
    p_props.add_argument("--axis", choices=("rows", "cols"), default="rows")
    p_props.set_defaults(func=cmd_stats_proportions)
    p_wilson = tests.add_parser("wilson", parents=[out_flag, confidence_flag],
                                help="Wilson score interval for one proportion")
    p_wilson.add_argument("--successes", type=int, default=None)
    p_wilson.add_argument("--n", type=int, default=None)
    p_wilson.set_defaults(func=cmd_stats_wilson)

    p_export = sub.add_parser("export-population", help="sample a population to CSV")
    p_export.add_argument("--na", type=int, default=ScenarioSpec.n_a,
                          help=f"group A size (default %(default)s, at most {MAX_GROUP_SIZE})")
    p_export.add_argument("--nb", type=int, default=ScenarioSpec.n_b,
                          help=f"group B size (default %(default)s, at most {MAX_GROUP_SIZE})")
    p_export.add_argument("--uptake", choices=_UPTAKE_CHOICES,
                          default=UptakeVariant.MAIN_B_ADVANTAGED.value)
    p_export.add_argument("--beta-a", default=None, help="custom group-A shapes 'a,b'")
    p_export.add_argument("--beta-b", default=None, help="custom group-B shapes 'a,b'")
    p_export.add_argument("--ka", type=float, default=ClickConfig.k_a,
                          help="group A click coefficient (default %(default)s)")
    p_export.add_argument("--kb", type=float, default=ClickConfig.k_b,
                          help="group B click coefficient (default %(default)s)")
    p_export.add_argument("--seed", type=int, default=PopulationSpec.seed,
                          help="sampling seed (default %(default)s)")
    p_export.add_argument("--out", required=True,
                          help="output CSV path; its parent directory must already exist")
    p_export.set_defaults(func=cmd_export_population)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return rc
    except BrokenPipeError:
        # The reader of stdout stopped early (``| head``).  Point stdout at
        # devnull so the flush at exit raises nothing, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (_InputError, OSError) as exc:  # OSError: an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
