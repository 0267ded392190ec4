"""Command-line front end: allocate, sweep, stats, export-population.

Exit codes: 0 success, 1 input error (malformed files, invalid parameters,
oversized enumeration requests) or a standard output closed before the run
ends (silently), 2 solver-level failure (a numerical failure) or a usage
error (what argparse rejects: an unknown command or flag, a missing
argument).  The commands raise; ``main`` alone maps an exception to an exit
code: a ``ValueError`` (bad input, from the library or the CLI) or an
``OSError`` exits 1, a ``SolverNumericalError`` exits 2, each after one
``error:`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import reprlib
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from ._textio import ascii_number, write_json
from .model import GAP_ORIENTATION, ConstraintSet, ModelParams
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
    SolveMode,
    SolveRequest,
    SolverNumericalError,
    check_enumeration_cap,
    solve,
)
from .stats import (
    WilsonInterval,
    chi2_independence,
    conditional_proportions,
    table_from_csv,
    wilson_interval,
)

_PARAM_DEFAULTS = dataclasses.asdict(ModelParams.default())

_UPTAKE_CHOICES = tuple(v.value for v in UptakeVariant)
_SCENARIO_CHOICES = tuple(s.value for s in ScenarioId)

# allocate's default tolerance in binary-exact mode, where a binary vector
# rarely meets the fractional default
_EXACT_TOLERANCE = 0.02


def _ascii(kind: type) -> Callable[[str], float]:
    """An argparse ``type`` that reads a ``kind`` as the CSV readers do
    (``_textio.ascii_number``: ASCII digits, no ``_``); argparse names a
    rejected value by ``kind``, as for ``type=float``."""
    def parse(text: str) -> float:
        return ascii_number(text, kind)

    parse.__name__ = kind.__name__
    return parse


# the type of every number flag and of every entry of a number list
_FLOAT, _INT = _ascii(float), _ascii(int)


def _numbers(text: str, sep: str, what: str) -> list[float]:
    """The numbers between the ``sep`` of ``text``; an empty entry is not one."""
    try:
        return [_FLOAT(x) for x in text.split(sep)]
    except ValueError:
        raise ValueError(f"{what} must be numbers, got {text!r}") from None


def _parse_grid(text: str) -> list[float] | dict[str, float]:
    """``--grid`` as the config's ``grid`` takes it: a comma list, or
    ``start:stop:step`` as a ``{start, stop, step}`` object."""
    if ":" not in text:
        return _numbers(text, ",", "--grid values")
    if text.count(":") != 2:
        raise ValueError(f"--grid expects start:stop:step or a comma list, got {text!r}")
    return dict(zip(("start", "stop", "step"), _numbers(text, ":", "--grid values")))


def _parse_shapes(text: str, flag: str) -> tuple[float, float]:
    if text.count(",") != 1:
        raise ValueError(f"{flag} expects 'shape1,shape2', got {text!r}")
    return tuple(_numbers(text, ",", f"{flag} shapes"))


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("model parameters")
    for name, default in _PARAM_DEFAULTS.items():
        group.add_argument(
            f"--{name.replace('_', '-')}", type=_FLOAT, default=default,
            dest=name, help=f"default {default}",
        )


def _read(reader, path: str):
    """``reader(path)``; the message of a malformed file starts with its path.
    An unreadable one raises the ``OSError``, whose message names the file."""
    try:
        return reader(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _outdir(path: str) -> Path:
    """``--out``, checked before any work: no part of it may be a file."""
    outdir = Path(path)
    for part in (outdir, *outdir.parents):
        if part.exists() and not part.is_dir():
            raise ValueError(f"--out {path}: {part} is not a directory")
    return outdir


def cmd_allocate(args: argparse.Namespace) -> int:
    outdir = _outdir(args.out)
    check_enumeration_cap(args.cap)
    pop = _read(population_from_csv, args.population)

    mode = SolveMode.BINARY_EXACT if args.mode == "binary-exact" else SolveMode.FRACTIONAL
    tol = args.tol
    if tol is None:
        tol = _EXACT_TOLERANCE if mode is SolveMode.BINARY_EXACT else ConstraintSet.tolerance
    params = ModelParams(**{k: getattr(args, k) for k in _PARAM_DEFAULTS})
    constraints = ConstraintSet(
        parity_exposure=args.parity,
        equality_opportunity=args.eo,
        equality_herm_opportunity=args.eho,
        tolerance=tol,
    )
    result = solve(SolveRequest(pop, params, constraints, mode=mode, enumeration_cap=args.cap))

    outdir.mkdir(parents=True, exist_ok=True)
    alloc_path = outdir / "allocation.csv"
    allocation_to_csv(pop, result.allocation.values, alloc_path)
    # strict JSON: a gap undefined on this population (a group with zero
    # weight) is written as null
    summary = {
        "objective": result.objective,
        "status": result.status.value,
        "gap_orientation": GAP_ORIENTATION,
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


# The run-configuration keys.  `--config` and the sweep flags fill one dict
# of these keys (each flag's dest is its key).  Each key set there, but the
# base seed and the worker count, goes to `builtin_scenario` as the argument
# named here; the library checks each value and holds each default.
_SCENARIO_ARGS = {"scenario": "scenario", "uptake": "uptake_variant", "grid": "grid",
                  "reps": "replications", "n_a": "n_a", "n_b": "n_b", "tolerance": "tolerance"}
_CONFIG_KEYS = (*_SCENARIO_ARGS, "seed", "jobs")


def _load_sweep_config(path: str) -> dict:
    # utf-8-sig: one leading byte-order mark is accepted, as in the CSV readers
    with open(path, encoding="utf-8-sig") as fh:
        raw = json.load(fh)
    if type(raw) is not dict:
        raise ValueError("config must be a JSON object")
    return raw


def cmd_sweep(args: argparse.Namespace) -> int:
    outdir = _outdir(args.out)
    # explicit flags override the config file
    config = {} if args.config is None else _read(_load_sweep_config, args.config)
    flags = {key: getattr(args, key) for key in _CONFIG_KEYS}
    if flags["grid"] is not None:
        flags["grid"] = _parse_grid(flags["grid"])
    config.update((key, value) for key, value in flags.items() if value is not None)
    if "scenario" not in config:
        raise ValueError("either --scenario or --config with a scenario is required")
    unknown = sorted(set(config) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown run configuration keys: {unknown}")

    grid = config.get("grid")
    if type(grid) is dict and sorted(grid) == ["start", "step", "stop"]:
        config["grid"] = build_grid(**grid)
    elif "grid" in config and type(grid) is not list:
        raise ValueError(
            f"grid must be a list or a {{start, stop, step}} object, got {reprlib.repr(grid)}")
    seed = config.get("seed", PopulationSpec.seed)
    jobs = config.get("jobs", DEFAULT_JOBS)
    spec = builtin_scenario(
        **{arg: config[key] for key, arg in _SCENARIO_ARGS.items() if key in config})
    t0 = time.perf_counter()
    result = run_sweep(spec, base_seed=seed, jobs=jobs)
    wall = time.perf_counter() - t0
    rows = aggregate(result)

    outdir.mkdir(parents=True, exist_ok=True)

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
        "gap_orientation": GAP_ORIENTATION,
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


def cmd_stats_wilson(args: argparse.Namespace) -> int:
    interval = wilson_interval(args.successes, args.n, args.confidence)
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
    table = _read(table_from_csv, args.table)
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
    table = _read(table_from_csv, args.table)
    cells = conditional_proportions(table, axis=args.axis, confidence=args.confidence)
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
    if (args.beta_a is None) != (args.beta_b is None):
        raise ValueError("--beta-a and --beta-b must be given together")
    if args.beta_a is not None:
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
    p_alloc.add_argument("--tol", type=_FLOAT, default=None,
                         help=f"constraint tolerance (default {ConstraintSet.tolerance} "
                              f"fractional, {_EXACT_TOLERANCE} binary-exact)")
    p_alloc.add_argument("--cap", type=_INT, default=SolveRequest.enumeration_cap,
                         help=f"binary enumeration cap (default %(default)s, "
                              f"at most {MAX_ENUMERATION_CAP})")
    p_alloc.add_argument("--out", default=".", help="output directory")
    p_alloc.set_defaults(func=cmd_allocate)

    p_sweep = sub.add_parser("sweep", help="run a replicated scenario sweep")
    p_sweep.add_argument("--scenario", choices=_SCENARIO_CHOICES)
    p_sweep.add_argument("--config", help="JSON run configuration (flags override it)")
    p_sweep.add_argument("--uptake", choices=_UPTAKE_CHOICES, default=None)
    p_sweep.add_argument("--seed", type=_INT, default=None,
                         help=f"base seed (default {PopulationSpec.seed})")
    p_sweep.add_argument("--reps", type=_INT, default=None,
                         help=f"replications (default {ScenarioSpec.replications}; "
                              f"grid points x replications at most {MAX_CELLS})")
    p_sweep.add_argument("--grid", default=None,
                         help="varying-parameter grid: 'start:stop:step' or comma list "
                              f"(at most {MAX_GRID_POINTS} points)")
    p_sweep.add_argument("--na", type=_INT, default=None, dest="n_a",
                         help=f"group A size (default {ScenarioSpec.n_a}, "
                              f"at most {MAX_GROUP_SIZE})")
    p_sweep.add_argument("--nb", type=_INT, default=None, dest="n_b",
                         help=f"group B size (default {ScenarioSpec.n_b}, "
                              f"at most {MAX_GROUP_SIZE})")
    p_sweep.add_argument("--tol", type=_FLOAT, default=None, dest="tolerance",
                         help=f"solver tolerance (default {ScenarioSpec.tolerance})")
    p_sweep.add_argument("--jobs", type=_INT, default=None,
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
    confidence_flag.add_argument("--confidence", type=_FLOAT, default=WilsonInterval.confidence,
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
    p_wilson.add_argument("--successes", type=_INT, required=True)
    p_wilson.add_argument("--n", type=_INT, required=True)
    p_wilson.set_defaults(func=cmd_stats_wilson)

    p_export = sub.add_parser("export-population", help="sample a population to CSV")
    p_export.add_argument("--na", type=_INT, default=ScenarioSpec.n_a,
                          help=f"group A size (default %(default)s, at most {MAX_GROUP_SIZE})")
    p_export.add_argument("--nb", type=_INT, default=ScenarioSpec.n_b,
                          help=f"group B size (default %(default)s, at most {MAX_GROUP_SIZE})")
    p_export.add_argument("--uptake", choices=_UPTAKE_CHOICES,
                          default=UptakeVariant.MAIN_B_ADVANTAGED.value)
    p_export.add_argument("--beta-a", default=None, help="custom group-A shapes 'a,b'")
    p_export.add_argument("--beta-b", default=None, help="custom group-B shapes 'a,b'")
    p_export.add_argument("--ka", type=_FLOAT, default=ClickConfig.k_a,
                          help="group A click coefficient (default %(default)s)")
    p_export.add_argument("--kb", type=_FLOAT, default=ClickConfig.k_b,
                          help="group B click coefficient (default %(default)s)")
    p_export.add_argument("--seed", type=_INT, default=PopulationSpec.seed,
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
    except SolverNumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
