"""Span tracing for the traced benchmark run, done from outside the program.

The library has no tracing of its own, so the traced run replaces, for its
duration, the functions each hermfair module calls in the layer below with
wrappers that record a span around the call.  ``Tracer.installed`` patches
the module bindings listed in ``PATCHES`` and restores the originals on exit.

A span is ``(span_id, parent_id, trace_id, name, t0, t1)`` with times from
``time.perf_counter``.  The layer of a span is the part of its name before
the first dot.  Spans of one sweep cell (``scenarios.cell``) or of one
benchmark request (``Tracer.request``) share a trace id.  Spans stay in
memory; the benchmark writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("population", "model", "solver", "scenarios", "stats", "cli")
SOLVE_SPANS = ("solver.unconstrained", "solver.one_row", "solver.three_row", "solver.oracle")


def _request_of(args, kwargs):
    return args[0] if args else kwargs["req"]


def _lp_span(args, kwargs) -> str:
    """The one-row parametric path and the HiGHS path get separate spans."""
    active = _request_of(args, kwargs).constraints.active
    return "solver.one_row" if len(active) == 1 else "solver.three_row"


# (module, attribute, span name or function of the call's arguments).
# Each binding is patched where the caller looks it up, so a function that
# ``cli`` and ``scenarios`` both import is patched in both namespaces.
PATCHES = (
    ("hermfair.cli", "main", "cli.main"),
    ("hermfair.cli", "population_from_csv", "population.csv_read"),
    ("hermfair.cli", "population_to_csv", "population.csv_write"),
    ("hermfair.cli", "sample_population", "population.sample"),
    ("hermfair.cli", "solve", "solver.solve"),
    ("hermfair.cli", "run_sweep", "scenarios.run_sweep"),
    ("hermfair.cli", "aggregate", "scenarios.aggregate"),
    ("hermfair.cli", "write_records_csv", "scenarios.write"),
    ("hermfair.cli", "write_aggregates_csv", "scenarios.write"),
    ("hermfair.cli", "write_aggregates_json", "scenarios.write"),
    ("hermfair.scenarios", "_run_cell", "scenarios.cell"),
    ("hermfair.scenarios", "sample_population", "population.sample"),
    ("hermfair.scenarios", "solve_unconstrained", "solver.unconstrained"),
    ("hermfair.scenarios", "solve_constrained_lp", _lp_span),
    ("hermfair.solver", "solve_unconstrained", "solver.unconstrained"),
    ("hermfair.solver", "solve_constrained_lp", _lp_span),
    ("hermfair.solver", "solve_binary_exact", "solver.oracle"),
    ("hermfair.solver", "constraint_rows", "solver.rows"),
    ("hermfair.solver", "linprog", "solver.linprog"),
    ("hermfair.solver", "decision_gains", "model.gains"),
    ("hermfair.solver", "parity_gap", "model.gap"),
    ("hermfair.solver", "eo_gap", "model.gap"),
    ("hermfair.solver", "eho_gap", "model.gap"),
    ("hermfair.solver", "herm_aware_utility", "model.objective"),
    ("hermfair.stats", "chi2_independence", "stats.chi2"),
    ("hermfair.stats", "conditional_proportions", "stats.proportions"),
    ("hermfair.stats", "wilson_interval", "stats.wilson"),
)

# Spans that start a new trace id: one per sweep cell.
NEW_TRACE = frozenset({"scenarios.cell"})


class Tracer:
    """Collects spans and counts; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._trace_id = 0
        self._last_trace_id = 0
        self._next_span = 0

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def request(self):
        """Give every span opened inside the block one fresh trace id."""
        saved = self._trace_id
        self._trace_id = self._new_trace_id()
        try:
            yield
        finally:
            self._trace_id = saved

    def _new_trace_id(self) -> int:
        self._last_trace_id += 1
        return self._last_trace_id

    def wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span_id = tracer._next_span
            tracer._next_span += 1
            parent = tracer._stack[-1] if tracer._stack else None
            saved_trace = tracer._trace_id
            if span_name in NEW_TRACE:
                tracer._trace_id = tracer._new_trace_id()
            tracer._stack.append(span_id)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if span_name in SOLVE_SPANS:
                    tracer.counts["solver.failed"] += 1
                raise
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, tracer._trace_id, span_name, t0, t1))
                tracer._trace_id = saved_trace
            tracer._count(span_name, args, kwargs, out)
            return out

        return traced

    def _count(self, name, args, kwargs, out) -> None:
        c = self.counts
        if name in SOLVE_SPANS:
            c["solver.solves"] += 1
            c["solver.tolerance_relaxed"] += out.status.value == "tolerance_relaxed"
            c["solver.fractional_coords"] += int(out.n_fractional)
        elif name == "solver.rows":
            c["solver.rows_retained"] += int(out[1].shape[0])
        elif name == "solver.linprog":
            c["solver.linprog_calls"] += 1
            for key in ("A_ub", "A_eq"):
                if kwargs.get(key) is not None:
                    c["solver.lp_matrix_entries"] += int(kwargs[key].size)
        elif name == "population.csv_read":
            c["population.csv_reads"] += 1
            path = args[0] if args else kwargs["path"]
            if isinstance(path, (str, os.PathLike)):
                c["population.csv_bytes"] += os.path.getsize(path)
        elif name == "population.sample":
            c["population.sample_calls"] += 1
        elif name == "scenarios.run_sweep":
            c["scenarios.records"] += len(out.records)
            c["scenarios.failed_records"] += int(out.n_failed)
        elif name == "stats.chi2":
            c["stats.tables"] += 1

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding in PATCHES for the block; always restore."""
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for span_id, _, _, name, t0, t1 in self.spans:
            out[name] += (t1 - t0) - child_time[span_id]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for _, _, _, n, t0, t1 in self.spans if n == name]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, parent, trace_id, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "span": span_id, "parent": parent, "trace": trace_id,
                    "name": name, "start": t0, "end": t1,
                }) + "\n")
        if self.missing:
            print(f"trace: bindings not found, not traced: {self.missing}", file=sys.stderr)
