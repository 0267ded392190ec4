"""Optimal allocation: closed-form threshold rule, constrained LP, binary oracle.

:func:`solve` is the one public entry, and ``_build_result`` makes every
result.  The CLI, the sweep (``hermfair.scenarios``) and the demos all
reach the engines through :func:`solve`; ``hermfair.scenarios`` still
imports ``solve_unconstrained`` and ``solve_constrained_lp``, calling
neither, only because perfbench's tracer patches those names there.  The
unconstrained optimum shows exactly the users whose gain (show minus
withhold) is non-negative.  Constrained problems maximize the same
linear objective over the box ``[0, 1]^n`` subject to each active group-gap
being zero up to the request tolerance ``eps`` (``|gap| <= eps``).  Every
constrained solve first tries the threshold allocation (``d_i = 1`` iff the
gain ``c_i >= 0``): if it already meets every retained row it is optimal
and is returned with no further work.  The population's solve context
(``hermfair.model._Context``) holds the gains, the rows and the threshold
allocation, and scores every result: one scored threshold allocation is
shared by every solve that ends there.  Otherwise:

* a single retained row is solved exactly by a parametric search over the
  one Lagrange multiplier (breakpoint scan, O(n log n));
* two or three retained rows go to a bounded dual simplex over the m rows
  ``R d - s = 0`` with ``|s_k| <= eps``, started from the slack basis at
  ``lam = 0``, where the threshold allocation is dual feasible.  Its ratio
  test flips bounds along the sorted breakpoints, as the one-row engine's
  scan does, and a tiny fixed cost perturbation breaks the dual ties of an
  indifferent group.  It returns only an allocation its final duals
  certify (``_certified``): every row within ``eps`` plus
  ``ROUNDOFF_ALLOWANCE``, and the objective within
  ``_DUALITY_GAP * sum(|gain|)`` of the weak-duality bound
  ``sum((c - lam . R)^+) + eps * |lam|_1``.  Otherwise it raises
  ``SolverNumericalError`` naming the cause.  It certifies every probed
  cell, those with an indifferent group included: all 18 benchmark
  populations at 2x10^5 users (README gives the probe and its times).

Every engine returns a vertex: at most one strictly fractional coordinate
per retained row.  ``method="highs"`` skips the numpy engines and is the
tests' cross-check: HiGHS, scipy's dual simplex, on the same equality form
(each row scaled to unit maximum coefficient and its slack bounded by
``eps * scale_k``, fixed at zero when ``eps = 0``), with presolve off.
scipy is no runtime dependency; ``scipy.optimize`` is imported only by
such a solve.  An exhaustive enumeration oracle over binary vectors is
provided for verification on small instances.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    Allocation,
    ConstraintSet,
    ModelParams,
    Population,
    _SHARE_WEIGHTS,
    _context,
    _Context,
    _integer,
)
# Bound here, though the solve context computes the gains and scores every
# result, for code that wraps this module's names (perfbench's tracer).
from .model import decision_gains, eho_gap, eo_gap, herm_aware_utility, parity_gap  # noqa: F401

__all__ = [
    "SolveMode",
    "SolveStatus",
    "SolveRequest",
    "SolveResult",
    "PopulationTooLargeError",
    "SolverNumericalError",
    "constraint_rows",
    "solve",
    "round_allocation",
    "MAX_ENUMERATION_CAP",
]

# Realized gaps may exceed the request tolerance by at most this much before
# the solve is considered a numerical failure.
RESIDUAL_BOUND = 1e-8

# A re-measured gap may exceed the tolerance by this much from floating-point
# round-off alone: the numpy engines land at most ~8e-16 beyond a face they
# target exactly.  A larger excess, up to RESIDUAL_BOUND, marks the solve
# TOLERANCE_RELAXED.
ROUNDOFF_ALLOWANCE = 1e-12

# The dual simplex's allocation is accepted only when its objective is
# within this fraction of sum(|gain|) of its weak-duality bound.
_DUALITY_GAP = 1e-10
# The dual simplex gives up after this many basis changes.
_SIMPLEX_ITERATIONS = 60
# A basic decision within this distance of [0, 1] counts as feasible.
_PRIMAL_TOL = 1e-13
# Ratio-test entries below this fraction of the largest are round-off.
_PIVOT_TOL = 1e-9
# Relative size of the dual simplex's cost perturbation, and the step of
# the sequence that spreads it over the columns.
_PERTURBATION = 1e-11
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
# Arrays shorter than this are sorted stably outright; the ratio test's
# first head is at most this many of its smallest breakpoints.
_SORTED_HEAD = 1024

# Coordinates within this distance of 0 or 1 are snapped to the bound; the
# remainder count as strictly fractional.
SNAP_EPS = 1e-9


class PopulationTooLargeError(ValueError):
    """The population exceeds the exhaustive-enumeration cap."""


class SolverNumericalError(RuntimeError):
    """The solver failed or its solution violates the residual bound."""


class SolveMode(enum.Enum):
    FRACTIONAL = "fractional"
    BINARY_EXACT = "binary_exact"


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    TOLERANCE_RELAXED = "tolerance_relaxed"


# Ceiling on ``SolveRequest.enumeration_cap``: the oracle scores 2**n vectors.
MAX_ENUMERATION_CAP = 30


def check_enumeration_cap(cap: int) -> None:
    """Raise ValueError unless ``cap`` is an integer in [0, MAX_ENUMERATION_CAP]."""
    _integer("enumeration cap", cap)
    if cap < 0:
        raise ValueError(f"enumeration cap must be non-negative, got {cap!r}")
    if cap > MAX_ENUMERATION_CAP:
        raise ValueError(f"enumeration cap {cap} exceeds the ceiling {MAX_ENUMERATION_CAP}")


@dataclass(frozen=True)
class SolveRequest:
    population: Population
    params: ModelParams
    constraints: ConstraintSet = field(default_factory=ConstraintSet)
    mode: SolveMode = SolveMode.FRACTIONAL
    enumeration_cap: int = 22

    def __post_init__(self) -> None:
        if not isinstance(self.mode, SolveMode):
            raise ValueError(f"mode must be a SolveMode, got {self.mode!r}")
        check_enumeration_cap(self.enumeration_cap)


@dataclass(frozen=True)
class SolveResult:
    allocation: Allocation
    objective: float
    parity_gap: float
    eo_gap: float
    eho_gap: float
    status: SolveStatus
    n_fractional: int

    @property
    def gaps(self) -> tuple[float, float, float]:
        return (self.parity_gap, self.eo_gap, self.eho_gap)


def constraint_rows(
    pop: Population, constraints: ConstraintSet
) -> tuple[list[str], np.ndarray]:
    """Linear rows whose dot product with a decision vector is the named gap,
    negated: the constraints bound only its absolute value.

    Rows numerically identical to an earlier row (for example the
    uptake-weighted row when every user shares one uptake value, which then
    collapses onto the exposure row) are dropped.  Each call builds the rows
    from the population, keeps nothing and returns a new writable matrix; a
    solve reads a read-only view of them from the population's context.

    Returns:
        (names, matrix) where matrix has one row per retained constraint.

    Raises:
        DegenerateGroupError: an active constraint's weight column sums to
            zero over a group.
    """
    names, rows = _Context(pop, None).rows(constraints.active)
    return list(names), rows.copy()


def _snap(values: np.ndarray) -> np.ndarray:
    values = values.copy()  # the two masks also take whatever lies outside [0, 1]
    values[values < SNAP_EPS] = 0.0
    values[values > 1.0 - SNAP_EPS] = 1.0
    return values


def _build_result(ctx: _Context, values: np.ndarray, constraints: ConstraintSet) -> SolveResult:
    """The result of ``values`` for a request.  The threshold allocation (its
    array or equal values) takes the shared score; any other vector is
    snapped and scored.  ``_snap`` makes a new array whose entries lie in
    [0, 1] or are NaN, so once NaN is rejected the allocation holds it
    without ``Allocation``'s copy and checks.  The status is measured on
    the active gaps."""
    # every engine returns n values, so no shape check is needed
    if values is ctx.threshold_values or (values == ctx.threshold_values).all():
        scored, n_fractional = ctx.threshold, 0
    else:
        values = _snap(values)
        if np.isnan(values).any():
            raise ValueError("allocation values must be finite")
        scored = ctx.score(Allocation._trusted(values))
        n_fractional = int(np.count_nonzero((values > 0.0) & (values < 1.0)))
    gaps = dict(zip(_SHARE_WEIGHTS, scored.gaps))
    worst = max([0.0] + [abs(gaps[name]) for name in constraints.active])
    if worst > constraints.tolerance + RESIDUAL_BOUND:
        raise SolverNumericalError(
            f"solution violates active constraints by {worst:.3e} "
            f"(tolerance {constraints.tolerance:.3e} + residual bound {RESIDUAL_BOUND:.0e})"
        )
    status = (
        SolveStatus.OPTIMAL
        if worst <= constraints.tolerance + ROUNDOFF_ALLOWANCE
        else SolveStatus.TOLERANCE_RELAXED
    )
    return SolveResult(
        scored.allocation, scored.objective, *scored.gaps,
        status=status, n_fractional=n_fractional,
    )


def solve_unconstrained(req: SolveRequest) -> SolveResult:
    """Closed-form optimum: show iff the user's gain is non-negative (a zero
    gain shows the ad); no constraints allowed."""
    if req.constraints.any_active:
        raise ValueError("solve_unconstrained requires an empty constraint set")
    ctx = _context(req.population, req.params)
    return _build_result(ctx, ctx.threshold_values, req.constraints)


def _stable_order(x: np.ndarray) -> np.ndarray:
    """``np.argsort(x, kind="stable")``, by the faster default sort where exact.

    From ``_SORTED_HEAD`` elements up numpy's default sort (a SIMD quicksort
    on x86) is several times faster than its stable sort.  Its order is kept
    only when the sorted values strictly increase: then no two are equal, the
    order is unique and so is the stable one.  Any tie, a ``-0.0``/``0.0``
    pair or a NaN falls back to the stable sort.
    """
    if x.size >= _SORTED_HEAD:
        order = np.argsort(x)
        xs = x[order]
        if (xs[1:] > xs[:-1]).all():
            return order
    return np.argsort(x, kind="stable")


def _solve_slab_single(
    c: np.ndarray, a: np.ndarray, eps: float, threshold: np.ndarray
) -> np.ndarray:
    """Maximize ``c . d`` over ``0 <= d <= 1`` with ``|a . d| <= eps``, exactly.

    The value of the equality-constrained problem is concave in the
    right-hand side, so the slab optimum sits at the unconstrained optimum if
    that is feasible and otherwise on the nearer slab face.  The face problem
    is solved by scanning the breakpoints ``c_i / a_i`` of the one-multiplier
    Lagrangian; at most one coordinate ends up strictly fractional.
    ``threshold`` is the unconstrained optimum (``c >= 0``); the caller
    returns it itself when it is feasible, so here it lies outside the slab.
    Each full-length array is made once and let go when the scan is done
    with it.
    """
    d = threshold.copy()
    b = eps if float(a @ d) > 0.0 else -eps

    users = np.flatnonzero(a)  # the users a coordinate of the scan moves
    lam = c[users]
    np.divide(lam, a[users], out=lam)
    order = _stable_order(lam)
    lam_s = lam[order]
    del lam
    users = users[order]  # in breakpoint order
    del order
    a_s = a[users]
    size = a_s.size
    # Plateau value of a.d for multipliers between breakpoints k and k+1:
    # positive-a coordinates with larger breakpoints stay on, negative-a
    # coordinates with smaller-or-equal breakpoints have switched on.
    suffix_pos = np.empty(size + 1)
    suffix_pos[size] = 0.0
    np.maximum(a_s, 0.0, out=suffix_pos[:size])
    reversed_pos = suffix_pos[:size][::-1]
    np.cumsum(reversed_pos, out=reversed_pos)
    top = float(suffix_pos[0])
    plateau = np.minimum(a_s, 0.0)
    np.cumsum(plateau, out=plateau)
    np.add(suffix_pos[1:], plateau, out=plateau)
    del suffix_pos
    if b > top + 1e-15:
        raise SolverNumericalError("constraint face lies outside the achievable range")
    k = int(np.searchsorted(np.negative(plateau, out=plateau), -b, side="left"))
    del plateau
    if k >= size:
        raise SolverNumericalError("no multiplier breakpoint attains the constraint face")
    lam_hat = lam_s[k]

    # the breakpoints equal to lam_hat, a run of the sorted ones; below it
    # the negative-a coordinates are on, above it the positive-a ones
    lo = int(np.searchsorted(lam_s, lam_hat, side="left"))
    hi = int(np.searchsorted(lam_s, lam_hat, side="right"))
    del lam_s
    dd = np.zeros(size)
    np.less(a_s[:lo], 0.0, out=dd[:lo])
    np.greater(a_s[hi:], 0.0, out=dd[hi:])
    delta = b - float(a_s @ dd)
    # Marginal coordinates have zero reduced cost; fill them in index order
    # until the face is met.  At most one receives a fractional value.
    for j in range(lo, hi):
        if delta == 0.0:
            break
        step = delta / a_s[j]
        if step > 0.0:
            take = min(step, 1.0)
            dd[j] = take
            delta -= take * a_s[j]

    d[users] = dd  # zero-coefficient coordinates keep their unconstrained value
    return d


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as _linprog

    return _linprog(*args, **kwargs)


def _equality_form(rows: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slab ``|rows . d| <= eps`` as equality rows with bounded slacks.

    The columns are the n decisions followed by one slack per row, and row k
    reads ``scale_k R_k d - s_k = 0`` over ``0 <= d <= 1`` and
    ``|s_k| <= eps * scale_k`` (fixed at zero when ``eps = 0``).  Each row is
    scaled to unit maximum coefficient: gap rows carry ~1/N entries, and a
    feasibility tolerance of ~1e-9 on the scaled row then binds at
    ~1e-9/scale in gap units, well inside the residual bound.

    Returns:
        (scale, cols, box): the row scales, the m x (n + m) matrix
        ``[R * scale | -I]`` and the slacks' bounds ``eps * scale``.  The
        decisions' bounds are the constants 0 and 1.
    """
    m, n = rows.shape
    cols = np.empty((m, n + m))
    scaled = cols[:, :n]  # |R| first, to find each row's largest
    scale = 1.0 / np.abs(rows, out=scaled).max(axis=1)
    np.multiply(rows, scale[:, None], out=scaled)
    cols[:, n:] = -np.eye(m)
    return scale, cols, eps * scale


def _solve_slab_highs(c: np.ndarray, rows: np.ndarray, eps: float) -> np.ndarray:
    """Maximize ``c . d`` over ``0 <= d <= 1`` with ``|rows . d| <= eps``, by HiGHS.

    The problem is posed in ``_equality_form``.  Presolve is off: it removes
    nothing from a few dense rows over boxed columns.
    """
    m, n = rows.shape
    _, cols, box = _equality_form(rows, eps)
    cost = np.zeros(n + m)
    np.negative(c, out=cost[:n])
    bounds = np.empty((n + m, 2))
    bounds[:n] = 0.0, 1.0
    bounds[n:, 0] = -box
    bounds[n:, 1] = box
    res = linprog(
        cost,
        A_eq=cols,
        b_eq=np.zeros(m),
        bounds=bounds,
        method="highs-ds",
        options={
            "primal_feasibility_tolerance": 1e-9,
            "dual_feasibility_tolerance": 1e-9,
            "presolve": False,
        },
    )
    if res.status == 2:
        # d = 0 satisfies every gap exactly, so this cannot legitimately happen.
        raise SolverNumericalError("LP reported infeasible on a problem with feasible d=0")
    if res.status != 0 or res.x is None:
        raise SolverNumericalError(f"LP solver failed: status={res.status} ({res.message})")
    return np.asarray(res.x[:n], dtype=np.float64)


def _certified(
    c: np.ndarray, rows: np.ndarray, eps: float, d: np.ndarray, lam: np.ndarray,
    gain_sum: float,
) -> bool:
    """Whether ``d`` is certified optimal by the multipliers ``lam``.

    Every row must be within ``eps`` plus ``ROUNDOFF_ALLOWANCE``, and ``c . d``
    within ``_DUALITY_GAP * gain_sum`` of the weak-duality bound
    ``sum((c - lam . R)^+) + eps * |lam|_1``, where ``gain_sum`` is
    ``sum(|c|)``.
    """
    if not (np.abs(rows @ d) <= eps + ROUNDOFF_ALLOWANCE).all():
        return False
    reduced = lam @ rows
    np.subtract(c, reduced, out=reduced)
    bound = np.maximum(reduced, 0.0, out=reduced).sum() + eps * np.abs(lam).sum()
    return bool(bound - c @ d <= _DUALITY_GAP * gain_sum)


def _ascending(
    breaks: np.ndarray, weight: np.ndarray, need: float
) -> tuple[np.ndarray, np.ndarray]:
    """The leading indices of ``breaks`` in (value, index) order, and the
    running sum of their ``weight``, which reaches ``need`` when any prefix
    of the full order does.

    Only the head of the order is sorted: a partition finds the k smallest
    values (with every value tied to the k-th), and k grows eightfold until
    their weight reaches ``need``.  The first k is sized to the candidates,
    ``breaks.size // 16`` within [64, ``_SORTED_HEAD``]: at 2x1000 users a
    ratio test takes a median of ~7 of ~1000 candidates, and from 16384 on
    k starts at 1024.  The running sum is tested in the order the caller
    scans it, so the head answers exactly as the full order would.
    """
    k = min(_SORTED_HEAD, max(64, breaks.size // 16))
    while k < breaks.size:
        head = np.flatnonzero(breaks <= np.partition(breaks, k)[k])
        order = head[_stable_order(breaks[head])]
        reach = np.cumsum(weight[order])
        if reach[-1] >= need:
            return order, reach
        k *= 8
    order = _stable_order(breaks)
    return order, np.cumsum(weight[order])


def _dual_simplex(
    c: np.ndarray, rows: np.ndarray, eps: float, threshold: np.ndarray
) -> np.ndarray:
    """The optimum of a 2- or 3-row solve by a bounded dual simplex.

    The problem is posed in ``_equality_form``, as for HiGHS.  It starts from
    the caller's threshold decisions: ``threshold`` is the unconstrained
    optimum (``c >= 0``), which the caller has found outside the slab.  The
    slack basis with ``d`` at it is dual feasible at ``lam = 0``, so no
    phase 1 is needed.  Each iteration takes the most violated basic
    variable out of the basis and runs the bound-flipping ratio test (Maros,
    EJOR 149(1), 2003): the nonbasic columns whose reduced costs the dual
    step drives through zero are taken in the order of their breakpoints,
    and each is flipped to its other bound while the leaving variable stays
    infeasible; one at which it turns feasible enters.  Basic values and
    duals are recomputed from the m x m basis.  The final vertex has at most
    m fractional coordinates; it is returned only when ``_certified``
    accepts it with the final duals.

    Besides the matrix, the full-length arrays are the n + m values, costs
    and bound sides and one buffer for the pivot row and reduced costs,
    made once and updated in place by every iteration.

    Raises:
        SolverNumericalError: naming the cause: a singular basis, a ratio
            test with no entering column, ``_SIMPLEX_ITERATIONS`` used up,
            or final duals that do not certify the vertex.
    """
    m, n = rows.shape
    scale, cols, box = _equality_form(rows, eps)
    # the slacks' bounds and widths (a decision's are 0, 1 and 1), as Python
    # floats
    slack_lower, slack_upper = (-box).tolist(), box.tolist()
    slack_width = (2.0 * box).tolist()
    slack_tol = (0.5 * ROUNDOFF_ALLOWANCE * scale).tolist()
    x = np.empty(n + m)
    x[:n] = threshold
    x[n:] = 0.0
    # The side of each nonbasic column: -1.0 at its upper bound, 1.0 at its
    # lower bound, 0.0 when the two are equal (a slack at eps = 0, which
    # never enters).  A basic column's side is set when it leaves.
    side = np.subtract(1.0, x)
    side -= x
    # Gains pushed away from zero by a fixed pseudo-random amount break the
    # dual ties of an indifferent group or of duplicate users; they move the
    # optimum by at most 4 * _PERTURBATION * sum(|c|), inside the certificate.
    alpha = np.empty(n + m)  # the pivot row, then the reduced costs
    cost = np.empty(n + m)
    perturbation = cost[:n]
    gain_sum = float(np.abs(c, out=perturbation).sum())
    # an equidistributed sequence in [0, 1): a - floor(a) is a % 1.0 exactly
    # for a >= 0
    np.multiply(np.arange(n), _GOLDEN, out=perturbation)
    perturbation -= np.floor(perturbation, out=alpha[:n])
    perturbation += 1.0
    perturbation *= -(_PERTURBATION * (gain_sum / n))
    perturbation *= side[:n]  # away from zero: up where c >= 0
    perturbation += c
    cost[n:] = 0.0
    basis = np.arange(n, n + m)
    # the basic columns' bounds and feasibility tolerances, as Python floats
    basic_lower, basic_upper = list(slack_lower), list(slack_upper)
    basic_tol = list(slack_tol)
    for _ in range(_SIMPLEX_ITERATIONS):
        try:
            inv = np.linalg.inv(cols[:, basis])
        except np.linalg.LinAlgError as err:
            raise SolverNumericalError(f"dual simplex: singular basis ({err})") from err
        x[basis] = 0.0
        xb = -inv @ (cols @ x)
        x[basis] = xb
        y = cost[basis] @ inv
        # the most violated basic variable leaves: the first largest excess
        # over its tolerance
        r, excess, worst = 0, 0.0, -math.inf
        for i, v in enumerate(xb.tolist()):
            e = max(basic_lower[i] - v, v - basic_upper[i])
            if e - basic_tol[i] > worst:
                r, excess, worst, leaving = i, e, e - basic_tol[i], v
        if worst <= 0.0:
            del alpha, side, cost  # before the certificate's arrays
            d = np.clip(x[:n], 0.0, 1.0)
            if not _certified(c, rows, eps, d, y * scale, gain_sum):
                raise SolverNumericalError("dual simplex: final duals do not certify the vertex")
            return d

        # The dual step moves y by -sign * t * inv[r], so the reduced cost of
        # column j moves by t * alpha_j.  A column at its lower bound (reduced
        # cost <= 0) reaches zero when alpha_j > 0, one at its upper bound
        # when alpha_j < 0: when alpha_j times its side is positive.
        sign = 1.0 if leaving > basic_upper[r] else -1.0
        np.matmul(sign * inv[r], cols, out=alpha)  # bit for bit sign * (inv[r] @ cols)
        pivot_tol = _PIVOT_TOL * max(float(alpha.max()), -float(alpha.min()))
        alpha[basis] = 0.0
        alpha *= side
        cand = np.flatnonzero(alpha > pivot_tol)
        weight = alpha[cand]  # |alpha_j|
        breaks = np.matmul(y, cols, out=alpha)[cand]
        breaks -= cost[cand]
        breaks *= side[cand]  # over |alpha_j|: bit for bit over alpha_j
        np.divide(breaks, weight, out=breaks)
        np.maximum(breaks, 0.0, out=breaks)
        # flipping a column moves the leaving variable `weight` toward its
        # bound: |alpha_j| times its width, 1.0 for a decision; the slacks
        # come last
        for i in range(cand.size - 1, max(cand.size - m, 0) - 1, -1):
            if cand[i] < n:
                break
            weight[i] *= slack_width[cand[i] - n]
        order, reach = _ascending(breaks, weight, excess)
        k = int(np.searchsorted(reach, excess, side="left"))
        if k == order.size:  # no dual step restores feasibility: round-off
            raise SolverNumericalError("dual simplex: the ratio test found no entering column")
        entering = int(cand[order[k]])
        flip = cand[order[:k]]
        # a decision flips to 1 - x, a slack to -box + box - x = 0 - x
        x[flip] = (flip < n) - x[flip]
        side[flip] *= -1.0
        x[basis[r]] = basic_upper[r] if sign > 0.0 else basic_lower[r]
        side[basis[r]] = -sign if basic_upper[r] > basic_lower[r] else 0.0
        basis[r] = entering
        if entering < n:
            basic_lower[r], basic_upper[r], basic_tol[r] = 0.0, 1.0, _PRIMAL_TOL
        else:
            j = entering - n
            basic_lower[r], basic_upper[r], basic_tol[r] = (
                slack_lower[j], slack_upper[j], slack_tol[j])
    raise SolverNumericalError(f"dual simplex: {_SIMPLEX_ITERATIONS} iterations used up")


def solve_constrained_lp(req: SolveRequest, method: str = "auto") -> SolveResult:
    """Maximize the combined objective under the active group-equality constraints.

    Constraints are enforced as ``|gap| <= tolerance`` over fractional
    decisions in ``[0, 1]``, which also makes every tolerance-feasible binary
    vector feasible here (so this solve dominates the enumeration oracle).

    Args:
        req: request with ``mode=FRACTIONAL`` and at least one active constraint.
        method: "auto" (parametric when one row remains, otherwise the dual
            simplex), "parametric", or "highs" (HiGHS, the tests'
            reference; it needs scipy).  No engine runs when the threshold
            allocation meets every retained row.

    Raises:
        SolverNumericalError: an engine fails (the dual simplex names its
            cause) or the solution's residual is above the bound.
    """
    if req.mode is not SolveMode.FRACTIONAL:
        raise ValueError("solve_constrained_lp requires mode=FRACTIONAL")
    if not req.constraints.any_active:
        raise ValueError("solve_constrained_lp requires at least one active constraint")
    if method not in ("auto", "parametric", "highs"):
        raise ValueError(f"unknown method {method!r}")
    ctx = _context(req.population, req.params)
    _, rows = ctx.rows(req.constraints.active)
    c = ctx.gains
    eps = req.constraints.tolerance

    if method == "parametric" and rows.shape[0] != 1:
        raise ValueError("parametric method handles exactly one retained constraint row")

    threshold = ctx.threshold_values
    if (np.abs(rows @ threshold) <= eps).all():
        values = threshold  # the unconstrained optimum is feasible, hence optimal
    elif method == "highs":
        values = _solve_slab_highs(c, rows, eps)
    elif rows.shape[0] == 1:
        values = _solve_slab_single(c, rows[0], eps, threshold)
    else:
        values = _dual_simplex(c, rows, eps, threshold)  # only an allocation it has certified
    return _build_result(ctx, values, req.constraints)


# The oracle scores 2**_BLOCK_BITS decision vectors per block.
_BLOCK_BITS = 16


def _subset_sums(vectors: np.ndarray) -> np.ndarray:
    """Every subset sum of the columns of ``vectors``, by doubling.

    Column ``j`` of the result sums the columns that the bits of ``j``
    select, with the last column at bit 0: each doubling step appends the
    sums that take one more column.
    """
    k, h = vectors.shape
    sums = np.empty((k, 1 << h))
    sums[:, 0] = 0.0
    for b in range(h):
        size = 1 << b
        np.add(sums[:, :size], vectors[:, h - 1 - b, None], out=sums[:, size:2 * size])
    return sums


def _block_best(obj: np.ndarray, gaps: np.ndarray, limit: float) -> tuple[int, float]:
    """The first column of a block with the largest ``obj`` among those whose
    ``gaps`` all lie within ``limit`` in absolute value, and that objective;
    ``(0, -inf)`` when no column does.  ``gaps`` is overwritten."""
    if gaps.shape[0]:
        feasible = (np.abs(gaps, out=gaps) <= limit).all(axis=0)
        if not feasible.any():
            return 0, -math.inf
        obj = np.where(feasible, obj, -np.inf)
    idx = int(np.argmax(obj))  # first maximum: smallest mask in the block
    return idx, float(obj[idx])


def solve_binary_exact(req: SolveRequest) -> SolveResult:
    """Exhaustive search over binary vectors; the verification oracle.

    Feasibility means every active gap is within the request tolerance plus
    ``ROUNDOFF_ALLOWANCE`` in absolute value, the rule ``_build_result``
    reports as optimal, so an exactly fair vector is never lost to the
    round-off of its sum.  Ties on the objective break toward the
    lexicographically smallest decision vector.

    Bit ``n - 1 - i`` of a mask is user ``i``, so ascending masks are
    lexicographic decision vectors.  Masks are scored in ascending blocks
    of ``2**16`` sharing their high bits (meet in the middle, Horowitz and
    Sahni, J. ACM 21(2), 1974): the gain and the gap-row sums of every
    subset of the last ``min(16, n)`` users are built once, and a block adds
    its fixed high users' sums to them.  Up to 16 users form one block,
    scored from those sums as they are, with no high users' sums.  Working
    memory is bounded by ``(1 + m) * 2**16`` floats for ``m`` retained
    rows, plus the high users' sums, ``(1 + m) * 2**(n - 16)`` floats.

    The show-none vector meets every gap exactly (its sums are ``0.0``), so
    some vector is always feasible.  An optimum equal to the threshold
    allocation takes the population's threshold score, as every solve does.

    Raises:
        PopulationTooLargeError: population exceeds ``enumeration_cap``.
    """
    n = req.population.size
    if n > req.enumeration_cap:
        raise PopulationTooLargeError(
            f"population size {n} exceeds the enumeration cap {req.enumeration_cap}"
        )
    ctx = _context(req.population, req.params)
    c = ctx.gains
    _, rows = ctx.rows(req.constraints.active)
    limit = req.constraints.tolerance + ROUNDOFF_ALLOWANCE

    # row 0 is the gain, rows 1.. the gaps
    vectors = np.vstack([c, rows])
    h = min(_BLOCK_BITS, n)
    low = _subset_sums(vectors[:, n - h:])
    if h == n:
        best_mask, _ = _block_best(low[0], low[1:], limit)  # one block, no high users
    else:
        high = _subset_sums(vectors[:, :n - h])
        best_obj = -math.inf
        best_mask = 0
        for block in range(high.shape[1]):
            idx, obj = _block_best(low[0] + high[0, block], low[1:] + high[1:, block, None], limit)
            if obj > best_obj:
                best_obj, best_mask = obj, (block << h) + idx
    values = ((best_mask >> np.arange(n - 1, -1, -1)) & 1).astype(np.float64)
    return _build_result(ctx, values, req.constraints)


def solve(req: SolveRequest) -> SolveResult:
    """The solver's one public entry: dispatch on request mode and constraint activity."""
    if req.mode is SolveMode.BINARY_EXACT:
        return solve_binary_exact(req)
    if req.constraints.any_active:
        return solve_constrained_lp(req)
    return solve_unconstrained(req)


def round_allocation(alloc: Allocation, seed: int) -> Allocation:
    """Realize a fractional allocation as a binary one by a seeded draw.

    Each coordinate is shown independently with its fractional value as the
    probability, so expected gaps equal the fractional gaps; the stream is
    fixed by ``seed``, a non-negative int.  Integral inputs pass unchanged.
    """
    if seed is None:
        raise ValueError("round_allocation requires a seed")
    if _integer("seed", seed) < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    draws = np.random.default_rng(seed).random(alloc.values.size)
    return Allocation.binary((draws < alloc.values).astype(np.float64))
