"""Optimal allocation: closed-form threshold rule, constrained LP, binary oracle.

The unconstrained problem decomposes per user, so the optimum shows exactly
the users whose gain (show minus withhold) is non-negative.  Constrained
problems maximize the same linear objective over the box ``[0, 1]^n``
subject to each active group-gap being zero up to the request tolerance
``eps`` (``|gap| <= eps``).  Every constrained solve first tries the
threshold allocation (``d_i = 1`` iff the gain ``c_i >= 0``): if it already
meets every retained row it is optimal and is returned with no further
work.  The population's solve context (``hermfair.model._Context``)
holds the gains, the rows and the threshold allocation, and scores every
result: one scored threshold allocation is shared by
``solve_unconstrained`` and every solve that ends there.  Otherwise:

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
  ``sum((c - lam . R)^+) + eps * |lam|_1``.  It certifies every probed
  cell, those with an indifferent group included: all 18 benchmark
  populations at 2x10^5 users (README gives the probe and its times);
* HiGHS, scipy's dual simplex on the same equality form (each row scaled
  to unit maximum coefficient and its slack bounded by ``eps * scale_k``,
  fixed at zero when ``eps = 0``), takes only a cell the dual simplex does
  not certify.  Presolve is off: on a few dense rows over boxed columns it
  removes nothing, yet at 2x10^5 users it cost more than half the HiGHS
  time and ~200 MB of memory.  ``scipy.optimize`` is imported on the first
  HiGHS solve, so a process whose solves all end in numpy never loads it.

Every engine returns a vertex: at most one strictly fractional coordinate
per retained row.  ``method="highs"`` skips the numpy engines and is the
cross-check.  An exhaustive enumeration oracle over binary vectors is
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
    _Scored,
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
    "threshold_rule",
    "solve",
    "solve_unconstrained",
    "solve_constrained_lp",
    "solve_binary_exact",
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
        cap = self.enumeration_cap
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 0:
            raise ValueError(f"enumeration cap must be a non-negative int, got {cap!r}")
        if cap > MAX_ENUMERATION_CAP:
            raise ValueError(f"enumeration cap {cap} exceeds the ceiling {MAX_ENUMERATION_CAP}")


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
    """Linear rows whose dot product with a decision vector is the named gap.

    Rows are oriented group B minus group A, matching the gap functions.
    Rows numerically identical to an earlier row (for example the
    uptake-weighted row when every user shares one uptake value, which then
    collapses onto the exposure row) are dropped.  Each call builds the rows
    from the population and keeps nothing; a solve reads them from the
    population's context.

    Returns:
        (names, matrix) where matrix has one row per retained constraint.

    Raises:
        DegenerateGroupError: an active constraint's weight column sums to
            zero over a group.
    """
    names, rows = _Context(pop, None).rows(constraints.active)
    return list(names), rows


def threshold_rule(pop: Population, params: ModelParams) -> Allocation:
    """Unconstrained optimum: show iff the user's gain is non-negative.

    The gain is :func:`~hermfair.model.decision_gains`; a zero gain shows
    the ad.
    """
    return Allocation.binary(_Context(pop, params).threshold_values)


def _result(scored: _Scored, constraints: ConstraintSet, n_fractional: int) -> SolveResult:
    """The result of ``scored`` for a request: its status is measured on the
    active gaps against the request's tolerance."""
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


def _build_result(ctx: _Context, values: np.ndarray, constraints: ConstraintSet) -> SolveResult:
    n_frac = int(np.count_nonzero((values > SNAP_EPS) & (values < 1.0 - SNAP_EPS)))
    return _result(ctx.score(Allocation(values)), constraints, n_frac)


def solve_unconstrained(req: SolveRequest) -> SolveResult:
    """Closed-form optimum via the threshold rule; no constraints allowed."""
    if req.constraints.any_active:
        raise ValueError("solve_unconstrained requires an empty constraint set")
    return _result(_context(req.population, req.params).threshold, req.constraints, 0)


def _snap(values: np.ndarray) -> np.ndarray:
    values = np.clip(values, 0.0, 1.0)
    values[values < SNAP_EPS] = 0.0
    values[values > 1.0 - SNAP_EPS] = 1.0
    return values


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
    """
    d = threshold.copy()
    b = eps if float(a @ d) > 0.0 else -eps

    active = a != 0.0
    ai = a[active]
    lam = c[active] / ai
    order = _stable_order(lam)
    lam_s = lam[order]
    a_s = ai[order]
    pos = np.where(a_s > 0.0, a_s, 0.0)
    neg = np.where(a_s < 0.0, a_s, 0.0)
    # Plateau value of a.d for multipliers between breakpoints k and k+1:
    # positive-a coordinates with larger breakpoints stay on, negative-a
    # coordinates with smaller-or-equal breakpoints have switched on.
    suffix_pos = np.concatenate([np.cumsum(pos[::-1])[::-1], [0.0]])
    prefix_neg = np.cumsum(neg)
    g_plateau = suffix_pos[1:] + prefix_neg
    if b > suffix_pos[0] + 1e-15:
        raise SolverNumericalError("constraint face lies outside the achievable range")
    k = int(np.searchsorted(-g_plateau, -b, side="left"))
    if k >= lam_s.size:
        raise SolverNumericalError("no multiplier breakpoint attains the constraint face")
    lam_hat = lam_s[k]

    marginal = lam_s == lam_hat
    on = ((a_s > 0.0) & (lam_s > lam_hat)) | ((a_s < 0.0) & (lam_s < lam_hat))
    dd = np.zeros(lam_s.size)
    dd[on] = 1.0
    delta = b - float(a_s @ dd)
    # Marginal coordinates have zero reduced cost; fill them in index order
    # until the face is met.  At most one receives a fractional value.
    for j in np.nonzero(marginal)[0]:
        if delta == 0.0:
            break
        step = delta / a_s[j]
        if step > 0.0:
            take = min(step, 1.0)
            dd[j] = take
            delta -= take * a_s[j]

    idx = np.nonzero(active)[0]
    d[idx[order]] = dd  # zero-coefficient coordinates keep their unconstrained value
    return d


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call."""
    from scipy.optimize import linprog as _linprog

    return _linprog(*args, **kwargs)


def _equality_form(
    rows: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The slab ``|rows . d| <= eps`` as equality rows with bounded slacks.

    The columns are the n decisions followed by one slack per row, and row k
    reads ``scale_k R_k d - s_k = 0`` over ``0 <= d <= 1`` and
    ``|s_k| <= eps * scale_k`` (fixed at zero when ``eps = 0``).  Each row is
    scaled to unit maximum coefficient: gap rows carry ~1/N entries, and a
    feasibility tolerance of ~1e-9 on the scaled row then binds at
    ~1e-9/scale in gap units, well inside the residual bound.

    Returns:
        (scale, cols, lower, upper): the row scales, the m x (n + m) matrix
        ``[R * scale | -I]`` and the column bounds.
    """
    m, n = rows.shape
    scale = 1.0 / np.max(np.abs(rows), axis=1)
    cols = np.hstack([rows * scale[:, None], -np.eye(m)])
    box = eps * scale
    lower = np.concatenate([np.zeros(n), -box])
    upper = np.concatenate([np.ones(n), box])
    return scale, cols, lower, upper


def _solve_slab_highs(c: np.ndarray, rows: np.ndarray, eps: float) -> np.ndarray:
    """Maximize ``c . d`` over ``0 <= d <= 1`` with ``|rows . d| <= eps``, by HiGHS.

    The problem is posed in ``_equality_form``.  Presolve is off: it removes
    nothing from a few dense rows over boxed columns.
    """
    m, n = rows.shape
    _, cols, lower, upper = _equality_form(rows, eps)
    res = linprog(
        np.concatenate([-c, np.zeros(m)]),
        A_eq=cols,
        b_eq=np.zeros(m),
        bounds=np.column_stack([lower, upper]),
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
    c: np.ndarray, rows: np.ndarray, eps: float, d: np.ndarray, lam: np.ndarray
) -> bool:
    """Whether ``d`` is certified optimal by the multipliers ``lam``.

    Every row must be within ``eps`` plus ``ROUNDOFF_ALLOWANCE``, and ``c . d``
    within ``_DUALITY_GAP * sum(|c|)`` of the weak-duality bound
    ``sum((c - lam . R)^+) + eps * |lam|_1``.
    """
    if not np.all(np.abs(rows @ d) <= eps + ROUNDOFF_ALLOWANCE):
        return False
    bound = np.maximum(c - lam @ rows, 0.0).sum() + eps * np.abs(lam).sum()
    return bool(bound - c @ d <= _DUALITY_GAP * np.abs(c).sum())


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


def _dual_simplex(c: np.ndarray, rows: np.ndarray, eps: float) -> np.ndarray | None:
    """The optimum of a 2- or 3-row solve by a bounded dual simplex, or ``None``.

    The problem is posed in ``_equality_form``, as for HiGHS.  The slack
    basis with ``d`` at the threshold allocation is dual feasible at
    ``lam = 0``, so no phase 1 is needed.  Each iteration takes the most
    violated basic variable out of the basis and runs the bound-flipping
    ratio test (Maros, EJOR 149(1), 2003): the nonbasic columns whose
    reduced costs the dual step drives through zero are taken in the order
    of their breakpoints, and each is flipped to its other bound while the
    leaving variable stays infeasible; one at which it turns feasible
    enters.  Basic values and duals are recomputed from the m x m basis.
    The final vertex has at most m fractional coordinates; it is returned
    only when ``_certified`` accepts it with the final duals.
    """
    m, n = rows.shape
    scale, cols, lower, upper = _equality_form(rows, eps)
    width = upper - lower
    fixed = width == 0.0  # a slack at eps = 0 never enters
    feasible_tol = np.concatenate([np.full(n, _PRIMAL_TOL), 0.5 * ROUNDOFF_ALLOWANCE * scale])
    x = np.concatenate([np.where(c >= 0.0, 1.0, 0.0), np.zeros(m)])
    # Gains pushed away from zero by a fixed pseudo-random amount break the
    # dual ties of an indifferent group or of duplicate users; they move the
    # optimum by at most 4 * _PERTURBATION * sum(|c|), inside the certificate.
    gain_scale = float(np.abs(c).mean())
    cost = np.zeros(n + m)
    spread = np.arange(n) * _GOLDEN % 1.0  # an equidistributed sequence in [0, 1)
    cost[:n] = c + (2.0 * x[:n] - 1.0) * (_PERTURBATION * gain_scale) * (1.0 + spread)
    basis = np.arange(n, n + m)
    for _ in range(_SIMPLEX_ITERATIONS):
        try:
            inv = np.linalg.inv(cols[:, basis])
        except np.linalg.LinAlgError:
            return None
        x[basis] = 0.0
        xb = -inv @ (cols @ x)
        x[basis] = xb
        y = cost[basis] @ inv
        excess = np.maximum(lower[basis] - xb, xb - upper[basis])
        tol = feasible_tol[basis]
        r = int(np.argmax(excess - tol))
        if excess[r] <= tol[r]:
            d = np.clip(x[:n], 0.0, 1.0)
            return d if _certified(c, rows, eps, d, y * scale) else None

        # The dual step moves y by -sign * t * inv[r], so the reduced cost of
        # column j moves by t * alpha_j.  A column at its lower bound (reduced
        # cost <= 0) reaches zero when alpha_j > 0, one at its upper bound
        # when alpha_j < 0.
        sign = 1.0 if xb[r] > upper[basis[r]] else -1.0
        alpha = sign * (inv[r] @ cols)
        pivot_tol = _PIVOT_TOL * float(np.max(np.abs(alpha)))
        alpha[basis] = 0.0
        alpha[fixed] = 0.0
        cand = np.flatnonzero(np.where(x > lower, -alpha, alpha) > pivot_tol)
        breaks = np.maximum((y @ cols - cost)[cand] / alpha[cand], 0.0)
        # flipping a column moves the leaving variable `weight` toward its bound
        weight = np.abs(alpha[cand]) * width[cand]
        order, reach = _ascending(breaks, weight, excess[r])
        k = int(np.searchsorted(reach, excess[r], side="left"))
        if k == order.size:
            return None  # no dual step restores feasibility: round-off
        entering = cand[order[k]]
        flip = cand[order[:k]]
        x[flip] = lower[flip] + upper[flip] - x[flip]
        x[basis[r]] = upper[basis[r]] if sign > 0.0 else lower[basis[r]]
        basis[r] = entering
    return None


def solve_constrained_lp(req: SolveRequest, method: str = "auto") -> SolveResult:
    """Maximize the combined objective under the active group-equality constraints.

    Constraints are enforced as ``|gap| <= tolerance`` over fractional
    decisions in ``[0, 1]``, which also makes every tolerance-feasible binary
    vector feasible here (so this solve dominates the enumeration oracle).

    Args:
        req: request with ``mode=FRACTIONAL`` and at least one active constraint.
        method: "auto" (parametric when one row remains; otherwise the dual
            simplex, then HiGHS for any cell it cannot certify),
            "parametric", or "highs".  No engine runs when the threshold
            allocation meets every retained row.

    Raises:
        SolverNumericalError: solver failure or residual above the bound.
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
    if np.all(np.abs(rows @ threshold) <= eps):
        # the unconstrained optimum is feasible, hence optimal; its values
        # are exactly 0 or 1, so nothing is snapped
        return _result(ctx.threshold, req.constraints, 0)
    values = None
    if method != "highs" and rows.shape[0] == 1:
        values = _solve_slab_single(c, rows[0], eps, threshold)
    elif method != "highs":
        values = _dual_simplex(c, rows, eps)  # only an allocation it has certified
    if values is None:
        values = _solve_slab_highs(c, rows, eps)

    return _build_result(ctx, _snap(values), req.constraints)


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
    its fixed high users' sums to them.  Working memory is bounded by
    ``(1 + m) * 2**16`` floats for ``m`` retained rows, plus the high
    users' sums, ``(1 + m) * 2**(n - 16)`` floats.

    The show-none vector meets every gap exactly (its sums are ``0.0``), so
    some vector is always feasible.  An optimum equal to the threshold
    allocation takes the population's threshold score, as
    ``solve_constrained_lp`` does.

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
    high = _subset_sums(vectors[:, :n - h])
    best_obj = -np.inf
    best_mask = 0
    for block in range(high.shape[1]):
        obj = low[0] + high[0, block]
        if rows.shape[0]:
            gaps = low[1:] + high[1:, block, None]
            feasible = (np.abs(gaps, out=gaps) <= limit).all(axis=0)
            if not feasible.any():
                continue
            obj = np.where(feasible, obj, -np.inf)
        idx = int(np.argmax(obj))  # first maximum: smallest mask in the block
        if obj[idx] > best_obj:
            best_obj = float(obj[idx])
            best_mask = (block << h) + idx
    values = ((best_mask >> np.arange(n - 1, -1, -1)) & 1).astype(np.float64)
    if np.array_equal(values, ctx.threshold_values):
        # the threshold allocation, scored once per population and parameter
        # object as in solve_constrained_lp
        return _result(ctx.threshold, req.constraints, 0)
    return _build_result(ctx, values, req.constraints)


def solve(req: SolveRequest) -> SolveResult:
    """Dispatch on request mode and constraint activity."""
    if req.mode is SolveMode.BINARY_EXACT:
        return solve_binary_exact(req)
    if req.constraints.any_active:
        return solve_constrained_lp(req)
    return solve_unconstrained(req)


def round_allocation(alloc: Allocation, seed: int) -> Allocation:
    """Realize a fractional allocation as a binary one by a seeded draw.

    Each coordinate is shown independently with its fractional value as the
    probability, so expected gaps equal the fractional gaps; the stream is
    fixed by ``seed``.  Integral inputs pass through unchanged.
    """
    if seed is None:
        raise ValueError("round_allocation requires a seed")
    draws = np.random.default_rng(seed).random(alloc.values.size)
    return Allocation.binary((draws < alloc.values).astype(np.float64))
