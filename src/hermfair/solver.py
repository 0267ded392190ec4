"""Optimal allocation: closed-form threshold rule, constrained LP, binary oracle.

The unconstrained problem decomposes per user, so the optimum shows exactly
the users whose gain (show minus withhold) is non-negative.  Constrained
problems maximize the same linear objective over the box ``[0, 1]^n``
subject to each active group-gap being zero up to the request tolerance
``eps`` (``|gap| <= eps``).  Every constrained solve first tries the
threshold allocation (``d_i = 1`` iff the gain ``c_i >= 0``): if it already
meets every retained row it is optimal and is returned with no further
work.  Otherwise:

* a single retained row is solved exactly by a parametric search over the
  one Lagrange multiplier (breakpoint scan, O(n log n));
* two or three retained rows climb a ladder of structured numpy rungs, each
  of which returns only an allocation it has certified optimal, and
  otherwise passes the cell on:

  - (b) one group indifferent, three rows and ``eps > 0``: within a group
    the gain and every row are affine in (1, p, rho), so the multipliers
    that make the whole group indifferent have a closed form.  The other
    group follows the sign of its reduced cost, and the indifferent group
    meets three moment targets (damped Newton, then purification to a
    vertex).  Certificate: every row within ``eps`` plus
    ``ROUNDOFF_ALLOWANCE``, and the objective within ``_DUALITY_GAP`` of
    the weak-duality bound ``sum((c - lam . R)^+) + eps * |lam|_1``.
  - (a) one active multiplier, ``eps > 0``: each violated row is solved
    alone by the parametric engine; a result that meets every other row is
    optimal, being optimal for a relaxation.
  - HiGHS: scipy's dual simplex, posed as m equality rows ``R d - s = 0``
    with m bounded slack columns ``|s_k| <= eps * scale_k`` (fixed at zero
    when ``eps = 0``).  Presolve is off: on a few dense rows over boxed
    columns it removes nothing, yet at 2x10^5 users it cost more than half
    the HiGHS time and ~200 MB of memory.

  Rung (b) runs before (a) because it is the cheaper one to fail: a failing
  rung (a) costs one O(n log n) scan per violated row.

Every engine returns a vertex: at most one strictly fractional coordinate
per retained row.  ``method="highs"`` skips the structured rungs and is the
cross-check.  An exhaustive enumeration oracle over binary vectors is
provided for verification on small instances.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .model import (
    Allocation,
    ConstraintSet,
    DegenerateGroupError,
    ModelParams,
    Population,
    decision_gains,
    eho_gap,
    eo_gap,
    herm_aware_utility,
    parity_gap,
)

__all__ = [
    "SolveMode",
    "SolveStatus",
    "SolveRequest",
    "SolveResult",
    "PopulationTooLargeError",
    "NoFeasibleBinaryError",
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

# A structured rung's allocation is accepted only when its objective is
# within this fraction of sum(|gain|) of its weak-duality bound.
_DUALITY_GAP = 1e-10
# Newton stops once every moment is within this fraction of its total.
_MOMENT_TOL = 1e-14
_NEWTON_STEPS = 40

# Coordinates within this distance of 0 or 1 are snapped to the bound; the
# remainder count as strictly fractional.
SNAP_EPS = 1e-9

_DEDUP_EPS = 1e-12


class PopulationTooLargeError(ValueError):
    """The population exceeds the exhaustive-enumeration cap."""


class NoFeasibleBinaryError(RuntimeError):
    """No binary vector satisfies every active constraint at the tolerance."""


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
        if self.enumeration_cap > MAX_ENUMERATION_CAP:
            raise ValueError(
                f"enumeration cap {self.enumeration_cap} exceeds the ceiling "
                f"{MAX_ENUMERATION_CAP}"
            )


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
    collapses onto the exposure row) are dropped.

    Returns:
        (names, matrix) where matrix has one row per retained constraint.
    """
    rows: list[np.ndarray] = []
    names: list[str] = []

    def add(name: str, weights: np.ndarray | None) -> None:
        if weights is None:  # plain exposure counts
            row = np.where(pop.mask_a, -1.0 / pop.n_a, 1.0 / pop.n_b)
        else:
            mass_a = float(np.sum(weights[pop.mask_a]))
            mass_b = float(np.sum(weights[pop.mask_b]))
            if mass_a <= 0.0 or mass_b <= 0.0:
                raise DegenerateGroupError(
                    f"constraint {name} undefined: a group has zero total weight"
                )
            row = np.where(pop.mask_a, -weights / mass_a, weights / mass_b)
        for kept in rows:
            if np.max(np.abs(kept - row)) <= _DEDUP_EPS:
                return
        rows.append(row)
        names.append(name)

    if constraints.parity_exposure:
        add("parity_exposure", None)
    if constraints.equality_opportunity:
        add("equality_opportunity", pop.p)
    if constraints.equality_herm_opportunity:
        add("equality_herm_opportunity", pop.rho)
    matrix = np.vstack(rows) if rows else np.empty((0, pop.size))
    return names, matrix


def threshold_rule(pop: Population, params: ModelParams) -> Allocation:
    """Unconstrained optimum: show iff the user's gain is non-negative.

    The gain is :func:`~hermfair.model.decision_gains`; a zero gain shows
    the ad.
    """
    return Allocation.binary((decision_gains(pop, params) >= 0.0).astype(np.float64))


def _gap_or_nan(fn, pop: Population, alloc: Allocation) -> float:
    try:
        return fn(pop, alloc)
    except DegenerateGroupError:
        return math.nan


def _build_result(
    pop: Population,
    params: ModelParams,
    values: np.ndarray,
    constraints: ConstraintSet,
) -> SolveResult:
    n_frac = int(np.sum((values > SNAP_EPS) & (values < 1.0 - SNAP_EPS)))
    alloc = Allocation(values)
    result_gaps = {
        "parity_exposure": _gap_or_nan(parity_gap, pop, alloc),
        "equality_opportunity": _gap_or_nan(eo_gap, pop, alloc),
        "equality_herm_opportunity": _gap_or_nan(eho_gap, pop, alloc),
    }
    worst = 0.0
    for name in constraints.active:
        worst = max(worst, abs(result_gaps[name]))
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
        allocation=alloc,
        objective=herm_aware_utility(pop, alloc, params),
        parity_gap=result_gaps["parity_exposure"],
        eo_gap=result_gaps["equality_opportunity"],
        eho_gap=result_gaps["equality_herm_opportunity"],
        status=status,
        n_fractional=n_frac,
    )


def solve_unconstrained(req: SolveRequest) -> SolveResult:
    """Closed-form optimum via the threshold rule; no constraints allowed."""
    if req.constraints.any_active:
        raise ValueError("solve_unconstrained requires an empty constraint set")
    alloc = threshold_rule(req.population, req.params)
    return _build_result(req.population, req.params, alloc.values, req.constraints)


def _snap(values: np.ndarray) -> np.ndarray:
    values = np.clip(values, 0.0, 1.0)
    values[values < SNAP_EPS] = 0.0
    values[values > 1.0 - SNAP_EPS] = 1.0
    return values


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
    order = np.argsort(lam, kind="stable")
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


def _solve_slab_highs(c: np.ndarray, rows: np.ndarray, eps: float) -> np.ndarray:
    """Maximize ``c . d`` over ``0 <= d <= 1`` with ``|rows . d| <= eps``, by HiGHS.

    The columns are the n decisions followed by one slack per row, and each
    row reads ``R_k d - s_k = 0`` with ``|s_k| <= eps * scale_k``.  Presolve
    is off: it removes nothing from a few dense rows over boxed columns.
    """
    m, n = rows.shape
    # Normalize each row to unit max coefficient (gap rows carry ~1/N scale
    # entries); the solver's feasibility tolerance then binds at ~1e-9/scale
    # in gap units, well inside the residual bound.
    scale = 1.0 / np.max(np.abs(rows), axis=1)
    bounds = np.empty((n + m, 2))
    bounds[:n] = (0.0, 1.0)
    bounds[n:, 0] = -eps * scale
    bounds[n:, 1] = eps * scale
    res = linprog(
        np.concatenate([-c, np.zeros(m)]),
        A_eq=np.hstack([rows * scale[:, None], -np.eye(m)]),
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


def _one_active_row(
    c: np.ndarray, rows: np.ndarray, eps: float, threshold: np.ndarray
) -> np.ndarray | None:
    """Rung (a): the optimum when one multiplier is active, or ``None``.

    Each row the threshold allocation violates is solved alone.  A result
    that meets every other retained row is optimal for the full problem,
    because it is optimal for a relaxation of it.
    """
    for k in np.flatnonzero(np.abs(rows @ threshold) > eps):
        d = _solve_slab_single(c, rows[k], eps, threshold)
        excess = np.abs(rows @ d) - eps
        excess[k] -= ROUNDOFF_ALLOWANCE  # the engine's own face, re-measured
        if np.all(excess <= 0.0):
            return d
    return None


_CROSS_TO_NULL = np.array([[1.0, 0.0, 0.0, -1.0], [-1.0, 0.0, 1.0, 0.0], [1.0, -1.0, 0.0, 0.0]])


def _block_null_vectors(p: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """A null vector, of unit max norm, of the 3 x 4 matrix (1, p, rho) of
    each block of four users (``p`` and ``rho`` have shape (k, 4)).

    With user 0 of a block moved to the origin, the 3x3 minors are the
    cross products ``X_uv = p_u rho_v - p_v rho_u`` of users 1 to 3, and
    ``(X12 - X13 + X23, -X23, X13, -X12)`` is a null vector.  Moving the
    origin keeps its round-off at the scale of the block's spread.  A block
    whose minors cancel to round-off (collinear or duplicate users) gets
    the SVD's null vector instead.
    """
    dp = p[:, 1:] - p[:, :1]
    dr = rho[:, 1:] - rho[:, :1]
    u, v = [0, 0, 1], [1, 2, 2]
    z = (dp[:, u] * dr[:, v] - dp[:, v] * dr[:, u]) @ _CROSS_TO_NULL  # from X12, X13, X23
    top = np.max(np.abs(z), axis=1, keepdims=True)
    z = np.divide(z, top, out=np.zeros_like(z), where=top > 0.0)
    # z sums to zero by construction; the p and rho rows show the round-off
    miss = np.abs((dp * z[:, 1:]).sum(axis=1)) + np.abs((dr * z[:, 1:]).sum(axis=1))
    bad = (top[:, 0] == 0.0) | (miss > 1e-13)
    if bad.any():
        block = np.stack([np.ones_like(p[bad]), p[bad], rho[bad]], axis=1)
        null = np.linalg.svd(block)[2][:, -1, :]
        z[bad] = null / np.max(np.abs(null), axis=1, keepdims=True)
    return z


def _purify(p: np.ndarray, rho: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Move ``d`` to a vertex of ``{x in [0, 1]^n : x has the moments of d}``.

    The moments are the sums of ``x``, ``p x`` and ``rho x``.  Fractional
    coordinates are taken four at a time in disjoint blocks; each block moves
    along its own null vector until one coordinate reaches 0 or 1, which
    leaves every moment unchanged.  Each pass thus removes at least a
    quarter of the fractional coordinates, until at most three remain.
    """
    frac = np.flatnonzero((d > 0.0) & (d < 1.0))
    while frac.size > 3:
        whole = frac.size // 4 * 4
        blocks = frac[:whole].reshape(-1, 4)
        z = _block_null_vectors(p[blocks], rho[blocks])
        x = d[blocks]
        room = np.divide(np.where(z > 0.0, 1.0 - x, -x), z,
                         out=np.full(z.shape, np.inf), where=z != 0.0)
        hit = np.argmin(room, axis=1)
        rows = np.arange(blocks.shape[0])
        x += room[rows, hit][:, None] * z
        x[rows, hit] = z[rows, hit] > 0.0  # exactly on the bound it reached
        np.clip(x, 0.0, 1.0, out=x)
        d[blocks] = x
        frac = np.concatenate([blocks[(x > 0.0) & (x < 1.0)], frac[whole:]])
    return d


def _meet_moments(p: np.ndarray, rho: np.ndarray, target: np.ndarray) -> np.ndarray | None:
    """A vertex ``d`` of ``[0, 1]^n`` whose sums of ``d``, ``p d`` and ``rho d``
    equal ``target``, or ``None``.

    A damped Newton method finds ``theta`` with
    ``feats @ clip(theta @ feats, 0, 1) = target``, where ``feats`` stacks
    (1, p, rho).  That is the minimizer of a convex piecewise-quadratic
    function, so once the set of strictly fractional coordinates settles, a
    full step is exact.  The result is then purified to at most three
    fractional coordinates.
    """
    feats = np.vstack([np.ones(p.size), p, rho])
    mass = feats.sum(axis=1)
    theta = np.array([target[0] / mass[0], 0.0, 0.0])

    def merit(t: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        x = t @ feats
        d = np.clip(x, 0.0, 1.0)
        # the integral of clip(., 0, 1) from 0 to x, summed
        return float(np.sum(d * (x - 0.5 * d)) - t @ target), x, d

    value, x, d = merit(theta)
    for _ in range(_NEWTON_STEPS):
        resid = feats @ d - target
        if np.all(np.abs(resid) <= _MOMENT_TOL * mass):
            return _purify(p, rho, d)
        hess = (feats * ((x > 0.0) & (x < 1.0))) @ feats.T
        eig = np.linalg.eigvalsh(hess)
        if not eig[0] > 1e-12 * eig[-1]:
            return None  # too few, or collinear, users left to steer the moments
        step = -np.linalg.solve(hess, resid)
        slope = float(resid @ step)
        size = 1.0
        while True:
            new_value, new_x, new_d = merit(theta + size * step)
            if new_value <= value + 1e-4 * size * slope:
                break
            size *= 0.5
            if size < 1e-10:
                return None
        theta, value, x, d = theta + size * step, new_value, new_x, new_d
    return None


def _one_indifferent_group(
    pop: Population, params: ModelParams, c: np.ndarray, rows: np.ndarray, eps: float
) -> np.ndarray | None:
    """Rung (b): the optimum when one group is indifferent, or ``None``.

    Within group g the gain is ``u_g + v_g p + w_g rho`` and each of the three
    rows is ``sign_g * (1, p, rho) / mass_g`` (sign -1 for A, +1 for B), so the
    multipliers that make every user of g indifferent are
    ``lam = sign_g * (u_g n_g, v_g P_g, w_g R_g)``.  The other group follows
    the sign of its reduced cost ``c - lam . R``, and the slab faces
    ``sign(lam) * eps`` leave g three moment targets.  A vertex meeting them
    is accepted when every row is within ``eps`` plus the round-off
    allowance and ``c . d`` is within ``_DUALITY_GAP * sum(|c|)`` of the weak
    dual bound ``sum((c - lam . R)^+) + eps * |lam|_1``.  The candidate group
    with the lower bound is tried first.
    """
    candidates = []
    for mask, sign, beta, theta, omega in (
        (pop.mask_a, -1.0, params.beta_a, params.theta_a, params.omega_a),
        (pop.mask_b, 1.0, params.beta_b, params.theta_b, params.omega_b),
    ):
        mass = np.array([mask.sum(), pop.p[mask].sum(), pop.rho[mask].sum()], dtype=float)
        coef = np.array([-beta + params.gamma * (params.xi - omega), params.alpha,
                         params.gamma * (theta + omega)])
        lam = sign * coef * mass
        reduced = c - lam @ rows
        bound = float(np.maximum(reduced, 0.0).sum() + eps * np.abs(lam).sum())
        candidates.append((bound, mask, sign, mass, lam, reduced))

    scale = float(np.abs(c).sum())
    for bound, mask, sign, mass, lam, reduced in sorted(candidates, key=lambda t: t[0]):
        d = np.where(reduced >= 0.0, 1.0, 0.0)
        d[mask] = 0.0
        # the indifferent group supplies what the other group leaves of each face
        target = sign * (eps * np.sign(lam) - rows @ d) * mass
        if np.any(target < 0.0) or np.any(target > mass):
            continue
        dg = _meet_moments(pop.p[mask], pop.rho[mask], target)
        if dg is None:
            continue
        d[mask] = dg
        if (np.all(np.abs(rows @ d) <= eps + ROUNDOFF_ALLOWANCE)
                and bound - float(c @ d) <= _DUALITY_GAP * scale):
            return d
    return None


def solve_constrained_lp(req: SolveRequest, method: str = "auto") -> SolveResult:
    """Maximize the combined objective under the active group-equality constraints.

    Constraints are enforced as ``|gap| <= tolerance`` over fractional
    decisions in ``[0, 1]``, which also makes every tolerance-feasible binary
    vector feasible here (so this solve dominates the enumeration oracle).

    Args:
        req: request with ``mode=FRACTIONAL`` and at least one active constraint.
        method: "auto" (parametric when one row remains; otherwise the
            structured rungs, then HiGHS for any cell they cannot certify),
            "parametric", or "highs".  No engine runs when the threshold
            allocation meets every retained row.

    Raises:
        SolverNumericalError: solver failure or residual above the bound.
    """
    if req.mode is not SolveMode.FRACTIONAL:
        raise ValueError("solve_constrained_lp requires mode=FRACTIONAL")
    if not req.constraints.any_active:
        raise ValueError("solve_constrained_lp requires at least one active constraint")
    pop, params = req.population, req.params
    _, rows = constraint_rows(pop, req.constraints)
    c = decision_gains(pop, params)
    eps = req.constraints.tolerance

    if method not in ("auto", "parametric", "highs"):
        raise ValueError(f"unknown method {method!r}")
    if method == "parametric" and rows.shape[0] != 1:
        raise ValueError("parametric method handles exactly one retained constraint row")

    threshold = np.where(c >= 0.0, 1.0, 0.0)  # ties show the ad, matching the threshold rule
    values = None
    if np.all(np.abs(rows @ threshold) <= eps):
        values = threshold  # the unconstrained optimum is feasible, hence optimal
    elif method != "highs" and rows.shape[0] == 1:
        values = _solve_slab_single(c, rows[0], eps, threshold)
    elif method != "highs" and eps > 0.0:
        # each structured rung returns only an allocation it has certified
        if rows.shape[0] == 3:
            values = _one_indifferent_group(pop, params, c, rows, eps)
        if values is None:
            values = _one_active_row(c, rows, eps, threshold)
    if values is None:
        values = _solve_slab_highs(c, rows, eps)

    return _build_result(pop, params, _snap(values), req.constraints)


_CHUNK_BITS = 16


def solve_binary_exact(req: SolveRequest) -> SolveResult:
    """Exhaustive search over binary vectors; the verification oracle.

    Feasibility means every active gap is within the request tolerance in
    absolute value.  Ties on the objective break toward the lexicographically
    smallest decision vector.

    Raises:
        PopulationTooLargeError: population exceeds ``enumeration_cap``.
        NoFeasibleBinaryError: the tolerance excludes every binary vector.
    """
    pop, params = req.population, req.params
    n = pop.size
    if n > req.enumeration_cap:
        raise PopulationTooLargeError(
            f"population size {n} exceeds the enumeration cap {req.enumeration_cap}"
        )
    c = decision_gains(pop, params)
    _, rows = constraint_rows(pop, req.constraints)
    tol = req.constraints.tolerance

    # Bit (n-1-i) encodes user i, so ascending mask order is lexicographic
    # order on decision vectors.
    shifts = (n - 1 - np.arange(n)).astype(np.uint64)
    best_obj = -np.inf
    best_mask = -1
    total = 1 << n
    step = 1 << min(_CHUNK_BITS, n)
    for start in range(0, total, step):
        masks = np.arange(start, min(start + step, total), dtype=np.uint64)
        d = ((masks[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.float64)
        obj = d @ c
        if rows.shape[0]:
            feasible = (np.abs(d @ rows.T) <= tol).all(axis=1)
            if not feasible.any():
                continue
            obj = np.where(feasible, obj, -np.inf)
        idx = int(np.argmax(obj))  # first maximum: smallest mask in the chunk
        if obj[idx] > best_obj:
            best_obj = float(obj[idx])
            best_mask = start + idx
    if best_mask < 0:
        raise NoFeasibleBinaryError(
            f"no binary vector satisfies the active constraints at tolerance {tol}"
        )
    values = ((best_mask >> shifts) & np.uint64(1)).astype(np.float64)
    return _build_result(pop, params, values, req.constraints)


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
