"""Core domain types and evaluation of the allocation objective and fairness gaps.

The model scores a show/withhold decision ``d`` in ``[0, 1]`` for each user.
Showing earns ``alpha * p`` in expectation, withholding earns the group's
opportunity utility ``beta``.  On top of the economic part sits a per-user
interpretative (hermeneutical) cost: a reward ``theta`` scaled by the uptake
probability ``rho`` when the ad is shown and understood, a penalty ``omega``
for failed uptake, and a fixed exclusion penalty ``xi`` when it is withheld.
The combined objective trades the two off with a weight ``gamma``.

All aggregate functions sum in ascending user-index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Population",
    "ModelParams",
    "Allocation",
    "ConstraintSet",
    "DegenerateGroupError",
    "economic_utility",
    "hermeneutical_cost",
    "herm_aware_utility",
    "decision_gains",
    "parity_gap",
    "eo_gap",
    "eho_gap",
]


class DegenerateGroupError(ValueError):
    """A group is empty or carries zero weight, so a group ratio is undefined."""


class Population:
    """An ordered collection of users split into the two protected groups.

    Stored as aligned read-only numpy arrays (``groups``, ``p``, ``rho``) so
    that objective and gap evaluations vectorize; build one with
    :meth:`from_arrays`.  Both groups must be non-empty; group ratios are
    undefined otherwise.

    A population also keeps, computed on first use, what its solves share:
    the per-group masses and slices of ``p`` and ``rho``, and the gains and
    the objective's per-user terms for the last :class:`ModelParams` it was
    scored with.  The cached arrays are read-only and equality ignores them.
    """

    __slots__ = (
        "groups", "p", "rho", "mask_a", "mask_b", "n_a", "n_b",
        "_masses", "_slices", "_gains", "_objective",
    )

    @classmethod
    def from_arrays(
        cls,
        groups: Sequence[str] | np.ndarray,
        p: Sequence[float] | np.ndarray,
        rho: Sequence[float] | np.ndarray,
    ) -> "Population":
        """Build a population from aligned arrays of labels, p and rho."""
        groups = np.asarray(groups)
        # validate before the cast: "U1" would truncate "Apple" to "A"
        known = np.isin(groups, ("A", "B"))
        if not known.all():
            raise ValueError(f"unknown group labels: {sorted(set(map(str, groups[~known])))}")
        groups = groups.astype("U1")
        p = np.asarray(p, dtype=np.float64).copy()
        rho = np.asarray(rho, dtype=np.float64).copy()
        if not (np.isfinite(p).all() and (p >= 0).all() and (p <= 1).all()):
            raise ValueError("p values must lie in [0, 1]")
        if not (np.isfinite(rho).all() and (rho >= 0).all() and (rho <= 1).all()):
            raise ValueError("rho values must lie in [0, 1]")
        if groups.shape != p.shape or p.shape != rho.shape or groups.ndim != 1:
            raise ValueError("groups, p and rho must be 1-d arrays of equal length")
        mask_a = groups == "A"
        n_a = int(mask_a.sum())
        n_b = int(groups.size - n_a)
        if n_a < 1 or n_b < 1:
            raise DegenerateGroupError("both groups must contain at least one user")
        mask_b = ~mask_a
        for arr in (groups, p, rho, mask_a, mask_b):
            arr.flags.writeable = False
        self = object.__new__(cls)
        self.groups = groups
        self.p = p
        self.rho = rho
        self.mask_a = mask_a
        self.mask_b = mask_b
        self.n_a = n_a
        self.n_b = n_b
        self._masses = {}
        self._slices = {}
        self._gains = None
        self._objective = None
        return self

    @property
    def size(self) -> int:
        return int(self.groups.size)

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Population):
            return NotImplemented
        return (
            np.array_equal(self.groups, other.groups)
            and np.array_equal(self.p, other.p)
            and np.array_equal(self.rho, other.rho)
        )

    def __repr__(self) -> str:
        return f"Population(n_a={self.n_a}, n_b={self.n_b})"


@dataclass(frozen=True)
class ModelParams:
    """Scalar model parameters.

    ``alpha`` is the utility per desired action; ``beta_*`` the per-group
    opportunity utility of withholding; ``theta_*`` the per-group uptake
    reward; ``omega_*`` the per-group failed-uptake penalty; ``xi`` the
    exclusion penalty; ``gamma`` the weight on the interpretative cost.
    """

    alpha: float
    beta_a: float
    beta_b: float
    theta_a: float
    theta_b: float
    omega_a: float
    omega_b: float
    xi: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta_a", "beta_b", "theta_a", "theta_b",
                     "omega_a", "omega_b", "xi", "gamma"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.alpha <= 0:
            raise ValueError("alpha must be strictly positive")
        for name in ("theta_a", "theta_b", "omega_a", "omega_b", "xi"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("beta_a", "beta_b", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @classmethod
    def default(cls) -> "ModelParams":
        """The documented defaults: the CLI's flag defaults and the fixed
        values of every built-in scenario."""
        return cls(
            alpha=0.2, beta_a=0.03, beta_b=0.05, theta_a=0.05, theta_b=0.1,
            omega_a=0.01, omega_b=0.01, xi=0.2, gamma=0.01,
        )


@dataclass(frozen=True)
class Allocation:
    """Per-user show decisions aligned index-by-index with a population.

    ``Allocation(values)`` holds show probabilities in [0, 1] (a randomized
    policy); :meth:`binary` also requires every decision to be 0 or 1.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64).copy()
        if values.ndim != 1:
            raise ValueError("allocation values must form a 1-d vector")
        if not np.isfinite(values).all():
            raise ValueError("allocation values must be finite")
        if ((values < 0.0) | (values > 1.0)).any():
            raise ValueError("allocation entries must lie in [0, 1]")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def binary(cls, values: Sequence[float] | np.ndarray) -> "Allocation":
        alloc = cls(values)
        if not np.isin(alloc.values, (0.0, 1.0)).all():
            raise ValueError("binary allocation entries must be exactly 0 or 1")
        return alloc

    def __len__(self) -> int:
        return int(self.values.size)


# The column that weights a user in the group shares each constraint
# equalizes (None: every user counts once), by ConstraintSet field, in the
# order of the solver's rows.
_SHARE_WEIGHTS: dict[str, str | None] = {
    "parity_exposure": None,
    "equality_opportunity": "p",
    "equality_herm_opportunity": "rho",
}


@dataclass(frozen=True)
class ConstraintSet:
    """Which group-equality constraints an allocation must satisfy.

    ``tolerance`` is the maximum absolute gap accepted as "equal".
    """

    parity_exposure: bool = False
    equality_opportunity: bool = False
    equality_herm_opportunity: bool = False
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        tol = float(self.tolerance)
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
        object.__setattr__(self, "tolerance", tol)

    # The constructors' ``tolerance`` default is the field default above.
    @classmethod
    def parity(cls, tolerance: float = tolerance) -> "ConstraintSet":
        return cls(parity_exposure=True, tolerance=tolerance)

    @classmethod
    def opportunity(cls, tolerance: float = tolerance) -> "ConstraintSet":
        return cls(equality_opportunity=True, tolerance=tolerance)

    @classmethod
    def herm_opportunity(cls, tolerance: float = tolerance) -> "ConstraintSet":
        return cls(equality_herm_opportunity=True, tolerance=tolerance)

    @classmethod
    def all(cls, tolerance: float = tolerance) -> "ConstraintSet":
        return cls(True, True, True, tolerance)

    @property
    def active(self) -> tuple[str, ...]:
        """The switched-on constraint fields, in ``_SHARE_WEIGHTS`` order."""
        return tuple(name for name in _SHARE_WEIGHTS if getattr(self, name))

    @property
    def any_active(self) -> bool:
        return bool(self.active)


def _group_slices(pop: Population, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The population's ``name`` column (``"p"`` or ``"rho"``) over group A
    and over group B, read-only; computed once per population."""
    slices = pop._slices.get(name)
    if slices is None:
        w = getattr(pop, name)
        slices = pop._slices[name] = (w[pop.mask_a], w[pop.mask_b])
        for arr in slices:
            arr.flags.writeable = False
    return slices


def _group_masses(pop: Population, name: str | None) -> tuple[float, float]:
    """The totals of the population's ``name`` column over group A and over
    group B, each summed in ascending user order; the group sizes for None.

    Computed once per population, without keeping the group slices: a solve
    needs only the masses, and the gap functions only after it returns.

    Raises:
        DegenerateGroupError: a total is zero (checked on every call).
    """
    if name is None:
        return float(pop.n_a), float(pop.n_b)
    masses = pop._masses.get(name)
    if masses is None:
        w = getattr(pop, name)
        masses = pop._masses[name] = (float(w[pop.mask_a].sum()), float(w[pop.mask_b].sum()))
    if masses[0] <= 0.0 or masses[1] <= 0.0:
        raise DegenerateGroupError(
            f"a group has zero total {name}, so its {name}-weighted shares are undefined"
        )
    return masses


class _Objective(NamedTuple):
    """Per-user terms of the objective for one parameter object, read-only."""

    params: ModelParams
    shown: np.ndarray  # alpha * p
    beta: np.ndarray
    uptake_cost: np.ndarray  # -theta * rho + omega * (1 - rho)


def _objective_terms(pop: Population, params: ModelParams, keep: bool = True) -> _Objective:
    """The per-user objective terms for ``params``.

    The population keeps the last set (unless ``keep`` is false), matched by
    identity, so every objective on one population with one parameter object
    evaluates these formulas once.
    """
    terms = pop._objective
    if terms is None or terms.params is not params:
        beta = np.where(pop.mask_a, params.beta_a, params.beta_b)
        theta = np.where(pop.mask_a, params.theta_a, params.theta_b)
        omega = np.where(pop.mask_a, params.omega_a, params.omega_b)
        shown = params.alpha * pop.p
        uptake_cost = -theta * pop.rho + omega * (1.0 - pop.rho)
        for arr in (shown, beta, uptake_cost):
            arr.flags.writeable = False
        terms = _Objective(params, shown, beta, uptake_cost)
        if keep:
            pop._objective = terms
    return terms


def _check_aligned(pop: Population, alloc: Allocation) -> np.ndarray:
    if len(alloc) != pop.size:
        raise ValueError(
            f"allocation length {len(alloc)} does not match population size {pop.size}"
        )
    return alloc.values


def economic_utility(pop: Population, alloc: Allocation, params: ModelParams) -> float:
    """Sum of per-user economic utilities, in ascending user-index order."""
    d = _check_aligned(pop, alloc)
    terms = _objective_terms(pop, params)
    return float((terms.shown * d + terms.beta * (1.0 - d)).sum())


def hermeneutical_cost(pop: Population, alloc: Allocation, params: ModelParams) -> float:
    """Sum of per-user interpretative costs, in ascending user-index order."""
    d = _check_aligned(pop, alloc)
    terms = _objective_terms(pop, params)
    return float((terms.uptake_cost * d + params.xi * (1.0 - d)).sum())


def herm_aware_utility(pop: Population, alloc: Allocation, params: ModelParams) -> float:
    """Combined objective: economic utility minus ``gamma`` times the cost sum.

    With ``gamma == 0`` this equals :func:`economic_utility` bit for bit (same
    summation order, and subtracting ``0.0 * cost`` is exact).
    """
    return economic_utility(pop, alloc, params) - params.gamma * hermeneutical_cost(
        pop, alloc, params
    )


def decision_gains(pop: Population, params: ModelParams) -> np.ndarray:
    """Per-user objective difference between showing and withholding.

    ``gain_x = alpha * p - beta_g + gamma * (theta_g * rho - omega_g * (1 - rho) + xi)``.
    The combined objective is ``sum(gain * d)`` plus a decision-independent
    constant, so the unconstrained optimum shows exactly the users with
    non-negative gain.  The returned array is read-only and shared by every
    call with the same population and parameter object; the objective's own
    terms are not kept for it, so a solve does not hold them.
    """
    cached = pop._gains
    if cached is None or cached[0] is not params:
        terms = _objective_terms(pop, params, keep=False)
        # xi - uptake_cost is bit for bit theta * rho - omega * (1 - rho) + xi:
        # rounding is symmetric, so -a + b is exactly -(a - b)
        gains = terms.shown - terms.beta + params.gamma * (params.xi - terms.uptake_cost)
        gains.flags.writeable = False
        cached = pop._gains = (params, gains)
    return cached[1]


def _share_gap(pop: Population, alloc: Allocation, column: str | None) -> float:
    """Group B's share of its ``column``-weighted mass that is shown, minus
    group A's; with ``column`` None, of its users."""
    d = _check_aligned(pop, alloc)
    mass_a, mass_b = _group_masses(pop, column)
    d_a, d_b = d[pop.mask_a], d[pop.mask_b]
    if column is not None:
        w_a, w_b = _group_slices(pop, column)
        d_a, d_b = d_a * w_a, d_b * w_b
    return float(d_b.sum()) / mass_b - float(d_a.sum()) / mass_a


def parity_gap(pop: Population, alloc: Allocation) -> float:
    """Difference in group-average exposure, group B minus group A.

    Positive values mean group B receives the ad at a higher rate than
    group A.
    """
    return _share_gap(pop, alloc, _SHARE_WEIGHTS["parity_exposure"])


def eo_gap(pop: Population, alloc: Allocation) -> float:
    """Difference in click-weighted exposure shares, group B minus group A.

    Each group's share is ``sum(d * p) / sum(p)`` over its members.
    """
    return _share_gap(pop, alloc, _SHARE_WEIGHTS["equality_opportunity"])


def eho_gap(pop: Population, alloc: Allocation) -> float:
    """Difference in uptake-weighted exposure shares, group B minus group A.

    Same ratio form as :func:`eo_gap` with ``rho`` in place of ``p``.
    """
    return _share_gap(pop, alloc, _SHARE_WEIGHTS["equality_herm_opportunity"])
