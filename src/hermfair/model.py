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
import numbers
import reprlib
from dataclasses import dataclass, field
from functools import cached_property
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


def _real(name: str, value) -> float:
    """``value`` as a float; a bool, a string, a NaN, an infinity or an int
    beyond the float range is not a finite number here."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        ok = ok and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite number, got {reprlib.repr(value)}")
    return float(value)


def _integer(name: str, value) -> int:
    """``value`` itself; a bool or an integral float is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return value


class Population:
    """An ordered collection of users split into the two protected groups.

    Stored as aligned read-only numpy arrays (``groups``, ``p``, ``rho``) so
    that objective and gap evaluations vectorize; build one with
    :meth:`from_arrays`.  Both groups must be non-empty; group ratios are
    undefined otherwise.

    Apart from its data a population has one private slot: the solve
    context (``_Context``) of the last :class:`ModelParams` object it was
    solved with, which holds what that object's solves share, each
    full-length array once, and the gap rows that every parameter object's
    solves share.  Equality ignores it.
    """

    __slots__ = ("groups", "p", "rho", "mask_a", "mask_b", "n_a", "n_b", "_context")

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
        self._context = None
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
            object.__setattr__(self, name, _real(name, getattr(self, name)))
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
    policy); :meth:`binary` also requires every decision to be 0 or 1.  Both
    check and copy what they are given.  An allocation the solver made comes
    only through :meth:`_trusted`, from ``hermfair.solver._build_result``
    and from the solve context's threshold allocation.
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

    @classmethod
    def _trusted(cls, values: np.ndarray) -> "Allocation":
        """An allocation of ``values`` itself, unchecked and uncopied: a new
        1-d float64 array in [0, 1] that nothing else holds, made read-only
        here."""
        values.flags.writeable = False
        alloc = object.__new__(cls)
        object.__setattr__(alloc, "values", values)
        return alloc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return np.array_equal(self.values, other.values)

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

# The sign of every gap the library reports (see :meth:`_Context.share_gap`),
# as each output file's ``gap_orientation`` field states it.
GAP_ORIENTATION = "group A minus group B"


@dataclass(frozen=True)
class ConstraintSet:
    """Which group-equality constraints an allocation must satisfy.

    ``tolerance`` is the maximum absolute gap accepted as "equal".
    ``active`` holds the switched-on constraint fields, in ``_SHARE_WEIGHTS``
    order; it is computed once, and equality ignores it.
    """

    parity_exposure: bool = False
    equality_opportunity: bool = False
    equality_herm_opportunity: bool = False
    tolerance: float = 1e-6
    active: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tol = _real("tolerance", self.tolerance)
        if tol < 0.0:
            raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")
        object.__setattr__(self, "tolerance", tol)
        object.__setattr__(
            self, "active", tuple(name for name in _SHARE_WEIGHTS if getattr(self, name))
        )

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
    def any_active(self) -> bool:
        return bool(self.active)


class _Objective(NamedTuple):
    """Per-user terms of the objective for one parameter object, read-only."""

    params: ModelParams
    shown: np.ndarray  # alpha * p
    beta: np.ndarray
    uptake_cost: np.ndarray  # -theta * rho + omega * (1 - rho)


# A gap row within this distance of an earlier retained row is dropped.
_DEDUP_EPS = 1e-12


class _Scored(NamedTuple):
    """An allocation, its objective and its three gaps in ``_SHARE_WEIGHTS``
    order: what a solve result holds apart from its request."""

    allocation: Allocation
    objective: float
    gaps: tuple[float, float, float]


class _PopulationRows:
    """The part of a population's solve context that reads no parameters:
    the group masses, the gap rows (one read-only block, with a view of it
    by constraint name), and the names retained for each
    ``ConstraintSet.active`` with their matrix.  A population's contexts
    hand it on (:func:`_context`), so it lives as long as the population
    and its rows, at most three floats per user, serve every parameter
    object it is solved with."""

    __slots__ = ("masses", "block", "rows", "retained", "matrices")

    def __init__(self, pop: Population) -> None:
        self.masses: dict[str | None, tuple[float, float]] = {
            None: (float(pop.n_a), float(pop.n_b))}
        self.block: np.ndarray | None = None
        self.rows: dict[str, np.ndarray] = {}
        self.retained: dict[tuple[str, ...], tuple[str, ...]] = {}
        self.matrices: dict[tuple[str, ...], np.ndarray] = {}


class _Context:
    """What the solves of one population under one parameter object share,
    each part computed on first use and read-only: the objective's per-user
    terms, the gains and the threshold allocation (show iff the gain is
    ``>= 0``), as decisions and scored.  The masses and the gap rows, which
    do not read ``params``, are the population's (``shared``, a
    :class:`_PopulationRows`); the methods below build them there.

    Every solve scores its result here (:meth:`score`), and the threshold
    rule is written here only: the engines read ``threshold_values`` and
    every exit at the threshold returns ``threshold``.

    A population holds only its last context (:func:`_context`), so it holds
    one parameter set's arrays at most, each once: the gains, three terms,
    and the threshold decisions and allocation, 9.6 MB at 2x10^5 users,
    beside its rows (4.8 MB).  The public model functions build a context
    no population holds.  A context refers to the population's arrays, not
    to the population, so the two form no reference cycle.
    """

    def __init__(
        self, pop: Population, params: ModelParams | None,
        shared: _PopulationRows | None = None,
    ) -> None:
        self.params = params
        self.p, self.rho, self.mask_a, self.mask_b = pop.p, pop.rho, pop.mask_a, pop.mask_b
        self.shared = _PopulationRows(pop) if shared is None else shared

    # The population-level state, as the methods below read it.
    _masses = property(lambda self: self.shared.masses)
    _rows = property(lambda self: self.shared.rows)
    _retained = property(lambda self: self.shared.retained)
    _matrices = property(lambda self: self.shared.matrices)

    def _objective(self) -> _Objective:
        params = self.params
        beta = np.where(self.mask_a, params.beta_a, params.beta_b)
        theta = np.where(self.mask_a, params.theta_a, params.theta_b)
        omega = np.where(self.mask_a, params.omega_a, params.omega_b)
        shown = params.alpha * self.p
        uptake_cost = -theta * self.rho + omega * (1.0 - self.rho)
        for arr in (shown, beta, uptake_cost):
            arr.flags.writeable = False
        return _Objective(params, shown, beta, uptake_cost)

    @cached_property
    def terms(self) -> _Objective:
        return self._objective()

    @cached_property
    def gains(self) -> np.ndarray:
        """:func:`decision_gains`, from terms that are not kept: a solve
        holds the terms only once it scores a result."""
        terms, params = self._objective(), self.params
        # xi - uptake_cost is bit for bit theta * rho - omega * (1 - rho) + xi:
        # rounding is symmetric, so -a + b is exactly -(a - b)
        gains = terms.shown - terms.beta + params.gamma * (params.xi - terms.uptake_cost)
        gains.flags.writeable = False
        return gains

    def masses(self, column: str | None) -> tuple[float, float]:
        """The totals of ``column`` (``"p"`` or ``"rho"``) over group A and
        over group B, summed in user order; the group sizes for None.  A
        zero total raises DegenerateGroupError on every call."""
        masses = self._masses.get(column)
        if masses is None:
            w = getattr(self, column)
            masses = self._masses[column] = (
                float(w[self.mask_a].sum()), float(w[self.mask_b].sum()))
        if masses[0] <= 0.0 or masses[1] <= 0.0:
            raise DegenerateGroupError(
                f"a group has zero total {column}, so its {column}-weighted shares are undefined"
            )
        return masses

    def share_gap(self, d_a: np.ndarray, d_b: np.ndarray, column: str | None) -> float:
        """Group A's share of its ``column``-weighted mass that is shown, minus
        group B's (of its users for None), from each group's decisions."""
        mass_a, mass_b = self.masses(column)
        if column is not None:
            w = getattr(self, column)
            d_a, d_b = d_a * w[self.mask_a], d_b * w[self.mask_b]
        return float(d_a.sum()) / mass_a - float(d_b.sum()) / mass_b

    def _gap_row(self, name: str) -> np.ndarray:
        """Group A users carry ``-w / mass_a``, group B users ``w / mass_b``."""
        column = _SHARE_WEIGHTS[name]
        mass_a, mass_b = self.masses(column)
        weights = 1.0 if column is None else getattr(self, column)
        row = np.where(self.mask_a, -weights / mass_a, weights / mass_b)
        row.flags.writeable = False
        return row

    def rows(self, active: tuple[str, ...]) -> tuple[tuple[str, ...], np.ndarray]:
        """The retained names of the ``active`` gap rows and their matrix, a
        read-only view of the population's one block of rows that every
        later request for those names shares, whatever its parameters; a row
        equal to an earlier one is not retained.

        The block holds every row built so far, in ``_SHARE_WEIGHTS`` order,
        and each kept row is a view into it.  A request that needs a new row
        replaces the block by one of the kept rows and the new ones.  Rows
        are kept only once all of ``active`` is built, so a degenerate group
        (which raises) keeps none."""
        names = self._retained.get(active)
        if names is None:
            if not set(active) <= self._rows.keys():
                self._extend(active)
            kept: list[str] = []
            for name in active:
                row = self._rows[name]
                if not any(np.abs(self._rows[k] - row).max() <= _DEDUP_EPS for k in kept):
                    kept.append(name)
            names = self._retained[active] = tuple(kept)
        matrix = self._matrices.get(names)
        if matrix is None:
            matrix = self._matrices[names] = self._matrix(names)
        return names, matrix

    def _matrix(self, names: tuple[str, ...]) -> np.ndarray:
        """The rows of ``names`` as a view of the block: at most three rows
        in block order are evenly spaced."""
        if not names:
            matrix = np.empty((0, self.p.size))
            matrix.flags.writeable = False
            return matrix
        built = list(self._rows)
        first, last = built.index(names[0]), built.index(names[-1])
        step = (last - first) // (len(names) - 1) if len(names) > 1 else 1
        return self.shared.block[first:last + 1:step]

    def _extend(self, active: tuple[str, ...]) -> None:
        """Replace the block by one of the kept rows and those of ``active``,
        each built into it in turn; a degenerate group raises before
        anything is kept."""
        built = [name for name in _SHARE_WEIGHTS if name in self._rows or name in active]
        block = np.empty((len(built), self.p.size))
        for i, name in enumerate(built):
            block[i] = self._rows[name] if name in self._rows else self._gap_row(name)
        block.flags.writeable = False
        shared = self.shared
        shared.block, shared.rows, shared.matrices = block, dict(zip(built, block)), {}

    @cached_property
    def threshold_values(self) -> np.ndarray:
        """The threshold allocation's decisions: 1.0 iff the gain is ``>= 0``."""
        values = (self.gains >= 0.0).astype(np.float64)
        values.flags.writeable = False
        return values

    @cached_property
    def threshold(self) -> _Scored:
        """The threshold allocation, scored."""
        return self.score(Allocation._trusted(self.threshold_values.copy()))

    def score(self, alloc: Allocation) -> _Scored:
        """``alloc`` with :func:`herm_aware_utility` and the three gap
        functions of its decisions, in one pass: each group's decisions and
        ``1 - d`` are gathered once, and every value is bit for bit what the
        public function returns.  A gap whose weight column sums to zero over
        a group is NaN."""
        d = alloc.values
        objective = _utility(self.terms, d, 1.0 - d)
        d_a, d_b = d[self.mask_a], d[self.mask_b]
        gaps = []
        for column in _SHARE_WEIGHTS.values():
            try:
                gaps.append(self.share_gap(d_a, d_b, column))
            except DegenerateGroupError:
                gaps.append(math.nan)
        return _Scored(alloc, objective, tuple(gaps))


def _context(pop: Population, params: ModelParams) -> _Context:
    """The population's context for ``params``, matched by identity; a new
    one replaces the last and takes over its masses and rows."""
    ctx = pop._context
    if ctx is None or ctx.params is not params:
        ctx = pop._context = _Context(pop, params, None if ctx is None else ctx.shared)
    return ctx


def _check_aligned(pop: Population, alloc: Allocation) -> np.ndarray:
    if len(alloc) != pop.size:
        raise ValueError(
            f"allocation length {len(alloc)} does not match population size {pop.size}"
        )
    return alloc.values


def _economic(terms: _Objective, d: np.ndarray, withheld: np.ndarray) -> float:
    return float((terms.shown * d + terms.beta * withheld).sum())


def _cost(terms: _Objective, d: np.ndarray, withheld: np.ndarray) -> float:
    return float((terms.uptake_cost * d + terms.params.xi * withheld).sum())


def _utility(terms: _Objective, d: np.ndarray, withheld: np.ndarray) -> float:
    return _economic(terms, d, withheld) - terms.params.gamma * _cost(terms, d, withheld)


def economic_utility(pop: Population, alloc: Allocation, params: ModelParams) -> float:
    """Sum of per-user economic utilities, in ascending user-index order."""
    d = _check_aligned(pop, alloc)
    return _economic(_Context(pop, params).terms, d, 1.0 - d)


def hermeneutical_cost(pop: Population, alloc: Allocation, params: ModelParams) -> float:
    """Sum of per-user interpretative costs, in ascending user-index order."""
    d = _check_aligned(pop, alloc)
    return _cost(_Context(pop, params).terms, d, 1.0 - d)


def herm_aware_utility(pop: Population, alloc: Allocation, params: ModelParams) -> float:
    """Combined objective: economic utility minus ``gamma`` times the cost sum.

    With ``gamma == 0`` this equals :func:`economic_utility` bit for bit (same
    summation order, and subtracting ``0.0 * cost`` is exact).
    """
    d = _check_aligned(pop, alloc)
    return _utility(_Context(pop, params).terms, d, 1.0 - d)


def decision_gains(pop: Population, params: ModelParams) -> np.ndarray:
    """Per-user objective difference between showing and withholding.

    ``gain_x = alpha * p - beta_g + gamma * (theta_g * rho - omega_g * (1 - rho) + xi)``.
    The combined objective is ``sum(gain * d)`` plus a decision-independent
    constant, so the unconstrained optimum shows exactly the users with
    non-negative gain.  The returned array is read-only and computed on
    every call; a solve reads its gains from the population's context.
    """
    return _Context(pop, params).gains


def _column_gap(pop: Population, alloc: Allocation, column: str | None) -> float:
    d = _check_aligned(pop, alloc)
    return _Context(pop, None).share_gap(d[pop.mask_a], d[pop.mask_b], column)


def parity_gap(pop: Population, alloc: Allocation) -> float:
    """Difference in group-average exposure, group A minus group B.

    Positive values mean group A receives the ad at a higher rate than
    group B.
    """
    return _column_gap(pop, alloc, _SHARE_WEIGHTS["parity_exposure"])


def eo_gap(pop: Population, alloc: Allocation) -> float:
    """Difference in click-weighted exposure shares, group A minus group B.

    Each group's share is ``sum(d * p) / sum(p)`` over its members.
    """
    return _column_gap(pop, alloc, _SHARE_WEIGHTS["equality_opportunity"])


def eho_gap(pop: Population, alloc: Allocation) -> float:
    """Difference in uptake-weighted exposure shares, group A minus group B.

    Same ratio form as :func:`eo_gap` with ``rho`` in place of ``p``.
    """
    return _column_gap(pop, alloc, _SHARE_WEIGHTS["equality_herm_opportunity"])
