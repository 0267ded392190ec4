"""Categorical diagnostics for survey contingency tables.

Provides Wilson score intervals for binomial proportions, Pearson chi-squared
tests of independence with Cramer's V effect sizes, and conditional
proportion tables with per-cell intervals.

P-values come from the regularized incomplete gamma function (the
chi-squared upper tail) and are also reported in log10 space, since survey
missingness tests can push them far below double-precision readability.
They and the Wilson quantile call ``scipy.special`` ufuncs with the branches
``scipy.stats`` takes, so they give its bits without its dispatch cost.
``scipy.special`` is imported when a statistic first runs, not with this
module.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._textio import ascii_number, open_text, write_csv
from .model import _real

__all__ = [
    "ContingencyTable",
    "WilsonInterval",
    "Chi2Result",
    "wilson_interval",
    "chi2_independence",
    "conditional_proportions",
    "table_from_csv",
    "table_to_csv",
    "MAX_TOTAL",
]


@dataclass(frozen=True)
class WilsonInterval:
    """A binomial proportion with its Wilson score confidence interval.

    ``point`` is the raw sample proportion; the Wilson interval always
    contains it.
    """

    point: float
    lo: float
    hi: float
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if not (0.0 <= self.lo <= self.point <= self.hi <= 1.0):
            raise ValueError(
                f"interval must satisfy 0 <= lo <= point <= hi <= 1, "
                f"got ({self.lo}, {self.point}, {self.hi})"
            )


@dataclass(frozen=True)
class Chi2Result:
    """Outcome of a Pearson chi-squared independence test.

    Attributes:
        statistic: the chi-squared statistic (continuity-corrected for 2x2
            tables unless overridden).
        dof: degrees of freedom, (rows - 1) * (cols - 1).
        p_value: upper-tail probability at ``statistic``.
        log10_p: base-10 log of the p-value, finite even when ``p_value``
            underflows to zero.
        cramers_v: sqrt(chi2 / (n * min(rows - 1, cols - 1))).
        expected: matrix of expected counts under independence.
    """

    statistic: float
    dof: int
    p_value: float
    log10_p: float
    cramers_v: float
    expected: np.ndarray


# Largest grand total: every integer up to it is exact in float64.
MAX_TOTAL = 2**53


class ContingencyTable:
    """A labelled matrix of non-negative integer counts, at least 2x2.

    All-zero rows or columns are rejected: their expected counts under
    independence would be zero and the test statistic undefined.  So is a
    grand total above ``MAX_TOTAL``.
    """

    __slots__ = ("row_labels", "col_labels", "counts")

    def __init__(self, counts, row_labels=None, col_labels=None):
        # the cells as given (a bool is not promoted to an int), as Python
        # numbers for an array's cells, so the checks cannot wrap as int64 does
        arr = np.asarray(counts, dtype=object)
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
            raise ValueError("counts must form a matrix with at least 2 rows and 2 columns")
        cells = arr.ravel().tolist()
        if not all(map(_is_count, cells)):
            raise ValueError("counts must be integers")
        if min(cells) < 0:
            raise ValueError("counts must be non-negative")
        total = sum(map(int, cells))
        if total < 1:
            raise ValueError("grand total must be at least 1")
        if total > MAX_TOTAL:
            raise ValueError(
                f"grand total {total} is above 2**53, where float64 (used by the "
                f"chi-squared test) stops being exact"
            )
        arr = np.array(cells, dtype=np.int64).reshape(arr.shape)
        if (arr.sum(axis=1) == 0).any():
            raise ValueError("table has an all-zero row")
        if (arr.sum(axis=0) == 0).any():
            raise ValueError("table has an all-zero column")
        arr.flags.writeable = False
        self.counts = arr
        self.row_labels = tuple(
            row_labels if row_labels is not None else (f"row{i}" for i in range(arr.shape[0]))
        )
        self.col_labels = tuple(
            col_labels if col_labels is not None else (f"col{j}" for j in range(arr.shape[1]))
        )
        if len(self.row_labels) != arr.shape[0] or len(self.col_labels) != arr.shape[1]:
            raise ValueError("label lengths must match the count matrix shape")

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(self.counts.shape)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __repr__(self) -> str:
        return f"ContingencyTable(shape={self.shape}, total={self.total})"


def _log10_chi2_tail(statistic: float, dof: int) -> float:
    """Base-10 log of the chi-squared upper tail, finite for any finite statistic.

    Computes the natural log as ``scipy.stats.chi2.logsf`` does: the log of
    the upper tail above the median, ``log1p`` of minus the lower tail at or
    below it.  Once the tail underflows it switches to the asymptotic
    expansion of the upper incomplete gamma (statistic far beyond dof,
    exactly where the expansion converges fast).
    """
    if statistic <= 0.0:
        return 0.0
    from scipy.special import chdtr, chdtrc, gammaincinv

    with np.errstate(divide="ignore"):
        if statistic > 2.0 * gammaincinv(dof / 2.0, 0.5):
            log_sf = float(np.log(chdtrc(dof, statistic)))
        else:
            log_sf = float(np.log1p(-chdtr(dof, statistic)))
    if math.isfinite(log_sf):
        return log_sf / math.log(10.0)
    a = dof / 2.0
    x = statistic / 2.0
    series = 1.0
    term = 1.0
    for i in range(1, 12):
        term *= (a - i) / x
        series += term
        if abs(term) < 1e-16 * series:
            break
    return (-x + (a - 1.0) * math.log(x) - math.lgamma(a) + math.log(series)) / math.log(10.0)


def _is_count(value) -> bool:
    """The module's integer rule: integral floats pass, bools do not."""
    return not isinstance(value, bool) and (
        isinstance(value, (int, np.integer)) or (isinstance(value, float) and value.is_integer()))


def _check_count(name: str, value) -> None:
    if not _is_count(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_confidence(confidence: float) -> None:
    if not isinstance(confidence, float):  # a float NaN or infinity gets the range message
        _real("confidence", confidence)
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")


def _z(confidence: float) -> float:
    """Two-sided normal quantile for ``confidence``, as ``scipy.stats.norm.ppf`` gives it."""
    from scipy.special import ndtri

    return float(ndtri(0.5 + confidence / 2.0))


def _wilson(successes: int, n: int, z: float, confidence: float) -> WilsonInterval:
    """Wilson score interval from checked counts and the quantile ``z``."""
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    # the score interval contains phat; the min/max guard is against rounding
    # at the 0 and 1 boundaries where center and half cancel exactly
    lo = min(max(0.0, center - half), phat)
    hi = max(min(1.0, center + half), phat)
    return WilsonInterval(point=phat, lo=lo, hi=hi, confidence=confidence)


def wilson_interval(
    successes: int, n: int, confidence: float = WilsonInterval.confidence
) -> WilsonInterval:
    """Wilson score interval for a binomial proportion.

    Args:
        successes: number of successes, 0 <= successes <= n.
        n: number of trials, n >= 1.
        confidence: two-sided coverage level in (0, 1).

    Returns:
        WilsonInterval with the raw proportion and score bounds.

    Raises:
        ValueError: a count that is not an integer (bools included) or out of
            range, a confidence that is not a real number (a string, a bool,
            None), or one outside (0, 1).
    """
    _check_count("successes", successes)
    _check_count("n", n)
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    _check_confidence(confidence)
    return _wilson(successes, n, _z(confidence), confidence)


def chi2_independence(
    table: ContingencyTable, correction: bool | str = "auto"
) -> Chi2Result:
    """Pearson chi-squared test of independence with Cramer's V.

    Args:
        table: contingency table of observed counts.
        correction: Yates continuity correction policy. ``"auto"`` (default)
            applies it exactly for 2x2 tables, the convention under which the
            survey diagnostics were reported; ``True``/``False`` force it.

    Returns:
        Chi2Result; ``cramers_v`` is computed from the same (possibly
        corrected) statistic.

    Raises:
        ValueError: ``correction`` is not ``"auto"``, ``True`` or ``False``.
    """
    from scipy.special import chdtrc

    obs = table.counts.astype(np.float64)
    n = obs.sum()
    expected = np.outer(obs.sum(axis=1), obs.sum(axis=0)) / n
    dof = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    if isinstance(correction, str) and correction == "auto":
        correction = dof == 1
    elif not isinstance(correction, bool):
        raise ValueError(f"correction must be 'auto', True or False, got {correction!r}")
    resid = np.abs(obs - expected)
    if correction:
        resid = np.maximum(resid - 0.5, 0.0)
    statistic = float(np.sum(resid**2 / expected))
    p_value = float(chdtrc(dof, statistic))
    log10_p = _log10_chi2_tail(statistic, dof)
    cramers_v = math.sqrt(statistic / (n * min(obs.shape[0] - 1, obs.shape[1] - 1)))
    return Chi2Result(
        statistic=statistic,
        dof=int(dof),
        p_value=p_value,
        log10_p=log10_p,
        cramers_v=cramers_v,
        expected=expected,
    )


def conditional_proportions(
    table: ContingencyTable, axis: str = "rows", confidence: float = WilsonInterval.confidence
) -> list[list[WilsonInterval]]:
    """Per-cell conditional proportions with Wilson intervals.

    With ``axis="rows"`` each cell is divided by its row total and the
    interval treats that row total as the number of trials; ``axis="cols"``
    conditions on columns instead.  Each cell equals ``wilson_interval`` of
    its count, its total and ``confidence``; the totals and the normal
    quantile are computed once per table, not once per cell.

    Returns:
        A matrix (list of rows) of WilsonInterval objects, shaped like the
        input table.

    Raises:
        ValueError: ``axis`` is not ``"rows"`` or ``"cols"``, or a confidence
            that is not a real number or lies outside (0, 1).
    """
    if axis not in ("rows", "cols"):
        raise ValueError("axis must be 'rows' or 'cols'")
    _check_confidence(confidence)
    z = _z(confidence)
    counts = table.counts
    # a table's counts are checked integers, its totals at most 2**53 and
    # non-zero, so Python ints go straight to the arithmetic
    totals = counts.sum(axis=1 if axis == "rows" else 0).tolist()
    if axis == "rows":
        return [[_wilson(c, nn, z, confidence) for c in row]
                for row, nn in zip(counts.tolist(), totals)]
    return [[_wilson(c, nn, z, confidence) for c, nn in zip(row, totals)]
            for row in counts.tolist()]


def table_from_csv(path: str | Path | io.TextIOBase) -> ContingencyTable:
    """Read a labelled contingency table.

    Expected layout: first row is a header whose first cell is ignored and
    whose remaining cells are column labels; each following row starts with
    its row label followed by non-negative integer counts, written in ASCII
    digits without digit-group underscores.  Labels are stripped of
    surrounding whitespace.
    """
    with open_text(path, "r") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty contingency table CSV") from None
        if len(header) < 3:
            raise ValueError("header must list at least two column labels")
        col_labels = [h.strip() for h in header[1:]]
        row_labels: list[str] = []
        rows: list[list[int]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"line {lineno}: expected {len(header)} columns, got {len(row)}"
                )
            row_labels.append(row[0].strip())
            values: list[int] = []
            for cell in row[1:]:
                cell = cell.strip()
                try:
                    value = ascii_number(cell, int)
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: counts must be non-negative integers, got {cell!r}"
                    ) from None
                if value < 0:
                    raise ValueError(f"line {lineno}: counts must be non-negative")
                values.append(value)
            rows.append(values)
        if len(rows) < 2:
            raise ValueError("contingency table needs at least two data rows")
        return ContingencyTable(np.array(rows), row_labels, col_labels)


def table_to_csv(table: ContingencyTable, path: str | Path | io.TextIOBase) -> None:
    """Write a table in the same labelled layout accepted by table_from_csv."""
    write_csv(path, ["", *table.col_labels], (
        [label, *row] for label, row in zip(table.row_labels, table.counts.tolist())))
