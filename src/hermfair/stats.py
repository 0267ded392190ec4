"""Categorical diagnostics for survey contingency tables.

Provides Wilson score intervals for binomial proportions, Pearson chi-squared
tests of independence with Cramer's V effect sizes, and conditional
proportion tables with per-cell intervals.

P-values are the chi-squared upper tail, also reported in log10 space, since
survey missingness tests can push them far below double-precision
readability.  A table's degrees of freedom k are an integer, so with
x = statistic / 2 the tail has a closed form of positive terms only
(Abramowitz and Stegun 26.4.4-26.4.5):

- even k: ``exp(-x) * sum_{j < k/2} x**j / j!``;
- odd k: ``erfc(sqrt(x)) + exp(-x) * sum_{j < (k-1)/2} x**(j+1/2) / Gamma(j+3/2)``.

The natural log of the tail is a log-sum-exp of those terms, in ``math``
only; the p-value is its ``exp`` and ``log10_p`` it over ln 10, so the two
agree.  It costs k/2 terms: ~1.3 ms at k = 10**4 and ~0.15 s at k = 10**6
(one x86 core, Python 3.11).  Against ``scipy.stats.chi2`` (dof 1-60, 99,
100, 199, 200, 999 and 1000, statistics from 1e-8 to 20 times the median)
the log tail is within 2.7e-14 relative where its magnitude is at least 1
and 1.8e-13 absolute below that, and the p-value within 5.8e-13 relative
where it is above 1e-300.  The Wilson quantile is
``statistics.NormalDist().inv_cdf`` (Wichura's AS 241), within 4 ulps of
``scipy.stats.norm.ppf``; ``statistics`` is imported at the first interval,
not with this module.
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
        p_value: upper-tail probability at ``statistic``, ``exp`` of the
            closed-form log tail (see the module docstring: dof/2 terms,
            within 5.8e-13 relative of ``scipy.stats.chi2.sf``).
        log10_p: base-10 log of the p-value, the same log tail over ln 10,
            so finite even when ``p_value`` underflows to zero.
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


def _log_chi2_tail(statistic: float, dof: int) -> float:
    """Natural log of the chi-squared upper tail at an integer ``dof``,
    finite for any finite statistic.

    A log-sum-exp of the closed form's dof/2 positive terms (module
    docstring), each term's log taken directly, so nothing underflows.
    ``erfc(sqrt(x))`` underflows at x above ~705; from x = 700 on, its log
    comes from the asymptotic series
    ``erfc(t) = exp(-t*t) / (t*sqrt(pi)) * (1 - 1/(2t^2) + 3/(2t^2)^2 - ...)``,
    which reaches double precision within ten terms there.
    """
    if statistic <= 0.0:
        return 0.0
    x = statistic / 2.0
    log_x = math.log(x)
    h = 0.5 * (dof % 2)  # odd dof: the powers of x are half-integers
    logs = [(j + h) * log_x - x - math.lgamma(j + h + 1.0) for j in range(dof // 2)]
    if h and x < 700.0:
        logs.append(math.log(math.erfc(math.sqrt(x))))
    elif h:
        series, term, n = 1.0, 1.0, 1
        while abs(term) > 1e-17:
            term *= (0.5 - n) / x
            series += term
            n += 1
        logs.append(math.log(series) - x - 0.5 * (log_x + math.log(math.pi)))
    top = max(logs)
    return top + math.log(sum([math.exp(v - top) for v in logs]))


def _is_count(value) -> bool:
    """The module's integer rule: integral floats pass, bools do not."""
    return not isinstance(value, bool) and (
        isinstance(value, (int, np.integer)) or (isinstance(value, float) and value.is_integer()))


def _check_count(name: str, value) -> None:
    if not _is_count(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_confidence(confidence) -> float:
    """``confidence`` as a Python float of the same value, so a numpy
    scalar's width reaches neither the quantile nor the stored interval."""
    if not isinstance(confidence, float):  # a float NaN or infinity gets the range message
        confidence = _real("confidence", confidence)
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    return float(confidence)


def _z(confidence: float) -> float:
    """Two-sided normal quantile for ``confidence``."""
    from statistics import NormalDist

    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


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
    confidence = _check_confidence(confidence)
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
    log_p = _log_chi2_tail(statistic, dof)
    cramers_v = math.sqrt(statistic / (n * min(obs.shape[0] - 1, obs.shape[1] - 1)))
    return Chi2Result(
        statistic=statistic,
        dof=int(dof),
        p_value=math.exp(log_p),
        log10_p=log_p / math.log(10.0),
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
    confidence = _check_confidence(confidence)
    z = _z(confidence)
    counts = table.counts if axis == "rows" else table.counts.T
    # a table's counts are checked integers, its totals at most 2**53 and
    # non-zero, so Python ints go straight to the arithmetic
    cells = [[_wilson(c, nn, z, confidence) for c in line]
             for line, nn in zip(counts.tolist(), counts.sum(axis=1).tolist())]
    return cells if axis == "rows" else [list(row) for row in zip(*cells)]


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
