"""Seeded synthetic populations: Beta-distributed uptake, power-law clicks.

Click probabilities follow ``p = u ** (1/k)`` with ``u ~ Uniform(0, 1)`` and a
group coefficient ``k`` (mean ``k / (1 + k)``, about 0.048 at the default
:class:`ClickConfig`), a heavy mass near zero consistent with click-through rates.
This is one reading of a "power law with coefficient k"; alternatives can be
added behind :class:`ClickConfig`.

Sampling is deterministic given the seed carried by the population spec.
The generator is numpy's
PCG64 (:data:`RNG_STREAM`); record the numpy version alongside seeds when
archiving results, since distribution algorithms are pinned per release.
When ``1/k`` is an integer up to 64 (``k = 0.05`` gives 20) the clicks are
raised by products, so they have the same bits on every SIMD kernel numpy
may pick at run time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NoReturn

import numpy as np

from . import _textio
from ._textio import open_text
from .model import Population, _integer, _real

__all__ = [
    "RNG_STREAM",
    "MAX_GROUP_SIZE",
    "UptakeConfig",
    "ClickConfig",
    "PopulationSpec",
    "sample_population",
    "subseed",
    "population_to_csv",
    "allocation_to_csv",
    "population_from_csv",
]

RNG_STREAM = "numpy-pcg64"

# Ceiling on the users per group, checked before any draw: a population of
# two such groups holds ~44 MB of arrays.
MAX_GROUP_SIZE = 1_000_000

POPULATION_CSV_HEADER = ("group", "p", "rho")
ALLOCATION_CSV_HEADER = (*POPULATION_CSV_HEADER, "decision")


def _check_shape(name: str, value: float) -> float:
    value = _real(name, value)
    if not value > 0.0:
        raise ValueError(f"{name} must be a positive finite shape, got {value!r}")
    return value


@dataclass(frozen=True)
class UptakeConfig:
    """Beta shape pairs for the per-group uptake probability distributions."""

    beta_a: tuple[float, float]
    beta_b: tuple[float, float]

    def __post_init__(self) -> None:
        for label, pair in (("beta_a", self.beta_a), ("beta_b", self.beta_b)):
            pair = (_check_shape(f"{label}[0]", pair[0]), _check_shape(f"{label}[1]", pair[1]))
            object.__setattr__(self, label, pair)


@dataclass(frozen=True)
class ClickConfig:
    """Per-group power-law coefficients for click probabilities."""

    k_a: float = 0.05
    k_b: float = k_a

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_a", _check_shape("k_a", self.k_a))
        object.__setattr__(self, "k_b", _check_shape("k_b", self.k_b))


@dataclass(frozen=True)
class PopulationSpec:
    """Everything needed to draw one synthetic population deterministically."""

    n_a: int
    n_b: int
    uptake: UptakeConfig
    click: ClickConfig = ClickConfig()
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_a", "n_b", "seed"):
            _integer(name, getattr(self, name))
        if self.n_a < 1 or self.n_b < 1:
            raise ValueError(f"group sizes must be at least 1, got {self.n_a} and {self.n_b}")
        if max(self.n_a, self.n_b) > MAX_GROUP_SIZE:
            raise ValueError(
                f"group sizes {self.n_a} and {self.n_b}: more than the ceiling of "
                f"{MAX_GROUP_SIZE} users per group"
            )
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def _click_sample(k: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """``u ** (1/k)`` for ``size`` uniform draws ``u``.

    When ``1/k`` is an integer from 1 to 64 the power is taken by
    right-to-left binary powering (for 20: u^2, u^4, u^8, u^16,
    then u^4 * u^16).  IEEE 754 rounds each product correctly, so the draws
    have the same bits on every SIMD kernel numpy may pick, which ``**``
    does not promise.  Any other ``k`` keeps ``**``.
    """
    u = rng.random(size)
    exponent = 1.0 / k
    if not (exponent.is_integer() and 1 <= exponent <= 64):
        return u ** exponent
    n, power = int(exponent), None
    while True:
        if n & 1:
            power = u if power is None else power * u
        n >>= 1
        if not n:
            return power
        u = u * u


def sample_population(spec: PopulationSpec) -> Population:
    """Sample a population: group-A users first, then group-B.

    Draw order is fixed (rho then p, group A then group B) so identical specs
    give bit-identical populations.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    rho_a = rng.beta(*spec.uptake.beta_a, size=spec.n_a)
    p_a = _click_sample(spec.click.k_a, rng, spec.n_a)
    rho_b = rng.beta(*spec.uptake.beta_b, size=spec.n_b)
    p_b = _click_sample(spec.click.k_b, rng, spec.n_b)
    groups = np.concatenate([np.full(spec.n_a, "A"), np.full(spec.n_b, "B")])
    # p is u ** (1 / k) for u in [0, 1), and a Beta draw lies in [0, 1]:
    # Population.from_arrays checks both ranges
    p = np.concatenate([p_a, p_b])
    rho = np.concatenate([rho_a, rho_b])
    return Population.from_arrays(groups, p, rho)


def subseed(base_seed: int, *path: int) -> int:
    """Derive a 64-bit sub-seed for one part of a larger experiment.

    Distinct ``path`` tuples give statistically independent streams, and the
    derivation is stable, so resampling one part never perturbs another.  A
    sweep seeds replication ``rep``'s one population with
    ``subseed(base_seed, 0, rep)``.
    """
    ss = np.random.SeedSequence([int(base_seed), *[int(x) for x in path]])
    return int(ss.generate_state(1, np.uint64)[0])


# A file is read and written in one range of rows per usable CPU, but in no
# more ranges than chunks of this many rows.
_WRITE_CHUNK_ROWS = 1 << 16
# Rows formatted per ``write`` call: the writing process's memory grows
# neither with n nor with a range (a forked child still holds the text of
# its range until it is read).
_WRITE_PIECE_ROWS = 1 << 13


def _write_csv(
    path: str | Path | io.TextIOBase, header: tuple[str, ...], groups: np.ndarray,
    *columns: np.ndarray,
) -> None:
    """Write ``header``, then one ``group,x,...`` row per user.

    Floats carry 17 significant digits and lines end in ``\\r\\n``: the bytes
    ``csv.writer`` gives for the same rows (labels are ``A``/``B``, which it
    never quotes).  A file of more than one chunk of rows is cut into one
    range per usable CPU, formatted on every one (``_textio.forked_map``) and
    written in order.  Each range is formatted in pieces of
    ``_WRITE_PIECE_ROWS`` rows, one ``%`` operation each, so the calling
    process holds one piece's floats and text at a time.
    """
    width = 1 + len(columns)
    row = "%s" + ",%.17g" * len(columns) + "\r\n"

    def format_rows(start: int, stop: int) -> Iterator[str]:
        for lo in range(start, stop, _WRITE_PIECE_ROWS):
            hi = min(lo + _WRITE_PIECE_ROWS, stop)
            cells = [None] * (width * (hi - lo))
            cells[0::width] = groups[lo:hi].tolist()
            for k, column in enumerate(columns, start=1):
                cells[k::width] = column[lo:hi].tolist()
            yield (row * (hi - lo)) % tuple(cells)

    ranges = _textio.row_ranges(groups.size, _WRITE_CHUNK_ROWS)
    with open_text(path, "w") as fh, contextlib.closing(
        _textio.forked_map(format_rows, ranges)
    ) as chunks:
        fh.write(",".join(header) + "\r\n")
        for chunk in chunks:
            fh.write(chunk)


def population_to_csv(pop: Population, path: str | Path | io.TextIOBase) -> None:
    """Write ``group,p,rho`` rows; floats carry 17 significant digits."""
    _write_csv(path, POPULATION_CSV_HEADER, pop.groups, pop.p, pop.rho)


def allocation_to_csv(
    pop: Population, decision: np.ndarray, path: str | Path | io.TextIOBase
) -> None:
    """Write ``group,p,rho,decision`` rows, in the format of :func:`population_to_csv`."""
    decision = np.asarray(decision, dtype=np.float64)
    if decision.shape != pop.p.shape:
        raise ValueError("decision must hold one value per user")
    _write_csv(path, ALLOCATION_CSV_HEADER, pop.groups, pop.p, pop.rho, decision)


# One user row as the columnar reader parses it; labels stay whole (a sized
# string field would truncate them) and are stripped afterwards.
_ROW_DTYPE = np.dtype([("group", object), ("p", np.float64), ("rho", np.float64)])
_LINE_END = re.compile(rb"\r\n|\r|\n")
_WHITESPACE_LINE = re.compile(r"^[^\S\r\n]+$", re.MULTILINE)
_BLANK = re.compile(rb"\s*\Z")
# a lone surrogate (only a text handle holds one) is kept, to be rejected
_UTF8 = ("utf-8", "surrogatepass")


def population_from_csv(path: str | Path | io.TextIOBase) -> Population:
    """Parse a ``group,p,rho`` CSV back into a population.

    The dialect: the header ``group,p,rho``, then one user per line; fields
    may be quoted with ``"`` and surrounded by whitespace; blank and
    whitespace-only lines are skipped; ``#`` starts no comment; numbers are
    ASCII decimals (``nan`` and ``inf`` parse, and are rejected as out of
    range).  Line ends may be ``\\n``, ``\\r\\n`` or ``\\r``.  One leading
    byte-order mark (U+FEFF) is dropped, whether the file is given by path
    or by handle; one anywhere else is part of its field.

    The text is encoded once, and each range of rows (``_row_offsets``) is
    parsed from the bytes and checked where it runs, so only compact arrays
    are pickled.  The bytes are let go before the columns are joined, and
    decoded again only to name a rejected line.

    Raises:
        ValueError: malformed header, labels, or out-of-range values, with
            the offending line number in the message.
    """
    with open_text(path, "r") as fh:
        data = fh.read().encode(*_UTF8)
    if not data:
        raise ValueError("empty population CSV")
    header_end = _LINE_END.search(data)
    end, begin = header_end.span() if header_end else (len(data), len(data))
    header_end = None  # a match holds its string
    header = next(csv.reader([data[:end].decode(*_UTF8).removeprefix("\ufeff")]), [])
    if tuple(h.strip() for h in header) != POPULATION_CSV_HEADER:
        raise ValueError(
            f"line 1: expected header {','.join(POPULATION_CSV_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )

    def parse(start: int, stop: int) -> list[_Columns | None]:
        # the last range, the only one on one CPU, is read in place
        rows, skip = (data, start) if stop == len(data) else (data[start:stop], 0)
        table = _load_rows(rows, skip)
        return [_accepted(table) if table is not None else None]

    parts = list(_textio.forked_map(parse, _row_offsets(data, begin)))
    if any(part is None for part in parts):
        _raise_first_bad_line(data.decode(*_UTF8))
    del data
    groups, p, rho = (np.concatenate(column) for column in zip(*parts))
    if not p.size:
        raise ValueError("population CSV contains no user rows")
    return Population.from_arrays(groups, p, rho)


def _row_offsets(data: bytes, begin: int) -> list[tuple[int, int]]:
    """The rows from byte ``begin`` on, cut after ``\\n`` bytes into
    ``(start, stop)`` ranges of ``data``: one per usable CPU, and no more
    than one per chunk of rows.

    Rows holding a ``"`` (a quoted field may span lines) or no ``\\n`` are
    one range, and so are all rows on one CPU, which skips counting lines.
    """
    if _textio.usable_cpus() < 2 or data.find(b'"', begin) >= 0:
        return [(begin, len(data))]
    lines = data.count(b"\n", begin)
    cuts = [begin]
    for start, _ in _textio.row_ranges(lines, _WRITE_CHUNK_ROWS)[1:]:
        cut = data.find(b"\n", begin + (len(data) - begin) * start // lines) + 1
        if cuts[-1] < cut < len(data):
            cuts.append(cut)
    cuts.append(len(data))
    return list(zip(cuts, cuts[1:]))


_Columns = tuple[np.ndarray, np.ndarray, np.ndarray]  # groups (U1), p, rho


def _accepted(table: np.ndarray) -> _Columns | None:
    """The parsed rows' labels, ``p`` and ``rho``, or ``None`` if a label or
    a value is out of range.  Labels are checked whole, before the cast."""
    labels = table["group"].tolist()
    names = {label: label.strip() for label in set(labels)}
    p, rho = table["p"], table["rho"]
    if not set(names.values()) <= {"A", "B"} or not (
        (p >= 0.0) & (p <= 1.0) & (rho >= 0.0) & (rho <= 1.0)
    ).all():
        return None
    if all(label == name for label, name in names.items()):
        groups = table["group"].astype("U1")
    else:
        groups = np.array([names[label] for label in labels], dtype="U1")
    return groups, p, rho


def _load_rows(rows: bytes, skip: int) -> np.ndarray | None:
    """The UTF-8 user rows from byte ``skip`` on parsed in C, or ``None`` if
    they break the dialect.

    ``np.loadtxt`` takes neither whitespace-only lines nor lone ``\\r`` line
    ends; rows that have them are decoded, normalised (so that Unicode
    whitespace counts) and parsed a second time.
    """
    try:
        return _loadtxt(rows, skip)
    except ValueError:
        text = rows[skip:].decode(*_UTF8)
    normalised = _WHITESPACE_LINE.sub("", text.replace("\r\n", "\n").replace("\r", "\n"))
    try:
        return _loadtxt(normalised.encode()) if normalised != text else None
    except ValueError:
        return None


def _loadtxt(rows: bytes, skip: int = 0) -> np.ndarray:
    if _BLANK.match(rows, skip):  # np.loadtxt warns on input with no rows
        return np.empty(0, _ROW_DTYPE)
    # UTF-8 bytes, decoded line by line: io.StringIO would hold four bytes
    # per character.  io.BytesIO shares the bytes object it is given.
    data = io.BytesIO(rows)
    data.seek(skip)
    return np.loadtxt(
        data, dtype=_ROW_DTYPE, delimiter=",", quotechar='"',
        comments=None, ndmin=1, encoding="utf-8",
    )


def _raise_first_bad_line(text: str) -> NoReturn:
    """Raise the error of the first rejected line, numbered as in the file.

    Runs only after the columnar parse or its checks rejected the file.
    """
    lines = io.StringIO(text, newline="")  # splits at \n, \r\n and \r
    next(lines)  # the header, already checked
    for lineno, line in enumerate(lines, start=2):
        if line.isspace():
            continue
        row = next(csv.reader([line]))
        if len(row) != 3:
            raise ValueError(f"line {lineno}: expected 3 columns, got {len(row)}")
        g = row[0].strip()
        if g not in ("A", "B"):
            raise ValueError(f"line {lineno}: group must be 'A' or 'B', got {g!r}")
        try:
            pv, rv = (_textio.ascii_number(field, float) for field in row[1:])
        except ValueError:
            raise ValueError(f"line {lineno}: p and rho must be numbers") from None
        for name, v in (("p", pv), ("rho", rv)):
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"line {lineno}: {name} must lie in [0, 1], got {v}")
    # every line reads alone, so the fault spans lines (a quoted field
    # holding a line end)
    raise ValueError("malformed population CSV: a quoted field spans lines")
