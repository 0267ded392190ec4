import contextlib
import csv
import io
import os
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps

import hermfair.population
from hermfair import _textio
from hermfair.model import Population
from hermfair.population import (
    ClickConfig,
    PopulationSpec,
    UptakeConfig,
    allocation_to_csv,
    population_from_csv,
    population_to_csv,
    sample_population,
    subseed,
)
from hermfair.scenarios import (
    aggregate,
    builtin_scenario,
    run_sweep,
    write_aggregates_csv,
    write_aggregates_json,
    write_records_csv,
)
from hermfair.stats import ContingencyTable, table_from_csv, table_to_csv

MAIN_UPTAKE = UptakeConfig(beta_a=(4.0, 6.0), beta_b=(7.0, 3.0))


def spec(n_a=200, n_b=200, seed=0, uptake=MAIN_UPTAKE, click=ClickConfig()):
    return PopulationSpec(n_a=n_a, n_b=n_b, uptake=uptake, click=click, seed=seed)


class TestSampling:
    def test_deterministic(self):
        a = sample_population(spec(seed=123))
        b = sample_population(spec(seed=123))
        assert np.array_equal(a.p, b.p) and np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.groups, b.groups)

    def test_different_seeds_differ(self):
        a = sample_population(spec(seed=1))
        b = sample_population(spec(seed=2))
        assert not np.array_equal(a.p, b.p)

    def test_group_counts_and_order(self):
        pop = sample_population(spec(n_a=7, n_b=13, seed=5))
        assert pop.n_a == 7 and pop.n_b == 13
        assert (pop.groups[:7] == "A").all() and (pop.groups[7:] == "B").all()

    def test_values_in_unit_interval(self):
        pop = sample_population(spec(n_a=5000, n_b=5000, seed=9))
        for arr in (pop.p, pop.rho):
            assert np.isfinite(arr).all()
            assert (arr >= 0.0).all() and (arr <= 1.0).all()

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            spec(n_a=0)
        with pytest.raises(ValueError):
            UptakeConfig(beta_a=(0.0, 1.0), beta_b=(1.0, 1.0))
        with pytest.raises(ValueError):
            ClickConfig(k_a=0.0)

    @pytest.mark.parametrize("value", [True, "2", np.bool_(True), None])
    def test_shapes_reject_a_bool_or_a_string(self, value):
        with pytest.raises(ValueError, match="^k_a must be a finite number"):
            ClickConfig(k_a=value)
        with pytest.raises(ValueError, match=r"^beta_a\[0\] must be a finite number"):
            UptakeConfig(beta_a=(value, 2.0), beta_b=(1.0, 1.0))
        with pytest.raises(ValueError, match=r"^beta_b\[1\] must be a finite number"):
            UptakeConfig(beta_a=(1.0, 2.0), beta_b=(1.0, value))
        assert ClickConfig(k_a=1, k_b=np.float32(0.5)) == ClickConfig(k_a=1.0, k_b=0.5)

    @pytest.mark.parametrize("name", ["n_a", "n_b", "seed"])
    @pytest.mark.parametrize("value", [True, "2", 2.0, None])
    def test_spec_sizes_and_seed_must_be_ints(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            spec(**{name: value})
        assert spec(**{name: np.int64(3)}) == spec(**{name: 3})

    def test_group_size_ceiling(self):
        # only specs are built here; nothing is drawn
        ceiling = hermfair.population.MAX_GROUP_SIZE
        assert spec(n_a=ceiling, n_b=ceiling).n_b == ceiling
        for kw in ({"n_a": ceiling + 1}, {"n_b": ceiling + 1}, {"n_a": 10**12, "n_b": 10**12}):
            with pytest.raises(ValueError, match=f"ceiling of {ceiling} users per group"):
                spec(**kw)


def uptake_draws(shapes, size, seed):
    """The ``size`` group-A uptake draws of a population sampled with ``shapes``."""
    pop = sample_population(spec(n_a=size, n_b=1, seed=seed, uptake=UptakeConfig(shapes, shapes)))
    return pop.rho[:size]


class TestMoments:
    def test_beta_main_group_a_mean(self):
        # Beta(4, 6) has mean 0.4
        draws = uptake_draws((4, 6), 100_000, seed=42)
        assert abs(draws.mean() - 0.4) < 0.005

    def test_beta_main_group_b_mean(self):
        # Beta(7, 3) has mean 0.7
        draws = uptake_draws((7, 3), 100_000, seed=42)
        assert abs(draws.mean() - 0.7) < 0.005

    def test_beta_variance(self):
        # Var Beta(4, 6) = 4*6 / (10^2 * 11) = 0.0218...
        draws = uptake_draws((4, 6), 100_000, seed=7)
        assert abs(draws.var() - 0.4 * 0.6 / 11.0) < 0.002

    def test_beta_uniform_special_case(self):
        draws = uptake_draws((1, 1), 10_000, seed=17)
        ks = sps.kstest(draws, "uniform").statistic
        assert ks < 0.02

    def test_power_law_click_mean(self):
        # E[u^(1/k)] = k / (1 + k) = 1/21 for k = 0.05
        pop = sample_population(spec(n_a=50_000, n_b=50_000, seed=3))
        assert abs(pop.p.mean() - 1.0 / 21.0) < 0.002

    def test_no_nan_across_shape_range(self):
        # one million draws across the admissible shape range
        shapes = [(0.5, 0.5), (0.5, 20.0), (20.0, 0.5), (2.0, 5.0), (20.0, 20.0)]
        for pair in shapes:
            draws = uptake_draws(pair, 200_000, seed=11)
            assert np.isfinite(draws).all()
            assert (draws >= 0.0).all() and (draws <= 1.0).all()


class TestSeedSplitting:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
            spec(seed=-1)

    def test_subseeds_disjoint(self):
        seeds = {subseed(99, 0, rep) for rep in range(500)}
        assert len(seeds) == 500

    def test_subseed_stable(self):
        assert subseed(5, 2, 7) == subseed(5, 2, 7)
        assert subseed(5, 2, 7) != subseed(5, 7, 2)

    def test_resampling_one_replication_is_isolated(self):
        # drawing replication 3 on its own equals replication 3 from a batch
        batch = [
            sample_population(spec(seed=subseed(1234, 0, rep), n_a=50, n_b=50))
            for rep in range(5)
        ]
        alone = sample_population(spec(seed=subseed(1234, 0, 3), n_a=50, n_b=50))
        assert alone == batch[3]
        assert not (alone == batch[2])


class TestCsvRoundTrip:
    def test_round_trip_bit_exact(self):
        pop = sample_population(spec(n_a=40, n_b=25, seed=8))
        buf = io.StringIO()
        population_to_csv(pop, buf)
        buf.seek(0)
        back = population_from_csv(buf)
        assert back == pop

    def test_round_trip_via_file(self, tmp_path):
        pop = sample_population(spec(n_a=10, n_b=10, seed=2))
        path = tmp_path / "pop.csv"
        population_to_csv(pop, path)
        assert population_from_csv(path) == pop

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            population_from_csv(io.StringIO(""))

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            population_from_csv(io.StringIO("a,b,c\nA,0.5,0.5\n"))

    def test_bad_group_line_numbered(self):
        csv_text = "group,p,rho\nA,0.5,0.5\nC,0.5,0.5\n"
        with pytest.raises(ValueError, match="line 3"):
            population_from_csv(io.StringIO(csv_text))

    def test_long_group_label_rejected(self):
        csv_text = "group,p,rho\nA,0.5,0.5\nApple,0.5,0.5\nB,0.5,0.5\n"
        with pytest.raises(ValueError, match="line 3.*'Apple'"):
            population_from_csv(io.StringIO(csv_text))

    def test_out_of_range_value(self):
        csv_text = "group,p,rho\nA,1.5,0.5\nB,0.5,0.5\n"
        with pytest.raises(ValueError, match="line 2"):
            population_from_csv(io.StringIO(csv_text))

    def test_non_numeric_value(self):
        csv_text = "group,p,rho\nA,x,0.5\nB,0.5,0.5\n"
        with pytest.raises(ValueError, match="line 2"):
            population_from_csv(io.StringIO(csv_text))


def read_text(text):
    return population_from_csv(io.StringIO(text))


def reference_csv(header, *columns):
    """The bytes a ``csv.writer`` loop writes, floats at 17 significant digits."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for g, *values in zip(*columns):
        writer.writerow([g, *(format(v, ".17g") for v in values)])
    return buf.getvalue()


class TestCsvDialect:
    def test_blank_and_whitespace_lines_skipped(self):
        pop = read_text("group,p,rho\n\nA,0.5,0.25\n   \n\t\nB,0.125,1\n\n")
        assert pop.groups.tolist() == ["A", "B"]
        assert pop.p.tolist() == [0.5, 0.125] and pop.rho.tolist() == [0.25, 1.0]

    @pytest.mark.parametrize("blank", ["\u00a0", "\u2003\u2003", " \u00a0\t", "\x1c"])
    def test_unicode_whitespace_lines_skipped(self, blank):
        pop = read_text(f"group,p,rho\r\nA,0.5,0.25\r\n{blank}\r\nB,0.125,1\r\n")
        assert pop.groups.tolist() == ["A", "B"]

    def test_quoted_field_across_lines_rejected(self):
        # every line reads alone; only the file as a whole is malformed
        message = "^malformed population CSV: a quoted field spans lines$"
        with pytest.raises(ValueError, match=message):
            read_text('group,p,rho\nA,0.5,"0.5\nB,0.5,0.5\n')

    def test_bad_value_after_blank_line_numbered(self):
        with pytest.raises(ValueError, match=r"^line 4: p must lie in \[0, 1\], got 2.0$"):
            read_text("group,p,rho\nA,0.5,0.5\n\nB,2,0.5\n")
        with pytest.raises(ValueError, match=r"^line 5: p and rho must be numbers$"):
            read_text("group,p,rho\nA,0.5,0.5\n  \n\t\nB,x,0.5\n")

    def test_crlf_and_no_final_newline(self):
        pop = read_text("group,p,rho\r\nA,0.5,0.25\r\nB,0.125,1")
        assert pop.p.tolist() == [0.5, 0.125] and pop.rho.tolist() == [0.25, 1.0]
        with pytest.raises(ValueError, match="^line 3: group must be 'A' or 'B', got 'C'$"):
            read_text("group,p,rho\r\nA,0.5,0.25\r\nC,0.125,1")

    def test_lone_cr_line_ends(self):
        pop = read_text("group,p,rho\rA,0.5,0.25\r\rB,0.125,1\r")
        assert pop.groups.tolist() == ["A", "B"]
        with pytest.raises(ValueError, match="^line 4: expected 3 columns, got 2$"):
            read_text("group,p,rho\rA,0.5,0.25\r\rB,0.125\r")

    def test_quoted_fields(self):
        pop = read_text('"group","p","rho"\n"A","0.5",0.25\nB,"0.125"," 1 "\n')
        assert pop.groups.tolist() == ["A", "B"]
        assert pop.p.tolist() == [0.5, 0.125] and pop.rho.tolist() == [0.25, 1.0]
        with pytest.raises(ValueError, match="^line 3: group must be 'A' or 'B', got 'A,B'$"):
            read_text('group,p,rho\nA,0.5,0.5\n"A,B",0.5,0.5\n')

    def test_line_of_only_quotes_is_a_row(self):
        with pytest.raises(ValueError, match="^line 3: expected 3 columns, got 1$"):
            read_text('group,p,rho\nA,0.5,0.5\n""\nB,0.5,0.5\n')

    def test_whitespace_around_labels_and_numbers(self):
        pop = read_text(" group , p ,rho\n A ,\t0.5 , 0.25\n\tB\t, 1e-3,0 \n")
        assert pop.groups.tolist() == ["A", "B"]
        assert pop.p.tolist() == [0.5, 0.001] and pop.rho.tolist() == [0.25, 0.0]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("B,nan,0.5", r"p must lie in \[0, 1\], got nan"),
            ("B,0.5,inf", r"rho must lie in \[0, 1\], got inf"),
            ("B,-inf,0.5", r"p must lie in \[0, 1\], got -inf"),
            ("B,0.5 # c,0.5", "p and rho must be numbers"),
            ("B,0.000_1,0.5", "p and rho must be numbers"),
            ("B,0.5", "expected 3 columns, got 2"),
            ("B,0.5,0.5,1", "expected 3 columns, got 4"),
        ],
    )
    def test_rejected_rows_numbered(self, row, message):
        with pytest.raises(ValueError, match=f"^line 4: {message}$"):
            read_text(f"group,p,rho\nA,0.5,0.5\n\n{row}\nB,0.5,0.5\n")

    def test_header_only(self):
        for text in ("group,p,rho", "group,p,rho\r\n", "group,p,rho\n\n  \n"):
            with pytest.raises(ValueError, match="^population CSV contains no user rows$"):
                read_text(text)

    @pytest.mark.parametrize("eol", ["\r\n", "\n"])
    def test_leading_byte_order_mark_dropped(self, eol, tmp_path):
        text = eol.join(["group,p,rho", "A,0.5,0.5", "B,0.25,0.75", ""])
        plain = read_text(text)
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        for got in (population_from_csv(path), read_text("\ufeff" + text)):
            assert got == plain
            assert got.p.tobytes() == plain.p.tobytes() and got.rho.tobytes() == plain.rho.tobytes()

    @pytest.mark.parametrize("text, message", [
        ("\ufeff\ufeffgroup,p,rho\nA,0.5,0.5\n",
         r"line 1: expected header 'group,p,rho', got '\ufeffgroup,p,rho'"),
        (" \ufeffgroup,p,rho\nA,0.5,0.5\n",
         r"line 1: expected header 'group,p,rho', got ' \ufeffgroup,p,rho'"),
        ("\ufeffgroup,p,rho\nA,0.5,0.5\n\ufeffB,0.5,0.5\n",
         r"line 3: group must be 'A' or 'B', got '\ufeffB'"),
        ("group,p,rho\nA,\ufeff0.5,0.5\nB,0.5,0.5\n", "line 2: p and rho must be numbers"),
    ])
    def test_byte_order_mark_elsewhere_rejected(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_text(text)

    def test_one_cpu_read_holds_the_file_at_most_two_and_a_half_times(self, tmp_path):
        path = tmp_path / "pop.csv"
        population_to_csv(sample_population(spec(n_a=70_000, n_b=70_000, seed=5)), path)
        pop, peak = traced_read(path, cpus=1)
        assert pop.size == 140_000
        assert peak <= 2.5 * path.stat().st_size

    def test_split_read_holds_the_file_at_most_two_and_a_quarter_times(self, tmp_path):
        path = tmp_path / "pop.csv"
        population_to_csv(sample_population(spec(n_a=70_000, n_b=70_000, seed=5)), path)
        pop, peak = traced_read(path, cpus=2)
        assert pop.size == 140_000
        assert peak <= 2.25 * path.stat().st_size

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_write_holds_two_fifths_of_the_file_at_most(self, tmp_path, cpus):
        pop = sample_population(spec(n_a=70_000, n_b=70_000, seed=5))
        decision = (pop.p >= 0.05).astype(np.float64)
        decision[::1000] = 0.5
        path = tmp_path / "alloc.csv"
        with split_io(cpus, chunk_rows=1 << 16, piece_rows=1 << 13) as calls:
            tracemalloc.start()
            try:
                allocation_to_csv(pop, decision, path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert calls == [cpus]
        # 0.32 of the file measured on 1 and on 2 CPUs: one piece of 2^13
        # rows, its floats and its text (2.1-2.6 when a range of 2^16 rows
        # was formatted at once); the margin is 0.08 of the file
        assert peak <= 0.4 * path.stat().st_size

    def test_long_label_named_in_full(self):
        label = "Anonymous-" * 20
        with pytest.raises(ValueError, match=f"^line 3: group must be 'A' or 'B', got '{label}'$"):
            read_text(f"group,p,rho\nA,0.5,0.5\n  {label}  ,0.5,0.5\n")


unit_floats = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, 1.0, 5e-324, 1.1e-308, 0.1, 1.0 - 2.0**-53]),
)


@st.composite
def populations(draw):
    groups = draw(st.lists(st.sampled_from("AB"), min_size=2, max_size=40)
                  .filter(lambda g: "A" in g and "B" in g))
    p = draw(st.lists(unit_floats, min_size=len(groups), max_size=len(groups)))
    rho = draw(st.lists(unit_floats, min_size=len(groups), max_size=len(groups)))
    return Population.from_arrays(groups, p, rho)


@given(populations())
def test_csv_round_trip_bit_exact(pop):
    buf = io.StringIO()
    population_to_csv(pop, buf)
    buf.seek(0)
    back = population_from_csv(buf)
    assert back == pop
    assert back.p.tobytes() == pop.p.tobytes() and back.rho.tobytes() == pop.rho.tobytes()


class TestCsvBytes:
    def test_population_csv_matches_csv_writer(self, tmp_path):
        pop = sample_population(spec(n_a=30, n_b=20, seed=4))
        pop = Population.from_arrays(
            pop.groups, np.r_[pop.p[:-3], 0.0, 1.0, 0.1], np.r_[pop.rho[:-2], 5e-324, 1.0]
        )
        path = tmp_path / "pop.csv"
        population_to_csv(pop, path)
        expected = reference_csv(("group", "p", "rho"), pop.groups, pop.p, pop.rho)
        assert path.read_bytes() == expected.encode()

    def test_allocation_csv_matches_csv_writer(self, tmp_path):
        pop = sample_population(spec(n_a=12, n_b=9, seed=6))
        decision = np.linspace(0.0, 1.0, pop.size)
        buf = io.StringIO(newline="")
        allocation_to_csv(pop, decision, buf)
        expected = reference_csv(("group", "p", "rho", "decision"),
                                 pop.groups, pop.p, pop.rho, decision)
        assert buf.getvalue() == expected
        with pytest.raises(ValueError, match="one value per user"):
            allocation_to_csv(pop, decision[1:], io.StringIO())

    def test_chunks_join_seamlessly(self, monkeypatch):
        import hermfair.population as population

        pop = sample_population(spec(n_a=9, n_b=8, seed=1))
        whole = io.StringIO()
        population_to_csv(pop, whole)
        monkeypatch.setattr(population, "_WRITE_CHUNK_ROWS", 4)
        monkeypatch.setattr(population, "_WRITE_PIECE_ROWS", 3)
        chunked = io.StringIO()
        population_to_csv(pop, chunked)
        assert chunked.getvalue() == whole.getvalue()


def test_caller_handles_stay_open():
    pop = sample_population(spec(n_a=5, n_b=5, seed=3))
    table = ContingencyTable(np.array([[3, 4], [5, 6]]), ["r1", "r2"], ["c1", "c2"])
    sweep = run_sweep(builtin_scenario("A", grid=(0.05,), replications=1, n_a=5, n_b=5),
                      base_seed=1)
    writers = [
        lambda fh: population_to_csv(pop, fh),
        lambda fh: allocation_to_csv(pop, np.zeros(pop.size), fh),
        lambda fh: table_to_csv(table, fh),
        lambda fh: write_records_csv(sweep, fh),
        lambda fh: write_aggregates_csv(sweep, aggregate(sweep), fh),
        lambda fh: write_aggregates_json(sweep, aggregate(sweep), fh),
    ]
    for write in writers:
        fh = io.StringIO()
        write(fh)
        assert not fh.closed and fh.getvalue()
    fh = io.StringIO()
    population_to_csv(pop, fh)
    fh.seek(0)
    assert population_from_csv(fh) == pop and not fh.closed
    fh = io.StringIO()
    table_to_csv(table, fh)
    fh.seek(0)
    assert table_from_csv(fh).row_labels == ("r1", "r2") and not fh.closed


# ------------------------------------------------------------- split I/O

@contextlib.contextmanager
def split_io(cpus, chunk_rows=4, piece_rows=3):
    """Pin the usable CPUs, the chunk size and the rows formatted per write;
    yield the range count of each ``forked_map`` call."""
    calls = []
    real = _textio.forked_map

    def spy(fn, ranges):
        calls.append(len(ranges))
        return real(fn, ranges)

    with mock.patch.object(_textio, "usable_cpus", lambda: cpus), \
            mock.patch.object(hermfair.population, "_WRITE_CHUNK_ROWS", chunk_rows), \
            mock.patch.object(hermfair.population, "_WRITE_PIECE_ROWS", piece_rows), \
            mock.patch.object(_textio, "forked_map", spy):
        yield calls


def traced_read(path, cpus):
    """The population read from ``path`` on ``cpus`` usable CPUs, in chunks
    of 2^16 rows, and the tracemalloc peak of this process while reading."""
    with split_io(cpus, chunk_rows=1 << 16) as calls:
        tracemalloc.start()
        try:
            pop = population_from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert calls == [cpus]
    return pop, peak


def read_outcome(text, cpus):
    """What reading ``text`` gives: the arrays, or the error message."""
    try:
        with split_io(cpus) as calls:
            pop = read_text(text)
    except ValueError as exc:
        return ("error", str(exc)), calls
    return ("ok", pop.groups.tolist(), pop.p.tobytes(), pop.rho.tobytes()), calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


GOOD_ROW = "A,0.5,0.5\r\n"

# The bodies of the TestCsvRoundTrip and TestCsvDialect cases
DIALECT_CASES = [
    "A,0.5,0.5\nC,0.5,0.5\n",
    "A,0.5,0.5\nApple,0.5,0.5\nB,0.5,0.5\n",
    "A,1.5,0.5\nB,0.5,0.5\n",
    "A,x,0.5\nB,0.5,0.5\n",
    "\nA,0.5,0.25\n   \n\t\nB,0.125,1\n\n",
    "A,0.5,0.5\n\nB,2,0.5\n",
    "A,0.5,0.5\n  \n\t\nB,x,0.5\n",
    "A,0.5,0.25\r\nB,0.125,1\n",
    "A,0.5,0.25\r\nC,0.125,1\n",
    "A,0.5,0.25\r\rB,0.125,1\r",
    "A,0.5,0.25\r\rB,0.125\r",
    '"A","0.5",0.25\nB,"0.125"," 1 "\n',
    'A,0.5,0.5\n"A,B",0.5,0.5\n',
    'A,0.5,0.5\n""\nB,0.5,0.5\n',
    " A ,\t0.5 , 0.25\n\tB\t, 1e-3,0 \n",
    *(f"A,0.5,0.5\n\n{row}\nB,0.5,0.5\n" for row in (
        "B,nan,0.5", "B,0.5,inf", "B,-inf,0.5", "B,0.5 # c,0.5", "B,0.000_1,0.5",
        "B,0.5", "B,0.5,0.5,1")),
    f"A,0.5,0.5\n  {'Anonymous-' * 20}  ,0.5,0.5\n",
    # whitespace-only lines of Unicode spaces are blank lines too
    "A,0.5,0.25\n\u00a0\nB,0.125,1\n",
    "A,0.5,0.25\r\n\u2003\u2003\r\n \u00a0\t\r\nB,0.125,1\r\n",
    "A,0.5,0.25\n\u2003\nB,2,1\n",
    # a byte-order mark after the first character is part of its field
    "A,0.5,0.5\n\ufeffB,0.5,0.5\n",
    # a lone surrogate, which only a text handle can hold, is read line by line
    "A,0.5,0.5\nB,0.5\ud800,0.5\n",
]


class TestSplitIO:
    """Files of several chunks, read and written on 2 or 3 CPUs, give what
    one CPU gives: the same bytes, arrays, messages and line numbers."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_writer_bytes(self, n, tmp_path):
        groups = np.array(["A", "B"] * 10)[:n]
        columns = np.linspace(0.0, 1.0, n) / 3, np.linspace(1.0, 0.0, n) / 7, np.r_[0.0:1.0:20j][:n]
        header = ("group", "p", "rho", "decision")
        outputs = []
        for cpus in (1, 2, 3):
            with split_io(cpus) as calls:
                path = tmp_path / f"alloc-{cpus}.csv"
                hermfair.population._write_csv(path, header, groups, *columns)
                handle = io.StringIO(newline="")
                hermfair.population._write_csv(handle, header, groups, *columns)
            outputs.append((path.read_bytes(), handle.getvalue()))
            assert calls == [min(cpus, -(-n // 4))] * 2
        assert outputs[0][0] == reference_csv(header, groups, *columns).encode()
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_round_trip(self, cpus):
        pop = sample_population(spec(n_a=23, n_b=18, seed=5))
        with split_io(cpus) as calls:
            buf = io.StringIO()
            population_to_csv(pop, buf)
            buf.seek(0)
            back = population_from_csv(buf)
        assert calls == [cpus, cpus]
        assert back == pop and back.groups.dtype == pop.groups.dtype
        assert back.p.tobytes() == pop.p.tobytes() and back.rho.tobytes() == pop.rho.tobytes()

    @pytest.mark.parametrize("case", DIALECT_CASES)
    @pytest.mark.parametrize("where", ["caller", "child"])
    def test_dialect_cases_agree(self, case, where):
        pad = GOOD_ROW * 24
        body = case + pad if where == "caller" else pad + case
        text = "group,p,rho\n" + body
        serial, _ = read_outcome(text, 1)
        for cpus in (2, 3):
            split, calls = read_outcome(text, cpus)
            assert split == serial
            # quoted rows are one range; a long last line can merge two cuts
            assert len(calls) == 1
            assert (calls[0] == 1) if '"' in body else (2 <= calls[0] <= cpus)
        if where == "child" and serial[0] == "error" and serial[1].startswith("line "):
            assert int(serial[1].split(":")[0][5:]) > 25  # numbered past the padding
        assert_no_child_left()

    @pytest.mark.filterwarnings("error")  # np.loadtxt warns on a range of no rows
    @pytest.mark.parametrize("gap", ["\n" * 100, "\r\n" * 100, "  \n\t\n" * 50, "\n \n" * 50,
                                     "\u2003\n" * 100])
    def test_blank_lines_at_range_boundaries(self, gap):
        # on 3 CPUs the middle range holds only blank lines
        text = "group,p,rho\n" + GOOD_ROW * 2 + gap + "B,0.25,0.75\n" * 2
        serial, _ = read_outcome(text, 1)
        assert serial[0] == "ok" and len(serial[1]) == 4
        for cpus in (2, 3):
            split, calls = read_outcome(text, cpus)
            assert split == serial and calls == [cpus]

    def test_one_cpu_never_forks(self):
        pop = sample_population(spec(n_a=23, n_b=18, seed=5))
        text = io.StringIO()
        population_to_csv(pop, text)
        with split_io(1) as calls, mock.patch.object(
                _textio.os, "fork", side_effect=AssertionError("forked on one CPU")):
            back = read_text(text.getvalue())
        assert calls == [1] and back == pop

    def test_reader_rejection_leaves_no_child(self):
        text = "group,p,rho\n" + GOOD_ROW * 30 + "B,0.5,2\n"
        with split_io(2) as calls, pytest.raises(ValueError, match="^line 32: rho must"):
            read_text(text)
        assert calls == [2]
        assert_no_child_left()

    def test_failing_handle_leaves_no_child(self):
        pop = sample_population(spec(n_a=10, n_b=10, seed=2))

        class Failing(io.StringIO):
            def write(self, text):
                if self.tell() > 100:
                    raise OSError("disk full")
                return super().write(text)

        with split_io(3) as calls, pytest.raises(OSError, match="disk full"):
            population_to_csv(pop, Failing())
        assert calls == [3]
        assert_no_child_left()

    def test_child_exception_reaches_the_caller(self):
        def fn(start, stop):
            if start:
                raise KeyError(f"rows {start}-{stop}")
            yield start

        with pytest.raises(KeyError, match="rows 2-4"):
            list(_textio.forked_map(fn, [(0, 2), (2, 4)]))
        assert_no_child_left()
        assert list(_textio.forked_map(lambda a, b: range(a, b), [(0, 2), (2, 5), (5, 6)])) == [
            0, 1, 2, 3, 4, 5]
        assert_no_child_left()

    @pytest.mark.filterwarnings("error")
    def test_fork_warning_is_silenced(self):
        # Python 3.12 and later warn in the parent, after the child exists,
        # when the forking process has other threads (as OpenBLAS's pool)
        real_fork = os.fork

        def fork_and_warn():
            pid = real_fork()
            if pid:
                warnings.warn(
                    f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                    "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        with mock.patch.object(_textio.os, "fork", fork_and_warn):
            items = list(_textio.forked_map(lambda a, b: range(a, b), [(0, 2), (2, 4), (4, 5)]))
        assert items == [0, 1, 2, 3, 4]
        assert_no_child_left()

    @pytest.mark.parametrize("error", [OSError(11, "Resource temporarily unavailable"),
                                       KeyboardInterrupt()])
    def test_failed_fork_closes_its_pipe_and_reaps_the_rest(self, error):
        real_fork, real_pipe = os.fork, os.pipe
        forks, fds = [], []

        def fork_once():
            forks.append(None)
            if len(forks) > 1:
                raise error
            return real_fork()

        def pipe():
            fds.extend(real_pipe())
            return fds[-2:]

        with mock.patch.object(_textio.os, "fork", fork_once), \
                mock.patch.object(_textio.os, "pipe", pipe), \
                pytest.raises(type(error)):
            list(_textio.forked_map(lambda a, b: range(a, b), [(0, 2), (2, 4), (4, 5)]))
        assert len(forks) == 2 and len(fds) == 4
        for fd in fds:
            with pytest.raises(OSError):
                os.fstat(fd)
        assert_no_child_left()


@given(populations())
def test_csv_round_trip_split(pop):
    with split_io(3):
        buf = io.StringIO()
        population_to_csv(pop, buf)
        buf.seek(0)
        back = population_from_csv(buf)
    assert back == pop
    assert back.p.tobytes() == pop.p.tobytes() and back.rho.tobytes() == pop.rho.tobytes()
