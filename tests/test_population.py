import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as sps

import hermfair.population
from hermfair.model import Population
from hermfair.population import (
    ClickConfig,
    PopulationSpec,
    UptakeConfig,
    allocation_to_csv,
    beta_sample,
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

    def test_group_size_ceiling(self):
        # only specs are built here; nothing is drawn
        ceiling = hermfair.population.MAX_GROUP_SIZE
        assert spec(n_a=ceiling, n_b=ceiling).n_b == ceiling
        for kw in ({"n_a": ceiling + 1}, {"n_b": ceiling + 1}, {"n_a": 10**12, "n_b": 10**12}):
            with pytest.raises(ValueError, match=f"ceiling of {ceiling} users per group"):
                spec(**kw)


class TestMoments:
    def test_beta_main_group_a_mean(self):
        # Beta(4, 6) has mean 0.4
        rng = np.random.default_rng(42)
        draws = beta_sample(4, 6, rng, size=100_000)
        assert abs(draws.mean() - 0.4) < 0.005

    def test_beta_main_group_b_mean(self):
        # Beta(7, 3) has mean 0.7
        rng = np.random.default_rng(42)
        draws = beta_sample(7, 3, rng, size=100_000)
        assert abs(draws.mean() - 0.7) < 0.005

    def test_beta_variance(self):
        # Var Beta(4, 6) = 4*6 / (10^2 * 11) = 0.0218...
        rng = np.random.default_rng(7)
        draws = beta_sample(4, 6, rng, size=100_000)
        assert abs(draws.var() - 0.4 * 0.6 / 11.0) < 0.002

    def test_beta_uniform_special_case(self):
        rng = np.random.default_rng(17)
        draws = beta_sample(1, 1, rng, size=10_000)
        ks = sps.kstest(draws, "uniform").statistic
        assert ks < 0.02

    def test_power_law_click_mean(self):
        # E[u^(1/k)] = k / (1 + k) = 1/21 for k = 0.05
        pop = sample_population(spec(n_a=50_000, n_b=50_000, seed=3))
        assert abs(pop.p.mean() - 1.0 / 21.0) < 0.002

    def test_no_nan_across_shape_range(self):
        # one million draws across the admissible shape range
        rng = np.random.default_rng(11)
        shapes = [(0.5, 0.5), (0.5, 20.0), (20.0, 0.5), (2.0, 5.0), (20.0, 20.0)]
        for s1, s2 in shapes:
            draws = beta_sample(s1, s2, rng, size=200_000)
            assert np.isfinite(draws).all()
            assert (draws >= 0.0).all() and (draws <= 1.0).all()


class TestSeedSplitting:
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
