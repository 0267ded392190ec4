import io

import numpy as np
import pytest
from scipy import stats as sps

from hermfair.population import (
    ClickConfig,
    PopulationSpec,
    UptakeConfig,
    beta_sample,
    population_from_csv,
    population_to_csv,
    sample_population,
    subseed,
)

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
