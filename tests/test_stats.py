import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import stats as sps

from hermfair.stats import (
    Chi2Result,
    ContingencyTable,
    WilsonInterval,
    _log10_chi2_tail,
    chi2_independence,
    conditional_proportions,
    table_from_csv,
    table_to_csv,
    wilson_interval,
)

# Observed survey tables: exposure by partner-history group (2x2), behavior
# change by exposure (2x3), sensationalism by worry (4x2), sensationalism by
# exposure (2x4), and missingness by group (2x2 observed/missing per group).
EXPOSURE_2X2 = [[883, 219], [1975, 122]]
BEHAVIOR_2X3 = [[50, 43, 32], [12, 15, 7]]
SENSATIONALISM_4X2 = [[136, 66], [133, 185], [107, 179], [230, 280]]
SENSATIONALISM_BY_EXPOSURE_2X4 = [[9, 13, 7, 20], [144, 191, 157, 368]]

# (successes, n) -> proportion and Wilson bounds as printed, 3 decimals
WILSON_GOLDENS = [
    (883, 1102, 0.801, 0.777, 0.824),
    (219, 1102, 0.199, 0.176, 0.223),
    (1975, 2097, 0.942, 0.931, 0.951),
    (122, 2097, 0.058, 0.049, 0.069),
    (50, 125, 0.400, 0.318, 0.488),
    (43, 125, 0.344, 0.266, 0.431),
    (32, 125, 0.256, 0.188, 0.339),
    (12, 34, 0.353, 0.215, 0.521),
    (15, 34, 0.441, 0.289, 0.605),
    (7, 34, 0.206, 0.103, 0.368),
    (9, 49, 0.184, 0.100, 0.314),
    (13, 49, 0.265, 0.162, 0.403),
    (7, 49, 0.143, 0.071, 0.267),
    (20, 49, 0.408, 0.282, 0.548),
    (144, 860, 0.167, 0.144, 0.194),
    (191, 860, 0.222, 0.196, 0.251),
    (157, 860, 0.183, 0.158, 0.210),
    (368, 860, 0.428, 0.395, 0.461),
]


class TestChi2Goldens:
    def test_exposure_table(self):
        res = chi2_independence(ContingencyTable(EXPOSURE_2X2))
        assert res.statistic == pytest.approx(148.37, abs=0.01)
        assert res.dof == 1
        assert res.cramers_v == pytest.approx(0.215, abs=0.001)
        assert res.p_value < 0.001

    def test_behavior_change_table(self):
        res = chi2_independence(ContingencyTable(BEHAVIOR_2X3))
        assert res.statistic == pytest.approx(1.12, abs=0.01)
        assert res.dof == 2
        assert res.p_value == pytest.approx(0.572, abs=0.005)
        assert res.cramers_v == pytest.approx(0.084, abs=0.001)

    def test_sensationalism_worry_table(self):
        res = chi2_independence(ContingencyTable(SENSATIONALISM_4X2))
        assert res.statistic == pytest.approx(47.87, abs=0.01)
        assert res.dof == 3
        assert res.cramers_v == pytest.approx(0.191, abs=0.001)
        assert res.p_value < 0.001

    def test_sensationalism_exposure_table(self):
        res = chi2_independence(ContingencyTable(SENSATIONALISM_BY_EXPOSURE_2X4))
        assert res.statistic == pytest.approx(0.91, abs=0.01)
        assert res.dof == 3
        assert res.p_value == pytest.approx(0.824, abs=0.005)
        assert res.cramers_v == pytest.approx(0.032, abs=0.001)

    def test_correction_applies_only_to_2x2_by_default(self):
        plain = chi2_independence(ContingencyTable(EXPOSURE_2X2), correction=False)
        assert plain.statistic == pytest.approx(149.85, abs=0.01)
        auto = chi2_independence(ContingencyTable(BEHAVIOR_2X3))
        forced = chi2_independence(ContingencyTable(BEHAVIOR_2X3), correction=False)
        assert auto.statistic == forced.statistic

    @pytest.mark.parametrize("correction", ["never", "always", "", None, 0, 1, np.True_])
    def test_correction_policy_validated(self, correction):
        # a truthy string such as "never" used to apply the correction
        with pytest.raises(ValueError, match=f"got {correction!r}"):
            chi2_independence(ContingencyTable([[10, 20], [30, 5]]), correction=correction)

    def test_perfect_independence_is_exact_zero(self):
        res = chi2_independence(ContingencyTable([[10, 20], [30, 60]]), correction=False)
        assert res.statistic == 0.0
        assert res.cramers_v == 0.0
        assert res.p_value == 1.0


class TestWilsonGoldens:
    @pytest.mark.parametrize("successes,n,point,lo,hi", WILSON_GOLDENS)
    def test_printed_intervals(self, successes, n, point, lo, hi):
        res = wilson_interval(successes, n, 0.95)
        assert round(res.point, 3) == pytest.approx(point, abs=1e-9)
        assert round(res.lo, 3) == pytest.approx(lo, abs=1e-9)
        assert round(res.hi, 3) == pytest.approx(hi, abs=1e-9)

    def test_zero_successes_boundary(self):
        res = wilson_interval(0, 10, 0.95)
        assert res.point == 0.0
        assert res.lo == 0.0
        assert res.hi > 0.0

    def test_all_successes_boundary(self):
        res = wilson_interval(10, 10, 0.95)
        assert res.point == 1.0
        assert res.hi == 1.0
        assert res.lo < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(1, 4, confidence=1.0)

    @pytest.mark.parametrize("successes,n", [(3.5, 10), (True, 2), (3, 10.5), (1, True),
                                             ("3", 10), (float("nan"), 10)])
    def test_counts_must_be_integers(self, successes, n):
        with pytest.raises(ValueError, match="must be an integer"):
            wilson_interval(successes, n)

    @pytest.mark.parametrize("confidence", ["0.5", None, True, 10**400],
                             ids=["str", "None", "bool", "huge-int"])
    def test_confidence_must_be_a_number(self, confidence):
        table = ContingencyTable([[1, 2], [3, 4]])
        for call in (lambda: wilson_interval(1, 4, confidence=confidence),
                     lambda: conditional_proportions(table, confidence=confidence)):
            with pytest.raises(ValueError, match="^confidence must be a finite number, got "):
                call()

    def test_integer_types_accepted(self):
        ref = wilson_interval(3, 10)
        assert wilson_interval(np.int64(3), np.int32(10)) == ref
        assert wilson_interval(3.0, 10.0) == ref


class TestConditionalProportions:
    def test_sensationalism_row(self):
        # not-exposed respondents who agree strongly: 20 of 49
        table = ContingencyTable(SENSATIONALISM_BY_EXPOSURE_2X4)
        cells = conditional_proportions(table, axis="rows")
        cell = cells[0][3]
        assert round(cell.point, 3) == 0.408
        assert round(cell.lo, 3) == 0.282
        assert round(cell.hi, 3) == 0.548

    def test_uniform_table(self):
        cells = conditional_proportions(ContingencyTable([[5, 5], [5, 5]]), axis="rows")
        assert all(c.point == 0.5 for row in cells for c in row)

    def test_missing_rate(self):
        # 2025 missing of 2088 responses -> 96.98%
        table = ContingencyTable([[63, 2025], [46, 483]],
                                 row_labels=("opposite-sex only", "any same-sex"),
                                 col_labels=("observed", "missing"))
        cells = conditional_proportions(table, axis="rows")
        assert cells[0][1].point * 100 == pytest.approx(96.98, abs=0.005)

    def test_column_axis(self):
        table = ContingencyTable([[10, 30], [30, 30]])
        cells = conditional_proportions(table, axis="cols")
        assert cells[0][0].point == 0.25
        assert cells[0][1].point == 0.5

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="^axis must be 'rows' or 'cols'$"):
            conditional_proportions(ContingencyTable([[1, 2], [3, 4]]), axis="diag")

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, float("nan")])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            conditional_proportions(ContingencyTable([[1, 2], [3, 4]]), confidence=confidence)

    @given(st.integers(2, 6), st.integers(2, 6),
           st.lists(st.one_of(st.just(0), st.integers(0, 50), st.integers(0, 10**14)),
                    min_size=36, max_size=36),
           st.sampled_from(["rows", "cols"]),
           st.sampled_from([1e-9, 0.5, 0.9, 0.95, 0.999999]))
    def test_each_cell_is_its_wilson_interval(self, nr, nc, cells, axis, confidence):
        # one totals reduction and one quantile per table give every cell
        # the bits of a wilson_interval call on its own count and total
        counts = np.array(cells[: nr * nc]).reshape(nr, nc)
        assume(counts.sum(axis=0).all() and counts.sum(axis=1).all())
        table = ContingencyTable(counts)
        totals = counts.sum(axis=1 if axis == "rows" else 0).tolist()
        expected = [
            [wilson_interval(int(counts[i, j]), totals[i if axis == "rows" else j], confidence)
             for j in range(nc)]
            for i in range(nr)
        ]
        got = conditional_proportions(table, axis=axis, confidence=confidence)

        def bits(matrix):
            return [[(c.point.hex(), c.lo.hex(), c.hi.hex(), c.confidence) for c in row]
                    for row in matrix]

        assert got == expected
        assert bits(got) == bits(expected)


class TestTableValidation:
    def test_too_small(self):
        with pytest.raises(ValueError):
            ContingencyTable([[1, 2]])

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            ContingencyTable([[1, -2], [3, 4]])

    def test_non_integer_counts(self):
        with pytest.raises(ValueError):
            ContingencyTable([[1.5, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("counts", [
        [[True, False], [False, True]],
        np.eye(2, dtype=bool),
        [[True, 2], [0, 1]],  # a bool among ints is not promoted to 1
    ])
    def test_boolean_counts_rejected(self, counts):
        # as wilson_interval rejects a bool count
        with pytest.raises(ValueError, match="^counts must be integers$"):
            ContingencyTable(counts)

    def test_all_zero_table(self):
        with pytest.raises(ValueError, match="^grand total must be at least 1$"):
            ContingencyTable([[0, 0], [0, 0]])

    @pytest.mark.parametrize("labels", [{"row_labels": ("r1",)}, {"col_labels": ("x", "y", "z")}])
    def test_label_count_must_match_the_shape(self, labels):
        with pytest.raises(ValueError, match="^label lengths must match the count matrix shape$"):
            ContingencyTable([[1, 2], [3, 4]], **labels)

    def test_zero_row(self):
        with pytest.raises(ValueError, match="all-zero row"):
            ContingencyTable([[0, 0], [3, 4]])

    def test_zero_column(self):
        with pytest.raises(ValueError, match="all-zero column"):
            ContingencyTable([[1, 0], [3, 0]])

    @pytest.mark.parametrize("counts", [
        [[2**63 - 1, 2**63 - 1], [2**63 - 1, 2**63 - 1]],  # the int64 total wraps
        [[4 * 10**18, 4 * 10**18], [4 * 10**18, 4 * 10**18]],  # ... to a negative number
        [[10**29, 1], [1, 1]],  # beyond int64
        [[10**400, 1], [1, 1]],  # beyond float64
        [[2**52, 2**52 - 1], [1, 1]],  # one above the ceiling
        np.full((2, 2), 2**62, dtype=np.int64),
    ])
    def test_grand_total_ceiling(self, counts):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            with pytest.raises(ValueError, match=r"grand total \d+ is above 2\*\*53"):
                ContingencyTable(counts)

    def test_grand_total_at_the_ceiling(self):
        table = ContingencyTable([[2**52, 2**52 - 2], [1, 1]])
        assert table.total == 2**53
        assert table.counts.dtype == np.int64

    def test_csv_grand_total_ceiling(self):
        with pytest.raises(ValueError, match="is above 2\\*\\*53"):
            table_from_csv(io.StringIO(f",x,y\nr1,{2**63 - 1},1\nr2,1,1\n"))

    def test_csv_round_trip(self):
        table = ContingencyTable(EXPOSURE_2X2, ("same-sex", "opposite-sex"),
                                 ("not exposed", "exposed"))
        buf = io.StringIO()
        table_to_csv(table, buf)
        buf.seek(0)
        back = table_from_csv(buf)
        assert np.array_equal(back.counts, table.counts)
        assert back.row_labels == table.row_labels
        assert back.col_labels == table.col_labels

    def test_csv_bad_count(self):
        with pytest.raises(ValueError, match="line 2"):
            table_from_csv(io.StringIO(",x,y\nr1,1,notanumber\nr2,1,2\n"))

    @pytest.mark.parametrize("cell", ["1_0", "\u0663", "\uff11", "1.0", "", "0x1"])
    def test_csv_count_dialect(self, cell):
        # int() would read "1_0" as 10 and the Arabic-Indic or full-width digits as 3 and 1
        with pytest.raises(ValueError, match="line 3: counts must be non-negative integers"):
            table_from_csv(io.StringIO(f",x,y\nr1,1,2\nr2,{cell},2\n"))

    @given(st.data())
    def test_csv_round_trip_labels(self, data):
        # the reader strips labels, so only labels equal to their strip() survive
        label = (st.text(st.sampled_from(' ,"\n\rab\u00e9\u0663_'), max_size=6)
                 | st.text(max_size=4)).filter(lambda text: text == text.strip())
        nr = data.draw(st.integers(2, 4))
        nc = data.draw(st.integers(2, 4))
        counts = data.draw(st.lists(st.lists(st.integers(1, 10**12), min_size=nc, max_size=nc),
                                    min_size=nr, max_size=nr))
        table = ContingencyTable(
            counts,
            data.draw(st.lists(label, min_size=nr, max_size=nr)),
            data.draw(st.lists(label, min_size=nc, max_size=nc)),
        )
        buf = io.StringIO(newline="")
        table_to_csv(table, buf)
        buf.seek(0)
        back = table_from_csv(buf)
        assert np.array_equal(back.counts, table.counts)
        assert back.row_labels == table.row_labels
        assert back.col_labels == table.col_labels

    @pytest.mark.parametrize("text, message", [
        ("", "^empty contingency table CSV$"),
        (",x,y\nr1,1,2\nr2,1\n", "^line 3: expected 3 columns, got 2$"),
        (",x,y\nr1,1,-2\nr2,1,2\n", "^line 2: counts must be non-negative$"),
    ])
    def test_csv_rejections(self, text, message):
        with pytest.raises(ValueError, match=message):
            table_from_csv(io.StringIO(text))

    def test_csv_blank_lines_skipped(self):
        table = table_from_csv(io.StringIO(",x,y\nr1,1,2\n\n  \nr2,3,4\n"))
        assert table.row_labels == ("r1", "r2")
        assert table.counts.tolist() == [[1, 2], [3, 4]]

    def test_csv_single_row_rejected(self):
        with pytest.raises(ValueError):
            table_from_csv(io.StringIO(",x,y\nr1,1,2\n"))


class TestStatsProperties:
    @given(st.integers(2, 5), st.integers(2, 5), st.randoms(use_true_random=False))
    def test_chi2_invariant_under_permutations(self, nr, nc, rnd):
        rng = np.random.default_rng(rnd.randrange(2**32))
        counts = rng.integers(1, 50, size=(nr, nc))
        base = chi2_independence(ContingencyTable(counts), correction=False)
        rp = rng.permutation(nr)
        cp = rng.permutation(nc)
        shuffled = chi2_independence(
            ContingencyTable(counts[rp][:, cp]), correction=False
        )
        assert shuffled.statistic == pytest.approx(base.statistic, rel=1e-12)
        assert shuffled.cramers_v == pytest.approx(base.cramers_v, rel=1e-12)

    @given(st.integers(2, 4), st.integers(2, 4), st.integers(2, 9),
           st.randoms(use_true_random=False))
    def test_chi2_count_scaling(self, nr, nc, scale, rnd):
        # Pearson statistic scales linearly with counts and V is unchanged;
        # holds for the uncorrected statistic (the continuity correction is
        # deliberately not scale-equivariant).
        rng = np.random.default_rng(rnd.randrange(2**32))
        counts = rng.integers(1, 40, size=(nr, nc))
        base = chi2_independence(ContingencyTable(counts), correction=False)
        scaled = chi2_independence(ContingencyTable(counts * scale), correction=False)
        assert scaled.statistic == pytest.approx(scale * base.statistic, rel=1e-9)
        assert scaled.cramers_v == pytest.approx(base.cramers_v, rel=1e-9)

    @given(st.floats(0.01, 30.0))
    def test_pvalue_normal_identity_dof1(self, statistic):
        # chi2(1) upper tail equals the two-sided normal tail at sqrt(s)
        p_chi = float(sps.chi2.sf(statistic, 1))
        p_norm = 2.0 * (1.0 - float(sps.norm.cdf(math.sqrt(statistic))))
        assert p_chi == pytest.approx(p_norm, abs=1e-6)

    @given(st.integers(1, 200), st.integers(1, 30))
    def test_wilson_widens_as_n_shrinks(self, successes, factor):
        # same proportion, smaller n -> wider interval
        n_small = successes * 2
        n_large = n_small * factor
        small = wilson_interval(successes, n_small)
        large = wilson_interval(successes * factor, n_large)
        width_small = small.hi - small.lo
        width_large = large.hi - large.lo
        assert width_large <= width_small + 1e-12

    @given(st.integers(0, 500), st.integers(1, 500))
    def test_wilson_contains_point(self, successes, n):
        if successes > n:
            successes, n = n, successes
        res = wilson_interval(successes, n)
        assert res.lo <= res.point <= res.hi
        assert 0.0 <= res.lo and res.hi <= 1.0


class TestLogSpacePvalues:
    def test_log10_matches_p_when_representable(self):
        res = chi2_independence(ContingencyTable(SENSATIONALISM_4X2))
        assert res.log10_p == pytest.approx(math.log10(res.p_value), rel=1e-9)

    def test_log10_finite_when_p_underflows(self):
        # extreme association: p underflows to 0 but the log stays informative
        res = chi2_independence(ContingencyTable([[100000, 1], [1, 100000]]))
        assert res.p_value == 0.0
        assert math.isfinite(res.log10_p)
        assert res.log10_p < -300

    def test_invariants_of_result(self):
        res = chi2_independence(ContingencyTable(BEHAVIOR_2X3))
        assert isinstance(res, Chi2Result)
        assert res.dof == (2 - 1) * (3 - 1)
        assert 0.0 <= res.cramers_v <= 1.0
        assert res.expected.shape == (2, 3)
        assert res.expected.sum() == pytest.approx(sum(map(sum, BEHAVIOR_2X3)))


def _wilson_with_norm_ppf(successes, n, confidence):
    """Reference Wilson bounds, with the z quantile from ``scipy.stats.norm``."""
    z = float(sps.norm.ppf(0.5 + confidence / 2.0))
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    return min(max(0.0, center - half), phat), max(min(1.0, center + half), phat)


class TestAgainstScipyStats:
    """The scipy.special calls reproduce scipy.stats' chi2 and norm bit for bit."""

    @pytest.mark.parametrize("counts", [EXPOSURE_2X2, BEHAVIOR_2X3, SENSATIONALISM_4X2,
                                        SENSATIONALISM_BY_EXPOSURE_2X4,
                                        [[10, 20], [30, 60]], [[100000, 1], [1, 100000]]])
    def test_p_value_is_chi2_sf(self, counts):
        for correction in (True, False):
            res = chi2_independence(ContingencyTable(counts), correction=correction)
            assert res.p_value == float(sps.chi2.sf(res.statistic, res.dof))

    @pytest.mark.parametrize("confidence", [1e-9, 0.5, 0.9, 0.95, 0.99, 0.999999])
    def test_wilson_z_is_norm_ppf(self, confidence):
        for successes, n in ((0, 7), (3, 10), (219, 1102), (10, 10)):
            res = wilson_interval(successes, n, confidence)
            assert (res.lo, res.hi) == _wilson_with_norm_ppf(successes, n, confidence)

    @pytest.mark.parametrize("dof", range(1, 41))
    def test_log_tail_is_chi2_logsf(self, dof):
        # exact on scipy 1.17.1; 2 ulp leaves room for a release that
        # re-derives its tail
        median = float(sps.chi2.median(dof))
        below = [median * f for f in (1e-6, 0.1, 0.5, 0.9, 0.999)] + [median]
        above = [median * f for f in (1.001, 1.1, 2.0, 5.0, 20.0)]
        for statistic in below + [np.nextafter(median, np.inf)] + above:
            ref = float(sps.chi2.logsf(statistic, dof)) / math.log(10.0)
            assert math.isfinite(ref)
            assert abs(_log10_chi2_tail(float(statistic), dof) - ref) <= 2 * math.ulp(ref)

    @pytest.mark.parametrize("dof", [1, 12, 40])
    def test_underflowed_tail_takes_the_expansion(self, dof):
        statistic = 5000.0
        assert sps.chi2.sf(statistic, dof) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log10_p = _log10_chi2_tail(statistic, dof)
        # below the log10 of the smallest subnormal double, yet finite
        assert math.isfinite(log10_p) and log10_p < math.log10(5e-324)


class TestWilsonIntervalType:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            WilsonInterval(point=0.5, lo=0.6, hi=0.7)
        with pytest.raises(ValueError):
            WilsonInterval(point=0.5, lo=0.4, hi=1.2)
