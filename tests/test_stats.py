import numpy as np
import pytest

from entrate import EstimationError, InsufficientDataError, ttest_pooled

# Per-subject entropy rate estimates for the two rearing groups, as published.
LBN_SWLZ = (1.6956, 1.6285, 1.6797, 1.6807, 1.7916, 1.8526)
CTL_SWLZ = (1.5483, 1.5107, 1.5727, 1.6571, 1.7552, 1.7864)
LBN_EMP1 = (1.8837, 1.8015, 1.8774, 1.8403, 1.9342, 2.0515)
CTL_EMP1 = (1.7393, 1.5322, 1.6256, 1.7427, 1.8164, 1.8590)
LBN_EMP2 = (1.5069, 1.3307, 1.4988, 1.5168, 1.6192, 1.7462)
CTL_EMP2 = (1.3632, 1.2044, 1.2621, 1.3900, 1.3637, 1.4391)


class TestTtestPooled:
    def test_identical_groups_zero(self):
        a = [1.0, 2.0, 3.0]
        cmp = ttest_pooled(a, list(a))
        assert cmp.t_statistic == 0.0
        assert cmp.df == 4

    def test_published_swlz_columns(self):
        cmp = ttest_pooled(list(CTL_SWLZ), list(LBN_SWLZ))
        assert cmp.t_statistic == pytest.approx(-1.4425, abs=1e-3)
        assert cmp.means[0] == pytest.approx(1.6384, abs=1e-4)
        assert cmp.means[1] == pytest.approx(1.7215, abs=1e-4)
        assert cmp.df == 10

    def test_published_first_order_columns(self):
        cmp = ttest_pooled(list(CTL_EMP1), list(LBN_EMP1))
        assert cmp.t_statistic == pytest.approx(-2.9308, abs=1e-3)
        assert cmp.means[0] == pytest.approx(1.7192, abs=1e-4)
        assert cmp.means[1] == pytest.approx(1.8981, abs=1e-4)

    def test_antisymmetry_exact(self):
        cmp_ab = ttest_pooled(list(CTL_SWLZ), list(LBN_SWLZ))
        cmp_ba = ttest_pooled(list(LBN_SWLZ), list(CTL_SWLZ))
        assert cmp_ab.t_statistic == -cmp_ba.t_statistic

    def test_degenerate_rejected(self):
        with pytest.raises(EstimationError, match="degenerate"):
            ttest_pooled([1.0, 1.0, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            ttest_pooled([1.0, 2.0, value], [1.0, 2.0])

    def test_small_groups_rejected(self):
        with pytest.raises(InsufficientDataError):
            ttest_pooled([1.0], [1.0, 2.0])

    def test_first_and_second_order_estimates_correlate(self):
        # Documented example computation: the published first- and
        # second-order per-subject estimates correlate at about 0.937.
        m1 = np.array(LBN_EMP1 + CTL_EMP1)
        m2 = np.array(LBN_EMP2 + CTL_EMP2)
        assert np.corrcoef(m1, m2)[0, 1] == pytest.approx(0.937, abs=1e-3)
