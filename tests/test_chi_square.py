import numpy as np
import pytest

from tests.chi_square import kc_chi_square


class TestKcGoodnessOfFit:
    def test_chi_square_requires_two_samples(self):
        with pytest.raises(ValueError, match="two pool samples"):
            kc_chi_square(np.array([0, 1]), 200, 0.06)

    def test_histogram_longer_than_pool_rejected(self):
        with pytest.raises(ValueError):
            kc_chi_square(np.ones(5), 3, 0.5)

    def test_chi_square_rejects_wrong_model(self, rng):
        samples = rng.binomial(200, 0.12, size=2000)
        _, pvalue, _ = kc_chi_square(np.bincount(samples, minlength=201), 200, 0.0602)
        assert pvalue < 1e-6

    def test_chi_square_needs_spread(self):
        with pytest.raises(ValueError):
            kc_chi_square([100], 200, 0.0)
