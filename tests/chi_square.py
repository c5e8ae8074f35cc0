"""The chi-square check of the collided-slot counts against the
independent-slots binomial model, shared by the simulator and acceptance
tests."""

import numpy as np
from scipy import stats

from rspool.analysis import _binom_pmf


def kc_chi_square(kc_counts, pool_size: int, p_c: float) -> tuple[float, float, int]:
    """Goodness-of-fit of a collided-slot count histogram (entry k: pools that
    saw k collided slots, as in `ScenarioStats.kc_counts`) against the
    independent-slots binomial model.

    Adjacent counts are pooled until every expected bin holds at least five
    samples. Returns (statistic, p_value, degrees_of_freedom).
    """
    counts = np.asarray(kc_counts, dtype=float)
    observed = np.zeros(pool_size + 1)
    observed[:counts.size] = counts  # a histogram longer than the pool raises
    n = observed.sum()
    if n < 2:
        raise ValueError("need at least two pool samples")
    expected = _binom_pmf(pool_size, p_c) * n

    obs_bins: list[float] = []
    exp_bins: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 or acc_o > 0:
        if exp_bins:
            obs_bins[-1] += acc_o
            exp_bins[-1] += acc_e
        else:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
    if len(exp_bins) < 2:
        raise ValueError("too few populated bins for a goodness-of-fit test")
    obs_arr = np.asarray(obs_bins)
    exp_arr = np.asarray(exp_bins) * obs_arr.sum() / sum(exp_bins)
    stat, pvalue = stats.chisquare(obs_arr, exp_arr)
    return float(stat), float(pvalue), len(exp_bins) - 1
