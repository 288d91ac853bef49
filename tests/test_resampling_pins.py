"""Seeded Monte Carlo p-values and bootstrap intervals, pinned bit for bit.

The values were recorded from the one-shot resampling matrices (every sign or
index drawn in a single ``rng.integers`` call).  Resampling in row chunks must
reproduce them exactly for the same seed, including iteration counts that are
not a multiple of the chunk and a single iteration.
"""

import numpy as np
import pytest

from conftest import triples_from
from revaudit.nonparametric import bootstrap_ci, permutation_test


def _inputs():
    rng = np.random.default_rng(20261018)
    return {
        "half7": [0.5, -1.5, 2.5, 0.5, 1.5, -0.5, 3.5],
        "half287": (rng.integers(-6, 6, size=287) + 0.5).tolist(),
        "int5": [1.0, -2.0, 4.0, 0.0, 3.0],
        "int931": rng.integers(-4, 5, size=931).astype(float).tolist(),
        "float301": (0.1 + rng.standard_normal(301)).tolist(),
    }


INPUTS = _inputs()


@pytest.mark.parametrize("name, iterations, seed, expected", [
    ("half7", 10_000, 3, 0.24687531246875313),
    ("half7", 2_345, 11, 0.2651321398124467),
    ("half7", 1, 5, 0.5),
    ("half287", 10_000, 3, 0.264973502649735),
    ("half287", 2_345, 11, 0.24296675191815856),
    ("half287", 1, 5, 0.5),
])
def test_monte_carlo_p_is_pinned_on_half_integer_differences(name, iterations, seed, expected):
    result = permutation_test(
        triples_from(INPUTS[name]), iterations=iterations, seed=seed, bootstrap=False
    )
    assert result.p_two_sided == expected


@pytest.mark.parametrize("name, iterations, seed, expected", [
    ("int5", 10_000, 7, (-0.6, 3.0)),
    ("int5", 2_501, 5, (-0.6, 3.0)),
    ("int931", 10_000, 7, (-0.3147422126745435, 0.021482277121374866)),
    ("int931", 2_501, 5, (-0.30773361976369495, 0.018796992481203006)),
    ("float301", 10_000, 7, (0.057404496555480786, 0.27935832277646166)),
    ("float301", 2_501, 5, (0.06241020769355458, 0.2840009280185777)),
])
def test_bootstrap_interval_is_pinned(name, iterations, seed, expected):
    assert bootstrap_ci(triples_from(INPUTS[name]), iterations=iterations, seed=seed) == expected


def test_permutation_result_with_bootstrap_is_pinned():
    result = permutation_test(triples_from(INPUTS["half287"]), iterations=10_000, seed=9)
    assert result.statistic == 0.23867595818815332
    assert result.p_two_sided == 0.27287271272872715
    assert result.ci95_bootstrap == (-0.17247386759581881, 0.6637630662020906)
