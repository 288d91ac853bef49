"""Exact sign-flip p-values on integer differences, and the recorded p method."""

import json
from fractions import Fraction

import numpy as np
import pytest

from conftest import triples_from
from permutation_oracle import exact_permutation_p
from revaudit.errors import ParseError
from revaudit.nonparametric import (
    P_EXACT,
    P_MONTE_CARLO,
    load_permutation_result,
    permutation_test,
    save_permutation_result,
)

# float64 carries ~16 significant digits; the exact law is a short chain of
# correctly rounded binomial terms and sums of nonnegative products.
RELATIVE_TOLERANCE = 1e-12


def big_int_p(diffs: list[int]) -> Fraction:
    """P(|sum e_i d_i| >= |sum d_i|) by counting sign patterns per sum in integers."""
    counts = {0: 1}
    for d in diffs:
        step: dict[int, int] = {}
        for total, count in counts.items():
            step[total + d] = step.get(total + d, 0) + count
            step[total - d] = step.get(total - d, 0) + count
        counts = step
    observed = abs(sum(diffs))
    hits = sum(count for total, count in counts.items() if abs(total) >= observed)
    return Fraction(hits, 2 ** len(diffs))


@pytest.mark.parametrize("k, low, high", [
    (1, -3, 4), (2, -1, 2), (17, -5, 6), (60, -2, 4), (150, -5, 6), (400, -5, 6), (400, -1, 4),
])
def test_exact_p_equals_the_big_integer_oracle(k, low, high):
    rng = np.random.default_rng([1, k, high])
    diffs = rng.integers(low, high, size=k).tolist()
    result = permutation_test(triples_from(diffs), iterations=10, seed=0, bootstrap=False)
    assert result.p_method == P_EXACT
    assert result.p_two_sided == pytest.approx(float(big_int_p(diffs)), rel=RELATIVE_TOLERANCE)


def test_exact_p_keeps_ties_and_zeros():
    diffs = [0, 0, 3, 3, -3, 1, 0, -1, 2, 2, 2, 0]
    result = permutation_test(triples_from(diffs), iterations=10, seed=0, bootstrap=False)
    assert result.p_two_sided == pytest.approx(float(big_int_p(diffs)), rel=RELATIVE_TOLERANCE)


def test_exact_p_equals_the_enumeration_for_small_k():
    rng = np.random.default_rng(27)
    for k in range(1, 15):
        diffs = rng.integers(-5, 6, size=k).astype(float).tolist()
        result = permutation_test(triples_from(diffs), iterations=10, seed=0, bootstrap=False)
        assert result.p_two_sided == pytest.approx(
            exact_permutation_p(diffs), rel=RELATIVE_TOLERANCE
        ), diffs


def test_a_thousand_equal_differences_reach_two_to_the_minus_999():
    result = permutation_test(triples_from([1.0] * 1000), iterations=10, seed=0, bootstrap=False)
    assert result.p_method == P_EXACT
    assert result.p_two_sided == pytest.approx(2.0**-999, rel=RELATIVE_TOLERANCE)


def test_monte_carlo_on_half_integers_tracks_the_enumeration():
    rng = np.random.default_rng(41)
    for k in range(1, 11):
        diffs = (rng.integers(-5, 5, size=k) + 0.5).tolist()
        result = permutation_test(triples_from(diffs), iterations=10_000, seed=k, bootstrap=False)
        assert result.p_method == P_MONTE_CARLO
        assert abs(result.p_two_sided - exact_permutation_p(diffs)) <= 0.02, diffs


def test_differences_beyond_the_exact_lattice_use_monte_carlo():
    result = permutation_test(
        triples_from([1e6, -2e6, 3e6]), iterations=2000, seed=3, bootstrap=False
    )
    assert result.p_method == P_MONTE_CARLO
    assert abs(result.p_two_sided - exact_permutation_p([1e6, -2e6, 3e6])) <= 0.03


def test_permutation_json_records_the_p_method(tmp_path):
    result = permutation_test(triples_from([2.0, -1.0, 1.0, 3.0]), iterations=500, seed=1)
    path = tmp_path / "permutation.json"
    save_permutation_result(result, path)
    assert json.loads(path.read_text())["p_method"] == P_EXACT
    assert load_permutation_result(path) == result


@pytest.mark.parametrize("p_method, message", [
    (None, "permutation.json: missing key 'p_method'"),
    ("bayes", "permutation.json: wrong shape (unknown p_method 'bayes')"),
])
def test_permutation_json_without_a_known_p_method_is_a_parse_error(tmp_path, p_method, message):
    result = permutation_test(triples_from([2.0, -1.0, 1.0]), iterations=500, seed=1)
    raw = result.as_dict()
    if p_method is None:
        del raw["p_method"]
    else:
        raw["p_method"] = p_method
    path = tmp_path / "permutation.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError) as info:
        load_permutation_result(path)
    assert str(info.value) == message
