"""The float formatter of the output writers gives format(x, '.17g') for every float.

config._column formats a float64 column in two ways: values with
1e-4 <= |x| < 1e16 are written out by an exact array formatter
(config._positional), every other value by one '%.17g' pass.  Each case
below compares the column with format(x, '.17g') value by value (and in
JSON, with "null" for nan and +-inf).  The draws reach both sides of the
formatter's range checks: random bit patterns over every exponent and over
the positional band, the neighbours of each power of ten, values exactly
half-way between two 17-digit decimals, and whole numbers that end in zeros.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from squeezedzeno.config import _column

RNG_SEED = 20261020


def _reference(values: np.ndarray, cell: bool) -> list[str]:
    return [format(v, ".17g") if cell or math.isfinite(v) else "null" for v in values.tolist()]


def _check(values: np.ndarray, cell: bool = True) -> None:
    got, want = _column(values, cell).tolist(), _reference(values, cell)
    assert got == want, [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w][:5]


def _signed(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def _random_bits(rng, count: int, exponents: tuple[int, int]) -> np.ndarray:
    """count random floats: a random sign and mantissa, the biased exponent drawn
    from exponents (both ends included)."""
    mantissa = rng.integers(0, 1 << 52, count, dtype=np.int64)
    exponent = rng.integers(exponents[0], exponents[1], count, dtype=np.int64, endpoint=True)
    sign = rng.integers(0, 2, count, dtype=np.int64) << 63
    return (sign | (exponent << 52) | mantissa).view(np.float64)


def _ties(rng) -> np.ndarray:
    """Floats in [1e13, 1e16) whose 17-digit rounding is an exact tie.  At
    E = 13, 14, 15 these are n + odd / 16, / 8 and / 4 for a whole n, which
    are exact below 2**48, 2**49 and 2**51; above 2**51 no float is a tie."""
    values = []
    for exponent, den, top in ((13, 16, 10 ** 14), (14, 8, 2 ** 49), (15, 4, 2 ** 51)):
        whole = rng.integers(10 ** exponent, top, 1500).astype(np.float64)
        values.append(whole + (2 * rng.integers(0, den // 2, 1500) + 1) / den)
    return np.concatenate(values)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(RNG_SEED)


def test_random_bit_patterns_over_every_exponent_and_the_positional_band(rng):
    # 10**6 draws: 50 000 over every exponent (nan and inf included), 950 000
    # with 2**-15 <= |x| < 2**55, about 1e-4/3 to 3.6e16, across both range checks
    values = np.concatenate([_random_bits(rng, 50_000, (0, 2047)),
                             _random_bits(rng, 950_000, (1023 - 15, 1023 + 54))])
    _check(values)


def test_json_texts_of_random_bit_patterns(rng):
    values = np.concatenate([_random_bits(rng, 20_000, (0, 2047)),
                             _random_bits(rng, 30_000, (1023 - 15, 1023 + 54))])
    _check(values, cell=False)


@pytest.mark.parametrize("cell", [True, False], ids=["csv", "json"])
def test_zeros_subnormals_and_non_finite_values(rng, cell):
    subnormal = rng.integers(1, 1 << 52, 2000, dtype=np.int64).view(np.float64)
    specials = [0.0, 5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308,
                np.nan, np.inf, 1.7976931348623157e308]
    values = np.concatenate([_signed(subnormal), _signed(specials)])
    _check(values, cell)
    texts = _column(np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]), cell).tolist()
    assert texts == (["nan", "nan", "inf", "-inf"] if cell else ["null"] * 4) + ["0", "-0"]


@pytest.mark.parametrize("cell", [True, False], ids=["csv", "json"])
def test_neighbours_of_each_power_of_ten(cell):
    powers = 10.0 ** np.arange(-6, 18)
    values = []
    for power in powers:
        below = above = power
        for _ in range(3):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            values += [below, above]
        values.append(power)
    _check(_signed(values), cell)


def test_exact_ties_round_half_to_even(rng):
    ties = _ties(rng)
    for value in ties.tolist():
        exponent = len(str(int(value))) - 1
        assert (Fraction(value) * 10 ** (16 - exponent)).denominator == 2, value
    _check(_signed(ties))


def test_whole_numbers_ending_in_zeros(rng):
    whole = rng.integers(1, 10 ** 6, 2000) * 10.0 ** rng.integers(0, 11, 2000)
    values = _signed([10.0, 7240.0, 1e15, 1e14 + 10.0, 100.5, 0.5, 0.25, 1e-4, 0.001,
                      1234567890123456.0, 9999999999999998.0, *whole.tolist()])
    _check(values)
    assert _column(np.array([10.0, 7240.0, 1e15, -0.5]), True).tolist() == [
        "10", "7240", "1000000000000000", "-0.5"]


def test_an_empty_column_and_a_shaped_one():
    assert _column(np.array([]), True).tolist() == []
    assert _column(np.array([]), False).tolist() == []
    grid = np.array([[1.5, -2.25e-3], [np.inf, 3e20]])
    assert _column(grid, False).tolist() == ["1.5", "-0.0022499999999999998", "null", "3e+20"]
