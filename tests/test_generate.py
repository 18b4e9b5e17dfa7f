import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqkit import generate
from ptqkit.generate import GELU_STD

FINITE = st.floats(allow_nan=False, allow_infinity=False)
MAXLOG = 7.09782712893383996843e2  # Cephes drops exp(-x^2) past this
EDGES = np.array(
    [
        0.0,
        -0.0,
        5e-324,  # smallest subnormal
        -5e-324,
        np.nextafter(2.2250738585072014e-308, 0.0),  # largest subnormal
        np.nextafter(1.0, 0.0),
        1.0,
        np.nextafter(1.0, 2.0),
        -1.0,
        5.921587,  # erf first rounds to 1 between these two
        5.921588,
        np.nextafter(6.0, 0.0),
        6.0,
        np.nextafter(8.0, 0.0),
        8.0,
        np.nextafter(8.0, 9.0),
        np.nextafter(math.sqrt(MAXLOG), 0.0),
        math.sqrt(MAXLOG),
        np.nextafter(math.sqrt(MAXLOG), 30.0),
        1e154,
        1e300,
        -1.7976931348623157e308,
        np.inf,
        -np.inf,
    ]
)
# Largest distance from math.erf in units in the last place, measured on
# 40M uniform draws on [0, 1.2] and 4M-point grids on [0, 1], [1, 2] and
# [2, 6]: 3 on [0, 1], where Cephes rounds twice in x T(x^2)/U(x^2); 1 above.
ULP_BOUND = 3


def erf(x):
    """generate.erf with any warning it emits (overflow, invalid) raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return generate.erf(x)


def ordered(values: np.ndarray) -> np.ndarray:
    """float64 bits as int64s whose differences count the floats between."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return np.where(bits < 0, np.int64(np.iinfo(np.int64).min) - bits, bits)


def same_bits(got, want):
    return np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


@pytest.fixture(scope="module")
def scipy_erf():
    return pytest.importorskip("scipy.special").erf


class TestMatchesScipy:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(FINITE, min_size=1, max_size=64))
    def test_every_finite_value(self, scipy_erf, values):
        x = np.array(values)
        assert same_bits(erf(x), scipy_erf(x))

    def test_gelu_preactivations(self, scipy_erf):
        # the draws synth("gelu", (256, 3072), seed) makes, scaled as _gelu scales them
        for seed in (0, 1):
            x = np.random.default_rng(seed).normal(0.0, GELU_STD, (256, 3072)) / math.sqrt(2.0)
            assert same_bits(erf(x), scipy_erf(x))

    def test_edges(self, scipy_erf):
        x = np.concatenate([EDGES, -EDGES])
        assert same_bits(erf(x), scipy_erf(x))

    def test_dense_grid_over_every_branch(self, scipy_erf):
        x = np.linspace(-9.0, 9.0, 200_001)
        assert same_bits(erf(x), scipy_erf(x))


class TestWithoutScipy:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(FINITE, min_size=1, max_size=64))
    def test_within_ulp_bound_of_math_erf(self, values):
        x = np.array(values)
        want = np.array([math.erf(v) for v in values])
        assert np.abs(ordered(erf(x)) - ordered(want)).max() <= ULP_BOUND

    def test_edges_within_ulp_bound_of_math_erf(self):
        want = np.array([math.erf(v) for v in EDGES])
        assert np.abs(ordered(erf(EDGES)) - ordered(want)).max() <= ULP_BOUND

    def test_saturates_to_exactly_one(self):
        x = np.array([6.0, 8.0, 27.0, 1e300, np.inf])
        assert np.array_equal(erf(x), np.ones(5))
        assert np.array_equal(erf(-x), -np.ones(5))

    def test_keeps_signed_zero_and_nan(self):
        got = erf(np.array([0.0, -0.0, np.nan]))
        assert np.array_equal(np.signbit(got[:2]), [False, True]) and got[0] == 0.0 == got[1]
        assert np.isnan(got[2])

    def test_odd(self):
        x = np.random.default_rng(0).normal(0.0, 2.0, 10_000)
        assert same_bits(erf(-x), -erf(x))

    def test_keeps_shape_of_any_layout(self):
        x = np.random.default_rng(0).normal(0.0, 2.0, (6, 5, 4))
        strided = x.transpose(2, 0, 1)[:, ::2]
        got = erf(strided)
        assert got.shape == strided.shape
        assert same_bits(got, erf(np.ascontiguousarray(strided)))
        assert erf(np.float64(0.5)).shape == ()
        assert same_bits(erf(np.float64(0.5)), erf(np.array([0.5]))[0])
