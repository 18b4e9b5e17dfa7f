"""float32 samples in, float64 bits out: every calibrator and codec that keeps float32 samples
(`tensor._as_float`) gives the parameters and output bytes of their float64 widening, which is
exact. The draws aim at the comparisons where a float32 value meeting a Python float would be
computed in float32: a softmax R1 boundary, -0.0 beside the GeLU split, a one-group grouped
quantizer (its scale a shared Python float in `search._pieces_into`'s table) and a softmax
maximum or minimum one float32 step from its 1 + 1e-6 or -1e-6 limit."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqkit.dual_region import DualRegionParams, calibrate_dual_region, softmax_r2_scale
from ptqkit.errors import InvalidArgument
from ptqkit.io import quantizer_to_dict
from ptqkit.outlier_groups import STRATEGY_KINDS, ThresholdStrategy, calibrate_grouped
from ptqkit.search import SearchSpace, mse_grid_search
from ptqkit.tensor import Tensor
from ptqkit.uniform import QuantParams

BITS = st.sampled_from([2, 3, 4, 6, 8])  # 6 and 8 bits: float32 rounds each softmax boundary down
# a size draw that also reaches the sorted scorer (`search._sorting_pays`) at 2-4 bits
SIZES = st.one_of(st.integers(1, 64), st.integers(600, 3000))


def _steps(value: float) -> list[np.float32]:
    """The float32 nearest `value` and one float32 step either side of it."""
    f = np.float32(value)
    return [np.nextafter(f, np.float32(-np.inf)), f, np.nextafter(f, np.float32(np.inf))]


@st.composite
def samples(draw, kind: str, bits: int, edges=()) -> np.ndarray:
    """float32 samples of `kind` ("softmax" in [0, 1] up to its limits, "gelu", "outlier"), with
    hazards for `bits`, and the float32 steps around each of `edges`, written over drawn positions."""
    n = draw(SIZES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "softmax":
        x = rng.random(n) ** draw(st.sampled_from([1, 4, 16]))
        r2 = softmax_r2_scale(bits) * 2 ** (bits - 1)
        hazards = [v for m in range(1, bits + 1) for v in _steps(r2 * 2.0**-m)] + [0.0, 1.0]
        hazards += _steps(1.0 + 1e-6) + _steps(-1e-6)
    else:
        x = rng.standard_normal(n) * 10.0 ** draw(st.integers(-4, 4))
        if kind == "gelu":
            x = np.where(x < 0, x * draw(st.sampled_from([0.0, 0.05, 1.0])), x)
        else:  # a few values far outside the bulk, as outlier groups split off
            x[rng.random(n) < 0.02] *= draw(st.sampled_from([10.0, 1e3]))
        hazards = [-0.0, 0.0, np.float32(1e-45), -np.float32(1e-45), *_steps(float(np.float32(x[0])))]
    hazards += [v for edge in edges for v in _steps(edge)]
    x = x.astype(np.float32)
    for _ in range(draw(st.integers(0, 16 if edges else 8))):
        x[draw(st.integers(0, n - 1))] = draw(st.sampled_from(hazards))
    return x


def edges_of(params) -> list[float]:
    """Where a fitted quantizer's float32 input is at risk: its region split or group thresholds,
    and the rounding edges (k - z + 1/2) s of a few codes k of each piece (s, z, q_min, q_max)."""
    if isinstance(params, QuantParams):
        table, splits = [(params.scale, params.zero_point, params.q_min, params.q_max)], []
    else:
        table = params._pieces()[1]
        splits = [params.split] if isinstance(params, DualRegionParams) else list(params.thresholds[:-1])
    halves = [(k - z + 0.5) * s for s, z, lo, hi in table for k in {lo, lo + 1, (lo + hi) // 2, hi - 1}]
    return [v for v in splits + halves if abs(v) < 3e38]


def outcome(call, values):
    """What `call(values)` gives, as text and bytes: a quantizer as its params JSON, arrays as
    their dtype and bytes, an InvalidArgument as its message."""
    try:
        got = call(values)
    except InvalidArgument as exc:
        return f"InvalidArgument: {exc}"
    if isinstance(got, np.ndarray):
        return str(got.dtype), got.shape, got.tobytes()
    if isinstance(got, tuple):
        return tuple(outcome(lambda _: part, None) for part in got)
    return json.dumps(quantizer_to_dict(got), sort_keys=True)


def assert_widening_is_kept(call, x: np.ndarray) -> None:
    """`call` gives the same on the float32 `x`, on a Tensor of it and on `x` in float64."""
    want = outcome(call, x.astype(np.float64))
    assert outcome(call, x) == want
    assert outcome(call, Tensor.from_array(x)) == want


class TestFloat32SamplesKeepFloat64Bits:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["gelu", "softmax"]), bits=BITS, weighted=st.booleans())
    def test_dual_region(self, data, kind, bits, weighted):
        x = data.draw(samples(kind, bits))
        grad = np.random.default_rng(x.size).standard_normal(x.shape) if weighted else None
        assert_widening_is_kept(lambda v: calibrate_dual_region(v, kind, bits, grad=grad), x)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), bits=BITS, scheme=st.sampled_from(["symmetric", "asymmetric"]), signed=st.booleans())
    def test_mse_grid_search(self, data, bits, scheme, signed):
        x = data.draw(samples(data.draw(st.sampled_from(["gelu", "outlier"])), bits))
        space = SearchSpace(n_candidates=data.draw(st.sampled_from([1, 20, 100])))
        assert_widening_is_kept(lambda v: mse_grid_search(v, bits, scheme, signed, space), x)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), bits=BITS, kind=st.sampled_from(STRATEGY_KINDS), max_iters=st.sampled_from([1, 3]))
    def test_calibrate_grouped(self, data, bits, kind, max_iters):
        x = data.draw(samples("outlier", bits))
        strategy = ThresholdStrategy(kind)
        assert_widening_is_kept(lambda v: calibrate_grouped(v, bits, strategy, max_iters), x)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), bits=BITS, which=st.sampled_from(["uniform", "gelu", "softmax", "grouped", "one-group"]))
    def test_codecs(self, data, bits, which):
        """`fake` and `encode` of each quantizer kind, fitted to float64 samples, on float32 ones
        with values at its splits and rounding edges."""
        kind = which if which in ("gelu", "softmax") else "outlier"
        fit = data.draw(samples(kind, bits)).astype(np.float64)
        if which == "uniform":
            params = mse_grid_search(fit, bits, "asymmetric", signed=data.draw(st.booleans()))
        elif which in ("gelu", "softmax"):
            params = calibrate_dual_region(np.clip(fit, 0.0, 1.0) if which == "softmax" else fit, which, bits)
        else:
            params = calibrate_grouped(fit, bits, ThresholdStrategy("none" if which == "one-group" else "mean_3sd"))
        x = data.draw(samples(kind, bits, edges_of(params)))
        assert_widening_is_kept(params.fake, x)
        assert_widening_is_kept(params.encode, x)


@pytest.mark.parametrize("limit", [1.0 + 1e-6, -1e-6])
def test_softmax_limits_are_compared_in_float64(limit):
    """A softmax sample one float32 step from a limit is accepted or refused as its float64 value is."""
    for step in _steps(limit):
        x = np.array([0.5, step], dtype=np.float32)
        assert_widening_is_kept(lambda v: calibrate_dual_region(v, "softmax", 8), x)


@pytest.mark.parametrize("bits", [6, 8])
def test_softmax_boundaries_are_compared_in_float64(bits):
    """A softmax sample at a float32 step of an R1 boundary codes in the region its float64 value
    is in: at 6 and 8 bits the float32 nearest each boundary is below it, in R1."""
    for m in range(1, bits + 1):
        p = DualRegionParams("softmax", bits, softmax_r2_scale(bits), m)
        x = np.array(_steps(p.split), dtype=np.float32)
        assert_widening_is_kept(p.fake, x)
        assert_widening_is_kept(p.encode, x)
