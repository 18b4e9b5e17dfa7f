"""`encode(x)` of every quantizer kind codes each element once: its codes are
those of the independent codecs, and its reconstruction is `fake(x)` bit for
bit (compared as int64 views, so -0.0 against 0.0 is a difference)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqkit.dual_region import DualRegionParams, encode_tensor
from ptqkit.errors import EmptyInput, InvalidArgument
from ptqkit.outlier_groups import GroupedQuantParams, QuantGroup, grouped_dequantize, grouped_quantize
from ptqkit.uniform import QuantParams, quant_range, quantize_array

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def check_encode(p, x, codec) -> np.ndarray:
    """`p.encode(x)` against `codec(x)`'s codes and `p.fake(x)`'s values; returns the values."""
    with np.errstate(over="ignore"):  # a huge value or scale overflows the same way on both sides
        codes, recon = p.encode(x)
        want_codes, fake = codec(x), p.fake(x)
    assert codes.dtype == np.int32
    assert codes.shape == want_codes.shape and np.array_equal(codes, want_codes)
    assert recon.shape == fake.shape == x.shape
    assert np.array_equal(recon.view(np.int64), fake.view(np.int64))
    return recon


def values(draw, special: list, lo: float, hi: float, shape: tuple) -> np.ndarray:
    """An array of `shape` drawn from `special`, [lo, hi] and all finite floats."""
    value = st.one_of(st.sampled_from(special), st.floats(lo, hi), FINITE)
    n = math.prod(shape)
    return np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=np.float64).reshape(shape)


@st.composite
def uniform_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    axis = draw(st.sampled_from([None, *range(len(shape))]))
    bits, signed = draw(st.integers(2, 16)), draw(st.booleans())
    scheme = draw(st.sampled_from(["symmetric", "asymmetric"]))
    q_min, q_max = quant_range(bits, signed)
    n = 1 if axis is None else shape[axis]
    scales = draw(st.lists(st.floats(1e-6, 1e3), min_size=n, max_size=n))
    zps = [0] * n if scheme == "symmetric" else draw(st.lists(st.integers(q_min, q_max), min_size=n, max_size=n))
    if axis is None:
        p = QuantParams(scale=scales[0], zero_point=zps[0], bits=bits, signed=signed)
    else:
        p = QuantParams(scale=scales, zero_point=zps, bits=bits, signed=signed, axis=axis)
    s = max(scales)
    reach = s * 2**bits
    return p, values(draw, [-0.0, 0.0, s / 2, -s / 2, 1.5 * s, reach, -reach], -2 * reach, 2 * reach, shape)


@st.composite
def dual_region_cases(draw):
    bits = draw(st.integers(2, 16))
    shape = draw(st.sampled_from([(7,), (3, 5), (2, 3, 4)]))
    if draw(st.booleans()):
        # the calibrated coarse scale or the narrower 1 / (2^b - 1), and the shifts whose boundary lies below 1
        scale_r2 = 1.0 / (2 ** draw(st.sampled_from([bits - 1, bits])) - 1)
        m_min = next(m for m in range(1, bits + 2) if 2 ** (bits - 1) * scale_r2 * 2.0**-m < 1.0)
        p = DualRegionParams("softmax", bits, scale_r2, draw(st.integers(m_min, m_min + 4)))
        special = [-1e-6, -0.0, 0.0, p.boundary, math.nextafter(p.boundary, 0.0), p.scale_r1 / 2, 1.0]
        value = st.one_of(st.sampled_from(special), st.floats(-1e-6, 1.0))
        n = math.prod(shape)
        return p, np.array(draw(st.lists(value, min_size=n, max_size=n))).reshape(shape)
    # a scale_r2 near the float64 maximum takes the reconstruction to inf
    scale_r2 = draw(st.one_of(st.floats(1e-6, 10.0), st.floats(1e300, 1e308)))
    p = DualRegionParams("gelu", bits, scale_r2, draw(st.integers(0, bits + 2)))
    reach = min(4.0 * p.value_max * scale_r2, 1e308)
    special = [-0.0, 0.0, -p.scale_r1 / 2, p.scale_r2 / 2, -reach, reach]
    return p, values(draw, special, -reach, reach, shape)


@st.composite
def grouped_cases(draw):
    bits = draw(st.integers(2, 16))
    uppers = sorted(set(draw(st.lists(st.floats(1e-3, 1e3), max_size=3)))) + [math.inf]
    signs = [draw(st.booleans()) for _ in uppers]  # signed and unsigned groups may mix
    params = [
        QuantParams(draw(st.floats(1e-4, 10.0)), draw(st.integers(*quant_range(bits, signed))), bits, signed)
        for signed in signs
    ]
    groups = tuple(QuantGroup(upper, q) for upper, q in zip(uppers, params))
    p = GroupedQuantParams(bits, groups, max_iters=len(groups) - 1)
    edges = [e for u in uppers[:-1] for e in (u, -u, math.nextafter(u, math.inf), -math.nextafter(u, math.inf))]
    shape = draw(st.sampled_from([(9,), (4, 6)]))
    reach = 2.0 * (uppers[-2] if len(uppers) > 1 else 1.0)
    return p, values(draw, [-0.0, 0.0, *edges], -reach, reach, shape)


def scalar_grouped_codes(p: GroupedQuantParams):
    """The (2, n) group indices over codes of `grouped_quantize`, element by element."""
    return lambda x: np.array([grouped_quantize(float(v), p) for v in x.reshape(-1)], dtype=np.int64).T


class TestEncodeIsOneCodingPass:
    @settings(max_examples=300, deadline=None)
    @given(uniform_cases())
    def test_uniform(self, case):
        p, x = case
        check_encode(p, x, lambda arr: quantize_array(arr, p))

    @settings(max_examples=300, deadline=None)
    @given(dual_region_cases())
    def test_dual_region(self, case):
        p, x = case
        check_encode(p, x, lambda arr: encode_tensor(arr, p))

    @settings(max_examples=300, deadline=None)
    @given(grouped_cases())
    def test_grouped(self, case):
        p, x = case
        recon = check_encode(p, x, scalar_grouped_codes(p))
        with np.errstate(over="ignore"):
            groups, codes = scalar_grouped_codes(p)(x)
        # the scalar decoder of the scalar codes, an oracle that shares no code with `_by_group`
        decoded = np.array([grouped_dequantize(int(g), int(c), p) for g, c in zip(groups, codes)])
        assert np.array_equal(recon.view(np.int64), decoded.reshape(x.shape).view(np.int64))

    def test_dual_region_words_come_from_the_payloads(self):
        # payload 2 at scale 1e308 reconstructs to inf; the word still packs payload 2
        p = DualRegionParams("gelu", 8, 1e308, 0)
        x = np.array([1.7e308, -1.7e308, 1e308, -0.0])
        with np.errstate(over="ignore"):
            words, recon = p.encode(x)
        assert words.tolist() == encode_tensor(x, p).tolist() == [130, 2, 129, 128]
        assert np.isinf(recon[:2]).all() and recon[2] == 1e308 and recon[3] == 0.0


@pytest.mark.parametrize(
    "bad, error", [([math.nan, 1.0], InvalidArgument), ([math.inf], InvalidArgument), ([], EmptyInput)]
)
@pytest.mark.parametrize(
    "p",
    [
        QuantParams(0.1, 0, 8, False),
        DualRegionParams("gelu", 8, 0.05, 2),
        GroupedQuantParams(8, (QuantGroup(math.inf, QuantParams(0.1, 0, 8, False)),), max_iters=1),
    ],
    ids=["uniform", "dual_region", "grouped"],
)
def test_every_kind_rejects_a_non_finite_or_empty_input_alike(p, bad, error):
    for method in (p.fake, p.encode):
        with pytest.raises(error):
            method(np.array(bad))
