import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqkit.errors import InvalidArgument, ShapeError
from ptqkit.generate import synth
from ptqkit.uniform import (
    BNParams,
    QuantParams,
    QuantizedTensor,
    TINY,
    dequantize,
    error_stats,
    fake_quant_array,
    fold_batchnorm,
    full_range,
    make_params,
    quant_range,
    quantize,
)


def channel_params(ranges, bits, scheme="asymmetric", signed=False):
    """Axis-0 parameters with each channel's make_params for its (min, max)."""
    per = [make_params(lo, hi, bits, scheme, signed) for lo, hi in ranges]
    return QuantParams([p.scale for p in per], [p.zero_point for p in per], bits, signed, axis=0)


def scalar_rule(lo, hi, bits, scheme, signed):
    """The full-range rule on one range in Python floats: (scale, zero point)."""
    q_min, q_max = quant_range(bits, signed)
    absmax = max(abs(lo), abs(hi))
    if absmax == 0.0:
        return 1.0, 0
    if scheme == "symmetric":
        return absmax / q_max, 0
    scale = absmax / max(-q_min, q_max) if lo == hi else (hi - lo) / (q_max - q_min)
    return scale, int(np.clip(np.rint(q_min - lo / scale), q_min, q_max))


RANGES = st.one_of(  # all-zero, constant and general ranges; tiny spans give subnormal scales
    st.just((0.0, 0.0)),
    st.floats(-1e6, 1e6).map(lambda c: (c, c)),
    st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)).map(lambda r: tuple(sorted(r))),
)


class TestMakeParams:
    @settings(max_examples=300, deadline=None)
    @given(
        ranges=st.lists(RANGES, min_size=1, max_size=6),
        bits=st.integers(2, 16),
        scheme=st.sampled_from(["symmetric", "asymmetric"]),
        signed=st.booleans(),
    )
    def test_array_rule_equals_make_params(self, ranges, bits, scheme, signed):
        """`full_range` over an array of ranges is `make_params` on each, and
        that is the scalar rule; a subnormal scale fails on the first such range."""
        expect, first_error = [], None
        for lo, hi in ranges:
            try:
                p = make_params(lo, hi, bits, scheme, signed)
            except InvalidArgument as exc:
                first_error = first_error or str(exc)
                continue
            assert (p.scale, p.zero_point) == scalar_rule(lo, hi, bits, scheme, signed)
            expect.append((p.scale, p.zero_point))
        lo, hi = np.array(ranges).T
        if first_error:
            with pytest.raises(InvalidArgument) as exc:
                full_range(lo, hi, bits, scheme, signed)
            assert str(exc.value) == first_error
        else:
            scale, zp = full_range(lo, hi, bits, scheme, signed)
            assert list(zip(scale.tolist(), zp.tolist())) == expect

    def test_signed_asymmetric_zero_range_keeps_zero_point_zero(self):
        scale, zp = full_range(np.zeros(3), np.array([0.0, 1.0, 0.0]), 8, "asymmetric", signed=True)
        assert scale.tolist() == [1.0, 1 / 255, 1.0] and zp.tolist() == [0, -128, 0]

    @pytest.mark.parametrize("bits", [0, 1, 17, 100000, 8.5])
    def test_bits_checked_before_any_division(self, bits):
        for scheme, signed in (("asymmetric", False), ("symmetric", True)):
            with pytest.raises(InvalidArgument, match="bits must be a whole number"):
                make_params(-1.0, 2.0, bits, scheme, signed)

    def test_asymmetric_unit_range(self):
        p = make_params(0.0, 1.0, 8, "asymmetric", signed=False)
        assert p.scale == pytest.approx(1.0 / 255.0)
        assert p.zero_point == 0
        assert (p.q_min, p.q_max) == (0, 255)

    def test_symmetric_signed(self):
        p = make_params(-1.0, 1.0, 8, "symmetric", signed=True)
        assert p.scale == pytest.approx(1.0 / 127.0)
        assert p.zero_point == 0
        assert (p.q_min, p.q_max) == (-128, 127)

    def test_degenerate_zero_range(self):
        p = make_params(0.0, 0.0, 8, "symmetric")
        assert p.scale == 1.0 and p.zero_point == 0

    def test_min_above_max_rejected(self):
        with pytest.raises(InvalidArgument):
            make_params(1.0, 0.0, 8)

    def test_bits_domain(self):
        with pytest.raises(InvalidArgument):
            QuantParams(scale=1.0, zero_point=0, bits=1, signed=False)
        with pytest.raises(InvalidArgument):
            QuantParams(scale=1.0, zero_point=0, bits=17, signed=False)

    @pytest.mark.parametrize("scale", [math.inf, math.nan, 0.0, -1.0])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(InvalidArgument):
            QuantParams(scale=scale, zero_point=0, bits=8, signed=False)
        with pytest.raises(InvalidArgument):
            QuantParams(scale=[1.0, scale], zero_point=[0, 0], bits=8, signed=False, axis=0)

    def test_per_channel_lengths_must_match(self):
        with pytest.raises(ShapeError, match="^per-channel scale and zero_point lengths differ$"):
            QuantParams(scale=[1.0, 2.0], zero_point=[0], bits=8, signed=True, axis=0)

    @pytest.mark.parametrize("signed", ["no", 1, None])
    def test_signed_must_be_a_bool(self, signed):
        with pytest.raises(InvalidArgument):
            QuantParams(scale=1.0, zero_point=0, bits=8, signed=signed)

    def test_numpy_bool_signed_is_stored_as_bool(self):
        p = QuantParams(scale=1.0, zero_point=0, bits=8, signed=np.True_)
        assert p.signed is True

    @pytest.mark.parametrize(
        "lo,hi,scheme",
        [
            (2.2250738585072014e-308, 2.225073858507202e-308, "asymmetric"),  # was a ZeroDivisionError
            (-2e-321, 1e-321, "symmetric"),
            (-2e-321, 1e-321, "asymmetric"),
            (3e-310, 3e-310, "asymmetric"),
        ],
    )
    def test_subnormal_scale_rejected(self, lo, hi, scheme):
        with pytest.raises(InvalidArgument, match="subnormal"):
            make_params(lo, hi, 8, scheme)

    def test_smallest_normal_scale_accepted(self):
        assert make_params(0.0, 255 * TINY, 8, "asymmetric").scale == TINY

    @pytest.mark.parametrize(
        "field,value",
        [
            ("bits", 8.5), ("bits", "8"), ("bits", True), ("zero_point", 100.7), ("zero_point", "3"),
            ("zero_point", math.inf), ("axis", True), ("axis", -0.5), ("axis", 0.5),
        ],
    )
    def test_integer_fields_must_be_whole_numbers(self, field, value):
        fields = {"scale": 0.1, "zero_point": 3, "bits": 8, "signed": False, field: value}
        with pytest.raises(InvalidArgument, match=f"{field} must be a whole number"):
            QuantParams(**fields)

    def test_per_channel_zero_points_must_be_whole_numbers(self):
        for zps in ([3, 0.5], [3, False], [3, "4"]):
            with pytest.raises(InvalidArgument, match="zero_point must be a whole number"):
                QuantParams([0.1, 0.2], zps, 8, False, axis=0)

    def test_whole_floats_are_stored_as_ints(self):
        p = QuantParams(0.1, 3.0, 8.0, False)
        assert (p.bits, p.zero_point) == (8, 3) and type(p.bits) is int and type(p.zero_point) is int
        c = QuantParams([0.1, 0.2], np.array([3.0, 4.0]), np.int64(8), False, axis=1.0)
        assert c.zero_point.dtype == np.int64 and type(c.axis) is int and type(c.bits) is int
        assert QuantParams([0.1, 0.2], [3, 4], 8, False, axis=-3.0).axis == -3

    def test_constant_nonzero_value_representable(self):
        for c in (5.0, -3.25):
            p = make_params(c, c, 8, "asymmetric", signed=False)
            assert fake_quant_array(np.array([c]), p)[0] == pytest.approx(c, rel=1e-6)


class TestQuantizeDequantize:
    def test_known_codes(self):
        p = make_params(0.0, 1.0, 8, "asymmetric", signed=False)
        q = quantize([0.0, 0.5, 1.0], p)
        assert q.codes.tolist() == [0, 128, 255]

    def test_quantized_tensor_needs_one_code_per_element(self):
        with pytest.raises(ShapeError, match="^code count does not match shape$"):
            QuantizedTensor(shape=(2, 2), codes=np.zeros(3), params=make_params(0.0, 1.0, 8))

    @pytest.mark.parametrize("code", [-1, 256])
    def test_quantized_tensor_codes_lie_in_range(self, code):
        with pytest.raises(InvalidArgument, match=r"^codes outside \[q_min, q_max\]$"):
            QuantizedTensor(shape=(2,), codes=[0, code], params=make_params(0.0, 1.0, 8))

    def test_half_to_even(self):
        p = QuantParams(scale=1.0, zero_point=0, bits=8, signed=True)
        q = quantize([0.5, 1.5, 2.5, -0.5], p)
        assert q.codes.tolist() == [0, 2, 2, 0]

    def test_zero_maps_to_zero_point(self):
        p = make_params(0.0, 1.0, 8, "asymmetric", signed=False)
        assert quantize([0.0], p).codes.tolist() == [0]

    def test_clamp_saturation(self):
        p = make_params(0.0, 1.0, 8, "asymmetric", signed=False)
        assert quantize([10.0], p).codes.tolist() == [255]

    def test_dequantize_example(self):
        p = make_params(0.0, 1.0, 8, "asymmetric", signed=False)
        q = quantize([0.5], p)
        assert dequantize(q).data[0] == pytest.approx(128.0 / 255.0)

    def test_code_at_zero_point_dequantizes_to_zero(self):
        p = QuantParams(scale=0.1, zero_point=7, bits=8, signed=False)
        from ptqkit.uniform import QuantizedTensor

        q = QuantizedTensor(shape=(1,), codes=np.asarray([7]), params=p)
        assert dequantize(q).data[0] == 0.0

    def test_shape_mismatch_per_channel(self):
        p = channel_params([(0.0, 1.0), (0.0, 2.0)], 8)
        with pytest.raises(ShapeError):
            quantize(np.zeros((3, 2)), p)

    @pytest.mark.parametrize("axis", [2, -3, -100])
    def test_axis_past_the_rank(self, axis):
        p = replace(channel_params([(0.0, 1.0), (0.0, 2.0)], 8), axis=axis)
        with pytest.raises(ShapeError, match=f"^per-channel axis {axis} out of range for rank 2$"):
            p.fake(np.zeros((2, 2)))

    @given(
        st.integers(0, 10_000), st.integers(1, 4), st.integers(0, 3), st.integers(1, 3),
        st.sampled_from(["symmetric", "asymmetric"]), st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_negative_axis_counts_from_the_end(self, seed, ndim, k, stack, scheme, signed):
        """Axis k - ndim codes an array of rank ndim as axis k does, and codes every
        array of a leading stack as it codes that array alone."""
        k %= ndim
        rng = np.random.default_rng(seed)
        shape = tuple(int(d) for d in rng.integers(1, 5, ndim))
        xs = rng.standard_normal((stack, *shape)) * rng.uniform(0.01, 100.0)
        rows = np.moveaxis(xs, k + 1, 0).reshape(shape[k], -1)
        # clip ranges both narrower and wider than the data
        ranges = [(float(r.min()) * f, float(r.max()) * f) for r, f in zip(rows, rng.uniform(0.5, 1.5, shape[k]))]
        at_k = replace(channel_params(ranges, int(rng.integers(2, 17)), scheme, signed), axis=k)
        from_end = replace(at_k, axis=k - ndim)

        def coded(p, x):  # codes, reconstruction, fake
            return (*p.encode(x), p.fake(x))

        def same(a, b):
            assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

        stacked = coded(from_end, xs)
        for i, x in enumerate(xs):
            for got, at_axis_k, alone in zip(coded(from_end, x), coded(at_k, x), stacked):
                same(got, at_axis_k)
                same(alone[i], got)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_codes_within_range_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(64) * rng.uniform(0.01, 100)
        bits = int(rng.integers(2, 17))
        signed = bool(rng.integers(0, 2))
        scheme = "symmetric" if rng.integers(0, 2) else "asymmetric"
        p = make_params(float(x.min()), float(x.max()), bits, scheme, signed)
        q = quantize(x, p)
        assert q.codes.min() >= p.q_min and q.codes.max() <= p.q_max

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_code_stability(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(128) * 3
        p = make_params(float(x.min()), float(x.max()), 8, "asymmetric")
        q1 = quantize(x, p)
        q2 = quantize(dequantize(q1), p)
        assert np.array_equal(q1.codes, q2.codes)


class TestFakeQuant:
    def test_lattice_points_unchanged(self):
        p = QuantParams(scale=0.25, zero_point=0, bits=8, signed=True)
        x = np.array([-2.0, -0.25, 0.0, 0.5, 1.25])
        assert np.array_equal(fake_quant_array(x, p), x)

    def test_compose_example(self):
        p = make_params(0.0, 1.0, 8, "asymmetric", signed=False)
        got = fake_quant_array(np.array([0.0, 0.5, 1.0]), p)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(128.0 / 255.0)
        assert got[2] == pytest.approx(1.0)

    def test_integer_identity_scale(self):
        p = QuantParams(scale=1.0, zero_point=0, bits=8, signed=True)
        x = [-3.0, 0.0, 7.0]
        assert fake_quant_array(np.array(x), p).tolist() == x

    @given(st.integers(0, 10_000), st.sampled_from(["symmetric", "asymmetric"]), st.booleans(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_fake_is_idempotent(self, seed, scheme, signed, per_channel):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 24)) * rng.uniform(0.01, 100.0)
        bits = int(rng.integers(2, 17))
        # clip ranges both narrower and wider than the data
        ranges = [(float(r.min()) * k, float(r.max()) * k) for r, k in zip(x, rng.uniform(0.5, 1.5, 4))]
        if per_channel:
            p = channel_params(ranges, bits, scheme, signed)
        else:
            p = make_params(*ranges[0], bits, scheme, signed)
        once = p.fake(x)
        assert np.array_equal(p.fake(once), once)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(96).astype(np.float32)
        p = make_params(float(x.min()), float(x.max()), 6, "asymmetric")
        once = fake_quant_array(x, p)
        assert np.array_equal(fake_quant_array(once, p), once)

    def test_odd_symmetry_signed(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 64)
        p = make_params(-1.0, 1.0, 8, "symmetric", signed=True)
        left = fake_quant_array(-x, p)
        right = -fake_quant_array(x, p)
        assert np.array_equal(left, right)

    def test_per_channel_beats_per_tensor_mse(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 64)) * np.array([[0.1], [1.0], [5.0], [20.0]])
        pairs = [(float(r.min()), float(r.max())) for r in x]
        per_channel = channel_params(pairs, 8)
        per_tensor = make_params(float(x.min()), float(x.max()), 8, "asymmetric")
        mse_ch = np.mean((x - fake_quant_array(x, per_channel)) ** 2)
        mse_pt = np.mean((x - fake_quant_array(x, per_tensor)) ** 2)
        assert mse_ch <= mse_pt


class TestQuantError:
    """error_stats of a fake-quantized signal against the signal."""

    def test_exact_lattice(self):
        p = QuantParams(scale=0.5, zero_point=0, bits=8, signed=True)
        x = np.array([0.5, -1.0, 2.0])
        mse, sqnr_db, cosine = error_stats(x, fake_quant_array(x, p))
        assert mse == 0.0
        assert cosine == pytest.approx(1.0)
        assert sqnr_db == math.inf

    def test_half_step_error(self):
        p = make_params(0.0, 1.0, 8, "asymmetric", signed=False)
        x = np.array([0.5])
        mse, _, _ = error_stats(x, fake_quant_array(x, p))
        assert mse == pytest.approx((0.5 - 128.0 / 255.0) ** 2, rel=1e-6)

    def test_uniform_noise_model(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 100_000)
        p = make_params(0.0, 1.0, 8, "asymmetric", signed=False)
        mse, _, _ = error_stats(x, fake_quant_array(x, p))
        model = p.scale**2 / 12.0
        assert model / 2 <= mse <= model * 2


    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 300))
    def test_mse_has_the_bits_of_np_mean(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, cols)) * rng.uniform(1e-3, 1e3)
        b = a + rng.standard_normal((rows, cols)) * rng.uniform(1e-6, 1.0)
        mse, _, _ = error_stats(a, b)
        assert np.float64(mse).tobytes() == np.mean((a - b) ** 2).tobytes()

    def test_mse_has_the_bits_of_np_mean_on_a_gelu_dump(self):
        a = synth("gelu", (256, 3072), 0).array.astype(np.float64)
        b = fake_quant_array(a, make_params(float(a.min()), float(a.max()), 4))
        mse, _, _ = error_stats(a, b)
        assert np.float64(mse).tobytes() == np.mean((a - b) ** 2).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 786_432))
    def test_one_buffer_gives_the_bits_of_the_temporaries(self, seed, n):
        """error_stats sums blocks into one reused buffer: a**2, a*b, b**2 and (a - b)**2 as
        whole-array temporaries give the same sums, so every statistic has their bits up to a
        256x3072 dump's size, and the cosine is sum(ab) / (sqrt(sum(a^2)) sqrt(sum(b^2)))."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n) * rng.uniform(1e-3, 1e3)
        b = a + rng.standard_normal(n) * rng.uniform(1e-6, 1.0)
        signal, noise = float(np.sum(a * a)), float(np.sum((a - b) ** 2))
        cosine = float(np.sum(a * b)) / (math.sqrt(signal) * math.sqrt(float(np.sum(b * b))))
        want = (noise / n, 10.0 * math.log10(signal / noise), cosine)
        assert np.float64(error_stats(a, b)).tobytes() == np.float64(want).tobytes()

    def test_callers_arrays_are_left_as_they_were(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((64, 48))
        b = a + rng.standard_normal((64, 48)) * 0.01
        before = a.tobytes(), b.tobytes()
        error_stats(a, b)
        assert (a.tobytes(), b.tobytes()) == before

    def test_traced_peak_of_two_float32_dumps(self):
        """The statistics widen a block of each float32 input at a time, so two 256x3072 arrays peak
        at those two blocks and one work block of float64: 0.094 x one float64 copy. Taken in
        whole float64 copies, they peaked at 2 copies, and with a buffer beside them at 3."""
        a = synth("gelu", (256, 3072), 0).array
        b = a + np.float32(0.01)
        tracemalloc.start()
        try:
            error_stats(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.11 * 8 * a.size, f"traced peak {peak / (8 * a.size):.3f} x one float64 copy"

    NEAR_LIMIT = np.array([1e154, -1e154, 3.0])  # |x|^2 passes the float64 maximum, |x / 2|^2 does not

    def test_near_limit_data_gets_the_true_cosine_and_sqnr(self):
        """Unscaled, the norm of x is inf: the cosine read 0.0 and the SQNR inf."""
        x = self.NEAR_LIMIT
        with np.errstate(over="ignore"):
            mse, sqnr_db, cosine = error_stats(x, 0.5 * x)
        assert cosine == 1.0 and sqnr_db == pytest.approx(10.0 * math.log10(4.0), rel=1e-12)
        assert np.float64(mse).tobytes() == np.mean((0.5 * x) ** 2).tobytes()  # 1.6667e307

    def test_near_limit_data_warns_of_nothing(self):
        x = self.NEAR_LIMIT
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            error_stats(x, 0.5 * x)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(400, 1020))
    def test_a_power_of_two_moves_no_cosine_or_sqnr(self, seed, n, j):
        """Signals scaled by 2^j, up to where their squares and sums pass the float64 maximum, keep
        every bit of their cosine and SQNR, and their mse is 4^j times the unscaled one (inf past
        the maximum)."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n)
        b = a + rng.standard_normal(n) * rng.uniform(1e-6, 1.0)
        mse, sqnr_db, cosine = error_stats(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = error_stats(np.ldexp(a, j), np.ldexp(b, j))
        with np.errstate(over="ignore"):
            want = (float(np.ldexp(mse, 2 * j)), sqnr_db, cosine)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    TINY = np.array([1e-170, 2e-170])  # every square underflows to 0

    @pytest.mark.parametrize("b, sqnr_db, cosine", [(-TINY, -6.020599913279624, -0.9999999999999999),
                                                    (np.zeros(2), 0.0, 0.0)], ids=["negated", "zeros"])
    def test_tiny_data_gets_the_true_cosine_and_sqnr(self, b, sqnr_db, cosine):
        """Those of the data scaled by a power of two; unscaled, both read as identical signals
        (sqnr inf, cosine 1.0). The mse underflows to 0.0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert error_stats(self.TINY, b) == (0.0, sqnr_db, cosine)

    @pytest.mark.parametrize("a, b, want", [([1e-170], [1.0], (1.0, -3400.0, 1.0)), ([1.0], [1e-170], (1.0, 0.0, 1.0)),
                                            ([1e-170], [-1.0], (1.0, -3400.0, -1.0))],
                             ids=["tiny-reference", "tiny-approx", "tiny-against-negative"])
    def test_one_tiny_side_against_a_normal_one_gets_the_true_cosine_and_sqnr(self, a, b, want):
        """The tiny side is scaled on its own. Scaled with the normal side, its squares underflowed
        to 0: the cosine read 0.0, and the SQNR -inf where the tiny side was the reference."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mse, sqnr_db, cosine = error_stats(np.array(a), np.array(b))
        assert (mse, cosine) == (want[0], want[2]) and sqnr_db == pytest.approx(want[1], rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(-700, -400))
    def test_a_negative_power_of_two_moves_no_cosine_or_sqnr(self, seed, n, j):
        """Signals scaled by 2^j, down to where their squares underflow but the values stay normal,
        keep every bit of their cosine and SQNR, and their mse is 4^j times the unscaled one."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n)
        b = a + rng.standard_normal(n) * rng.uniform(1e-6, 1.0)
        mse, sqnr_db, cosine = error_stats(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = error_stats(np.ldexp(a, j), np.ldexp(b, j))
        assert np.float64(got).tobytes() == np.float64((float(np.ldexp(mse, 2 * j)), sqnr_db, cosine)).tobytes()

    def test_same_values_in_another_shape_is_a_shape_error(self):
        values = np.arange(32.0)
        with pytest.raises(ShapeError, match=r"\(4, 8\) vs \(8, 4\)"):
            error_stats(values.reshape(4, 8), values.reshape(8, 4))


class TestFoldBatchnorm:
    def _apply_bn(self, y, bn):
        inv = bn.gamma / np.sqrt(bn.running_var + bn.eps)
        return (y - bn.running_mean[:, None]) * inv[:, None] + bn.beta[:, None]

    def test_identity_bn(self):
        w = np.eye(3)
        b = np.zeros(3)
        bn = BNParams(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), eps=1e-12)
        wf, bf = fold_batchnorm(w, b, bn)
        assert np.allclose(wf, w) and np.allclose(bf, b)

    def test_pure_scale(self):
        w = np.arange(6.0).reshape(2, 3)
        bn = BNParams(np.full(2, 2.0), np.zeros(2), np.zeros(2), np.ones(2), eps=1e-12)
        wf, bf = fold_batchnorm(w, np.zeros(2), bn)
        assert np.allclose(wf, 2.0 * w) and np.allclose(bf, 0.0)

    def test_linear_equivalence(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((5, 7))
        b = rng.standard_normal(5)
        bn = BNParams(
            rng.uniform(0.5, 2.0, 5),
            rng.standard_normal(5),
            rng.standard_normal(5),
            rng.uniform(0.2, 3.0, 5),
        )
        wf, bf = fold_batchnorm(w, b, bn)
        x = rng.standard_normal((7, 11))
        direct = self._apply_bn(w @ x + b[:, None], bn)
        folded = wf @ x + bf[:, None]
        assert np.allclose(direct, folded, rtol=1e-5, atol=1e-9)

    def test_channel_mismatch(self):
        bn = BNParams(np.ones(2), np.zeros(2), np.zeros(2), np.ones(2))
        with pytest.raises(ShapeError):
            fold_batchnorm(np.zeros((3, 4)), np.zeros(3), bn)


class TestBNParams:
    def test_negative_var_rejected(self):
        with pytest.raises(InvalidArgument):
            BNParams(np.ones(1), np.zeros(1), np.zeros(1), np.asarray([-0.1]))

    @pytest.mark.parametrize("field", ["beta", "running_mean", "running_var"])
    def test_lengths_must_agree(self, field):
        fields = {"gamma": np.ones(2), "beta": np.zeros(2), "running_mean": np.zeros(2), "running_var": np.ones(2)}
        with pytest.raises(ShapeError, match="^batch-norm parameter lengths differ$"):
            BNParams(**{**fields, field: np.ones(3)})

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(InvalidArgument):
            BNParams(np.ones(1), np.zeros(1), np.zeros(1), np.ones(1), eps=0.0)
