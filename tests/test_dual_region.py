import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqkit import dual_region
from ptqkit.dual_region import (
    KINDS,
    DualRegionCode,
    DualRegionParams,
    _region_scores,
    calibrate_dual_region,
    decode_tensor,
    encode_tensor,
    fake_dual_region,
    pack_code,
    softmax_r2_scale,
    unpack_code,
)
from ptqkit.errors import InvalidArgument
from ptqkit.generate import synth
from ptqkit.search import CHUNK_ELEMS, SearchSpace, mse_grid_search, sq_error
from ptqkit.uniform import fake_quant_array
from oracles import assign_region, dual_region_dequantize, dual_region_quantize
from test_search import decided, sorted_scoring, spy_near_winners


def softmax_params(bits=8, m=5):
    return DualRegionParams("softmax", bits, softmax_r2_scale(bits), m)


class TestParams:
    def test_shift_relation_is_exact(self):
        p = softmax_params(m=3)
        assert p.scale_r1 == p.scale_r2 * 2.0**-3

    def test_softmax_boundary_domain(self):
        with pytest.raises(InvalidArgument):
            DualRegionParams("softmax", 8, softmax_r2_scale(8), 0)  # boundary > 1

    def test_softmax_shift_zero_rejected(self):
        # boundary 2/3 lies inside (0, 1), but shift 0 gives unstable codes:
        # x = 1.0 encodes to word 3 and its reconstruction to word 1
        with pytest.raises(InvalidArgument, match="shift_m"):
            DualRegionParams("softmax", 2, 1.0 / 3.0, 0)
        assert DualRegionParams("softmax", 2, 1.0 / 3.0, 1).shift_m == 1
        assert DualRegionParams("gelu", 2, 1.0 / 3.0, 0).shift_m == 0

    @pytest.mark.parametrize("field,value", [("bits", 8.5), ("bits", "8"), ("shift_m", 1.5), ("shift_m", True), ("shift_m", 1075)])
    def test_integer_fields_must_be_whole_numbers(self, field, value):
        fields = {"kind": "gelu", "bits": 8, "scale_r2": 0.05, "shift_m": 2, field: value}
        with pytest.raises(InvalidArgument, match=f"{field} must be a whole number"):
            DualRegionParams(**fields)

    def test_subnormal_fine_scale_rejected(self):
        with pytest.raises(InvalidArgument, match="subnormal"):
            DualRegionParams("gelu", 8, 1e-300, 40)
        assert DualRegionParams("gelu", 8.0, 1e-300, 20.0).shift_m == 20

    @pytest.mark.parametrize("value", ["no", 0, None])
    def test_fallback_uniform_must_be_a_bool(self, value):
        with pytest.raises(InvalidArgument, match="fallback_uniform must be a bool"):
            DualRegionParams("gelu", 8, 0.05, 2, fallback_uniform=value)
        assert DualRegionParams("gelu", 8, 0.05, 2, fallback_uniform=np.True_).fallback_uniform is True


class TestRegionAssignment:
    def test_softmax_zero_goes_fine(self):
        assert assign_region(0.0, softmax_params()) == 0

    def test_softmax_large_goes_coarse(self):
        p = softmax_params()
        assert p.boundary == pytest.approx(0.0315, abs=1e-4)
        assert assign_region(0.9, p) == 1

    def test_softmax_boundary_value_goes_coarse(self):
        p = softmax_params()
        assert assign_region(p.boundary - 1e-9, p) == 0
        assert assign_region(p.boundary, p) == 1

    def test_gelu_sign_split(self):
        g = DualRegionParams("gelu", 8, 0.01, 2)
        assert assign_region(-0.1, g) == 0
        assert assign_region(3.0, g) == 1
        assert assign_region(0.0, g) == 1


class TestScalarCodec:
    def test_softmax_value_example(self):
        p = softmax_params()
        code = dual_region_quantize(0.9, p)
        assert code == DualRegionCode(region=1, value=114)
        assert dual_region_dequantize(code, p) == pytest.approx(114.0 / 127.0)

    def test_zero(self):
        p = softmax_params()
        code = dual_region_quantize(0.0, p)
        assert (code.region, code.value) == (0, 0)
        assert dual_region_dequantize(code, p) == 0.0

    def test_softmax_codes_negatives_as_zero(self):
        """Softmax codes max(x, 0): every negative input, and -0.0, is word 0 and +0.0."""
        p = DualRegionParams("softmax", 8, softmax_r2_scale(8), 3)
        x = np.array([-0.3, -0.01, -1e-300, -0.0])
        words, recon = p.encode(x)
        assert words.tolist() == encode_tensor(x, p).tolist() == [0, 0, 0, 0]
        assert [dual_region_quantize(float(v), p) for v in x] == [DualRegionCode(0, 0)] * 4
        for got in (recon, p.fake(x), decode_tensor(words, p)):
            assert got.tobytes() == np.zeros(4).tobytes()  # +0.0, not -0.0

    def test_gelu_full_scale_negative(self):
        scale_r1 = 0.17 / 127.0
        g = DualRegionParams("gelu", 8, scale_r1 * 2.0**4, 4)
        code = dual_region_quantize(-0.17, g)
        assert (code.region, code.value) == (0, 127)
        assert dual_region_dequantize(code, g) == pytest.approx(-0.17)

    def test_code_stable_roundtrip(self):
        p = softmax_params()
        rng = np.random.default_rng(2)
        for x in rng.uniform(0, 1, 200):
            c1 = dual_region_quantize(float(x), p)
            c2 = dual_region_quantize(dual_region_dequantize(c1, p), p)
            assert c1 == c2


class TestPacking:
    @pytest.mark.parametrize("bits", [4, 8])
    def test_bijection_over_all_words(self, bits):
        seen = set()
        for region in (0, 1):
            for value in range(2 ** (bits - 1)):
                word = pack_code(DualRegionCode(region, value), bits)
                assert 0 <= word < 2**bits
                assert unpack_code(word, bits) == DualRegionCode(region, value)
                seen.add(word)
        assert len(seen) == 2**bits

    def test_rejects_overflow(self):
        with pytest.raises(InvalidArgument):
            pack_code(DualRegionCode(0, 128), 8)
        with pytest.raises(InvalidArgument):
            unpack_code(256, 8)

    @pytest.mark.parametrize("word", [-1, 256])
    def test_decode_rejects_words_past_the_bits(self, word):
        with pytest.raises(InvalidArgument, match="^words do not fit in 8 bits$"):
            decode_tensor(np.array([0, word]), softmax_params())

    def test_vectorized_matches_scalar(self):
        p = softmax_params()
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, 64)
        words = encode_tensor(x, p)
        expected = [pack_code(dual_region_quantize(float(v), p), 8) for v in x]
        assert words.tolist() == expected
        recon = decode_tensor(words, p)
        expected_recon = [dual_region_dequantize(unpack_code(int(wd), 8), p) for wd in words]
        assert recon.tolist() == pytest.approx(expected_recon)


class TestReconstructionRanges:
    def test_softmax_recon_range(self):
        p = softmax_params(m=3)
        x = np.random.default_rng(1).uniform(0, 1, 500)
        recon = fake_dual_region(x, p)
        assert recon.min() >= 0.0
        assert recon.max() <= 2**7 * p.scale_r2

    def test_gelu_fine_region_nonpositive(self):
        g = DualRegionParams("gelu", 8, 0.02, 3)
        x = np.random.default_rng(2).normal(0, 1, 500)
        recon = fake_dual_region(x, g)
        assert np.all(recon[x < 0] <= 0.0)

    def test_specialization_never_hurts_within_region(self):
        # comparator: (b-1)-bit quantizer at the coarse scale restricted to
        # the value's region; its lattice is a subset of the fine lattice
        p = softmax_params(m=4)
        vmax = 2**7 - 1
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 2000)
        recon = fake_dual_region(x, p)
        err_drq = np.abs(x - recon)
        coarse = np.clip(np.rint(x / p.scale_r2), 0, vmax) * p.scale_r2
        in_r1 = x < p.boundary
        coarse_limited = np.where(
            in_r1, np.minimum(coarse, np.floor(p.boundary / p.scale_r2 - 1e-12) * p.scale_r2), coarse
        )
        err_coarse = np.abs(x - coarse_limited)
        assert np.all(err_drq <= err_coarse + 1e-15)


class TestCalibration:
    def test_two_point_distribution_smallest_shift(self):
        samples = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
        p = calibrate_dual_region(samples, "softmax", 8)
        assert p.shift_m == 1
        recon = fake_dual_region(samples, p)
        assert np.allclose(recon, samples)

    def test_softmax_range_validated(self):
        with pytest.raises(InvalidArgument):
            calibrate_dual_region(np.array([0.0, 1.5]), "softmax", 8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidArgument, match=r"^kind must be one of \('softmax', 'gelu'\), got 'relu'$"):
            calibrate_dual_region(np.array([0.0, 0.5]), "relu", 8)

    def test_softmax_search_whose_errors_all_overflow(self):
        """m = bits is always admissible; a huge `grad` makes every weighted
        error inf, so no shift wins. GeLU keeps its initial parameters then."""
        x = synth("softmax", (8, 16), 0).array
        with pytest.raises(InvalidArgument, match="^no shift exponent scored below inf for bits=8: every error"):
            calibrate_dual_region(x, "softmax", 8, grad=np.full(x.shape, 1e200))
        g = synth("gelu", (8, 16), 0).array.astype(np.float64)
        p = calibrate_dual_region(g, "gelu", 8, grad=np.full(g.shape, 1e200))
        assert p == DualRegionParams("gelu", 8, -g.min() / 127, 0)

    def test_mixture_beats_uniform_grid(self):
        t = synth("softmax", (32, 32), seed=0)
        p = calibrate_dual_region(t, "softmax", 8)
        drq_mse = float(np.mean((t.array - fake_dual_region(t.array, p)) ** 2))
        uni = mse_grid_search(t.array, 8, "symmetric", False)
        uni_mse = float(np.mean((t.array - fake_quant_array(t.array.astype(np.float64), uni)) ** 2))
        assert drq_mse < uni_mse

    def test_gelu_boundary_covers_negative_range(self):
        t = synth("gelu", (64, 16), seed=5)
        p = calibrate_dual_region(t, "gelu", 8)
        assert 2**7 * p.scale_r1 >= abs(float(t.array.min()))
        assert p.scale_r1 == p.scale_r2 * 2.0**-p.shift_m

    def test_gelu_grid_past_float64_skips_infinite_scales(self):
        """A grid whose top overflows to inf holds no finite scale (numpy's
        linspace makes it NaN and inf), so the initial fine scale is kept."""
        x = np.linspace(-1.0, 1.0, 64)
        x[-1] = 3e38
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the grid's overflow is no RuntimeWarning
            p = calibrate_dual_region(x, "gelu", 8, space=SearchSpace(beta=1e300))
        assert p == DualRegionParams("gelu", 8, 1.0 / 127, 0)

    def test_gelu_without_negatives_falls_back(self):
        samples = np.abs(np.random.default_rng(0).normal(1.0, 0.2, 256))
        p = calibrate_dual_region(samples, "gelu", 8)
        assert p.fallback_uniform
        assert p.shift_m == 0

    def test_two_bit_gelu_without_negatives(self):
        # a 1-bit payload: R2 codes 0 and 1 at the searched scale
        p = calibrate_dual_region(np.linspace(0.0, 1.0, 16), "gelu", 2)
        assert p.shift_m == 0 and p.fallback_uniform

    @pytest.mark.parametrize("x", [[-1e-320, 1.0], [0.0, 1e-310]])
    def test_gelu_subnormal_initial_scale_is_invalid(self, x):
        # the initial parameters' scale is subnormal; the first was an OverflowError in log2
        with pytest.raises(InvalidArgument, match="subnormal"):
            calibrate_dual_region(np.array(x), "gelu", 8)

    def test_deterministic(self):
        t = synth("softmax", (16, 16), seed=9)
        a = calibrate_dual_region(t, "softmax", 8)
        b = calibrate_dual_region(t, "softmax", 8)
        assert a == b


def codec_roundtrip(x, p):
    return decode_tensor(encode_tensor(x, p), p)


@st.composite
def params_and_values(draw):
    kind = draw(st.sampled_from(["softmax", "gelu"]))
    bits = draw(st.integers(2, 16))
    if kind == "softmax":
        # the calibrated coarse scale, or the narrower 1 / (2^b - 1) a params file may carry
        scale_r2 = 1.0 / (2 ** draw(st.sampled_from([bits - 1, bits])) - 1)
        # the smallest shift >= 1 whose R1 boundary lies below 1
        m_min = next(m for m in range(1, bits + 2) if 2 ** (bits - 1) * scale_r2 * 2.0**-m < 1.0)
        m = draw(st.integers(m_min, m_min + 4))
    else:
        scale_r2 = draw(st.floats(1e-6, 10.0))
        m = draw(st.integers(0, bits + 2))
    p = DualRegionParams(kind, bits, scale_r2, m)
    edges = []
    for s in (p.scale_r1, p.scale_r2):
        # past the clip, on the clip, and half-way points where rint ties
        for k in (2 * p.value_max + 1, 2 * p.value_max + 3, 1, 3):
            edges += [k * s / 2, -k * s / 2]
        edges += [(p.value_max + 7) * s, -(p.value_max + 7) * s]
    special = [-0.0, 0.0, p.boundary, math.nextafter(p.boundary, 0.0), -p.boundary, *edges]
    value = st.one_of(
        st.sampled_from(special),
        st.floats(-4.0 * p.value_max * scale_r2, 4.0 * p.value_max * scale_r2),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    return p, np.array(draw(st.lists(value, min_size=1, max_size=64)))


class TestFloatDomainReconstruction:
    @settings(max_examples=400, deadline=None)
    @given(params_and_values())
    def test_matches_codec_bit_for_bit(self, case):
        p, x = case
        got = fake_dual_region(x, p)
        with np.errstate(over="ignore"):  # the int codec overflows on a huge value or scale
            want = codec_roundtrip(x, p)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(params_and_values())
    def test_fake_is_idempotent(self, case):
        p, x = case
        once = p.fake(x)
        assert np.array_equal(p.fake(once), once)

    @settings(max_examples=300, deadline=None)
    @given(params_and_values())
    def test_codes_stable_where_payload_nonzero(self, case):
        # both zero-payload words decode to 0, so only those may switch region
        p, x = case
        words = p.encode(x)[0]
        again = p.encode(decode_tensor(words, p))[0]
        nonzero = (words & (2 ** (p.bits - 1) - 1)) != 0
        assert np.array_equal(again[nonzero], words[nonzero])

    def test_signed_zeros_and_shape_match_codec(self):
        x = np.array([[-0.0, 0.0], [-1e-30, 1e-30], [-0.5, 0.5]])
        for p in (softmax_params(), DualRegionParams("gelu", 8, 0.02, 3)):
            got = fake_dual_region(x, p)
            assert got.shape == (3, 2)
            assert got.tobytes() == codec_roundtrip(x, p).tobytes()


def whole_array_fake(x, p):
    """The dual-region reconstruction of all of x in one pass, each step on the whole array."""
    num = np.maximum(x + 0.0, 0.0) if p.kind == "softmax" else x + 0.0
    scale = np.where(x >= p.split, p.scale_r2, -p.scale_r1 if p.kind == "gelu" else p.scale_r1)
    return np.clip(np.rint(num / scale), 0, p.value_max) * scale


class TestBlocks:
    """`fake` and the search's direct scores code CHUNK_ELEMS-element blocks into one buffer."""

    @pytest.mark.parametrize("size", [1, CHUNK_ELEMS - 1, CHUNK_ELEMS + 1, 3 * CHUNK_ELEMS + 7])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_blocks_equal_a_whole_array_pass_bit_for_bit(self, size, kind, weighted):
        rng = np.random.default_rng(size)
        if kind == "softmax":
            x, p = rng.random(size) ** 4, softmax_params(8, 5)
        else:
            x, p = rng.standard_normal(size) * 0.5, DualRegionParams("gelu", 8, 0.02, 3)
        x[::7] = 0.0
        grad = rng.standard_normal(size) if weighted else None
        want = whole_array_fake(x, p)
        assert fake_dual_region(x, p).tobytes() == want.tobytes()
        err = want - x if grad is None else (want - x) * grad
        # one candidate: never pruned, so scored directly
        assert dual_region._direct_scores(x, grad, 8, [p]).tolist() == [np.mean(err**2)]

    def test_traced_peak_of_a_gelu_search(self):
        """The search keeps the sorted copy and, apart from it, one buffer of segment terms
        (about half the elements here), then, where two or more candidates survive, one buffer
        of score terms: on a 256x3072 GeLU dump it peaks at about 1.7 x its float64 input.
        Full-length prefix sums and whole-array rescoring peaked at 4.13 x."""
        arr = synth("gelu", (256, 3072), seed=0).array.astype(np.float64)
        tracemalloc.start()
        try:
            calibrate_dual_region(arr, "gelu", 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * arr.nbytes, f"traced peak {peak / arr.nbytes:.2f} x the input"


def reference_calibrate_dual_region(arr, kind, bits, grad=None, space=SearchSpace()):
    """The candidate loop scored through the int codec, one fresh
    reconstruction per candidate: the oracle for calibrate_dual_region."""
    g = 1.0 if grad is None else grad

    def metric(params):
        return float(np.mean((g * (codec_roundtrip(arr, params) - arr)) ** 2))

    if kind == "softmax":
        scale_r2 = softmax_r2_scale(bits)
        best, best_score = None, math.inf
        for m in range(1, bits + 1):
            if 2 ** (bits - 1) * scale_r2 * 2.0**-m >= 1.0:
                continue
            params = DualRegionParams(kind, bits, scale_r2, m)
            score = metric(params)
            if score < best_score:
                best, best_score = params, score
        return best
    negatives = arr[arr < 0.0]
    vmax = 2 ** (bits - 1) - 1
    neg_absmax = float(np.max(np.abs(negatives)))
    scale_r1_init = neg_absmax / vmax
    cover_min = neg_absmax / 2 ** (bits - 1)
    best, best_score = DualRegionParams(kind, bits, scale_r1_init, 0), math.inf
    for cand in space.scale_candidates(float(max(arr.max(), 0.0)) / vmax):
        scale_r2 = float(cand)
        if not scale_r2 >= cover_min:  # a NaN point, below the least normal float64, is skipped too
            continue
        m = max(0, int(round(math.log2(scale_r2 / scale_r1_init))))
        while m > 0 and scale_r2 * 2.0**-m * 2 ** (bits - 1) < neg_absmax:
            m -= 1
        params = DualRegionParams(kind, bits, scale_r2, m)
        score = metric(params)
        if score < best_score:
            best, best_score = params, score
    return best


class TestCalibrationOracle:
    @pytest.mark.parametrize("kind", ["softmax", "gelu"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_codec_candidate_loop(self, kind, weighted):
        space = SearchSpace(0.05, 1.3, 40)
        for seed in range(12):
            bits = (4, 6, 8)[seed % 3]
            arr = synth(kind, (8, 24), seed=seed).array.astype(np.float64)
            grad = np.random.default_rng(seed).standard_normal(arr.shape) if weighted else None
            got = calibrate_dual_region(arr, kind, bits, grad=grad, space=space)
            assert got == reference_calibrate_dual_region(arr, kind, bits, grad, space)

    @pytest.mark.parametrize("kind", ["softmax", "gelu"])
    def test_does_not_mutate_input(self, kind):
        arr = synth(kind, (16, 16), seed=4).array.astype(np.float64)
        before = arr.copy()
        fake_dual_region(arr, calibrate_dual_region(arr, kind, 8))
        assert arr.tobytes() == before.tobytes()

    @pytest.mark.parametrize("bits", [1, 17])
    def test_bits_validated(self, bits):
        with pytest.raises(InvalidArgument):
            calibrate_dual_region(np.array([0.1, 0.9]), "softmax", bits)


@st.composite
def nonnegative_samples(draw):
    """(samples, bits, space): no negatives (-0.0 included), some all zero,
    constant or of few distinct values, over a wide dynamic range."""
    bits = draw(st.integers(3, 16))
    alpha = draw(st.floats(0.001, 0.9))
    space = SearchSpace(alpha, alpha + draw(st.floats(0.01, 2.0)), draw(st.integers(1, 120)))
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = draw(st.sampled_from(["zero", "constant", "repeated", "wide", "normal"]))
    if data == "zero":
        arr = rng.choice([-0.0, 0.0], n)
    elif data == "constant":
        arr = np.full(n, draw(st.floats(1e-100, 1e100)))
    elif data == "repeated":
        arr = rng.integers(0, 5, n) * draw(st.sampled_from([1e-3, 0.37, 1e5]))
    elif data == "wide":
        arr = 10.0 ** rng.uniform(-150, 150, n)
    else:
        arr = np.abs(rng.standard_normal(n))
    arr[rng.random(n) < 0.1] = -0.0
    return arr, bits, space


class TestGeluWithoutNegatives:
    """Without negatives R1 stays empty: the GeLU search is the uniform
    search of the (b-1)-bit payload."""

    @settings(max_examples=300, deadline=None)
    @given(nonnegative_samples())
    def test_scale_equals_the_payload_search(self, case):
        arr, bits, space = case
        p = calibrate_dual_region(arr, "gelu", bits, space=space)
        want = mse_grid_search(arr, bits - 1, "symmetric", signed=False, space=space)
        assert (p.shift_m, p.fallback_uniform) == (0, True)
        assert p.scale_r2.hex() == float(want.scale).hex()

    @pytest.mark.parametrize("seed", range(6))
    def test_weighted_winner_scores_lowest_on_the_grid(self, seed):
        rng = np.random.default_rng(seed)
        arr = np.abs(rng.standard_normal(200)) * rng.uniform(0.1, 10.0)
        grad = rng.standard_normal(arr.shape) * (rng.random(arr.shape) < 0.8)
        bits, space = int(rng.integers(3, 9)), SearchSpace(0.05, 1.3, 50)
        p = calibrate_dual_region(arr, "gelu", bits, grad=grad, space=space)
        best, best_score = None, math.inf
        for s in space.scale_candidates(arr.max() / (2 ** (bits - 1) - 1)):
            cand = DualRegionParams("gelu", bits, float(s), 0, fallback_uniform=True)
            score = sq_error(arr, fake_dual_region(arr, cand), grad)
            if score < best_score:
                best, best_score = cand, score
        assert p == best
        assert sq_error(arr, fake_dual_region(arr, p), grad) == best_score


def spy_rescored(monkeypatch) -> list:
    """Record the candidates whose table the piece codec reads, one call a direct score."""
    rescored, real = [], DualRegionParams._pieces
    monkeypatch.setattr(DualRegionParams, "_pieces", lambda p: rescored.append(p) or real(p))
    return rescored


def outcome(search, *args, **kwargs):
    """The search's result, or the type and message of what it raised."""
    try:
        return search(*args, **kwargs)
    except InvalidArgument as exc:
        return type(exc), str(exc)


@st.composite
def adversarial_calibrations(draw):
    """(samples, kind, bits, grad, space): repeated values and tied scores,
    samples on the bin edges (k+1/2)s of either region, a dynamic range of
    1e-150 to 1e150 and squared errors that overflow (GeLU), equal
    samples, softmax samples down to -1e-6, and zero gradients."""
    kind = draw(st.sampled_from(["gelu", "softmax"]))
    bits = draw(st.integers(2, 10 if kind == "gelu" else 12))
    alpha = draw(st.floats(0.01, 0.9))
    space = SearchSpace(alpha, alpha + draw(st.floats(0.05, 1.0)), draw(st.integers(2, 40)))
    data = draw(st.sampled_from(["repeated", "edges", "wide", "equal", "overflow", "normal"]))
    n = draw(st.integers(1, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vmax = 2 ** (bits - 1) - 1
    half_codes = rng.integers(0, vmax + 1, n) + 0.5
    if kind == "softmax":
        if data == "edges":
            arr = half_codes * softmax_r2_scale(bits) * 2.0 ** -rng.integers(0, bits + 1, n)
        elif data == "repeated":
            arr = rng.choice([-1e-6, 0.0, 1e-3, 0.25, 1.0], n)
        elif data == "equal":
            arr = np.full(n, draw(st.sampled_from([-1e-6, -0.0, 0.3, 1.0])))
        else:
            arr = rng.dirichlet(np.full(n, 0.3)) - 1e-6 * (rng.random(n) < 0.2)
        arr = np.clip(arr, -1e-6, 1.0)
    else:
        if data == "edges":
            neg, pos = draw(st.floats(0.01, 1.0)), draw(st.floats(0.1, 10.0))
            grid = space.scale_candidates(pos / vmax)[rng.integers(space.n_candidates, size=n)]
            shifted = grid * 2.0 ** -rng.integers(0, bits + 3, n) * rng.choice([-1.0, 1.0], n)
            arr = np.concatenate([[-neg, pos], np.clip(half_codes * shifted, -neg, pos)])
        elif data == "repeated":
            arr = rng.integers(-3, 4, n) * draw(st.sampled_from([1e-3, 0.37, 1e5]))
        elif data == "wide":
            arr = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-150, 150, n)
        elif data == "equal":
            arr = np.repeat([-0.25, draw(st.sampled_from([0.0, 0.25, 3.0]))], n)
        elif data == "overflow":
            arr = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(150, 300, n)
        else:
            arr = rng.standard_normal(n)
        arr[0] = -abs(arr[0]) or -1.0  # a GeLU search needs a negative sample
    weights = draw(st.sampled_from([None, "zero", "normal", "sparse"]))
    grad = None if weights is None else rng.standard_normal(arr.shape)
    if weights == "zero":
        grad[:] = 0.0
    elif weights == "sparse":
        grad[rng.random(arr.shape) < 0.7] = 0.0
    return arr, kind, bits, grad, space


class TestSortedScoring:
    """Both kinds of search score candidates from segment sums of the sorted
    samples and rescore directly only those their error bounds cannot rule out."""

    @settings(max_examples=300, deadline=None)
    @given(adversarial_calibrations())
    def test_pruned_winner_equals_reference(self, case):
        arr, kind, bits, grad, space = case
        with sorted_scoring():
            got = outcome(calibrate_dual_region, arr, kind, bits, grad=grad, space=space)
            assert got == outcome(reference_calibrate_dual_region, arr, kind, bits, grad, space)
        with sorted_scoring(pays=False):
            assert got == outcome(calibrate_dual_region, arr, kind, bits, grad=grad, space=space)

    @settings(max_examples=300, deadline=None)
    @given(adversarial_calibrations(), st.lists(st.integers(0, 6), min_size=1, max_size=3))
    def test_every_score_lies_within_its_bound(self, case, shifts):
        arr, kind, bits, grad, space = case
        if kind == "softmax":
            inside = [m for m in range(1, bits + 1) if 2 ** (bits - 1) * softmax_r2_scale(bits) * 2.0**-m < 1.0]
            candidates = [softmax_params(bits, m) for m in inside]
        else:
            grid = space.scale_candidates(np.abs(arr).max() / (2 ** (bits - 1) - 1))
            candidates = [DualRegionParams(kind, bits, s, m) for s in grid for m in shifts]
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            approx, bound = _region_scores(arr, grad, candidates)
            direct = np.array([sq_error(arr, fake_dual_region(arr, p), grad) for p in candidates])
        assert np.all(bound >= 0)
        finite = np.isfinite(bound)
        assert finite.all() or np.abs(arr).max() > 1e150  # only data near the float64 limit has no bound
        assert np.all(np.abs(approx - direct * arr.size)[finite] <= bound[finite])

    def test_softmax_negatives_fall_in_level_zero(self):
        # at 12 bits and m = 12, -1e-6 / scale_r1 is about -8: it is coded as 0 all the same, so
        # its error is (1e-6)^2 for either candidate and both scores have a finite bound
        arr = np.array([-1e-6, 0.0, 0.5, 1.0])
        candidates = [softmax_params(12, m) for m in (1, 12)]
        approx, bound = _region_scores(arr, None, candidates)
        direct = np.array([sq_error(arr, fake_dual_region(arr, p)) for p in candidates])
        assert np.isfinite(bound).all()
        assert np.all(np.abs(approx - direct * arr.size) <= bound)
        assert [p.fake(arr)[0] for p in candidates] == [0.0, 0.0]

    def test_gelu_search_rescores_only_near_winners(self, monkeypatch):
        """On the GeLU dump the bound keeps one candidate, which wins unscored."""
        rescored, outcomes = spy_rescored(monkeypatch), spy_near_winners(monkeypatch, dual_region)
        arr = synth("gelu", (256, 3072), seed=0).array
        p = calibrate_dual_region(arr, "gelu", 8)
        bound_says, = outcomes
        assert decided(bound_says) and rescored == []
        with sorted_scoring(pays=False):
            assert calibrate_dual_region(arr, "gelu", 8) == p

    def test_a_near_tie_rescores_every_candidate_the_bound_keeps(self, monkeypatch):
        """A repeated-values softmax draw on which 4 of the 12 shifts tie within their bounds."""
        rescored, outcomes = spy_rescored(monkeypatch), spy_near_winners(monkeypatch, dual_region)
        arr = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.001])
        with sorted_scoring():
            p = calibrate_dual_region(arr, "softmax", 12)
        (scores, todo), = outcomes
        assert np.count_nonzero(scores < np.inf) == 4 and todo.size == 4
        assert rescored == [softmax_params(12, m) for m in np.flatnonzero(scores < np.inf) + 1]
        assert p == reference_calibrate_dual_region(arr, "softmax", 12, None, SearchSpace())

    @settings(max_examples=100, deadline=None)
    @given(adversarial_calibrations())
    def test_the_direct_pass_scores_exactly_the_undecided_survivors(self, case):
        arr, kind, bits, grad, space = case
        with pytest.MonkeyPatch.context() as mp, sorted_scoring():
            rescored, outcomes = spy_rescored(mp), spy_near_winners(mp, dual_region)
            outcome(calibrate_dual_region, arr, kind, bits, grad=grad, space=space)
        if outcomes:  # else the search raised before it scored
            bound_says, = outcomes
            assert len(rescored) == (0 if decided(bound_says) else np.count_nonzero(bound_says[0] < np.inf))
