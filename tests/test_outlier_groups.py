import math
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqkit import outlier_groups
from ptqkit.dual_region import DualRegionParams
from ptqkit.errors import EmptyInput, InvalidArgument
from ptqkit.generate import synth
from ptqkit.outlier_groups import (
    GroupedQuantParams,
    QuantGroup,
    ThresholdStrategy,
    calibrate_grouped,
    encode_grouped,
    fake_grouped,
)
from ptqkit.search import CHUNK_ELEMS
from ptqkit.uniform import QuantParams, dequantize_array, fake_quant_array, make_params, quantize_array
from oracles import group_index, grouped_dequantize, grouped_quantize


def threshold_of(values, strategy):
    """The threshold calibrate_grouped places over `values`' magnitudes."""
    return strategy.threshold(np.abs(np.asarray(values, dtype=np.float64)))[0]


class TestThreshold:
    def test_mean_plus_three_sd(self):
        tau = threshold_of([1, 2, 3, 4, 5], ThresholdStrategy("mean_3sd"))
        assert tau == pytest.approx(3.0 + 3.0 * math.sqrt(2.0))

    def test_absolute_values_used(self):
        tau_pos = threshold_of([1, 2, 3], ThresholdStrategy("mean_3sd"))
        tau_mixed = threshold_of([-1, 2, -3], ThresholdStrategy("mean_3sd"))
        assert tau_pos == pytest.approx(tau_mixed)

    def test_constant_data(self):
        assert threshold_of([2.0, 2.0, 2.0], ThresholdStrategy("mean_3sd")) == pytest.approx(2.0)

    def test_median_mad_degenerate(self):
        magnitudes = np.asarray([1.0, 1, 1, 1, 1, 9])  # the MAD collapses to zero
        tau, fell_back = ThresholdStrategy("median_mad").threshold(magnitudes)
        assert fell_back and tau == ThresholdStrategy().threshold(magnitudes)[0]  # mean_3sd's, not 1.0 + 3 * 0
        assert tau == pytest.approx(7.0 / 3.0 + 3.0 * math.sqrt(80.0) / 3.0)

    @pytest.mark.parametrize(
        "kind,values,calls",
        [
            ("none", [1.0, 2, 3, 4, 10], (0, 0, 0)),
            ("mean_division", [1.0, 2, 3, 4, 10], (1, 0, 0)),
            ("mean_3sd", [1.0, 2, 3, 4, 10], (2, 1, 0)),
            ("confidence", [1.0, 2, 3, 4, 10], (2, 1, 0)),
            ("median_mad", [1.0, 2, 3, 4, 10], (0, 0, 2)),
            ("median_mad", [1.0, 1, 1, 1, 9], (2, 1, 2)),  # MAD 0: mean_3sd's mu and sigma, once
        ],
    )
    def test_each_rule_computes_only_what_it_reads(self, monkeypatch, kind, values, calls):
        """The (np.mean, np.sqrt, np.median) calls of one threshold: mu is a mean, sigma a
        mean and a square root, and median_mad's median and MAD two medians."""
        seen = []

        def counted(name):
            return lambda *args, **kw: seen.append(name) or getattr(np, name)(*args, **kw)

        spy = {name: counted(name) for name in ("mean", "sqrt", "median")}
        monkeypatch.setattr(outlier_groups, "np", types.SimpleNamespace(**{**vars(np), **spy}))
        ThresholdStrategy(kind).threshold(np.asarray(values))
        assert tuple(seen.count(name) for name in ("mean", "sqrt", "median")) == calls

    def test_mean_division(self):
        tau = threshold_of([1, 2, 3], ThresholdStrategy("mean_division"))
        assert tau == pytest.approx(2.0)

    @pytest.mark.parametrize("field", ["mad_multiplier", "mean_multiplier", "confidence_level"])
    @pytest.mark.parametrize("value", ["x", "0.5", True, None])
    def test_multipliers_are_numbers(self, field, value):
        with pytest.raises(InvalidArgument, match=f"^{field} must be a number, got {value!r}$"):
            ThresholdStrategy(**{field: value})

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5])
    def test_confidence_level_is_inside_zero_one(self, level):
        with pytest.raises(InvalidArgument, match=rf"^confidence_level must be in \(0, 1\), got {level}$"):
            ThresholdStrategy("confidence", confidence_level=level)

    def test_confidence_matches_gaussian_quantile(self):
        from statistics import NormalDist

        values = np.asarray([0.0, 1.0, 2.0, 3.0])
        tau = threshold_of(values, ThresholdStrategy("confidence", confidence_level=0.99))
        mu = values.mean()
        sigma = values.std()
        assert tau == pytest.approx(mu + NormalDist().inv_cdf(0.995) * sigma)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            calibrate_grouped(np.asarray([]), 8)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidArgument):
            ThresholdStrategy("weird")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("mean_multiplier", 0.0), ("mean_multiplier", -1.0), ("mean_multiplier", math.inf),
            ("mean_multiplier", math.nan), ("mad_multiplier", -0.5), ("mad_multiplier", math.inf),
            ("mad_multiplier", math.nan),
        ],
    )
    def test_multiplier_out_of_range_rejected(self, field, value):
        with pytest.raises(InvalidArgument):
            ThresholdStrategy("mean_division", **{field: value})


class TestPartition:
    """calibrate_grouped splits on magnitudes; encode files each value in one group."""

    def test_all_inliers(self):
        p = calibrate_grouped([1.0, 2.0, 3.0], 8, ThresholdStrategy("mean_division", mean_multiplier=10.0))
        assert len(p.groups) == 1
        assert p.encode([1.0, 2.0, 3.0])[0][0].tolist() == [0, 0, 0]

    def test_absolute_split(self):
        # mean |x| is 10.1 / 3, so tau = 0.3 * mean ~ 1.01 keeps only 0.1 inside
        values = [-5.0, 0.1, 5.0]
        p = calibrate_grouped(values, 8, ThresholdStrategy("mean_division", mean_multiplier=0.3))
        assert len(p.groups) == 2
        assert p.groups[0].upper == pytest.approx(0.3 * 10.1 / 3)
        assert p.encode(values)[0][0].tolist() == [1, 0, 1]

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_multiset_preserved(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(73)
        multiplier = float(rng.uniform(0.5, 2.0))
        p = calibrate_grouped(values, 8, ThresholdStrategy("mean_division", mean_multiplier=multiplier))
        idx = p.encode(values)[0][0]
        assert idx.size == values.size
        parts = [values[idx == gi] for gi in range(len(p.groups))]
        assert sorted(np.concatenate(parts).tolist()) == sorted(values.tolist())
        lower = -math.inf
        for part, group in zip(parts, p.groups):
            assert np.all(np.abs(part) <= group.upper)
            assert np.all(np.abs(part) > lower)
            lower = group.upper


class TestGroupedParamsInvariants:
    @pytest.mark.parametrize(
        "params",
        [
            make_params(0.0, 1.0, 4, "asymmetric", signed=True),  # not the entry's bits
            QuantParams([0.1, 0.2], [0, 0], 8, False, axis=0),
            DualRegionParams("gelu", 8, 0.05, 2),
        ],
    )
    def test_groups_are_per_tensor_uniform_at_entry_bits(self, params):
        with pytest.raises(InvalidArgument, match="per-tensor uniform params of 8 bits"):
            GroupedQuantParams(
                bits=8, groups=(QuantGroup(1.0, params), QuantGroup(math.inf, make_params(0.0, 9.0, 8))), max_iters=3
            )

    @pytest.mark.parametrize("field,value", [("bits", 8.5), ("bits", True), ("max_iters", 2.5), ("max_iters", "3")])
    def test_integer_fields_must_be_whole_numbers(self, field, value):
        fields = {"bits": 8, "groups": (QuantGroup(math.inf, make_params(0.0, 1.0, 8)),), "max_iters": 3, field: value}
        with pytest.raises(InvalidArgument, match=f"{field} must be a whole number"):
            GroupedQuantParams(**fields)

    def test_thresholds_must_increase(self):
        p8 = make_params(0.0, 1.0, 8)
        with pytest.raises(InvalidArgument):
            GroupedQuantParams(
                bits=8,
                groups=(QuantGroup(2.0, p8), QuantGroup(1.0, p8), QuantGroup(math.inf, p8)),
                max_iters=3,
            )

    def test_last_group_must_be_unbounded(self):
        p8 = make_params(0.0, 1.0, 8)
        with pytest.raises(InvalidArgument):
            GroupedQuantParams(bits=8, groups=(QuantGroup(2.0, p8),), max_iters=3)

    def test_group_count_cap(self):
        p8 = make_params(0.0, 1.0, 8)
        groups = tuple(QuantGroup(float(i + 1), p8) for i in range(3)) + (
            QuantGroup(math.inf, p8),
        )
        with pytest.raises(InvalidArgument):
            GroupedQuantParams(bits=8, groups=groups, max_iters=2)


class TestCalibration:
    def test_injected_outliers_land_in_later_group(self):
        rng = np.random.default_rng(42)
        base = rng.standard_normal(1000)
        data = np.concatenate([base, [40.0, 50.0]])
        params = calibrate_grouped(data, 8, ThresholdStrategy("mean_3sd"), max_iters=3)
        mags = np.abs(data)
        expected_tau = mags.mean() + 3.0 * mags.std()
        assert params.groups[0].upper == pytest.approx(expected_tau)
        assert group_index(40.0, params) >= 1
        assert group_index(50.0, params) >= 1

    @pytest.mark.parametrize("max_iters", [0, -1, 2.5, "3", True])
    def test_max_iters_is_a_whole_number_from_one(self, max_iters):
        with pytest.raises(InvalidArgument, match=r"^max_iters must be a whole number in \[1, inf\], got "):
            calibrate_grouped(np.arange(8.0), 8, max_iters=max_iters)

    def test_whole_float_max_iters_is_an_int(self):
        data = synth("outlier", (16, 32), 0).array
        got = calibrate_grouped(data, 8, max_iters=2.0)
        assert got == calibrate_grouped(data, 8, max_iters=2) and type(got.max_iters) is int

    def test_tight_data_single_group(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(0.9, 1.1, 500)
        params = calibrate_grouped(data, 8)
        assert len(params.groups) == 1
        assert params.groups[0].upper == math.inf

    def test_iteration_cap_gives_residual_group(self):
        heavy = np.random.default_rng(0).standard_cauchy(4000)
        params = calibrate_grouped(heavy, 8, max_iters=1)
        assert len(params.groups) == 2
        assert params.groups[-1].upper == math.inf

    def test_thresholds_strictly_increase(self):
        t = synth("outlier", (64, 64), seed=7)
        params = calibrate_grouped(t, 8, max_iters=3)
        uppers = [g.upper for g in params.groups]
        assert all(b > a for a, b in zip(uppers, uppers[1:]))

    def test_all_zero_input_single_group(self):
        params = calibrate_grouped(np.zeros(64), 4)
        assert [g.upper for g in params.groups] == [math.inf]
        assert fake_grouped(np.zeros(8), params).tolist() == [0.0] * 8

    def test_identical_values_degenerate_scale(self):
        params = calibrate_grouped(np.full(64, 3.5), 8)
        assert len(params.groups) == 1
        recon = fake_grouped(np.full(8, 3.5), params)
        assert recon == pytest.approx(np.full(8, 3.5), rel=1e-6)

    def test_deterministic(self):
        t = synth("outlier", (32, 32), seed=1)
        a = calibrate_grouped(t, 8)
        b = calibrate_grouped(t, 8)
        assert a == b

    def test_mad_fallback_recorded(self):
        data = np.asarray([1.0, 1.0, 1.0, 1.0, 1.0, 9.0] * 20)
        params = calibrate_grouped(data, 8, ThresholdStrategy("median_mad"), max_iters=3)
        assert 0 in params.mad_fallbacks

    def test_mad_fallback_places_the_mean_3sd_threshold(self):
        # the first MAD is 0; the outliers' MAD, 1, is not
        data = np.asarray([1.0] * 100 + [-9.0, 10.0, 12.0])
        params = calibrate_grouped(data, 8, ThresholdStrategy("median_mad"))
        mags = np.abs(data)
        mu = np.mean(mags)
        assert params.mad_fallbacks == (0,)
        assert params.groups[0].upper == float(mu) + 3.0 * float(np.sqrt(np.mean((mags - mu) ** 2)))

    @pytest.mark.parametrize("kind", ["mean_3sd", "mean_division", "median_mad", "confidence", "none"])
    @pytest.mark.parametrize("v", [1e154, 1e160, 1e308])
    def test_near_limit_statistics_print_no_warning(self, kind, v):
        """A statistic past the float64 maximum is inf: no warning, and no split. mean_division
        reads only the mean, v / 2 here, and splits once. At 1e308 the one remaining group
        spans more than the float64 maximum, which is an error."""
        data = np.array([v, -v, 1.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if v == 1e308:
                with pytest.raises(InvalidArgument, match=r"^range \[-1e\+308, 1e\+308\] is wider than"):
                    calibrate_grouped(data, 8, ThresholdStrategy(kind))
                return
            params = calibrate_grouped(data, 8, ThresholdStrategy(kind))
        assert [g.upper for g in params.groups] == ([v / 2, math.inf] if kind == "mean_division" else [math.inf])

    def test_strategy_none_single_group(self):
        t = synth("outlier", (16, 16), seed=2)
        params = calibrate_grouped(t, 8, ThresholdStrategy("none"))
        assert len(params.groups) == 1

    def test_threshold_without_inliers_ends_the_split(self):
        x = np.random.default_rng(0).standard_normal(256)
        params = calibrate_grouped(x, 8, ThresholdStrategy("mean_division", mean_multiplier=0.2), max_iters=3)
        # 0.2 * the mean of the last group's magnitudes lies below their
        # minimum, so its split would leave no inliers and was not made
        last = np.abs(x[np.abs(x) > params.groups[-2].upper])
        assert 0.2 * last.mean() < last.min()
        assert len(params.groups) < 4
        assert params.groups[-1].upper == math.inf

    @given(
        st.sampled_from(["mean_3sd", "mean_division", "median_mad", "confidence", "none"]),
        st.floats(1e-3, 10.0),
        st.floats(0.0, 10.0),
        st.floats(1e-3, 0.999),
        st.integers(1, 5),
        st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_thresholds_increase_for_every_strategy(self, kind, mean_mult, mad_mult, level, max_iters, seed):
        strategy = ThresholdStrategy(kind, mad_mult, mean_mult, level)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(128) * rng.uniform(0.01, 100.0)
        x[rng.random(128) < 0.05] *= 30.0
        params = calibrate_grouped(x, int(rng.integers(2, 9)), strategy, max_iters)
        uppers = [g.upper for g in params.groups]
        assert all(b > a for a, b in zip(uppers, uppers[1:]))
        assert uppers[-1] == math.inf


class TestCodec:
    @pytest.fixture()
    def params(self):
        t = synth("outlier", (32, 32), seed=11)
        return calibrate_grouped(t, 8, max_iters=3)

    def test_inlier_group_and_range(self, params):
        gi, code = grouped_quantize(0.25, params)
        assert gi == 0
        qp = params.groups[0].params
        assert qp.q_min <= code <= qp.q_max

    def test_catch_all_group(self, params):
        finite = [g.upper for g in params.groups if math.isfinite(g.upper)]
        big = (max(finite) if finite else 1.0) * 10
        gi, _ = grouped_quantize(big, params)
        assert gi == len(params.groups) - 1

    def test_roundtrip_code_stable(self, params):
        rng = np.random.default_rng(5)
        for x in rng.standard_normal(100) * 10:
            gi, code = grouped_quantize(float(x), params)
            back = grouped_dequantize(gi, code, params)
            assert grouped_quantize(back, params) == (gi, code)

    def test_invalid_group_index(self, params):
        with pytest.raises(InvalidArgument):
            grouped_dequantize(len(params.groups), 0, params)

    def test_fake_grouped_matches_scalar_path(self, params):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(64) * 20
        recon = fake_grouped(x, params)
        expected = [grouped_dequantize(*grouped_quantize(float(v), params), params) for v in x]
        assert recon.tolist() == pytest.approx(expected)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_dequantized_codes_equal_fake_bit_for_bit(self, seed):
        # fake itself is not idempotent: a reconstruction can land above its
        # group's upper threshold and re-quantize in the next group
        rng = np.random.default_rng(seed)
        params = calibrate_grouped(synth("outlier", (16, 32), seed=seed), int(rng.integers(2, 9)))
        x = rng.standard_normal(96) * rng.uniform(1.0, 60.0)
        groups, codes = params.encode(x)[0]
        got = [grouped_dequantize(int(g), int(c), params) for g, c in zip(groups, codes)]
        assert np.array(got).tobytes() == params.fake(x).tobytes()

    @pytest.mark.parametrize("uppers", [(), (1.5,), (0.25, 2.0, 7.0)])
    def test_vectorized_group_equals_group_index_at_the_edges(self, uppers):
        """Counting the thresholds below |x| gives searchsorted's group at 0, at exactly +-each
        threshold, beside it and between thresholds, for 1, 2 and 4 groups."""
        qp = make_params(-1.0, 1.0, 8)
        params = GroupedQuantParams(8, tuple(QuantGroup(u, qp) for u in (*uppers, math.inf)), max_iters=3)
        edges = [0.0] + [v for u in uppers for v in (np.nextafter(u, 0.0), u, np.nextafter(u, math.inf))]
        edges += [(a + b) / 2 for a, b in zip((0.0, *uppers), (*uppers, 2 * max(uppers, default=1.0)))]
        x = np.array(edges + [-v for v in edges])
        groups = encode_grouped(x, params)[0]
        assert groups.tolist() == [group_index(float(v), params) for v in x]
        assert set(groups.tolist()) == set(range(len(params.groups)))


def group_by_group(x, p):
    """(groups, codes, reconstruction) of x: `group_index`'s searchsorted rule, then each group
    coded apart by `quantize_array` and `dequantize_array` on its own members."""
    groups = np.searchsorted(p.thresholds, np.abs(x), side="left")
    codes, recon = np.empty(x.size, np.int32), np.empty(x.size)
    for g, group in enumerate(p.groups):
        members = groups == g
        codes[members] = quantize_array(x[members], group.params)
        recon[members] = dequantize_array(codes[members], group.params)
    return groups, codes, recon


class TestBlocks:
    """`fake` and `encode` code CHUNK_ELEMS-element blocks, with the bytes of coding each group apart."""

    MIXED = GroupedQuantParams(  # every column of the table varies: signed and unsigned groups
        8,
        (
            QuantGroup(0.3, make_params(-0.3, 0.25, 8)),
            QuantGroup(2.0, QuantParams(scale=0.02, zero_point=0, bits=8, signed=True)),
            QuantGroup(math.inf, make_params(-9.0, 7.0, 8)),
        ),
        max_iters=3,
    )

    @pytest.mark.parametrize("size", [1, CHUNK_ELEMS - 1, CHUNK_ELEMS + 1, 3 * CHUNK_ELEMS + 7])
    @pytest.mark.parametrize("calibrated", [False, True])
    def test_blocks_equal_group_by_group_coding_bit_for_bit(self, size, calibrated):
        rng = np.random.default_rng(size)
        x = rng.standard_normal(size) * 3.0
        p = calibrate_grouped(synth("outlier", (64, 64), seed=1), 6) if calibrated else self.MIXED
        uppers = p.thresholds[:-1]
        neighbours = [v for u in uppers for v in (np.nextafter(u, 0.0), u, np.nextafter(u, math.inf))]
        edge_values = [0.0, -0.0] + [s * v for v in neighbours for s in (1, -1)]
        # both sides of every block edge, and the last elements, hold the signed zeros and thresholds' neighbours
        near = np.array(edge_values * 2)[:size]
        for edge in range(CHUNK_ELEMS, size, CHUNK_ELEMS):
            window = x[edge - near.size // 2 : edge + near.size // 2]
            window[:] = near[: window.size]
        x[size - near.size :] = near
        groups, codes, recon = group_by_group(x, p)
        assert len(set(groups.tolist())) == len(p.groups) or size == 1
        assert fake_grouped(x, p).tobytes() == recon.tobytes()
        got_codes, got_recon = p.encode(x)
        # 6-bit unsigned groups code to uint8; MIXED's signed and unsigned 8-bit groups span [-128, 255]
        want = np.uint8 if calibrated else np.int16
        assert got_codes.dtype == want
        assert got_codes.tobytes() == np.stack((groups, codes)).astype(want).tobytes()
        assert got_recon.tobytes() == recon.tobytes()

    def test_traced_peak_of_fake(self):
        """`fake_grouped` allocates its output and, besides it, a few block-sized temporaries: on the
        256x768 outlier dump it peaks at about 1.5 x its float64 input. Coding the whole array
        at once peaked at 6.04 x."""
        arr = synth("outlier", (256, 768), seed=0).array.astype(np.float64)
        params = calibrate_grouped(arr, 8)
        tracemalloc.start()
        try:
            fake_grouped(arr, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * arr.nbytes, f"traced peak {peak / arr.nbytes:.2f} x the input"

    @pytest.mark.parametrize("seed", [0, 1])
    def test_traced_peak_of_calibrate(self, seed):
        """`calibrate_grouped` frees the magnitudes and the mask before each group search, which
        reads only the inliers: on the 256x768 outlier dump it peaks at about 3.5 x its float64
        input. Keeping them through the search peaked at 4.63 x."""
        arr = synth("outlier", (256, 768), seed=seed).array.astype(np.float64)
        tracemalloc.start()
        try:
            calibrate_grouped(arr, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.6 * arr.nbytes, f"traced peak {peak / arr.nbytes:.2f} x the input"


class TestDominance:
    def test_beats_per_tensor_uniform_on_heavy_tails(self):
        for seed in range(5):
            t = synth("outlier", (32, 64), seed=seed)
            params = calibrate_grouped(t, 8, ThresholdStrategy("mean_3sd"), max_iters=3)
            grouped_mse = float(np.mean((t.array - fake_grouped(t.array, params)) ** 2))
            uniform = make_params(float(t.array.min()), float(t.array.max()), 8, "asymmetric")
            uniform_mse = float(
                np.mean((t.array - fake_quant_array(t.array.astype(np.float64), uniform)) ** 2)
            )
            assert grouped_mse < uniform_mse
