import json
import re
from pathlib import Path

import numpy as np
import pytest

from ptqkit import toynet
from ptqkit.dual_region import fake_dual_region
from ptqkit.errors import InvalidArgument, ShapeError
from ptqkit.generate import synth
from ptqkit.outlier_groups import fake_grouped
from ptqkit.search import mse_grid_search
from ptqkit.toynet import (
    HOOKS,
    PipelineConfig,
    QUANTIZED_HOOKS,
    QuantPlan,
    ToyNetWeights,
    _minmax_params,
    backward_collect,
    forward,
    run_pipeline,
    seeded_inputs,
)
from ptqkit.uniform import error_stats, fake_quant_array, fold_batchnorm

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def weights():
    return ToyNetWeights.seeded(0)


@pytest.fixture(scope="module")
def calib(weights):
    return seeded_inputs(0, 32, weights.seq, weights.dim)


@pytest.fixture(scope="module")
def fp_traces(weights, calib):
    return [backward_collect(x, weights) for x in calib]


class TestForward:
    def test_golden_output(self, weights, calib):
        golden = json.loads((DATA / "golden_forward_seed0.json").read_text())
        out, _ = forward(calib[golden["input_index"]], weights)
        assert list(out.shape) == golden["shape"]
        np.testing.assert_allclose(
            out.reshape(-1), np.asarray(golden["values"]), rtol=1e-6, atol=1e-9
        )

    def test_softmax_rows_normalized(self, weights, calib):
        _, trace = forward(calib[0], weights)
        rows = trace.activations["attn.softmax"].sum(axis=-1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-6)

    def test_all_hooks_present(self, weights, calib):
        _, trace = forward(calib[0], weights)
        assert set(trace.activations) == set(HOOKS)

    def test_deterministic(self, weights, calib):
        a, _ = forward(calib[0], weights)
        b, _ = forward(calib[0], weights)
        assert np.array_equal(a, b)

    def test_seed_determines_weights(self):
        a = ToyNetWeights.seeded(123)
        b = ToyNetWeights.seeded(123)
        assert np.array_equal(a.w_text, b.w_text)
        assert a.outlier_cols == b.outlier_cols

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
    def test_seed_is_a_whole_number_from_zero(self, seed):
        for make in (ToyNetWeights.seeded, lambda s: seeded_inputs(s, 2, 8, 16), lambda s: synth("gelu", (4, 4), s)):
            with pytest.raises(InvalidArgument, match="seed must be a whole number"):
                make(seed)
        assert np.array_equal(seeded_inputs(3.0, 2, 8, 16), seeded_inputs(3, 2, 8, 16))

    def test_outlier_columns_visible(self, weights, calib):
        _, trace = forward(calib[0], weights)
        col_mag = np.abs(trace.activations["text.out"]).max(axis=0)
        top = np.sort(col_mag)[-len(weights.outlier_cols):]
        rest = np.sort(col_mag)[: -len(weights.outlier_cols)]
        assert top.min() > 5 * rest.max()

    @pytest.mark.parametrize("shape", [(3, 3), (8, 17), (2, 3, 16)])
    def test_shape_checked(self, weights, shape):
        with pytest.raises(ShapeError):
            forward(np.zeros(shape), weights)

    def test_high_precision_plan_close_to_fp(self, weights, calib):
        plan, _ = run_pipeline(calib, weights, PipelineConfig(w_bits=16, a_bits=16, seed=0))
        for x in calib[:8]:
            fp, _ = forward(x, weights)
            q, _ = forward(x, weights, plan=plan)
            assert np.max(np.abs(fp - q)) <= 1e-3 * np.max(np.abs(fp))


class TestBackwardCollect:
    def test_gradient_shapes(self, fp_traces):
        tr = fp_traces[0]
        for h in HOOKS:
            assert tr.gradients[h].shape == tr.activations[h].shape

    def test_matches_finite_differences(self, weights, calib):
        x = calib[0]
        tr = backward_collect(x, weights)

        def loss(overrides):
            out, _ = forward(x, weights, overrides=overrides)
            return out.sum()

        eps = 1e-4
        for h in ("attn.scores", "mlp.gelu", "text.out", "decoder.pre_bn"):
            a, g = tr.activations[h], tr.gradients[h]
            fd = np.zeros_like(a)
            it = np.nditer(a, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                up, down = a.copy(), a.copy()
                up[i] += eps
                down[i] -= eps
                fd[i] = (loss({h: up}) - loss({h: down})) / (2 * eps)
            mask = np.abs(g) > 1e-6
            assert np.all(np.abs(fd[mask] - g[mask]) <= 1e-4 * np.abs(g[mask]))


class TestFolding:
    def test_folded_decoder_matches_unfolded(self, weights, calib):
        fw, fb = fold_batchnorm(weights.conv_w, weights.conv_b, weights.bn)
        plan = QuantPlan(folded_conv=(fw, fb))
        for x in calib[:10]:
            fp, _ = forward(x, weights)
            folded, _ = forward(x, weights, plan=plan)
            assert np.allclose(folded, fp, rtol=1e-5, atol=1e-9)


@pytest.fixture(scope="module")
def w8a8(weights, calib):
    return run_pipeline(calib, weights, PipelineConfig.from_preset("W8A8", seed=0))


class TestPipeline:
    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"visual": "search"}, "visual mode 'search' not in ('rtn', 'dual_region')"),
            ({"decoder": None}, "decoder mode None not in ('rtn', 'search')"),
            ({"metric": "l1"}, "metric 'l1'"),
        ],
    )
    def test_config_rejects_unknown_modes(self, fields, message):
        with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
            PipelineConfig(**fields)

    def test_every_quantized_hook_parameterized(self, w8a8):
        plan, report = w8a8
        assert set(plan.hooks) == set(QUANTIZED_HOOKS)
        assert set(report.hooks) == set(QUANTIZED_HOOKS)
        for quantizer in plan.hooks.values():
            assert quantizer is not None

    def test_output_cosine_regression(self, w8a8):
        _, report = w8a8
        assert report.totals["output_cosine_mean"] >= 0.99

    def test_deterministic_across_runs(self, weights, calib, w8a8):
        plan2, report2 = run_pipeline(calib, weights, PipelineConfig.from_preset("W8A8", seed=0))
        _, report1 = w8a8
        assert report1.to_dict() == report2.to_dict()

    def test_region_quantizer_beats_single_scale_on_trace(self, w8a8, fp_traces):
        plan, _ = w8a8
        dumps = np.stack([t.activations["attn.softmax"] for t in fp_traces])
        drq_mse = float(np.mean((dumps - fake_dual_region(dumps, plan.hooks["attn.softmax"])) ** 2))
        minmax_mse = float(np.mean((dumps - fake_quant_array(dumps, _minmax_params(dumps, 8))) ** 2))
        grid_mse = float(
            np.mean((dumps - fake_quant_array(dumps, mse_grid_search(dumps, 8, "symmetric", False))) ** 2)
        )
        assert drq_mse < minmax_mse
        assert drq_mse < grid_mse

    def test_grouped_quantizer_beats_single_scale_on_trace(self, w8a8, fp_traces):
        plan, _ = w8a8
        dumps = np.stack([t.activations["text.out"] for t in fp_traces])
        grouped_mse = float(np.mean((dumps - fake_grouped(dumps, plan.hooks["text.out"])) ** 2))
        uniform_mse = float(np.mean((dumps - fake_quant_array(dumps, _minmax_params(dumps, 8))) ** 2))
        assert grouped_mse < uniform_mse

    def test_bitwidth_monotone_output_error(self, weights, calib):
        errs = {}
        for preset in ("W4A4", "W6A6", "W8A8"):
            _, report = run_pipeline(calib, weights, PipelineConfig.from_preset(preset, seed=0))
            errs[preset] = report.totals["output_mse_mean"]
        assert errs["W4A4"] >= errs["W6A6"] >= errs["W8A8"]

    def test_report_totals_recomputable(self, weights, calib, w8a8):
        plan, report = w8a8
        mses = []
        for x in calib:
            fp, _ = forward(x, weights)
            q, _ = forward(x, weights, plan=plan)
            mses.append(error_stats(fp, q)[0])
        assert report.totals["output_mse_mean"] == float(np.mean(mses))

    def test_one_unplanned_and_one_planned_forward_on_the_stack(self, weights, calib, monkeypatch):
        calls = []

        def counted(x, w, plan=None, overrides=None):
            calls.append((np.shape(x), plan))
            return forward(x, w, plan, overrides)

        monkeypatch.setattr(toynet, "forward", counted)
        run_pipeline(calib[:5], weights, PipelineConfig.from_preset("W8A8", seed=0))
        assert [shape for shape, _ in calls] == [(5, weights.seq, weights.dim)] * 2
        assert calls[0][1] is None and isinstance(calls[1][1], QuantPlan)

    @pytest.mark.parametrize(
        "inputs",
        [[np.zeros((8, 16)), np.zeros((4, 16))], [np.zeros((4, 16))] * 3, np.zeros((8, 16)), np.zeros((2, 2, 8, 16))],
        ids=["ragged", "wrong-shape", "one-unstacked-input", "stack-of-stacks"],
    )
    def test_inputs_not_one_stack_is_a_shape_error(self, weights, inputs):
        with pytest.raises(ShapeError):
            run_pipeline(inputs, weights, PipelineConfig.from_preset("W8A8", seed=0))

    def test_requires_calibration_inputs(self, weights):
        with pytest.raises(InvalidArgument):
            run_pipeline([], weights, PipelineConfig.from_preset("W8A8", seed=0))

    def test_unknown_preset(self):
        with pytest.raises(InvalidArgument):
            PipelineConfig.from_preset("W2A2")

    def test_report_echoes_calibration_input_count(self, weights, calib):
        _, report = run_pipeline(calib[:3], weights, PipelineConfig.from_preset("W8A8", seed=0))
        assert report.config["calibration_size"] == 3
        assert "percentile_p" not in report.config

    def test_mse_metric_variant_runs(self, weights, calib):
        cfg = PipelineConfig.from_preset("W8A8", seed=0, metric="mse")
        plan, report = run_pipeline(calib, weights, cfg)
        assert report.totals["output_cosine_mean"] >= 0.99


@pytest.fixture(scope="module")
def stack_plans(weights, calib):
    w4a4, _ = run_pipeline(calib, weights, PipelineConfig.from_preset("W4A4", seed=0))
    assert w4a4.folded_conv is not None and w4a4.hooks["decoder.pre_bn"].per_channel
    folded = QuantPlan(folded_conv=fold_batchnorm(weights.conv_w, weights.conv_b, weights.bn))
    return {"fp": None, "W4A4": w4a4, "folded-conv": folded}


class TestStacked:
    """A call on an (N, seq, dim) stack equals the N one-input calls, byte for byte."""

    @pytest.mark.parametrize("n", [1, 5, 32])
    @pytest.mark.parametrize("plan_name", ["fp", "W4A4", "folded-conv"])
    def test_forward(self, weights, calib, stack_plans, n, plan_name):
        plan = stack_plans[plan_name]
        out, trace = forward(calib[:n], weights, plan=plan)
        assert out.shape == (n, weights.conv_channels, *weights.conv_hw)
        for i, x in enumerate(calib[:n]):
            one, one_trace = forward(x, weights, plan=plan)
            assert out[i].tobytes() == one.tobytes()
            for h in HOOKS:
                assert trace.activations[h][i].tobytes() == one_trace.activations[h].tobytes(), h

    @pytest.mark.parametrize("n", [1, 5, 32])
    def test_backward_collect(self, weights, calib, fp_traces, n):
        stacked = backward_collect(calib[:n], weights)
        for i, one in enumerate(fp_traces[:n]):
            assert stacked.output[i].tobytes() == one.output.tobytes()
            for h in HOOKS:
                assert stacked.gradients[h][i].tobytes() == one.gradients[h].tobytes(), h

    @pytest.mark.parametrize("hook", ["attn.scores", "mlp.gelu", "decoder.pre_bn"])
    def test_stacked_override(self, weights, calib, hook):
        xs = calib[:5]
        base, trace = forward(xs, weights)
        bumped = trace.activations[hook] * 1.25
        out, _ = forward(xs, weights, overrides={hook: bumped})
        assert not np.array_equal(out, base)
        for i, x in enumerate(xs):
            one, _ = forward(x, weights, overrides={hook: bumped[i]})
            assert out[i].tobytes() == one.tobytes()
