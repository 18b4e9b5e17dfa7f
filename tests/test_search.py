import numpy as np
import pytest

from ptqkit import (
    InvalidArgument,
    SearchSpace,
    ShapeError,
    alternating_matmul_search,
    channelwise_params,
    hessian_metric,
    make_params,
    mse_grid_search,
    percentile_calibrate,
)
from ptqkit.search import params_from_scale
from ptqkit.uniform import fake_quant_array


def brute_force_best(arr, bits, scheme, signed, space):
    """Independent exhaustive argmin over the same candidate list."""
    full = make_params(float(arr.min()), float(arr.max()), bits, scheme, signed)
    best_scale, best_mse = None, np.inf
    for cand in space.scale_candidates(full.scale):
        p = params_from_scale(float(cand), float(arr.min()), bits, scheme, signed)
        mse = float(np.mean((arr - fake_quant_array(arr, p)) ** 2))
        if mse < best_mse:
            best_scale, best_mse = float(cand), mse
    return best_scale


class TestSearchSpace:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            SearchSpace(alpha=0.5, beta=0.5)
        with pytest.raises(InvalidArgument):
            SearchSpace(alpha=-0.1, beta=1.0)
        with pytest.raises(InvalidArgument):
            SearchSpace(n_candidates=0)


class TestMseGridSearch:
    def test_single_candidate_returned(self):
        arr = np.linspace(-1, 1, 50)
        space = SearchSpace(0.5, 1.0, 1)
        p = mse_grid_search(arr, 8, "symmetric", True, space)
        full = 1.0 / 127.0
        assert p.scale == pytest.approx(0.5 * full)

    def test_lattice_exact_candidate_wins(self):
        # data on the lattice of the grid's midpoint candidate: absmax is
        # 127 * c, so the full-range scale is c and linspace(0.5c, 1.5c, 11)
        # contains c exactly at index 5
        space = SearchSpace(0.5, 1.5, 11)
        c = 0.013
        arr = np.arange(-127, 128) * c
        assert space.scale_candidates(abs(arr).max() / 127)[5] == pytest.approx(c)
        p = mse_grid_search(arr, 8, "symmetric", True, space)
        assert p.scale == pytest.approx(c)
        assert np.allclose(fake_quant_array(arr, p), arr)

    @pytest.mark.parametrize("scheme,signed", [("symmetric", True), ("asymmetric", False)])
    def test_matches_bruteforce_oracle(self, scheme, signed):
        space = SearchSpace(0.2, 1.2, 20)
        for seed in range(25):
            rng = np.random.default_rng(seed)
            arr = rng.standard_normal(200) * rng.uniform(0.1, 10)
            got = mse_grid_search(arr, 8, scheme, signed, space)
            assert got.scale == pytest.approx(brute_force_best(arr, 8, scheme, signed, space))

    def test_all_zero_degenerate(self):
        p = mse_grid_search(np.zeros(16), 8, "symmetric")
        assert p.scale == 1.0

    @pytest.mark.parametrize("scheme", ["symmetric", "asymmetric"])
    def test_no_finite_score_returns_full_range(self, scheme):
        # every candidate's squared error overflows to inf
        arr = np.array([1e300, -1e300])
        with np.errstate(over="ignore", invalid="ignore"):
            p = mse_grid_search(arr, 8, scheme)
        assert p == make_params(-1e300, 1e300, 8, scheme)


class TestPercentileCalibrate:
    def test_p100_equals_minmax(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal(500)
        got = percentile_calibrate(arr, 8, 100.0, "asymmetric")
        expect = make_params(float(arr.min()), float(arr.max()), 8, "asymmetric")
        assert got == expect

    def test_clips_top_outlier(self):
        arr = np.concatenate([np.arange(100.0), [1000.0]])
        got = percentile_calibrate(arr, 8, 99.0, "symmetric")
        clip = np.percentile(arr, 99.0)
        assert got.scale == pytest.approx(clip / 255.0)
        assert got.scale * 255.0 < 1000.0

    def test_constant_data(self):
        p = percentile_calibrate(np.zeros(10), 8, 99.9)
        assert p.scale == 1.0

    def test_domain(self):
        with pytest.raises(InvalidArgument):
            percentile_calibrate(np.ones(4), 8, 0.0)
        with pytest.raises(InvalidArgument):
            percentile_calibrate(np.ones(4), 8, 100.5)


class TestHessianMetric:
    def test_zero_perturbation(self):
        x = np.ones((3, 3))
        assert hessian_metric(x, x, np.ones_like(x)) == 0.0

    def test_zero_gradient(self):
        x = np.ones((3, 3))
        assert hessian_metric(x, x + 5.0, np.zeros_like(x)) == 0.0

    def test_unit_gradient_reduces_to_mse(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((4, 5))
        assert hessian_metric(a, b, np.ones_like(a)) == pytest.approx(
            float(np.mean((a - b) ** 2))
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            hessian_metric(np.ones(3), np.ones(3), np.ones(4))


class TestAlternatingSearch:
    def test_single_candidate_trivial(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        space = SearchSpace(0.9, 1.0, 1)
        res = alternating_matmul_search(a, b, bits=8, space=space, rounds=1)
        assert res.scale_a == pytest.approx(space.scale_candidates(np.abs(a).max() / 127)[0])
        assert res.scale_b == pytest.approx(space.scale_candidates(np.abs(b).max() / 127)[0])

    def test_uniform_gradient_matches_plain_mse(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        grad = np.ones((6, 6))
        with_grad = alternating_matmul_search(a, b, grad=grad, bits=8, rounds=3)
        without = alternating_matmul_search(a, b, grad=None, bits=8, rounds=3)
        assert with_grad.scale_a == without.scale_a
        assert with_grad.scale_b == without.scale_b

    def test_metric_history_non_increasing(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            a = rng.standard_normal((16, 16))
            b = rng.standard_normal((16, 16))
            grad = rng.standard_normal((16, 16))
            res = alternating_matmul_search(
                a, b, grad=grad, bits=8, space=SearchSpace(0.2, 1.2, 24), rounds=3
            )
            hist = res.metric_history
            assert len(hist) == 6
            assert all(b2 <= a2 + 1e-18 for a2, b2 in zip(hist, hist[1:]))

    def test_degenerate_zero_operand(self):
        res = alternating_matmul_search(np.zeros((3, 3)), np.ones((3, 3)), bits=8)
        assert res.degenerate
        assert res.scale_a == 1.0 and res.scale_b == 1.0

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            alternating_matmul_search(np.ones((2, 3)), np.ones((2, 3)), bits=8)

    def test_grad_shape_checked(self):
        with pytest.raises(ShapeError):
            alternating_matmul_search(
                np.ones((2, 3)), np.ones((3, 2)), grad=np.ones((3, 3)), bits=8
            )

    def test_batched_operands(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 4, 6))
        b = rng.standard_normal((5, 6, 4))
        res = alternating_matmul_search(a, b, bits=8, rounds=2)
        assert res.scale_a > 0 and res.scale_b > 0
        assert len(res.metric_history) == 4


class TestChannelwiseParams:
    def test_per_channel_lengths(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((6, 10))
        p = channelwise_params(w, 8, axis=0, method="minmax")
        assert p.per_channel and p.axis == 0
        assert np.asarray(p.scale).shape == (6,)

    def test_minmax_matches_per_slice(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((3, 8))
        p = channelwise_params(w, 8, axis=0, method="minmax", scheme="symmetric", signed=True)
        for i, row in enumerate(w):
            expect = make_params(float(row.min()), float(row.max()), 8, "symmetric", True)
            assert np.asarray(p.scale)[i] == pytest.approx(expect.scale)

    def test_mse_reduces_error_vs_minmax(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((4, 256))
        w[:, 0] *= 30  # inject a per-channel outlier the search can clip
        mm = channelwise_params(w, 4, axis=0, method="minmax", scheme="symmetric", signed=True)
        ms = channelwise_params(w, 4, axis=0, method="mse", scheme="symmetric", signed=True)
        err_mm = float(np.mean((w - fake_quant_array(w, mm)) ** 2))
        err_ms = float(np.mean((w - fake_quant_array(w, ms)) ** 2))
        assert err_ms <= err_mm

    def test_unknown_method(self):
        with pytest.raises(InvalidArgument):
            channelwise_params(np.ones((2, 2)), 8, method="magic")
