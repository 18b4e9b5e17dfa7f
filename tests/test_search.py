import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ptqkit import (
    EmptyInput,
    InvalidArgument,
    SearchSpace,
    ShapeError,
    alternating_matmul_search,
    calibrate_dual_region,
    channelwise_params,
    make_params,
    mse_grid_search,
    percentile_calibrate,
    sq_error,
)
from ptqkit.search import MAX_CANDIDATES, _fake_into, first_min, params_from_scale
from ptqkit.uniform import QuantParams, fake_quant_array, quant_range


def brute_force_best(arr, bits, scheme, signed, space):
    """Independent exhaustive argmin over the same candidate list, with one
    QuantParams and one fresh fake-quantized array per candidate."""
    full = make_params(float(arr.min()), float(arr.max()), bits, scheme, signed)
    best, best_mse = full, np.inf
    for cand in space.scale_candidates(full.scale):
        p = params_from_scale(float(cand), float(arr.min()), bits, scheme, signed)
        mse = float(np.mean((arr - fake_quant_array(arr, p)) ** 2))
        if mse < best_mse:
            best, best_mse = p, mse
    return best


def alternating_oracle(a, b, grad, bits, space, rounds):
    """Independent copy of the alternating search with both half-steps as
    explicit argmin loops: (params_a, params_b, history)."""
    out_fp = a @ b
    g = 1.0 if grad is None else grad
    signed_a, signed_b = bool(a.min() < 0), bool(b.min() < 0)

    def qp(scale, signed):
        return QuantParams(scale=scale, zero_point=0, bits=bits, signed=signed)

    def metric(out_q):
        return float(np.mean((g * (out_q - out_fp)) ** 2))

    q_max = {True: 2 ** (bits - 1) - 1, False: 2**bits - 1}
    cand_a = space.scale_candidates(np.abs(a).max() / q_max[signed_a])
    cand_b = space.scale_candidates(np.abs(b).max() / q_max[signed_b])
    scale_a = float(np.abs(a).max()) / (2**bits - 1)
    scale_b = float(np.abs(b).max()) / (2**bits - 1)
    history = []
    for _ in range(rounds):
        fq_b = fake_quant_array(b, qp(scale_b, signed_b))
        best = np.inf
        for cand in cand_a:
            score = metric(fake_quant_array(a, qp(float(cand), signed_a)) @ fq_b)
            if score < best:
                best = score
                scale_a = float(cand)
        history.append(best)
        fq_a = fake_quant_array(a, qp(scale_a, signed_a))
        best = np.inf
        for cand in cand_b:
            score = metric(fq_a @ fake_quant_array(b, qp(float(cand), signed_b)))
            if score < best:
                best = score
                scale_b = float(cand)
        history.append(best)
    return qp(scale_a, signed_a), qp(scale_b, signed_b), tuple(history)


class TestFirstMin:
    def test_first_of_equal_scores_wins(self):
        assert first_min(["a", "b", "c", "d"], {"a": 2.0, "b": 1.0, "c": 1.0, "d": 3.0}.get) == ("b", 1.0)

    @pytest.mark.parametrize("scores", [[np.nan, 2.0, 1.0], [3.0, np.nan, 1.0], [np.nan, np.nan, 1.0]])
    def test_nan_never_wins(self, scores):
        assert first_min(range(3), scores.__getitem__) == (2, 1.0)

    @pytest.mark.parametrize("scores", [[], [np.inf], [np.inf, np.nan, np.inf]])
    def test_nothing_below_inf_is_none(self, scores):
        assert first_min(range(len(scores)), scores.__getitem__) == (None, np.inf)

    def test_reads_a_generator_once_and_scores_each_candidate_once(self):
        scored = []

        def score(c):
            scored.append(c)
            return abs(c - 2)

        gen = (c for c in range(5))
        assert first_min(gen, score) == (2, 0)
        assert scored == [0, 1, 2, 3, 4]
        assert next(gen, None) is None


class TestSearchSpace:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            SearchSpace(alpha=0.5, beta=0.5)
        with pytest.raises(InvalidArgument):
            SearchSpace(alpha=-0.1, beta=1.0)
        with pytest.raises(InvalidArgument):
            SearchSpace(n_candidates=0)

    def test_candidate_count_is_bounded(self):
        assert SearchSpace(n_candidates=MAX_CANDIDATES).n_candidates == MAX_CANDIDATES
        for n in (MAX_CANDIDATES + 1, 10**12):
            with pytest.raises(InvalidArgument, match="n_candidates"):
                SearchSpace(n_candidates=n)


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

    @pytest.mark.parametrize(
        "scheme,signed",
        [("symmetric", True), ("asymmetric", False), ("symmetric", False), ("asymmetric", True)],
    )
    def test_matches_bruteforce_oracle(self, scheme, signed):
        space = SearchSpace(0.2, 1.2, 20)
        for seed in range(25):
            rng = np.random.default_rng(seed)
            arr = rng.standard_normal(200) * rng.uniform(0.1, 10)
            got = mse_grid_search(arr, 8, scheme, signed, space)
            assert got == brute_force_best(arr, 8, scheme, signed, space)

    @pytest.mark.parametrize("scheme", ["symmetric", "asymmetric"])
    @pytest.mark.parametrize("signed", [False, True])
    def test_matches_bruteforce_oracle_across_bits_shapes_and_spaces(self, scheme, signed):
        for seed in range(30):
            rng = np.random.default_rng([seed, signed])
            bits = int(rng.integers(2, 10))
            shape = [(257,), (16,), (6, 5, 7)][seed % 3]
            arr = rng.standard_normal(shape) * rng.uniform(0.01, 50) + rng.uniform(-1, 1)
            if seed % 4 == 0:
                arr = np.abs(arr)
            space = SearchSpace(rng.uniform(0.01, 0.5), rng.uniform(0.6, 1.5), int(rng.integers(1, 80)))
            got = mse_grid_search(arr, bits, scheme, signed, space)
            assert got == brute_force_best(arr, bits, scheme, signed, space)

    @pytest.mark.parametrize("scheme", ["symmetric", "asymmetric"])
    def test_does_not_mutate_input(self, scheme):
        arr = np.random.default_rng(3).standard_normal((8, 9))
        before = arr.copy()
        mse_grid_search(arr, 4, scheme)
        assert arr.tobytes() == before.tobytes()

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


@pytest.mark.parametrize("calibrate", [mse_grid_search, channelwise_params, percentile_calibrate])
def test_empty_samples_raise_empty_input(calibrate):
    with pytest.raises(EmptyInput):
        calibrate([], 8)


# values where rounding, ties and signed zeros matter
ELEMENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, -1e-300]),
    st.floats(-1e6, 1e6),
)


@st.composite
def error_cases(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=6))
    ref = draw(hnp.arrays(np.float64, shape, elements=ELEMENT))
    other = draw(hnp.arrays(np.float64, shape, elements=ELEMENT))
    # ties: approx shares elements with the reference
    approx = np.where(draw(hnp.arrays(np.bool_, shape)), ref, other)
    grad = draw(st.none() | hnp.arrays(np.float64, shape, elements=ELEMENT))
    return ref, approx, grad


class TestSqError:
    @settings(max_examples=300, deadline=None)
    @given(error_cases())
    def test_is_the_plain_formula_bit_for_bit(self, case):
        ref, approx, grad = case
        if grad is None:
            want = float(np.mean((ref - approx) ** 2))
        else:
            want = float(np.mean((grad * (approx - ref)) ** 2))
        assert sq_error(ref, approx.copy(), grad) == want

    @settings(max_examples=100, deadline=None)
    @given(error_cases())
    def test_writes_only_approx(self, case):
        ref, approx, grad = case
        before = [a.tobytes() for a in (ref, grad) if a is not None]
        sq_error(ref, approx, grad)
        assert [a.tobytes() for a in (ref, grad) if a is not None] == before

    def test_zero_perturbation(self):
        x = np.ones((3, 3))
        assert sq_error(x, x.copy(), np.ones_like(x)) == 0.0

    def test_zero_gradient(self):
        x = np.ones((3, 3))
        assert sq_error(x, x + 5.0, np.zeros_like(x)) == 0.0

    def test_unit_gradient_is_mse(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((4, 5))
        assert sq_error(a, b.copy(), np.ones_like(a)) == sq_error(a, b.copy())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_the_plain_formula_in_each_dtype(self, dtype):
        rng = np.random.default_rng(9)
        ref = rng.standard_normal((64, 96)).astype(dtype)
        approx = (ref + rng.standard_normal((64, 96)) * 1e-3).astype(dtype)
        assert sq_error(ref, approx.copy()) == float(np.mean((ref - approx) ** 2))

    def test_grad_shape_checked_by_the_calibrator(self):
        with pytest.raises(ShapeError):
            calibrate_dual_region(np.linspace(-1, 1, 12), "gelu", 8, grad=np.ones(13))


class TestFakeInto:
    """The reconstruction every search scores is `fake_quant_array` with the
    zero point folded into the clip bounds."""

    def test_equals_fake_quant_array(self):
        for seed in range(400):
            rng = np.random.default_rng(seed)
            bits = int(rng.integers(2, 17))
            scheme = ("symmetric", "asymmetric")[seed % 2]
            signed = bool(seed // 2 % 2)
            x = rng.standard_normal(int(rng.integers(1, 65))) * 10.0 ** rng.uniform(-3, 3)
            x += rng.uniform(-1, 1) * np.abs(x).max() * (scheme == "asymmetric")
            x[rng.random(x.size) < 0.2] = 0.0  # exact zeros
            full = make_params(float(x.min()), float(x.max()), bits, scheme, signed)
            scale = full.scale * rng.uniform(0.01, 1.5)  # off the full-range scale
            p = params_from_scale(scale, float(x.min()), bits, scheme, signed)
            q_min, q_max = quant_range(bits, signed)
            out = np.empty_like(x)
            got = _fake_into(x, scale, q_min - p.zero_point, q_max - p.zero_point, out)
            assert got is out
            assert np.array_equal(got, fake_quant_array(x, p))


class TestAlternatingSearch:
    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("with_grad", [False, True])
    @pytest.mark.parametrize("rounds", [1, 3])
    def test_matches_the_hand_written_loops(self, bits, with_grad, rounds):
        """Small operands, then batched ones of the pipeline's attention
        shapes (q @ k_t and softmax @ v over 32 inputs), some unsigned and
        some ReLU'd, so that they hold exact zeros."""
        space = SearchSpace(0.2, 1.2, 16)
        for shape_a, shape_b in [((6, 8), (8, 5)), ((32, 8, 16), (32, 16, 8)), ((32, 8, 8), (32, 8, 16))]:
            for seed in range(8):
                rng = np.random.default_rng([seed, bits])
                a = rng.standard_normal(shape_a)
                b = rng.standard_normal(shape_b)
                if seed % 2:
                    a = np.abs(a)  # an unsigned operand
                if seed >= 6:
                    b = np.maximum(b, 0.0)
                    assert (b == 0.0).any()
                grad = rng.standard_normal(np.matmul(a, b).shape) if with_grad else None
                res = alternating_matmul_search(a, b, grad=grad, bits=bits, space=space, rounds=rounds)
                got = (res.params_a, res.params_b, res.metric_history)
                assert got == alternating_oracle(a, b, grad, bits, space, rounds)

    def test_single_candidate_trivial(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        space = SearchSpace(0.9, 1.0, 1)
        res = alternating_matmul_search(a, b, bits=8, space=space, rounds=1)
        assert res.params_a.scale == pytest.approx(space.scale_candidates(np.abs(a).max() / 127)[0])
        assert res.params_b.scale == pytest.approx(space.scale_candidates(np.abs(b).max() / 127)[0])

    def test_uniform_gradient_matches_plain_mse(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6))
        grad = np.ones((6, 6))
        with_grad = alternating_matmul_search(a, b, grad=grad, bits=8, rounds=3)
        without = alternating_matmul_search(a, b, grad=None, bits=8, rounds=3)
        assert with_grad.params_a == without.params_a
        assert with_grad.params_b == without.params_b

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
        identity = QuantParams(scale=1.0, zero_point=0, bits=8, signed=True)
        assert (res.params_a, res.params_b, res.metric_history) == (identity, identity, ())

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
        assert res.params_a.scale > 0 and res.params_b.scale > 0
        assert len(res.metric_history) == 4


class TestChannelwiseParams:
    def test_per_channel_lengths(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((6, 10))
        p = channelwise_params(w, 8, axis=0)
        assert p.per_channel and p.axis == 0
        assert np.asarray(p.scale).shape == (6,)

    @staticmethod
    def assert_each_channel_is_its_own_search(w, bits, axis, scheme, signed, space=SearchSpace()):
        p = channelwise_params(w, bits, axis, scheme, signed, space)
        for i in range(w.shape[axis]):
            expect = mse_grid_search(np.take(w, i, axis=axis), bits, scheme, signed, space)
            assert (p.scale[i], p.zero_point[i]) == (expect.scale, expect.zero_point)
        return p

    def test_matches_per_slice(self):
        """The row search's oracle: every channel, including the degenerate
        and tied ones, equals `mse_grid_search` on its own slice exactly."""
        rng = np.random.default_rng(6)
        for shape, axis in [((7, 9), 0), ((9, 7), 1), ((7, 3, 3, 3), 0)]:
            w = rng.standard_normal(shape) * rng.uniform(0.1, 10)
            channels = np.moveaxis(w, axis, 0)  # a view: writes land in w
            channels[1] = 0.0
            channels[2] = -0.75
            # every candidate's squared error underflows to 0, so all tie
            channels[3] = rng.choice([-1e-180, 1e-180], channels[3].shape)
            # every candidate's squared error overflows to inf
            channels[4] = rng.choice([-1.0, 1.0], channels[4].shape) * rng.uniform(1e200, 2e200, channels[4].shape)
            channels[5] = np.abs(channels[5])
            for scheme in ("symmetric", "asymmetric"):
                for signed in (True, False):
                    with np.errstate(over="ignore", invalid="ignore"):
                        p = self.assert_each_channel_is_its_own_search(w, 4, axis, scheme, signed)
                    tie = make_params(float(channels[3].min()), float(channels[3].max()), 4, scheme, signed)
                    assert p.scale[3] == SearchSpace().scale_candidates(tie.scale)[0]  # the first of equals

    @settings(max_examples=60, deadline=None)
    @given(
        ints=hnp.arrays(np.int64, st.tuples(st.integers(1, 5), st.integers(1, 8)), elements=st.integers(-40, 40)),
        magnitudes=st.lists(st.sampled_from([1e-180, 1e-3, 1.0, 7.5, 1e200]), min_size=5, max_size=5),
        transpose=st.booleans(),
        scheme=st.sampled_from(["symmetric", "asymmetric"]),
        signed=st.booleans(),
        bits=st.integers(2, 8),
        n_candidates=st.integers(1, 30),
    )
    def test_matches_per_slice_on_drawn_rows(self, ints, magnitudes, transpose, scheme, signed, bits, n_candidates):
        """Rows of small integers, each at one magnitude: zero, constant,
        equal and tied rows, and rows that overflow. (Rows whose full-range
        scale is subnormal are left out: `make_params` rejects them before
        any search, see `test_subnormal_row_scale_rejected`.)"""
        w = ints * np.asarray(magnitudes[: len(ints)])[:, None]
        space = SearchSpace(0.2, 1.3, n_candidates)
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_each_channel_is_its_own_search(
                w.T if transpose else w, bits, int(transpose), scheme, signed, space
            )

    @pytest.mark.parametrize(
        "row,scheme",
        [([2.2250738585072014e-308, 2.225073858507202e-308], "asymmetric"), ([1e-321, -2e-321, 3e-322], "symmetric")],
    )
    def test_subnormal_row_scale_rejected(self, row, scheme):
        """A row whose full-range scale is subnormal never reaches the row
        search (one such row would change the grid of every other row)."""
        w = np.array([np.linspace(-1.0, 2.0, len(row)), row])
        for arr, search in ((w, lambda a: channelwise_params(a, 8, 0, scheme)), (np.array(row), None)):
            with pytest.raises(InvalidArgument, match="subnormal"):
                search(arr) if search else mse_grid_search(arr, 8, scheme)

    def test_mse_reduces_error_vs_minmax(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((4, 256))
        w[:, 0] *= 30  # inject a per-channel outlier the search can clip
        ms = channelwise_params(w, 4, axis=0, scheme="symmetric", signed=True)
        full = [make_params(float(row.min()), float(row.max()), 4, "symmetric", True) for row in w]
        mm = QuantParams([p.scale for p in full], [0] * 4, bits=4, signed=True, axis=0)
        err_mm = float(np.mean((w - fake_quant_array(w, mm)) ** 2))
        err_ms = float(np.mean((w - fake_quant_array(w, ms)) ** 2))
        assert err_ms <= err_mm
