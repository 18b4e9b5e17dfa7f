import contextlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ptqkit import search, toynet
from ptqkit.dual_region import calibrate_dual_region
from ptqkit.errors import EmptyInput, InvalidArgument, ShapeError
from ptqkit.generate import synth
from ptqkit.search import (
    DEFAULT_ROUNDS,
    MAX_CANDIDATES,
    SearchSpace,
    _bin_scores,
    _fake_into,
    _sorted_sums,
    alternating_matmul_search,
    channelwise_params,
    first_min,
    mse_grid_search,
    params_from_scale,
    percentile_calibrate,
    sq_error,
)
from ptqkit.uniform import QuantParams, fake_quant_array, make_params, quant_range


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
    if not (a.any() and b.any()):  # an all-zero operand has no scale grid: identity params, no rounds
        identity = QuantParams(scale=1.0, zero_point=0, bits=bits, signed=True)
        return identity, identity, ()
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


def count_scored(monkeypatch) -> list:
    """Record the candidates each `search.sq_error` call scores: the
    leading axis of its reconstruction."""
    scored = []
    real = search.sq_error
    monkeypatch.setattr(search, "sq_error", lambda ref, approx, *rest, **kw: scored.append(len(approx)) or real(ref, approx, *rest, **kw))
    return scored


class TestFirstMin:
    def test_first_of_equal_scores_wins(self):
        assert first_min([2.0, 1.0, 1.0, 3.0]) == 1

    @pytest.mark.parametrize("scores", [[np.nan, 2.0, 1.0], [3.0, np.nan, 1.0], [np.nan, np.nan, 1.0]])
    def test_nan_never_wins(self, scores):
        assert first_min(scores) == 2

    @pytest.mark.parametrize("scores", [[], [np.inf], [np.inf, np.nan, np.inf]])
    def test_nothing_below_inf_is_minus_one(self, scores):
        assert first_min(scores) == -1

    def test_each_row_of_a_2d_array_is_its_own_search(self):
        def strictly_lower_wins(scores):  # the policy as a loop
            best, winner = np.inf, -1
            for k, value in enumerate(scores):
                if value < best:
                    best, winner = value, k
            return winner

        rows = np.random.default_rng(0).integers(0, 4, (64, 6)).astype(np.float64)
        rows[rows == 3] = np.nan
        rows[::5] = np.inf  # no score below inf
        rows[1::7, 2] = -np.inf
        winners = first_min(rows).tolist()
        assert winners == [first_min(row) for row in rows] == [strictly_lower_wins(row) for row in rows]
        assert -1 in winners


class TestSearchSpace:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            SearchSpace(alpha=0.5, beta=0.5)
        with pytest.raises(InvalidArgument):
            SearchSpace(alpha=-0.1, beta=1.0)
        with pytest.raises(InvalidArgument):
            SearchSpace(n_candidates=0)
        for alpha, beta in ((0.01, np.inf), (np.inf, np.inf), (0.01, np.nan), (np.nan, 1.2)):
            with pytest.raises(InvalidArgument, match="alpha < beta < inf"):
                SearchSpace(alpha, beta)

    @pytest.mark.parametrize("field,value", [("alpha", "x"), ("alpha", "0.5"), ("beta", True), ("beta", [1.2])])
    def test_bounds_are_numbers(self, field, value):
        with pytest.raises(InvalidArgument, match=f"^{field} must be a number, got "):
            SearchSpace(**{field: value})

    def test_whole_bounds_are_floats(self):
        space = SearchSpace(alpha=np.float32(0.5), beta=2)
        assert (type(space.alpha), type(space.beta)) == (float, float) and space == SearchSpace(0.5, 2.0)

    def test_candidate_count_is_bounded(self):
        assert SearchSpace(n_candidates=MAX_CANDIDATES).n_candidates == MAX_CANDIDATES
        for n in (MAX_CANDIDATES + 1, 10**12):
            with pytest.raises(InvalidArgument, match="n_candidates"):
                SearchSpace(n_candidates=n)

    def test_candidate_count_is_a_whole_number(self):
        space = SearchSpace(n_candidates=3.0)
        assert type(space.n_candidates) is int and space.scale_candidates(1.0).size == 3
        for n in (True, np.True_, 2.5, "3"):
            with pytest.raises(InvalidArgument, match="n_candidates must be a whole number"):
                SearchSpace(n_candidates=n)


class TestMseGridSearch:
    def test_whole_float_bits_is_an_int(self):
        arr = synth("gelu", (4, 64), 0).array
        assert mse_grid_search(arr, 6.0, "asymmetric") == mse_grid_search(arr, 6, "asymmetric")
        got, want = channelwise_params(arr, 6.0), channelwise_params(arr, 6)
        assert np.array_equal(got.scale, want.scale) and np.array_equal(got.zero_point, want.zero_point)

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
    def test_grid_past_float64_is_skipped_without_a_warning(self, scheme):
        arr = np.linspace(-1.0, 1.0, 64)
        arr[-1] = 3e38
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = mse_grid_search(arr, 8, scheme, space=SearchSpace(beta=1e300))
            rows = channelwise_params(np.stack([arr, arr / 1e300]), 8, 0, scheme, False, SearchSpace(beta=1e300))
        assert p == make_params(-1.0, 3e38, 8, scheme)
        assert rows.scale[0] == p.scale and rows.zero_point[0] == p.zero_point
        assert rows.scale[1] == mse_grid_search(arr / 1e300, 8, scheme, space=SearchSpace(beta=1e300)).scale

    @pytest.mark.parametrize("scheme", ["symmetric", "asymmetric"])
    def test_no_finite_score_returns_full_range(self, scheme):
        # every candidate's squared error overflows to inf
        arr = np.array([1e300, -1e300])
        with np.errstate(over="ignore", invalid="ignore"):
            p = mse_grid_search(arr, 8, scheme)
        assert p == make_params(-1e300, 1e300, 8, scheme)


@contextlib.contextmanager
def sorted_scoring(pays=True):
    """Prune every one-row and dual-region search, whatever it costs, or
    (pays=False) none: then every candidate is scored directly."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_sorting_pays", lambda n, candidates, *rest: pays and candidates > 0)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            yield


@st.composite
def adversarial_rows(draw):
    """(values, bits, scheme, signed, space): repeated values and tied
    scores, values on the bin edges (k+1/2)s of grid candidates, a dynamic
    range of 1e-150 to 1e150, all-equal rows, values whose squared error
    overflows, and plain normals."""
    bits = draw(st.integers(2, 8))
    scheme = draw(st.sampled_from(["symmetric", "asymmetric"]))
    signed = draw(st.booleans())
    alpha = draw(st.floats(0.01, 0.9))
    space = SearchSpace(alpha, alpha + draw(st.floats(0.05, 1.0)), draw(st.integers(2, 60)))
    kind = draw(st.sampled_from(["repeated", "edges", "wide", "equal", "overflow", "normal"]))
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "repeated":
        arr = rng.integers(-3, 4, n) * draw(st.sampled_from([1e-3, 0.37, 1.0, 1e5]))
    elif kind == "edges":
        m = draw(st.floats(0.01, 100.0))
        grid = space.scale_candidates(make_params(-m, m, bits, scheme, signed).scale)
        on_edges = (rng.integers(-(2**bits), 2**bits, n) + 0.5) * grid[rng.integers(grid.size, size=n)]
        arr = np.concatenate([[-m, m], np.clip(on_edges, -m, m)])  # the ends fix the grid
    elif kind == "wide":
        arr = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-150, 150, n)
    elif kind == "equal":
        arr = np.full(n, draw(st.sampled_from([0.0, -0.75, 3.0, 1e-300, 1e150])))
    elif kind == "overflow":
        arr = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(150, 300, n)
    else:
        arr = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    return arr, bits, scheme, signed, space


def prefix_sums_reverse_a_near_tie():
    """(values, t): a row on which a 3-bit signed symmetric search over
    SearchSpace(0.75, 1.5, 2) has the grid {t, 2t}, t = 1 + 3 * 2^-40, and
    the sums A rank the loser first by more than the bound's other terms.

    Both scales code the 20,000 values -4t exactly. The 2,000 values y, one
    ulp above the bin edge 2.5t, code to 3t at scale t and to 2t at scale 2t:
    t is nearer by an ulp and wins directly. The prefix sum of the sorted
    values runs from -80,000 to -75,000, where floats are 2^-36 apart, and
    2.5t = 2.5 + 0.46875 * 2^-36: each y adds 2.5 to it, below the edge, so A
    ranks 2t first by 2.7e-8. The cumsum term of B covers that; the rest of
    the two bounds sums to 8.5e-9, and pruning on A alone keeps only 2t."""
    t = 1.0 + 3 * 2.0**-40
    y = np.nextafter(2.5 * t, 3.0)
    return np.concatenate([np.full(20_000, -4.0 * t), np.full(2_000, y)]), t


class TestSortedScoring:
    """The one-row search scores candidates from sorted prefix sums and
    rescores directly only those its error bounds cannot rule out."""

    @settings(max_examples=300, deadline=None)
    @given(adversarial_rows())
    def test_pruned_winner_equals_bruteforce_oracle(self, case):
        arr, _, scheme, _, _ = case
        with sorted_scoring():
            got = mse_grid_search(*case)
            expect = brute_force_best(*case)
        with sorted_scoring(pays=False):
            assert got == mse_grid_search(*case)
        # the oracle has no closed form for zero and (asymmetric) constant rows
        if arr.min() != arr.max() or (scheme == "symmetric" and arr.max() != 0.0):
            assert got == expect

    @settings(max_examples=300, deadline=None)
    @given(adversarial_rows())
    def test_every_score_lies_within_its_bound(self, case):
        arr, bits, scheme, signed, space = case
        full = make_params(float(arr.min()), float(arr.max()), bits, scheme, signed)
        grid = space.scale_candidates(full.scale)
        params = [params_from_scale(float(s), float(arr.min()), bits, scheme, signed) for s in grid]
        lo = np.array([p.q_min - p.zero_point for p in params])
        hi = np.array([p.q_max - p.zero_point for p in params])
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            approx, bound = _bin_scores(_sorted_sums(arr), 0, arr.size, grid, lo, hi)
            direct = np.array([sq_error(arr, _fake_into(arr, s, a, b, np.empty_like(arr))) for s, a, b in zip(grid, lo, hi)])
            gap = np.abs(approx - direct * arr.size)
        assert np.all(bound >= 0)
        finite = np.isfinite(bound)
        assert finite.all() or np.abs(arr).max() > 1e150  # only data near the float64 limit has no bound
        assert np.all(gap[finite] <= bound[finite])

    def test_a_near_tie_that_the_prefix_sums_reverse_keeps_its_winner(self):
        arr, t = prefix_sums_reverse_a_near_tie()
        case = (arr, 3, "symmetric", True, SearchSpace(0.75, 1.5, 2))
        approx, bound = _bin_scores(_sorted_sums(arr), 0, arr.size, np.array([t, 2 * t]), -4.0, 3.0)
        assert 1e-8 < approx[0] - approx[1] < bound.min()
        with sorted_scoring():
            assert mse_grid_search(*case).scale == brute_force_best(*case).scale == t

    def test_only_near_winners_are_rescored(self, monkeypatch):
        calls = []
        real = search._fake_into
        monkeypatch.setattr(search, "_fake_into", lambda *args: calls.append(1) or real(*args))
        arr = synth("outlier", (256, 768), seed=0).array
        for scheme in ("symmetric", "asymmetric"):
            calls.clear()
            mse_grid_search(arr, 8, scheme)
            assert 1 <= len(calls) <= 5

    def test_channel_rows_score_every_candidate(self, monkeypatch):
        scored = count_scored(monkeypatch)
        channelwise_params(np.random.default_rng(0).standard_normal((4, 4096)), 8)
        assert sum(scored) == SearchSpace().n_candidates


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
        with pytest.raises(InvalidArgument, match="scheme"):  # not run as asymmetric
            percentile_calibrate(np.ones(4), 8, 99.0, "asymetric")

    @pytest.mark.parametrize("p", ["x", "99", True, None])
    def test_percentile_is_a_number(self, p):
        with pytest.raises(InvalidArgument, match="^percentile must be a number, got "):
            percentile_calibrate(np.ones(4), 8, p=p)


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


@st.composite
def batched_searches(draw):
    """(a, b, grad, bits, space, rounds) over a batch of 2-40 inputs: small
    whole numbers (tied scores) or normals, some inputs scaled down (so that
    the ranking of inputs matters), some weighted up or to zero by the
    gradient, unsigned or ReLU'd operands, and inputs whose errors square
    past the float64 maximum."""
    n, rows, inner, cols = draw(st.integers(2, 40)), *(draw(st.integers(1, 6)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a, b = (rng.integers(-3, 4, shape).astype(np.float64) for shape in ((n, rows, inner), (n, inner, cols)))
    else:
        a, b = rng.standard_normal((n, rows, inner)), rng.standard_normal((n, inner, cols))
    for x in (a, b):
        x *= draw(st.sampled_from([1.0, 0.5, 1e-3, 1e-9])) ** (rng.random((n, 1, 1)) < draw(st.floats(0, 1)))
    if draw(st.booleans()):
        a *= 10.0 ** (draw(st.integers(100, 307)) * (rng.random((n, 1, 1)) < 0.2))
    if draw(st.booleans()):
        a = np.abs(a)
    if draw(st.booleans()):
        b = np.maximum(b, 0.0)
    grad = None
    if draw(st.booleans()):
        grad = rng.standard_normal((n, rows, cols))
        grad *= draw(st.sampled_from([0.0, 1e3])) ** (rng.random((n, 1, 1)) < draw(st.floats(0, 1)))
    alpha = draw(st.floats(0.01, 0.9))
    space = SearchSpace(alpha, alpha + draw(st.floats(0.05, 3.0)), draw(st.integers(1, 40)))
    return a, b, grad, draw(st.integers(2, 8)), space, draw(st.integers(1, 4))


def tie_with_the_bound(weight):
    """A search over three 1x1 inputs on which grid scales 1.0, 1.25 and
    1.5 tie. 1.25, the bound candidate, has no error on input 1, the
    heaviest, and 1.0, the winner, has all its error there: its partial sum
    is n times the bound's score, and with `weight` 0.7 rounds above it."""
    a, grad = np.array([3.0, 2.5, 0.75]), weight * np.array([1.0, 1.0, 0.0])
    return a.reshape(3, 1, 1), np.ones((3, 1, 1)), grad.reshape(3, 1, 1), 2, SearchSpace(0.25, 2.25, 9), 1


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

    @pytest.mark.parametrize("bits", [0, 1, 17])
    def test_bits_outside_the_domain_are_invalid(self, bits):
        a = np.array([[-1.0, 2.0], [0.5, 3.0]])
        with pytest.raises(InvalidArgument, match="bits must be a whole number"):
            alternating_matmul_search(a, a, bits=bits)

    def test_rounds_is_a_whole_number(self):
        a = np.array([[-1.0, 2.0], [0.5, 3.0]])
        assert alternating_matmul_search(a, a, rounds=2.0) == alternating_matmul_search(a, a, rounds=2)
        for rounds in (1.5, True, 0, "2"):
            with pytest.raises(InvalidArgument, match="rounds must be a whole number"):
                alternating_matmul_search(a, a, rounds=rounds)

    def test_grid_past_float64_is_skipped_without_a_warning(self):
        # a's grid tops out at 1e300 * 1e100 / 127: every half-step that searches a scores inf
        a, b = np.ones((4, 4)), np.ones((4, 4))
        a[0, 0] = 1e100
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = alternating_matmul_search(a, b, space=SearchSpace(beta=1e300))
        assert res.params_a.scale == 1e100 / 255
        assert res.metric_history[0::2] == (np.inf,) * 3 and np.isfinite(res.metric_history[1::2]).all()

    def test_two_vectors_raise_shape_error(self):
        with pytest.raises(ShapeError, match="scalar"):
            alternating_matmul_search(np.ones(16), np.ones(16))

    @pytest.mark.parametrize("with_grad", [False, True])
    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [
            ((6, 8), (8, 5)),
            ((3, 8, 16), (16, 4)),  # the candidate axis leads a batch axis of one operand only
            ((16,), (16, 8)),  # vector @ matrix and matrix @ vector: one BLAS gemv per candidate
            ((8, 16), (16,)),
            ((32, 8, 16), (32, 16, 8)),  # the pipeline's q @ k_t and softmax @ v
            ((32, 8, 8), (32, 8, 16)),
        ],
    )
    def test_chunked_search_and_stop_match_the_hand_written_loops(self, shape_a, shape_b, with_grad, monkeypatch):
        """Every round count from 1 to 6, on operands of mixed rank, some
        unsigned, some transposed views (as the pipeline's k_t is); the
        grid of 20 leaves a partial last run on the pipeline's shapes."""
        space = SearchSpace(0.2, 1.2, 20)
        products = count_scored(monkeypatch)
        stopped = 0
        for rounds in range(1, 7):
            for seed in range(4):
                rng = np.random.default_rng([seed, rounds])
                a = rng.standard_normal(shape_a)
                b = rng.standard_normal(shape_b[::-1]).T if seed == 2 else rng.standard_normal(shape_b)
                if seed % 2:
                    a = np.abs(a)
                grad = rng.standard_normal(np.matmul(a, b).shape) if with_grad else None
                products.clear()
                res = alternating_matmul_search(a, b, grad=grad, bits=4 + 4 * (seed % 2), space=space, rounds=rounds)
                got = (res.params_a, res.params_b, res.metric_history)
                assert got == alternating_oracle(a, b, grad, 4 + 4 * (seed % 2), space, rounds)
                stopped += sum(products) < 2 * rounds * space.n_candidates
        assert stopped > 0

    @staticmethod
    def pipeline_searches(monkeypatch) -> list:
        """The (args, kwargs) of the four attention searches of the seed-0
        W8A8 and W4A4 pipelines."""
        calls = []
        real_search = toynet.alternating_matmul_search
        monkeypatch.setattr(toynet, "alternating_matmul_search", lambda *a, **k: calls.append((a, k)) or real_search(*a, **k))
        weights = toynet.ToyNetWeights.seeded(0)
        inputs = toynet.seeded_inputs(0, 32, weights.seq, weights.dim)
        for preset in ("W8A8", "W4A4"):
            toynet.run_pipeline(inputs, weights, toynet.PipelineConfig.from_preset(preset, seed=0))
        assert len(calls) == 4
        return calls

    def test_stop_fires_on_the_pipeline_searches(self, monkeypatch):
        """The four attention searches of the seed-0 W8A8 and W4A4 pipelines
        score fewer candidate products than every half-step of every round
        would, with the oracle's result."""
        calls = self.pipeline_searches(monkeypatch)
        products = count_scored(monkeypatch)
        space = SearchSpace()
        for (a, b), kwargs in calls:
            products.clear()
            res = alternating_matmul_search(a, b, **kwargs)
            assert sum(products) < 2 * DEFAULT_ROUNDS * space.n_candidates
            expect = alternating_oracle(a, b, kwargs["grad"], kwargs["bits"], space, DEFAULT_ROUNDS)
            assert (res.params_a, res.params_b, res.metric_history) == expect

    def test_pruning_fires_on_the_pipeline_searches(self, monkeypatch):
        """The four pipeline searches score in full at most a third of the
        candidates they score without pruning (an infinite rounding margin
        keeps every candidate), with the oracle's result both ways."""
        calls = self.pipeline_searches(monkeypatch)
        products = count_scored(monkeypatch)
        counts = []
        for gamma in (search._gamma, lambda n: np.inf):
            monkeypatch.setattr(search, "_gamma", gamma)
            products.clear()
            for (a, b), kwargs in calls:
                res = alternating_matmul_search(a, b, **kwargs)
                expect = alternating_oracle(a, b, kwargs["grad"], kwargs["bits"], SearchSpace(), DEFAULT_ROUNDS)
                assert (res.params_a, res.params_b, res.metric_history) == expect
            counts.append(sum(products))
        pruned, unpruned = counts
        assert unpruned % SearchSpace().n_candidates == 0 and 3 * pruned <= unpruned

    @settings(max_examples=300, deadline=None)
    @given(batched_searches())
    @example(tie_with_the_bound(1.0))
    @example(tie_with_the_bound(0.7))
    def test_pruned_search_equals_the_oracle(self, case):
        a, b, grad, bits, space, rounds = case
        with np.errstate(all="ignore"):
            res = alternating_matmul_search(a, b, grad=grad, bits=bits, space=space, rounds=rounds)
            expect = alternating_oracle(a, b, grad, bits, space, rounds)
        assert (res.params_a, res.params_b, res.metric_history) == expect


class TestChannelwiseParams:
    def test_per_channel_lengths(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((6, 10))
        p = channelwise_params(w, 8, axis=0)
        assert p.per_channel and p.axis == 0
        assert np.asarray(p.scale).shape == (6,)

    def test_builds_one_quant_params(self, monkeypatch):
        """The row search works on arrays of ranges: the result is the only
        QuantParams a 16-row search constructs."""
        built = []
        check = QuantParams.__post_init__
        monkeypatch.setattr(QuantParams, "__post_init__", lambda p: (built.append(p), check(p)))
        channelwise_params(np.random.default_rng(3).standard_normal((16, 8)), 8, axis=0, scheme="asymmetric")
        assert len(built) == 1

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


class TestOverflowingErrorIsSilent:
    """Data whose squared error passes the float64 maximum scores inf and
    prints no warning: every search then keeps its starting parameters."""

    X = np.linspace(-1.0, 1.0, 64) * 1e200

    def test_mse_grid_search(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = mse_grid_search(self.X, 8)
        assert p == make_params(-1e200, 1e200, 8, "symmetric")

    def test_channelwise_params(self):
        rows = self.X.reshape(4, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = channelwise_params(rows, 8, axis=0)
        full = [make_params(float(r.min()), float(r.max()), 8, "symmetric", True) for r in rows]
        assert p.scale.tolist() == [q.scale for q in full] and p.zero_point.tolist() == [0] * 4

    def test_alternating_matmul_search(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((4, 4, 4)), rng.standard_normal((4, 4, 4))
        a[1] *= 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = alternating_matmul_search(a, b)
        assert res.metric_history == (np.inf,) * len(res.metric_history)
        start = [QuantParams(float(np.abs(x).max()) / 255, 0, 8, True) for x in (a, b)]  # the starting scales
        assert [res.params_a, res.params_b] == start


class TestChunkBudget:
    """A run of candidates scores each one as it would alone: the chunk
    budget moves no parameter and no history entry."""

    @staticmethod
    def searches():
        rng = np.random.default_rng(12)
        w = rng.standard_normal((4, 700))  # runs of 11 candidates at the default budget, the last holds 1
        row = rng.standard_normal(1500) + 0.3  # runs of 21, the last holds 16
        q, k_t = rng.standard_normal((32, 8, 16)), np.swapaxes(rng.standard_normal((32, 8, 16)), -1, -2)  # runs of 8, then 4
        grad = rng.standard_normal((32, 8, 8))
        got = []
        with sorted_scoring(pays=False):  # the one-row search scores every candidate directly
            for scheme, signed in (("symmetric", True), ("asymmetric", False)):
                for bits in (4, 8):
                    p = channelwise_params(w, bits, 0, scheme, signed)
                    got.append((np.asarray(p.scale).tobytes(), np.asarray(p.zero_point).tobytes()))
                    got.append(mse_grid_search(row, bits, scheme, signed))
        for g in (None, grad):
            res = alternating_matmul_search(q, k_t, grad=g, bits=8, rounds=4)
            got.append((res.params_a, res.params_b, res.metric_history))
        return got

    @pytest.mark.parametrize("budget", [1, 2**30])
    def test_budget_changes_no_result(self, budget, monkeypatch):
        expect = self.searches()
        monkeypatch.setattr(search, "CHUNK_ELEMS", budget)
        assert self.searches() == expect
