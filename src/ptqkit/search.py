"""Calibration-time scale-factor optimization.

Covers MSE grid search over a linear candidate space, percentile clipping,
and the alternating coordinate-descent search for the two scale factors of a
matrix product. Every search scores its candidates with `sq_error` and keeps
`first_min`'s winner policy; tensors and their channels share one row search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidArgument, ShapeError
from .tensor import TensorLike, _as_f64, _as_float, channel_slices
# unused here, but bench/test_bench.py checks that its span recorder wraps search.fake_quant_array
from .uniform import QuantParams, fake_quant_array, make_params, quant_range  # noqa: F401
from .uniform import BITS, TINY, full_range, real, whole, zero_point

DEFAULT_PERCENTILE = 99.9  # percentile_calibrate's clipping percentile
DEFAULT_ROUNDS = 3  # alternating_matmul_search's coordinate-descent rounds
MAX_CANDIDATES = 10_000  # SearchSpace.n_candidates bound: the grid is allocated from it
U = 2.0**-53  # float64 unit roundoff
CHUNK_ELEMS = 2**15  # float64 elements of one `_chunks` buffer: the candidates scored at once
BIN_CELLS = 2**11  # `_bin_scores` cells per chunk; 2**15 raised pipeline peak RSS by 3 MB


def first_min(scores) -> np.integer | np.ndarray:
    """Index of the lowest score along the last axis of `scores`.

    The first of equal scores wins and a NaN never wins. -1 means no score
    is below inf (an empty axis included); each caller decides what to fall
    back to. A 1-D `scores` gives one index, a 2-D one an index per row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    ok = scores < np.inf
    k = np.argmin(np.where(ok, scores, np.inf), axis=-1) if scores.shape[-1] else 0
    return np.where(ok.any(axis=-1), k, -1)[()]


@dataclass(frozen=True)
class SearchSpace:
    """Linear grid of candidate scales over [alpha*M/(2^b-1), beta*M/(2^b-1)].

    M is the calibrated tensor's absolute maximum and b the bit-width.
    A single-candidate space (n_candidates == 1) degenerates to the lower
    endpoint, which is occasionally useful in tests and tie-break checks.
    `alpha` and `beta` must be numbers (see `uniform.real`: no bool or
    string), `n_candidates` a whole number (see `uniform.whole`).
    """

    alpha: float = 0.01
    beta: float = 1.2
    n_candidates: int = 100

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", real("alpha", self.alpha))
        object.__setattr__(self, "beta", real("beta", self.beta))
        if not 0 < self.alpha < self.beta < np.inf:
            raise InvalidArgument(f"need 0 < alpha < beta < inf, got {self.alpha}, {self.beta}")
        object.__setattr__(self, "n_candidates", whole("n_candidates", self.n_candidates, 1, MAX_CANDIDATES))

    def scale_candidates(self, full_scale: float | np.ndarray) -> np.ndarray:
        """Grid bracketing each full-range scale by [alpha, beta], along the
        last axis: an array of scales gives one grid per row. A grid whose top
        passes the float64 maximum holds NaN and inf, and a point below the
        least normal float64 (TINY) is NaN: the searches skip both."""
        with np.errstate(over="ignore", invalid="ignore"):
            grid = np.linspace(self.alpha * full_scale, self.beta * full_scale, self.n_candidates, axis=-1)
        return np.where(grid < TINY, np.nan, grid)


def sq_error(
    reference: np.ndarray, approx: np.ndarray, grad: np.ndarray | None = None, axis: int | None = None
) -> float | np.ndarray:
    """Mean of (grad * (approx - reference))^2, the score of every candidate.

    This is the gradient-weighted output perturbation of PTQ4ViT's
    Hessian-guided metric; `grad=None` makes it the plain MSE. The error is
    computed in place: `approx` is overwritten, `reference` and `grad` are
    only read. Callers check that `grad` has the reference's shape.
    With `axis`, a `_chunks` run gets one mean per candidate (the
    alternating search) or per candidate and row (the row search). A term,
    or a sum of finite terms, past the float64 maximum gives inf, without a warning.
    """
    mean = _sq_reduce(reference, approx, grad, np.mean, axis)
    return float(mean) if axis is None else mean


def _sq_reduce(reference: np.ndarray, approx: np.ndarray, grad: np.ndarray | None, reduce, axis) -> np.ndarray:
    """`reduce` (np.mean or np.sum) over `axis` of the terms (grad * (approx - reference))^2, built in `approx`."""
    with np.errstate(over="ignore"):  # a term or sum past the float64 maximum is inf, which no search picks
        diff = np.subtract(approx, reference, out=approx)
        if grad is not None:
            np.multiply(diff, grad, out=diff)
        return reduce(np.square(diff, out=diff), axis=axis)


def _run_length(size: int) -> int:
    """Candidates per `_chunks` run when each needs `size` buffer elements."""
    return max(1, CHUNK_ELEMS // size)


def _chunks(candidates: np.ndarray, *likes: np.ndarray):
    """The `candidates` (indices) in runs, each with a (run, *like.shape)
    view of one float64 buffer per `like`, every candidate of it laid out
    as `np.empty_like(like)`: each product and sum then runs as it would on
    one candidate. A run fills at most CHUNK_ELEMS elements of the largest
    buffer, or holds one candidate. No candidates take no buffer."""
    if not candidates.size:
        return
    step = _run_length(max(x.size for x in likes))
    n = min(step, candidates.size)
    layouts = [np.empty_like(x, dtype=np.float64) for x in likes]
    bufs = [as_strided(np.empty(n * x.size), (n, *x.shape), (x.nbytes, *x.strides)) for x in layouts]
    for j in range(0, candidates.size, step):
        run = candidates[j : j + step]
        yield run, *(b[: run.size] for b in bufs)


def _fake_into(num: np.ndarray, scale, lo, hi, out: np.ndarray) -> np.ndarray:
    """clip(rint(num / scale), lo, hi) * scale into `out`, the reconstruction
    every search scores. With a zero point z folded into the bounds (lo =
    q_min - z, hi = q_max - z) it is `fake_quant_array` up to the sign of a
    zero, as clip(r + z, q_min, q_max) - z is clip(r, lo, hi) for whole r."""
    np.divide(num, scale, out=out)
    np.clip(np.rint(out, out=out), lo, hi, out=out)
    return np.multiply(out, scale, out=out)


def _pieces_into(flat: np.ndarray, piece_of, table, out: np.ndarray, codes=None) -> np.ndarray:
    """The piecewise-uniform codec of the 1-D `flat` into `out`, CHUNK_ELEMS elements at a time, each
    widened to float64, so that every temporary stays in cache. `piece_of(x)` gives each element's
    piece index, and the i-th tuple of `table` holds piece i's (scale s, zero point z, q_min, q_max);
    a column that every piece shares stays a scalar. An element codes as clip(rint(x / s) + z, q_min, q_max),
    the IEEE steps of `quantize_array` (adding z turns a -0.0 code into +0.0), and rebuilds as
    (code - z) * s, those of `dequantize_array`. Each element is coded alone, so the bytes are
    those of a whole-array pass. A (2, n) int32 `codes` gets the piece indices over the codes.
    It only codes: a search scores the reconstruction with `sq_error`."""
    cols = [c[0] if len(set(c)) == 1 else np.array(c, dtype=np.float64) for c in zip(*table)]
    with np.errstate(over="ignore"):  # a quotient past the float64 maximum codes to q_min or q_max, a product is inf
        for j in range(0, flat.size, CHUNK_ELEMS):
            at = slice(j, j + CHUNK_ELEMS)
            x, y = flat[at].astype(np.float64, copy=False), out[at]
            piece = piece_of(x)
            # mode="clip" spares take() its bounds check: every piece index is a row of the table
            s, z, lo, hi = (np.take(c, piece, mode="clip") if isinstance(c, np.ndarray) else c for c in cols)
            np.add(np.rint(np.divide(x, s, out=y), out=y), z, out=y)
            np.clip(y, lo, hi, out=y)
            if codes is not None:
                codes[0, at], codes[1, at] = piece, y
            np.multiply(np.subtract(y, z, out=y), s, out=y)
            del piece, s, z, lo, hi  # before the next block's rule allocates
    return out


def _sorting_pays(n: int, candidates: int, bits: int, weighted: bool, per_call: int = 1, passes: int = 1) -> bool:
    """Whether sorting n elements and scoring 2^bits levels per candidate
    beats scoring each directly, `per_call` candidates to a call, when the
    bound leaves one candidate to win unscored (`_near_winners`). In passes
    over n (4 ns an element, 2 CPUs; `passes` 2 for the dual-region codec
    and its two regions): a direct score `passes` (n + 5000 / per_call), the
    sort 5n (15n with an argsort for weights) plus 40,000 `passes`^2, and a
    (candidate, level) cell 45. Sorted/direct time, alternating: rows of 100
    candidates 0.56 (4 bits) on 1,024, 1.07 and 0.82 (8 bits) on 8,192 and
    12,288; dual region, 8 bits, 98 GeLU candidates 0.87 on 2,048, 8 softmax
    ones 1.03 on 14,336 and 0.87 on 16,384; 4 bits, 4 softmax ones, 1.27 on
    16,384. Misjudged: 4- and 6-bit rows of 600-2,600 elements sort faster,
    weighted 8-bit softmax of 172,000-220,000 slower (1.08 on 196,608). The sort
    term was fitted on float64 sorts; float32 samples sort faster (`_sorted`)."""
    sort = (15 if weighted else 5) * n + 40_000 * passes**2 + (45 * candidates << bits)
    return candidates * passes * (n + 5000 / per_call) > sort


def _gamma(n: int) -> float:
    """Higham's gamma_n = nu / (1 - nu), the bound of n compounded roundings."""
    return n * U / (1 - n * U)


def _sorted(x: np.ndarray, grad: np.ndarray | None = None) -> tuple:
    """(xs, w): `x` flattened, sorted (a float32 `x` in float32) and widened, and w = grad^2 in that order."""
    flat = x.reshape(-1)
    if grad is None:
        return np.sort(flat).astype(np.float64, copy=False), None
    order = np.argsort(flat)
    w = np.take(grad.reshape(-1), order)
    return flat[order].astype(np.float64, copy=False), np.square(w, out=w)


def _bin_scores(srt: tuple, start, stop, scale, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Sums A of w(fl(k*s) - x)^2 over xs[start:stop], k = clip(rint(x/s),
    lo, hi), one per candidate scale s, and bounds B >= |A - its share of n
    * the direct score|, n = xs.size (a search's runs add up). `srt` is
    `_sorted`'s (xs, w); the rest are scalars or one value per candidate.

    Code k's bin is the run of xs that `searchsorted` cuts at (k+1/2)s, so
    its sum is S2 - 2cS1 + c^2 S0 (S2, S1, S0 sum w*x^2, w*x and w over it),
    c = fl(k*s) as `_fake_into` rebuilds it. `reduceat` sums the terms over
    the segments between all candidates' distinct cuts, and each S is a
    difference of Q, one cumsum of the segment sums. With u = 2^-53, B covers
    - the segment sums: a bin of n_k <= stop-start elements is a run of whole
      segments, each summed in any order to within gamma_{n_k} of its sum of
      |term|, and where c != 0 the bin's x all have k's sign: so at most
      gamma_{stop-start} sum_k (S2 + |c|(|c|S0 + 2|S1|));
    - the cumsum, each step off by gamma_1|Q[j]|. Q2 and Q0 never fall and
      |Q1| <= max(|Q1[b]|, m1) up to b, m1 = -min(Q1), so a bin of m_k
      segments ending at cut b_k adds gamma_1 m_k (Q2[b_k] + 2|c|max(|Q1[b_k]|,
      m1) + c^2 Q0[b_k]), with no Q0 term without weights (counts are exact);
    - the products w, wx, wx^2 (gamma_3 sum w(|x|+|c|)^2, at most twice the
      magnitudes), each bin's arithmetic and the sum of the L bins:
      gamma_{L+11} sum_k (S2 + |c|(|c|S0 + 2|S1|));
    - an x within ulps of an edge, coded one level off by rint(x/s): there
      |2x - (2k+1)s| <= 2 gamma_1|k+1/2|s, so its error moves by at most
      4u(2 max(|lo|, |hi|) + 1) s^2 w, counted for every element;
    - underflow, 2^-1074 per product, with its factors below 2^-1074 Z, Z =
      4(n+L)(max|x| + max|c| + 1)^2 (wmax+1): a finite Z bounds all magnitudes
      here and in the direct score, so nothing overflows, else B is inf;
    - the direct score's rounding and `_near_winners`' comparison:
      gamma_{n+8}(|A| + the rest).
    """
    xs, w = srt
    scale = np.asarray(scale, dtype=np.float64)
    start, stop, lo, hi = (np.broadcast_to(v, scale.shape) for v in (start, stop, lo, hi))
    levels, size, kmax = int(hi[0] - lo[0]) + 1, stop - start, np.maximum(np.abs(lo), np.abs(hi))
    step, code = max(1, BIN_CELLS // levels), np.arange(levels)
    chunks = [slice(j, j + step) for j in range(0, scale.size, step)]
    idx = np.empty((scale.size, levels + 1), dtype=np.intp)  # every candidate's cuts
    idx[:, 0], idx[:, -1] = start, stop
    for at in chunks:
        edges = np.searchsorted(xs, (lo[at, None] + (code[:-1] + 0.5)) * scale[at, None])
        np.clip(edges, start[at, None], stop[at, None], out=idx[at, 1:-1])
    mark, rank = np.zeros(xs.size + 1, dtype=bool), np.empty(xs.size + 1, dtype=np.int32)
    mark[idx] = True  # the distinct cuts, and each cut's index among them: no sort
    cut = np.flatnonzero(mark)
    rank[cut] = np.arange(cut.size, dtype=np.int32)
    pos, span, starts = rank[idx].astype(np.intp), slice(cut[0], cut[-1]), cut[:-1] - cut[0]
    del mark, rank
    x, q = xs[span], np.zeros((2 if w is None else 3, cut.size))  # Q1, Q2 and, with weights, Q0 at the cuts
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float64 maximum is inf: then so is Z
        terms = x if w is None else np.multiply(w[span], x)  # then w*x^2: one buffer besides xs and w
        np.add.reduceat(terms, starts, out=q[0, 1:])
        np.add.reduceat(np.square(x) if w is None else np.multiply(terms, x, out=terms), starts, out=q[1, 1:])
        if w is not None:
            np.add.reduceat(w[span], starts, out=q[2, 1:])
        np.cumsum(q, axis=1, out=q)
        m1, wmax, approx = float(-q[0].min()), 1.0 if w is None else float(w.max()), np.empty(scale.shape)
        z = 4.0 * (size + levels) * (max(-xs[0], xs[-1]) + kmax * scale + 1.0) ** 2 * (wmax + 1.0)
        bound = 4 * U * (2 * kmax + 1) * scale**2 * size * wmax + 2.0**-1074 * z
        for at in chunks:
            q1, q2, *q0 = (r[pos[at]] for r in q)  # no Q0 without weights
            s1, s2, s0 = np.diff(q1), np.diff(q2), np.diff(q0[0] if q0 else idx[at])
            c = (lo[at, None] + code) * scale[at, None]
            cc, cs1 = c * c, c * s1
            approx[at] = (s2 + cc * s0 - 2 * cs1).sum(axis=1)
            drift = q2[:, 1:] + 2 * np.abs(c) * np.maximum(np.abs(q1[:, 1:]), m1) + (cc * q0[0][:, 1:] if q0 else 0)
            bound[at] += _gamma(2) * (np.diff(pos[at]) * drift).sum(axis=1)
            bound[at] += (_gamma(levels + 11) + _gamma(size[at])) * (s2 + cc * s0 + 2 * np.abs(cs1)).sum(axis=1)
        bound += _gamma(xs.size + 8) * (np.abs(approx) + bound)
    return approx, np.where(np.isfinite(z), bound, np.inf)


def _near_winners(binned, n: int, candidates: int, bits: int, weighted: bool, per_call=1, passes=1) -> tuple:
    """(scores, todo): the scores `first_min` reads before any direct scoring,
    and the candidates (indices) left to score directly. Where `_sorting_pays`,
    `binned()` gives `_bin_scores`' (A, B) over all n elements; with b =
    argmin(A), a candidate with A_j > A_b + B_b + B_j scores above b directly,
    so it cannot win `first_min`, ties included: it reads inf, the rest 0.0.
    A lone b wins unscored, its direct score finite as `_bin_scores`' Z is:
    the bound alone decided, and `todo` is empty. Otherwise, or where anything
    is not finite, every candidate reads 0.0 and is left to score."""
    if _sorting_pays(n, candidates, bits, weighted, per_call, passes):
        approx, bound = binned()
        if np.isfinite(approx).all() and np.isfinite(bound).all():
            b = np.argmin(approx)
            keep = approx <= approx[b] + bound[b] + bound
            return np.where(keep, 0.0, np.inf), np.flatnonzero(keep & (np.count_nonzero(keep) > 1))
    return np.zeros(candidates), np.arange(candidates)


def params_from_scale(
    scale: float,
    data_min: float,
    bits: int,
    scheme: str = "symmetric",
    signed: bool = False,
) -> QuantParams:
    """Build QuantParams from a candidate scale.

    Asymmetric candidates anchor the zero-point so the observed minimum maps
    near q_min; symmetric candidates keep zero_point == 0.
    """
    if scheme == "symmetric":
        return QuantParams(scale=scale, zero_point=0, bits=bits, signed=signed)
    q_min, q_max = quant_range(bits, signed)
    zp = int(np.clip(np.rint(q_min - data_min / scale), q_min, q_max))
    return QuantParams(scale=scale, zero_point=zp, bits=bits, signed=signed)


@np.errstate(over="ignore")  # a quotient past the float64 maximum codes to q_min or q_max
def _row_search(
    rows: np.ndarray, bits: int, scheme: str, signed: bool, space: SearchSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (scales, zero_points) minimizing the MSE of each row of a
    (rows, elements) float32 or float64 array over a grid bracketing its `full_range`
    scale, each candidate with its `zero_point`. Each `_chunks` run of
    candidates fills a (run, rows, elements) buffer and its columns of a
    (rows, n_candidates) score array, and `first_min` picks every row's
    winner; a degenerate row (all zero, or constant under the asymmetric
    scheme) or one with no score below inf keeps the full-range parameters.
    One row starts from `_near_winners`' scores and scores its `todo`; many
    score every candidate. A `skip` candidate scores inf all the same."""
    bits = whole("bits", bits, *BITS)
    lo, hi = rows.min(axis=1), rows.max(axis=1)
    scales, zero_points = full_range(lo, hi, bits, scheme, signed)
    candidates = space.scale_candidates(scales)
    skip = ~np.isfinite(candidates)  # scored at the full-range scale, then never won
    np.copyto(candidates, scales[:, None], where=skip)
    cand_zps = zero_point(lo[:, None], candidates, bits, scheme, signed)
    q_min, q_max = quant_range(bits, signed)
    lower, upper = q_min - cand_zps, q_max - cand_zps
    scores, todo = np.zeros(candidates.shape), np.arange(candidates.shape[1])
    # Channel rows score every candidate: the pipeline's rows hold 16-36 elements, fewer
    # than 8 bits' 256 levels. A 16x16 weight: 1.7 ms, or 30 ms as 16 sorted one-row searches.
    if rows.shape[0] == 1:
        def binned():
            return _bin_scores(_sorted(rows), 0, rows.size, candidates[0], lower[0], upper[0])

        scores[0], todo = _near_winners(binned, rows.size, candidates.size, bits, False, _run_length(rows.size))
    # (candidate, row, 1) columns, so that a run of them broadcasts against the rows
    by_candidate = [v.T[:, :, None] for v in (candidates, lower, upper)]
    for run, buf in _chunks(todo, rows):
        _fake_into(rows, *(v[run] for v in by_candidate), buf)
        scores[:, run] = sq_error(rows, buf, axis=2).T
    scores[skip] = np.inf
    degenerate = (lo == hi) & ((lo == 0.0) | (scheme == "asymmetric"))
    winner = np.where(degenerate, -1, first_min(scores))
    won = np.flatnonzero(winner >= 0)
    scales[won] = candidates[won, winner[won]]
    zero_points[won] = cand_zps[won, winner[won]]
    return scales, zero_points


def mse_grid_search(
    samples: TensorLike,
    bits: int,
    scheme: str = "symmetric",
    signed: bool = False,
    space: SearchSpace = SearchSpace(),
) -> QuantParams:
    """Pick the candidate scale minimizing fake-quantization MSE.

    The candidate grid brackets the scale a full-range quantizer of the
    requested scheme would use (absmax-based for symmetric, span-based for
    asymmetric), so the search can both shrink and slightly widen the
    clipping range. Ties break deterministically to the smallest scale.
    All-zero and constant samples return the closed-form parameters, and so
    do samples on which no candidate scores finite (e.g. values near the
    float64 limit, whose squared error overflows).
    """
    scales, zero_points = _row_search(_as_float(samples).reshape(1, -1), bits, scheme, signed, space)
    return QuantParams(scale=scales[0], zero_point=zero_points[0], bits=bits, signed=signed)


def percentile_calibrate(
    samples: TensorLike,
    bits: int,
    p: float = DEFAULT_PERCENTILE,
    scheme: str = "asymmetric",
    signed: bool = False,
) -> QuantParams:
    """Clip at the p-th percentile and derive parameters from that range.

    Symmetric uses percentile(|x|, p), p in (0, 100]; asymmetric uses the
    (percentile(x, 100-p), percentile(x, p)) window, p in (50, 100] (else it
    is upside down or empty). p == 100 reproduces plain min/max calibration
    bit-exactly. `p` must be a number (`uniform.real`: no bool or string).
    """
    p, low = real("percentile", p), 50.0 if scheme == "asymmetric" else 0.0
    if not low < p <= 100.0:
        raise InvalidArgument(f"percentile must be in ({low:g}, 100] for the {scheme} scheme, got {p}")
    arr = np.array(_as_float(samples), np.float64)  # a copy of its own, which np.percentile partitions in place
    if scheme == "symmetric":
        clip = float(np.percentile(np.abs(arr, out=arr), p, overwrite_input=True))
        return make_params(-clip, clip, bits, "symmetric", signed)
    lo, hi = np.percentile(arr, [100.0 - p, p], overwrite_input=True)
    return make_params(float(lo), float(hi), bits, scheme, signed)


@dataclass(frozen=True)
class MatmulScaleSearchResult:
    """Final operand quantizers plus the metric recorded after every half-step.

    A zero operand gets identity parameters (scale 1.0) and an empty history.
    """

    params_a: QuantParams
    params_b: QuantParams
    metric_history: tuple[float, ...]


@np.errstate(over="ignore", invalid="ignore")  # a product or score past the float64 maximum never wins
def alternating_matmul_search(
    a: TensorLike,
    b: TensorLike,
    grad: TensorLike | None = None,
    bits: int = 8,
    space: SearchSpace = SearchSpace(),
    rounds: int = DEFAULT_ROUNDS,
) -> MatmulScaleSearchResult:
    """Coordinate-descent search for the operand scales of a matrix product.

    Starting from the maximum-range scales absmax/(2^b - 1), each round fixes
    one operand's scale and picks the other from its candidate grid by
    minimizing the gradient-weighted output perturbation (plain output MSE
    when grad is None). Grids stay fixed across rounds, so the recorded
    metric never increases after the first half-step. Once a half-step after
    the first keeps its operand's scale, every later one repeats one of the
    last two: the search stops and repeats their metrics in turn.

    When both operands lead with one batch axis of N > 1 inputs, a half-step
    sums each candidate's terms over the ceil(N/3) inputs the current pair
    errs most on, m of the n output elements, scores the candidate of lowest
    partial sum P in full (the bound U), and drops every candidate whose P is
    above n U (1 + 2 gamma_{n+m+4}) + n 2^-1070, NaN or inf, while that limit
    is below 2^1020. P sums non-negative terms the full score sums bit for bit
    (the same BLAS calls and elementwise ops), so those score above U. The
    rest are scored as without pruning: result and history keep their bits.
    """
    rounds = whole("rounds", rounds, 1, np.inf)
    ops = (_as_f64(a), _as_f64(b))
    try:
        out_fp = np.matmul(*ops)
    except ValueError as exc:
        raise ShapeError(f"operands are not matmul-compatible: {exc}") from None
    if out_fp.ndim == 0:
        raise ShapeError("operands are both vectors: their product is a scalar, not a matrix")
    g = None if grad is None else _as_f64(grad)
    if g is not None and g.shape != out_fp.shape:
        raise ShapeError(f"grad shape {g.shape} does not match output {out_fp.shape}")
    absmax = [float(np.max(np.abs(x))) for x in ops]
    if 0.0 in absmax:
        identity = QuantParams(scale=1.0, zero_point=0, bits=bits, signed=True)
        return MatmulScaleSearchResult(identity, identity, ())

    signed = [bool(x.min() < 0) for x in ops]
    bounds = [quant_range(bits, s) for s in signed]
    # grids bracket each operand's symmetric full-range scale in its own integer format
    grids = [space.scale_candidates(full_range(-m, m, bits, "symmetric", s)[0]) for m, s in zip(absmax, signed)]
    scales = [m / (2**bits - 1) for m in absmax]
    # Both operands as matrices of the product's batch rank (a vector gets
    # the unit axis matmul gives it), so that a leading candidate axis
    # broadcasts against the other operand and each candidate's product is
    # the same per-matrix BLAS call as the product of the operands.
    mats = [np.atleast_2d(ops[0]), ops[1].reshape(-1, 1) if ops[1].ndim == 1 else ops[1]]
    rank = max(m.ndim for m in mats)
    mats = [m.reshape((1,) * (rank - m.ndim) + m.shape) for m in mats]
    # fq[i] holds operand i fake-quantized at scales[i]
    fq = [_fake_into(x, s, *lh, np.empty_like(x)) for x, s, lh in zip(mats, scales, bounds)]
    ref = out_fp.reshape(np.matmul(*fq).shape)  # with the padded unit axes
    g = None if g is None else g.reshape(ref.shape)
    columns = [grid.reshape((-1,) + (1,) * rank) for grid in grids]  # broadcast over a run's operands
    axes, n = tuple(range(1, rank + 1)), ref.size
    batch = mats[0].shape[0] if rank > 2 and mats[0].shape[0] == mats[1].shape[0] else 1
    heavy = -(-batch // 3)  # the inputs a partial sum covers

    def products(i, todo, x, fixed, like):
        """Each `_chunks` run of `todo` and its candidates (from x) times `fixed`."""
        for run, cand, out in _chunks(todo, x, like):
            _fake_into(x, columns[i][run], *bounds[i], cand)
            yield run, np.matmul(*((cand, fixed) if i == 0 else (fixed, cand)), out=out)

    def score(i, todo, scores):
        for run, out in products(i, todo, mats[i], fq[1 - i], ref):
            scores[run] = sq_error(ref, out, g, axis=axes)

    def prune(i, todo, scores):
        """`todo` less the candidate of lowest partial sum, scored here, and
        every candidate whose partial sum proves it scores above that one."""
        pick = np.argsort(_sq_reduce(ref, np.matmul(*fq), g, np.sum, axes[:-1]))[-heavy:]
        # copies in each matrix's layout, so that its products are the same BLAS calls
        x, fixed, sub = (np.take(v, pick, axis=0, out=np.empty_like(v[:heavy])) for v in (mats[i], fq[1 - i], ref))
        sub_g, part = None if g is None else g[pick], np.full(scores.size, np.inf)
        for run, out in products(i, todo, x, fixed, sub):
            part[run] = _sq_reduce(sub, out, sub_g, np.sum, axes)
        k = first_min(part)
        if k < 0:
            return todo
        score(i, np.array([k]), scores)
        limit = scores[k] * n * (1 + 2 * _gamma(n + sub.size + 4)) + n * 2.0**-1070
        keep = (part <= limit) | ~(limit < 2.0**1020)
        return todo[keep[todo] & (todo != k)]

    history: list[float] = []
    for h in range(2 * rounds):
        i = h % 2  # fix the other operand, search this one
        scores = np.full(grids[i].size, np.inf)
        todo = np.flatnonzero(np.isfinite(grids[i]))
        score(i, prune(i, todo, scores) if heavy < batch else todo, scores)
        k = first_min(scores)
        history.append(float(scores[k]) if k >= 0 else np.inf)
        if k < 0:  # keep the previous scale
            continue
        if h >= 1 and grids[i][k] == scales[i]:
            break  # a fixed point: each later half-step repeats one of the last two
        scales[i] = float(grids[i][k])
        _fake_into(mats[i], scales[i], *bounds[i], fq[i])
    last_two = history[-2:]
    history += [last_two[j % 2] for j in range(2 * rounds - len(history))]
    result = (QuantParams(scale=s, zero_point=0, bits=bits, signed=sg) for s, sg in zip(scales, signed))
    return MatmulScaleSearchResult(*result, metric_history=tuple(history))


def channelwise_params(
    weight: TensorLike,
    bits: int,
    axis: int = 0,
    scheme: str = "symmetric",
    signed: bool = True,
    space: SearchSpace = SearchSpace(),
) -> QuantParams:
    """Per-channel parameters along `axis`: the row search over the channel
    slices, each row equal to `mse_grid_search` on its slice."""
    scales, zero_points = _row_search(channel_slices(weight, axis), bits, scheme, signed, space)
    return QuantParams(scale=scales, zero_point=zero_points, bits=bits, signed=signed, axis=axis)
