"""Calibration-time scale-factor optimization.

Covers MSE grid search over a linear candidate space, percentile clipping,
and the alternating coordinate-descent search for the two scale factors of a
matrix product. Every search scores its candidates with `sq_error` and keeps
`first_min`'s winner policy; tensors and their channels share one row search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, ShapeError
from .tensor import TensorLike, _as_f64, channel_slices, percentile
# unused here, but bench/test_bench.py checks that its span recorder wraps search.fake_quant_array
from .uniform import QuantParams, fake_quant_array, make_params, quant_range  # noqa: F401

DEFAULT_PERCENTILE = 99.9  # percentile_calibrate's clipping percentile
DEFAULT_ROUNDS = 3  # alternating_matmul_search's coordinate-descent rounds
MAX_CANDIDATES = 10_000  # SearchSpace.n_candidates bound: the grid is allocated from it


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
    """

    alpha: float = 0.01
    beta: float = 1.2
    n_candidates: int = 100

    def __post_init__(self) -> None:
        if not 0 < self.alpha < self.beta:
            raise InvalidArgument(f"need 0 < alpha < beta, got {self.alpha}, {self.beta}")
        if not 1 <= self.n_candidates <= MAX_CANDIDATES:
            raise InvalidArgument(
                f"n_candidates must be in [1, {MAX_CANDIDATES}], got {self.n_candidates}"
            )

    def scale_candidates(self, full_scale: float | np.ndarray) -> np.ndarray:
        """Grid bracketing each full-range scale by [alpha, beta], along the
        last axis: an array of scales gives one grid per row."""
        return np.linspace(self.alpha * full_scale, self.beta * full_scale, self.n_candidates, axis=-1)


def sq_error(
    reference: np.ndarray, approx: np.ndarray, grad: np.ndarray | None = None, axis: int | None = None
) -> float | np.ndarray:
    """Mean of (grad * (approx - reference))^2, the score of every candidate.

    This is the gradient-weighted output perturbation of PTQ4ViT's
    Hessian-guided metric; `grad=None` makes it the plain MSE. The error is
    computed in place: `approx` is overwritten, `reference` and `grad` are
    only read. Callers check that `grad` has the reference's shape.
    `axis=1` gives one mean per row (the row search's scores).
    """
    diff = np.subtract(approx, reference, out=approx)
    if grad is not None:
        np.multiply(diff, grad, out=diff)
    mean = np.square(diff, out=diff).mean(axis=axis)
    return float(mean) if axis is None else mean


def _fake_into(num: np.ndarray, scale, lo, hi, out: np.ndarray) -> np.ndarray:
    """clip(rint(num / scale), lo, hi) * scale into `out`, the reconstruction
    every search scores. With a zero point z folded into the bounds (lo =
    q_min - z, hi = q_max - z) it is `fake_quant_array` up to the sign of a
    zero, as clip(r + z, q_min, q_max) - z is clip(r, lo, hi) for whole r."""
    np.divide(num, scale, out=out)
    np.rint(out, out=out)
    np.clip(out, lo, hi, out=out)
    return np.multiply(out, scale, out=out)


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


def _row_search(
    rows: np.ndarray, bits: int, scheme: str, signed: bool, space: SearchSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (scales, zero_points) minimizing the MSE of each row of a
    (rows, elements) float64 array over a grid bracketing its `make_params`
    scale. Each candidate column fills one column of a (rows, n_candidates)
    score array and `first_min` picks every row's winner; a degenerate row
    (all zero, or constant under the asymmetric scheme) or one with no score
    below inf keeps those parameters."""
    lo, hi = rows.min(axis=1), rows.max(axis=1)
    full = [make_params(a, b, bits, scheme, signed) for a, b in zip(lo.tolist(), hi.tolist())]
    scales = np.array([p.scale for p in full], dtype=np.float64)
    zero_points = np.array([p.zero_point for p in full], dtype=np.int64)
    candidates = space.scale_candidates(scales)
    q_min, q_max = quant_range(bits, signed)
    if scheme == "symmetric":
        cand_zps = np.zeros_like(candidates)
    else:  # params_from_scale's zero-point, for every candidate at once
        cand_zps = np.clip(np.rint(q_min - lo[:, None] / candidates), q_min, q_max)
    lower, upper = q_min - cand_zps, q_max - cand_zps
    buf = np.empty_like(rows)
    scores = np.empty(candidates.shape)
    for j in range(candidates.shape[1]):
        _fake_into(rows, candidates[:, j, None], lower[:, j, None], upper[:, j, None], buf)
        scores[:, j] = sq_error(rows, buf, axis=1)
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
    scales, zero_points = _row_search(_as_f64(samples).reshape(1, -1), bits, scheme, signed, space)
    return QuantParams(scale=scales[0], zero_point=zero_points[0], bits=bits, signed=signed)


def percentile_calibrate(
    samples: TensorLike,
    bits: int,
    p: float = DEFAULT_PERCENTILE,
    scheme: str = "asymmetric",
    signed: bool = False,
) -> QuantParams:
    """Clip at the p-th percentile and derive parameters from that range.

    Symmetric uses percentile(|x|, p); asymmetric uses the
    (percentile(x, 100-p), percentile(x, p)) window. p == 100 reproduces
    plain min/max calibration bit-exactly.
    """
    if not 0.0 < p <= 100.0:
        raise InvalidArgument(f"percentile must be in (0, 100], got {p}")
    arr = _as_f64(samples)
    if scheme == "symmetric":
        clip = percentile(np.abs(arr), p)
        return make_params(-clip, clip, bits, "symmetric", signed)
    lo = percentile(arr, 100.0 - p)
    hi = percentile(arr, p)
    return make_params(lo, hi, bits, "asymmetric", signed)


@dataclass(frozen=True)
class MatmulScaleSearchResult:
    """Final operand quantizers plus the metric recorded after every half-step.

    A zero operand gets identity parameters (scale 1.0) and an empty history.
    """

    params_a: QuantParams
    params_b: QuantParams
    metric_history: tuple[float, ...]


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
    metric never increases after the first half-step.
    """
    if rounds < 1:
        raise InvalidArgument("rounds must be >= 1")
    ops = (_as_f64(a), _as_f64(b))
    try:
        out_fp = np.matmul(*ops)
    except ValueError as exc:
        raise ShapeError(f"operands are not matmul-compatible: {exc}") from None
    g = None if grad is None else _as_f64(grad)
    if g is not None and g.shape != out_fp.shape:
        raise ShapeError(f"grad shape {g.shape} does not match output {out_fp.shape}")
    absmax = [float(np.max(np.abs(x))) for x in ops]
    if 0.0 in absmax:
        identity = QuantParams(scale=1.0, zero_point=0, bits=bits, signed=True)
        return MatmulScaleSearchResult(identity, identity, ())

    signed = [bool(x.min() < 0) for x in ops]
    bounds = [quant_range(bits, s) for s in signed]
    # Candidate grids bracket the operand's full-range scale in its actual
    # integer format (signed payloads have q_max = 2^(b-1) - 1); for
    # unsigned operands this is the [alpha, beta] * absmax / (2^b - 1) grid.
    grids = [space.scale_candidates(m / q_max).tolist() for m, (_, q_max) in zip(absmax, bounds)]
    scales = [m / (2**bits - 1) for m in absmax]
    # fq[i] holds operand i fake-quantized at scales[i], or at the candidate
    # scored while its own half-step runs
    fq = [_fake_into(x, s, *lh, np.empty_like(x)) for x, s, lh in zip(ops, scales, bounds)]
    history: list[float] = []
    for _ in range(rounds):
        for i in (0, 1):  # fix the other operand, search this one
            scores = np.empty(len(grids[i]))
            for j, s in enumerate(grids[i]):
                _fake_into(ops[i], s, *bounds[i], fq[i])
                scores[j] = sq_error(out_fp, np.matmul(*fq), g)
            k = first_min(scores)
            if k >= 0:  # else keep the previous scale
                scales[i] = grids[i][k]
            history.append(float(scores[k]) if k >= 0 else np.inf)
            _fake_into(ops[i], scales[i], *bounds[i], fq[i])
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
