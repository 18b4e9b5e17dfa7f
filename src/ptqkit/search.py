"""Calibration-time scale-factor optimization.

Covers MSE grid search over a linear candidate space, percentile clipping,
the gradient-weighted output-perturbation metric, and the alternating
coordinate-descent search for the two scale factors of a matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EmptyInput, InvalidArgument, ShapeError
from .tensor import TensorLike, _as_f64, percentile
from .uniform import (
    QuantParams,
    fake_quant_array,
    make_channel_params,
    make_params,
    quant_range,
)

MetricFn = Callable[[np.ndarray, np.ndarray], float]


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
        if self.n_candidates < 1:
            raise InvalidArgument("n_candidates must be >= 1")

    def scale_candidates(self, full_scale: float) -> np.ndarray:
        """Grid bracketing an arbitrary full-range scale by [alpha, beta]."""
        if full_scale <= 0:
            return np.empty(0, dtype=np.float64)
        return np.linspace(
            self.alpha * full_scale, self.beta * full_scale, self.n_candidates
        )


def mse_metric(reference: np.ndarray, approx: np.ndarray) -> float:
    return float(np.mean((np.asarray(reference) - np.asarray(approx)) ** 2))


def hessian_metric(out_fp: TensorLike, out_q: TensorLike, grad: TensorLike) -> float:
    """Mean of (grad * (out_q - out_fp))^2: the squared gradient-weighted
    output perturbation used to rank scale candidates."""
    fp = _as_f64(out_fp)
    q = _as_f64(out_q)
    g = _as_f64(grad)
    if fp.shape != q.shape or fp.shape != g.shape:
        raise ShapeError(f"shape mismatch: {fp.shape}, {q.shape}, {g.shape}")
    return float(np.mean((g * (q - fp)) ** 2))


def hessian_metric_fn(grad: TensorLike) -> MetricFn:
    """Bind a gradient dump into a (reference, approx) -> score metric."""
    g = _as_f64(grad)
    return lambda fp, q: hessian_metric(fp, q, g)


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


def mse_grid_search(
    samples: TensorLike,
    bits: int,
    scheme: str = "symmetric",
    signed: bool = False,
    space: SearchSpace | None = None,
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
    arr = _as_f64(samples)
    if arr.size == 0:
        raise EmptyInput("no calibration samples")
    space = space or SearchSpace()
    data_min = float(arr.min())
    data_max = float(arr.max())
    full = make_params(data_min, data_max, bits, scheme, signed)
    if (scheme == "symmetric" and max(abs(data_min), abs(data_max)) == 0.0) or (
        scheme == "asymmetric" and data_min == data_max
    ):
        return full
    candidates = space.scale_candidates(full.scale)
    if candidates.size == 0:
        raise InvalidArgument("empty candidate set")
    best_params = None
    best_score = np.inf
    for cand in candidates:
        params = params_from_scale(float(cand), data_min, bits, scheme, signed)
        score = mse_metric(arr, fake_quant_array(arr, params))
        if score < best_score:
            best_score = score
            best_params = params
    return best_params if best_params is not None else full


def percentile_calibrate(
    samples: TensorLike,
    bits: int,
    p: float = 99.9,
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
    if arr.size == 0:
        raise EmptyInput("no calibration samples")
    if scheme == "symmetric":
        clip = percentile(np.abs(arr), p)
        return make_params(-clip, clip, bits, "symmetric", signed)
    lo = percentile(arr, 100.0 - p)
    hi = percentile(arr, p)
    return make_params(lo, hi, bits, "asymmetric", signed)


@dataclass(frozen=True)
class MatmulScaleSearchResult:
    """Final operand scales plus the metric recorded after every half-step."""

    scale_a: float
    scale_b: float
    params_a: QuantParams
    params_b: QuantParams
    metric_history: tuple[float, ...]
    degenerate: bool = False


def alternating_matmul_search(
    a: TensorLike,
    b: TensorLike,
    grad: TensorLike | None = None,
    bits: int = 8,
    space: SearchSpace | None = None,
    rounds: int = 3,
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
    arr_a = _as_f64(a)
    arr_b = _as_f64(b)
    space = space or SearchSpace()
    try:
        out_fp = np.matmul(arr_a, arr_b)
    except ValueError as exc:
        raise ShapeError(f"operands are not matmul-compatible: {exc}") from None
    if grad is not None:
        g = _as_f64(grad)
        if g.shape != out_fp.shape:
            raise ShapeError(f"grad shape {g.shape} does not match output {out_fp.shape}")
    else:
        g = np.float64(1.0)

    absmax_a = float(np.max(np.abs(arr_a)))
    absmax_b = float(np.max(np.abs(arr_b)))
    denom = 2**bits - 1
    signed_a = bool(arr_a.min() < 0)
    signed_b = bool(arr_b.min() < 0)
    if absmax_a == 0.0 or absmax_b == 0.0:
        identity = QuantParams(scale=1.0, zero_point=0, bits=bits, signed=True)
        return MatmulScaleSearchResult(1.0, 1.0, identity, identity, (), degenerate=True)

    def metric(out_q: np.ndarray) -> float:
        return float(np.mean((g * (out_q - out_fp)) ** 2))

    def qp(scale: float, signed: bool) -> QuantParams:
        return QuantParams(scale=scale, zero_point=0, bits=bits, signed=signed)

    # Candidate grids bracket the operand's full-range scale in its actual
    # integer format (signed payloads have q_max = 2^(b-1) - 1); for
    # unsigned operands this is the [alpha, beta] * absmax / (2^b - 1) grid.
    cand_a = space.scale_candidates(absmax_a / quant_range(bits, signed_a)[1])
    cand_b = space.scale_candidates(absmax_b / quant_range(bits, signed_b)[1])
    scale_a = absmax_a / denom
    scale_b = absmax_b / denom
    history: list[float] = []
    for _ in range(rounds):
        fq_b = fake_quant_array(arr_b, qp(scale_b, signed_b))
        best = np.inf
        for cand in cand_a:
            score = metric(np.matmul(fake_quant_array(arr_a, qp(float(cand), signed_a)), fq_b))
            if score < best:
                best = score
                scale_a = float(cand)
        history.append(best)
        fq_a = fake_quant_array(arr_a, qp(scale_a, signed_a))
        best = np.inf
        for cand in cand_b:
            score = metric(np.matmul(fq_a, fake_quant_array(arr_b, qp(float(cand), signed_b))))
            if score < best:
                best = score
                scale_b = float(cand)
        history.append(best)
    return MatmulScaleSearchResult(
        scale_a=scale_a,
        scale_b=scale_b,
        params_a=qp(scale_a, signed_a),
        params_b=qp(scale_b, signed_b),
        metric_history=tuple(history),
    )


def channelwise_params(
    weight: TensorLike,
    bits: int,
    axis: int = 0,
    method: str = "minmax",
    scheme: str = "symmetric",
    signed: bool = True,
    space: SearchSpace | None = None,
    percentile_p: float = 99.9,
) -> QuantParams:
    """Per-channel parameters along `axis`, calibrated slice by slice.

    method: "minmax" (full range), "mse" (grid search) or "percentile".
    """
    arr = _as_f64(weight)
    if not 0 <= axis < arr.ndim:
        raise InvalidArgument(f"axis {axis} out of range for rank {arr.ndim}")
    slices = np.moveaxis(arr, axis, 0).reshape(arr.shape[axis], -1)
    if method == "minmax":
        pairs = [(float(s.min()), float(s.max())) for s in slices]
        return make_channel_params(pairs, bits, axis, scheme, signed)
    scales = []
    zps = []
    for s in slices:
        if method == "mse":
            p = mse_grid_search(s, bits, scheme, signed, space)
        elif method == "percentile":
            p = percentile_calibrate(s, bits, percentile_p, scheme, signed)
        else:
            raise InvalidArgument(f"unknown calibration method {method!r}")
        scales.append(p.scale)
        zps.append(p.zero_point)
    return QuantParams(
        scale=np.asarray(scales, dtype=np.float64),
        zero_point=np.asarray(zps, dtype=np.int64),
        bits=bits,
        signed=signed,
        axis=axis,
    )
