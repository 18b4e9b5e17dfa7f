"""Calibration-time scale-factor optimization.

Covers MSE grid search over a linear candidate space, percentile clipping,
and the alternating coordinate-descent search for the two scale factors of a
matrix product. Every search over candidates scores them with `sq_error` and
picks its winner with `first_min`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, TypeVar

import numpy as np

from .errors import EmptyInput, InvalidArgument, ShapeError
from .tensor import TensorLike, _as_f64, channel_slices, percentile
from .uniform import QuantParams, fake_quant_array, make_params, quant_range

T = TypeVar("T")

DEFAULT_PERCENTILE = 99.9  # percentile_calibrate's clipping percentile
DEFAULT_ROUNDS = 3  # alternating_matmul_search's coordinate-descent rounds
MAX_CANDIDATES = 10_000  # SearchSpace.n_candidates bound: the grid is allocated from it


def first_min(candidates: Iterable[T], score: Callable[[T], float]) -> tuple[T | None, float]:
    """The lowest-scoring candidate and its score, reading `candidates` once.

    A candidate wins only on a strictly lower score, so the first of equal
    scores wins and a NaN score never wins. `(None, inf)` means no candidate
    scored below inf; each caller decides what to fall back to.
    """
    best = None
    best_score = np.inf
    for cand in candidates:
        value = score(cand)
        if value < best_score:
            best, best_score = cand, value
    return best, best_score


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

    def scale_candidates(self, full_scale: float) -> np.ndarray:
        """Grid bracketing an arbitrary full-range scale by [alpha, beta]."""
        if full_scale <= 0:
            return np.empty(0, dtype=np.float64)
        return np.linspace(
            self.alpha * full_scale, self.beta * full_scale, self.n_candidates
        )


def sq_error(reference: np.ndarray, approx: np.ndarray, grad: np.ndarray | None = None) -> float:
    """Mean of (grad * (approx - reference))^2, the score of every candidate.

    This is the gradient-weighted output perturbation of PTQ4ViT's
    Hessian-guided metric; `grad=None` makes it the plain MSE. The error is
    computed in place: `approx` is overwritten, `reference` and `grad` are
    only read. Callers check that `grad` has the reference's shape.
    """
    diff = np.subtract(approx, reference, out=approx)
    if grad is not None:
        np.multiply(diff, grad, out=diff)
    return float(np.square(diff, out=diff).mean())


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
    q_min, q_max = quant_range(bits, signed)
    if scheme == "symmetric":
        zero_points = np.zeros_like(candidates)
    else:  # params_from_scale's zero-point, for every candidate at once
        zero_points = np.clip(np.rint(q_min - data_min / candidates), q_min, q_max)
    buf = np.empty_like(arr)

    def score(cand: tuple[float, float]) -> float:
        """fake_quant_array then sq_error, op for op, in the reused buffer."""
        scale, zp = cand
        np.divide(arr, scale, out=buf)
        np.rint(buf, out=buf)
        if zp:
            np.add(buf, zp, out=buf)
        np.clip(buf, q_min, q_max, out=buf)
        if zp:
            np.subtract(buf, zp, out=buf)
        np.multiply(buf, scale, out=buf)
        return sq_error(arr, buf)

    best, _ = first_min(zip(candidates.tolist(), zero_points.tolist()), score)
    if best is None:
        return full
    return params_from_scale(best[0], data_min, bits, scheme, signed)


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
    space: SearchSpace | None = None,
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
    arr_a = _as_f64(a)
    arr_b = _as_f64(b)
    space = space or SearchSpace()
    try:
        out_fp = np.matmul(arr_a, arr_b)
    except ValueError as exc:
        raise ShapeError(f"operands are not matmul-compatible: {exc}") from None
    g = None if grad is None else _as_f64(grad)
    if g is not None and g.shape != out_fp.shape:
        raise ShapeError(f"grad shape {g.shape} does not match output {out_fp.shape}")

    absmax_a = float(np.max(np.abs(arr_a)))
    absmax_b = float(np.max(np.abs(arr_b)))
    denom = 2**bits - 1
    signed_a = bool(arr_a.min() < 0)
    signed_b = bool(arr_b.min() < 0)
    if absmax_a == 0.0 or absmax_b == 0.0:
        identity = QuantParams(scale=1.0, zero_point=0, bits=bits, signed=True)
        return MatmulScaleSearchResult(identity, identity, ())

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
        best, score = first_min(
            cand_a.tolist(),
            lambda s: sq_error(out_fp, np.matmul(fake_quant_array(arr_a, qp(s, signed_a)), fq_b), g),
        )
        if best is not None:  # else keep the previous scale
            scale_a = best
        history.append(score)
        fq_a = fake_quant_array(arr_a, qp(scale_a, signed_a))
        best, score = first_min(
            cand_b.tolist(),
            lambda s: sq_error(out_fp, np.matmul(fq_a, fake_quant_array(arr_b, qp(s, signed_b))), g),
        )
        if best is not None:
            scale_b = best
        history.append(score)
    return MatmulScaleSearchResult(
        params_a=qp(scale_a, signed_a),
        params_b=qp(scale_b, signed_b),
        metric_history=tuple(history),
    )


def channelwise_params(
    weight: TensorLike,
    bits: int,
    axis: int = 0,
    scheme: str = "symmetric",
    signed: bool = True,
    space: SearchSpace | None = None,
) -> QuantParams:
    """Per-channel parameters along `axis`, each slice grid-searched by
    `mse_grid_search`."""
    per = [mse_grid_search(s, bits, scheme, signed, space) for s in channel_slices(weight, axis)]
    return QuantParams(
        scale=np.asarray([p.scale for p in per], dtype=np.float64),
        zero_point=np.asarray([p.zero_point for p in per], dtype=np.int64),
        bits=bits,
        signed=signed,
        axis=axis,
    )
