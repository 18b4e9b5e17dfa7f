"""Iterative outlier-grouped quantization.

Calibration repeatedly splits the working set at a magnitude threshold,
grid-searches uniform parameters for the inliers, and recurses on the
outliers until none remain or the iteration cap is hit. The result is an
ordered list of (upper-threshold, params) groups; at quantization time a
value lands in the first group whose threshold covers its magnitude, so
large outliers keep their own precise scale instead of being clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .errors import EmptyInput, InvalidArgument
from .search import SearchSpace, mse_grid_search
from .tensor import TensorLike, _as_f64
from .uniform import QuantParams, dequantize_array, fake_quant_array, quantize_array

STRATEGY_KINDS = ("mean_3sd", "mean_division", "median_mad", "confidence", "none")


@dataclass(frozen=True)
class ThresholdStrategy:
    """How to place the inlier/outlier threshold on absolute values.

    mean_3sd: mu + 3*sigma. mean_division: mean_multiplier * mu.
    median_mad: median + mad_multiplier * MAD. confidence: two-sided Gaussian
    interval bound at confidence_level. none: a single all-covering group.
    """

    kind: str = "mean_3sd"
    mad_multiplier: float = 3.0
    mean_multiplier: float = 1.0
    confidence_level: float = 0.99

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise InvalidArgument(f"kind must be one of {STRATEGY_KINDS}")
        if not 0.0 < self.confidence_level < 1.0:
            raise InvalidArgument("confidence_level must be in (0, 1)")


def _threshold_info(magnitudes: np.ndarray, strategy: ThresholdStrategy) -> tuple[float, bool]:
    """Threshold plus a flag marking a degenerate MAD (== 0)."""
    mu = float(magnitudes.mean())
    sigma = float(np.sqrt(np.mean((magnitudes - mu) ** 2)))
    kind = strategy.kind
    if kind == "mean_3sd":
        return mu + 3.0 * sigma, False
    if kind == "mean_division":
        return strategy.mean_multiplier * mu, False
    if kind == "median_mad":
        med = float(np.median(magnitudes))
        mad = float(np.median(np.abs(magnitudes - med)))
        return med + strategy.mad_multiplier * mad, mad == 0.0
    if kind == "confidence":
        z = NormalDist().inv_cdf(0.5 + strategy.confidence_level / 2.0)
        return mu + z * sigma, False
    return math.inf, False  # "none"


def compute_threshold(values: TensorLike, strategy: ThresholdStrategy) -> float:
    """Threshold over the absolute values of `values` per the strategy."""
    arr = _as_f64(values).reshape(-1)
    if arr.size == 0:
        raise EmptyInput("no values")
    tau, _ = _threshold_info(np.abs(arr), strategy)
    return tau


def partition_by_threshold(values: TensorLike, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Split into (inliers: |x| <= tau, outliers: |x| > tau).

    Returned as float64 arrays (either side may be empty); the two sides are
    disjoint and preserve the input multiset exactly.
    """
    if tau <= 0:
        raise InvalidArgument(f"threshold must be positive, got {tau}")
    arr = _as_f64(values).reshape(-1)
    mask = np.abs(arr) <= tau
    return arr[mask], arr[~mask]


@dataclass(frozen=True)
class QuantGroup:
    """One dynamic group: values with |x| <= upper use `params`."""

    upper: float
    params: QuantParams


@dataclass(frozen=True)
class GroupedQuantParams:
    bits: int
    groups: tuple[QuantGroup, ...]
    max_iters: int
    mad_fallbacks: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.groups:
            raise InvalidArgument("at least one group required")
        uppers = [g.upper for g in self.groups]
        if any(b <= a for a, b in zip(uppers, uppers[1:])):
            raise InvalidArgument(f"thresholds must strictly increase, got {uppers}")
        if not math.isinf(uppers[-1]):
            raise InvalidArgument("last group must cover residual outliers (upper == inf)")
        if len(self.groups) > self.max_iters + 1:
            raise InvalidArgument("group count exceeds max_iters + 1")

    @property
    def thresholds(self) -> np.ndarray:
        return np.array([g.upper for g in self.groups], dtype=np.float64)

    def fake(self, arr: TensorLike) -> np.ndarray:
        """Group-wise reconstruction of `arr`, shape preserved."""
        return fake_grouped(arr, self)

    def encode(self, arr: TensorLike) -> np.ndarray:
        """A (2, n) array: group indices over codes of the flattened `arr`."""
        return np.stack(encode_grouped(arr, self))


def calibrate_grouped(
    samples: Sequence[TensorLike] | TensorLike,
    bits: int,
    strategy: ThresholdStrategy | None = None,
    max_iters: int = 3,
    space: SearchSpace | None = None,
    scheme: str = "asymmetric",
) -> GroupedQuantParams:
    """Iterative inlier/outlier partition with per-group grid search.

    Each iteration thresholds the current set's magnitudes (a degenerate MAD
    falls back to mean_3sd for that iteration and is recorded), searches
    uniform parameters for the inliers, and continues on the outliers. The
    residual after the iteration cap becomes the final, unbounded group.
    """
    if max_iters < 1:
        raise InvalidArgument("max_iters must be >= 1")
    strategy = strategy or ThresholdStrategy()
    if isinstance(samples, (list, tuple)):
        current = np.concatenate([_as_f64(s).reshape(-1) for s in samples])
    else:
        current = _as_f64(samples).reshape(-1)
    if current.size == 0:
        raise EmptyInput("no calibration samples")

    groups: list[QuantGroup] = []
    fallbacks: list[int] = []
    for iteration in range(max_iters):
        magnitudes = np.abs(current)
        tau, degenerate = _threshold_info(magnitudes, strategy)
        if degenerate:
            fallbacks.append(iteration)
            mu = float(magnitudes.mean())
            sigma = float(np.sqrt(np.mean((magnitudes - mu) ** 2)))
            tau = mu + 3.0 * sigma
        mask = magnitudes <= tau
        inliers = current[mask]
        outliers = current[~mask]
        params = mse_grid_search(inliers, bits, scheme=scheme, signed=False, space=space)
        if outliers.size == 0:
            groups.append(QuantGroup(upper=math.inf, params=params))
            current = outliers
            break
        groups.append(QuantGroup(upper=float(tau), params=params))
        current = outliers
    if current.size:
        params = mse_grid_search(current, bits, scheme=scheme, signed=False, space=space)
        groups.append(QuantGroup(upper=math.inf, params=params))
    return GroupedQuantParams(
        bits=bits,
        groups=tuple(groups),
        max_iters=max_iters,
        mad_fallbacks=tuple(fallbacks),
    )


def group_index(x: float, p: GroupedQuantParams) -> int:
    """First group whose upper threshold covers |x| (last group catches all)."""
    return int(np.searchsorted(p.thresholds, abs(x), side="left"))


def grouped_quantize(x: float, p: GroupedQuantParams) -> tuple[int, int]:
    gi = group_index(x, p)
    code = int(quantize_array(np.asarray([x]), p.groups[gi].params)[0])
    return gi, code


def grouped_dequantize(group: int, code: int, p: GroupedQuantParams) -> float:
    if not 0 <= group < len(p.groups):
        raise InvalidArgument(f"group index {group} out of range")
    return float(dequantize_array(np.asarray([code]), p.groups[group].params)[0])


def encode_grouped(x: TensorLike, p: GroupedQuantParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (group indices, codes) for a tensor."""
    arr = _as_f64(x).reshape(-1)
    idx = np.searchsorted(p.thresholds, np.abs(arr), side="left")
    codes = np.empty(arr.shape, dtype=np.int32)
    for gi, group in enumerate(p.groups):
        mask = idx == gi
        if mask.any():
            codes[mask] = quantize_array(arr[mask], group.params)
    return idx.astype(np.int32), codes


def fake_grouped(x: TensorLike, p: GroupedQuantParams) -> np.ndarray:
    """Group-wise quantize-then-dequantize reconstruction, shape preserved."""
    arr = _as_f64(x)
    flat = arr.reshape(-1)
    idx = np.searchsorted(p.thresholds, np.abs(flat), side="left")
    out = np.empty_like(flat)
    for gi, group in enumerate(p.groups):
        mask = idx == gi
        if mask.any():
            out[mask] = fake_quant_array(flat[mask], group.params)
    return out.reshape(arr.shape)
