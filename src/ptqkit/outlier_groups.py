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

import numpy as np

from .errors import InvalidArgument
from .search import SearchSpace, mse_grid_search
from .tensor import TensorLike, _as_f64
from .uniform import BITS, QuantParams, _code, dequantize_array, quantize_array, real, whole

STRATEGY_KINDS = ("mean_3sd", "mean_division", "median_mad", "confidence", "none")

DEFAULT_MAX_ITERS = 3  # calibrate_grouped's cap on threshold splits


@dataclass(frozen=True)
class ThresholdStrategy:
    """How to place the inlier/outlier threshold on absolute values.

    mean_3sd: mu + 3*sigma. mean_division: mean_multiplier * mu.
    median_mad: median + mad_multiplier * MAD. confidence: two-sided Gaussian
    interval bound at confidence_level. none: a single all-covering group.
    The three multipliers must be numbers (see `uniform.real`: no bool or string).
    """

    kind: str = "mean_3sd"
    mad_multiplier: float = 3.0
    mean_multiplier: float = 1.0
    confidence_level: float = 0.99

    def __post_init__(self) -> None:
        for name in ("mad_multiplier", "mean_multiplier", "confidence_level"):
            object.__setattr__(self, name, real(name, getattr(self, name)))
        if self.kind not in STRATEGY_KINDS:
            raise InvalidArgument(f"strategy must be one of {STRATEGY_KINDS}, got {self.kind!r}")
        if not 0.0 < self.confidence_level < 1.0:
            raise InvalidArgument(f"confidence_level must be in (0, 1), got {self.confidence_level}")
        if not (math.isfinite(self.mean_multiplier) and self.mean_multiplier > 0.0):
            raise InvalidArgument(f"need a finite mean_multiplier > 0, got {self.mean_multiplier}")
        if not (math.isfinite(self.mad_multiplier) and self.mad_multiplier >= 0.0):
            raise InvalidArgument(f"need a finite mad_multiplier >= 0, got {self.mad_multiplier}")


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


@dataclass(frozen=True)
class QuantGroup:
    """One dynamic group: values with |x| <= upper use `params`."""

    upper: float
    params: QuantParams


@dataclass(frozen=True)
class GroupedQuantParams:
    """Groups in increasing threshold order, each per-tensor uniform at `bits`."""

    bits: int
    groups: tuple[QuantGroup, ...]
    max_iters: int
    mad_fallbacks: tuple[int, ...] = ()  # increasing iterations whose MAD was 0, in [0, max_iters)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", whole("bits", self.bits, *BITS))
        object.__setattr__(self, "max_iters", whole("max_iters", self.max_iters, 0, math.inf))
        fallbacks = tuple(whole("mad_fallbacks", i, 0, self.max_iters - 1) for i in self.mad_fallbacks)
        if any(b <= a for a, b in zip(fallbacks, fallbacks[1:])):
            raise InvalidArgument(f"mad_fallbacks must strictly increase, got {list(fallbacks)}")
        object.__setattr__(self, "mad_fallbacks", fallbacks)
        if not self.groups:
            raise InvalidArgument("at least one group required")
        if not all(
            isinstance(g.params, QuantParams) and not g.params.per_channel and g.params.bits == self.bits
            for g in self.groups
        ):
            raise InvalidArgument(f"every group needs per-tensor uniform params of {self.bits} bits")
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

    def encode(self, arr: TensorLike) -> tuple[np.ndarray, np.ndarray]:
        """(codes, reconstruction) of `arr` from one coding pass: a (2, n) array of
        group indices over codes of the flattened `arr`, and `fake`'s values."""
        return _by_group(_as_f64(arr), self)


def calibrate_grouped(
    samples: TensorLike,
    bits: int,
    strategy: ThresholdStrategy | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
    space: SearchSpace = SearchSpace(),
) -> GroupedQuantParams:
    """Iterative inlier/outlier partition with per-group grid search.

    Each iteration thresholds the current set's magnitudes (a degenerate MAD
    falls back to mean_3sd for that iteration and is recorded), searches
    asymmetric uniform parameters for the inliers, and continues on the
    outliers. The residual after the iteration cap, or after a threshold
    that leaves no inliers, becomes the final, unbounded group. `max_iters`
    must be a whole number from 1 (see `uniform.whole`: 2.0 is 2).
    """
    max_iters = whole("max_iters", max_iters, 1, math.inf)
    strategy = strategy or ThresholdStrategy()
    current = _as_f64(samples).reshape(-1)

    groups: list[QuantGroup] = []
    fallbacks: list[int] = []
    for iteration in range(max_iters):
        magnitudes = np.abs(current)
        tau, degenerate = _threshold_info(magnitudes, strategy)
        if degenerate:
            fallbacks.append(iteration)
            tau, _ = _threshold_info(magnitudes, ThresholdStrategy())  # mean_3sd
        mask = magnitudes <= tau
        if mask.all() or not mask.any():
            break  # a split with an empty side: the rest is the final group
        params = mse_grid_search(current[mask], bits, "asymmetric", signed=False, space=space)
        groups.append(QuantGroup(upper=float(tau), params=params))
        current = current[~mask]
    params = mse_grid_search(current, bits, "asymmetric", signed=False, space=space)
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


def _by_group(arr: np.ndarray, p: GroupedQuantParams) -> tuple[np.ndarray, np.ndarray]:
    """The int32 group indices (the vectorized group_index) over the codes of the flattened `arr`, and
    the reconstruction (code - z) * s in `arr`'s shape, each element coded at its group's parameters."""
    flat = arr.reshape(-1)
    idx = np.searchsorted(p.thresholds, np.abs(flat), side="left").astype(np.int32)
    tables = np.array([(g.params.scale, g.params.zero_point, g.params.q_min, g.params.q_max) for g in p.groups]).T
    # a parameter all groups share stays a scalar; mode="clip" skips a bounds check the inf threshold makes moot
    scale, zp, q_min, q_max = (np.take(t, idx, mode="clip") if len(set(t)) > 1 else t[0] for t in tables)
    codes = _code(flat, scale, zp, q_min, q_max)
    return np.stack((idx, codes)), ((codes - zp) * scale).reshape(arr.shape)


def encode_grouped(x: TensorLike, p: GroupedQuantParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (group indices, codes) for a tensor."""
    return tuple(_by_group(_as_f64(x), p)[0])


def fake_grouped(x: TensorLike, p: GroupedQuantParams) -> np.ndarray:
    """Group-wise quantize-then-dequantize reconstruction, shape preserved."""
    return _by_group(_as_f64(x), p)[1]
