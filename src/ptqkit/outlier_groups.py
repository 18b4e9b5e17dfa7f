"""Iterative outlier-grouped quantization.

Calibration repeatedly splits the working set at a magnitude threshold,
grid-searches uniform parameters for the inliers, and recurses on the
outliers until none remain or the iteration cap is hit. The result is an
ordered list of (upper-threshold, params) groups; at quantization time a
value lands in the first group whose threshold covers its magnitude, so
large outliers keep their own precise scale instead of being clipped.
The groups are the pieces of `search._pieces_into`, the piecewise-uniform
codec the dual-region quantizer runs too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InvalidArgument
from .search import SearchSpace, _pieces_into, mse_grid_search
from .tensor import TensorLike, _as_float
from .uniform import BITS, QuantParams, real, whole

STRATEGY_KINDS = ("mean_3sd", "mean_division", "median_mad", "confidence", "none")

DEFAULT_MAX_ITERS = 3  # calibrate_grouped's cap on threshold splits


@dataclass(frozen=True)
class ThresholdStrategy:
    """How to place the inlier/outlier threshold on absolute values.

    mean_3sd: mu + 3*sigma. mean_division: mean_multiplier * mu. median_mad: median +
    mad_multiplier * MAD, or mean_3sd's threshold where the MAD is 0. confidence: two-sided
    Gaussian interval bound at confidence_level. none: a single all-covering group.
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

    def threshold(self, magnitudes: np.ndarray) -> tuple[float, bool]:
        """(tau, fell_back), fell_back where median_mad's MAD is 0 and mean_3sd's tau stands in. Each rule
        computes only what it reads; a statistic past the float64 maximum is inf, and the set is not split."""
        if self.kind == "none":
            return math.inf, False
        with np.errstate(over="ignore"):  # also in np.median, which averages the two middle values
            if self.kind == "median_mad":
                med = float(np.median(magnitudes))
                mad = float(np.median(np.abs(magnitudes - med)))
                if mad == 0.0:
                    return ThresholdStrategy().threshold(magnitudes)[0], True
                return med + self.mad_multiplier * mad, False
            mu = float(np.mean(magnitudes))
            if self.kind == "mean_division":
                return self.mean_multiplier * mu, False
            sigma = float(np.sqrt(np.mean((magnitudes - mu) ** 2)))
        z = NormalDist().inv_cdf(0.5 + self.confidence_level / 2.0) if self.kind == "confidence" else 3.0
        return mu + z * sigma, False


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
        """(codes, reconstruction) of `arr` from one coding pass: a (2, n) int32 array of
        group indices over codes of the flattened `arr`, and `fake`'s values."""
        arr = _as_float(arr)
        codes = np.empty((2, arr.size), np.int32)
        return codes, _pieces_into(arr.reshape(-1), *self._pieces(), np.empty(arr.size), codes).reshape(arr.shape)

    def _pieces(self):
        """`search._pieces_into`'s rule and table: an element's group is the number of finite
        thresholds below its |x| (the scalar `group_index` of tests/oracles.py, vectorized),
        coded at the group's parameters."""
        uppers = self.thresholds[:-1]

        def group(x: np.ndarray) -> np.ndarray:
            magnitudes, idx = np.abs(x), np.zeros(x.size, np.intp)
            for upper in uppers:
                idx += magnitudes > upper
            return idx

        return group, [(g.params.scale, g.params.zero_point, g.params.q_min, g.params.q_max) for g in self.groups]


def calibrate_grouped(
    samples: TensorLike,
    bits: int,
    strategy: ThresholdStrategy | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
    space: SearchSpace = SearchSpace(),
) -> GroupedQuantParams:
    """Iterative inlier/outlier partition with per-group grid search.

    Each iteration thresholds the current set's magnitudes by
    `strategy.threshold`, recording the iterations that fell back, searches
    asymmetric uniform parameters for the inliers, and continues on the
    outliers. The residual after the iteration cap, or after a threshold
    that leaves no inliers, becomes the final, unbounded group. `max_iters`
    must be a whole number from 1 (see `uniform.whole`: 2.0 is 2).
    """
    max_iters = whole("max_iters", max_iters, 1, math.inf)
    strategy = strategy or ThresholdStrategy()
    current = _as_float(samples).reshape(-1)

    groups: list[QuantGroup] = []
    fallbacks: list[int] = []
    for iteration in range(max_iters):
        magnitudes = np.abs(current, dtype=np.float64)  # widened: the threshold's statistics sum in float64
        tau, fell_back = strategy.threshold(magnitudes)
        if fell_back:
            fallbacks.append(iteration)
        mask = magnitudes <= tau
        del magnitudes  # the group search reads only the two sides of the split
        if mask.all() or not mask.any():
            break  # a split with an empty side: the rest is the final group
        inliers, current = current[mask], current[~mask]
        del mask
        params = mse_grid_search(inliers, bits, "asymmetric", signed=False, space=space)
        groups.append(QuantGroup(upper=float(tau), params=params))
    params = mse_grid_search(current, bits, "asymmetric", signed=False, space=space)
    groups.append(QuantGroup(upper=math.inf, params=params))
    return GroupedQuantParams(
        bits=bits,
        groups=tuple(groups),
        max_iters=max_iters,
        mad_fallbacks=tuple(fallbacks),
    )


def encode_grouped(x: TensorLike, p: GroupedQuantParams) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (group indices, codes) for a tensor."""
    return tuple(p.encode(x)[0])


def fake_grouped(x: TensorLike, p: GroupedQuantParams) -> np.ndarray:
    """Group-wise quantize-then-dequantize reconstruction, shape preserved."""
    arr = _as_float(x)
    return _pieces_into(arr.reshape(-1), *p._pieces(), np.empty(arr.size)).reshape(arr.shape)
