"""Dual-region quantization for post-softmax and post-GeLU activations.

A b-bit code spends 1 bit on the region index and b-1 bits on an unsigned
payload. Region R1 uses the fine scale and R2 the coarse one; the scales are
linked by an exact power of two (scale_r1 = 2^-m * scale_r2) so hardware can
align them with a shift instead of a multiply.

Softmax regions: R1 = [0, 2^(b-1) * scale_r1), R2 = [0, 2^(b-1) * scale_r2],
values below the R1 boundary go to R1 (the overlap resolves to the finer
scale). Softmax codes max(x, 0): a negative value, which softmax never
makes, is coded as 0. GeLU regions split at zero: negatives store
magnitudes in R1, non-negatives (including 0) go to R2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, ShapeError
from .search import SearchSpace, _bin_scores, _codes_into, _near_winners, _sorted_sums, first_min, sq_error
from .tensor import TensorLike, _as_f64
from .uniform import BITS, TINY, real, whole

KINDS = ("softmax", "gelu")


def softmax_r2_scale(bits: int) -> float:
    """Coarse-region scale for softmax data: 1 / (2^(b-1) - 1) spans [0, 1]
    exactly with the (b-1)-bit payload."""
    return 1.0 / (2 ** (bits - 1) - 1)


@dataclass(frozen=True)
class DualRegionParams:
    """Two-region quantizer parameters; scale_r1 is derived from shift_m so
    the power-of-two link holds bit-exactly."""

    kind: str
    bits: int
    scale_r2: float
    shift_m: int
    fallback_uniform: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidArgument(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "bits", whole("bits", self.bits, *BITS))
        object.__setattr__(self, "scale_r2", real("scale_r2", self.scale_r2))
        if not (math.isfinite(self.scale_r2) and self.scale_r2 > 0):
            raise InvalidArgument(f"scale_r2 must be finite and positive, got {self.scale_r2}")
        object.__setattr__(self, "shift_m", whole("shift_m", self.shift_m, 0, 1074))  # 2.0**-1075 == 0
        if not isinstance(self.fallback_uniform, (bool, np.bool_)):
            raise InvalidArgument(f"fallback_uniform must be a bool, got {self.fallback_uniform!r}")
        object.__setattr__(self, "fallback_uniform", bool(self.fallback_uniform))
        if self.scale_r1 < TINY:
            raise InvalidArgument(f"scale_r1 = scale_r2 * 2^-shift_m is subnormal: {self.scale_r1!r}")
        if self.kind == "softmax" and self.shift_m < 1:
            # shift 0 gives R2 the R1 scale: R2 codes reconstruct below the
            # boundary and re-encode in R1, so codes are not stable
            raise InvalidArgument("softmax shift_m must be >= 1")
        if self.kind == "softmax" and not 0.0 < self.boundary < 1.0:
            raise InvalidArgument(f"softmax region boundary {self.boundary} must lie in (0, 1)")

    @property
    def scale_r1(self) -> float:
        return self.scale_r2 * 2.0**-self.shift_m

    @property
    def value_max(self) -> int:
        return 2 ** (self.bits - 1) - 1

    @property
    def boundary(self) -> float:
        """Softmax R1/R2 split point: 2^(b-1) * scale_r1."""
        return 2 ** (self.bits - 1) * self.scale_r1

    @property
    def split(self) -> float:
        """The least value R2 holds: the boundary for softmax, 0 for GeLU."""
        return self.boundary if self.kind == "softmax" else 0.0

    def fake(self, arr: TensorLike) -> np.ndarray:
        """Encode-then-decode reconstruction of `arr`, shape preserved."""
        return fake_dual_region(arr, self)

    def encode(self, arr: TensorLike) -> tuple[np.ndarray, np.ndarray]:
        """(words, reconstruction) of `arr` from one coding pass, shape preserved: `encode_tensor`'s
        words, packed from the payloads (finite where a huge scale_r2 overflows), and `fake`'s values."""
        arr = _as_f64(arr)
        region, scale = _regions(arr, self), np.empty_like(arr)
        payload = _payloads_into(_numerator(arr, self.kind), region, self, scale, np.empty_like(arr))
        words = np.multiply(region, 2 ** (self.bits - 1), dtype=np.int32) + payload.astype(np.int32)
        return words, np.multiply(payload, scale, out=payload)


@dataclass(frozen=True)
class DualRegionCode:
    """1-bit region index plus an unsigned (b-1)-bit payload."""

    region: int
    value: int


def assign_region(x: float, p: DualRegionParams) -> int:
    """0 for R1, 1 for R2. Softmax sends x < boundary to R1; GeLU sends
    negatives to R1 and everything >= 0 (zero included) to R2."""
    if p.kind == "softmax":
        return 0 if x < p.boundary else 1
    return 0 if x < 0.0 else 1


def dual_region_quantize(x: float, p: DualRegionParams) -> DualRegionCode:
    region = assign_region(x, p)
    scale = p.scale_r1 if region == 0 else p.scale_r2
    magnitude = max(x, 0.0) if p.kind == "softmax" else abs(x)
    value = int(np.clip(np.rint(magnitude / scale), 0, p.value_max))
    return DualRegionCode(region=region, value=value)


def dual_region_dequantize(code: DualRegionCode, p: DualRegionParams) -> float:
    scale = p.scale_r1 if code.region == 0 else p.scale_r2
    magnitude = code.value * scale
    if p.kind == "gelu" and code.region == 0:
        return -magnitude
    return magnitude


def pack_code(code: DualRegionCode, bits: int) -> int:
    """Pack (region, value) into one b-bit word: region in the top bit."""
    half = 2 ** (bits - 1)
    if code.region not in (0, 1) or not 0 <= code.value < half:
        raise InvalidArgument(f"code {code} does not fit in {bits} bits")
    return code.region * half + code.value


def unpack_code(word: int, bits: int) -> DualRegionCode:
    if not 0 <= word < 2**bits:
        raise InvalidArgument(f"word {word} does not fit in {bits} bits")
    half = 2 ** (bits - 1)
    return DualRegionCode(region=word >> (bits - 1), value=word & (half - 1))


def _regions(arr: np.ndarray, p: DualRegionParams) -> np.ndarray:
    """Region index per element (0 = R1, 1 = R2), the vectorized assign_region."""
    return (arr >= p.split).astype(np.intp)


def encode_tensor(x: TensorLike, p: DualRegionParams) -> np.ndarray:
    """Vectorized pack of every element into b-bit words (int32)."""
    arr = _as_f64(x)
    region = _regions(arr, p)
    scale = np.where(region == 1, p.scale_r2, p.scale_r1)
    magnitude = np.maximum(arr, 0.0) if p.kind == "softmax" else np.abs(arr)
    value = np.clip(np.rint(magnitude / scale), 0, p.value_max).astype(np.int32)
    return (region * 2 ** (p.bits - 1) + value).astype(np.int32)


def decode_tensor(words: np.ndarray, p: DualRegionParams) -> np.ndarray:
    words = np.asarray(words, dtype=np.int64)
    if words.min(initial=0) < 0 or words.max(initial=0) >= 2**p.bits:
        raise InvalidArgument(f"words do not fit in {p.bits} bits")
    half = 2 ** (p.bits - 1)
    region = words >> (p.bits - 1)
    value = (words & (half - 1)).astype(np.float64)
    scale = np.where(region == 1, p.scale_r2, p.scale_r1)
    magnitude = value * scale
    if p.kind == "gelu":
        return np.where(region == 0, -magnitude, magnitude)
    return magnitude


def _numerator(arr: np.ndarray, kind: str) -> np.ndarray:
    """What `_reconstruct_into` divides by the region scale.

    Softmax codes store max(x, 0). GeLU's R1 scale carries the sign
    instead, so x itself is divided. Adding 0.0 first turns -0.0 into +0.0,
    whichever zero np.maximum returns, so it codes and rebuilds as +0.0.
    """
    num = arr + 0.0
    return np.maximum(num, 0.0, out=num) if kind == "softmax" else num


def _payloads_into(num, region, p: DualRegionParams, scale: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The float payload of every element into `out` and its signed region scale into `scale`,
    buffers of x's shape (`num` is `_numerator(x)`, `region` is `_regions(x)`). GeLU's R1 scale
    is -scale_r1: dividing a negative element by it gives the stored magnitude and multiplying
    the payload by it restores the sign."""
    r1 = -p.scale_r1 if p.kind == "gelu" else p.scale_r1
    # region holds only 0 and 1; mode="clip" spares take() its buffered bounds check
    np.take(np.array([r1, p.scale_r2]), region, out=scale, mode="clip")
    return _codes_into(num, scale, 0, p.value_max, out)


def _reconstruct_into(num, region, p: DualRegionParams, scale: np.ndarray, out: np.ndarray) -> np.ndarray:
    """decode_tensor(encode_tensor(x)) in float64 into `out`: no int words are built."""
    return np.multiply(_payloads_into(num, region, p, scale, out), scale, out=out)


def fake_dual_region(x: TensorLike, p: DualRegionParams) -> np.ndarray:
    """Encode-then-decode reconstruction, shape preserved."""
    arr = _as_f64(x)
    scale = np.empty_like(arr)
    return _reconstruct_into(_numerator(arr, p.kind), _regions(arr, p), p, scale, np.empty_like(arr))


def calibrate_dual_region(
    samples: TensorLike,
    kind: str,
    bits: int,
    grad: TensorLike | None = None,
    space: SearchSpace = SearchSpace(),
) -> DualRegionParams:
    """Search the region scales against a calibration set.

    Candidates are scored by `sq_error`, weighted by `grad` (one gradient
    per sample, of the samples' shape) when given.

    Softmax: the coarse scale is fixed to span the full [0, 1] range and the
    shift exponent m is searched over {1..bits} (smallest m wins ties), with
    no `space`; if no shift scores below inf (every error overflows), it fails.
    GeLU: the fine scale starts just covering the observed negative range,
    the coarse scale is searched over a linear grid built from the positive
    maximum, and the shift is snapped to the nearest power of two that keeps
    the negative range covered. Calibration sets without negatives leave R1
    empty: every candidate gets shift 0, the search is a uniform one over the
    (b-1)-bit payload, and the result is flagged via fallback_uniform.
    """
    if kind not in KINDS:
        raise InvalidArgument(f"kind must be one of {KINDS}, got {kind!r}")
    bits = whole("bits", bits, *BITS)
    arr = _as_f64(samples)
    if kind == "softmax" and (arr.min() < -1e-6 or arr.max() > 1.0 + 1e-6):
        raise InvalidArgument("softmax samples must lie in [0, 1]")
    g = None if grad is None else _as_f64(grad)
    if g is not None and g.shape != arr.shape:
        raise ShapeError(f"grad shape {g.shape} does not match samples {arr.shape}")
    if kind == "softmax":
        scale_r2 = softmax_r2_scale(bits)
        candidates = [
            DualRegionParams(kind, bits, scale_r2, m)
            for m in range(1, bits + 1)
            if 2 ** (bits - 1) * scale_r2 * 2.0**-m < 1.0  # R1 boundary inside (0, 1)
        ]
        k = first_min(_direct_scores(arr, g, kind, bits, candidates))
        if k < 0:
            raise InvalidArgument(f"no shift exponent scored below inf for bits={bits}: every error overflowed")
        return candidates[k]

    vmax = 2 ** (bits - 1) - 1
    neg_absmax, pos_max = float(max(0.0, -arr.min())), float(max(arr.max(), 0.0))  # -0.0 is no negative
    uniform = neg_absmax == 0.0  # R1 stays empty
    scale_r1_init = neg_absmax / vmax
    cover_min = neg_absmax / 2 ** (bits - 1)
    # kept when no candidate wins: R1 covers the negatives, else the full range (1.0 if all zero)
    initial = DualRegionParams(kind, bits, (pos_max / vmax or 1.0) if uniform else scale_r1_init, 0, uniform)

    def snapped(scale_r2: float) -> DualRegionParams:
        """`scale_r2` with the nearest shift that keeps R1 covering the negatives."""
        m = 0 if uniform else max(0, int(round(math.log2(scale_r2 / scale_r1_init))))
        while m > 0 and scale_r2 * 2.0**-m * 2 ** (bits - 1) < neg_absmax:
            m -= 1
        return DualRegionParams(kind, bits, scale_r2, m, uniform)

    # candidates bracket the full-range scale of the (b-1)-bit payload; below
    # cover_min no shift keeps R1 covering the negative range
    scales = space.scale_candidates(pos_max / vmax).tolist()
    candidates = [snapped(s) for s in scales if 0.0 < s < math.inf and s >= cover_min]
    k = first_min(_direct_scores(arr, g, kind, bits, candidates))
    return candidates[k] if k >= 0 else initial


def _direct_scores(arr: np.ndarray, g, kind: str, bits: int, candidates: list) -> np.ndarray:
    """`sq_error` of every candidate `search._near_winners` keeps (2^(b-1)
    levels in each of two regions), inf for the rest. The sorted copies
    are freed before the reconstruction buffers are allocated."""
    binned = lambda: _region_scores(arr, g, candidates)  # noqa: E731
    keep = _near_winners(binned, arr.size, len(candidates), bits, g is not None)
    num, scale, recon = _numerator(arr, kind), np.empty_like(arr), np.empty_like(arr)
    scores, split = np.full(len(candidates), np.inf), None
    for j in np.flatnonzero(keep):
        p = candidates[j]
        if p.split != split:  # the GeLU split does not move with the scales
            split, region = p.split, _regions(arr, p)
        scores[j] = sq_error(arr, _reconstruct_into(num, region, p, scale, recon), g)
    return scores


def _region_scores(arr: np.ndarray, g, candidates: list) -> tuple[np.ndarray, np.ndarray]:
    """`search._bin_scores` of one kind's candidates, R1 plus R2: both are
    runs of the sorted samples, cut at each candidate's `split`. GeLU's R1
    is at the levels -vmax..0, softmax's at 0..vmax."""
    sums = _sorted_sums(arr, g)
    xs, vmax = sums[0], candidates[0].value_max
    r1, r2 = np.array([[p.scale_r1, p.scale_r2] for p in candidates]).T
    cut = np.searchsorted(xs, [p.split for p in candidates])
    lo = -vmax if candidates[0].kind == "gelu" else 0
    low = _bin_scores(sums, 0, cut, r1, lo, lo + vmax)
    high = _bin_scores(sums, cut, arr.size, r2, 0, vmax)
    return low[0] + high[0], low[1] + high[1]
