"""Dual-region quantization for post-softmax and post-GeLU activations.

A b-bit code spends 1 bit on the region index and b-1 bits on an unsigned
payload. Region R1 uses the fine scale and R2 the coarse one; the scales are
linked by an exact power of two (scale_r1 = 2^-m * scale_r2) so hardware can
align them with a shift instead of a multiply.

Softmax regions: R1 = [0, 2^(b-1) * scale_r1), R2 = [0, 2^(b-1) * scale_r2],
values below the R1 boundary go to R1 (the overlap resolves to the finer
scale). GeLU regions split at zero: negatives store magnitudes in R1,
non-negatives (including 0) go to R2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, ShapeError
from .search import SearchSpace, _fake_into, first_min, mse_grid_search, sq_error
from .tensor import TensorLike, _as_f64
from .uniform import TINY, real, whole

KINDS = ("softmax", "gelu")


def softmax_r2_scale(bits: int, full_range: bool = True) -> float:
    """Coarse-region scale for softmax data.

    full_range (default) spans [0, 1] exactly with the (b-1)-bit payload:
    1 / (2^(b-1) - 1). The narrow compatibility mode uses 1 / (2^b - 1),
    which caps R2 reconstructions near 0.5.
    """
    if full_range:
        return 1.0 / (2 ** (bits - 1) - 1)
    return 1.0 / (2**bits - 1)


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
            raise InvalidArgument(f"kind must be one of {KINDS}")
        object.__setattr__(self, "bits", whole("bits", self.bits, 2, 16))
        object.__setattr__(self, "scale_r2", real("scale_r2", self.scale_r2))
        if not (math.isfinite(self.scale_r2) and self.scale_r2 > 0):
            raise InvalidArgument(f"scale_r2 must be finite and positive, got {self.scale_r2}")
        object.__setattr__(self, "shift_m", whole("shift_m", self.shift_m, 0, 1074))  # 2.0**-1075 == 0
        if self.scale_r1 < TINY:
            raise InvalidArgument(f"scale_r1 = scale_r2 * 2^-shift_m is subnormal: {self.scale_r1!r}")
        if self.kind == "softmax" and self.shift_m < 1:
            # shift 0 gives R2 the R1 scale: R2 codes reconstruct below the
            # boundary and re-encode in R1, so codes are not stable
            raise InvalidArgument("softmax shift_m must be >= 1")
        if self.kind == "softmax" and not 0.0 < self.boundary < 1.0:
            raise InvalidArgument(
                f"softmax region boundary {self.boundary} must lie in (0, 1)"
            )

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

    def fake(self, arr: TensorLike) -> np.ndarray:
        """Encode-then-decode reconstruction of `arr`, shape preserved."""
        return fake_dual_region(arr, self)

    def encode(self, arr: TensorLike) -> np.ndarray:
        """Packed b-bit words of `arr`, shape preserved."""
        return encode_tensor(arr, self)


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
    value = int(np.clip(np.rint(abs(x) / scale), 0, p.value_max))
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
    split = p.boundary if p.kind == "softmax" else 0.0
    return (arr >= split).astype(np.intp)


def encode_tensor(x: TensorLike, p: DualRegionParams) -> np.ndarray:
    """Vectorized pack of every element into b-bit words (int32)."""
    arr = _as_f64(x)
    region = _regions(arr, p)
    scale = np.where(region == 1, p.scale_r2, p.scale_r1)
    value = np.clip(np.rint(np.abs(arr) / scale), 0, p.value_max).astype(np.int32)
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

    Softmax codes store |x|. GeLU's R1 scale carries the sign instead, so
    x itself is divided; adding 0.0 turns -0.0 (an R2 element) into +0.0,
    as the codec's abs() does.
    """
    return np.abs(arr) if kind == "softmax" else arr + 0.0


def _reconstruct_into(
    num: np.ndarray, region: np.ndarray, p: DualRegionParams, scale: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """decode_tensor(encode_tensor(x)) computed in float64 into `out`.

    `num` is `_numerator(x)`, `region` is `_regions(x)` and `scale` is a
    work buffer of x's shape. GeLU's R1 scale is -scale_r1: dividing a negative
    element by it gives the stored magnitude and multiplying the code by it
    restores the sign, so no int words are built.
    """
    r1 = -p.scale_r1 if p.kind == "gelu" else p.scale_r1
    # region holds only 0 and 1; mode="clip" spares take() its buffered bounds check
    np.take(np.array([r1, p.scale_r2]), region, out=scale, mode="clip")
    return _fake_into(num, scale, 0, p.value_max, out)


def fake_dual_region(x: TensorLike, p: DualRegionParams) -> np.ndarray:
    """Encode-then-decode reconstruction, shape preserved."""
    arr = _as_f64(x)
    scale = np.empty_like(arr)
    return _reconstruct_into(
        _numerator(arr, p.kind), _regions(arr, p), p, scale, np.empty_like(arr)
    )


def calibrate_dual_region(
    samples: TensorLike,
    kind: str,
    bits: int,
    grad: TensorLike | None = None,
    space: SearchSpace = SearchSpace(),
    full_range: bool = True,
) -> DualRegionParams:
    """Search the region scales against a calibration set.

    Candidates are scored by `sq_error`, weighted by `grad` (one gradient
    per sample, of the samples' shape) when given.

    Softmax: the coarse scale is fixed to span the full [0, 1] range and the
    shift exponent m is searched over {1..bits} (smallest m wins ties).
    GeLU: the fine scale starts just covering the observed negative range,
    the coarse scale is searched over a linear grid built from the positive
    maximum, and the shift is snapped to the nearest power of two that keeps
    the negative range covered. Calibration sets without negatives fall back
    to a single-region uniform quantizer, flagged via fallback_uniform.
    """
    if kind not in KINDS:
        raise InvalidArgument(f"kind must be one of {KINDS}")
    if not 2 <= bits <= 16:
        raise InvalidArgument(f"bits must be in [2, 16], got {bits}")
    arr = _as_f64(samples)
    if kind == "softmax" and (arr.min() < -1e-6 or arr.max() > 1.0 + 1e-6):
        raise InvalidArgument("softmax samples must lie in [0, 1]")
    g = None if grad is None else _as_f64(grad)
    if g is not None and g.shape != arr.shape:
        raise ShapeError(f"grad shape {g.shape} does not match samples {arr.shape}")
    num = _numerator(arr, kind)
    scale = np.empty_like(arr)
    recon = np.empty_like(arr)

    def candidate_score(params: DualRegionParams, region: np.ndarray) -> float:
        return sq_error(arr, _reconstruct_into(num, region, params, scale, recon), g)

    if kind == "softmax":
        scale_r2 = softmax_r2_scale(bits, full_range)
        candidates = (
            DualRegionParams(kind, bits, scale_r2, m)
            for m in range(1, bits + 1)
            if 2 ** (bits - 1) * scale_r2 * 2.0**-m < 1.0  # R1 boundary inside (0, 1)
        )
        best, _ = first_min(candidates, lambda p: candidate_score(p, _regions(arr, p)))
        if best is None:
            raise InvalidArgument(f"no admissible shift exponent for bits={bits}")
        return best

    negatives = arr[arr < 0.0]
    vmax = 2 ** (bits - 1) - 1
    if negatives.size == 0:
        uniform = mse_grid_search(arr, bits - 1, scheme="symmetric", signed=False, space=space)
        return DualRegionParams(kind, bits, uniform.scale, 0, fallback_uniform=True)
    neg_absmax = float(np.max(np.abs(negatives)))
    scale_r1_init = neg_absmax / vmax
    cover_min = neg_absmax / 2 ** (bits - 1)
    pos_max = float(max(arr.max(), 0.0))
    if pos_max == 0.0:
        return DualRegionParams(kind, bits, scale_r1_init, 0)
    region = (arr >= 0.0).astype(np.intp)  # the GeLU split does not move with the scales

    def snapped(scale_r2: float) -> DualRegionParams:
        """`scale_r2` with the nearest shift that keeps R1 covering the negatives."""
        m = max(0, int(round(math.log2(scale_r2 / scale_r1_init))))
        while m > 0 and scale_r2 * 2.0**-m * 2 ** (bits - 1) < neg_absmax:
            m -= 1
        return DualRegionParams(kind, bits, scale_r2, m)

    # candidates bracket the full-range scale of the (b-1)-bit payload; below
    # cover_min no shift keeps R1 covering the negative range
    scales = space.scale_candidates(pos_max / vmax).tolist()
    best, _ = first_min(
        (snapped(s) for s in scales if s >= cover_min), lambda p: candidate_score(p, region)
    )
    if best is None:
        return DualRegionParams(kind, bits, scale_r1_init, 0)
    return best
