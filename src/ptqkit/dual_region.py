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

`fake`, `encode` and the search's rescoring run the piecewise-uniform codec
`search._pieces_into`, the one the outlier groups run: the two regions are
its pieces, each with its own scale, zero point 0 and codes 0..2^(b-1)-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, ShapeError
from .search import SearchSpace, _bin_scores, _near_winners, _pieces_into, _sorted, first_min, sq_error
from .tensor import TensorLike, _as_f64, _as_float
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
        words, packed from the codes (finite where a huge scale_r2 overflows), and `fake`'s values."""
        arr = _as_float(arr)
        codes = np.empty((2, arr.size), np.int32)
        recon = _pieces_into(arr.reshape(-1), *self._pieces(), np.empty(arr.size), codes)
        words = codes[0] * 2 ** (self.bits - 1) + codes[1]
        return words.reshape(arr.shape), recon.reshape(arr.shape)

    def _pieces(self):
        """`search._pieces_into`'s rule and table: region R2 holds x >= split, and each region codes
        0..value_max with zero point 0. GeLU's R1 scale is -scale_r1: dividing a negative element
        by it gives the stored magnitude, and multiplying the code by it restores the sign. The
        bound 0 codes a negative softmax value, which softmax never makes, as 0."""
        split, r1 = self.split, -self.scale_r1 if self.kind == "gelu" else self.scale_r1
        return (lambda x: x >= split), ((r1, 0, 0, self.value_max), (self.scale_r2, 0, 0, self.value_max))


@dataclass(frozen=True)
class DualRegionCode:
    """1-bit region index plus an unsigned (b-1)-bit payload."""

    region: int
    value: int


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


def encode_tensor(x: TensorLike, p: DualRegionParams) -> np.ndarray:
    """Vectorized pack of every element into b-bit words (int32)."""
    arr = _as_f64(x)
    region = (arr >= p.split).astype(np.intp)
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


def fake_dual_region(x: TensorLike, p: DualRegionParams) -> np.ndarray:
    """Encode-then-decode reconstruction, shape preserved."""
    arr = _as_float(x)
    return _pieces_into(arr.reshape(-1), *p._pieces(), np.empty(arr.size)).reshape(arr.shape)


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
    arr = _as_float(samples)  # float32 stays float32: its min and max are compared as Python floats
    if kind == "softmax" and (float(arr.min()) < -1e-6 or float(arr.max()) > 1.0 + 1e-6):
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
        k = first_min(_direct_scores(arr, g, bits, candidates))
        if k < 0:
            raise InvalidArgument(f"no shift exponent scored below inf for bits={bits}: every error overflowed")
        return candidates[k]

    vmax = 2 ** (bits - 1) - 1
    neg_absmax, pos_max = max(0.0, -float(arr.min())), max(float(arr.max()), 0.0)  # -0.0 is no negative
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
    k = first_min(_direct_scores(arr, g, bits, candidates))
    return candidates[k] if k >= 0 else initial


def _direct_scores(arr: np.ndarray, g, bits: int, candidates: list) -> np.ndarray:
    """`search._near_winners`' scores of the candidates (2^(b-1) levels in each of two regions), with
    the `sq_error` of each one left to score: `_pieces_into` reconstructs it into one buffer, allocated
    after the sort is freed."""
    binned = lambda: _region_scores(arr, g, candidates)  # noqa: E731
    scores, todo = _near_winners(binned, arr.size, len(candidates), bits, g is not None, passes=2)
    flat, grad = arr.reshape(-1), None if g is None else g.reshape(-1)
    buf = np.empty(arr.size) if todo.size else None
    for j in todo:
        scores[j] = sq_error(flat, _pieces_into(flat, *candidates[j]._pieces(), buf), grad)
    return scores


def _region_scores(arr: np.ndarray, g, candidates: list) -> tuple[np.ndarray, np.ndarray]:
    """`search._bin_scores` of one kind's candidates, R1 plus R2: both are
    runs of the sorted samples, cut at each candidate's `split`. GeLU's R1
    is at the levels -vmax..0, softmax's at 0..vmax."""
    srt = _sorted(arr, g)
    xs, vmax = srt[0], candidates[0].value_max
    r1, r2 = np.array([[p.scale_r1, p.scale_r2] for p in candidates]).T
    cut = np.searchsorted(xs, [p.split for p in candidates])
    lo = -vmax if candidates[0].kind == "gelu" else 0
    low = _bin_scores(srt, 0, cut, r1, lo, lo + vmax)
    high = _bin_scores(srt, cut, arr.size, r2, 0, vmax)
    return low[0] + high[0], low[1] + high[1]
