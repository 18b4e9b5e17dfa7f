"""Uniform affine/symmetric quantizer, fake quantization and BN folding.

The integer mapping is ``code = clamp(round(x / s) + z, q_min, q_max)`` with
half-to-even rounding and ``x_hat = (code - z) * s``. A degenerate all-zero
range yields the sentinel scale 1.0 so constant-zero tensors quantize
cleanly instead of erroring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, ShapeError
from .tensor import Tensor, TensorLike, _as_f64, as_tensor

SCHEMES = ("symmetric", "asymmetric")
BITS = (2, 16)  # the bit widths every quantizer accepts
TINY = np.finfo(np.float64).tiny  # the smallest normal float64, full_range's least scale
HUGE = np.finfo(np.float64).max  # the float64 maximum
CHUNK_ELEMS = 2**15  # float64 elements of one block: candidates scored at once, or values coded or summed


def whole(name: str, value, lo: float, hi: float) -> int:
    """`value` as an int in [lo, hi]. Whole floats such as 8.0 pass; a bool,
    a string or a fractional value is an error, never truncated."""
    if (
        isinstance(value, (bool, np.bool_))
        or not isinstance(value, (int, float, np.integer, np.floating))
        or not lo <= value <= hi
        or (isinstance(value, (float, np.floating)) and not float(value).is_integer())
    ):
        raise InvalidArgument(f"{name} must be a whole number in [{lo}, {hi}], got {value!r}")
    return int(value)


def real(name: str, value) -> float:
    """`value` as a float. A bool, a string (even "0.5") or an int past float64 is an error."""
    try:
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise TypeError
        return float(value)
    except (TypeError, OverflowError):
        raise InvalidArgument(f"{name} must be a number, got {value!r}") from None


def quant_range(bits: int, signed: bool) -> tuple[int, int]:
    if signed:
        return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    return 0, 2**bits - 1


CODE_DTYPES = tuple(map(np.dtype, ("u1", "i1", "<u2", "<i2", "<i4")))  # narrowest first, unsigned before signed


def code_dtype(lo: int, hi: int) -> np.dtype:
    """The narrowest of CODE_DTYPES that holds every code in [lo, hi]: the dtype in which a quantizer
    of that `code_range` gives its codes, and in which a code dump stores them. Codes have at most
    16 bits and group indices are fewer than 2^31, so int32 holds every range."""
    return next(d for d in CODE_DTYPES if np.iinfo(d).min <= lo and hi <= np.iinfo(d).max)


@dataclass(frozen=True)
class QuantParams:
    """Scale/zero-point pair for one uniform quantizer.

    Per-tensor parameters are scalars; per-channel parameters are 1-D arrays
    along `axis`, which counts from the end when negative, as numpy's axes do:
    axis -3 is the channel axis of one (C, H, W) input and of any stack of them.
    Symmetric quantizers carry zero_point == 0. `bits`, `axis` and every zero
    point must be whole numbers (see `whole`), every scale a number (see `real`).
    """

    scale: float | np.ndarray
    zero_point: int | np.ndarray
    bits: int
    signed: bool
    axis: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", whole("bits", self.bits, *BITS))
        if self.axis is not None:
            object.__setattr__(self, "axis", whole("axis", self.axis, -math.inf, math.inf))
        if not isinstance(self.signed, (bool, np.bool_)):
            raise InvalidArgument(f"signed must be a bool, got {self.signed!r}")
        object.__setattr__(self, "signed", bool(self.signed))
        q_min, q_max = quant_range(self.bits, self.signed)
        if self.per_channel:
            scale = np.array([real("scale", s) for s in np.asarray(self.scale, dtype=object).reshape(-1)])
            zps = np.asarray(self.zero_point, dtype=object).reshape(-1)  # elements as given
            zp = np.array([whole("zero_point", z, q_min, q_max) for z in zps], dtype=np.int64)
            if scale.size != zp.size:
                raise ShapeError("per-channel scale and zero_point lengths differ")
            if not np.all(np.isfinite(scale) & (scale > 0)):
                raise InvalidArgument("all per-channel scales must be finite and positive")
            scale.flags.writeable = False
            zp.flags.writeable = False
            object.__setattr__(self, "scale", scale)
            object.__setattr__(self, "zero_point", zp)
        else:
            scale = real("scale", self.scale)
            if not (math.isfinite(scale) and scale > 0):
                raise InvalidArgument(f"scale must be finite and positive, got {scale}")
            object.__setattr__(self, "scale", scale)
            object.__setattr__(self, "zero_point", whole("zero_point", self.zero_point, q_min, q_max))

    @property
    def per_channel(self) -> bool:
        return self.axis is not None

    @property
    def q_min(self) -> int:
        return quant_range(self.bits, self.signed)[0]

    @property
    def q_max(self) -> int:
        return quant_range(self.bits, self.signed)[1]

    @property
    def code_range(self) -> tuple[int, int]:
        """The least and greatest code: [q_min, q_max]."""
        return self.q_min, self.q_max

    def fake(self, arr: TensorLike) -> np.ndarray:
        """Quantize-then-dequantize reconstruction of `arr`."""
        return fake_quant_array(_as_f64(arr), self)

    def encode(self, arr: TensorLike) -> tuple[np.ndarray, np.ndarray]:
        """(codes, reconstruction) of `arr` from one pass, shape preserved, as `fake` makes them: the
        codes in `code_dtype` of `code_range`, uint8 or int8 up to 8 bits, else uint16 or int16."""
        codes = quantize_array(_as_f64(arr), self)
        return codes.astype(code_dtype(*self.code_range)), dequantize_array(codes, self)

    def _pieces(self):
        """`search.piece_codec`'s rule, table and packing of a per-tensor quantizer: one piece."""
        return None, [(self.scale, self.zero_point, self.q_min, self.q_max)], 0


@dataclass(frozen=True)
class QuantizedTensor:
    """Integer codes plus the parameters needed to dequantize them."""

    shape: tuple[int, ...]
    codes: np.ndarray
    params: QuantParams

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes, dtype=np.int32).reshape(-1)
        if codes.size != math.prod(self.shape):
            raise ShapeError("code count does not match shape")
        if codes.min(initial=0) < self.params.q_min or codes.max(initial=0) > self.params.q_max:
            raise InvalidArgument("codes outside [q_min, q_max]")
        codes.flags.writeable = False
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))
        object.__setattr__(self, "codes", codes)


@dataclass(frozen=True)
class BNParams:
    """Inference-time batch-norm parameters, one entry per channel."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self) -> None:
        for name in ("gamma", "beta", "running_mean", "running_var"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).reshape(-1)
            object.__setattr__(self, name, arr)
        if self.eps <= 0:
            raise InvalidArgument("eps must be positive")
        if np.any(self.running_var < 0):
            raise InvalidArgument("running_var entries must be >= 0")
        n = self.gamma.size
        if any(getattr(self, k).size != n for k in ("beta", "running_mean", "running_var")):
            raise ShapeError("batch-norm parameter lengths differ")

    @property
    def channels(self) -> int:
        return int(self.gamma.size)

    @property
    def multiplier(self) -> np.ndarray:
        """The per-channel factor BN applies after subtracting the running mean."""
        return self.gamma / np.sqrt(self.running_var + self.eps)


def make_params(
    min_val: float, max_val: float, bits: int, scheme: str = "asymmetric", signed: bool = False
) -> QuantParams:
    """Derive scale/zero-point from an observed [min, max] clipping range: `full_range` of one range."""
    if min_val > max_val:
        raise InvalidArgument(f"min {min_val} exceeds max {max_val}")
    scale, zp = full_range(min_val, max_val, bits, scheme, signed)
    return QuantParams(scale=float(scale), zero_point=float(zp), bits=bits, signed=signed)


def full_range(lo, hi, bits: int, scheme: str, signed: bool) -> tuple[np.ndarray, np.ndarray]:
    """(scale, zero point) float64 arrays, 0-d for scalars, of the full-range quantizer of each range
    [lo, hi], lo <= hi. A repeated value anchors the asymmetric scale on its magnitude; an all-zero
    range gets the sentinel scale 1.0 and zero point 0; a subnormal scale (below TINY) is an error,
    and so is an asymmetric span hi - lo past the float64 maximum."""
    bits = whole("bits", bits, *BITS)
    if scheme not in SCHEMES:
        raise InvalidArgument(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    q_min, q_max = quant_range(bits, signed)
    absmax = np.maximum(np.abs(lo), np.abs(hi))
    if scheme == "symmetric":
        scale = absmax / q_max
    else:
        with np.errstate(over="ignore"):  # an inf span is refused below
            scale = np.where(lo == hi, absmax / max(-q_min, q_max), (hi - lo) / (q_max - q_min))
    zero = absmax == 0.0
    scale = np.where(zero, 1.0, scale)
    for i in np.flatnonzero((scale < TINY) | np.isinf(scale))[:1]:  # the first subnormal or inf scale
        lo_i, hi_i, s_i = lo.item(i), hi.item(i), scale.item(i)
        why = "is wider than the float64 maximum" if s_i == np.inf else f"gives the subnormal scale {s_i!r}"
        raise InvalidArgument(f"range [{lo_i!r}, {hi_i!r}] {why}")
    return scale, np.where(zero, 0.0, zero_point(lo, scale, bits, scheme, signed))


def zero_point(lo, scale, bits: int, scheme: str, signed: bool) -> np.ndarray:
    """Zero points, whole float64s, that map each minimum `lo` near q_min at
    its `scale` (broadcast); 0 under the symmetric scheme."""
    q_min, q_max = quant_range(bits, signed)
    if scheme == "symmetric":
        return np.zeros(np.broadcast_shapes(np.shape(lo), np.shape(scale)))
    return np.clip(np.rint(q_min - lo / scale), q_min, q_max)


def _scale_zp(arr: np.ndarray, p: QuantParams) -> tuple[np.ndarray, np.ndarray]:
    if not p.per_channel:
        return np.float64(p.scale), np.float64(p.zero_point)
    axis = p.axis
    if not -arr.ndim <= axis < arr.ndim:
        raise ShapeError(f"per-channel axis {axis} out of range for rank {arr.ndim}")
    if arr.shape[axis] != p.scale.size:
        raise ShapeError(f"axis {axis} has {arr.shape[axis]} slices, params carry {p.scale.size}")
    shape = (-1,) + (1,) * (arr.ndim - 1 - axis % arr.ndim)  # broadcasts against the trailing axes
    return p.scale.reshape(shape), p.zero_point.astype(np.float64).reshape(shape)


def quantize_array(arr: np.ndarray, p: QuantParams) -> np.ndarray:
    """Integer codes for a float array (int32, clamped to [q_min, q_max])."""
    arr = np.asarray(arr, dtype=np.float64)
    scale, zp = _scale_zp(arr, p)
    with np.errstate(over="ignore"):  # a quotient past the float64 maximum codes to q_min or q_max
        return np.clip(np.rint(arr / scale) + zp, p.q_min, p.q_max).astype(np.int32)


def dequantize_array(codes: np.ndarray, p: QuantParams) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.float64)
    scale, zp = _scale_zp(codes, p)
    with np.errstate(over="ignore"):  # a value past the float64 maximum is inf
        return (codes - zp) * scale


def fake_quant_array(arr: np.ndarray, p: QuantParams) -> np.ndarray:
    """Quantize-then-dequantize in float64, preserving shape."""
    return dequantize_array(quantize_array(arr, p), p)


def quantize(x: TensorLike, p: QuantParams) -> QuantizedTensor:
    t = as_tensor(x)
    codes = quantize_array(t.array, p)
    return QuantizedTensor(shape=t.shape, codes=codes.reshape(-1), params=p)


def dequantize(q: QuantizedTensor) -> Tensor:
    arr = dequantize_array(q.codes.reshape(q.shape), q.params)
    return Tensor.from_array(arr.astype(np.float32))


def error_stats(reference: np.ndarray, approx: np.ndarray) -> tuple[float, float, float]:
    """`block_stats` of a reference signal and its approximation, of one shape: each block of each
    is widened to float64 from its own dtype, and neither is written to."""
    a, b = np.asarray(reference), np.asarray(approx)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    a, b = a.reshape(-1), b.reshape(-1)

    def blocks(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        return a[start:stop].astype(np.float64, copy=False), b[start:stop].astype(np.float64, copy=False)

    return block_stats(a.size, blocks)


def block_stats(size: int, blocks) -> tuple[float, float, float]:
    """(mse, sqnr_db, cosine) of `size` pairs of values that `blocks(start, stop)` gives as float64
    (reference, approx) arrays of elements [start, stop), which it does not write to.

    The sums of a^2, b^2, ab and (a - b)^2 are each taken over blocks of at most CHUNK_ELEMS elements,
    split as numpy's pairwise sum splits one array and added back in its order, so each has the bits
    of `np.sum` over the whole array: mse has those of `np.mean`. The cosine is
    sum(ab) / (sqrt(sum(a^2)) sqrt(sum(b^2))); no BLAS call takes part. Zero reconstruction error
    reports sqnr_db as +inf; the cosine of two zero vectors is 1.0, and 0.0 when exactly one side
    is zero. Where a sum may pass the float64 maximum, or squares may underflow, one more pass
    finds the largest magnitude and the sums are taken again of every block scaled by one power of
    two 2^-k, which moves no cosine or SQNR, and the mse by 4^k after. A side whose largest magnitude
    that scale would take below 1 (2^255 or more under the other's) is scaled on its own, 2^-ka or
    2^-kb, for its sum of squares and sum(ab), and the SQNR gains 20 log10(2) (ka - k) dB back."""
    k = ka = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a sum past the float64 maximum (inf, or NaN) is scaled below
        signal, b2, ab, noise = _pairwise_sums(blocks, 0, size, (0, 0, 0))
        if not (2.0**-900 <= min(signal, b2) and 2 * (signal + b2) <= HUGE):  # that bound |sum(ab)| and sum((a - b)^2)
            tops = np.max([[np.abs(x).max() for x in blocks(j, min(j + CHUNK_ELEMS, size))]
                           for j in range(0, size, CHUNK_ELEMS)], axis=0)  # each side's largest magnitude
            top = float(tops.max())
            if 0 < top < math.inf:  # else all is zero, or there is an inf or a NaN, which no scale moves
                k = math.frexp(top)[1] - 256  # the largest magnitude below 2^256: no square or sum overflows
                ka, kb = (math.frexp(t)[1] - 256 if 0 < t < math.ldexp(1.0, k) else k for t in tops.tolist())
                signal, b2, ab, noise = _pairwise_sums(blocks, 0, size, (ka, kb, k))
        mse = noise / size  # np.mean's sum and divide, so the same bits
        if k:
            mse = float(np.ldexp(mse, 2 * k))
    if signal == 0.0 and b2 == 0.0:
        cosine = 1.0
    elif signal == 0.0 or b2 == 0.0:
        cosine = 0.0
    else:
        cosine = ab / (math.sqrt(signal) * math.sqrt(b2))
    if noise == 0.0:
        sqnr = math.inf
    elif signal == 0.0:
        sqnr = -math.inf
    else:
        sqnr = 10.0 * math.log10(signal / noise) + 20.0 * math.log10(2.0) * (ka - k)
    return mse, sqnr, cosine


def _pairwise_sums(blocks, start: int, stop: int, scales) -> tuple[float, float, float, float]:
    """The sums of a^2, b^2, ab and (a - b)^2 over elements [start, stop) of `block_stats`' `blocks`,
    with `scales` (ka, kb, k) each block's a scaled by 2^-ka and b by 2^-kb for the first three, and
    both by 2^-k for the last: numpy's pairwise split, into halves the first of which is a multiple
    of its 8-way unroll, down to blocks of at most CHUNK_ELEMS, each summed by `np.sum`."""
    if stop - start > CHUNK_ELEMS:
        half = (stop - start) // 2
        mid = start + half - half % 8
        left, right = _pairwise_sums(blocks, start, mid, scales), _pairwise_sums(blocks, mid, stop, scales)
        return tuple(x + y for x, y in zip(left, right))
    a, b = blocks(start, stop)
    ka, kb, k = scales
    x, y = (np.ldexp(a, -ka), np.ldexp(b, -kb)) if ka or kb else (a, b)
    out = np.empty_like(a)  # after `blocks`, whose own temporaries are gone by now
    sums = (float(np.sum(np.square(x, out=out))), float(np.sum(np.square(y, out=out))),
            float(np.sum(np.multiply(x, y, out=out))))
    if ka != k or kb != k:
        x, y = np.ldexp(a, -k), np.ldexp(b, -k)
    return (*sums, float(np.sum(np.square(np.subtract(x, y, out=out), out=out))))


def fold_batchnorm(weight: np.ndarray, bias: np.ndarray, bn: BNParams):
    """Absorb batch-norm into the preceding linear/conv layer.

    `weight` has output channels on axis 0 (rank 2 linear or rank 4 conv).
    Returns (weight', bias') such that BN(W x + bias) == W' x + bias' for all
    inputs, up to float rounding.
    """
    w = np.asarray(weight, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64).reshape(-1)
    if w.shape[0] != bn.channels or b.size != bn.channels:
        raise ShapeError(
            f"channel mismatch: weight {w.shape[0]}, bias {b.size}, bn {bn.channels}"
        )
    factor = bn.multiplier
    w_folded = w * factor.reshape((-1,) + (1,) * (w.ndim - 1))
    b_folded = (b - bn.running_mean) * factor + bn.beta
    return w_folded, b_folded
