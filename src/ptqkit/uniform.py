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
from .tensor import Tensor, TensorLike, as_tensor

SCHEMES = ("symmetric", "asymmetric")
TINY = np.finfo(np.float64).tiny  # the smallest normal float64, make_params' least scale


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


@dataclass(frozen=True)
class QuantParams:
    """Scale/zero-point pair for one uniform quantizer.

    Per-tensor parameters are scalars; per-channel parameters are 1-D arrays
    along `axis`. Symmetric quantizers carry zero_point == 0. `bits`, `axis`
    and every zero point must be whole numbers (see `whole`), every scale a
    number (see `real`).
    """

    scale: float | np.ndarray
    zero_point: int | np.ndarray
    bits: int
    signed: bool
    axis: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", whole("bits", self.bits, 2, 16))
        if self.axis is not None:
            object.__setattr__(self, "axis", whole("axis", self.axis, 0, math.inf))
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

    def fake(self, arr: np.ndarray) -> np.ndarray:
        """Quantize-then-dequantize reconstruction of `arr`."""
        return fake_quant_array(arr, self)

    def encode(self, arr: np.ndarray) -> np.ndarray:
        """Integer codes of `arr`, shape preserved."""
        return quantize_array(arr, self)


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


def make_params(
    min_val: float,
    max_val: float,
    bits: int,
    scheme: str = "asymmetric",
    signed: bool = False,
) -> QuantParams:
    """Derive scale/zero-point from an observed [min, max] clipping range.

    Asymmetric: s = (max - min) / (q_max - q_min), z = round(q_min - min/s)
    clamped into range. Symmetric: s = absmax / q_max, z = 0. A fully
    degenerate range (max == min == 0) returns the sentinel scale 1.0; a range
    so narrow that s is subnormal (below TINY) is an InvalidArgument.
    """
    if scheme not in SCHEMES:
        raise InvalidArgument(f"scheme must be one of {SCHEMES}")
    if min_val > max_val:
        raise InvalidArgument(f"min {min_val} exceeds max {max_val}")
    q_min, q_max = quant_range(bits, signed)
    absmax = max(abs(min_val), abs(max_val))
    if absmax == 0.0:
        return QuantParams(scale=1.0, zero_point=0, bits=bits, signed=signed)
    if scheme == "symmetric":
        scale = absmax / q_max
    elif max_val == min_val:
        # single repeated value: anchor the scale on its magnitude
        scale = absmax / max(abs(q_min), q_max)
    else:
        scale = (max_val - min_val) / (q_max - q_min)
    if scale < TINY:
        raise InvalidArgument(f"range [{min_val!r}, {max_val!r}] gives the subnormal scale {scale!r}")
    zp = 0 if scheme == "symmetric" else int(np.clip(np.rint(q_min - min_val / scale), q_min, q_max))
    return QuantParams(scale=scale, zero_point=zp, bits=bits, signed=signed)


def _broadcast(values: np.ndarray, rank: int, axis: int) -> np.ndarray:
    shape = [1] * rank
    shape[axis] = -1
    return np.asarray(values).reshape(shape)


def _scale_zp(arr: np.ndarray, p: QuantParams) -> tuple[np.ndarray, np.ndarray]:
    if not p.per_channel:
        return np.float64(p.scale), np.float64(p.zero_point)
    axis = p.axis
    if not 0 <= axis < arr.ndim:
        raise ShapeError(f"per-channel axis {axis} out of range for rank {arr.ndim}")
    n = np.asarray(p.scale).size
    if arr.shape[axis] != n:
        raise ShapeError(f"axis {axis} has {arr.shape[axis]} slices, params carry {n}")
    scale = _broadcast(np.asarray(p.scale, dtype=np.float64), arr.ndim, axis)
    zp = _broadcast(np.asarray(p.zero_point, dtype=np.float64), arr.ndim, axis)
    return scale, zp


def quantize_array(arr: np.ndarray, p: QuantParams) -> np.ndarray:
    """Integer codes for a float array (int32, clamped to [q_min, q_max])."""
    arr = np.asarray(arr, dtype=np.float64)
    scale, zp = _scale_zp(arr, p)
    codes = np.rint(arr / scale) + zp
    return np.clip(codes, p.q_min, p.q_max).astype(np.int32)


def dequantize_array(codes: np.ndarray, p: QuantParams) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.float64)
    scale, zp = _scale_zp(codes, p)
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
    """(mse, sqnr_db, cosine) between a reference signal and its approximation.

    Zero reconstruction error reports sqnr_db as +inf; cosine of two zero
    vectors is defined as 1.0, and 0.0 when exactly one side is zero.
    """
    a = np.asarray(reference, dtype=np.float64).reshape(-1)
    b = np.asarray(approx, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    err = a - b
    mse = float(np.mean(err**2))
    signal = float(np.sum(a**2))
    noise = float(np.sum(err**2))
    if noise == 0.0:
        sqnr = math.inf
    elif signal == 0.0:
        sqnr = -math.inf
    else:
        sqnr = 10.0 * math.log10(signal / noise)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 and nb == 0.0:
        cosine = 1.0
    elif na == 0.0 or nb == 0.0:
        cosine = 0.0
    else:
        cosine = float(np.dot(a, b) / (na * nb))
    return mse, sqnr, cosine


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
    factor = bn.gamma / np.sqrt(bn.running_var + bn.eps)
    w_folded = w * factor.reshape((-1,) + (1,) * (w.ndim - 1))
    b_folded = (b - bn.running_mean) * factor + bn.beta
    return w_folded, b_folded
