"""Minimal dense tensor container, input checks and the per-channel slices calibration uses.

Values are stored flat in row-major order as float32, which calibration
keeps, widening each value before arithmetic. Everything here is a pure function over immutable
inputs and safe to call concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import EmptyInput, InvalidArgument

MAX_RANK = 4

TensorLike = Union["Tensor", np.ndarray, Sequence, float, int]


@dataclass(frozen=True)
class Tensor:
    """Immutable float32 tensor with flat row-major storage.

    Constructors reject non-finite values, zero-sized dimensions and ranks
    above MAX_RANK.
    """

    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        self._keep(np.array(_real(self.data), dtype=np.float32, copy=True).reshape(-1))

    @classmethod
    def _owning(cls, arr: np.ndarray) -> "Tensor":
        """A Tensor that keeps the float32 `arr`, which nothing else may hold, rather than a copy of it."""
        t = object.__new__(cls)
        object.__setattr__(t, "shape", arr.shape)
        t._keep(arr.reshape(-1))
        return t

    def _keep(self, data: np.ndarray) -> None:
        shape = tuple(int(d) for d in self.shape)
        if len(shape) > MAX_RANK:
            raise InvalidArgument(f"rank {len(shape)} exceeds supported maximum {MAX_RANK}")
        if any(d == 0 for d in shape):
            raise EmptyInput(f"tensor has no elements, shape {shape}")
        if any(d < 0 for d in shape):
            raise InvalidArgument(f"dimensions must be positive, got {shape}")
        if data.size == 0:
            raise EmptyInput("tensor has no elements")
        if data.size != math.prod(shape):
            raise InvalidArgument(
                f"shape {shape} implies {math.prod(shape)} elements, got {data.size}"
            )
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):  # NaN reaches both, no full-size mask
            raise InvalidArgument("tensor contains NaN or Inf")
        data.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, values: TensorLike) -> "Tensor":
        arr = np.asarray(_real(values), dtype=np.float32)
        return cls(arr.shape, arr.reshape(-1))

    @property
    def array(self) -> np.ndarray:
        """Read-only view with the tensor's shape."""
        return self.data.reshape(self.shape)


def as_tensor(values: TensorLike) -> Tensor:
    if isinstance(values, Tensor):
        return values
    return Tensor.from_array(values)


def _as_f64(values: TensorLike) -> np.ndarray:
    return _as_float(values).astype(np.float64, copy=False)


def _real(values) -> np.ndarray:
    """`values` as an array of bools, integers or floats, in the dtype numpy gives it. Strings and
    bytes, which numpy would parse, complex values, whose imaginary part a cast drops, and other
    objects are refused."""
    arr = np.asarray(values)
    real = np.can_cast(arr.dtype, np.float64, "same_kind")  # bool, integer or float
    if not (real or (arr.dtype == object and all(isinstance(v, numbers.Real) for v in arr.flat))):
        raise InvalidArgument(f"input must hold real numbers, got dtype {arr.dtype}")
    return arr


def _as_float(values: TensorLike) -> np.ndarray:
    """A float32 array, or a Tensor's own array, as it is, and any other real values (see `_real`)
    in float64: a caller widens each float32 value before arithmetic, which is exact, so results
    keep the bits of a float64 input."""
    if isinstance(values, Tensor):
        return values.array
    arr = _real(values)
    arr = arr if arr.dtype == np.float32 else arr.astype(np.float64, copy=False)
    if arr.size == 0:
        raise EmptyInput("input has no elements")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgument("input contains NaN or Inf")
    return arr


def channel_slices(t: TensorLike, axis: int) -> np.ndarray:
    """float64 values as (channels, elements): row i is slice i along `axis`, negative from the end."""
    arr = _as_f64(t)
    if not -arr.ndim <= axis < arr.ndim:
        raise InvalidArgument(f"axis {axis} out of range for rank {arr.ndim}")
    return np.moveaxis(arr, axis, 0).reshape(arr.shape[axis], -1)
