"""Minimal dense tensor container, input checks and the per-channel slices calibration uses.

Values are stored flat in row-major order as float32; calibration reads
them in float64. Everything here is a pure function over immutable
inputs and safe to call concurrently.
"""

from __future__ import annotations

import math
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
        shape = tuple(int(d) for d in self.shape)
        if len(shape) > MAX_RANK:
            raise InvalidArgument(f"rank {len(shape)} exceeds supported maximum {MAX_RANK}")
        if any(d == 0 for d in shape):
            raise EmptyInput(f"tensor has no elements, shape {shape}")
        if any(d < 0 for d in shape):
            raise InvalidArgument(f"dimensions must be positive, got {shape}")
        data = np.array(self.data, dtype=np.float32, copy=True).reshape(-1)
        if data.size == 0:
            raise EmptyInput("tensor has no elements")
        if data.size != math.prod(shape):
            raise InvalidArgument(
                f"shape {shape} implies {math.prod(shape)} elements, got {data.size}"
            )
        if not np.all(np.isfinite(data)):
            raise InvalidArgument("tensor contains NaN or Inf")
        data.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(cls, values: TensorLike) -> "Tensor":
        arr = np.asarray(values, dtype=np.float32)
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
    if isinstance(values, Tensor):
        return values.array.astype(np.float64)
    arr = np.asarray(values, dtype=np.float64)
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
