"""Seeded synthetic activation distributions for calibration experiments."""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from .errors import InvalidArgument
from .tensor import MAX_RANK, Tensor

KINDS = ("softmax", "gelu", "outlier")

TEMPERATURE = 0.25  # softmax logit sharpening
GELU_STD = 1.5  # std of the GeLU pre-activations
OUTLIER_FRACTION = 0.005  # share of outlier entries
OUTLIER_RANGE = (20.0, 50.0)  # outlier magnification


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def synth(kind: str, shape: tuple[int, ...], seed: int) -> Tensor:
    """Generate one seeded tensor of the requested activation shape.

    softmax: rows (last axis) are the softmax of Gaussian logits sharpened
    by TEMPERATURE, so mass clusters near 0 with a few entries near 1.
    gelu: GeLU applied to N(0, GELU_STD^2) draws, bounded below by the GeLU
    minimum (~ -0.17). outlier: standard normal with OUTLIER_FRACTION of the
    entries scaled by factors drawn from OUTLIER_RANGE (20-50x).
    """
    if kind not in KINDS:
        raise InvalidArgument(f"kind must be one of {KINDS}")
    shape = tuple(int(d) for d in shape)
    if not 0 < len(shape) <= MAX_RANK or any(d <= 0 for d in shape):
        raise InvalidArgument(f"shape must have 1 to {MAX_RANK} positive dimensions, got {shape}")
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise InvalidArgument(f"shape {shape} has more elements than one array can hold")
    rng = np.random.default_rng(seed)
    if kind == "softmax":
        return Tensor.from_array(_softmax(rng.standard_normal(shape) / TEMPERATURE))
    if kind == "gelu":
        return Tensor.from_array(_gelu(rng.normal(0.0, GELU_STD, shape)))
    values = rng.standard_normal(shape)
    flat = values.reshape(-1)
    count = max(1, round(OUTLIER_FRACTION * flat.size))
    idx = rng.choice(flat.size, size=count, replace=False)
    flat[idx] *= rng.uniform(*OUTLIER_RANGE, size=count)
    return Tensor.from_array(values)
