"""Seeded synthetic activation distributions for calibration experiments."""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgument
from .tensor import MAX_RANK, Tensor
from .uniform import whole

KINDS = ("softmax", "gelu", "outlier")

TEMPERATURE = 0.25  # softmax logit sharpening
GELU_STD = 1.5  # std of the GeLU pre-activations
OUTLIER_FRACTION = 0.005  # share of outlier entries
OUTLIER_RANGE = (20.0, 50.0)  # outlier magnification


# The Cephes erf (S. L. Moshier, "Methods and Programs for Mathematical
# Functions", 1989), which scipy.special.erf runs: x T(x^2)/U(x^2) for
# |x| <= 1, else 1 - exp(-x^2) P(|x|)/Q(|x|). Coefficients run from the
# highest power down; U and Q carry the leading 1 that Cephes' p1evl implies.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
# 1 - erfc(|x|) rounds to 1 from |x| = 5.9216 on (erfc is below half an ulp
# of 1 there), so erf is sign(x) from here. Cephes' second erfc fit (|x| >= 8)
# and its exp underflow cut (x^2 > log(DBL_MAX)) lie past it and never show.
_ERF_SATURATES = 6.0


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """The polynomial with coefficients ``coef`` at x, in Cephes' Horner order."""
    acc = coef[0] * x + coef[1]
    for c in coef[2:]:
        acc *= x
        acc += c
    return acc


def erf(x: np.ndarray) -> np.ndarray:
    """The error function, bit for bit as ``scipy.special.erf`` computes it.

    Each branch is evaluated on its own elements only. exp(-x^2) is
    ``math.exp`` per element, the C library's exp that Cephes calls: numpy's
    SIMD exp differs from it in the last bit on about 5% of GeLU-scale inputs.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.sign(flat)  # right for |x| >= _ERF_SATURATES and inf; NaN stays NaN
    mag = np.abs(flat)
    idx = np.flatnonzero(mag <= 1.0)
    v = flat[idx]
    z = v * v
    out[idx] = v * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    idx = np.flatnonzero((mag > 1.0) & (mag < _ERF_SATURATES))
    v = mag[idx]
    decay = np.fromiter(map(math.exp, memoryview(-(v * v))), np.float64, v.size)
    out[idx] = np.copysign(1.0 - decay * _polevl(v, _ERFC_P) / _polevl(v, _ERFC_Q), flat[idx])
    return out.reshape(x.shape)


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
    rng = np.random.default_rng(whole("seed", seed, 0, math.inf))
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
