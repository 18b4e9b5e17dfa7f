"""Deterministic desk-scale network for end-to-end calibration runs.

The network strings together the four activation archetypes the quantizers
target: a single-head self-attention block with a sharpened softmax and a
GeLU MLP (concentrated post-softmax / asymmetric post-GeLU activations), a
linear "text" block with injected outlier columns, a fusion linear over the
concatenated branch outputs, and a 3x3 conv + batch-norm + ReLU decoder
stub. All math runs in float64 and is fully determined by (seed, input).

Hook points capture the tensors calibration needs; `backward_collect`
produces analytic gradients of a proxy loss (the perturbation-seeded sum of
the final output) with respect to every hooked activation, which the
gradient-weighted calibration metrics consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from .dual_region import DualRegionParams, calibrate_dual_region
from .errors import InvalidArgument, ShapeError
from .generate import _gelu
from .outlier_groups import GroupedQuantParams, ThresholdStrategy, calibrate_grouped
from .report import CalibrationReport, HookReport
from .search import (
    SearchSpace,
    alternating_matmul_search,
    channelwise_params,
    hessian_metric_fn,
    mse_grid_search,
)
from .tensor import TensorLike, _as_f64
from .uniform import BNParams, QuantParams, error_stats, fold_batchnorm, make_params

# Hook names in forward order. `attn.scores` and `attn.out` anchor the
# matmul gradient dumps and are never themselves quantized.
HOOKS = (
    "attn.q",
    "attn.k_t",
    "attn.scores",
    "attn.softmax",
    "attn.v",
    "attn.out",
    "mlp.gelu",
    "text.out",
    "fusion.out",
    "decoder.pre_bn",
)

QUANTIZED_HOOKS = (
    "attn.q",
    "attn.k_t",
    "attn.softmax",
    "attn.v",
    "mlp.gelu",
    "text.out",
    "fusion.out",
    "decoder.pre_bn",
)

PRESETS = {"W8A8": (8, 8), "W6A6": (6, 6), "W4A8": (4, 8), "W4A4": (4, 4)}


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0))) + x * phi


def _softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    return p * (dp - np.sum(dp * p, axis=-1, keepdims=True))


def _conv2d(img: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 conv, stride 1, zero padding 1. img: (C,H,W), w: (O,C,3,3)."""
    padded = np.pad(img, ((0, 0), (1, 1), (1, 1)))
    windows = sliding_window_view(padded, (3, 3), axis=(1, 2))
    return np.einsum("chwuv,ocuv->ohw", windows, w) + b[:, None, None]


def _conv2d_input_grad(dout: np.ndarray, w: np.ndarray) -> np.ndarray:
    padded = np.pad(dout, ((0, 0), (1, 1), (1, 1)))
    windows = sliding_window_view(padded, (3, 3), axis=(1, 2))
    flipped = w[:, :, ::-1, ::-1]
    return np.einsum("ohwuv,ocuv->chw", windows, flipped)


def _bn_apply(pre: np.ndarray, bn: BNParams) -> np.ndarray:
    inv = bn.gamma / np.sqrt(bn.running_var + bn.eps)
    return (pre - bn.running_mean[:, None, None]) * inv[:, None, None] + bn.beta[:, None, None]


def _tempered_fusion(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Fusion weights balancing the two branches: the text half is damped so
    its outlier columns do not drown the visual branch in the fused
    features, and the visual half is boosted so both contribute visibly."""
    w = rng.normal(0.0, 1.0 / math.sqrt(2 * dim), (2 * dim, dim))
    w[:dim, :] *= 2.0
    w[dim:, :] *= 0.25
    return w


@dataclass(frozen=True)
class ToyNetWeights:
    """Seed-determined weights for the four-block network."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_mlp1: np.ndarray
    b_mlp1: np.ndarray
    w_mlp2: np.ndarray
    b_mlp2: np.ndarray
    w_text: np.ndarray
    b_text: np.ndarray
    outlier_cols: tuple[int, ...]
    outlier_factors: tuple[float, ...]
    w_fuse: np.ndarray
    b_fuse: np.ndarray
    conv_w: np.ndarray
    conv_b: np.ndarray
    bn: BNParams
    seq: int = 8
    dim: int = 16
    hidden: int = 32
    conv_channels: int = 4
    attn_temperature: float = 0.25

    @property
    def conv_hw(self) -> tuple[int, int]:
        # seq*dim must factor as conv_channels * H * W; H fixed to the
        # channel count keeps the default 8x16 features at (4, 4, 8)
        spatial = self.seq * self.dim // self.conv_channels
        h = self.conv_channels
        return h, spatial // h

    @classmethod
    def seeded(
        cls,
        seed: int,
        seq: int = 8,
        dim: int = 16,
        hidden: int = 32,
        conv_channels: int = 4,
        outlier_count: int = 2,
        outlier_range: tuple[float, float] = (20.0, 50.0),
        attn_temperature: float = 0.25,
    ) -> "ToyNetWeights":
        rng = np.random.default_rng([seed, 0])
        s = 1.0 / math.sqrt(dim)
        w_text = rng.normal(0.0, s, (dim, dim))
        b_text = rng.normal(0.0, 0.05, dim)
        cols = tuple(int(c) for c in rng.choice(dim, size=outlier_count, replace=False))
        factors = tuple(float(f) for f in rng.uniform(*outlier_range, size=outlier_count))
        for col, factor in zip(cols, factors):
            w_text[:, col] *= factor
            b_text[col] *= factor
        return cls(
            w_q=rng.normal(0.0, s, (dim, dim)),
            w_k=rng.normal(0.0, s, (dim, dim)),
            w_v=rng.normal(0.0, s, (dim, dim)),
            w_mlp1=rng.normal(0.0, s, (dim, hidden)),
            b_mlp1=rng.normal(0.0, 0.05, hidden),
            w_mlp2=rng.normal(0.0, 1.0 / math.sqrt(hidden), (hidden, dim)),
            b_mlp2=rng.normal(0.0, 0.05, dim),
            w_text=w_text,
            b_text=b_text,
            outlier_cols=cols,
            outlier_factors=factors,
            w_fuse=_tempered_fusion(rng, dim),
            b_fuse=rng.normal(0.0, 0.05, dim),
            conv_w=rng.normal(0.0, 1.0 / 6.0, (conv_channels, conv_channels, 3, 3)),
            conv_b=rng.normal(0.0, 0.05, conv_channels),
            bn=BNParams(
                gamma=rng.uniform(0.8, 1.2, conv_channels),
                beta=rng.normal(0.0, 0.1, conv_channels),
                running_mean=rng.normal(0.0, 0.2, conv_channels),
                running_var=rng.uniform(0.5, 1.5, conv_channels),
                eps=1e-5,
            ),
            seq=seq,
            dim=dim,
            hidden=hidden,
            conv_channels=conv_channels,
            attn_temperature=attn_temperature,
        )


@dataclass
class ActivationTrace:
    """Hooked activations (and optionally their proxy-loss gradients)."""

    activations: dict[str, np.ndarray] = field(default_factory=dict)
    gradients: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class QuantPlan:
    """Calibrated quantizers per hook and per weight, plus the folded conv."""

    hooks: dict[str, QuantParams | DualRegionParams | GroupedQuantParams] = field(
        default_factory=dict
    )
    weight_params: dict[str, QuantParams] = field(default_factory=dict)
    folded_conv: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True)
class PipelineConfig:
    """Module-level strategy switches plus the shared search settings.

    Each module accepts "rtn" (min/max round-to-nearest) or its dedicated
    treatment: visual "dual_region" (region quantizers plus alternating
    matmul scale search), text "outlier_groups", fusion/decoder "search"
    (grid-searched scales, channel-wise weights).
    """

    w_bits: int = 8
    a_bits: int = 8
    visual: str = "dual_region"
    text: str = "outlier_groups"
    fusion: str = "search"
    decoder: str = "search"
    alpha: float = 0.01
    beta: float = 1.2
    n_candidates: int = 100
    rounds: int = 3
    strategy: ThresholdStrategy = field(default_factory=ThresholdStrategy)
    max_iters: int = 3
    percentile_p: float = 99.9
    metric: str = "hessian"  # or "mse"
    seed: int = 0
    calibration_size: int = 32

    def __post_init__(self) -> None:
        if self.visual not in ("rtn", "dual_region"):
            raise InvalidArgument(f"visual mode {self.visual!r}")
        if self.text not in ("rtn", "outlier_groups"):
            raise InvalidArgument(f"text mode {self.text!r}")
        if self.fusion not in ("rtn", "search") or self.decoder not in ("rtn", "search"):
            raise InvalidArgument("fusion/decoder mode must be 'rtn' or 'search'")
        if self.metric not in ("hessian", "mse"):
            raise InvalidArgument(f"metric {self.metric!r}")

    @classmethod
    def from_preset(cls, preset: str, **overrides) -> "PipelineConfig":
        if preset not in PRESETS:
            raise InvalidArgument(f"unknown preset {preset!r}, expected one of {sorted(PRESETS)}")
        w_bits, a_bits = PRESETS[preset]
        return cls(w_bits=w_bits, a_bits=a_bits, **overrides)

    @property
    def space(self) -> SearchSpace:
        return SearchSpace(self.alpha, self.beta, self.n_candidates)

    def to_dict(self) -> dict:
        return {
            "w_bits": self.w_bits,
            "a_bits": self.a_bits,
            "visual": self.visual,
            "text": self.text,
            "fusion": self.fusion,
            "decoder": self.decoder,
            "alpha": self.alpha,
            "beta": self.beta,
            "n_candidates": self.n_candidates,
            "rounds": self.rounds,
            "strategy": self.strategy.kind,
            "max_iters": self.max_iters,
            "percentile_p": self.percentile_p,
            "metric": self.metric,
            "seed": self.seed,
            "calibration_size": self.calibration_size,
        }


def forward(
    x: TensorLike,
    w: ToyNetWeights,
    plan: QuantPlan | None = None,
    overrides: Mapping[str, np.ndarray] | None = None,
) -> tuple[np.ndarray, ActivationTrace]:
    """One deterministic forward pass.

    plan=None runs the full-precision reference (batch-norm applied
    explicitly); with a plan, weights and hooked activations are
    fake-quantized by their quantizers and the decoder uses the folded
    conv when present, in which case the decoder hook sees the folded
    (post-normalization) output. `overrides` replaces a hooked activation
    before downstream use, which is what the finite-difference oracle needs.
    """
    x = _as_f64(x)
    if x.shape != (w.seq, w.dim):
        raise ShapeError(f"input shape {x.shape} != ({w.seq}, {w.dim})")
    overrides = overrides or {}
    trace = ActivationTrace()

    def hook(name: str, value: np.ndarray) -> np.ndarray:
        if name in overrides:
            value = np.asarray(overrides[name], dtype=np.float64)
        if plan is not None and name in plan.hooks:
            value = plan.hooks[name].fake(value)
        trace.activations[name] = value
        return value

    def weight(name: str, value: np.ndarray) -> np.ndarray:
        if plan is not None and name in plan.weight_params:
            return plan.weight_params[name].fake(value)
        return value

    q = hook("attn.q", x @ weight("attn.w_q", w.w_q))
    k_t = hook("attn.k_t", (x @ weight("attn.w_k", w.w_k)).T)
    v = hook("attn.v", x @ weight("attn.w_v", w.w_v))
    inv_temp = 1.0 / (math.sqrt(w.dim) * w.attn_temperature)
    scores = hook("attn.scores", (q @ k_t) * inv_temp)
    p = hook("attn.softmax", _softmax(scores))
    attn_out = hook("attn.out", p @ v)
    y = x + attn_out
    h1 = y @ weight("mlp.w1", w.w_mlp1) + w.b_mlp1
    g = hook("mlp.gelu", _gelu(h1))
    v_out = y + g @ weight("mlp.w2", w.w_mlp2) + w.b_mlp2

    t_out = hook("text.out", x @ weight("text.w", w.w_text) + w.b_text)

    f_in = np.concatenate([v_out, t_out], axis=1)
    f = hook("fusion.out", f_in @ weight("fusion.w", w.w_fuse) + w.b_fuse)

    img = f.reshape(w.conv_channels, *w.conv_hw)
    if plan is not None and plan.folded_conv is not None:
        cw, cb = plan.folded_conv
        pre = hook("decoder.pre_bn", _conv2d(img, weight("decoder.conv_w", cw), cb))
        z = pre
    else:
        pre = hook("decoder.pre_bn", _conv2d(img, weight("decoder.conv_w", w.conv_w), w.conv_b))
        z = _bn_apply(pre, w.bn)
    out = np.maximum(z, 0.0)
    return out, trace


def backward_collect(
    x: TensorLike,
    w: ToyNetWeights,
    perturbation: float = 1.0,
) -> ActivationTrace:
    """Full-precision forward plus analytic gradients at every hook.

    The proxy loss is the final output contracted with a constant
    perturbation seed, so the gradient of the loss with respect to the
    output is `perturbation` everywhere (zero perturbation zeroes every
    gradient). Gradients treat each hooked activation as a free variable.
    """
    x = _as_f64(x)
    out, trace = forward(x, w, plan=None)
    acts = trace.activations

    d_out = np.full_like(out, float(perturbation))
    z = _bn_apply(acts["decoder.pre_bn"], w.bn)
    dz = d_out * (z > 0.0)
    inv = w.bn.gamma / np.sqrt(w.bn.running_var + w.bn.eps)
    d_pre = dz * inv[:, None, None]
    trace.gradients["decoder.pre_bn"] = d_pre

    d_f = _conv2d_input_grad(d_pre, w.conv_w).reshape(w.seq, w.dim)
    trace.gradients["fusion.out"] = d_f
    d_fin = d_f @ w.w_fuse.T
    d_vout = d_fin[:, : w.dim]
    d_tout = d_fin[:, w.dim :]
    trace.gradients["text.out"] = d_tout

    d_g = d_vout @ w.w_mlp2.T
    trace.gradients["mlp.gelu"] = d_g
    y = x + acts["attn.out"]
    h1 = y @ w.w_mlp1 + w.b_mlp1
    d_y = d_vout + (d_g * _gelu_grad(h1)) @ w.w_mlp1.T
    trace.gradients["attn.out"] = d_y

    p = acts["attn.softmax"]
    v = acts["attn.v"]
    d_p = d_y @ v.T
    trace.gradients["attn.softmax"] = d_p
    trace.gradients["attn.v"] = p.T @ d_y
    d_scores = _softmax_backward(p, d_p)
    trace.gradients["attn.scores"] = d_scores
    inv_temp = 1.0 / (math.sqrt(w.dim) * w.attn_temperature)
    trace.gradients["attn.q"] = (d_scores @ acts["attn.k_t"].T) * inv_temp
    trace.gradients["attn.k_t"] = (acts["attn.q"].T @ d_scores) * inv_temp
    return trace


def _minmax_params(arr: np.ndarray, bits: int) -> QuantParams:
    """Round-to-nearest baseline: full-range parameters from min/max.

    Non-negative data maps to an unsigned symmetric quantizer, signed data
    to an asymmetric one, mirroring plain round-to-nearest deployment.
    """
    lo = float(arr.min())
    hi = float(arr.max())
    if lo >= 0.0:
        return make_params(lo, hi, bits, "symmetric", signed=False)
    return make_params(lo, hi, bits, "asymmetric", signed=False)


def _weight_minmax(arr: np.ndarray, bits: int) -> QuantParams:
    lo = float(arr.min())
    hi = float(arr.max())
    return make_params(lo, hi, bits, "symmetric", signed=True)


def run_pipeline(
    calib_inputs: Sequence[TensorLike],
    w: ToyNetWeights,
    cfg: PipelineConfig,
) -> tuple[QuantPlan, CalibrationReport]:
    """Calibrate every quantizer in the plan and report reconstruction error.

    Step 1 runs full-precision forwards over the calibration inputs and
    collects activations plus proxy-loss gradients. Step 2 dispatches per
    module: region quantizers and the alternating matmul scale search for
    the attention block, iterative outlier grouping for the text block,
    grid-searched uniform scales (or plain min/max in "rtn" mode) elsewhere.
    Batch-norm is always folded into the decoder conv before its weights are
    calibrated.
    """
    if len(calib_inputs) < 1:
        raise InvalidArgument("at least one calibration input required")
    traces = [backward_collect(x, w, perturbation=1.0) for x in calib_inputs]
    acts = {h: np.stack([t.activations[h] for t in traces]) for h in HOOKS}
    grads = {h: np.stack([t.gradients[h] for t in traces]) for h in HOOKS}

    plan = QuantPlan()
    space = cfg.space
    use_hessian = cfg.metric == "hessian"

    # Decoder: fold BN first; weight calibration sees the folded kernel.
    folded_w, folded_b = fold_batchnorm(w.conv_w, w.conv_b, w.bn)
    plan.folded_conv = (folded_w, folded_b)

    weight_arrays = {
        "attn.w_q": w.w_q,
        "attn.w_k": w.w_k,
        "attn.w_v": w.w_v,
        "mlp.w1": w.w_mlp1,
        "mlp.w2": w.w_mlp2,
        "text.w": w.w_text,
        "fusion.w": w.w_fuse,
        "decoder.conv_w": folded_w,
    }
    weight_modes = {
        "attn.w_q": (cfg.visual, 1),
        "attn.w_k": (cfg.visual, 1),
        "attn.w_v": (cfg.visual, 1),
        "mlp.w1": (cfg.visual, 1),
        "mlp.w2": (cfg.visual, 1),
        "text.w": (cfg.text, 1),
        "fusion.w": (cfg.fusion, 1),
        "decoder.conv_w": (cfg.decoder, 0),
    }
    for name, (mode, axis) in weight_modes.items():
        arr = weight_arrays[name]
        if mode == "rtn":
            plan.weight_params[name] = _weight_minmax(arr, cfg.w_bits)
        else:
            plan.weight_params[name] = channelwise_params(
                arr,
                cfg.w_bits,
                axis=axis,
                method="mse",
                scheme="symmetric",
                signed=True,
                space=space,
                percentile_p=cfg.percentile_p,
            )

    a_bits = cfg.a_bits
    if cfg.visual == "rtn":
        for hookname in ("attn.q", "attn.k_t", "attn.v", "attn.softmax", "mlp.gelu"):
            plan.hooks[hookname] = _minmax_params(acts[hookname], a_bits)
    else:
        qk = alternating_matmul_search(
            acts["attn.q"],
            acts["attn.k_t"],
            grad=grads["attn.scores"] if use_hessian else None,
            bits=a_bits,
            space=space,
            rounds=cfg.rounds,
        )
        plan.hooks["attn.q"] = qk.params_a
        plan.hooks["attn.k_t"] = qk.params_b
        pv = alternating_matmul_search(
            acts["attn.softmax"],
            acts["attn.v"],
            grad=grads["attn.out"] if use_hessian else None,
            bits=a_bits,
            space=space,
            rounds=cfg.rounds,
        )
        # The softmax hook owns its region quantizer, so only the value-side
        # scale of this search is used.
        plan.hooks["attn.v"] = pv.params_b
        softmax_metric = hessian_metric_fn(grads["attn.softmax"]) if use_hessian else None
        plan.hooks["attn.softmax"] = calibrate_dual_region(
            acts["attn.softmax"], "softmax", a_bits, metric=softmax_metric, space=space
        )
        gelu_metric = hessian_metric_fn(grads["mlp.gelu"]) if use_hessian else None
        plan.hooks["mlp.gelu"] = calibrate_dual_region(
            acts["mlp.gelu"], "gelu", a_bits, metric=gelu_metric, space=space
        )

    if cfg.text == "rtn":
        plan.hooks["text.out"] = _minmax_params(acts["text.out"], a_bits)
    else:
        plan.hooks["text.out"] = calibrate_grouped(
            acts["text.out"], a_bits, cfg.strategy, cfg.max_iters, space=space
        )

    if cfg.fusion == "rtn":
        plan.hooks["fusion.out"] = _minmax_params(acts["fusion.out"], a_bits)
    else:
        plan.hooks["fusion.out"] = mse_grid_search(
            acts["fusion.out"], a_bits, "asymmetric", False, space
        )

    # Decoder activations are calibrated on the normalized pre-activation,
    # which is what the folded conv emits at inference time.
    decoder_acts = np.stack([_bn_apply(t.activations["decoder.pre_bn"], w.bn) for t in traces])
    if cfg.decoder == "rtn":
        plan.hooks["decoder.pre_bn"] = _minmax_params(decoder_acts, a_bits)
    else:
        # calibrate channel-first so the stored axis matches the (C, H, W)
        # activation layout seen at inference time
        plan.hooks["decoder.pre_bn"] = channelwise_params(
            decoder_acts.transpose(1, 0, 2, 3),
            a_bits,
            axis=0,
            method="mse",
            scheme="asymmetric",
            signed=False,
            space=space,
        )

    hook_reports: dict[str, HookReport] = {}
    for hookname, quantizer in plan.hooks.items():
        dumps = decoder_acts if hookname == "decoder.pre_bn" else acts[hookname]
        recon = np.stack([quantizer.fake(d) for d in dumps])
        hook_reports[hookname] = HookReport(*error_stats(dumps, recon))
    weight_reports = {
        name: HookReport(*error_stats(arr, plan.weight_params[name].fake(arr)))
        for name, arr in weight_arrays.items()
    }

    out_mse = []
    out_cos = []
    for x in calib_inputs:
        fp_out, _ = forward(x, w, plan=None)
        q_out, _ = forward(x, w, plan=plan)
        mse, _, cos = error_stats(fp_out, q_out)
        out_mse.append(mse)
        out_cos.append(cos)

    report = CalibrationReport(
        hooks=hook_reports,
        weights=weight_reports,
        totals={
            "output_mse_mean": float(np.mean(out_mse)),
            "output_cosine_mean": float(np.mean(out_cos)),
        },
        config=cfg.to_dict(),
        seed=cfg.seed,
    )
    return plan, report


def seeded_inputs(seed: int, count: int, seq: int = 8, dim: int = 16) -> list[np.ndarray]:
    """Deterministic calibration inputs drawn from a seed-derived stream.

    Roughly half the token rows are scaled down, mixing near-uniform
    attention rows (weak tokens) with sharply peaked ones, which is the
    row structure the post-softmax quantizers are designed around.
    """
    rng = np.random.default_rng([seed, 1])
    inputs = []
    for _ in range(count):
        x = rng.standard_normal((seq, dim))
        x[rng.random(seq) < 0.5] *= 0.15
        inputs.append(x)
    return inputs
