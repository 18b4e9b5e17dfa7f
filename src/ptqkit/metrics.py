"""Segmentation-style mask metrics over paired binary masks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgument, ShapeError
from .tensor import TensorLike, _as_f64

PRECISION_LEVELS = (0.5, 0.7, 0.9)


@dataclass(frozen=True)
class MaskMetrics:
    oiou: float
    miou: float
    prec_at: dict[float, float]


def _as_mask(values: TensorLike) -> np.ndarray:
    arr = _as_f64(values)
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise InvalidArgument("masks must be binary (0/1 values)")
    return arr.astype(bool)


def _pair_iou(pred: np.ndarray, gt: np.ndarray) -> float:
    union = int(np.logical_or(pred, gt).sum())
    if union == 0:
        return 1.0  # both masks empty: treated as a perfect match
    return float(np.logical_and(pred, gt).sum() / union)


def mask_metrics(
    pred_masks: Sequence[TensorLike],
    gt_masks: Sequence[TensorLike],
) -> MaskMetrics:
    """Overall IoU (set level), mean per-pair IoU, and precision@X for X in PRECISION_LEVELS."""
    if len(pred_masks) != len(gt_masks) or not pred_masks:
        raise InvalidArgument("need one or more prediction/ground-truth pairs")
    inter_total = 0
    union_total = 0
    ious = []
    for pred_raw, gt_raw in zip(pred_masks, gt_masks):
        pred = _as_mask(pred_raw)
        gt = _as_mask(gt_raw)
        if pred.shape != gt.shape:
            raise ShapeError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
        inter_total += int(np.logical_and(pred, gt).sum())
        union_total += int(np.logical_or(pred, gt).sum())
        ious.append(_pair_iou(pred, gt))
    oiou = 1.0 if union_total == 0 else inter_total / union_total
    prec = {x: float(np.mean([iou >= x for iou in ious])) for x in PRECISION_LEVELS}
    return MaskMetrics(oiou=float(oiou), miou=float(np.mean(ious)), prec_at=prec)
