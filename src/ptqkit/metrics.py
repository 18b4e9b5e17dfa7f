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


def mask_metrics(
    pred_masks: Sequence[TensorLike],
    gt_masks: Sequence[TensorLike],
) -> MaskMetrics:
    """Overall IoU (set level), mean per-pair IoU, and precision@X for X in PRECISION_LEVELS."""
    if len(pred_masks) != len(gt_masks) or not pred_masks:
        raise InvalidArgument("need one or more prediction/ground-truth pairs")
    inters, unions = [], []
    for pred_raw, gt_raw in zip(pred_masks, gt_masks):
        pred = _as_mask(pred_raw)
        gt = _as_mask(gt_raw)
        if pred.shape != gt.shape:
            raise ShapeError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
        inters.append(int(np.logical_and(pred, gt).sum()))
        unions.append(int(np.logical_or(pred, gt).sum()))
    # a pair of empty masks (union 0) is a perfect match
    ious = [1.0 if u == 0 else i / u for i, u in zip(inters, unions)]
    oiou = 1.0 if sum(unions) == 0 else sum(inters) / sum(unions)
    prec = {x: float(np.mean([iou >= x for iou in ious])) for x in PRECISION_LEVELS}
    return MaskMetrics(oiou=float(oiou), miou=float(np.mean(ious)), prec_at=prec)
