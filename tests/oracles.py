"""Scalar, element-by-element codecs of the dual-region and outlier-group
quantizers: the references the tests hold the vectorized codecs to.

They code one float at a time with their own region and group rules and
import nothing from `ptqkit.search`, whose piecewise-uniform codec
`_pieces_into` runs both quantizers in the library. No library module
imports this one, so the library cannot call its own oracles.
"""

import numpy as np

from ptqkit.dual_region import DualRegionCode, DualRegionParams
from ptqkit.errors import InvalidArgument
from ptqkit.outlier_groups import GroupedQuantParams
from ptqkit.uniform import dequantize_array, quantize_array


def assign_region(x: float, p: DualRegionParams) -> int:
    """0 for R1, 1 for R2. Softmax sends x < boundary to R1; GeLU sends
    negatives to R1 and everything >= 0 (zero included) to R2."""
    if p.kind == "softmax":
        return 0 if x < p.boundary else 1
    return 0 if x < 0.0 else 1


def dual_region_quantize(x: float, p: DualRegionParams) -> DualRegionCode:
    region = assign_region(x, p)
    scale = p.scale_r1 if region == 0 else p.scale_r2
    magnitude = max(x, 0.0) if p.kind == "softmax" else abs(x)
    value = int(np.clip(np.rint(magnitude / scale), 0, p.value_max))
    return DualRegionCode(region=region, value=value)


def dual_region_dequantize(code: DualRegionCode, p: DualRegionParams) -> float:
    scale = p.scale_r1 if code.region == 0 else p.scale_r2
    magnitude = code.value * scale
    if p.kind == "gelu" and code.region == 0:
        return -magnitude
    return magnitude


def group_index(x: float, p: GroupedQuantParams) -> int:
    """First group whose upper threshold covers |x| (last group catches all)."""
    return int(np.searchsorted(p.thresholds, abs(x), side="left"))


def grouped_quantize(x: float, p: GroupedQuantParams) -> tuple[int, int]:
    gi = group_index(x, p)
    code = int(quantize_array(np.asarray([x]), p.groups[gi].params)[0])
    return gi, code


def grouped_dequantize(group: int, code: int, p: GroupedQuantParams) -> float:
    if not 0 <= group < len(p.groups):
        raise InvalidArgument(f"group index {group} out of range")
    return float(dequantize_array(np.asarray([code]), p.groups[group].params)[0])
