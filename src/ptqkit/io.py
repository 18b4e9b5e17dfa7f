"""Binary activation dumps and the structured parameter/report files.

Dump layout (little-endian throughout):

    magic   4 bytes  b"PTQ4"
    version u16      currently 1
    dtype   u8       0 = float32, 1 = int32 (integer code dumps)
    rank    u8       number of dimensions (<= 4)
    dims    rank*u32
    payload row-major values, 4 bytes each

Parameter and report files are JSON with sorted keys; scales round-trip at
full precision via repr, and infinite thresholds/SQNR values are encoded as
the strings "inf"/"-inf".
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dual_region import DualRegionParams
from .errors import FormatError, InvalidArgument, QuantizationError
from .outlier_groups import GroupedQuantParams, QuantGroup
from .report import CalibrationReport, json_float
from .tensor import MAX_RANK, Tensor, TensorLike, as_tensor
from .uniform import QuantParams

MAGIC = b"PTQ4"
VERSION = 1
DTYPE_FLOAT32 = 0
DTYPE_INT32 = 1
PARAMS_FORMAT = "ptqkit-params"
PARAMS_VERSION = 1


def _write_header(fh, dtype_tag: int, shape: tuple[int, ...]) -> None:
    fh.write(MAGIC)
    fh.write(struct.pack("<HBB", VERSION, dtype_tag, len(shape)))
    fh.write(struct.pack(f"<{len(shape)}I", *shape))


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file while reading {what}")
    return data


def _read_header(fh) -> tuple[int, tuple[int, ...]]:
    magic = _read_exact(fh, 4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    version, dtype_tag, rank = struct.unpack("<HBB", _read_exact(fh, 4, "header"))
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if dtype_tag not in (DTYPE_FLOAT32, DTYPE_INT32):
        raise FormatError(f"unsupported dtype tag {dtype_tag}")
    if rank > MAX_RANK:
        raise FormatError(f"rank {rank} exceeds supported maximum {MAX_RANK}")
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims"))
    if any(d == 0 for d in dims):
        raise FormatError(f"zero-sized dimension in {dims}")
    return dtype_tag, dims


def _read_payload(fh, dims: tuple[int, ...], np_dtype) -> np.ndarray:
    count = math.prod(dims) if dims else 1
    payload = fh.read()
    if len(payload) != 4 * count:
        raise FormatError(
            f"payload holds {len(payload)} bytes, dims {dims} require {4 * count}"
        )
    return np.frombuffer(payload, dtype=np_dtype).reshape(dims)


def write_dump(t: TensorLike, path) -> None:
    tensor = as_tensor(t)
    with open(path, "wb") as fh:
        _write_header(fh, DTYPE_FLOAT32, tensor.shape)
        fh.write(tensor.array.astype("<f4").tobytes())


def read_dump(path) -> Tensor:
    with open(path, "rb") as fh:
        dtype_tag, dims = _read_header(fh)
        if dtype_tag != DTYPE_FLOAT32:
            raise FormatError("expected a float32 dump")
        return Tensor.from_array(_read_payload(fh, dims, "<f4"))


def write_code_dump(codes: np.ndarray, path) -> None:
    arr = np.asarray(codes, dtype=np.int32)
    if arr.ndim > MAX_RANK:
        raise InvalidArgument(f"rank {arr.ndim} exceeds supported maximum {MAX_RANK}")
    with open(path, "wb") as fh:
        _write_header(fh, DTYPE_INT32, arr.shape)
        fh.write(arr.astype("<i4").tobytes())


def read_code_dump(path) -> np.ndarray:
    with open(path, "rb") as fh:
        dtype_tag, dims = _read_header(fh)
        if dtype_tag != DTYPE_INT32:
            raise FormatError("expected an int32 code dump")
        return _read_payload(fh, dims, "<i4").copy()


def quantizer_to_dict(params) -> dict:
    if isinstance(params, QuantParams):
        return {  # tolist() gives a float and an int per tensor, lists per channel
            "kind": "uniform",
            "bits": params.bits,
            "signed": params.signed,
            "scale": np.asarray(params.scale).tolist(),
            "zero_point": np.asarray(params.zero_point).tolist(),
            "axis": params.axis,
        }
    if isinstance(params, DualRegionParams):
        return {
            "kind": "dual_region",
            "region": params.kind,
            "bits": params.bits,
            "scale_r2": float(params.scale_r2),
            "shift_m": params.shift_m,
            "fallback_uniform": params.fallback_uniform,
        }
    if isinstance(params, GroupedQuantParams):
        return {
            "kind": "outlier_groups",
            "bits": params.bits,
            "max_iters": params.max_iters,
            "mad_fallbacks": list(params.mad_fallbacks),
            "groups": [
                {"upper": json_float(g.upper), "params": quantizer_to_dict(g.params)}
                for g in params.groups
            ],
        }
    raise InvalidArgument(f"cannot serialize {type(params).__name__}")


def quantizer_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "uniform":  # QuantParams makes arrays of per-channel lists
        return QuantParams(d["scale"], d["zero_point"], d["bits"], d["signed"], d["axis"])
    if kind == "dual_region":
        return DualRegionParams(
            kind=d["region"],
            bits=d["bits"],
            scale_r2=d["scale_r2"],
            shift_m=d["shift_m"],
            fallback_uniform=d.get("fallback_uniform", False),
        )
    if kind == "outlier_groups":
        groups = tuple(
            QuantGroup(upper=float(g["upper"]), params=quantizer_from_dict(g["params"]))
            for g in d["groups"]
        )
        return GroupedQuantParams(
            bits=d["bits"],
            groups=groups,
            max_iters=d["max_iters"],
            mad_fallbacks=d.get("mad_fallbacks", ()),
        )
    raise FormatError(f"unknown quantizer kind {kind!r}")


@dataclass
class ParamDoc:
    """Parsed parameter file: per-hook quantizers plus optional weights."""

    hooks: dict[str, object] = field(default_factory=dict)
    weights: dict[str, object] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _dumps_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def emit_params(doc: ParamDoc, path) -> None:
    payload = {
        "format": PARAMS_FORMAT,
        "version": PARAMS_VERSION,
        "hooks": {name: quantizer_to_dict(p) for name, p in doc.hooks.items()},
        "weights": {name: quantizer_to_dict(p) for name, p in doc.weights.items()},
        "meta": doc.meta,
    }
    Path(path).write_text(_dumps_json(payload))


def parse_params(path) -> ParamDoc:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed parameter file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != PARAMS_FORMAT:
        raise FormatError("not a ptqkit parameter file")
    if payload.get("version") != PARAMS_VERSION:
        raise FormatError(f"unsupported parameter file version {payload.get('version')}")
    try:
        hooks = {n: quantizer_from_dict(d) for n, d in payload.get("hooks", {}).items()}
        weights = {n: quantizer_from_dict(d) for n, d in payload.get("weights", {}).items()}
    except (QuantizationError, KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise FormatError(f"malformed quantizer entry: {type(exc).__name__}: {exc}") from None
    return ParamDoc(hooks=hooks, weights=weights, meta=payload.get("meta", {}))


def report_to_text(report: CalibrationReport) -> str:
    return _dumps_json(report.to_dict())


def write_report(report: CalibrationReport, path) -> None:
    Path(path).write_text(report_to_text(report))
