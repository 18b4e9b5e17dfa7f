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
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dual_region import DualRegionParams
from .errors import FormatError, InvalidArgument, QuantizationError
from .outlier_groups import GroupedQuantParams, QuantGroup
from .report import CalibrationReport, json_float
from .tensor import MAX_RANK, Tensor, TensorLike, as_tensor
from .uniform import QuantParams, real

MAGIC = b"PTQ4"
VERSION = 1
DTYPE_FLOAT32 = 0
DTYPE_INT32 = 1
PARAMS_FORMAT = "ptqkit-params"
PARAMS_VERSION = 1


def _write(path, dtype_tag: int, arr: np.ndarray, fmt: str) -> None:
    """`arr` as a dump at `path`: the header, then the payload as `fmt` values in row-major order."""
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack(f"<HBB{arr.ndim}I", VERSION, dtype_tag, arr.ndim, *arr.shape))
        fh.write(np.ascontiguousarray(arr, fmt))


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


def _read_payload(path, dtype_tag: int, np_dtype, what: str) -> np.ndarray:
    """The payload of the dump at `path`, which must hold `what`, in a fresh array of its own: one
    readinto, once the bytes left in the file match the dims, so a malformed header allocates nothing.
    Each FormatError names `path` first."""
    try:
        with open(path, "rb") as fh:
            tag, dims = _read_header(fh)
            if tag != dtype_tag:
                raise FormatError(f"expected {what}")
            size = 4 * math.prod(dims)
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if left != size:
                raise FormatError(f"payload holds {left} bytes, dims {dims} require {size}")
            arr = np.empty(dims, np_dtype)
            if fh.readinto(arr) != size:
                raise FormatError("truncated file while reading payload")
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return arr


def write_dump(t: TensorLike, path) -> None:
    """`t` as a float32 dump from its own buffer: an array gets a Tensor's checks, not its copy."""
    arr = np.asarray(t.array if isinstance(t, Tensor) else t, dtype=np.float32)
    if arr.ndim > MAX_RANK or arr.size == 0 or not np.isfinite(arr).all():
        as_tensor(arr)  # raises the Tensor's error
    _write(path, DTYPE_FLOAT32, arr, "<f4")


def read_dump(path) -> Tensor:
    return Tensor._owning(_read_payload(path, DTYPE_FLOAT32, "<f4", "a float32 dump"))


def write_code_dump(codes: np.ndarray, path) -> None:
    arr = np.asarray(codes, dtype=np.int32)
    if arr.ndim > MAX_RANK:
        raise InvalidArgument(f"rank {arr.ndim} exceeds supported maximum {MAX_RANK}")
    _write(path, DTYPE_INT32, arr, "<i4")


def read_code_dump(path) -> np.ndarray:
    return _read_payload(path, DTYPE_INT32, "<i4", "an int32 code dump")


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


def _upper(value) -> float:
    """A group threshold: a positive number, or the "inf" the writer emits."""
    upper = math.inf if value == "inf" else real("upper", value)
    if not upper > 0:
        raise InvalidArgument(f'upper must be a positive number or "inf", got {value!r}')
    return upper


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
            QuantGroup(upper=_upper(g["upper"]), params=quantizer_from_dict(g["params"]))
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
    except (ValueError, RecursionError) as exc:  # undecodable text, bad JSON or too deeply nested
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
