"""Binary activation dumps and the structured parameter/report files.

Dump layout (little-endian throughout):

    magic   4 bytes  b"PTQ4"
    version u16      currently 1
    dtype   u8       the payload's dtype tag: 0 = float32 (activation dumps); for
                     integer code dumps 1 = int32, 2 = int8, 3 = uint8, 4 = int16,
                     5 = uint16
    rank    u8       number of dimensions (<= 4)
    dims    rank*u32
    payload row-major values, each of its dtype's width (1, 2 or 4 bytes)

A code dump stores a quantizer's codes in the narrowest integer dtype that
holds its code range (`uniform.code_dtype`), the dtype its `encode` gives.

Parameter and report files are JSON with sorted keys; scales round-trip at
full precision via repr, and infinite thresholds/SQNR values are encoded as
the strings "inf"/"-inf".
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dual_region import DualRegionParams
from .errors import EmptyInput, FormatError, InvalidArgument, QuantizationError
from .outlier_groups import GroupedQuantParams, QuantGroup
from .report import CalibrationReport, json_float
from .tensor import MAX_RANK, Tensor, TensorLike, _real
from .uniform import CHUNK_ELEMS, QuantParams, real

MAGIC = b"PTQ4"
VERSION = 1
DTYPES = tuple(map(np.dtype, ("<f4", "<i4", "i1", "u1", "<i2", "<u2")))  # a payload's dtype, by its tag
DTYPE_FLOAT32 = 0
DTYPE_INT32 = 1
CODE_TAGS = range(DTYPE_INT32, len(DTYPES))  # the tags of integer code payloads
PARAMS_FORMAT = "ptqkit-params"
PARAMS_VERSION = 1


def code_tag(dtype) -> int:
    """The tag under which codes of `dtype` are stored: their own, or int32's for a dtype with no tag."""
    dtype = np.dtype(dtype)
    return next((tag for tag in CODE_TAGS if DTYPES[tag] == dtype), DTYPE_INT32)


def _check_codes(values: np.ndarray, dtype: np.dtype) -> None:
    """Refuses codes that do not truncate into the integer `dtype`: a NaN or an infinity among them
    too, whatever the dtype of `values` (the min and max of an object array skip a NaN)."""
    info = np.iinfo(dtype)
    try:
        wide = values.astype(np.float64) if values.dtype == object else values
        fits = info.min - 1 < float(wide.min()) <= float(wide.max()) < info.max + 1  # a NaN compares false
    except OverflowError:  # an int past float64
        fits = False
    if not fits:
        raise InvalidArgument(f"codes must be finite and fit {dtype.name}")


@contextmanager
def dump_writer(path, dtype_tag: int, dims):
    """`put(start, values)` into the dump at `path`, whose header for `dims` is written first: it writes
    `values`, flattened, to the row-major payload from element `start` on, cast to the dtype of
    `dtype_tag` (see DTYPES). The body of the `with` puts every element. It refuses what the readers
    refuse: `dims` that `_read_header` would, before the file is opened, non-real `values` (see
    `tensor._real`), a NaN or an infinity in a float32 payload once cast, and a code that does not
    truncate into the tag's integer dtype, a NaN or an infinity among them; a block already in a dtype
    that casts to it safely, such as a codec's block in the tag's own dtype, takes no pass for that.

    An existing regular file is overwritten in place: sized to the header and payload before the first
    `put`, not truncated to zero (freeing and discarding its blocks cost more than the write), so its
    bytes end as those of a fresh write. A file that is not regular, such as /dev/null, is never sized
    or removed. If `put` or the body of the `with` raises, a regular file is removed, so no dump is
    left. Nothing is synced to disk."""
    if len(dims) > MAX_RANK:
        raise InvalidArgument(f"rank {len(dims)} exceeds supported maximum {MAX_RANK}")
    if 0 in dims:
        raise EmptyInput(f"tensor has no elements, shape {tuple(dims)}")
    dtype = DTYPES[dtype_tag]
    header = MAGIC + struct.pack(f"<HBB{len(dims)}I", VERSION, dtype_tag, len(dims), *dims)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        if regular:
            fh.truncate(len(header) + dtype.itemsize * math.prod(dims))
        fh.write(header)

        def put(start: int, values) -> None:
            values = _real(values)
            if dtype_tag != DTYPE_FLOAT32 and not np.can_cast(values.dtype, dtype):
                _check_codes(values, dtype)
            with np.errstate(over="ignore"):  # a value past the float32 maximum is inf, refused below
                values = np.ascontiguousarray(values, dtype)
            if dtype_tag == DTYPE_FLOAT32 and not np.isfinite(values).all():  # a Tensor's rule, in one pass
                raise InvalidArgument("tensor contains NaN or Inf")
            fh.seek(len(header) + dtype.itemsize * start)
            fh.write(values)

        try:
            yield put
        except BaseException:
            fh.close()
            if regular:
                os.remove(path)
            raise


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
    if dtype_tag >= len(DTYPES):
        raise FormatError(f"unsupported dtype tag {dtype_tag}")
    if rank > MAX_RANK:
        raise FormatError(f"rank {rank} exceeds supported maximum {MAX_RANK}")
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims"))
    if any(d == 0 for d in dims):
        raise FormatError(f"zero-sized dimension in {dims}")
    return dtype_tag, dims


@contextmanager
def _payload(path, tags, what: str):
    """The dump at `path`, which must hold `what`, one of `tags`, open at its payload, with its dtype
    and dims: once the bytes left in the file match the dims at that dtype's width, so a malformed
    header reads no payload and allocates nothing. A FormatError of the header names `path` first."""
    with open(path, "rb") as fh:
        try:
            tag, dims = _read_header(fh)
            if tag not in tags:
                raise FormatError(f"expected {what}")
            size = DTYPES[tag].itemsize * math.prod(dims)
            left = os.fstat(fh.fileno()).st_size - fh.tell()
            if left != size:
                raise FormatError(f"payload holds {left} bytes, dims {dims} require {size}")
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None
        yield fh, DTYPES[tag], dims


def _read_into(path, fh, out: np.ndarray) -> None:
    if fh.readinto(out) != out.nbytes:
        raise FormatError(f"{path}: truncated file while reading payload")


def _read_payload(path, tags, what: str) -> np.ndarray:
    """The payload of the dump at `path`, which must hold `what`, in a fresh array of its own and its
    stored dtype: one readinto."""
    with _payload(path, tags, what) as (fh, dtype, dims):
        arr = np.empty(dims, dtype)
        _read_into(path, fh, arr)
    return arr


@contextmanager
def dump_blocks(path):
    """(dims, read) of the float32 dump at `path`, once its header and payload size check out:
    `read(start, stop)` reads elements [start, stop) of the row-major payload, at most CHUNK_ELEMS,
    into one reused float32 buffer and gives them widened to float64 in another, which the next
    read overwrites. No copy of the whole payload is made. A NaN or an infinity is an error."""
    with _payload(path, (DTYPE_FLOAT32,), "a float32 dump") as (fh, _, dims):
        payload, n = fh.tell(), min(math.prod(dims), CHUNK_ELEMS)
        f32, f64 = np.empty(n, "<f4"), np.empty(n)

        def read(start: int, stop: int) -> np.ndarray:
            block, wide = f32[: stop - start], f64[: stop - start]
            fh.seek(payload + 4 * start)
            _read_into(path, fh, block)
            if not np.isfinite(block).all():  # as a Tensor checks its values
                raise InvalidArgument("tensor contains NaN or Inf")
            np.copyto(wide, block)
            return wide

        yield dims, read


def write_dump(t: TensorLike, path) -> None:
    """`t`, a Tensor or real values, as a float32 dump, written from its own buffer where it is float32."""
    arr = t.array if isinstance(t, Tensor) else np.asarray(t)
    with dump_writer(path, DTYPE_FLOAT32, arr.shape) as put:
        put(0, arr)


def read_dump(path) -> Tensor:
    return Tensor._owning(_read_payload(path, (DTYPE_FLOAT32,), "a float32 dump"))


def write_code_dump(codes: np.ndarray, path) -> None:
    """`codes` as a code dump, stored in their own dtype where it has a tag (int8, uint8, int16, uint16
    or int32; an `encode` gives the narrowest that holds its quantizer's code range), else as int32."""
    with dump_writer(path, code_tag(np.asarray(codes).dtype), np.shape(codes)) as put:
        put(0, codes)


def read_code_dump(path) -> np.ndarray:
    """The codes of the code dump at `path`, in a fresh array of its stored dtype: any integer tag,
    int32 among them, as every code dump before the narrow tags was written."""
    return _read_payload(path, CODE_TAGS, "an integer code dump")


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
