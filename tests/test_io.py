import json
import math
import os
import re
import struct
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ptqkit import io as pio
from ptqkit.cli import main
from ptqkit.dual_region import DualRegionParams
from ptqkit.errors import FormatError, InvalidArgument, QuantizationError
from ptqkit.generate import synth
from ptqkit.io import (
    ParamDoc,
    quantizer_to_dict,
    emit_params,
    parse_params,
    read_code_dump,
    read_dump,
    write_code_dump,
    write_dump,
)
from ptqkit.metrics import mask_metrics
from ptqkit.outlier_groups import GroupedQuantParams, QuantGroup, calibrate_grouped
from ptqkit.tensor import Tensor
from ptqkit.uniform import QuantParams, make_params


class TestDumpFormat:
    def test_header_arithmetic(self, tmp_path):
        path = tmp_path / "t.dump"
        write_dump(Tensor.from_array([1.0, 2.0]), path)
        assert path.stat().st_size == 4 + 2 + 1 + 1 + 4 + 8

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        t = Tensor.from_array(rng.standard_normal((3, 5, 2)).astype(np.float32))
        path = tmp_path / "t.dump"
        write_dump(t, path)
        back = read_dump(path)
        assert back.shape == t.shape
        assert np.array_equal(back.data, t.data)

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "t.dump"
        write_dump(Tensor.from_array([1.0]), path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_dump(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.dump"
        write_dump(Tensor.from_array([1.0, 2.0, 3.0]), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError):
            read_dump(path)

    def test_code_dump_of_rank_five_rejected(self, tmp_path):
        with pytest.raises(InvalidArgument, match="^rank 5 exceeds supported maximum 4$"):
            write_code_dump(np.zeros((1,) * 5, dtype=np.int32), tmp_path / "c.codes")
        assert not (tmp_path / "c.codes").exists()

    def test_bad_version(self, tmp_path):
        path = tmp_path / "t.dump"
        write_dump(Tensor.from_array([1.0]), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_dump(path)

    def test_unknown_dtype_tag(self, tmp_path):
        path = tmp_path / "t.dump"
        write_dump(Tensor.from_array([1.0]), path)
        raw = bytearray(path.read_bytes())
        raw[6] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_dump(path)

    def test_dim_payload_mismatch(self, tmp_path):
        path = tmp_path / "t.dump"
        write_dump(Tensor.from_array([1.0, 2.0]), path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (1000).to_bytes(4, "little")  # inflate the dim
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_dump(path)

    def test_code_dump_roundtrip(self, tmp_path):
        codes = np.arange(-8, 8, dtype=np.int32).reshape(4, 4)
        path = tmp_path / "c.dump"
        write_code_dump(codes, path)
        back = read_code_dump(path)
        assert np.array_equal(back, codes)

    def test_arrays_are_written_without_a_copy_in_the_staged_bytes(self, tmp_path):
        """An array, a transposed view or a Tensor writes the row-major little-endian bytes the
        staged `astype(...).tobytes()` copies wrote, after the same header."""
        x = np.random.default_rng(0).standard_normal((6, 5)).astype(np.float32)
        codes = np.arange(-15, 15, dtype=np.int32).reshape(5, 6)
        for values in (x, x.T, x.astype(np.float64), Tensor.from_array(x)):
            write_dump(values, tmp_path / "x.dump")
            want = np.asarray(getattr(values, "array", values), dtype="<f4")
            header = b"PTQ4" + bytes([1, 0, 0, 2]) + b"".join(d.to_bytes(4, "little") for d in want.shape)
            assert (tmp_path / "x.dump").read_bytes() == header + want.tobytes()
        for values in (codes, codes.T):
            write_code_dump(values, tmp_path / "c.dump")
            header = b"PTQ4" + bytes([1, 0, 1, 2]) + b"".join(d.to_bytes(4, "little") for d in values.shape)
            assert (tmp_path / "c.dump").read_bytes() == header + values.astype("<i4").tobytes()

    @pytest.mark.parametrize(
        "values, error",
        [([1.0, np.nan], "NaN or Inf"), (np.zeros((0, 3)), "no elements"), (np.ones((1,) * 5), "rank 5 exceeds")],
    )
    def test_array_gets_the_checks_of_a_tensor(self, tmp_path, values, error):
        with pytest.raises(QuantizationError, match=error):
            write_dump(values, tmp_path / "x.dump")
        assert not (tmp_path / "x.dump").exists()

    @pytest.mark.parametrize("shape", [(2,) * rank for rank in range(6)] + [(2,) * rank + (0,) for rank in range(5)],
                             ids=str)
    @pytest.mark.parametrize("kind", ["ints", "floats", "nan", "inf", "past-float32", "strings"])
    @pytest.mark.parametrize("write, read, dtype", [(write_dump, read_dump, np.float32),
                                                    (write_code_dump, read_code_dump, np.int32)], ids=["dump", "codes"])
    def test_the_writer_refuses_what_the_reader_refuses(self, tmp_path, shape, kind, write, read, dtype):
        """Each array of ranks 0-5, with and without a zero dimension, is refused with one error,
        leaving no file, exactly where its dump would be refused on reading, where a float32 payload
        holds a NaN or an inf once cast, or where a code does not truncate into int32; otherwise it
        reads back as its cast, with no warning."""
        values = np.arange(-3, math.prod(shape) - 3)
        if kind != "ints":
            values = values * 0.5
        if values.size and kind in ("nan", "inf", "past-float32"):
            values[-1] = {"nan": np.nan, "inf": -np.inf, "past-float32": 1e39}[kind]
        values = (values.astype(str) if kind == "strings" else values).reshape(shape)
        path = tmp_path / "x.dump"
        if len(shape) > 4:
            refusal = f"rank {len(shape)} exceeds supported maximum 4"
        elif 0 in shape:
            refusal = f"tensor has no elements, shape {shape}"
        elif kind == "strings":
            refusal = f"input must hold real numbers, got dtype {values.dtype}"
        elif kind in ("nan", "inf", "past-float32"):
            refusal = "tensor contains NaN or Inf" if dtype == np.float32 else "codes must be finite and fit int32"
        else:
            refusal = None
        if refusal:
            with pytest.raises(QuantizationError, match=f"^{re.escape(refusal)}$"):
                write(values, path)
            assert not path.exists()
        else:
            write(values, path)
            back = read(path)
            back = getattr(back, "array", back)
            assert back.shape == shape and back.tobytes() == values.astype(dtype).tobytes()

    @pytest.mark.parametrize("codes", [[np.nan, np.inf, 3e9, 2**40], np.array([2**40, -2**33]),
                                       np.array([2**31], np.uint32), [-2.0**31 - 1]],
                             ids=["floats", "int64", "uint32", "below-int32"])
    def test_a_code_past_int32_is_refused(self, tmp_path, codes):
        """Cast, each read back as a wrapped or undefined int32 (-2147483648 or 0), with at most a warning."""
        with pytest.raises(InvalidArgument, match="^codes must be finite and fit int32$"):
            write_code_dump(codes, tmp_path / "c.dump")
        assert not (tmp_path / "c.dump").exists()

    def test_codes_at_the_int32_limits_are_kept(self, tmp_path):
        """Floats truncate toward zero, as the cast does, so -2^31 - 0.5 and 2^31 - 0.5 are kept."""
        for codes in (np.array([-2**31, 2**31 - 1]), np.array([-2.0**31 - 0.5, 2.0**31 - 0.5])):
            write_code_dump(codes, tmp_path / "c.dump")
            assert read_code_dump(tmp_path / "c.dump").tolist() == [-2**31, 2**31 - 1]

    def test_code_and_float_dumps_not_interchangeable(self, tmp_path):
        path = tmp_path / "c.dump"
        write_code_dump(np.asarray([1, 2], dtype=np.int32), path)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: expected a float32 dump$"):
            read_dump(path)
        write_dump(Tensor.from_array([1.0, 2.0]), path)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: expected an integer code dump$"):
            read_code_dump(path)

    @pytest.mark.parametrize(
        "dims, tail",
        [((4, 2**32 - 1), b""), ((2**20, 2**20, 2**10), b""), ((2, 3), b"\0" * 4)],
        ids=["past-numpy-dims", "past-memory", "trailing-bytes"],
    )
    def test_malformed_payload_is_one_format_error(self, tmp_path, capsys, dims, tail):
        """A header claiming more than the file holds is rejected before anything is allocated,
        and 4 bytes past a valid payload are rejected too: through `evaluate`, one error line."""
        path = tmp_path / "t.dump"
        write_dump(np.ones((2, 3), dtype=np.float32), path)
        header = b"PTQ4" + bytes([1, 0, 0, len(dims)]) + b"".join(d.to_bytes(4, "little") for d in dims)
        path.write_bytes(header + path.read_bytes()[16:] + tail)
        message = f"{path}: payload holds {24 + len(tail)} bytes, dims {dims} require {4 * math.prod(dims)}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            read_dump(path)
        assert main(["evaluate", "--a", str(path), "--b", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_payload_shorter_than_its_size_check_saw_is_one_format_error(self, tmp_path, capsys, monkeypatch):
        """A file that shrinks between the size check and the read (`os.fstat` as `ptqkit.io`
        sees it reports the untruncated size) fails on the short read: through `evaluate`, one error line."""
        path = tmp_path / "t.dump"
        write_dump(np.ones((2, 3), dtype=np.float32), path)
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-4])
        monkeypatch.setattr(pio, "os", SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=full)))
        message = f"{path}: truncated file while reading payload"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            read_dump(path)
        assert main(["evaluate", "--a", str(path), "--b", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_read_dump_is_read_only(self, tmp_path):
        write_dump(Tensor.from_array([1.0, 2.0]), tmp_path / "t.dump")
        t = read_dump(tmp_path / "t.dump")
        with pytest.raises(ValueError):
            t.data[0] = 5.0
        with pytest.raises(ValueError):
            t.array[0] = 5.0

    def test_read_code_dump_is_a_writeable_array_of_its_own(self, tmp_path):
        write_code_dump(np.arange(6, dtype=np.int32).reshape(2, 3), tmp_path / "c.dump")
        codes = read_code_dump(tmp_path / "c.dump")
        assert codes.flags.writeable and codes.flags.owndata
        codes[0, 0] = 7
        assert codes.tolist() == [[7, 1, 2], [3, 4, 5]]

    def test_traced_peak_of_reading_a_gelu_dump(self, tmp_path):
        """The payload is read once, into the array the Tensor keeps: reading a 256x3072 GeLU
        dump peaks at its 3.15 MB payload and little more. Reading the bytes, then copying them
        into the Tensor, peaked at 7.1 MB."""
        path = tmp_path / "g.dump"
        write_dump(synth("gelu", (256, 3072), 0), path)
        tracemalloc.start()
        try:
            t = read_dump(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.shape == (256, 3072)
        assert peak < 1.25 * 4 * 256 * 3072, f"traced peak {peak / 1e6:.2f} MB"


class TestCodeDumpFormat:
    """Code dumps store each code at its dtype's width under one tag per dtype; int32 dumps, the
    only code dumps written before the narrow tags, stay readable."""

    @staticmethod
    def dump_bytes(tag: int, dims: tuple, payload: bytes) -> bytes:
        """A dump's bytes laid out field by field, as the format describes them, by no writer."""
        return b"PTQ4" + struct.pack("<HBB", 1, tag, len(dims)) + struct.pack(f"<{len(dims)}I", *dims) + payload

    @pytest.mark.parametrize("dims", [(16, 16), (16, 64), (2, 1024), (16, 32)],
                             ids=["softmax", "gelu", "grouped", "uniform"])  # those of the golden quantize run
    def test_an_int32_code_dump_of_the_earlier_format_reads_back(self, tmp_path, dims):
        codes = [(7 * i) % 256 - 3 for i in range(math.prod(dims))]
        path = tmp_path / "c.codes"
        path.write_bytes(self.dump_bytes(1, dims, struct.pack(f"<{len(codes)}i", *codes)))
        back = read_code_dump(path)
        assert back.dtype == np.int32 and back.shape == dims and back.reshape(-1).tolist() == codes

    @pytest.mark.parametrize("tag", [6, 7, 255])
    def test_an_unknown_tag_is_one_format_error_naming_the_file(self, tmp_path, tag):
        path = tmp_path / "c.codes"
        path.write_bytes(self.dump_bytes(tag, (4,), bytes(4)))
        for read in (read_code_dump, read_dump):
            with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: unsupported dtype tag {tag}$"):
                read(path)

    @pytest.mark.parametrize("tag, width, stored", [(3, 1, 4), (5, 2, 1), (2, 1, 2), (1, 4, 2), (4, 2, 4)])
    def test_a_payload_sized_for_another_width_is_one_format_error_naming_the_file(self, tmp_path, tag, width,
                                                                                 stored):
        path = tmp_path / "c.codes"
        path.write_bytes(self.dump_bytes(tag, (3, 5), bytes(stored * 15)))
        want = f"{path}: payload holds {stored * 15} bytes, dims (3, 5) require {width * 15}"
        with pytest.raises(FormatError, match=f"^{re.escape(want)}$"):
            read_code_dump(path)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16, object])
    def test_a_nan_code_is_refused_whatever_its_dtype(self, tmp_path, dtype):
        """The min and max of an object array skip a NaN; every dtype gets the one InvalidArgument,
        under every integer tag, and no file."""
        path = tmp_path / "c.codes"
        for codes in (np.array([1.0, np.nan, 2.0], dtype=dtype), np.array([np.nan, 1.0], dtype=dtype)):
            with pytest.raises(InvalidArgument, match="^codes must be finite and fit int32$"):
                write_code_dump(codes, path)
            assert not path.exists()
            for tag in pio.CODE_TAGS:
                with pytest.raises(InvalidArgument, match=f"^codes must be finite and fit {pio.DTYPES[tag].name}$"):
                    with pio.dump_writer(path, tag, codes.shape) as put:
                        put(0, codes)
                assert not path.exists()

    def test_an_int_past_float64_in_an_object_array_is_refused(self, tmp_path):
        with pytest.raises(InvalidArgument, match="^codes must be finite and fit int32$"):
            write_code_dump(np.array([1, 10**400], dtype=object), tmp_path / "c.codes")
        assert not (tmp_path / "c.codes").exists()

    @pytest.mark.parametrize("dtype, tag", [("i1", 2), ("u1", 3), ("<i2", 4), ("<u2", 5), ("<i4", 1)])
    def test_codes_keep_their_own_dtype_and_tag(self, tmp_path, dtype, tag):
        info = np.iinfo(dtype)
        codes = np.array([[info.min, 0], [1, info.max]], dtype=dtype)
        path = tmp_path / "c.codes"
        write_code_dump(codes, path)
        assert path.read_bytes() == self.dump_bytes(tag, (2, 2), codes.astype(np.dtype(dtype).newbyteorder("<")).tobytes())
        back = read_code_dump(path)
        assert back.dtype == codes.dtype and back.tobytes() == codes.tobytes()


class TestOverwrite:
    """The writer overwrites an existing file in place, sized to the new dump, so the bytes are
    those of a fresh write; a refused write leaves no file. A file that is not regular is written,
    never sized or removed."""

    WRITES = [(write_dump, np.linspace(-1.0, 1.0, 12, dtype=np.float32).reshape(3, 4), write_code_dump),
              (write_code_dump, np.arange(-6, 6, dtype=np.int32).reshape(3, 4), write_dump)]

    @pytest.mark.parametrize("existing", ["longer", "shorter", "same-size", "other-dtype"])
    @pytest.mark.parametrize("write, values, other", WRITES, ids=["dump", "codes"])
    def test_an_existing_file_ends_as_a_fresh_write(self, tmp_path, write, values, other, existing):
        write(values, tmp_path / "fresh.dump")
        want = (tmp_path / "fresh.dump").read_bytes()
        path = tmp_path / "x.dump"

        def make_existing():
            if existing == "other-dtype":  # the same header size and payload size, the other tag
                other(np.full(values.shape, 7), path)
                assert path.read_bytes()[6] != want[6] and path.stat().st_size == len(want)
            else:
                path.write_bytes(b"\xff" * {"longer": 3 * len(want), "shorter": 5, "same-size": len(want)}[existing])

        make_existing()
        write(values, path)
        assert path.read_bytes() == want
        make_existing()
        with pytest.raises(InvalidArgument):
            write(np.array([1.0, np.nan]), path)
        assert not path.exists()

    def test_a_refused_write_to_a_device_removes_nothing(self, monkeypatch):
        removed = []
        monkeypatch.setattr(pio.os, "remove", removed.append)  # a real os.remove here would delete the device
        for write in (write_dump, write_code_dump):
            with pytest.raises(InvalidArgument):
                write(np.array([np.nan]), "/dev/null")
        assert removed == []

    def test_a_device_output_is_written_and_never_sized(self, tmp_path, capsys):
        """/dev/null is written and never sized: each output may be it. Both at once are one file,
        which quantize refuses before it writes."""
        src, params = tmp_path / "x.dump", tmp_path / "p.json"
        assert main(["synth", "--kind", "gelu", "--shape", "8x16", "--out", "/dev/null"]) == 0
        write_dump(synth("gelu", (8, 16), 0), src)
        emit_params(ParamDoc(hooks={"h": make_params(-1.0, 4.0, 8)}), params)
        argv = ["quantize", "--params", str(params), "--in", str(src)]
        assert main([*argv, "--out", str(tmp_path / "r.dump"), "--codes", str(tmp_path / "c.dump")]) == 0
        assert main([*argv, "--out", "/dev/null", "--codes", str(tmp_path / "c2.dump")]) == 0
        assert main([*argv, "--out", str(tmp_path / "r2.dump"), "--codes", "/dev/null"]) == 0
        assert (tmp_path / "c2.dump").read_bytes() == (tmp_path / "c.dump").read_bytes()
        assert (tmp_path / "r2.dump").read_bytes() == (tmp_path / "r.dump").read_bytes()
        capsys.readouterr()
        assert main([*argv, "--out", "/dev/null", "--codes", "/dev/null"]) == 1
        assert capsys.readouterr().err == "error: --out and --codes name the same file /dev/null\n"

    def test_no_dump_output_is_opened_with_o_trunc(self, tmp_path, monkeypatch):
        """Truncating an existing dump to zero frees and discards its blocks, which cost more than
        the write: every dump the package writes is opened through `os.open` without O_TRUNC."""
        opened, real_open = {}, pio.os.open

        def spy(path, flags, *args, **kwargs):
            opened[str(path)] = flags
            return real_open(path, flags, *args, **kwargs)

        src, params = tmp_path / "x.dump", tmp_path / "p.json"
        write_dump(synth("gelu", (8, 16), 0), src)
        emit_params(ParamDoc(hooks={"h": make_params(-1.0, 4.0, 8)}), params)
        outputs = [tmp_path / name for name in ("w.dump", "c.dump", "s.dump", "r.dump", "q.dump")]
        for path in outputs:
            path.write_bytes(b"\xff" * 4096)
        monkeypatch.setattr(pio.os, "open", spy)
        write_dump(np.ones(3), outputs[0])
        write_code_dump(np.ones(3, np.int32), outputs[1])
        assert main(["synth", "--kind", "gelu", "--shape", "8x16", "--out", str(outputs[2])]) == 0
        argv = ["quantize", "--params", str(params), "--in", str(src), "--out", str(outputs[3]), "--codes"]
        assert main([*argv, str(outputs[4])]) == 0
        assert {str(p) for p in outputs} <= opened.keys()
        assert not any(opened[str(p)] & os.O_TRUNC for p in outputs)



def _mutations(node):
    """Copies of a JSON value with one dict key dropped or one value replaced
    by a string, at every depth."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return
    for key in keys:
        for value in ("x", "8", *_mutations(node[key])):
            out = node.copy()
            out[key] = value
            yield out
        if isinstance(node, dict):
            yield {k: v for k, v in node.items() if k != key}


class TestParamFile:
    def test_unknown_quantizer_type_rejected(self):
        with pytest.raises(InvalidArgument, match="^cannot serialize Tensor$"):
            quantizer_to_dict(Tensor.from_array([1.0]))

    def _doc(self):
        grouped = GroupedQuantParams(
            bits=8,
            groups=(
                QuantGroup(1.5, make_params(-1.0, 1.5, 8, "asymmetric")),
                QuantGroup(math.inf, make_params(-9.0, 12.0, 8, "asymmetric")),
            ),
            max_iters=3,
            mad_fallbacks=(1,),
        )
        return ParamDoc(
            hooks={
                "softmax": DualRegionParams("softmax", 8, 1.0 / 127.0, 4),
                "text": grouped,
                "feat": make_params(-0.5, 2.0, 8, "asymmetric"),
            },
            weights={"w": QuantParams([1.0 / 127.0, 2.0 / 127.0], [0, 0], bits=8, signed=True, axis=0)},
            meta={"seed": 0},
        )

    def test_roundtrip_lossless(self, tmp_path):
        path = tmp_path / "params.json"
        doc = self._doc()
        emit_params(doc, path)
        back = parse_params(path)
        assert back.hooks["softmax"] == doc.hooks["softmax"]
        assert back.hooks["text"] == doc.hooks["text"]
        assert back.hooks["feat"] == doc.hooks["feat"]
        w = back.weights["w"]
        assert np.array_equal(np.asarray(w.scale), np.asarray(doc.weights["w"].scale))

    def test_emit_parse_emit_fixpoint(self, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        emit_params(self._doc(), p1)
        emit_params(parse_params(p1), p2)
        assert p1.read_text() == p2.read_text()

    def test_full_precision_scales_survive(self, tmp_path):
        scale = 1.0 / 3.0
        doc = ParamDoc(hooks={"h": make_params(0.0, scale * 255.0, 8, "asymmetric")})
        path = tmp_path / "p.json"
        emit_params(doc, path)
        assert parse_params(path).hooks["h"].scale == doc.hooks["h"].scale

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        for text in (b"{not json", b'{"format": "\xff"}', b"[" * 100_000 + b"]" * 100_000):
            path.write_bytes(text)
            with pytest.raises(FormatError):
                parse_params(path)
        path.write_text('{"format": "something-else"}')
        with pytest.raises(FormatError):
            parse_params(path)

    def test_malformed_entry_is_a_format_error(self, tmp_path):
        path = tmp_path / "p.json"
        emit_params(self._doc(), path)
        payload = json.loads(path.read_text())
        feat = payload["hooks"]["feat"]
        no_scale = {k: v for k, v in feat.items() if k != "scale"}
        for bad in (no_scale, {**feat, "bits": "8"}, [feat]):
            path.write_text(json.dumps({**payload, "hooks": {"feat": bad}}))
            with pytest.raises(FormatError):
                parse_params(path)

    def test_mutated_entries_raise_only_quantization_errors(self, tmp_path):
        path = tmp_path / "p.json"
        emit_params(self._doc(), path)
        payload = json.loads(path.read_text())
        entries = {**payload["hooks"], **payload["weights"]}
        arr = np.linspace(-1.0, 2.0, 6).reshape(2, 3)
        tried = 0
        for name, entry in entries.items():
            for bad in _mutations(entry):
                path.write_text(json.dumps({**payload, "hooks": {name: bad}, "weights": {}}))
                tried += 1
                try:
                    quantizer = parse_params(path).hooks[name]
                    quantizer.fake(arr)
                    quantizer.encode(arr)
                except QuantizationError:
                    pass
        assert tried > 100

    @pytest.mark.parametrize("signed", ["no", "false", 0, None])
    def test_non_bool_signed_is_a_format_error(self, tmp_path, signed):
        path = tmp_path / "p.json"
        emit_params(self._doc(), path)
        payload = json.loads(path.read_text())
        payload["hooks"]["feat"]["signed"] = signed
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="signed"):
            parse_params(path)

    @pytest.mark.parametrize("value", ["no", "true", 1, None])
    def test_non_bool_fallback_uniform_is_a_format_error(self, tmp_path, value):
        path = tmp_path / "p.json"
        emit_params(self._doc(), path)
        payload = json.loads(path.read_text())
        payload["hooks"]["softmax"]["fallback_uniform"] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="fallback_uniform must be a bool"):
            parse_params(path)

    @pytest.mark.parametrize("value", ["1.5", "-inf", "Infinity", "nan", True, None, [1.5], -1.5, 0.0, float("nan")])
    def test_group_upper_is_a_positive_number_or_inf(self, tmp_path, value):
        path = tmp_path / "p.json"
        emit_params(self._doc(), path)
        payload = json.loads(path.read_text())
        payload["hooks"]["text"]["groups"][0]["upper"] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="upper must be a"):
            parse_params(path)
        payload["hooks"]["text"]["groups"][0]["upper"] = 2  # a whole number reads as a float
        path.write_text(json.dumps(payload))
        assert parse_params(path).hooks["text"].groups[0].upper == 2.0

    @pytest.mark.parametrize("value", [[2, 0, 2], [1, 1], [2, 0]])
    def test_mad_fallbacks_must_strictly_increase(self, tmp_path, value):
        path = tmp_path / "p.json"
        emit_params(self._doc(), path)
        payload = json.loads(path.read_text())
        payload["hooks"]["text"]["mad_fallbacks"] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="mad_fallbacks must strictly increase"):
            parse_params(path)

    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN", "1e999"])
    @pytest.mark.parametrize(
        "section,entry,key",
        [("hooks", "feat", "scale"), ("weights", "w", "scale"), ("hooks", "softmax", "scale_r2")],
    )
    def test_non_finite_scale_is_a_format_error(self, tmp_path, literal, section, entry, key):
        path = tmp_path / "p.json"
        emit_params(self._doc(), path)
        payload = json.loads(path.read_text())
        quantizer = payload[section][entry]
        quantizer[key] = ["SCALE", 1.0] if isinstance(quantizer[key], list) else "SCALE"
        path.write_text(json.dumps(payload).replace('"SCALE"', literal))
        with pytest.raises(FormatError, match="finite"):
            parse_params(path)

    @pytest.mark.parametrize(
        "section,entry,key,value",
        [
            ("hooks", "feat", "bits", 8.5), ("hooks", "feat", "zero_point", 100.7),
            ("weights", "w", "zero_point", [0, 0.5]), ("hooks", "softmax", "shift_m", 4.5),
            ("hooks", "text", "max_iters", 3.5), ("hooks", "text", "bits", "8"), ("hooks", "feat", "axis", True),
            # max_iters = 3: a MAD fallback names iteration 0, 1 or 2
            *[("hooks", "text", "mad_fallbacks", v) for v in ("ab", [7, -1, 2.5], [3], [-1], [2.5], [True], ["1"])],
        ],
    )
    def test_fractional_integer_field_is_a_format_error(self, tmp_path, section, entry, key, value):
        path = tmp_path / "p.json"
        emit_params(self._doc(), path)
        payload = json.loads(path.read_text())
        payload[section][entry][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=f"{key} must be a whole number"):
            parse_params(path)

    def test_mad_fallbacks_are_stored_as_ints(self, tmp_path):
        path = tmp_path / "p.json"
        emit_params(self._doc(), path)
        payload = json.loads(path.read_text())
        payload["hooks"]["text"]["mad_fallbacks"] = [0.0, 2.0]
        path.write_text(json.dumps(payload))
        fallbacks = parse_params(path).hooks["text"].mad_fallbacks
        assert fallbacks == (0, 2) and all(type(i) is int for i in fallbacks)
        with pytest.raises(InvalidArgument, match="mad_fallbacks"):
            GroupedQuantParams(8, self._doc().hooks["text"].groups, max_iters=1, mad_fallbacks=(1,))

    def test_whole_float_fields_parse_as_ints(self, tmp_path):
        path = tmp_path / "p.json"
        emit_params(self._doc(), path)
        text = path.read_text()

        def as_floats(node):
            if isinstance(node, dict):
                return {k: (float(v) if k in ("bits", "zero_point", "shift_m", "max_iters") and isinstance(v, int)
                            else [float(z) for z in v] if k == "zero_point" and isinstance(v, list)
                            else as_floats(v)) for k, v in node.items()}
            return [as_floats(v) for v in node] if isinstance(node, list) else node

        floats = json.dumps(as_floats(json.loads(text)))
        assert floats.count(".0") > text.count(".0")
        path.write_text(floats)
        emit_params(parse_params(path), path)
        assert path.read_text() == text

    def test_per_tensor_list_scale_is_a_format_error(self, tmp_path):
        path = tmp_path / "p.json"
        emit_params(self._doc(), path)
        payload = json.loads(path.read_text())
        payload["hooks"]["feat"]["scale"] = [payload["hooks"]["feat"]["scale"]]
        path.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # older numpy only warns when it makes a scalar of a size-1 array
            with pytest.raises(FormatError, match=r"InvalidArgument: scale must be a number, got \["):
                parse_params(path)

    def test_calibrated_grouped_roundtrip(self, tmp_path):
        t = synth("outlier", (16, 16), seed=3)
        params = calibrate_grouped(t, 8)
        path = tmp_path / "g.json"
        emit_params(ParamDoc(hooks={"t": params}), path)
        assert parse_params(path).hooks["t"] == params


class TestSynth:
    def test_softmax_rows_sum_to_one(self):
        t = synth("softmax", (32, 16), seed=0)
        np.testing.assert_allclose(t.array.sum(axis=-1), 1.0, atol=1e-6)

    def test_gelu_lower_bound(self):
        for seed in range(5):
            t = synth("gelu", (64, 16), seed=seed)
            assert float(t.array.min()) >= -0.1701

    def test_outlier_ratio(self):
        t = synth("outlier", (64, 64), seed=0)
        mags = np.abs(t.array)
        assert float(mags.max()) / float(np.percentile(mags, 99)) >= 10.0

    def test_deterministic(self):
        a = synth("outlier", (8, 8), seed=5)
        b = synth("outlier", (8, 8), seed=5)
        assert np.array_equal(a.data, b.data)

    def test_bad_kind(self):
        with pytest.raises(InvalidArgument):
            synth("cauchy", (4, 4), seed=0)


class TestMaskMetrics:
    def test_identical_masks(self):
        m = [np.asarray([[1.0, 0.0], [1.0, 1.0]])]
        got = mask_metrics(m, m)
        assert got.oiou == 1.0 and got.miou == 1.0
        assert all(v == 1.0 for v in got.prec_at.values())

    def test_disjoint_masks(self):
        a = [np.asarray([1.0, 1.0, 0.0, 0.0])]
        b = [np.asarray([0.0, 0.0, 1.0, 1.0])]
        got = mask_metrics(a, b)
        assert got.oiou == 0.0 and got.miou == 0.0
        assert all(v == 0.0 for v in got.prec_at.values())

    def test_two_pair_precision(self):
        pred1, gt1 = np.asarray([1, 1, 1, 1, 0.0]), np.asarray([0, 1, 1, 1, 1.0])  # IoU 0.6
        pred2, gt2 = np.asarray([1, 1, 1, 1, 1.0]), np.asarray([1, 1, 1, 1, 0.0])  # IoU 0.8
        got = mask_metrics([pred1, pred2], [gt1, gt2])
        assert got.miou == pytest.approx(0.7)
        assert got.prec_at[0.5] == 1.0
        assert got.prec_at[0.7] == 0.5
        assert got.prec_at[0.9] == 0.0

    def test_both_empty_counts_as_match(self):
        z = [np.zeros(4)]
        got = mask_metrics(z, z)
        assert got.oiou == 1.0 and got.miou == 1.0

    def test_empty_vs_nonempty_is_zero(self):
        got = mask_metrics([np.zeros(4)], [np.asarray([1.0, 0, 0, 0])])
        assert got.miou == 0.0

    def test_overall_iou_pools_the_pairs(self):
        pred = [np.asarray([1, 1, 0, 0.0]), np.zeros(4), np.asarray([1, 0, 1, 0.0])]
        gt = [np.asarray([1, 0, 0, 0.0]), np.zeros(4), np.asarray([0, 1, 1, 1.0])]  # IoU 1/2, 1, 1/4
        got = mask_metrics(pred, gt)
        assert got.oiou == 2 / 6
        assert got.miou == np.mean([0.5, 1.0, 0.25])
        assert got.prec_at == {0.5: 2 / 3, 0.7: 1 / 3, 0.9: 1 / 3}

    @pytest.mark.parametrize("preds,gts", [([], []), ([np.zeros(2)], []), ([np.zeros(2)], [np.zeros(2)] * 2)])
    def test_needs_paired_masks(self, preds, gts):
        with pytest.raises(InvalidArgument, match="^need one or more prediction/ground-truth pairs$"):
            mask_metrics(preds, gts)

    def test_nonbinary_rejected(self):
        with pytest.raises(InvalidArgument):
            mask_metrics([np.asarray([0.5])], [np.asarray([1.0])])
