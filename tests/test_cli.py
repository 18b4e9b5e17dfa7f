import argparse
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptqkit
from ptqkit import dual_region, outlier_groups, uniform
from ptqkit.cli import build_parser, main
from ptqkit.dual_region import DualRegionParams
from ptqkit.generate import synth
from ptqkit.io import ParamDoc, emit_params, parse_params, read_code_dump, read_dump, write_code_dump, write_dump
from ptqkit.outlier_groups import DEFAULT_MAX_ITERS, ThresholdStrategy, calibrate_grouped
from ptqkit.search import CHUNK_ELEMS, SearchSpace
from ptqkit.tensor import Tensor
from ptqkit.toynet import MODULES, QUANTIZED_HOOKS, ToyNetWeights, forward, seeded_inputs
from ptqkit.uniform import QuantParams


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSynthCommand:
    def test_writes_dump(self, tmp_path, capsys):
        out = tmp_path / "x.dump"
        code, _, _ = run_cli(capsys, "synth", "--kind", "softmax", "--shape", "16x8", "--seed", "3", "--out", str(out))
        assert code == 0
        t = read_dump(out)
        assert t.shape == (16, 8)

    def test_bad_shape(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "synth", "--kind", "gelu", "--shape", "abc", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "shape",
        [
            "100000x100000x100000",  # 7 PiB: numpy refuses it before allocating
            "99999999999999999999x2",
            "9223372036854775807x2",
            "x".join(["1"] * 67),
            "1x1x1x1x1",
        ],
    )
    def test_shape_no_array_can_hold_is_one_line(self, tmp_path, capsys, shape):
        code, _, err = run_cli(capsys, "synth", "--kind", "gelu", "--shape", shape, "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_negative_seed_is_one_line(self, tmp_path, capsys):
        out = tmp_path / "x.dump"
        code, _, err = run_cli(capsys, "synth", "--kind", "gelu", "--shape", "4x4", "--seed", "-3", "--out", str(out))
        assert code == 1 and not out.exists()
        assert err == "error: seed must be a whole number in [0, inf], got -3\n"


class TestCalibrateQuantizeEvaluate:
    @pytest.fixture()
    def dumps_dir(self, tmp_path):
        d = tmp_path / "dumps"
        d.mkdir()
        for i in range(32):
            rng = np.random.default_rng([7, i])
            logits = rng.standard_normal((8, 16)) / 0.25
            p = np.exp(logits - logits.max(axis=-1, keepdims=True))
            p /= p.sum(axis=-1, keepdims=True)
            write_dump(Tensor.from_array(p), d / f"post_softmax__{i:03d}.dump")
            x = rng.standard_normal(128)
            x[:2] *= 30
            write_dump(Tensor.from_array(x), d / f"text__{i:03d}.dump")
            write_dump(Tensor.from_array(rng.standard_normal(64)), d / f"feat__{i:03d}.dump")
        return d

    @pytest.fixture()
    def config_path(self, tmp_path):
        cfg = {
            "seed": 7,
            "bits": 8,
            "alpha": 0.01,
            "beta": 1.2,
            "n_candidates": 60,
            "hooks": {
                "post_softmax": {"kind": "dual_region", "region": "softmax"},
                "text": {"kind": "outlier_groups", "max_iters": 3},
                "feat": {"kind": "uniform", "scheme": "asymmetric", "method": "mse"},
            },
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_calibrate_emits_params_and_report(self, tmp_path, capsys, dumps_dir, config_path):
        params = tmp_path / "params.json"
        report = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir),
            "--out", str(params), "--report", str(report),
        )
        assert code == 0
        assert params.exists() and report.exists()
        doc = json.loads(params.read_text())
        assert set(doc["hooks"]) == {"post_softmax", "text", "feat"}
        assert doc["hooks"]["post_softmax"]["kind"] == "dual_region"
        rep = json.loads(report.read_text())
        assert set(rep["hooks"]) == {"post_softmax", "text", "feat"}
        assert all(r["mse"] >= 0 for r in rep["hooks"].values())

    def test_calibrate_missing_hook_dumps(self, tmp_path, capsys, config_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run_cli(
            capsys, "calibrate", "--config", str(config_path), "--dumps", str(empty),
            "--out", str(tmp_path / "p.json"),
        )
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("text", [b"{oops", b'{"hooks": "\xff"}', b"[" * 100_000 + b"]" * 100_000])
    def test_calibrate_malformed_config(self, tmp_path, capsys, dumps_dir, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        code, _, err = run_cli(
            capsys, "calibrate", "--config", str(bad), "--dumps", str(dumps_dir),
            "--out", str(tmp_path / "p.json"),
        )
        assert code == 1
        assert err.startswith("error: malformed config") and err.count("\n") == 1

    def test_quantize_then_evaluate(self, tmp_path, capsys, dumps_dir, config_path):
        params = tmp_path / "params.json"
        run_cli(capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir), "--out", str(params))
        src = dumps_dir / "text__000.dump"
        deq = tmp_path / "recon.dump"
        code, _, _ = run_cli(
            capsys, "quantize", "--params", str(params), "--hook", "text",
            "--in", str(src), "--out", str(deq),
        )
        assert code == 0
        codes = read_code_dump(str(deq) + ".codes")
        assert codes.shape[0] == 2  # group indices + codes
        code, out, _ = run_cli(capsys, "evaluate", "--a", str(src), "--b", str(deq))
        assert code == 0
        metrics = json.loads(out)
        assert metrics["mse"] >= 0.0
        assert metrics["cosine"] > 0.99

    def test_evaluate_self_is_exact(self, tmp_path, capsys, dumps_dir):
        src = dumps_dir / "feat__000.dump"
        code, out, _ = run_cli(capsys, "evaluate", "--a", str(src), "--b", str(src))
        assert code == 0
        metrics = json.loads(out)
        assert metrics["mse"] == 0.0
        assert metrics["sqnr_db"] == "inf"

    def test_evaluate_same_values_in_another_shape_is_one_line(self, tmp_path, capsys):
        # a 4x8 and an 8x4 dump of one row-major sequence: equal once flattened
        values = np.linspace(-1.0, 1.0, 32)
        a, b = tmp_path / "a.dump", tmp_path / "b.dump"
        write_dump(Tensor.from_array(values.reshape(4, 8)), a)
        write_dump(Tensor.from_array(values.reshape(8, 4)), b)
        code, out, err = run_cli(capsys, "evaluate", "--a", str(a), "--b", str(b))
        assert code == 1 and out == ""
        assert err == "error: shape mismatch: (4, 8) vs (8, 4)\n"

    def test_mixed_shape_dumps_are_one_line(self, tmp_path, capsys, config_path):
        d = tmp_path / "mixed"
        d.mkdir()
        write_dump(Tensor.from_array(np.linspace(-1.0, 1.0, 64)), d / "feat__000.dump")
        write_dump(Tensor.from_array(np.linspace(-1.0, 1.0, 32)), d / "feat__001.dump")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"hooks": {"feat": {"kind": "uniform"}}}))
        code, _, err = run_cli(
            capsys, "calibrate", "--config", str(cfg), "--dumps", str(d), "--out", str(tmp_path / "p.json")
        )
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "differ in shape" in err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("bits", "eight"), ("alpha", "small"), ("beta", [1.2]), ("n_candidates", "many"),
            ("n_candidates", None), ("n_candidates", 2.5), ("n_candidates", True), ("alpha", False),
            ("n_candidates", 1e12), ("alpha", "0.5"), ("beta", "1.2"), ("alpha", 10**400),
        ],
    )
    def test_non_numeric_config_value_is_one_line(self, tmp_path, capsys, dumps_dir, config_path, key, value):
        cfg = json.loads(config_path.read_text())
        cfg[key] = value
        config_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(
            capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir),
            "--out", str(tmp_path / "p.json"),
        )
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize(
        "hook,spec,key,literal,expect",
        [
            ("feat", {}, "bits", "0", "bits must be a whole number"),
            ("feat", {"scheme": "symmetric", "signed": True}, "bits", "0", "bits must be a whole number"),
            ("feat", {"scheme": "symmetric", "signed": True}, "bits", "1", "bits must be a whole number"),
            ("feat", {}, "bits", "100000", "bits must be a whole number"),
            ("feat", {"method": "percentile"}, "bits", "1", "bits must be a whole number"),
            ("text", {}, "bits", "100000", "bits must be a whole number"),
            ("post_softmax", {}, "bits", "17", "bits must be a whole number"),
            (None, {}, "seed", "1e309", "not JSON compliant"),
            (None, {}, "seed", "[-Infinity]", "not JSON compliant"),
            (None, {}, "beta", "1e309", "not JSON compliant"),
            ("feat", {}, "beta", "NaN", "not JSON compliant"),
            ("text", {}, "mad_multiplier", "Infinity", "not JSON compliant"),
        ],
    )
    def test_out_of_domain_config_value_is_one_line(
        self, tmp_path, capsys, dumps_dir, config_path, hook, spec, key, literal, expect
    ):
        """Bit widths outside [2, 16] and numbers JSON cannot echo (inf, NaN)
        are one line, for every hook kind and calibration method."""
        cfg = json.loads(config_path.read_text())
        cfg["hooks"]["feat"].update(spec)
        (cfg if hook is None else cfg["hooks"][hook])[key] = "VALUE"
        config_path.write_text(json.dumps(cfg).replace('"VALUE"', literal))
        code, _, err = run_cli(
            capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir),
            "--out", str(tmp_path / "p.json"),
        )
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert expect in err

    def test_grid_past_float64_is_silent(self, tmp_path, capsys):
        d = tmp_path / "dumps"
        d.mkdir()
        x = np.linspace(-1.0, 1.0, 64)
        x[-1] = 3e38
        for hook in ("u", "g"):
            write_dump(Tensor.from_array(x.astype(np.float32)), d / f"{hook}.dump")
        cfg = tmp_path / "cfg.json"
        hooks = {"u": {}, "g": {"kind": "dual_region", "region": "gelu"}}
        cfg.write_text(json.dumps({"beta": 1e300, "hooks": hooks}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(
                capsys, "calibrate", "--config", str(cfg), "--dumps", str(d), "--out", str(tmp_path / "p.json")
            )
        assert (code, err) == (0, "")

    def test_two_bit_gelu_hook_without_negatives(self, tmp_path, capsys):
        d = tmp_path / "dumps"
        d.mkdir()
        write_dump(Tensor.from_array(np.linspace(0.0, 1.0, 64)), d / "g.dump")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hooks": {"g": {"kind": "dual_region", "region": "gelu", "bits": 2}}}))
        code, _, err = run_cli(
            capsys, "calibrate", "--config", str(cfg), "--dumps", str(d), "--out", str(tmp_path / "p.json")
        )
        assert (code, err) == (0, "")
        entry = json.loads((tmp_path / "p.json").read_text())["hooks"]["g"]
        assert entry["shift_m"] == 0 and entry["fallback_uniform"] is True

    @pytest.mark.parametrize(
        "hook,key",
        [
            (None, "alhpa"), (None, "kind"), ("feat", "n_candidtes"), ("feat", "region"), ("text", "scheme"),
            ("post_softmax", "full_range"),
        ],
    )
    def test_unknown_key_is_one_line(self, tmp_path, capsys, dumps_dir, config_path, hook, key):
        cfg = json.loads(config_path.read_text())
        (cfg if hook is None else cfg["hooks"][hook])[key] = 0.5
        config_path.write_text(json.dumps(cfg))
        params = tmp_path / "p.json"
        code, _, err = run_cli(
            capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir), "--out", str(params)
        )
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(key) in err
        assert not params.exists()

    @pytest.mark.parametrize("kind", ["groups", ["uniform"], None])
    def test_unknown_kind_is_one_line(self, tmp_path, capsys, dumps_dir, config_path, kind):
        cfg = json.loads(config_path.read_text())
        cfg["hooks"]["feat"]["kind"] = kind
        config_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(
            capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir),
            "--out", str(tmp_path / "p.json"),
        )
        assert code == 1
        assert err == f"error: hook 'feat': unknown quantizer kind {kind!r}\n"

    @pytest.mark.parametrize(
        "entry,setting",
        [
            ({"alpha": "x"}, "alpha"),
            ({"kind": "dual_region", "region": "relu"}, "region"),
            ({"method": "median"}, "method"),
            ({"kind": "outlier_groups", "strategy": "bogus"}, "strategy"),
            ({"bits": 40}, "bits"),
            ({"scheme": "bogus"}, "scheme"),
            ({"signed": "yes"}, "signed"),
            ({"method": "percentile", "percentile": -5}, "percentile"),
            ({"method": "percentile", "percentile": 30}, "percentile"),  # an upside-down window
            ({"method": "percentile", "percentile": 50}, "percentile"),  # an empty one
            ({"kind": "outlier_groups", "max_iters": 0}, "max_iters"),
            ({"kind": "outlier_groups", "max_iters": "3"}, "max_iters"),
            ({"kind": "outlier_groups", "confidence_level": 1.5}, "confidence_level"),
        ],
    )
    def test_every_setting_is_checked_before_any_dump_is_read(self, tmp_path, capsys, entry, setting):
        """Hook "a" sorts first and has no dump; the error is "b"'s setting all the same."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hooks": {"a": {"kind": "uniform"}, "b": entry}}))
        (tmp_path / "dumps").mkdir()
        code, _, err = run_cli(
            capsys, "calibrate", "--config", str(config), "--dumps", str(tmp_path / "dumps"),
            "--out", str(tmp_path / "p.json"),
        )
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert setting in err and "dump" not in err

    @pytest.mark.parametrize(
        "entry,message",
        [
            ({"scheme": "bogus"}, "scheme must be one of ('symmetric', 'asymmetric'), got 'bogus'"),
            ({"kind": "outlier_groups", "confidence_level": 1.5}, "confidence_level must be in (0, 1), got 1.5"),
            ({"kind": "dual_region", "region": "softmax"}, "softmax samples must lie in [0, 1]"),
            ({"kind": "dual_region"}, "dual_region hooks need region: softmax|gelu"),
            ({"method": "percentile", "percentile": 30},
             "percentile must be in (50, 100] for the asymmetric scheme, got 30.0"),
        ],
    )
    def test_a_hook_error_names_the_hook(self, tmp_path, capsys, entry, message):
        """Hook "a" calibrates; "b"'s error, from its settings or from calibrating its GeLU dump, names "b"."""
        dumps = tmp_path / "dumps"
        dumps.mkdir()
        for hook in "ab":
            write_dump(synth("gelu", (64, 32), 0), dumps / f"{hook}.dump")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hooks": {"a": {}, "b": entry}}))
        code, _, err = run_cli(
            capsys, "calibrate", "--config", str(config), "--dumps", str(dumps), "--out", str(tmp_path / "p.json")
        )
        assert (code, err) == (1, f"error: hook 'b': {message}\n")

    @pytest.mark.parametrize(
        "entry,dumps,message",
        [
            (3, {"blk.dump": (8, 16)}, "entry must be an object, got 3"),
            ({"alhpa": 0.5}, {"blk.dump": (8, 16)}, "unknown key 'alhpa' in its entry"),
            ({"kind": "groups"}, {"blk.dump": (8, 16)}, "unknown quantizer kind 'groups'"),
            ({"method": "median"}, {"blk.dump": (8, 16)}, "unknown uniform method 'median'"),
            ({"kind": "dual_region"}, {"blk.dump": (8, 16)}, "dual_region hooks need region: softmax|gelu"),
            ({"scheme": "bogus"}, {"blk.dump": (8, 16)},
             "scheme must be one of ('symmetric', 'asymmetric'), got 'bogus'"),
            ({}, {}, "no dump files in {d}\n"),
            ({}, {"blk__000.dump": (8, 16), "blk__001.dump": (16, 8)}, "dumps differ in shape: [(8, 16), (16, 8)]"),
            ({}, {"blk.dump": "directory"}, "Is a directory"),
            ({}, {"blk.dump": b"PTQ4 garbled"}, "unsupported version"),
            ({"kind": "dual_region", "region": "softmax"}, {"blk.dump": (8, 16)},
             "softmax samples must lie in [0, 1]"),
        ],
        ids=["not-an-object", "unknown-key", "unknown-kind", "unknown-method", "no-region", "dry-run",
             "no-dumps", "two-shapes", "directory", "garbled", "softmax-on-gelu"],
    )
    def test_every_hook_error_names_its_hook_once(self, tmp_path, capsys, entry, dumps, message):
        """Hook "a" calibrates; each error of "blk", from its entry, its dry run, its dumps or its
        calibration, is one line that names "blk" first and nowhere else."""
        d = tmp_path / "dumps"
        d.mkdir()
        write_dump(synth("gelu", (8, 16), 0), d / "a.dump")
        for name, content in dumps.items():
            if content == "directory":
                (d / name).mkdir()
            elif isinstance(content, bytes):
                (d / name).write_bytes(content)
            else:
                write_dump(synth("gelu", content, 0), d / name)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hooks": {"a": {}, "blk": entry}}))
        params = tmp_path / "p.json"
        code, _, err = run_cli(capsys, "calibrate", "--config", str(config), "--dumps", str(d), "--out", str(params))
        assert code == 1 and err.count("\n") == 1
        assert err.startswith("error: hook 'blk': ") and err.count("'blk'") == 1
        assert message.format(d=d) in err
        assert not params.exists()

    @pytest.mark.parametrize(
        "hook,dump,err",
        [
            ("x[1]", "x[1]__000.dump", ""),
            ("x*", "xy__000.dump", "error: hook 'x*': no dump files in {d}\n"),
            ("../x", "../x.dump", "error: hook '../x': no dump files in {d}\n"),
            ("sub/a", "sub/a.dump", "error: hook 'sub/a': no dump files in {d}\n"),
            ("{d}/../x", "../x.dump", "error: hook '{d}/../x': no dump files in {d}\n"),
            ("", "__000.dump", "error: hook '': a hook name must not be empty\n"),
        ],
        ids=["brackets-find-their-own", "star-finds-no-other", "parent-dir", "subdir", "absolute", "empty"],
    )
    def test_a_hook_name_is_matched_literally(self, tmp_path, capsys, monkeypatch, hook, dump, err):
        """`[1]` in a hook name is no glob class, `*` matches no other hook's dumps, and a name
        holding a path separator is no path: only files directly in --dumps are ever read."""
        d = tmp_path / "dumps"
        (d / "sub").mkdir(parents=True)
        write_dump(synth("gelu", (8, 16), 0), d / dump)
        reads = []
        monkeypatch.setattr("ptqkit.io.read_dump", lambda path: reads.append(path) or read_dump(path))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hooks": {hook.format(d=d): {}}}))
        code, _, got = run_cli(
            capsys, "calibrate", "--config", str(config), "--dumps", str(d), "--out", str(tmp_path / "p.json")
        )
        assert (code, got) == (1 if err else 0, err.format(d=d))
        assert [Path(path).parent for path in reads] == ([d] if code == 0 else [])

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda path: None, "[Errno 2] No such file or directory"),
            (lambda path: path.touch(), "[Errno 20] Not a directory"),
        ],
        ids=["missing", "a-file"],
    )
    def test_dumps_that_is_no_directory_is_one_line(self, tmp_path, capsys, make, message):
        dumps = tmp_path / "dumps"
        make(dumps)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hooks": {"b": {}, "a": {}}}))
        code, _, err = run_cli(
            capsys, "calibrate", "--config", str(config), "--dumps", str(dumps), "--out", str(tmp_path / "p.json")
        )
        assert (code, err) == (1, f"error: hook 'a': {message}: {str(dumps)!r}\n")

    def test_calibrate_out_and_report_on_one_file_is_one_line(self, tmp_path, capsys, dumps_dir, config_path):
        params, report = tmp_path / "p.json", tmp_path / "missing" / ".." / "p.json"
        code, out, err = run_cli(
            capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir),
            "--out", str(params), "--report", str(report),
        )
        assert (code, out, err) == (1, "", f"error: --out and --report name the same file {report}\n")
        assert not params.exists()

    def test_quantize_out_and_codes_on_one_file_is_one_line(
        self, tmp_path, capsys, monkeypatch, dumps_dir, config_path
    ):
        params = tmp_path / "params.json"
        run_cli(capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir), "--out", str(params))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            capsys, "quantize", "--params", str(params), "--hook", "feat", "--in", str(dumps_dir / "feat__000.dump"),
            "--out", "recon.dump", "--codes", str(tmp_path / "recon.dump"),
        )
        assert (code, out) == (1, "")
        assert err == f"error: --out and --codes name the same file {tmp_path / 'recon.dump'}\n"
        assert not (tmp_path / "recon.dump").exists()

    @pytest.mark.parametrize("output", ["--out", "--report"])
    def test_calibrate_output_on_its_config_is_one_line(self, tmp_path, capsys, dumps_dir, config_path, output):
        before = config_path.read_bytes()
        link = tmp_path / "link.json"
        link.symlink_to(config_path)
        argv = ["calibrate", "--config", str(config_path), "--dumps", str(dumps_dir), "--out", str(tmp_path / "p.json")]
        code, out, err = run_cli(capsys, *argv, output, str(link))
        assert (code, out, err) == (1, "", f"error: --config and {output} name the same file {link}\n")
        assert config_path.read_bytes() == before and not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("name", ["feat__000.dump", "feat__999.dump", "feat.dump"])
    def test_calibrate_out_named_like_a_hooks_dump_is_one_line(self, tmp_path, capsys, dumps_dir, config_path, name):
        """Whether or not that dump is there yet: the next run with this config would read it."""
        out = dumps_dir / name
        before = out.read_bytes() if out.exists() else None
        code, stdout, err = run_cli(
            capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir), "--out", str(out)
        )
        assert (code, stdout, err) == (1, "", f"error: --out names a dump of hook 'feat': {out}\n")
        assert (out.read_bytes() if out.exists() else None) == before

    def test_calibrate_may_write_other_files_into_its_dumps(self, tmp_path, capsys, dumps_dir, config_path):
        argv = ["calibrate", "--config", str(config_path), "--dumps", str(dumps_dir), "--out"]
        assert run_cli(capsys, *argv, str(dumps_dir / "params.json"), "--report", str(dumps_dir / "x.dump"))[0] == 0
        assert run_cli(capsys, *argv, str(tmp_path / "p.json"))[0] == 0
        assert (dumps_dir / "params.json").read_bytes() == (tmp_path / "p.json").read_bytes()

    @pytest.mark.parametrize(
        "outputs, flags, path",
        [
            (["--out", "params.json"], "--params and --out", "params.json"),
            (["--out", "in.dump"], "--in and --out", "in.dump"),
            (["--out", "r.dump", "--codes", "params.json"], "--params and --codes", "params.json"),
            (["--out", "in"], "--in and --codes", "in.codes"),  # the default codes path, <out>.codes
        ],
        ids=["out-params", "out-in", "codes-params", "default-codes-in"],
    )
    def test_quantize_output_on_an_input_is_one_line(
        self, tmp_path, capsys, monkeypatch, dumps_dir, config_path, outputs, flags, path
    ):
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir), "--out", "params.json")
        src = "in.codes" if path == "in.codes" else "in.dump"
        shutil.copy(dumps_dir / "feat__000.dump", src)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        code, out, err = run_cli(capsys, "quantize", "--params", "params.json", "--hook", "feat", "--in", src, *outputs)
        assert (code, out, err) == (1, "", f"error: {flags} name the same file {path}\n")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before

    def test_a_failed_report_write_leaves_no_params_file(self, tmp_path, capsys):
        d = tmp_path / "dumps"
        d.mkdir()
        write_dump(synth("gelu", (8, 16), 0), d / "a.dump")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hooks": {"a": {}}}))
        params, report = tmp_path / "p.json", tmp_path / "missing" / "r.json"
        code, out, err = run_cli(
            capsys, "calibrate", "--config", str(config), "--dumps", str(d), "--out", str(params),
            "--report", str(report),
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and str(report) in err
        assert not params.exists()

    def test_a_failed_allocation_names_its_hook(self, tmp_path, capsys, monkeypatch):
        """numpy's allocation error cannot be rebuilt from a message; it is one line all the same."""
        (tmp_path / "a.dump").touch()
        monkeypatch.setattr("ptqkit.io.read_dump", lambda path: np.empty(2**47))  # 1 PiB: numpy refuses it
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hooks": {"a": {}}}))
        code, _, err = run_cli(
            capsys, "calibrate", "--config", str(config), "--dumps", str(tmp_path), "--out", str(tmp_path / "p.json")
        )
        assert code == 1 and err.count("\n") == 1
        assert err.startswith("error: hook 'a': Unable to allocate 1.00 PiB")

    @pytest.mark.parametrize(
        "entry,key",
        [
            ({"kind": "uniform"}, "strategy"),
            ({"kind": "uniform", "method": "mse"}, "percentile"),
            ({"kind": "uniform", "method": "percentile"}, "alpha"),
            ({"kind": "uniform", "method": "percentile"}, "n_candidates"),
            ({"kind": "dual_region", "region": "softmax"}, "alpha"),
            ({"kind": "dual_region", "region": "softmax"}, "max_iters"),
            ({"kind": "dual_region", "region": "gelu"}, "max_iters"),
            ({"kind": "dual_region", "region": "gelu"}, "mad_multiplier"),
            ({"kind": "outlier_groups"}, "percentile"),
        ],
    )
    def test_a_key_the_calibrator_does_not_read_is_unknown(self, tmp_path, capsys, entry, key):
        d = tmp_path / "dumps"
        d.mkdir()
        write_dump(synth(entry.get("region", "gelu"), (8, 16), 0), d / "h.dump")
        value = {"strategy": "none", "percentile": 99.0, "alpha": 0.5, "n_candidates": 10, "max_iters": 2,
                 "mad_multiplier": 2.0}[key]  # each valid where it is read
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hooks": {"h": {**entry, key: value}}}))
        params = tmp_path / "p.json"
        code, _, err = run_cli(capsys, "calibrate", "--config", str(config), "--dumps", str(d), "--out", str(params))
        assert (code, err) == (1, f"error: hook 'h': unknown key {key!r} in its entry\n")
        assert not params.exists()

    def test_whole_float_count_is_an_int(self, tmp_path, capsys, dumps_dir, config_path):
        texts = []
        for n in (3, 3.0):
            cfg = json.loads(config_path.read_text())
            cfg["n_candidates"] = n
            config_path.write_text(json.dumps(cfg))
            params = tmp_path / f"p{n}.json"
            code, _, _ = run_cli(
                capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir), "--out", str(params)
            )
            assert code == 0
            texts.append(params.read_text())
        assert texts[0] == texts[1]

    def test_zero_mean_multiplier_is_one_line(self, tmp_path, capsys, dumps_dir, config_path):
        cfg = json.loads(config_path.read_text())
        cfg["hooks"]["text"]["mean_multiplier"] = 0
        config_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(
            capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir),
            "--out", str(tmp_path / "p.json"),
        )
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "mean_multiplier" in err

    def test_unset_settings_are_the_calibrators_defaults(self, tmp_path, capsys, dumps_dir, config_path):
        cfg = json.loads(config_path.read_text())
        for key in ("alpha", "beta", "n_candidates"):
            del cfg[key]
        del cfg["hooks"]["text"]["max_iters"]
        spelled = {
            **cfg,
            **asdict(SearchSpace()),
            "max_iters": DEFAULT_MAX_ITERS,
            "strategy": ThresholdStrategy().kind,
        }
        texts = []
        for i, doc in enumerate((cfg, spelled)):
            config_path.write_text(json.dumps(doc))
            params = tmp_path / f"p{i}.json"
            code, _, _ = run_cli(
                capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir), "--out", str(params)
            )
            assert code == 0
            texts.append(params.read_bytes())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize(
        "key,value,spec",
        [("n_candidates", 40, {}), ("beta", 1.0, {}), ("mean_multiplier", 1.5, {"strategy": "mean_division"})],
    )
    def test_hook_setting_equals_config_setting(self, tmp_path, capsys, dumps_dir, config_path, key, value, spec):
        readers = ("text",) if spec else ("feat", "text")  # the hooks whose calibrator reads `key` and `spec`
        base = json.loads(config_path.read_text())
        base.pop(key, None)
        for hook in readers:
            base["hooks"][hook].update(spec)
        at_hook = json.loads(json.dumps(base))
        for hook in readers:
            at_hook["hooks"][hook][key] = value
        texts = []
        for i, doc in enumerate((base, {**base, key: value}, at_hook)):
            config_path.write_text(json.dumps(doc))
            params = tmp_path / f"p{i}.json"
            code, _, _ = run_cli(
                capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir), "--out", str(params)
            )
            assert code == 0
            texts.append(params.read_bytes())
        assert texts[0] != texts[1] == texts[2]

    def test_quantize_needs_hook_when_ambiguous(self, tmp_path, capsys, dumps_dir, config_path):
        params = tmp_path / "params.json"
        run_cli(capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir), "--out", str(params))
        code, _, err = run_cli(
            capsys, "quantize", "--params", str(params),
            "--in", str(dumps_dir / "feat__000.dump"), "--out", str(tmp_path / "o.dump"),
        )
        assert code == 1 and "--hook" in err

    def test_quantize_hook_not_in_the_file_is_one_line(self, tmp_path, capsys, dumps_dir, config_path):
        params = tmp_path / "params.json"
        run_cli(capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir), "--out", str(params))
        code, _, err = run_cli(
            capsys, "quantize", "--params", str(params), "--hook", "attn",
            "--in", str(dumps_dir / "feat__000.dump"), "--out", str(tmp_path / "o.dump"),
        )
        assert code == 1
        assert err == "error: hook 'attn' not in parameter file\n"

    def test_quantize_file_of_no_hooks_is_one_line(self, tmp_path, capsys, dumps_dir):
        params, out = tmp_path / "params.json", tmp_path / "o.dump"
        emit_params(ParamDoc(hooks={}), params)
        code, _, err = run_cli(
            capsys, "quantize", "--params", str(params), "--in", str(dumps_dir / "feat__000.dump"), "--out", str(out)
        )
        assert code == 1
        assert err == "error: parameter file defines no hooks\n"  # no --hook can help
        assert not out.exists()


class TestQuantizeCodesOnce:
    """`ptqkit quantize` codes each element once: one `encode` call gives the
    code dump and the reconstruction, which still equal the codecs' own."""

    @pytest.fixture()
    def dump(self, tmp_path):
        path = tmp_path / "x.dump"
        write_dump(synth("gelu", (16, 32), 0), path)
        return path

    @staticmethod
    def counted(monkeypatch, module, name) -> list:
        calls, real = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(1) or real(*args))
        return calls

    def quantize(self, tmp_path, capsys, dump, params):
        emit_params(ParamDoc(hooks={"h": params}), tmp_path / "p.json")
        out = tmp_path / "r.dump"
        code, _, err = run_cli(capsys, "quantize", "--params", str(tmp_path / "p.json"), "--in", str(dump), "--out", str(out))
        assert code == 0, err
        return read_dump(out).array, read_code_dump(f"{out}.codes")

    def test_uniform_hook_quantizes_once(self, tmp_path, capsys, dump, monkeypatch):
        params = QuantParams(scale=0.01, zero_point=17, bits=8, signed=False)
        calls = self.counted(monkeypatch, uniform, "quantize_array")
        recon, codes = self.quantize(tmp_path, capsys, dump, params)
        assert len(calls) == 1  # 2 when quantize called fake and then encode
        x = read_dump(dump).array.astype(np.float64)
        assert np.array_equal(codes, uniform.quantize_array(x, params))
        assert recon.tobytes() == params.fake(x).astype(np.float32).tobytes()

    def test_dual_region_hook_never_calls_fake(self, tmp_path, capsys, dump, monkeypatch):
        params = DualRegionParams("gelu", 8, 0.02, 3)
        fakes = self.counted(monkeypatch, dual_region, "fake_dual_region")
        encodes = self.counted(monkeypatch, dual_region, "encode_tensor")
        recon, codes = self.quantize(tmp_path, capsys, dump, params)
        assert len(fakes) == len(encodes) == 0  # 1 each when quantize called fake and then encode
        x = read_dump(dump).array.astype(np.float64)
        assert np.array_equal(codes, dual_region.encode_tensor(x, params))
        assert recon.tobytes() == dual_region.fake_dual_region(x, params).astype(np.float32).tobytes()

    def test_grouped_hook_assigns_groups_once(self, tmp_path, capsys, dump, monkeypatch):
        x = read_dump(dump).array.astype(np.float64)
        params = calibrate_grouped(x, 6)
        calls = self.counted(monkeypatch, outlier_groups, "_pieces_into")
        recon, codes = self.quantize(tmp_path, capsys, dump, params)
        assert len(calls) == 1  # 2 when quantize called fake and then encode
        assert np.array_equal(codes, np.stack(outlier_groups.encode_grouped(x, params)))
        assert recon.tobytes() == outlier_groups.fake_grouped(x, params).astype(np.float32).tobytes()


class TestQuantizeBlocks:
    """`ptqkit quantize` codes a dump CHUNK_ELEMS elements at a time and writes
    the bytes of one whole-array `encode`, the float32 cast of its reconstruction.
    A dump of at most one block is one pass of the same loop."""

    SIZES = [97, 1000, CHUNK_ELEMS, CHUNK_ELEMS + 1, 3 * CHUNK_ELEMS + 7]
    SOFTMAX = DualRegionParams("softmax", 8, 2.0**-7, 3)  # its split, 2^7 * 2^-10 = 0.125, is a float32

    @classmethod
    def params(cls, name: str):
        if name == "uniform":
            return QuantParams(scale=0.01, zero_point=17, bits=8, signed=False)
        if name == "gelu":
            return DualRegionParams("gelu", 6, 0.03, 2)
        if name == "softmax":
            return cls.SOFTMAX
        # calibrated groups, their thresholds rounded to float32 so that a dump can hold them
        p = calibrate_grouped(synth("outlier", (64, 64), 1).array, 6)
        groups = tuple(outlier_groups.QuantGroup(float(np.float32(g.upper)), g.params) for g in p.groups)
        return outlier_groups.GroupedQuantParams(p.bits, groups, p.max_iters, p.mad_fallbacks)

    @staticmethod
    def edges(params) -> list:
        """Where a codec's cases meet: zero, and the region split or every finite group threshold."""
        if isinstance(params, DualRegionParams):
            return [0.0, params.split]
        return [0.0] + [g.upper for g in getattr(params, "groups", ())[:-1]]

    @classmethod
    def edge_dump(cls, kind: str, n: int, params) -> np.ndarray:
        """n float32 values of `kind` with -0.0 and every edge, each with its float32 neighbours and
        on both signs, spread over the array and its block edges."""
        x = synth(kind, (n,), n).array.copy()
        near = np.float32(cls.edges(params))[:, None] + np.zeros(3, np.float32)
        near[:, 0], near[:, 2] = np.nextafter(near[:, 1], -np.inf), np.nextafter(near[:, 1], np.inf)
        special = np.concatenate([near.ravel(), -near.ravel(), [-0.0]]).astype(np.float32)
        blocks = np.arange(CHUNK_ELEMS, n, CHUNK_ELEMS)
        at = np.unique(np.concatenate([np.linspace(0, n - 1, 97).astype(int), blocks - 1, blocks, [n - 1]]))
        x[at] = np.resize(special, at.size)
        return x

    def quantize(self, tmp_path, capsys, x, params, hook="h"):
        dump, out = tmp_path / "x.dump", tmp_path / "r.dump"
        write_dump(Tensor.from_array(x), dump)
        if params is not None:
            emit_params(ParamDoc(hooks={hook: params}), tmp_path / "p.json")
        code, _, err = run_cli(
            capsys, "quantize", "--params", str(tmp_path / "p.json"), "--hook", hook, "--in", str(dump), "--out", str(out)
        )
        assert code == 0, err
        return read_dump(out), read_code_dump(f"{out}.codes")

    def assert_whole_array_bytes(self, got, params, x):
        recon, codes = got
        want_codes, want_recon = params.encode(x.astype(np.float64))
        assert recon.shape == x.shape and recon.array.tobytes() == want_recon.astype(np.float32).tobytes()
        assert codes.shape == want_codes.shape and codes.tobytes() == want_codes.astype(np.int32).tobytes()

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize(
        "name, kind",
        [("uniform", "outlier"), ("softmax", "softmax"), ("gelu", "gelu"), ("grouped", "outlier")],
    )
    def test_blocks_write_the_bytes_of_one_encode(self, tmp_path, capsys, name, kind, n):
        params = self.params(name)
        x = self.edge_dump(kind, n, params)
        for edge in self.edges(params):  # a float32 the dump holds, with its float32 neighbours
            assert (x == edge).any() and (x == np.nextafter(np.float32(edge), 1)).any()
        assert (np.signbit(x) & (x == 0)).any()
        self.assert_whole_array_bytes(self.quantize(tmp_path, capsys, x, params), params, x)

    @pytest.mark.parametrize("shape", [(256, 128), (3, 10923), (2, 3, 16385)])  # 2^15, 2^15 + 1, 3 * 2^15 + 6
    def test_dump_of_several_axes_keeps_its_shape(self, tmp_path, capsys, shape):
        x = self.edge_dump("softmax", math.prod(shape), self.SOFTMAX).reshape(shape)
        got = self.quantize(tmp_path, capsys, x, self.SOFTMAX)
        assert got[0].shape == got[1].shape == x.shape
        self.assert_whole_array_bytes(got, self.SOFTMAX, x)

    def test_per_channel_hook_from_a_pipeline_file(self, tmp_path, capsys):
        params_path = tmp_path / "p.json"
        code, _, err = run_cli(capsys, "pipeline", "--calib-count", "4", "--params-out", str(params_path))
        assert code == 0, err
        params = parse_params(params_path).hooks["decoder.pre_bn"]
        assert params.per_channel and params.axis == -3
        x = synth("gelu", (params.scale.size, 1, 9001), 0).array  # 4 channels: 36,004 elements, over one block
        assert x.size > CHUNK_ELEMS
        got = self.quantize(tmp_path, capsys, x, None, hook="decoder.pre_bn")
        self.assert_whole_array_bytes(got, params, x)

    @pytest.mark.parametrize("count", [4, 3])
    def test_every_pipeline_hook_codes_a_stack_as_its_inputs_alone(self, tmp_path, capsys, count):
        """A dump stacking `count` inputs' activations of a hook codes each input as a dump of that
        input alone does, for every hook of a pipeline parameter file. The decoder hook's channels
        sit at axis -3 of one (C, H, W) input and of a stack alike."""
        params_path = tmp_path / "p.json"
        code, _, err = run_cli(capsys, "pipeline", "--calib-count", "4", "--params-out", str(params_path))
        assert code == 0, err
        hooks = parse_params(params_path).hooks
        assert sorted(hooks) == sorted(QUANTIZED_HOOKS)
        weights = ToyNetWeights.seeded(0)
        acts = forward(seeded_inputs(1, count, weights.seq, weights.dim), weights)[1].activations
        for hook in hooks:
            stack = acts[hook].astype(np.float32)
            recon, codes = self.quantize(tmp_path, capsys, stack, None, hook=hook)
            for i, x in enumerate(stack):
                recon_i, codes_i = self.quantize(tmp_path, capsys, x, None, hook=hook)
                assert recon.array[i].tobytes() == recon_i.array.tobytes(), (hook, i)
                # a grouped quantizer's codes lead with its (group, code) axis
                row, alone = codes.reshape(-1, count, x.size)[:, i], codes_i.reshape(-1, x.size)
                assert row.shape == alone.shape and row.tobytes() == alone.tobytes(), (hook, i)

    def test_traced_peak_of_a_gelu_dump(self, tmp_path):
        """The blocks keep every float64 temporary in cache: the traced peak of quantizing a
        256x3072 GeLU dump is its float32 input, reconstruction and codes (4 bytes an element
        each) plus the blocks, about 3.5 x 4 bytes an element (11.1 MB); the bound allows 4.5 x 4.
        Coding the whole array at once (float64 copy, numerator, regions, scales, payloads,
        word temporaries) peaked at about 11 x 4 bytes an element (34.7 MB)."""
        dump, out = tmp_path / "x.dump", tmp_path / "r.dump"
        write_dump(synth("gelu", (256, 3072), 0), dump)
        emit_params(ParamDoc(hooks={"h": DualRegionParams("gelu", 8, 0.02, 3)}), tmp_path / "p.json")
        argv = ["quantize", "--params", str(tmp_path / "p.json"), "--in", str(dump), "--out", str(out)]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 4 * 256 * 3072, f"traced peak {peak / 1e6:.1f} MB"


class TestCalibratePeaks:
    @pytest.mark.parametrize(
        "kind, cols, seed, spec, bound",
        [
            ("gelu", 3072, 0, {"kind": "dual_region", "region": "gelu"}, 2.4),
            ("softmax", 256, 1, {"kind": "dual_region", "region": "softmax"}, 3.12),
            ("outlier", 768, 2, {"kind": "outlier_groups"}, 4.0),
            ("outlier", 768, 3, {"kind": "uniform", "scheme": "asymmetric", "method": "mse"}, 3.2),
            ("outlier", 768, 3, {"kind": "uniform", "scheme": "asymmetric", "method": "percentile"}, 3.2),
            ("outlier", 768, 3, {"kind": "uniform", "scheme": "symmetric", "method": "percentile"}, 3.2),
        ],
        ids=["gelu", "softmax", "outlier_groups", "uniform-mse", "percentile-asymmetric", "percentile-symmetric"],
    )
    def test_traced_peak_of_one_hook(self, tmp_path, kind, cols, seed, spec, bound):
        """`ptqkit calibrate` of one 256-row dump keeps its samples in float32 through the search,
        then widens them once for the report. Traced peaks of a second run (the first allocates
        numpy's one-off caches), as a multiple of the float64 input, with a float64 stack read
        before the search: GeLU 2.69 (now 2.19), softmax 3.15 (3.10), outlier groups 4.52 (3.52),
        uniform mse 3.34 (3.01), percentile 3.01 either scheme (3.01). Softmax's margin is thin
        because its peak is now the report phase, as the percentile hooks' always was: the float64
        stack, its reconstruction and the codec's block temporaries, a fixed 0.56 MB that is
        1.07x a 256x256 input. That phase is the parent's; the bound fails a float64 search."""
        (tmp_path / "dumps").mkdir()
        write_dump(synth(kind, (256, cols), seed), tmp_path / "dumps" / "h.dump")
        (tmp_path / "c.json").write_text(json.dumps({"hooks": {"h": spec}}))
        argv = ["calibrate", "--config", str(tmp_path / "c.json"), "--dumps", str(tmp_path / "dumps"),
                "--out", str(tmp_path / "p.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < bound * 8 * 256 * cols, f"traced peak {peak / (8 * 256 * cols):.2f} x the float64 input"


class TestEvaluateMasks:
    def test_mask_directories(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        write_dump(Tensor.from_array([1.0, 1, 1, 1, 0]), a / "m0.dump")
        write_dump(Tensor.from_array([0.0, 1, 1, 1, 1]), b / "m0.dump")
        write_dump(Tensor.from_array([1.0, 1, 1, 1, 1]), a / "m1.dump")
        write_dump(Tensor.from_array([1.0, 1, 1, 1, 0]), b / "m1.dump")
        code, out, _ = run_cli(capsys, "evaluate", "--a", str(a), "--b", str(b), "--masks")
        assert code == 0
        metrics = json.loads(out)
        assert metrics["miou"] == pytest.approx(0.7)
        assert metrics["prec_at"]["0.5"] == 1.0
        assert metrics["prec_at"]["0.7"] == 0.5

    def test_mask_files(self, tmp_path, capsys):
        write_dump(Tensor.from_array([1.0, 1, 1, 1, 0]), tmp_path / "a.dump")
        write_dump(Tensor.from_array([0.0, 1, 1, 1, 1]), tmp_path / "b.dump")
        code, out, _ = run_cli(
            capsys, "evaluate", "--a", str(tmp_path / "a.dump"), "--b", str(tmp_path / "b.dump"), "--masks"
        )
        assert code == 0
        assert json.loads(out) == {"oiou": 0.6, "miou": 0.6, "prec_at": {"0.5": 1.0, "0.7": 0.0, "0.9": 0.0}}

    @pytest.mark.parametrize(
        "b_names,message",
        [
            (None, "mask inputs must both be files or both directories"),
            (["m1.dump"], "mask directories must hold matching *.dump files"),
            ([], "mask directories must hold matching *.dump files"),
        ],
    )
    def test_unpaired_mask_inputs_are_one_line(self, tmp_path, capsys, b_names, message):
        a = tmp_path / "a"
        a.mkdir()
        write_dump(Tensor.from_array([1.0, 0.0]), a / "m0.dump")
        if b_names is None:  # a file against a directory
            b = a / "m0.dump"
        else:
            b = tmp_path / "b"
            b.mkdir()
            for name in b_names:
                write_dump(Tensor.from_array([1.0, 0.0]), b / name)
        code, _, err = run_cli(capsys, "evaluate", "--a", str(a), "--b", str(b), "--masks")
        assert code == 1
        assert err == f"error: {message}\n"

    def test_masks_of_different_shapes_are_one_line(self, tmp_path, capsys):
        write_dump(Tensor.from_array([1.0, 0.0, 1.0, 1.0]), tmp_path / "a.dump")
        write_dump(Tensor.from_array([[1.0, 0.0], [1.0, 1.0]]), tmp_path / "b.dump")
        code, _, err = run_cli(
            capsys, "evaluate", "--a", str(tmp_path / "a.dump"), "--b", str(tmp_path / "b.dump"), "--masks"
        )
        assert (code, err) == (1, "error: mask shapes differ: (4,) vs (2, 2)\n")


class TestEvaluateZeroDumps:
    """`evaluate`'s SQNR and cosine where one side or both are all zero."""

    @pytest.mark.parametrize(
        "a,b,sqnr,cosine",
        [
            ([0.0, 0.0, 0.0, 0.0], [1.0, -2.0, 0.5, 0.0], "-inf", 0.0),
            ([0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], "inf", 1.0),
            ([1.0, -2.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.0], 0.0, 0.0),
        ],
    )
    def test_zero_sides(self, tmp_path, capsys, a, b, sqnr, cosine):
        write_dump(Tensor.from_array(a), tmp_path / "a.dump")
        write_dump(Tensor.from_array(b), tmp_path / "b.dump")
        code, out, _ = run_cli(capsys, "evaluate", "--a", str(tmp_path / "a.dump"), "--b", str(tmp_path / "b.dump"))
        assert code == 0
        mse = sum((x - y) ** 2 for x, y in zip(a, b)) / len(a)
        assert json.loads(out) == {"mse": mse, "sqnr_db": sqnr, "cosine": cosine}


class TestPipelineCommand:
    def test_module_flags_are_the_modules_table(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: (a.choices, a.default) for a in sub.choices["pipeline"]._actions if a.dest in MODULES}
        assert flags == {m: (modes, modes[1]) for m, modes in MODULES.items()}

    def test_deterministic_reports(self, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        code1, _, _ = run_cli(capsys, "pipeline", "--seed", "0", "--preset", "W4A4", "--calib-count", "8", "--out", str(out1))
        code2, _, _ = run_cli(capsys, "pipeline", "--seed", "0", "--preset", "W4A4", "--calib-count", "8", "--out", str(out2))
        assert code1 == 0 and code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_params_out_parseable(self, tmp_path, capsys):
        params = tmp_path / "plan.json"
        code, _, _ = run_cli(
            capsys, "pipeline", "--seed", "1", "--preset", "W8A8", "--calib-count", "8",
            "--params-out", str(params),
        )
        assert code == 0
        doc = parse_params(params)
        assert "attn.softmax" in doc.hooks
        assert "text.out" in doc.hooks
        assert doc.meta["preset"] == "W8A8"

    def test_report_structure(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "pipeline", "--seed", "0", "--preset", "W8A8", "--calib-count", "8")
        assert code == 0
        rep = json.loads(out)
        assert rep["seed"] == 0
        assert rep["config"]["a_bits"] == 8
        assert "output_mse_mean" in rep["totals"]

    def test_out_and_params_out_on_one_file_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        code, out, err = run_cli(
            capsys, "pipeline", "--calib-count", "8", "--out", str(path), "--params-out", str(path)
        )
        assert (code, out, err) == (1, "", f"error: --out and --params-out name the same file {path}\n")
        assert not path.exists()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_no_calibration_inputs_is_one_line(self, capsys, count):
        code, out, err = run_cli(capsys, "pipeline", "--seed", "0", "--preset", "W8A8", "--calib-count", count)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_negative_seed_is_one_line(self, capsys):
        code, out, err = run_cli(capsys, "pipeline", "--seed", "-1")
        assert code == 1 and out == ""
        assert err == "error: seed must be a whole number in [0, inf], got -1\n"

    def test_malformed_params_entry_is_one_line(self, tmp_path, capsys):
        dump = tmp_path / "x.dump"
        write_dump(Tensor.from_array(np.linspace(-1.0, 1.0, 16)), dump)
        params = tmp_path / "params.json"
        params.write_text(json.dumps({
            "format": "ptqkit-params", "version": 1,
            "hooks": {"h": {"kind": "uniform", "bits": 8, "signed": False, "zero_point": 0, "axis": None}},
        }))
        code, _, err = run_cli(
            capsys, "quantize", "--params", str(params), "--in", str(dump), "--out", str(tmp_path / "r.dump")
        )
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("literal", ["Infinity", "1e999"])
    def test_infinite_scale_is_one_line(self, tmp_path, capsys, literal):
        dump = tmp_path / "x.dump"
        write_dump(Tensor.from_array(np.linspace(-1.0, 1.0, 16)), dump)
        params = tmp_path / "params.json"
        entry = {"kind": "uniform", "bits": 8, "signed": False, "scale": "SCALE", "zero_point": 0, "axis": None}
        text = json.dumps({"format": "ptqkit-params", "version": 1, "hooks": {"h": entry}})
        params.write_text(text.replace('"SCALE"', literal))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the test
            code, _, err = run_cli(
                capsys, "quantize", "--params", str(params), "--in", str(dump), "--out", str(tmp_path / "r.dump")
            )
        assert code == 1
        assert err.startswith("error: malformed quantizer entry") and err.count("\n") == 1
        assert "finite" in err

    def test_softmax_shift_zero_is_one_line(self, tmp_path, capsys):
        dump = tmp_path / "x.dump"
        write_dump(Tensor.from_array(np.linspace(0.0, 1.0, 16)), dump)
        params = tmp_path / "params.json"
        entry = {"kind": "dual_region", "region": "softmax", "bits": 2, "scale_r2": 1 / 3, "shift_m": 0}
        params.write_text(json.dumps({"format": "ptqkit-params", "version": 1, "hooks": {"h": entry}}))
        code, _, err = run_cli(
            capsys, "quantize", "--params", str(params), "--in", str(dump), "--out", str(tmp_path / "r.dump")
        )
        assert code == 1
        assert err.startswith("error: malformed quantizer entry") and err.count("\n") == 1
        assert "shift_m" in err

    def test_missing_file_errors(self, capsys):
        code, _, err = run_cli(capsys, "evaluate", "--a", "/nonexistent/a.dump", "--b", "/nonexistent/b.dump")
        assert code == 1 and "error:" in err

    def test_unknown_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--frobnicate"])
        assert exc.value.code != 0


# Imports the CLI and runs the subcommands that compute erf, then names any
# scipy module they loaded.
NO_SCIPY_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, json, sys
    from pathlib import Path
    from ptqkit.cli import main

    work = Path(sys.argv[1])
    (work / "dumps").mkdir()
    gelu = str(work / "dumps" / "g.dump")
    config = work / "config.json"
    config.write_text(json.dumps({"hooks": {"g": {"kind": "dual_region", "region": "gelu"}}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--kind", "gelu", "--shape", "64x48", "--out", gelu]) == 0
        assert main(["calibrate", "--config", str(config), "--dumps", str(work / "dumps"),
                     "--out", str(work / "p.json")]) == 0
        assert main(["pipeline", "--preset", "W8A8", "--calib-count", "2"]) == 0
    print(sorted(name for name in sys.modules if name.startswith("scipy")))
    """
)


class TestATinyAlpha:
    def test_calibrate_prints_nothing_to_stderr(self, tmp_path):
        """A uniform hook searched with alpha = 1e-310: the subnormal grid point is skipped, and the
        normal ones whose quotients pass the float64 maximum print no RuntimeWarning either."""
        write_dump(synth("gelu", (64, 48), 0), tmp_path / "h.dump")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 1e-310, "hooks": {"h": {"kind": "uniform"}}}))
        src = str(Path(ptqkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = ["calibrate", "--config", str(config), "--dumps", str(tmp_path), "--out", str(tmp_path / "p.json")]
        proc = subprocess.run(
            [sys.executable, "-m", "ptqkit.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads((tmp_path / "p.json").read_text())["hooks"]["h"]["scale"] >= uniform.TINY


class TestNoScipy:
    def test_subcommands_load_no_scipy(self, tmp_path):
        src = str(Path(ptqkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# The help, usage and error text of each argv, pinned byte for byte in CLI_TEXT at the
# terminal width COLUMNS (argparse wraps its text to it). `pipeline` with no arguments is
# not here: it runs the W8A8 preset, whose report `tests/test_golden.py` pins. A change to
# this text on purpose regenerates the fixture with
#
#     PYTHONPATH=src python tests/test_cli.py
CLI_TEXT = Path(__file__).parent / "data" / "golden_cli_text.json"
COLUMNS = "80"
COMMANDS = ["synth", "calibrate", "quantize", "evaluate", "pipeline"]
CLI_TEXT_ARGV = [
    ["--help"], [], ["bogus"], ["-h", "quantize"], ["--", "quantize"], ["--foo", "quantize"],
    *([command, "--help"] for command in COMMANDS),
    *([command] for command in COMMANDS if command != "pipeline"),
    ["quantize", "--params", "p.json", "--in", "x.dump", "--out", "y.dump", "--bogus"],
    ["synth", "--kind", "sine", "--shape", "4x4", "--out", "x.dump"],
    ["pipeline", "--preset", "W3A3"],
]


def cli_text(argv: list[str]) -> dict:
    """The exit code and the stdout and stderr text of `main(argv)`, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


class TestParserText:
    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(CLI_TEXT.read_text())

    @pytest.mark.parametrize("argv", CLI_TEXT_ARGV, ids=" ".join)
    def test_text_matches_golden(self, monkeypatch, golden, argv):
        monkeypatch.setenv("COLUMNS", COLUMNS)
        assert cli_text(argv) == golden[" ".join(argv)]

    def test_a_named_command_builds_only_its_subparser(self):
        assert list(_subparsers(build_parser()).choices) == COMMANDS
        named = build_parser("evaluate")
        assert list(_subparsers(named).choices) == ["evaluate"]
        assert named.format_usage() == build_parser().format_usage()
        assert "{synth,calibrate,quantize,evaluate,pipeline}" in named.format_usage()

    @pytest.mark.parametrize("argv", [["quantize", "--help"], ["bogus"]], ids=" ".join)
    def test_module_entry_point(self, golden, argv):
        src = str(Path(ptqkit.__file__).resolve().parents[1])
        env = {**os.environ, "COLUMNS": COLUMNS,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "ptqkit.cli", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr} == golden[" ".join(argv)]


def _params_file(path, entry):
    path.write_text(json.dumps({"format": "ptqkit-params", "version": 1, "hooks": {"h": entry}}))
    return path


def _write_sample_dump(path):
    write_dump(Tensor.from_array(np.linspace(-2.0, 3.0, 64).reshape(2, 32)), path)
    return path


def _one_line_or_success(code, err):
    return code == 0 or (code == 1 and err.startswith("error:") and err.count("\n") == 1)


UNIFORM = {"kind": "uniform", "bits": 8, "signed": False, "scale": 0.02, "zero_point": 100, "axis": None}
CHANNELS = {**UNIFORM, "scale": [0.02, 0.03], "zero_point": [100, 3], "axis": 0}
GELU = {"kind": "dual_region", "region": "gelu", "bits": 8, "scale_r2": 0.05, "shift_m": 2, "fallback_uniform": False}
SOFTMAX = {**GELU, "region": "softmax", "scale_r2": 1 / 127, "shift_m": 3}
GROUPED = {
    "kind": "outlier_groups", "bits": 8, "max_iters": 3, "mad_fallbacks": [],
    "groups": [{"upper": 1.5, "params": UNIFORM}, {"upper": "inf", "params": {**UNIFORM, "scale": 0.1}}],
}
ENTRIES = {"uniform": UNIFORM, "channels": CHANNELS, "gelu": GELU, "softmax": SOFTMAX, "grouped": GROUPED}
INT_FIELDS = ("bits", "zero_point", "shift_m", "max_iters", "axis")


def _is_whole(v):
    return (isinstance(v, int) and not isinstance(v, bool)) or (isinstance(v, float) and v.is_integer())


def _all_whole(node):
    """Every integer field of a params entry, at any depth, holds whole numbers."""
    if isinstance(node, list):
        return all(_all_whole(v) for v in node)
    if not isinstance(node, dict):
        return True
    for key, value in node.items():
        if key in INT_FIELDS and value is not None:
            if not all(_is_whole(v) for v in (value if isinstance(value, list) else [value])):
                return False
        if not _all_whole(value):
            return False
    return True


class TestParamsFileRules:
    """Integer fields are whole numbers and outlier groups hold per-tensor
    uniform parameters at the entry's bits; anything else is one line."""

    @pytest.fixture()
    def dump(self, tmp_path):
        return _write_sample_dump(tmp_path / "x.dump")

    def _quantize(self, capsys, tmp_path, dump, entry):
        params = _params_file(tmp_path / "p.json", entry)
        return run_cli(
            capsys, "quantize", "--params", str(params), "--in", str(dump), "--out", str(tmp_path / "r.dump")
        )

    @pytest.mark.parametrize(
        "name,key,value",
        [
            ("uniform", "bits", 8.5), ("uniform", "zero_point", 100.7), ("channels", "zero_point", [100.7, 3]),
            ("channels", "axis", True), ("gelu", "shift_m", 1.5), ("grouped", "max_iters", 1.5),
            ("grouped", "bits", "8"), ("softmax", "bits", False),
        ],
    )
    def test_fractional_or_non_numeric_integer_field_is_one_line(self, tmp_path, capsys, dump, name, key, value):
        code, _, err = self._quantize(capsys, tmp_path, dump, {**ENTRIES[name], key: value})
        assert code == 1
        assert err.startswith("error: malformed quantizer entry") and err.count("\n") == 1
        assert f"{key} must be a whole number" in err

    @pytest.mark.parametrize(
        "name,key,value",
        [
            ("uniform", "scale", "0.02"), ("channels", "scale", ["0.02", "0.5"]), ("channels", "scale", [0.02, "0.5"]),
            ("uniform", "scale", True), ("gelu", "scale_r2", "0.05"), ("softmax", "scale_r2", True),
        ],
    )
    def test_string_or_bool_float_field_is_one_line(self, tmp_path, capsys, dump, name, key, value):
        code, _, err = self._quantize(capsys, tmp_path, dump, {**ENTRIES[name], key: value})
        assert code == 1
        assert err.startswith("error: malformed quantizer entry") and err.count("\n") == 1
        assert f"{key} must be a number" in err

    @pytest.mark.parametrize("name", sorted(ENTRIES))
    def test_whole_float_fields_apply_like_ints(self, tmp_path, capsys, dump, name):
        entry = ENTRIES[name]
        floats = {k: float(v) for k, v in entry.items() if k in INT_FIELDS and isinstance(v, int)}
        outputs = []
        for variant in (entry, {**entry, **floats}):
            code, _, _ = self._quantize(capsys, tmp_path, dump, variant)
            assert code == 0
            outputs.append((tmp_path / "r.dump").read_bytes() + (tmp_path / "r.dump.codes").read_bytes())
        assert floats and outputs[0] == outputs[1]

    def test_another_version_is_one_line(self, tmp_path, capsys, dump):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"format": "ptqkit-params", "version": 2, "hooks": {"h": UNIFORM}}))
        code, _, err = run_cli(
            capsys, "quantize", "--params", str(params), "--in", str(dump), "--out", str(tmp_path / "r.dump")
        )
        assert code == 1
        assert err == "error: unsupported parameter file version 2\n"

    @pytest.mark.parametrize("scale_r2,boundary", [(1 / 64, 1.0), (0.05, 3.2)])
    def test_softmax_boundary_of_one_or_more_is_one_line(self, tmp_path, capsys, dump, scale_r2, boundary):
        # boundary = 2^(bits-1) * scale_r2 * 2^-shift_m
        code, _, err = self._quantize(capsys, tmp_path, dump, {**SOFTMAX, "scale_r2": scale_r2, "shift_m": 1})
        assert code == 1
        assert err == (
            "error: malformed quantizer entry: InvalidArgument: "
            f"softmax region boundary {boundary} must lie in (0, 1)\n"
        )

    def test_dump_with_a_zero_dimension_is_one_line(self, tmp_path, capsys, dump):
        bad = tmp_path / "empty.dump"
        bad.write_bytes(dump.read_bytes()[:8] + (2).to_bytes(4, "little") + (0).to_bytes(4, "little"))
        for argv in (
            ["evaluate", "--a", str(bad), "--b", str(dump)],
            ["quantize", "--params", str(_params_file(tmp_path / "p.json", UNIFORM)), "--in", str(bad),
             "--out", str(tmp_path / "r.dump")],
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 1
            assert err == f"error: {bad}: zero-sized dimension in (2, 0)\n"

    def test_dump_of_rank_five_is_one_line(self, tmp_path, capsys, dump):
        bad = tmp_path / "rank5.dump"  # magic, version and dtype of a valid dump, then rank 5 of unit dims
        bad.write_bytes(dump.read_bytes()[:7] + bytes([5]) + (1).to_bytes(4, "little") * 5 + bytes(4))
        code, _, err = run_cli(capsys, "evaluate", "--a", str(bad), "--b", str(dump))
        assert (code, err) == (1, f"error: {bad}: rank 5 exceeds supported maximum 4\n")

    def test_a_malformed_dump_is_named(self, tmp_path, capsys, dump):
        """A hook of 100 dumps, one of them 4 bytes short, and a code dump given to evaluate as
        a float dump: each error line names the bad file."""
        d = tmp_path / "dumps"
        d.mkdir()
        for i in range(100):
            write_dump(np.ones((4, 8), np.float32), d / f"h__{i:03d}.dump")
        bad = d / "h__042.dump"
        bad.write_bytes(bad.read_bytes()[:-4])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hooks": {"h": {}}}))
        argv = ["calibrate", "--config", str(config), "--dumps", str(d), "--out", str(tmp_path / "p.json")]
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (1, f"error: hook 'h': {bad}: payload holds 124 bytes, dims (4, 8) require 128\n")
        codes = tmp_path / "code.dump"
        write_code_dump(np.zeros((2, 3), np.int32), codes)
        code, _, err = run_cli(capsys, "evaluate", "--a", str(dump), "--b", str(codes))
        assert (code, err) == (1, f"error: {codes}: expected a float32 dump\n")

    def test_grouped_entry_without_groups_is_one_line(self, tmp_path, capsys, dump):
        code, _, err = self._quantize(capsys, tmp_path, dump, {**GROUPED, "groups": []})
        assert (code, err) == (1, "error: malformed quantizer entry: InvalidArgument: at least one group required\n")

    def test_per_channel_axis_past_the_dump_rank_is_one_line(self, tmp_path, capsys, dump):
        for axis in (2, -3):  # from the front or from the end
            code, _, err = self._quantize(capsys, tmp_path, dump, {**CHANNELS, "axis": axis})
            assert (code, err) == (1, f"error: per-channel axis {axis} out of range for rank 2\n")

    @pytest.mark.parametrize(
        "group", [GELU, GROUPED, CHANNELS, {**UNIFORM, "bits": 4, "signed": True, "zero_point": 0}]
    )
    def test_group_must_be_per_tensor_uniform_at_entry_bits(self, tmp_path, capsys, dump, group):
        entry = {**GROUPED, "groups": [{"upper": 1.5, "params": group}, GROUPED["groups"][1]]}
        code, _, err = self._quantize(capsys, tmp_path, dump, entry)
        assert code == 1
        assert err == (
            "error: malformed quantizer entry: InvalidArgument: every group needs per-tensor uniform params of 8 bits\n"
        )


ODD_VALUES = (1.5, 100.7, 8.0, -3, 0, 10**30, 10**400, True, None, "8", "x", [], [1.5], {}, float("inf"), float("nan"))


@st.composite
def _mutated(draw, base, pool, frozen=()):
    """`base` (a JSON document) with one to three fields replaced (by a value
    of `pool`) or deleted, at any depth. Fields named in `frozen` stay."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        slots = []

        def walk(node):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                if key not in frozen:
                    slots.append((node, key))
                    if isinstance(value, (dict, list)):
                        walk(value)

        walk(doc)
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if isinstance(node, dict) and draw(st.integers(0, 3)) == 0:  # delete one time in four
            del node[key]
        else:
            node[key] = json.loads(json.dumps(draw(st.sampled_from(pool))))
    return doc


def _mutated_entry():
    """A valid params entry, mutated by `_mutated` (odd values or other kinds' entries)."""
    return st.sampled_from(sorted(ENTRIES.items())).flatmap(
        lambda item: _mutated(item[1], ODD_VALUES + tuple(ENTRIES.values()), ("mad_fallbacks", "fallback_uniform"))
    )  # the frozen fields are stored, never applied


CONFIG = {  # a hook of every kind and method, one dump each; calibrated in name order, uniform first
    "seed": 0, "bits": 8, "alpha": 0.01, "beta": 1.2, "n_candidates": 20,
    "hooks": {
        "a_mse": {"kind": "uniform", "scheme": "symmetric", "signed": True, "bits": 6},
        "b_pct": {"kind": "uniform", "method": "percentile", "percentile": 99.0},
        "c_groups": {"kind": "outlier_groups", "strategy": "median_mad", "max_iters": 2, "bits": 4},
        "d_gelu": {"kind": "dual_region", "region": "gelu", "beta": 1.5},
        "e_softmax": {"kind": "dual_region", "region": "softmax"},
    },
}
CONFIG_VALUES = (  # numbers outside each field's domain, JSON's inf and NaN, and other kinds' hooks
    0, 1, 2, 17, 100000, -3, 1.5, 1e300, 10**400, float("inf"), float("nan"), None, "x", [], {}
) + tuple(CONFIG["hooks"].values())


@st.composite
def _mutated_dump(draw, valid, header=16):
    """`valid` truncated, or with one to four bytes of its header (magic,
    version, dtype, rank and two dims) or payload replaced."""
    how = draw(st.sampled_from(["truncate", "header", "payload"]))
    if how == "truncate":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    lo, hi = (0, header) if how == "header" else (header, len(valid))
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(lo, hi - 1))] = draw(st.integers(0, 255))
    return bytes(data)


# Pieces of hook names: path parts, pattern characters, a NUL and the names of real dumps
HOOK_PIECES = ("a_mse", "decoy", "valid", "sub", "..", ".", "/", "_", "__000", "\x00", "*", "[", "]", "?")
HOOK_NAMES = st.one_of(
    st.lists(st.sampled_from(HOOK_PIECES), max_size=5).map("".join),  # "" among them
    st.lists(st.sampled_from(HOOK_PIECES), max_size=4).map(lambda pieces: "/" + "".join(pieces)),
)


class TestMalformedInputs:
    """Malformed dumps and params files through quantize and evaluate, and
    malformed configs and hook names through calibrate: exit 0, or exit 1
    with one stderr line, never a traceback."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("malformed")
        _write_sample_dump(workdir / "valid.dump")
        (workdir / "hooks").mkdir()
        for hook, kind in (("a_mse", "outlier"), ("b_pct", "gelu"), ("c_groups", "outlier"), ("d_gelu", "gelu"), ("e_softmax", "softmax")):
            write_dump(synth(kind, (8, 16), 0), workdir / "hooks" / f"{hook}.dump")
        (workdir / "hooks" / "sub").mkdir()
        for decoy in (workdir / "decoy.dump", workdir / "hooks" / "sub" / "decoy.dump"):  # outside --dumps
            write_dump(synth("gelu", (8, 16), 0), decoy)
        return workdir

    @staticmethod
    def _run(*args):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(list(args))
        return code, err.getvalue()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_params(self, workdir, data):
        entry = data.draw(_mutated_entry())
        params = _params_file(workdir / "p.json", entry)
        code, err = self._run(
            "quantize", "--params", str(params), "--in", str(workdir / "valid.dump"), "--out", str(workdir / "r.dump")
        )
        assert _one_line_or_success(code, err), (entry, code, err)
        assert code == 1 or _all_whole(entry), entry

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_configs(self, workdir, data):
        config = workdir / "config.json"
        config.write_text(json.dumps(data.draw(_mutated(CONFIG, CONFIG_VALUES))))
        code, err = self._run(
            "calibrate", "--config", str(config), "--dumps", str(workdir / "hooks"), "--out", str(workdir / "p.json")
        )
        assert _one_line_or_success(code, err), (config.read_text(), code, err)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_hook_names(self, workdir, data):
        """No hook name reads a file that is not directly in --dumps."""
        dumps = workdir / "hooks"
        decoys = [str(workdir / "decoy"), str(dumps / "sub" / "decoy"), str(dumps / "a_mse")]
        hook = data.draw(st.one_of(HOOK_NAMES, st.sampled_from(decoys)))
        config = workdir / "config.json"
        config.write_text(json.dumps({"hooks": {hook: {}, **data.draw(st.sampled_from([{}, {"a_mse": {}}]))}}))
        reads = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("ptqkit.io.read_dump", lambda path: reads.append(path) or read_dump(path))
            code, err = self._run(
                "calibrate", "--config", str(config), "--dumps", str(dumps), "--out", str(workdir / "p.json")
            )
        assert _one_line_or_success(code, err), (hook, code, err)
        assert all(Path(path).parent == dumps for path in reads), (hook, reads)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_dumps(self, workdir, data):
        bad = workdir / "bad.dump"
        bad.write_bytes(data.draw(_mutated_dump((workdir / "valid.dump").read_bytes())))
        for entry in ENTRIES.values():
            params = _params_file(workdir / "p.json", entry)
            code, err = self._run(
                "quantize", "--params", str(params), "--in", str(bad), "--out", str(workdir / "r.dump")
            )
            assert _one_line_or_success(code, err), (entry, code, err)
        for a, b in ((bad, workdir / "valid.dump"), (bad, bad)):
            code, err = self._run("evaluate", "--a", str(a), "--b", str(b))
            assert _one_line_or_success(code, err), (code, err)


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    texts = {" ".join(argv): cli_text(argv) for argv in CLI_TEXT_ARGV}
    CLI_TEXT.write_text(json.dumps(texts, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(texts)} cases to {CLI_TEXT}")
