import json

import numpy as np
import pytest

from ptqkit import Tensor, read_code_dump, read_dump, write_dump
from ptqkit.cli import main


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

    def test_calibrate_malformed_config(self, tmp_path, capsys, dumps_dir):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code, _, err = run_cli(
            capsys, "calibrate", "--config", str(bad), "--dumps", str(dumps_dir),
            "--out", str(tmp_path / "p.json"),
        )
        assert code == 1 and "error:" in err

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

    def test_quantize_needs_hook_when_ambiguous(self, tmp_path, capsys, dumps_dir, config_path):
        params = tmp_path / "params.json"
        run_cli(capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir), "--out", str(params))
        code, _, err = run_cli(
            capsys, "quantize", "--params", str(params),
            "--in", str(dumps_dir / "feat__000.dump"), "--out", str(tmp_path / "o.dump"),
        )
        assert code == 1 and "--hook" in err


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


class TestPipelineCommand:
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
        from ptqkit import parse_params

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

    def test_missing_file_errors(self, capsys):
        code, _, err = run_cli(capsys, "evaluate", "--a", "/nonexistent/a.dump", "--b", "/nonexistent/b.dump")
        assert code == 1 and "error:" in err

    def test_unknown_flag_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--frobnicate"])
        assert exc.value.code != 0
