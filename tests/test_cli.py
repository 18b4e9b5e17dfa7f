import argparse
import contextlib
import io
import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptqkit import MODULES, SearchSpace, Tensor, ThresholdStrategy, read_code_dump, read_dump, write_dump
from ptqkit.cli import build_parser, main
from ptqkit.outlier_groups import DEFAULT_MAX_ITERS


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
        "hook,key",
        [(None, "alhpa"), (None, "kind"), ("feat", "n_candidtes"), ("feat", "region"), ("text", "scheme")],
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
        assert err == f"error: unknown quantizer kind {kind!r}\n"

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
        base = json.loads(config_path.read_text())
        base.pop(key, None)
        for hook_spec in base["hooks"].values():
            hook_spec.update(spec)
        at_hook = json.loads(json.dumps(base))
        for hook_spec in at_hook["hooks"].values():
            hook_spec[key] = value
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

    @pytest.mark.parametrize("full_range,scale_r2", [(True, 1 / 127), (False, 1 / 255), ("no", None)])
    def test_full_range_must_be_a_bool(self, tmp_path, capsys, dumps_dir, config_path, full_range, scale_r2):
        cfg = json.loads(config_path.read_text())
        cfg["hooks"] = {"post_softmax": {"kind": "dual_region", "region": "softmax", "full_range": full_range}}
        config_path.write_text(json.dumps(cfg))
        params = tmp_path / "p.json"
        code, _, err = run_cli(
            capsys, "calibrate", "--config", str(config_path), "--dumps", str(dumps_dir), "--out", str(params)
        )
        if scale_r2 is None:
            assert code == 1
            assert err.startswith("error:") and err.count("\n") == 1
            assert "full_range" in err
        else:
            assert code == 0
            assert json.loads(params.read_text())["hooks"]["post_softmax"]["scale_r2"] == scale_r2

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
def _mutated_entry(draw):
    """A valid params entry with one to three fields replaced (by an odd value
    or another kind's entry) or deleted, at any depth."""
    entry = json.loads(json.dumps(draw(st.sampled_from(sorted(ENTRIES.items())))[1]))
    for _ in range(draw(st.integers(1, 3))):
        slots = []

        def walk(node):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, value in items:
                if key not in ("mad_fallbacks", "fallback_uniform"):  # stored, never applied
                    slots.append((node, key))
                    if isinstance(value, (dict, list)):
                        walk(value)

        walk(entry)
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if isinstance(node, dict) and draw(st.integers(0, 3)) == 0:  # delete one time in four
            del node[key]
        else:
            pool = ODD_VALUES + tuple(ENTRIES.values())
            node[key] = json.loads(json.dumps(draw(st.sampled_from(pool))))
    return entry


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


class TestMalformedInputs:
    """Malformed dumps and params files through quantize and evaluate: exit 0,
    or exit 1 with one stderr line, never a traceback."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("malformed")
        _write_sample_dump(workdir / "valid.dump")
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
