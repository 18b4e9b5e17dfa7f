"""Cross-version golden bytes for the CLI's outputs.

Every file the CLI writes is a deterministic function of its arguments, so
the pipeline reports and parameter files, the calibrate outputs and the
quantize dumps are pinned here byte for byte. The module ablation (every
combination of round-to-nearest and dedicated treatment per module, plus
the MSE-metric variant) is pinned by the sha256 of the same bytes, and so are
the pipeline outputs of the other presets and seeds. A change that alters any of
them on purpose regenerates the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md, listing what the script prints: before it writes,
it compares each fixture with the file it replaces and prints `unchanged
<name>`, or `changed <name>:` and the top-level JSON keys that differ.
"""

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

import pytest

from ptqkit import io as pio
from ptqkit.cli import main
from ptqkit.toynet import PipelineConfig, ToyNetWeights, run_pipeline, seeded_inputs

DATA = Path(__file__).parent / "data"

# hook -> (synth kind, shape, seeds of its two dumps)
DUMPS = {
    "attn.softmax": ("softmax", "16x16", (0, 1)),
    "mlp.gelu": ("gelu", "16x64", (2, 3)),
    "text": ("outlier", "32x32", (4, 5)),
    "feat": ("outlier", "16x32", (6, 7)),
}

CONFIG = {
    "seed": 0,
    "bits": 8,
    "hooks": {
        "attn.softmax": {"kind": "dual_region", "region": "softmax"},
        "mlp.gelu": {"kind": "dual_region", "region": "gelu"},
        "text": {"kind": "outlier_groups", "max_iters": 3},
        "feat": {"kind": "uniform", "method": "mse", "scheme": "asymmetric", "bits": 6},
    },
}


def _cli(*args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in args])
    if code != 0:
        raise RuntimeError(f"ptqkit {' '.join(map(str, args))} exited {code}")
    return out.getvalue()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# module flag -> (round-to-nearest, dedicated treatment)
ABLATION = {
    "visual": ("rtn", "dual_region"),
    "text": ("rtn", "outlier_groups"),
    "fusion": ("rtn", "search"),
    "decoder": ("rtn", "search"),
}


def _pipeline(work: Path, preset: str) -> dict[str, bytes]:
    report = work / f"{preset}.report.json"
    params = work / f"{preset}.params.json"
    _cli("pipeline", "--seed", 0, "--preset", preset, "--out", report, "--params-out", params)
    return {
        f"golden_pipeline_{preset}_seed0_report.json": report.read_bytes(),
        f"golden_pipeline_{preset}_seed0_params.json": params.read_bytes(),
    }


def _calibrate_quantize(work: Path) -> dict[str, bytes]:
    dumps = work / "dumps"
    dumps.mkdir()
    for hook, (kind, shape, seeds) in DUMPS.items():
        for i, seed in enumerate(seeds):
            out = dumps / f"{hook}__{i:03d}.dump"
            _cli("synth", "--kind", kind, "--shape", shape, "--seed", seed, "--out", out)
    config = work / "config.json"
    config.write_text(json.dumps(CONFIG))
    params = work / "params.json"
    report = work / "report.json"
    _cli("calibrate", "--config", config, "--dumps", dumps, "--out", params, "--report", report)

    applied = {}
    for hook in sorted(DUMPS):
        src = dumps / f"{hook}__000.dump"
        recon = work / f"{hook}.recon.dump"
        codes = work / f"{hook}.codes.dump"
        _cli("quantize", "--params", params, "--hook", hook, "--in", src, "--out", recon, "--codes", codes)
        applied[hook] = {
            "recon_sha256": _sha256(recon),
            "codes_sha256": _sha256(codes),
            "evaluate": _cli("evaluate", "--a", src, "--b", recon),
        }
    # a dump against itself: zero error, so sqnr_db is +inf
    applied["identical.evaluate"] = _cli("evaluate", "--a", src, "--b", src)
    text = json.dumps(applied, indent=2, sort_keys=True) + "\n"
    return {
        "golden_calibrate_seed0_params.json": params.read_bytes(),
        "golden_calibrate_seed0_report.json": report.read_bytes(),
        "golden_quantize_seed0.json": text.encode(),
    }


def _ablation(work: Path) -> dict[str, bytes]:
    """sha256 of the W4A4 pipeline outputs for each module-mode combination,
    and of the report text of the MSE-metric variant."""
    runs = {}
    for modes in itertools.product(*ABLATION.values()):
        flags = dict(zip(ABLATION, modes))
        key = ",".join(f"{k}={v}" for k, v in flags.items())
        report = work / f"ablation.{key}.report.json"
        params = work / f"ablation.{key}.params.json"
        argv = [f"--{k}={v}" for k, v in flags.items()]
        _cli("pipeline", "--seed", 0, "--preset", "W4A4", *argv, "--out", report, "--params-out", params)
        runs[key] = {"report_sha256": _sha256(report), "params_sha256": _sha256(params)}
    weights = ToyNetWeights.seeded(0)
    inputs = seeded_inputs(0, 32, weights.seq, weights.dim)
    cfg = PipelineConfig.from_preset("W4A4", seed=0, metric="mse")
    _, report = run_pipeline(inputs, weights, cfg)
    text = pio.report_to_text(report).encode()
    doc = {"pipeline_W4A4": runs, "run_pipeline_W4A4_mse_report_sha256": hashlib.sha256(text).hexdigest()}
    return {"golden_ablation_seed0.json": (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()}


# preset -> seeds pinned by hash (seed 0 of W8A8 and W4A4 is pinned by bytes above)
PRESET_SEEDS = {"W8A8": (1, 2, 3), "W6A6": (0,), "W4A8": (0,), "W4A4": (1, 2, 3)}


def _presets(work: Path) -> dict[str, bytes]:
    """sha256 of the pipeline report and params bytes of each preset and seed."""
    runs = {}
    for preset, seeds in PRESET_SEEDS.items():
        for seed in seeds:
            report = work / f"presets.{preset}.{seed}.report.json"
            params = work / f"presets.{preset}.{seed}.params.json"
            _cli("pipeline", "--seed", seed, "--preset", preset, "--out", report, "--params-out", params)
            runs[f"{preset},seed={seed}"] = {"report_sha256": _sha256(report), "params_sha256": _sha256(params)}
    return {"golden_pipeline_presets.json": (json.dumps(runs, indent=2, sort_keys=True) + "\n").encode()}


def generate(work: Path) -> dict[str, bytes]:
    """Fixture file name -> bytes, produced by the CLI under `work`."""
    files = {}
    for preset in ("W8A8", "W4A4"):
        files.update(_pipeline(work, preset))
    files.update(_calibrate_quantize(work))
    files.update(_ablation(work))
    files.update(_presets(work))
    return files


def changed_keys(old: bytes, new: bytes) -> list[str]:
    """The top-level keys whose values differ between two JSON fixtures: every key when `old` is empty."""
    a, b = json.loads(old or b"{}"), json.loads(new)
    return sorted(k for k in a.keys() | b.keys() if k not in a or k not in b or a[k] != b[k])


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    return generate(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize(
    "name",
    [
        "golden_pipeline_W8A8_seed0_report.json",
        "golden_pipeline_W8A8_seed0_params.json",
        "golden_pipeline_W4A4_seed0_report.json",
        "golden_pipeline_W4A4_seed0_params.json",
        "golden_calibrate_seed0_params.json",
        "golden_calibrate_seed0_report.json",
        "golden_quantize_seed0.json",
        "golden_ablation_seed0.json",
        "golden_pipeline_presets.json",
    ],
)
def test_bytes_match_golden(generated, name):
    assert generated[name] == (DATA / name).read_bytes()


def test_changed_keys_are_the_top_level_keys_that_differ():
    old = b'{"a": 1, "b": {"x": 2}, "c": 3}'
    assert changed_keys(old, old) == []
    assert changed_keys(old, b'{"a": 1, "b": {"x": 4}, "d": 3}') == ["b", "c", "d"]
    assert changed_keys(b"", b'{"a": 1, "b": 2}') == ["a", "b"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, data in generate(Path(tmp)).items():
            path = DATA / name
            old = path.read_bytes() if path.exists() else b""
            print(f"unchanged {name}" if old == data else f"changed {name}: {', '.join(changed_keys(old, data))}")
            path.write_bytes(data)
