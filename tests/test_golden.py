"""Cross-version golden bytes for the CLI's outputs.

Every file the CLI writes is a deterministic function of its arguments, so
the pipeline reports and parameter files, the calibrate outputs and the
quantize dumps are pinned here byte for byte. A change that alters any of
them on purpose regenerates the fixtures with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from ptqkit.cli import main

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


def generate(work: Path) -> dict[str, bytes]:
    """Fixture file name -> bytes, produced by the CLI under `work`."""
    files = {}
    for preset in ("W8A8", "W4A4"):
        files.update(_pipeline(work, preset))
    files.update(_calibrate_quantize(work))
    return files


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
    ],
)
def test_bytes_match_golden(generated, name):
    assert generated[name] == (DATA / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, data in generate(Path(tmp)).items():
            (DATA / name).write_bytes(data)
            print(f"wrote {DATA / name} ({len(data)} bytes)")
