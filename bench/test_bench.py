"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import hostspeed
import run
from spans import SPAN_NAMES, SpanRecorder, layer_metrics, self_times
from workloads import Apply, Calibrate, CheckFailed, Pipeline, params_problems

run.import_ptqkit()

TINY = {
    "pipeline": lambda work: Pipeline(work, 3, calib_count=2),
    "calibrate": lambda work: Calibrate(work, 3, rows=2),
    "apply": lambda work: Apply(work, 3, rows=2),
}


def ready(name, tmp_path):
    wl = TINY[name](tmp_path)
    wl.prepare()
    wl.load()
    return wl


def ptqkit_bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if mod is not None and (name == "ptqkit" or name.startswith("ptqkit."))
        for attr, value in vars(mod).items()
        if callable(value)
    }


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_each_workload(name, tmp_path):
    wl = ready(name, tmp_path)
    loop = run.measure(wl, 0.0, trace=False)
    jobs = loop["jobs"]
    assert len(jobs) == 1
    assert jobs[0]["error"] is None
    assert len(loop["gaps"]) == 2 and all(loop["gaps"])
    e2e, figures = run.end_to_end(wl, loop, ([0.5], [[0.02], [0.02]]))
    assert all(value > 0 for value, _ in e2e.values())
    assert figures["jobs_timed"][0] == 1
    assert figures["job_tail_s"][0] == figures["job_p50_s"][0] == jobs[0]["wall_s"]
    assert np.isfinite(wl.quality()["recon_sqnr_db_min"][0])


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_removes_wrappers(name, tmp_path):
    wl = ready(name, tmp_path)
    before = ptqkit_bindings()
    loop = run.measure(wl, 0.0, trace=True)
    assert ptqkit_bindings() == before
    cols = loop["recorder"].arrays()
    traced = {j["i"] for j in loop["jobs"] if j["traced"]}
    assert traced and set(cols["job"].tolist()) == traced
    assert SPAN_NAMES[cols["fid"][cols["parent"] < 0][0]] == "cli.main"


def test_wrappers_cover_every_binding():
    from ptqkit import cli, io, search, toynet, uniform

    import ptqkit

    originals = (uniform.fake_quant_array, search.mse_grid_search, io.read_dump, toynet.run_pipeline)
    recorder = SpanRecorder()
    recorder.install()
    try:
        for fn in originals:
            assert getattr(ptqkit, fn.__name__) is not fn
        assert search.fake_quant_array is not originals[0]
        assert toynet.mse_grid_search is not originals[1]
        assert cli.mse_grid_search is toynet.mse_grid_search is search.mse_grid_search
    finally:
        recorder.uninstall()
    assert search.fake_quant_array is originals[0]
    assert cli.run_pipeline is originals[3]


def test_self_time_within_wall_time(tmp_path):
    wl = ready("pipeline", tmp_path)
    loop = run.measure(wl, 0.0, trace=True)
    cols = loop["recorder"].arrays()
    dur = cols["t1"] - cols["t0"]
    selft = self_times(cols["parent"], dur)
    assert (selft >= 0).all()
    for j in loop["jobs"]:
        if j["traced"]:
            assert selft[cols["job"] == j["i"]].sum() <= j["wall_s"] * 1e9
    traced = [j for j in loop["jobs"] if j["traced"]]
    m = layer_metrics(cols, len(traced), sum(j["wall_s"] for j in traced))
    assert 0 < m["trace.coverage"][0] <= 1
    assert m["toynet.run_pipeline.calls"][0] == len(wl.presets)
    assert m["toynet.self_s"][0] <= m["toynet.run_pipeline.total_s"][0]


def test_self_time_subtracts_direct_children_only():
    parent = np.array([-1, 0, 1, 0])
    dur = np.array([100, 50, 20, 30])
    assert self_times(parent, dur).tolist() == [20, 30, 20, 30]


def corruptions():
    yield "negative scale", lambda d: d["hooks"]["fusion.out"].__setitem__("scale", -1.0)
    yield "NaN scale", lambda d: d["hooks"]["mlp.gelu"].__setitem__("scale_r2", float("nan"))
    yield "None scale", lambda d: d["hooks"]["text.out"]["groups"][0]["params"].__setitem__("scale", None)
    yield "zero scale", lambda d: d["hooks"]["attn.softmax"].__setitem__("scale_r2", 0.0)
    yield "missing hook", lambda d: d["hooks"].pop("text.out")
    yield "open last group", lambda d: d["hooks"]["text.out"]["groups"][-1].__setitem__("upper", 5.0)


@pytest.mark.parametrize("label,corrupt", list(corruptions()), ids=[c[0] for c in corruptions()])
def test_checks_fail_on_corrupted_params(label, corrupt, tmp_path):
    wl = ready("calibrate", tmp_path)
    params, report = wl.run_job(0)
    wl.check(0, (params, report))
    doc = json.loads(params)
    corrupt(doc)
    bad = json.dumps(doc, indent=2, sort_keys=True)
    assert params_problems(bad, list(json.loads(params)["hooks"]))
    with pytest.raises(CheckFailed):
        wl.check(1, (bad, report))


def test_apply_fails_when_params_no_longer_match_calibration(tmp_path):
    wl = ready("apply", tmp_path)
    doc = json.loads(wl.params.read_text())
    doc["hooks"]["fusion.out"]["scale"] *= 1.5
    wl.params.write_text(json.dumps(doc))
    jobs = run.measure(wl, 0.0, trace=False)["jobs"]
    assert all("fusion.out: evaluate mse" in j["error"] for j in jobs)


def test_repeat_must_reproduce_first_outputs(tmp_path):
    wl = ready("calibrate", tmp_path)
    params, report = wl.run_job(0)
    wl.check(0, (params, report))
    wl.check(1, (params, report))
    with pytest.raises(CheckFailed):
        wl.check(2, (params, report.replace('"seed": 3', '"seed": 4')))


def test_each_time_is_scaled_by_the_probes_next_to_it(tmp_path):
    wl = ready("pipeline", tmp_path)
    ref = hostspeed.REF_S
    jobs = [{"i": i, "wall_s": 2.0, "traced": False, "error": None} for i in range(2)]
    # Job 0 sits between gaps at 1x and 3x the reference probe time (host
    # factor 2), job 1 between 3x and 1x and 5x (host factor 3).
    gaps = [[ref], [3 * ref], [ref, 5 * ref]]
    assert run.normalized([2.0, 2.0], gaps) == [1.0, 2.0 / 3.0]
    e2e, figures = run.end_to_end(wl, {"jobs": jobs, "gaps": gaps}, ([2.0, 4.0], gaps[:2] + [[ref]]))
    assert e2e["setup_s"][0] == 1.5
    assert figures["norm_job_p50_s"][0] == (1.0 + 2.0 / 3.0) / 2
    assert e2e["norm_elems_per_s"][0] == 2 * wl.elems_per_job() / (1.0 + 2.0 / 3.0)
    assert figures["elems_per_s"][0] == wl.elems_per_job() / 2.0
    assert figures["host_factor"][0] == 10 / 4


def test_a_probe_gap_takes_its_share_of_the_time():
    assert len(run.probe_gap(0.0)) == 1
    probes = run.probe_gap(3 * hostspeed.REF_S)
    assert sum(probes[:-1]) < 3 * hostspeed.REF_S <= sum(probes)


def test_tail_has_ten_samples_beyond():
    times = [float(t) for t in range(1, 41)]
    assert run.tail(times) == (30.0, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "cannot import ptqkit" in proc.stderr
    assert time.monotonic() - t0 < 60


def test_benchmark_json_names_what_the_run_prints(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wl = ready("pipeline", tmp_path)
    loop = run.measure(wl, 0.0, trace=True)
    e2e, _ = run.end_to_end(wl, loop, ([0.5], [[0.02], [0.02]]))
    layers = run.per_layer(loop["jobs"], loop["recorder"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert {w["name"] for w in spec["workloads"]} == set(TINY)
