"""ptqkit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload pipeline|calibrate|apply --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ptqkit is imported from its `src/`.
One single-threaded closed-loop client calls `ptqkit.cli.main` in process
and sends each job only after the previous one returned, for S seconds.
There is no warm-up: a user of the `ptqkit` command pays the first call's
costs on every invocation. Host-speed probes (hostspeed.py) run between
jobs and between set-ups; the bounded times are scaled by them. Every job's
outputs are checked; the first job fixes the bytes that later jobs must
reproduce.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 jobs alternate between untraced and traced, and it carries
the per-layer metrics from the traced jobs' spans (see spans.py). Earlier
lines print every figure by name and unit, plus the run environment; the
same record and, when tracing, the spans are written under bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from hostspeed import host_factor, probe
from spans import SpanRecorder, layer_metrics
from workloads import WORKLOADS, CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# Set-ups per run: the cheap ones (under 1 s) are repeated more, so that
# their median is steady; apply's includes a 7 s calibrate.
SETUP_REPEATS = {"pipeline": 11, "calibrate": 11, "apply": 3}
TAIL_BEYOND = 10
# Time spent on host-speed probes after each timed job or set-up, as a
# share of its time; at least one probe runs in every gap.
PROBE_SHARE = 0.1


def import_ptqkit():
    """Import ptqkit from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ptqkit
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import ptqkit from {src}: {exc}")
    if not Path(ptqkit.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: ptqkit resolved to {ptqkit.__file__}, outside {src}")
    return ptqkit


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it can be asked."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(wl, args) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": wl.sizes(),
    }


def probe_gap(budget: float) -> list[float]:
    """Probe times for one gap between timed pieces of work: one probe, and
    more until they add up to `budget` seconds."""
    probes = [probe()]
    while sum(probes) < budget:
        probes.append(probe())
    return probes


def normalized(times: list[float], gaps: list[list[float]]) -> list[float]:
    """Each time divided by the host factor of the probes in the gaps just
    before and just after it: the host's speed changes within seconds, so
    the nearest probes track it best. `gaps` has one more entry than
    `times`."""
    return [t / host_factor(before + after) for t, before, after in zip(times, gaps, gaps[1:])]


def timed_setup(workload: str, seed: int, work: Path) -> float:
    """Wall time of one set-up in a fresh interpreter: import ptqkit and
    write the workload's inputs (for apply, also the one-time calibrate)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--prepare",
           "--workload", workload, "--seed", str(seed), "--work", str(work)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"bench: set-up failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


def tail(times: list[float]) -> tuple[float, float, int]:
    """Time at the highest nearest-rank percentile with at least TAIL_BEYOND
    samples beyond it, as (value, percentile, samples beyond). With
    TAIL_BEYOND samples or fewer it is the maximum, with none beyond."""
    s = sorted(times)
    rank = len(s) - TAIL_BEYOND if len(s) > TAIL_BEYOND else len(s)
    return s[rank - 1], 100.0 * rank / len(s), len(s) - rank


def timed_setups(workload: str, seed: int, work: Path) -> tuple[list[float], list[list[float]]]:
    """Set-up wall times, and the host-speed probe gaps around them."""
    times, gaps = [], [probe_gap(0.0)]
    for _ in range(SETUP_REPEATS[workload]):
        times.append(timed_setup(workload, seed, work))
        gaps.append(probe_gap(PROBE_SHARE * times[-1]))
    return times, gaps


def measure(wl, seconds: float, trace: bool) -> dict:
    """Run the closed loop; return per-job records, the host-speed probe
    gaps around the jobs, and the span recorder."""
    recorder = SpanRecorder() if trace else None
    jobs = []
    gaps = [probe_gap(0.0)]
    min_jobs = 2 if trace else 1
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < min_jobs:
        traced = trace and i % 2 == 1
        error = None
        out = None
        if traced:
            recorder.job = i
            recorder.install()
        t0 = time.perf_counter()
        try:
            out = wl.run_job(i)
        except CheckFailed as exc:
            error = str(exc)
        except Exception:
            traceback.print_exc()
            error = traceback.format_exc().strip().splitlines()[-1]
        finally:
            wall = time.perf_counter() - t0
            if traced:
                recorder.uninstall()
        if error is None:
            try:
                wl.check(i, out)
            except (CheckFailed, KeyError, TypeError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            print(f"job {i} failed: {error}", file=sys.stderr)
        jobs.append({"i": i, "wall_s": wall, "traced": traced, "error": error})
        gaps.append(probe_gap(PROBE_SHARE * wall))
        i += 1
    return {"jobs": jobs, "gaps": gaps, "recorder": recorder}


def end_to_end(wl, loop: dict, setup: tuple[list[float], list[list[float]]]) -> tuple[dict, dict]:
    """The bounded metrics of BENCHMARK.json, and the figures printed beside
    them. Each time in the bounded metrics and in norm_job_p50_s is scaled
    by the host-speed probes next to it (see hostspeed.py); the other
    figures are as measured. The median job time is not bounded: within a
    run the host's speed changes in phases of seconds, which the probes
    follow only in part, and the median jumps between them, while the mean
    behind norm_elems_per_s moves smoothly."""
    setup_times, setup_gaps = setup
    jobs = loop["jobs"]
    norm_all = normalized([j["wall_s"] for j in jobs], loop["gaps"])
    walls = [j["wall_s"] for j in jobs if not j["traced"]]
    norm = [t for t, j in zip(norm_all, jobs) if not j["traced"]]
    setup_raw = statistics.median(setup_times)
    elems_raw = wl.elems_per_job() * len(walls) / sum(walls)
    p50_raw = statistics.median(walls)
    value, pct, beyond = tail(walls)
    bounded = {
        "setup_s": (statistics.median(normalized(setup_times, setup_gaps)), "s"),
        "norm_elems_per_s": (wl.elems_per_job() * len(norm) / sum(norm), "elems/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    figures = {
        "norm_job_p50_s": (statistics.median(norm), "s"),
        "setup_raw_s": (setup_raw, "s"),
        "elems_per_s": (elems_raw, "elems/s"),
        "job_p50_s": (p50_raw, "s"),
        "job_tail_s": (value, "s"),
        "job_tail_pct": (pct, "%"),
        "job_tail_beyond": (beyond, "jobs"),
        "jobs_timed": (len(walls), "jobs"),
        "host_factor": (host_factor([t for g in loop["gaps"] for t in g]), "ratio"),
        "setup_host_factor": (host_factor([t for g in setup_gaps for t in g]), "ratio"),
        "probes": (sum(len(g) for g in loop["gaps"]), "count"),
    }
    return bounded, figures


def per_layer(jobs: list[dict], recorder) -> dict:
    traced = [j["wall_s"] for j in jobs if j["traced"]]
    plain = [j["wall_s"] for j in jobs if not j["traced"]]
    metrics = layer_metrics(recorder.arrays(), len(traced), sum(traced))
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    return metrics


def run(args) -> dict:
    import_ptqkit()
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = timed_setups(args.workload, args.seed, work)
        wl = WORKLOADS[args.workload](work, args.seed)
        wl.load()
        env = environment(wl, args)
        loop = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    jobs = loop["jobs"]
    failed = sum(1 for j in jobs if j["error"] is not None)
    e2e, figures = end_to_end(wl, loop, setup)
    figures["error_rate"] = (failed / len(jobs), "ratio")
    figures.update(wl.quality())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = per_layer(jobs, loop["recorder"])
        loop["recorder"].save(OUT / f"spans-{stem}.npz")
    else:
        metrics = e2e
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"env": env, "end_to_end": e2e, "figures": figures, "setup_runs_s": setup[0],
              "setup_probe_gaps_s": setup[1], "probe_gaps_s": loop["gaps"], "jobs": jobs, "result": result}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    return record


def show(record: dict) -> None:
    env, res = record["env"], record["result"]
    print(f"ptqkit bench: workload={env['workload']} seed={env['seed']} trace={env['trace']} "
          f"jobs={res['attempted']} failed={res['failed']}")
    for name, (value, unit) in {**record["end_to_end"], **record["figures"]}.items():
        print(f"  {name:<24} {value:>14.6g} {unit}")
    if env["trace"]:
        for name, m in res["metrics"].items():
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(res))


def prepare(args) -> None:
    import_ptqkit()
    import ptqkit.cli  # noqa: F401  (set-up includes the CLI's import cost)

    WORKLOADS[args.workload](Path(args.work), args.seed).prepare()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.prepare:
        prepare(args)
        return 0
    show(run(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
