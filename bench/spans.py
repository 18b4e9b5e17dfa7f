"""Span recorder for the traced benchmark run.

Wraps the public functions of each ptqkit module from outside the package.
Every module namespace that bound a traced function (its defining module,
modules that did `from .x import f`, and `ptqkit/__init__`) gets the same
wrapper, so a call is recorded once whichever name it went through. Spans
stay in memory and are written out when the run ends; self time is derived
from child spans afterwards, so the wrapper itself does as little as it can.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _nelems(x) -> int:
    if isinstance(x, (list, tuple)):
        return sum(_nelems(e) for e in x)
    return int(np.size(getattr(x, "array", x)))


def _arg0(args, out) -> int:
    return _nelems(args[0])


def _arg01(args, out) -> int:
    return _nelems(args[0]) + _nelems(args[1])


def _result(args, out) -> int:
    return 0 if out is None else _nelems(out)


# module -> function -> element counter (None: the function gets no .elems).
# Calibrators and codecs count their array input, dump writers the array they
# write and read_dump the array it returns.
TRACED = {
    "cli": {"main": None},
    "toynet": {"run_pipeline": None, "backward_collect": None, "forward": None},
    "search": {
        "channelwise_params": _arg0,
        "mse_grid_search": _arg0,
        "alternating_matmul_search": _arg01,
    },
    "dual_region": {
        "calibrate_dual_region": _arg0,
        "fake_dual_region": _arg0,
        "encode_tensor": _arg0,
        "decode_tensor": _arg0,
    },
    "outlier_groups": {
        "calibrate_grouped": _arg0,
        "fake_grouped": _arg0,
        "encode_grouped": _arg0,
    },
    "uniform": {
        "fake_quant_array": _arg0,
        "quantize_array": _arg0,
        "error_stats": None,
        "fold_batchnorm": None,
    },
    "io": {
        "read_dump": _result,
        "write_dump": _arg0,
        "write_code_dump": _arg0,
        "emit_params": None,
        "parse_params": None,
        "report_to_text": None,
    },
}

SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in TRACED.items() for f in fns)


class SpanRecorder:
    """Records (function, parent span, job, start, end, elems) per call.

    install() puts the wrappers in place and uninstall() restores the
    original bindings. The caller sets `job` before each job so spans carry
    the job id.
    """

    def __init__(self):
        self.job = -1
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fid: int, fn, count):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                elems = count(args, out) if count is not None else 0
                spans[idx] = (fid, parent, self.job, t0, t1, elems)

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("span recorder already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ptqkit" or name.startswith("ptqkit."))
        ]
        fid = 0
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"ptqkit.{mod_name}"]
            for fn_name, count in fns.items():
                original = getattr(home, fn_name)
                wrapper = self._wrap(fid, original, count)
                fid += 1
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns; a span whose call never returned is dropped."""
        rows = [s for s in self.spans if s is not None]
        data = np.array(rows, dtype=np.int64).reshape(-1, 6)
        fid, parent, job, t0, t1, elems = data.T
        return {"fid": fid, "parent": parent, "job": job, "t0": t0, "t1": t1, "elems": elems}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.arrays())


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed duration of its direct children.

    Calls are single-threaded and nested, so children are disjoint
    sub-intervals of their parent.
    """
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child


def layer_metrics(cols: dict[str, np.ndarray], n_jobs: int, job_wall_s: float) -> dict:
    """Per-function and per-module figures per traced job, plus coverage.

    No traced function calls itself, so a function's total time is the sum
    of its spans' durations.
    """
    dur_ns = cols["t1"] - cols["t0"]
    dur = dur_ns / 1e9
    selft = self_times(cols["parent"], dur_ns) / 1e9
    fid = cols["fid"]
    n = len(SPAN_NAMES)
    calls = np.bincount(fid, minlength=n)
    total = np.bincount(fid, weights=dur, minlength=n)
    self_s = np.bincount(fid, weights=selft, minlength=n)
    elems = np.bincount(fid, weights=cols["elems"], minlength=n)
    out: dict[str, tuple[float, str]] = {}
    module_self: dict[str, float] = {}
    i = 0
    for mod_name, fns in TRACED.items():
        for fn_name, count in fns.items():
            key = f"{mod_name}.{fn_name}"
            out[f"{key}.calls"] = (calls[i] / n_jobs, "1/job")
            out[f"{key}.total_s"] = (total[i] / n_jobs, "s/job")
            out[f"{key}.self_s"] = (self_s[i] / n_jobs, "s/job")
            if count is not None:
                out[f"{key}.elems"] = (elems[i] / n_jobs, "elems/job")
            module_self[mod_name] = module_self.get(mod_name, 0.0) + self_s[i]
            i += 1
    for mod_name, s in module_self.items():
        out[f"{mod_name}.self_s"] = (s / n_jobs, "s/job")
    out["trace.coverage"] = (float(selft.sum()) / job_wall_s if job_wall_s > 0 else 0.0, "ratio")
    return {k: (float(v), unit) for k, (v, unit) in out.items()}
