"""The benchmark's workloads and the checks on their outputs.

Every job drives ptqkit through `ptqkit.cli.main`, in process, exactly as the
`ptqkit` command would run it. A workload is built in three steps:
`prepare()` writes the inputs (it runs in a fresh interpreter and is what
`setup_s` times), `load()` reads what the checks compare against, and
`run_job(i)` / `check(i, out)` run and verify job `i`. Every job of a run
has the same inputs, so it must reproduce the first job's bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path


class CheckFailed(Exception):
    """A job ran but its outputs are wrong."""


def call_cli(argv: list[str]) -> str:
    """Run `ptqkit <argv>` in process and return its stdout.

    A nonzero exit raises CheckFailed carrying the diagnostic line.
    """
    from ptqkit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"ptqkit {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def _positive(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) and v > 0


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def quantizer_problems(where: str, q) -> list[str]:
    """Problems with one serialized quantizer: a missing, NaN or
    non-positive scale, a non-integer zero point or shift, or out-of-order
    group thresholds."""
    if not isinstance(q, dict):
        return [f"{where}: quantizer is {q!r}"]
    kind = q.get("kind")
    if kind == "uniform":
        scale, zp = q.get("scale"), q.get("zero_point")
        scales = scale if isinstance(scale, list) else [scale]
        zps = zp if isinstance(zp, list) else [zp]
        problems = []
        if not scales or not all(_positive(s) for s in scales):
            problems.append(f"{where}: bad scale {scale!r}")
        if len(zps) != len(scales) or not all(_integer(z) for z in zps):
            problems.append(f"{where}: bad zero_point {zp!r}")
        return problems
    if kind == "dual_region":
        problems = []
        if not _positive(q.get("scale_r2")):
            problems.append(f"{where}: bad scale_r2 {q.get('scale_r2')!r}")
        if not _integer(q.get("shift_m")) or q["shift_m"] < 0:
            problems.append(f"{where}: bad shift_m {q.get('shift_m')!r}")
        return problems
    if kind == "outlier_groups":
        groups = q.get("groups")
        if not isinstance(groups, list) or not groups:
            return [f"{where}: no groups"]
        problems = []
        uppers = [g.get("upper") if isinstance(g, dict) else None for g in groups]
        finite, last = uppers[:-1], uppers[-1]
        if last != "inf" or not all(_positive(u) for u in finite):
            problems.append(f"{where}: bad thresholds {uppers!r}")
        elif any(a >= b for a, b in zip(finite, finite[1:])):
            problems.append(f"{where}: thresholds not increasing {uppers!r}")
        for k, g in enumerate(groups):
            problems += quantizer_problems(f"{where}.groups[{k}]", g.get("params") if isinstance(g, dict) else None)
        return problems
    return [f"{where}: unknown quantizer kind {kind!r}"]


def params_problems(text: str, hooks: list[str], weights: bool = False) -> list[str]:
    """Check a params file: every expected hook present, every quantizer sound."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"params: not JSON ({exc})"]
    if not isinstance(doc, dict) or doc.get("format") != "ptqkit-params":
        return ["params: not a ptqkit parameter file"]
    problems = []
    got = doc.get("hooks")
    if not isinstance(got, dict) or sorted(got) != sorted(hooks):
        return [f"params: hooks {sorted(got) if isinstance(got, dict) else got!r} != {sorted(hooks)}"]
    for name, q in got.items():
        problems += quantizer_problems(f"hooks.{name}", q)
    if weights:
        ws = doc.get("weights")
        if not isinstance(ws, dict) or not ws:
            return problems + ["params: no weights"]
        for name, q in ws.items():
            problems += quantizer_problems(f"weights.{name}", q)
    return problems


def _sqnr(v) -> float:
    return math.inf if v == "inf" else float(v)


def report_hooks(text: str) -> dict[str, dict]:
    """Per-hook {mse, sqnr_db} of a calibration report, checked finite."""
    doc = json.loads(text)
    hooks = doc["hooks"]
    for name, h in hooks.items():
        if not (isinstance(h.get("mse"), float) and math.isfinite(h["mse"]) and h["mse"] >= 0):
            raise CheckFailed(f"report: hook {name} has mse {h.get('mse')!r}")
        if math.isnan(_sqnr(h.get("sqnr_db"))):
            raise CheckFailed(f"report: hook {name} has sqnr_db NaN")
    return hooks


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = seed
        self.first: str | None = None
        self.sqnr_min = math.inf

    def prepare(self) -> None:
        """Write the inputs; timed as set-up."""

    def load(self) -> None:
        """Read what the checks compare against, after prepare()."""

    def sizes(self) -> dict:
        raise NotImplementedError

    def elems_per_job(self) -> int:
        raise NotImplementedError

    def run_job(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        raise NotImplementedError

    def same_as_first(self, i: int, fingerprint: str) -> None:
        if self.first is None:
            self.first = fingerprint
        elif fingerprint != self.first:
            raise CheckFailed(f"job {i}: outputs differ from the first job's")

    def quality(self) -> dict:
        return {"recon_sqnr_db_min": (self.sqnr_min, "dB")}


class Pipeline(Workload):
    """`ptqkit pipeline` on the seeded toy network at W8A8, then at W4A4.

    One job runs both presets: they take different times, so with one
    preset per job the job times would have two modes and their median
    would jump between them.
    """

    name = "pipeline"
    presets = ("W8A8", "W4A4")

    def __init__(self, work: Path, seed: int, calib_count: int = 32):
        super().__init__(work, seed)
        self.calib_count = calib_count
        self.output_mse: dict[str, float] = {}
        self._elems = 0

    def prepare(self) -> None:
        """Count the activation elements calibrated per job. One forward
        pass gives the hook shapes; it runs here, in the set-up process, so
        that the measuring process's first job starts cold."""
        from ptqkit.toynet import QUANTIZED_HOOKS, ToyNetWeights, forward, seeded_inputs

        w = ToyNetWeights.seeded(self.seed)
        _, trace = forward(seeded_inputs(self.seed, 1, w.seq, w.dim)[0], w)
        sizes = {h: int(trace.activations[h].size) for h in QUANTIZED_HOOKS}
        self.work.mkdir(parents=True, exist_ok=True)
        (self.work / "hooks.json").write_text(json.dumps(sizes))

    def load(self) -> None:
        sizes = json.loads((self.work / "hooks.json").read_text())
        self.hooks = list(sizes)
        self._elems = len(self.presets) * self.calib_count * sum(sizes.values())

    def sizes(self) -> dict:
        return {
            "presets": list(self.presets),
            "calib_count": self.calib_count,
            "activation_elems_per_job": self._elems,
        }

    def elems_per_job(self) -> int:
        return self._elems

    def run_job(self, i: int):
        out = {}
        for preset in self.presets:
            params = self.work / f"params-{preset}.json"
            report = call_cli([
                "pipeline", "--seed", str(self.seed), "--preset", preset,
                "--calib-count", str(self.calib_count), "--params-out", str(params),
            ])
            out[preset] = (report, params.read_text())
        return out

    def check(self, i: int, out) -> None:
        parts = []
        for preset, (report, params) in out.items():
            problems = params_problems(params, self.hooks, weights=True)
            if problems:
                raise CheckFailed(f"{preset}: " + "; ".join(problems))
            hooks = report_hooks(report)
            mse = json.loads(report)["totals"]["output_mse_mean"]
            if not (isinstance(mse, float) and math.isfinite(mse) and mse > 0):
                raise CheckFailed(f"{preset} report: output_mse_mean {mse!r}")
            self.output_mse[preset] = mse
            self.sqnr_min = min([self.sqnr_min] + [_sqnr(h["sqnr_db"]) for h in hooks.values()])
            parts += [report.encode(), params.encode()]
        self.same_as_first(i, digest(*parts))

    def quality(self) -> dict:
        q = super().quality()
        for preset, mse in sorted(self.output_mse.items()):
            q[f"output_mse.{preset}"] = (mse, "1")
        return q


# hook -> (synth kind, columns, calibrate config entry). Rows default to 256:
# a ViT-B calibration batch of one layer.
DUMP_HOOKS = {
    "mlp.gelu": ("gelu", 3072, {"kind": "dual_region", "region": "gelu"}),
    "attn.softmax": ("softmax", 256, {"kind": "dual_region", "region": "softmax"}),
    "text.out": ("outlier", 768, {"kind": "outlier_groups"}),
    "fusion.out": ("outlier", 768, {"kind": "uniform", "scheme": "asymmetric", "method": "mse"}),
}


class Calibrate(Workload):
    """`ptqkit calibrate` over one directory of four activation dumps."""

    name = "calibrate"

    def __init__(self, work: Path, seed: int, rows: int = 256):
        super().__init__(work, seed)
        self.rows = rows
        self.dumps = self.work / "dumps"
        self.config = self.work / "config.json"

    def prepare(self) -> None:
        self.dumps.mkdir(parents=True, exist_ok=True)
        for k, (hook, (kind, cols, _)) in enumerate(DUMP_HOOKS.items()):
            call_cli([
                "synth", "--kind", kind, "--shape", f"{self.rows}x{cols}",
                "--seed", str(self.seed * len(DUMP_HOOKS) + k),
                "--out", str(self.dumps / f"{hook}.dump"),
            ])
        cfg = {"seed": self.seed, "bits": 8, "hooks": {h: spec for h, (_, _, spec) in DUMP_HOOKS.items()}}
        self.config.write_text(json.dumps(cfg, indent=2, sort_keys=True))

    def sizes(self) -> dict:
        return {"dumps": {h: [self.rows, cols] for h, (_, cols, _) in DUMP_HOOKS.items()}}

    def elems_per_job(self) -> int:
        return sum(self.rows * cols for _, cols, _ in DUMP_HOOKS.values())

    def calibrate(self, params: Path, report: Path) -> str:
        return call_cli([
            "calibrate", "--config", str(self.config), "--dumps", str(self.dumps),
            "--out", str(params), "--report", str(report),
        ])

    def run_job(self, i: int):
        params, report = self.work / "params.json", self.work / "report.json"
        self.calibrate(params, report)
        return params.read_text(), report.read_text()

    def check(self, i: int, out) -> None:
        params, report = out
        problems = params_problems(params, list(DUMP_HOOKS))
        if problems:
            raise CheckFailed("; ".join(problems))
        hooks = report_hooks(report)
        self.same_as_first(i, digest(params.encode(), report.encode()))
        self.sqnr_min = min([self.sqnr_min] + [_sqnr(h["sqnr_db"]) for h in hooks.values()])


# evaluate reads back a float32 reconstruction; calibrate scores the float64
# one. Rounding to float32 moves the MSE by about 2e-7 relative.
MSE_REL_TOL = 1e-5


class Apply(Calibrate):
    """`ptqkit quantize` then `ptqkit evaluate` for each of the four hooks,
    with parameters from one calibrate run during set-up."""

    name = "apply"

    def prepare(self) -> None:
        super().prepare()
        self.calibrate(self.work / "params.json", self.work / "report.json")

    def load(self) -> None:
        self.params = self.work / "params.json"
        problems = params_problems(self.params.read_text(), list(DUMP_HOOKS))
        if problems:
            raise CheckFailed("; ".join(problems))
        self.expected = report_hooks((self.work / "report.json").read_text())

    def run_job(self, i: int):
        out = {}
        for hook in DUMP_HOOKS:
            dump = self.dumps / f"{hook}.dump"
            recon = self.work / f"{hook}.recon"
            codes = self.work / f"{hook}.codes"
            call_cli([
                "quantize", "--params", str(self.params), "--hook", hook,
                "--in", str(dump), "--out", str(recon), "--codes", str(codes),
            ])
            out[hook] = call_cli(["evaluate", "--a", str(dump), "--b", str(recon)])
        return out

    def check(self, i: int, out) -> None:
        parts = []
        for hook, text in out.items():
            got = json.loads(text)
            want = self.expected[hook]["mse"]
            if not abs(got["mse"] - want) <= MSE_REL_TOL * want:
                raise CheckFailed(f"{hook}: evaluate mse {got['mse']!r} != calibrate mse {want!r}")
            self.sqnr_min = min(self.sqnr_min, _sqnr(got["sqnr_db"]))
            recon = self.work / f"{hook}.recon"
            codes = self.work / f"{hook}.codes"
            parts += [text.encode(), recon.read_bytes(), codes.read_bytes()]
        self.same_as_first(i, digest(*parts))


WORKLOADS = {w.name: w for w in (Pipeline, Calibrate, Apply)}
