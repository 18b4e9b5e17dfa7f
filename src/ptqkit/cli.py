"""Command-line driver.

Subcommands:
  synth      write a seeded synthetic activation dump
  calibrate  fit quantizers to dump files per a JSON config
  quantize   apply stored parameters to a dump (reconstruction + codes)
  evaluate   compare two dumps (error metrics) or mask directories (IoU)
  pipeline   run the built-in network end to end and emit its report

All outputs are deterministic functions of the arguments; errors exit
nonzero with a single diagnostic line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import io as pio
from .dual_region import KINDS as REGIONS
from .dual_region import calibrate_dual_region
from .errors import InvalidArgument, QuantizationError, ShapeError
from .generate import KINDS as SYNTH_KINDS
from .generate import synth
from .metrics import mask_metrics
from .outlier_groups import ThresholdStrategy, calibrate_grouped
from .report import CalibrationReport, HookReport
from .search import CHUNK_ELEMS, SearchSpace, mse_grid_search, percentile_calibrate
from .toynet import MODULES, PRESETS, PipelineConfig, ToyNetWeights, run_pipeline, seeded_inputs
from .uniform import error_stats

DEFAULT_BITS = 8  # calibrate's bit-width when neither the hook nor the config sets one

# The keys a calibrate config may set at its top level: the shared settings, each
# a default for every hook entry that does not set it (see `_calibrator`), then seed and hooks.
SHARED_KEYS = {"bits", "alpha", "beta", "n_candidates", "percentile", "strategy",
               "mad_multiplier", "mean_multiplier", "confidence_level", "max_iters"}
CONFIG_KEYS = SHARED_KEYS | {"seed", "hooks"}


def _parse_shape(text: str) -> tuple[int, ...]:
    seps = "x" if "x" in text else ","
    try:
        return tuple(int(part) for part in text.split(seps))
    except ValueError:
        raise QuantizationError(f"cannot parse shape {text!r}; use e.g. 64x16") from None


def _cmd_synth(args) -> int:
    t = synth(args.kind, _parse_shape(args.shape), args.seed)
    pio.write_dump(t, args.out)
    print(f"wrote {args.out} shape {'x'.join(map(str, t.shape))}")
    return 0


def _collect_samples(dumps_dir: Path, hook: str) -> np.ndarray:
    """Every dump of `hook`, stacked in float64 along a new leading axis."""
    exact = dumps_dir / f"{hook}.dump"
    files = sorted(dumps_dir.glob(f"{hook}__*.dump"))
    if exact.exists():
        files.insert(0, exact)
    if not files:
        raise QuantizationError(f"no dump files for hook {hook!r} in {dumps_dir}")
    samples = [pio.read_dump(f) for f in files]
    shapes = {s.shape for s in samples}
    if len(shapes) > 1:
        raise ShapeError(f"dumps for hook {hook!r} differ in shape: {sorted(shapes)}")
    return np.stack([s.array.astype(np.float64) for s in samples])


def _calibrator(hook: str, spec, cfg: dict):
    """The calibrator that `hook`'s entry `spec` asks for, with every setting bound: it takes
    only the stacked samples. The entry must be an object of a known kind.

    A setting is read from the entry first, then, if shared, from the config; one that neither
    sets takes the calibrator's default. An entry key that the calibrator does not read is an
    error. The bound calibrator runs once on one zero: its checks run before any dump is read.
    """
    if not isinstance(spec, dict):
        raise InvalidArgument(f"hook {hook!r} must map to an object, got {spec!r}")
    given = {**{k: v for k, v in cfg.items() if k in SHARED_KEYS}, **spec}  # the entry's own win
    read = set()

    def settings(*keys: str, **names: str) -> dict:
        """Those of `keys` that are given, under the calibrator's `names` for them."""
        read.update(keys)
        return {names.get(k, k): given[k] for k in keys if k in given}

    setting = lambda key, default: settings(key).get(key, default)  # noqa: E731
    space = lambda: SearchSpace(**settings("alpha", "beta", "n_candidates"))  # noqa: E731
    kind, bits = setting("kind", "uniform"), setting("bits", DEFAULT_BITS)
    if kind == "uniform":
        method = setting("method", "mse")
        uniform = dict(bits=bits, scheme=setting("scheme", "asymmetric"), signed=setting("signed", False))
        if method == "mse":
            calibrate = partial(mse_grid_search, **uniform, space=space())
        elif method == "percentile":
            calibrate = partial(percentile_calibrate, **uniform, **settings("percentile", percentile="p"))
        else:
            raise QuantizationError(f"unknown uniform method {method!r}")
    elif kind == "dual_region":
        region = setting("region", None)
        if region not in REGIONS:
            raise QuantizationError(f"dual_region hooks need region: {'|'.join(REGIONS)}")
        calibrate = partial(calibrate_dual_region, kind=region, bits=bits)
        if region == "gelu":  # the softmax search has no grid
            calibrate = partial(calibrate, space=space())
    elif kind == "outlier_groups":
        strategy = ThresholdStrategy(**settings("strategy", "mad_multiplier", "mean_multiplier", "confidence_level",
                                                strategy="kind"))
        calibrate = partial(calibrate_grouped, bits=bits, strategy=strategy, space=space(), **settings("max_iters"))
    else:
        raise QuantizationError(f"unknown quantizer kind {kind!r}")
    _check_keys(f"hook {hook!r}", spec, read)
    calibrate(np.zeros(1))  # the calibrator checks its settings, before any dump is read
    return calibrate


def _check_keys(where: str, entry: dict, allowed: set) -> None:
    """One error naming the first key of `entry` outside `allowed`."""
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise InvalidArgument(f"unknown key {unknown[0]!r} in {where}")


def _cmd_calibrate(args) -> int:
    try:
        cfg = json.loads(Path(args.config).read_text())
        json.dumps(cfg, allow_nan=False)  # the report echoes it: inf and NaN fail here, not after calibrating
    except (ValueError, RecursionError) as exc:  # undecodable text, bad or too deep JSON, inf or NaN
        raise QuantizationError(f"malformed config: {exc}") from None
    hooks_cfg = cfg.get("hooks") if isinstance(cfg, dict) else None
    if not isinstance(hooks_cfg, dict) or not hooks_cfg:
        raise QuantizationError("config must define a non-empty 'hooks' mapping")
    _check_keys("the config", cfg, CONFIG_KEYS)
    dumps_dir = Path(args.dumps)
    doc = pio.ParamDoc(meta={"seed": cfg.get("seed"), "bits": cfg.get("bits", DEFAULT_BITS)})
    reports: dict[str, HookReport] = {}
    try:  # every calibrator checks its settings before any dump is read
        calibrators = {}
        for hook, spec in sorted(hooks_cfg.items()):
            calibrators[hook] = _calibrator(hook, spec, cfg)
        for hook, calibrate in calibrators.items():
            stacked = _collect_samples(dumps_dir, hook)
            params = doc.hooks[hook] = calibrate(stacked)
            recon = params.fake(stacked)  # kept to the next hook's: freed at once, calibrate ran 12% slower (2 CPUs)
            reports[hook] = HookReport(*error_stats(stacked, recon))
    except QuantizationError as exc:  # one line that names the hook first, unless it names it already
        if f"hook {hook!r}" in str(exc):
            raise
        raise type(exc)(f"hook {hook!r}: {exc}") from None
    pio.emit_params(doc, args.out)
    report = CalibrationReport(hooks=reports, config=cfg, seed=cfg.get("seed"))
    text = pio.report_to_text(report)
    if args.report:
        Path(args.report).write_text(text)
    print(text, end="")
    return 0


def _cmd_quantize(args) -> int:
    doc = pio.parse_params(args.params)
    hooks = doc.hooks
    if args.hook:
        if args.hook not in hooks:
            raise QuantizationError(f"hook {args.hook!r} not in parameter file")
        params = hooks[args.hook]
    elif len(hooks) == 1:
        params = next(iter(hooks.values()))
    else:
        raise QuantizationError(f"--hook required; file defines {sorted(hooks)}")
    codes, recon = _encode_blocks(params, pio.read_dump(getattr(args, "in")).array)
    pio.write_dump(recon, args.out)
    codes_path = args.codes or f"{args.out}.codes"
    pio.write_code_dump(codes, codes_path)
    print(f"wrote {args.out} and {codes_path}")
    return 0


def _encode_blocks(params, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`params.encode` of the float32 `arr` in float64: the codes and the float32 reconstruction,
    coded CHUNK_ELEMS elements of the flattened `arr` at a time so every temporary stays in cache.
    Every per-tensor codec codes each element alone, so the bytes are those of one whole-array
    call, which a per-channel quantizer (it needs the axes) still makes."""
    if getattr(params, "per_channel", False):
        codes, recon = params.encode(arr.astype(np.float64))
        return codes, recon.astype(np.float32)
    flat, recon, codes = arr.reshape(-1), np.empty(arr.size, np.float32), None
    for j in range(0, arr.size, CHUNK_ELEMS):
        block = slice(j, j + CHUNK_ELEMS)
        block_codes, recon[block] = params.encode(flat[block].astype(np.float64))
        if codes is None:  # a grouped quantizer's codes lead with its (group, code) axis
            codes = np.empty((*block_codes.shape[:-1], arr.size), np.int32)
        codes[..., block] = block_codes
    return (codes if codes.ndim > 1 else codes.reshape(arr.shape)), recon.reshape(arr.shape)


def _mask_pairs(a: Path, b: Path) -> tuple[list, list]:
    if a.is_dir() != b.is_dir():
        raise QuantizationError("mask inputs must both be files or both directories")
    if a.is_dir():
        names = sorted(p.name for p in a.glob("*.dump"))
        if not names or names != sorted(p.name for p in b.glob("*.dump")):
            raise QuantizationError("mask directories must hold matching *.dump files")
        return (
            [pio.read_dump(a / n) for n in names],
            [pio.read_dump(b / n) for n in names],
        )
    return [pio.read_dump(a)], [pio.read_dump(b)]


def _cmd_evaluate(args) -> int:
    if args.masks:
        preds, gts = _mask_pairs(Path(args.a), Path(args.b))
        m = mask_metrics(preds, gts)
        payload = {
            "oiou": m.oiou,
            "miou": m.miou,
            "prec_at": {str(k): v for k, v in m.prec_at.items()},
        }
    else:
        ta = pio.read_dump(args.a)
        tb = pio.read_dump(args.b)
        payload = HookReport(*error_stats(ta.array, tb.array)).to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_pipeline(args) -> int:
    modes = {module: getattr(args, module) for module in MODULES}
    cfg = PipelineConfig.from_preset(args.preset, seed=args.seed, **modes)
    weights = ToyNetWeights.seeded(args.seed)
    inputs = seeded_inputs(args.seed, args.calib_count, weights.seq, weights.dim)
    plan, report = run_pipeline(inputs, weights, cfg)
    text = pio.report_to_text(report)
    if args.out:
        Path(args.out).write_text(text)
    if args.params_out:
        doc = pio.ParamDoc(
            hooks=dict(plan.hooks),
            weights=dict(plan.weight_params),
            meta={"preset": args.preset, "seed": args.seed, "decoder_folded": True},
        )
        pio.emit_params(doc, args.params_out)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ptqkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a seeded synthetic activation dump")
    p.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p.add_argument("--shape", required=True, help="e.g. 64x16")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("calibrate", help="fit quantizers to dump files")
    p.add_argument("--config", required=True, help="JSON config with a 'hooks' mapping")
    p.add_argument("--dumps", required=True, help="directory of <hook>.dump / <hook>__N.dump files")
    p.add_argument("--out", required=True, help="parameter file to write")
    p.add_argument("--report", help="optional report file")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("quantize", help="apply stored parameters to a dump")
    p.add_argument("--params", required=True)
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--out", required=True, help="reconstructed float dump")
    p.add_argument("--codes", help="code dump path (default: <out>.codes)")
    p.add_argument("--hook", help="hook to use when the file defines several")
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("evaluate", help="compare two dumps or mask sets")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--masks", action="store_true", help="treat inputs as binary masks")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("pipeline", help="run the built-in network end to end")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--preset", default="W8A8", choices=sorted(PRESETS))
    p.add_argument("--calib-count", type=int, default=32)
    for module, modes in MODULES.items():
        p.add_argument(f"--{module}", default=getattr(PipelineConfig, module), choices=modes)
    p.add_argument("--out", help="write the report here as well as stdout")
    p.add_argument("--params-out", help="write the calibrated parameter file")
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QuantizationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
