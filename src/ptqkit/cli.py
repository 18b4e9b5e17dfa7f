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
import math
import os
import sys
from contextlib import nullcontext
from functools import partial
from itertools import chain
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
from .search import SearchSpace, mse_grid_search, percentile_calibrate, piece_codec
from .toynet import MODULES, PRESETS, PipelineConfig, ToyNetWeights, run_pipeline, seeded_inputs
from .uniform import CHUNK_ELEMS, block_stats

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


def _check_outputs(args, inputs: tuple, outputs: tuple) -> None:
    """One error, before anything is written, if an output option names an input or an earlier
    output, compared after `os.path.realpath`."""
    named = {}  # each resolved path, and the first option that names it
    for key in inputs + outputs:
        path = getattr(args, key)
        if path:
            flag, real = key.replace("_", "-"), os.path.realpath(path)
            if real in named and key in outputs:
                raise InvalidArgument(f"--{named[real]} and --{flag} name the same file {path}")
            named.setdefault(real, flag)


def _is_dump_of(name: str, hook: str) -> bool:
    """Whether the file `name` in --dumps is a dump of `hook`: `<hook>.dump` or `<hook>__*.dump`."""
    return name == f"{hook}.dump" or (name.startswith(f"{hook}__") and name.endswith(".dump"))


def _collect_samples(dumps_dir: str, hook: str) -> np.ndarray:
    """Every dump of `hook` directly in `dumps_dir`, stacked in float32 along a new leading axis."""
    files = [os.path.join(dumps_dir, name) for name in sorted(os.listdir(dumps_dir))  # `<hook>.dump` sorts first
             if _is_dump_of(name, hook)]
    if not files:
        raise QuantizationError(f"no dump files in {dumps_dir}")
    for i, f in enumerate(files):  # one float32 stack, filled a dump at a time
        arr = pio.read_dump(f).array
        if i == 0:
            stacked = np.empty((len(files), *arr.shape), np.float32)
        elif arr.shape != stacked.shape[1:]:
            raise ShapeError(f"dumps differ in shape: {sorted({stacked.shape[1:], arr.shape})}")
        stacked[i] = arr
        del arr  # freed before the next dump is read
    return stacked


def _calibrator(spec, cfg: dict):
    """The calibrator that a hook's entry `spec` asks for, with every setting bound: it takes
    only the stacked samples. The entry must be an object of a known kind.

    A setting is read from the entry first, then, if shared, from the config; one that neither
    sets takes the calibrator's default. An entry key that the calibrator does not read is an
    error. The bound calibrator runs once on one zero: its checks run before any dump is read.
    """
    if not isinstance(spec, dict):
        raise InvalidArgument(f"entry must be an object, got {spec!r}")
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
    _check_keys("its entry", spec, read)
    calibrate(np.zeros(1))  # the calibrator checks its settings, before any dump is read
    return calibrate


def _hook_report(params, samples: np.ndarray) -> HookReport:
    """The statistics of per-tensor `params` on the float32 `samples`, a block at a time: each block
    is widened into one buffer and reconstructed alone by the quantizer's codec, set up once, which
    codes each element as `params.fake` does. The samples are dumps', so finite: no block is checked."""
    flat = samples.reshape(-1)
    wide = np.empty(min(flat.size, CHUNK_ELEMS))
    with piece_codec(params, flat.size) as code:

        def blocks(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
            x = wide[: stop - start]
            np.copyto(x, flat[start:stop])
            return x, code(x)[1]

        return HookReport(*block_stats(flat.size, blocks))


def _check_keys(where: str, entry: dict, allowed: set) -> None:
    """One error naming the first key of `entry` outside `allowed`."""
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise InvalidArgument(f"unknown key {unknown[0]!r} in {where}")


def _cmd_calibrate(args) -> int:
    _check_outputs(args, ("config", "dumps"), ("out", "report"))
    try:
        cfg = json.loads(Path(args.config).read_text())
        json.dumps(cfg, allow_nan=False)  # the report echoes it: inf and NaN fail here, not after calibrating
    except (ValueError, RecursionError) as exc:  # undecodable text, bad or too deep JSON, inf or NaN
        raise QuantizationError(f"malformed config: {exc}") from None
    hooks_cfg = cfg.get("hooks") if isinstance(cfg, dict) else None
    if not isinstance(hooks_cfg, dict) or not hooks_cfg:
        raise QuantizationError("config must define a non-empty 'hooks' mapping")
    _check_keys("the config", cfg, CONFIG_KEYS)
    for key in ("out", "report"):  # a later run would read it as a dump
        path = getattr(args, key) and os.path.realpath(getattr(args, key))
        if path and os.path.dirname(path) == os.path.realpath(args.dumps):
            hooks = [h for h in sorted(hooks_cfg) if _is_dump_of(os.path.basename(path), h)]
            if hooks:
                raise InvalidArgument(f"--{key} names a dump of hook {hooks[0]!r}: {getattr(args, key)}")
    doc = pio.ParamDoc(meta={"seed": cfg.get("seed"), "bits": cfg.get("bits", DEFAULT_BITS)})
    reports: dict[str, HookReport] = {}
    try:  # every calibrator checks its settings before any dump is read
        calibrators = {}
        for hook, spec in sorted(hooks_cfg.items()):
            if not hook:
                raise InvalidArgument("a hook name must not be empty")
            calibrators[hook] = _calibrator(spec, cfg)
        for hook, calibrate in calibrators.items():
            stacked = _collect_samples(args.dumps, hook)
            params = doc.hooks[hook] = calibrate(stacked)
            reports[hook] = _hook_report(params, stacked)
    except (QuantizationError, OSError, MemoryError) as exc:  # one line that names the hook first
        raise QuantizationError(f"hook {hook!r}: {exc}") from None
    report = CalibrationReport(hooks=reports, config=cfg, seed=cfg.get("seed"))
    text = pio.report_to_text(report)
    if args.report:
        Path(args.report).write_text(text)
    pio.emit_params(doc, args.out)  # last, so that a failed calibrate leaves no params file
    print(text, end="")
    return 0


def _cmd_quantize(args) -> int:
    args.codes = args.codes or f"{args.out}.codes"
    _check_outputs(args, ("params", "in"), ("out", "codes"))
    doc = pio.parse_params(args.params)
    hooks = doc.hooks
    if not hooks:
        raise QuantizationError("parameter file defines no hooks")
    if not args.hook and len(hooks) > 1:
        raise QuantizationError(f"--hook required; file defines {sorted(hooks)}")
    hook = args.hook or next(iter(hooks))
    if hook not in hooks:
        raise QuantizationError(f"hook {hook!r} not in parameter file")
    _encode_into(hooks[hook], pio.read_dump(getattr(args, "in")).array, args.out, args.codes)
    print(f"wrote {args.out} and {args.codes}")
    return 0


def _encode_into(params, arr: np.ndarray, out, codes_out) -> None:
    """`params.encode` of `arr`: `io.dump_writer` casts and checks the reconstruction into the float32
    dump `out`, and writes the codes, in the dtype that the quantizer's code range gives, into the code
    dump `codes_out`. A per-tensor quantizer's codec (`search.piece_codec`) is set up once and codes
    CHUNK_ELEMS elements of the flattened `arr` at a time into its reused buffers, each block to its
    place in both files, so every temporary stays in cache and no full-size reconstruction or code
    array is made. It codes each element alone, so the bytes are those of one whole-array call, which
    a per-channel quantizer (it needs the axes) still makes. `arr` is a dump's, so finite: no block is
    checked again. The first block is coded before either file is opened; a failure after that, such
    as a value past the float32 maximum, removes both."""
    if getattr(params, "per_channel", False):
        coding, blocks = nullcontext(params.encode), iter([arr])
    else:
        flat = arr.reshape(-1)
        coding = piece_codec(params, arr.size, codes=True)
        blocks = (flat[j : j + CHUNK_ELEMS] for j in range(0, arr.size, CHUNK_ELEMS))
    with coding as code:
        coded = map(code, blocks)
        codes, recon = first = next(coded)
        lead = codes.shape[: codes.ndim - recon.ndim]  # a grouped quantizer's codes lead with its (group, code) axis
        with pio.dump_writer(out, pio.DTYPE_FLOAT32, arr.shape) as put_recon, \
                pio.dump_writer(codes_out, pio.code_tag(codes.dtype), (*lead, arr.size) if lead else arr.shape) \
                as put_codes:
            j = 0
            for codes, recon in chain([first], coded):
                put_recon(j, recon)
                for row, row_codes in enumerate(codes.reshape(-1, recon.size)):
                    put_codes(row * arr.size + j, row_codes)
                j += recon.size


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
        with pio.dump_blocks(args.a) as (shape, read_a), pio.dump_blocks(args.b) as (shape_b, read_b):
            if shape != shape_b:
                raise ShapeError(f"shape mismatch: {shape} vs {shape_b}")
            stats = block_stats(math.prod(shape), lambda start, stop: (read_a(start, stop), read_b(start, stop)))
        payload = HookReport(*stats).to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_pipeline(args) -> int:
    _check_outputs(args, (), ("out", "params_out"))
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


# command -> (help, handler, [(flag, add_argument keywords), ...])
COMMANDS = {
    "synth": ("write a seeded synthetic activation dump", _cmd_synth, [
        ("--kind", dict(required=True, choices=SYNTH_KINDS)), ("--shape", dict(required=True, help="e.g. 64x16")),
        ("--seed", dict(type=int, default=0)), ("--out", dict(required=True))]),
    "calibrate": ("fit quantizers to dump files", _cmd_calibrate, [
        ("--config", dict(required=True, help="JSON config with a 'hooks' mapping")),
        ("--dumps", dict(required=True, help="directory of <hook>.dump / <hook>__N.dump files")),
        ("--out", dict(required=True, help="parameter file to write")),
        ("--report", dict(help="optional report file"))]),
    "quantize": ("apply stored parameters to a dump", _cmd_quantize, [
        ("--params", dict(required=True)), ("--in", dict(required=True)),
        ("--out", dict(required=True, help="reconstructed float dump")),
        ("--codes", dict(help="code dump path (default: <out>.codes)")),
        ("--hook", dict(help="hook to use when the file defines several"))]),
    "evaluate": ("compare two dumps or mask sets", _cmd_evaluate, [
        ("--a", dict(required=True)), ("--b", dict(required=True)),
        ("--masks", dict(action="store_true", help="treat inputs as binary masks"))]),
    "pipeline": ("run the built-in network end to end", _cmd_pipeline, [
        ("--seed", dict(type=int, default=0)), ("--preset", dict(default="W8A8", choices=sorted(PRESETS))),
        ("--calib-count", dict(type=int, default=32)),
        *((f"--{module}", dict(default=getattr(PipelineConfig, module), choices=modes))
          for module, modes in MODULES.items()),
        ("--out", dict(help="write the report here as well as stdout")),
        ("--params-out", dict(help="write the calibrated parameter file"))]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `ptqkit` parser: every subcommand's arguments, or only `command`'s, as one invocation runs one."""
    parser = argparse.ArgumentParser(prog="ptqkit", description=__doc__)
    # the usage lists every command; a full build keeps `command` as the name its errors give
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        help_text, handler, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QuantizationError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
