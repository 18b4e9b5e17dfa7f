"""Pipeline quality on the calibration inputs and on held-out ones.

`run_pipeline` reports `output_mse_mean` on the inputs its plan was calibrated
on. A calibrator change can lower that figure and raise the error on inputs the
plan never saw, so `quality_rows` also runs `forward` under the plan on a second
seeded stream, `seeded_inputs(seed + 1000, HELD_OUT, ...)`, against the
full-precision `forward`. No library module imports this one.
"""

import numpy as np

from ptqkit.toynet import PRESETS, PipelineConfig, ToyNetWeights, forward, run_pipeline, seeded_inputs
from ptqkit.uniform import error_stats

SEEDS = (0, 1, 2, 3)
CALIBRATION = 32  # as `ptqkit pipeline --calib-count` defaults
HELD_OUT = 64


def quality_row(preset: str, seed: int) -> dict:
    """In-sample `output_mse_mean`, and the mean output MSE and cosine on held-out inputs, of one
    pipeline run: each held-out input's statistics are taken alone, as `run_pipeline` takes its own."""
    weights = ToyNetWeights.seeded(seed)
    plan, report = run_pipeline(seeded_inputs(seed, CALIBRATION, weights.seq, weights.dim), weights,
                                PipelineConfig.from_preset(preset, seed=seed))
    held = seeded_inputs(seed + 1000, HELD_OUT, weights.seq, weights.dim)
    stats = [error_stats(a, b) for a, b in zip(forward(held, weights)[0], forward(held, weights, plan=plan)[0])]
    return {
        "preset": preset,
        "seed": seed,
        "in_sample_output_mse_mean": report.totals["output_mse_mean"],
        "held_out_output_mse_mean": float(np.mean([s[0] for s in stats])),
        "held_out_output_cosine_mean": float(np.mean([s[2] for s in stats])),
    }


def quality_rows() -> list[dict]:
    """`quality_row` of every preset at every seed of SEEDS: 16 runs."""
    return [quality_row(preset, seed) for preset in PRESETS for seed in SEEDS]
