"""Calibration report containers shared by the pipeline and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def json_float(value: float):
    """`value` as a JSON-safe number; infinities become "inf"/"-inf"."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return float(value)


@dataclass(frozen=True)
class HookReport:
    """Reconstruction error of one calibrated hook on the calibration set."""

    mse: float
    sqnr_db: float
    cosine: float

    def to_dict(self) -> dict:
        return {
            "mse": json_float(self.mse),
            "sqnr_db": json_float(self.sqnr_db),
            "cosine": json_float(self.cosine),
        }


@dataclass
class CalibrationReport:
    """Per-hook error metrics plus pipeline totals and the config echo."""

    hooks: dict[str, HookReport]
    totals: dict[str, float] = field(default_factory=dict)
    weights: dict[str, HookReport] = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "hooks": {name: rep.to_dict() for name, rep in self.hooks.items()},
            "weights": {name: rep.to_dict() for name, rep in self.weights.items()},
            "totals": {k: json_float(v) for k, v in self.totals.items()},
            "config": self.config,
            "seed": self.seed,
        }
