"""Pipeline quality on held-out inputs, pinned by value.

`tests/data/heldout_quality.json` holds `heldout.quality_rows()`: for each
preset at seeds 0-3, the in-sample `output_mse_mean` and the output MSE and
cosine on 64 held-out inputs. A change that moves either figure regenerates
the fixture with

    PYTHONPATH=src python tests/test_heldout.py

and states both figures, before and after, in CHANGES.md: the in-sample one
alone cannot decide a quality change (at W8A8 the held-out MSE is 5-19x the
in-sample one, at W4A4 0.9-1.2x). The script prints each row that it changes.
"""

import json
from pathlib import Path

import pytest

from heldout import SEEDS, quality_rows
from ptqkit.toynet import PRESETS

FIXTURE = Path(__file__).parent / "data" / "heldout_quality.json"


def test_rows_match_the_fixture():
    """A row for each preset and seed, each figure to 1e-9 relative: any change to a plan moves it further."""
    rows, want = quality_rows(), json.loads(FIXTURE.read_text())
    assert [(r["preset"], r["seed"]) for r in want] == [(p, s) for p in PRESETS for s in SEEDS]
    assert [(r["preset"], r["seed"]) for r in rows] == [(r["preset"], r["seed"]) for r in want]
    for got, row in zip(rows, want):
        assert got == pytest.approx(row, rel=1e-9), row


if __name__ == "__main__":
    new = quality_rows()
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []
    for row in new:
        if row not in old:
            print(f"changed {row}")
    FIXTURE.write_text(json.dumps(new, indent=2) + "\n")
