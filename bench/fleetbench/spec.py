"""``BENCHMARK.json``: the one list of metric names, units, directions
and bounds, read by the runner and by the comparison."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

BENCHMARK_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def metric_specs(section: str) -> Dict[str, dict]:
    """``{name: {"unit", "better", ...}}`` of ``end_to_end`` or ``per_layer``."""
    spec = json.loads(BENCHMARK_PATH.read_text())
    return {metric["name"]: metric for metric in spec[section]}
