"""Benchmark-harness configuration.

Every benchmark regenerates one table/figure of the paper's evaluation
via the corresponding :mod:`repro.experiments` driver, asserts the
qualitative shape the paper reports, and prints the reproduced
rows/series so ``pytest benchmarks/ --benchmark-only`` doubles as the
experiment log for EXPERIMENTS.md.

Experiments are deterministic simulations, so each benchmark runs one
round / one iteration (``benchmark.pedantic``); the timing numbers
reported by pytest-benchmark then measure the cost of regenerating the
figure, not statistical run-to-run variation.
"""

import sys
from pathlib import Path

# The fleet decision keys and the scoped shared-memory leak probe live
# with the test suite (``tests/fleet_reference.py``).
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
