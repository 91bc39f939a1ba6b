"""Fleet benchmark: named workloads, a closed-loop timed run, a traced
per-layer breakdown and a detection-quality scorer.

``bench/run.py`` is the command-line entry point and ``bench/compare.py``
compares two sets of recorded runs; see ``bench/README.md``.
"""
