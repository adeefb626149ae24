"""Wall-clock benchmark of the reproduction: workloads, tracing, comparison.

Run it with ``python3 perf/run.py``; see ``perf/README.md``.
"""
