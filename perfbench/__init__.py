"""The repository's benchmark: training steps and served top-k requests.

See ``perfbench/README.md`` for the workloads, the metrics and how to run
them; ``BENCHMARK.json`` at the repository root declares both.
"""
