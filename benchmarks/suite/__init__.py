"""End-to-end benchmark suite: training, trace replay and serving.

``python3 -m benchmarks.suite run`` drives the program through its public
entry points only and prints every metric named in ``BENCHMARK.json``; see
``README.md`` in this directory for the definitions.
"""
