"""The repository's one benchmark: the end-to-end suite in ``benchmarks/suite``
(training, trace replay and serving; metric names in ``BENCHMARK.json``)."""
