"""Benchmark harness: workload builders, per-algorithm sweep runner, memory
measurement (Table 1) and the results writer; ``sweeps`` holds ``SWEEPS``,
the declarative index of the paper's evaluation artifacts, and ``render``,
the one formatter of their results."""

from repro.bench.harness import (  # noqa: F401
    build_workload,
    measure_memory,
    run_algorithms,
    save_results,
)
