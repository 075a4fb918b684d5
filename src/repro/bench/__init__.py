"""Benchmark harness: workload builders, per-algorithm sweep runner, memory
measurement (Table 1), and the paper-style table printer; ``sweeps`` holds
``SWEEPS``, the declarative index of the paper's evaluation artifacts."""

from repro.bench.harness import (  # noqa: F401
    build_workload,
    fmt_table,
    measure_memory,
    run_algorithms,
    save_results,
)
