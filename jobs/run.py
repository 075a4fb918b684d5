"""Regenerate the paper's evaluation artifacts (DESIGN.md §6).

``python jobs/run.py <artifact...|all>``, where each artifact is a key of
``repro.bench.sweeps.SWEEPS``.  Each one sweeps the paper's x-axis at the
scaled-down workload, prints the rows the paper reports (x-value ×
algorithm → answering time per update in ms, with "timeout at |G_E|=X"
markers; Fig. 15 and Table 1 print indexing time and memory) and writes
``results/<artifact>.json``, which ``jobs/fill_experiments.py`` renders
into EXPERIMENTS.md.  Also runnable via ``spark-submit``.
"""
from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench.sweeps import SWEEPS, run  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")


def main() -> None:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument("artifacts", nargs="+", choices=[*SWEEPS, "all"], metavar="artifact",
                   help=f"one of: {', '.join(SWEEPS)}, or all")
    p.add_argument("--scale", type=float, default=1.0, help="multiplies |G_E| and |Q_DB|")
    p.add_argument("--time-limit", type=float, default=30.0, help="per-run cap (s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--verify",
        action="store_true",
        help="verify tric+'s first-match events vs the Catalyst ground truth on a "
        "sample of queries (needs Spark)",
    )
    args = p.parse_args()
    for name in SWEEPS if "all" in args.artifacts else args.artifacts:
        print(f"\n{'=' * 70}\n== {name}\n{'=' * 70}")
        run(name, RESULTS_DIR, args.scale, args.seed, args.time_limit, args.verify)
        print(f"\nresults written to results/{name}.json")


if __name__ == "__main__":
    main()
