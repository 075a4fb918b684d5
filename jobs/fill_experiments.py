"""Inject measured results into EXPERIMENTS.md.

Replaces each ``<!-- MEASURED:<name> -->`` marker with a markdown table
rendered from ``results/<name>.json`` (as written by ``jobs/run.py``).
Idempotent: a marker line is kept in place and the generated block between
``<!-- BEGIN:<name> -->`` / ``<!-- END:<name> -->`` is rewritten.
"""
import json
import os
import re
import sys

HERE = os.path.dirname(__file__)
RESULTS = os.path.join(HERE, "..", "results")
EXPERIMENTS = os.path.join(HERE, "..", "EXPERIMENTS.md")

sys.path.insert(0, os.path.join(HERE, "..", "src"))

from repro.bench.sweeps import render  # noqa: E402


def render_file(name: str) -> str:
    path = os.path.join(RESULTS, f"{name}.json")
    if not os.path.exists(path):
        return f"_results missing — run `python jobs/run.py {name}`_"
    with open(path) as f:
        return render(json.load(f))


def main() -> None:
    with open(EXPERIMENTS) as f:
        text = f.read()
    names = re.findall(r"<!-- MEASURED:(\w+) -->", text)
    for n in names:
        block = f"<!-- MEASURED:{n} -->\n<!-- BEGIN:{n} -->\n{render_file(n)}\n<!-- END:{n} -->"
        text = re.sub(
            rf"<!-- MEASURED:{n} -->(?:\n<!-- BEGIN:{n} -->.*?<!-- END:{n} -->)?",
            block.replace("\\", "\\\\"),
            text,
            flags=re.S,
        )
    with open(EXPERIMENTS, "w") as f:
        f.write(text)
    print(f"filled {len(names)} sections: {', '.join(names)}")


if __name__ == "__main__":
    sys.exit(main())
