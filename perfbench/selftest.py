"""Self-test of the benchmark at tiny sizes: q = 1 000 and the fast corpus
instances only. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every metric BENCHMARK.json names is emitted with its unit
(plus `failed_ratio` in the summary), that a traced run emits every
per-layer metric of its corpus, and that the checker rejects a corrupted
label file and a wrong solution count. Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run
import workloads


def _units(metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in metrics.items()}


def check_metric_names(root: Path, spec: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert run.layer_metric_units() == per_layer, "BENCHMARK.json per_layer differs from run.py"

    for name in workloads.WORKLOADS:
        out = run.benchmark(name, seed=1, seconds=1, traced=False, root=root, tiny=True)
        assert out["result"]["correct"], out["summary"]["failures"]
        assert _units(out["result"]["metrics"]) == end_to_end, out["result"]["metrics"]
        assert _units(out["summary"]["metrics"]) == dict(end_to_end, failed_ratio="1")
        assert out["summary"]["failed_ratio"] == 0.0

    fast = [c for c in workloads.SEARCH_CORPUS if c.fast]
    out = run.benchmark("search-oracle", seed=1, seconds=1, traced=True, root=root, tiny=True)
    assert out["result"]["correct"], out["summary"]["failures"]
    assert _units(out["result"]["metrics"]) == run.layer_metric_units(fast)
    assert out["result"]["metrics"]["search.solutions.u43-all"]["value"] == 960
    assert out["result"]["metrics"]["search.nodes.u43-all"]["value"] == 10_440


def check_checker_rejects(root: Path) -> None:
    workdir = root / ".perfbench_run" / f"selftest-{os.getpid()}"
    try:
        with run.Runner(root, workdir) as runner:
            label = workloads.build("label-200k", 1, workdir, runner.cli_exit_code, tiny=True)
            first = label.invocations[0]
            child, text, _, _ = runner.invoke(first)
            assert first.check(child.exit_code, text) == [], "checker rejects a correct label file"
            doc = json.loads(text)
            doc["labels"][0], doc["labels"][-1] = doc["labels"][-1], doc["labels"][0]
            assert first.check(child.exit_code, json.dumps(doc)), "checker accepts swapped labels"

            search = workloads.build("search-oracle", 1, workdir, runner.cli_exit_code, tiny=True)
            u43 = next(i for i in search.invocations if i.id == "u43-all")
            child, text, _, _ = runner.invoke(u43)
            assert u43.check(child.exit_code, text) == [], "checker rejects a correct search"
            doc = json.loads(text)
            doc["solutions_found"] = 959
            assert u43.check(child.exit_code, json.dumps(doc)), "checker accepts a wrong count"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check_metric_names(root, spec)
    check_checker_rejects(root)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
