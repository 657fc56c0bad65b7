"""Whole-process benchmark of the oddgraceful CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload label-200k --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Every invocation is a fresh `python -c "from oddgraceful.cli import run; run()" ...`
child, timed from spawn to exit, one at a time from this process: a closed
loop with a single client. A pass is the workload's fixed list of
invocations; passes repeat until `--seconds` is used up. Inputs are
generated from `--seed` before timing starts, and every output is judged by
`checker`, which does not use the package.

`--trace 1` gives the per-layer numbers instead: each invocation of every
workload is replayed by `replay.py` in a fresh interpreter, with a span
around each call into the package. The spans go to
`.perfbench_out/trace-<workload>-seed<seed>.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is a
summary with the machine, the sample counts, the failure ratio and the
known-defect probes. See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import WORKLOADS, SEARCH_CORPUS, Workload

CLI = "from oddgraceful.cli import run; run()"
HERE = Path(__file__).resolve().parent
REPLAY = HERE / "replay.py"
LAUNCHER = HERE / "launcher.py"
SETUP_REPEATS = 5  # before the passes, and again after them
PYTHON_START_REPEATS = 9
CHILD_TIMEOUT_S = 60  # the slowest invocation takes under 10 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "output_bytes": "B"}

# Per-layer time metrics: the median duration of the named span over the
# traced calls of the listed workloads, optionally only spans whose
# attributes match.
LAYER_SPANS = (
    ("cli.import_s", "cli.import", WORKLOADS, {}),
    ("cli.read_s", "cli.read", ("verify-200k",), {}),
    ("cli.write_s", "cli.write", ("label-200k",), {}),
    ("graph.make_union_s", "graph.make_union", ("label-200k",), {}),
    ("graph.validate_s", "graph.validate", ("verify-200k",), {}),
    ("construct.label_closed_form_s", "construct.label_closed_form", ("label-200k",), {}),
    ("construct.label_algorithmic_s", "construct.label_algorithmic", ("label-200k",), {}),
    ("labeling.verify_valid_s", "labeling.verify_odd_graceful", ("label-200k", "verify-200k"),
     {"ok": True}),
    ("labeling.verify_invalid_s", "labeling.verify_odd_graceful", ("verify-200k",), {"ok": False}),
    ("io_formats.build_labeling_document_s", "io_formats.build_labeling_document",
     ("label-200k",), {}),
    ("io_formats.emit_report_s", "io_formats.emit_report", ("label-200k",), {}),
    ("io_formats.parse_edge_list_s", "io_formats.parse_edge_list", ("verify-200k",), {}),
    ("io_formats.parse_labeling_document_s", "io_formats.parse_labeling_document",
     ("verify-200k",), {}),
)


def layer_metric_units(corpus=SEARCH_CORPUS) -> dict[str, str]:
    """Every per-layer metric a traced run over `corpus` emits, with its unit."""
    units = {"cli.python_start_s": "s"}
    units.update((name, "s") for name, *_ in LAYER_SPANS)
    units["io_formats.report_bytes"] = "B"
    for case in corpus:
        units[f"search.search_s.{case.name}"] = "s"
        units[f"search.parity_precheck_s.{case.name}"] = "s"
        if _counted(case):
            units[f"search.nodes.{case.name}"] = "count"
            units[f"search.nodes_per_s.{case.name}"] = "1/s"
            units[f"search.solutions.{case.name}"] = "count"
    units["search.known_failures"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def _counted(case) -> bool:
    """Instances whose search does work that can be counted: not rejected by
    the precheck, and not failing at the seed commit."""
    return not case.odd_cycle and not case.known_defect


@dataclass
class Child:
    exit_code: int
    seconds: float
    max_rss_kb: int  # from wait4, in KiB


@dataclass
class Tally:
    attempted: int = 0
    failures: list[dict] = field(default_factory=list)

    def add(self, invocation_id: str, problems: list[str], stderr: Path | None = None) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(_failure(invocation_id, problems, stderr))


class Runner:
    """Runs children of this checkout's package, one at a time, through
    `launcher.py`. Use it as a context manager: leaving it stops the
    launcher and any child still running."""

    def __init__(self, root: Path, workdir: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.workdir = workdir
        self._launcher: subprocess.Popen | None = None

    def __enter__(self) -> "Runner":
        self._launcher = subprocess.Popen(
            [sys.executable, str(LAUNCHER)], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=self.env, text=True,
        )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        launcher = self._launcher
        if exc_type is None:
            launcher.stdin.close()
        else:
            launcher.terminate()
        try:
            launcher.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            launcher.kill()
            launcher.wait()
            launcher.stdout.close()
            if not launcher.stdin.closed:
                launcher.stdin.close()

    def spawn(self, cmd: list[str], stdout: Path | None = None,
              stderr: Path | None = None) -> Child:
        """Run `cmd` to completion; wall time from spawn to exit and peak RSS."""
        request = {"cmd": cmd, "stdout": stdout and str(stdout), "stderr": stderr and str(stderr),
                   "timeout": CHILD_TIMEOUT_S}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        return Child(**json.loads(reply))

    def cli(self, argv, stdout: Path | None = None, stderr: Path | None = None) -> Child:
        return self.spawn([sys.executable, "-c", CLI, *argv], stdout, stderr)

    def cli_exit_code(self, argv, stdout: Path) -> int:
        return self.cli(argv, stdout).exit_code

    def invoke(self, invocation) -> tuple[Child, str, int, Path]:
        """Run one invocation; returns the child, its report text, the bytes it
        wrote and its stderr file."""
        stdout = self.workdir / f"{invocation.id}.stdout"
        stderr = self.workdir / f"{invocation.id}.stderr"
        if invocation.out_file is not None:
            invocation.out_file.unlink(missing_ok=True)
        child = self.cli(invocation.argv, stdout, stderr)
        written = stdout.stat().st_size
        report = stdout
        if invocation.out_file is not None:
            report = invocation.out_file
            written += report.stat().st_size if report.exists() else 0
        text = report.read_text() if report.exists() else ""
        return child, text, written, stderr

    def setup_seconds(self) -> list[float]:
        """`oddgraceful --version` in a fresh interpreter, SETUP_REPEATS times."""
        runs = [self.cli(["--version"]) for _ in range(SETUP_REPEATS)]
        if any(r.exit_code != 0 for r in runs):
            raise RuntimeError("`oddgraceful --version` failed")
        return [r.seconds for r in runs]


@dataclass
class Pass:
    wall_s: float
    peak_rss_kb: int
    output_bytes: int


def run_pass(runner: Runner, workload: Workload, tally: Tally) -> Pass:
    wall = 0.0
    peak = 0
    written = 0
    for invocation in workload.invocations:
        child, text, nbytes, stderr = runner.invoke(invocation)
        wall += child.seconds
        peak = max(peak, child.max_rss_kb)
        written += nbytes
        tally.add(invocation.id, invocation.check(child.exit_code, text), stderr)
    return Pass(wall, peak, written)


def run_probes(runner: Runner, workload: Workload) -> list[dict]:
    """Known defects, run once and untimed so they stay visible in every result."""
    outcomes = []
    for invocation in workload.probes:
        child, text, _, stderr = runner.invoke(invocation)
        problems = invocation.check(child.exit_code, text)
        outcomes.append({"exit_code": child.exit_code, **_failure(invocation.id, problems, stderr)})
    return outcomes


def measure(runner: Runner, workload: Workload, seconds: float) -> dict:
    """The untraced run: one warm-up, then passes until time is up. Set-up
    time is sampled before and after the passes, so that its median spans
    the whole run."""
    runner.cli(["--version"])  # fills __pycache__
    runner.invoke(workload.invocations[-1])  # warm-up: input files cached before timing
    setup = runner.setup_seconds()
    tally = Tally()
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(runner, workload, tally))
        elapsed = time.perf_counter() - start
        # Start another pass only if it should end within half a pass of the
        # deadline, so that runs measure `seconds` on average.
        if elapsed + 0.5 * elapsed / len(passes) > seconds:
            break
    setup += runner.setup_seconds()
    probes = run_probes(runner, workload)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_kb for p in passes) / 1024,
        "output_bytes": statistics.median_low(p.output_bytes for p in passes),
    }
    summary = {
        "samples": {"setup_s": len(setup), "passes": len(passes)},
        "pass_wall_s": [p.wall_s for p in passes],
        "failed_ratio": len(tally.failures) / tally.attempted,
        "probes": probes,
    }
    return {"metrics": _with_units(metrics, END_TO_END_UNITS), "tally": tally, "summary": summary}


def trace(runner: Runner, built: dict[str, Workload], selected: str) -> dict:
    """The traced run: replay every invocation of every workload with spans,
    then one untraced pass of `selected` to measure the tracing overhead."""
    starts = [runner.spawn([sys.executable, "-c", "pass"]) for _ in range(PYTHON_START_REPEATS)]
    runner.cli(["--version"])  # fills __pycache__
    tally = Tally()
    records = []
    for name, workload in built.items():
        for invocation in workload.invocations + workload.probes:
            record = _replay(runner, invocation)
            record["workload"] = name
            record["probe"] = invocation in workload.probes
            text = record.pop("text")
            error = record["error"]
            record["problems"] = [error] if error else invocation.check(record["exit_code"], text)
            if not record["probe"]:
                tally.add(invocation.id, record["problems"])
            records.append(record)
    traced_total = sum(
        r["seconds"] for r in records if r["workload"] == selected and not r["probe"]
    )
    untraced = run_pass(runner, built[selected], tally)

    metrics = {"cli.python_start_s": statistics.median(s.seconds for s in starts)}
    metrics.update(_layer_times(records))
    emits = _spans(records, "io_formats.emit_report", ("label-200k",))
    report_bytes = [s["attrs"]["bytes"] for s in emits]
    if report_bytes:
        metrics["io_formats.report_bytes"] = statistics.median(report_bytes)
    search = {r["invocation"]: r for r in records if r["workload"] == "search-oracle"}
    for case in SEARCH_CORPUS:
        if case.name not in search:
            continue
        spans = {s["name"]: s for s in search[case.name]["spans"]}
        if "search.search_odd_graceful" not in spans:
            continue  # the replay failed before the search; the failure is counted
        search_span = spans["search.search_odd_graceful"]
        seconds = search_span["end"] - search_span["start"]
        metrics[f"search.search_s.{case.name}"] = seconds
        precheck = spans["search.parity_precheck"]
        metrics[f"search.parity_precheck_s.{case.name}"] = precheck["end"] - precheck["start"]
        counts = search_span["attrs"]
        if _counted(case) and "nodes" in counts:
            metrics[f"search.nodes.{case.name}"] = counts["nodes"]
            metrics[f"search.nodes_per_s.{case.name}"] = counts["nodes"] / seconds
            metrics[f"search.solutions.{case.name}"] = counts["solutions"]
    metrics["search.known_failures"] = sum(1 for r in records if r["probe"] and r["problems"])
    metrics["trace.overhead_s"] = traced_total - untraced.wall_s

    summary = {
        "traced_total_s": traced_total,
        "untraced_wall_s": untraced.wall_s,
        "samples": {"cli.python_start_s": len(starts), "replayed": len(records)},
        "failed_ratio": len(tally.failures) / tally.attempted,
        "probes": [_failure(r["invocation"], r["problems"], None) for r in records if r["probe"]],
    }
    return {
        "metrics": _with_units(metrics, layer_metric_units(SEARCH_CORPUS)),
        "tally": tally,
        "summary": summary,
        "records": records,
    }


def _replay(runner: Runner, invocation) -> dict:
    plan_file = runner.workdir / f"{invocation.id}.plan.json"
    result_file = runner.workdir / f"{invocation.id}.trace.json"
    out = runner.workdir / f"{invocation.id}.replay"
    for stale in (result_file, out):
        stale.unlink(missing_ok=True)
    plan_file.write_text(json.dumps(dict(invocation.replay, id=invocation.id, out=str(out))))
    stderr = runner.workdir / f"{invocation.id}.replay.stderr"
    child = runner.spawn([sys.executable, str(REPLAY), str(plan_file), str(result_file)],
                         stderr=stderr)
    if child.exit_code != 0 or not result_file.exists():
        record = {"exit_code": None, "spans": [],
                  "error": f"replay exited {child.exit_code}: {_tail(stderr)}"}
    else:
        record = json.loads(result_file.read_text())
    record.update(invocation=invocation.id, seconds=child.seconds,
                  text=out.read_text() if out.exists() else "")
    return record


def _spans(records, name, workload_names, attrs=None):
    return [
        s for r in records if r["workload"] in workload_names and not r["probe"]
        for s in r["spans"]
        if s["name"] == name and all(s["attrs"].get(k) == v for k, v in (attrs or {}).items())
    ]


def _layer_times(records) -> dict[str, float]:
    times = {}
    for metric, span, workload_names, attrs in LAYER_SPANS:
        durations = [s["end"] - s["start"] for s in _spans(records, span, workload_names, attrs)]
        if durations:
            times[metric] = statistics.median(durations)
    return times


def _with_units(values: dict, units: dict) -> dict:
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def _failure(invocation_id: str, problems: list[str], stderr: Path | None) -> dict:
    entry = {"invocation": invocation_id, "accepted": not problems, "problems": problems}
    if problems and stderr is not None:
        entry["stderr_tail"] = _tail(stderr)
    return entry


def _tail(path: Path, limit: int = 400) -> str:
    return path.read_text(errors="replace")[-limit:] if path.exists() else ""


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            models = (line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "cpu_model": cpu,
        "loadavg_1m": os.getloadavg()[0],
    }


def benchmark(name: str, seed: int, seconds: float, traced: bool, root: Path,
              tiny: bool = False) -> dict:
    """One run of workload `name` (all workloads' inputs when traced); returns
    the summary and the result line."""
    workdir = root / ".perfbench_run" / f"{name}-seed{seed}-{os.getpid()}"
    try:
        with Runner(root, workdir) as runner:
            start = time.perf_counter()
            names = WORKLOADS if traced else (name,)
            built = {
                n: workloads.build(n, seed, workdir, runner.cli_exit_code, tiny) for n in names
            }
            generation_s = time.perf_counter() - start
            if traced:
                outcome = trace(runner, built, name)
            else:
                outcome = measure(runner, built[name], seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = outcome["tally"]
    summary = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "machine": machine(),
        "generation_s": generation_s,
        **outcome["summary"],
        "failures": tally.failures[:10],
    }
    if not traced:
        summary["metrics"] = dict(
            outcome["metrics"], failed_ratio={"value": summary["failed_ratio"], "unit": "1"}
        )
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": outcome["metrics"],
    }
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    (out_dir / f"result-{stem}.json").write_text(
        json.dumps({"summary": summary, "result": result}, indent=2) + "\n"
    )
    if traced:
        spans = [dict(s, workload=r["workload"]) for r in outcome["records"] for s in r["spans"]]
        (out_dir / f"trace-{name}-seed{seed}.json").write_text(
            json.dumps({"machine": summary["machine"], "spans": spans,
                        "overhead_s": outcome["metrics"]["trace.overhead_s"]["value"]}) + "\n"
        )
    return {"summary": summary, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the launcher and its child are stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "oddgraceful" / "cli.py").is_file():
        print("error: run from the root of an oddgraceful checkout (src/oddgraceful is missing)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {n: benchmark(n, args.seed, args.seconds, bool(args.trace), root) for n in names}
    for run in runs.values():
        print(json.dumps(run["summary"]))
    if len(runs) == 1:
        result = runs[names[0]]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "metrics": {f"{n}.{k}": v for n, r in runs.items()
                        for k, v in r["summary"].get("metrics", r["result"]["metrics"]).items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
