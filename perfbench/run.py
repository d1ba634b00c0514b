"""specload benchmark: run a workload and print its metrics.

    python3 perfbench/run.py --workload sim-replay --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Each workload runs in its own child process (``workloads.py``), so its
set-up time and peak memory are its own.  With ``--trace 0`` the run is
untraced and reports the end-to-end metrics of ``BENCHMARK.json``.  With
``--trace 1`` the workload runs twice, untraced and then traced, and
reports the per-layer metrics plus the tracing overhead: traced wall
time per visit against untraced.

Every metric is printed as ``workload  name  value  unit``; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted`` counts output checks, resource loads and
pages; ``failed`` the ones that went wrong.  The exit code is 0 only
when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import median_or_zero, quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("sim-replay", "history-build", "live-fixture")
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def run_child(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    result = work / ("traced.json" if traced else "plain.json")
    result.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--traced", "1" if traced else "0",
        "--work", str(work),
        "--result", str(result),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload}: out of time")
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload} exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(result.read_text())


def wall_per_visit(child: dict) -> float:
    return statistics.median(child["walls"]) / child["visits"]


def end_to_end(child: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(child["setup_s"]),
        "visits_per_s": 1.0 / wall_per_visit(child),
        "peak_rss_mb": child["peak_rss_mb"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Returns (metrics, children) for one workload."""
    plain = run_child(workload, seed, seconds, False, deadline)
    if not trace:
        return end_to_end(plain), [plain]
    traced = run_child(workload, seed, seconds, True, deadline)
    metrics = dict(traced["layers"])
    metrics["tracing.overhead_fraction"] = wall_per_visit(traced) / wall_per_visit(plain) - 1.0
    return metrics, [plain, traced]


def describe(workload: str, children: list[dict]) -> list[str]:
    """Sample counts and failures, for the human-readable part."""
    lines = []
    for child in children:
        kind = "traced" if child["traced"] else "untraced"
        checks = child["checks"]
        lines.append(
            f"{workload}  {kind}: {len(child['walls'])} pass(es), {child['visits']} visits per "
            f"pass, error_rate {checks['failed']}/{checks['attempted']}"
        )
        for mode, delays in sorted(child.get("delays", {}).items()):
            if delays:
                lines.append(
                    f"{workload}  {kind}: {mode}_delay_ms p50 {median_or_zero(delays):.2f} "
                    f"p90 {quantile(delays, 0.9):.2f} over {len(delays)} pages"
                )
        lines.extend(f"{workload}  check failed: {m}" for m in checks["messages"])
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="specload benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "specload" / "__init__.py").is_file():
        print(f"error: no specload sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        e2e_units, layer_units = declared_metrics()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    units = layer_units if args.trace else e2e_units

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for workload in workloads:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            values, children = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), deadline
            )
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for line in describe(workload, children):
            print(line)
        missing = set(units) - set(values)
        if missing:
            print(f"error: {workload} did not measure {sorted(missing)}", file=sys.stderr)
            return 1
        for name, unit in units.items():
            print(f"{workload}  {name}  {values[name]:.6g}  {unit}")
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": values[name], "unit": unit}
        for child in children:
            attempted += child["checks"]["attempted"]
            failed += child["checks"]["failed"]
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
