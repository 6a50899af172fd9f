"""Benchmark harness for plusforms.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from its
src/ directory; nothing is installed).  The seed becomes a task list in
this process; each run of that list happens in a fresh interpreter that
receives only the list, one run at a time, until S seconds have passed.
With --trace 0 the last stdout line reports the end-to-end metrics (medians
over the runs); with --trace 1 it reports the per-layer metrics of traced
runs, interleaved with untraced runs that give the tracing overhead.

    python3 perfbench/run.py --write-reference

recomputes perfbench/reference.json, the digests of the exact outputs.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_RUNS = 3  # untraced runs per benchmark run, whatever --seconds says
MIN_TRACED_RUNS = 2  # traced and untraced runs each, with --trace 1
DEADLINE_S = 150  # for the whole invocation, which must end within 180 s

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def layer_unit(field: str) -> str:
    """Unit of a per-layer field of spans.Tracer.summary()."""
    if field.endswith("_s"):
        return "s"
    if field.endswith("_mbit"):
        return "Mbit"
    return "count"


def fingerprint() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
    }


def child_env() -> dict:
    """The caller's environment without PYTHON* settings, with native thread
    pools pinned to one thread and string hashing fixed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(spec: dict, timeout: float) -> dict | None:
    """One cold run in a fresh interpreter; None if it produced no result."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(SRC), repr(t0)],
            input=json.dumps(spec), capture_output=True, text=True,
            env=child_env(), cwd=str(ROOT), timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"run killed after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def check_run(result: dict | None, tasks: list[dict], reference: dict) -> int:
    """Failed tasks of one run: raised, failed its own check, a float error
    at or past its tolerance, or exact outputs whose digest does not match
    the reference.  Oracle cases that disagree count as failures too."""
    if result is None:
        return len(tasks)
    failed = 0
    for row in result["tasks"]:
        bad = not row["ok"]
        for name, err in row["errs"].items():
            bad = bad or not (err < workloads.TOLERANCES[name])
        if row["digest"] is not None:
            bad = bad or reference.get(row["key"]) != row["digest"]
        failed += bad
    return failed + sum(not ok for ok in result["oracle"])


def benchmark(workload: str, seed: int, seconds: float, traced: bool) -> dict | None:
    begin = time.monotonic()
    tasks = workloads.task_list(workload, seed)
    oracle = workloads.oracle_cases(tasks)
    reference = json.loads(REFERENCE.read_text())
    setups: list[float] = []
    plain: list[dict] = []
    traced_runs: list[dict] = []
    attempted = failed = 0

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - begin)

    start = time.monotonic()
    n = 0
    longest = 0.0
    while True:
        # with tracing, runs alternate untraced / traced so both see the same load
        trace_this = traced and n % 2 == 1
        first = n == 0
        spec = {"tasks": tasks, "trace": trace_this,
                "oracle": oracle if first else [], "digests": first}
        t = time.monotonic()
        r = run_child(spec, remaining())
        longest = max(longest, time.monotonic() - t)
        attempted += len(tasks) + (len(oracle) if first else 0)
        failed += check_run(r, tasks, reference)
        n += 1
        if r is not None:
            setups.append(r["setup_s"])
            (traced_runs if trace_this else plain).append(r)
        elapsed = time.monotonic() - start
        enough = len(plain) >= (MIN_TRACED_RUNS if traced else MIN_RUNS) and (
            not traced or len(traced_runs) >= MIN_TRACED_RUNS)
        if r is None or remaining() < longest or (enough and elapsed * (n + 1) / n > seconds):
            break
    if not plain or (traced and not traced_runs):
        return None

    med = {k: statistics.median(r[k] for r in plain) for k in ("run_s", "cpu_s", "peak_rss_mb")}
    med["setup_s"] = statistics.median(setups)
    report = {"fingerprint": fingerprint(), "runs": len(plain), "traced_runs": len(traced_runs),
              "attempted": attempted, "failed": failed}
    if not traced:
        report["metrics"] = {k: {"value": med[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        return report

    layers = [r["trace"]["layers"] for r in traced_runs]
    metrics = {
        f"{span}.{field}": {"value": statistics.median(run[span][field] for run in layers),
                            "unit": layer_unit(field)}
        for span, fields in layers[0].items() for field in fields
    }
    traced_s = statistics.median(r["run_s"] for r in traced_runs)
    unattributed = [r["run_s"] - sum(v["self_s"] for v in r["trace"]["layers"].values())
                    for r in traced_runs]
    metrics["salie.h.hit_ratio"] = {
        "value": (1.0 - metrics["salie.h.calls"]["value"] / metrics["salie.poincare.c_terms"]["value"]
                  if metrics["salie.poincare.c_terms"]["value"] else 0.0),
        "unit": "fraction"}
    metrics["trace.overhead_frac"] = {"value": traced_s / med["run_s"] - 1.0, "unit": "fraction"}
    metrics["trace.unattributed_s"] = {"value": statistics.median(unattributed), "unit": "s"}
    report["metrics"] = metrics
    report["absent"] = sorted({a for r in traced_runs for a in r["trace"]["absent"]})
    report["layer_share_of_run_s"] = {
        span: statistics.median(r["trace"]["layers"][span]["self_s"] / r["run_s"]
                                for r in traced_runs)
        for span in layers[0]
    }
    return report


def write_reference() -> None:
    """Digests of every exact output any seed can ask for."""
    reference = {}
    for workload in workloads.WORKLOADS:
        tasks = workloads.reference_tasks(workload)
        if not tasks:
            continue
        r = run_child({"tasks": tasks, "trace": False, "oracle": [], "digests": True}, 900.0)
        if r is None:
            raise SystemExit(f"reference run for {workload} failed")
        for task, row in zip(tasks, r["tasks"]):
            if row["key"] is None:
                continue
            if not row["ok"] or row["digest"] is None:
                raise SystemExit(f"reference task failed: {task}")
            reference[row["key"]] = row["digest"]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} digests to {REFERENCE}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()

    if not (SRC / "plusforms" / "__init__.py").is_file():
        print(f"no plusforms sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    if report is None:
        print("no run produced a result", file=sys.stderr)
        return 1
    print("fingerprint: " + json.dumps(report["fingerprint"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {report['runs']} untraced runs, "
          f"{report['traced_runs']} traced runs")
    for name, m in report["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {report['failed'] / report['attempted']:.6g} "
          f"({report['failed']} of {report['attempted']} tasks and oracle cases)")
    if args.trace:
        if report["absent"]:
            print("  absent from the package: " + ", ".join(report["absent"]))
        shares = {k: round(v, 4) for k, v in report["layer_share_of_run_s"].items() if v}
        print("  self-time share of traced run_s: " + json.dumps(shares))
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
