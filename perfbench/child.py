"""One cold run: a fresh interpreter imports plusforms, runs a task list and
prints one JSON object.

Usage (from the harness): python3 child.py SRC_DIR T0, with T0 the
harness's time.monotonic() just before it started this process, and the
run description as JSON on stdin:
  {"tasks": [...], "trace": bool, "oracle": [...], "digests": bool}
"""

import sys
import time

import resource

SRC, T0 = sys.argv[1], float(sys.argv[2])
sys.path.insert(0, SRC)
import plusforms  # noqa: E402  (the set-up being measured)

SETUP_S = time.monotonic() - T0

import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> None:
    spec = json.load(sys.stdin)
    if not os.path.realpath(plusforms.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"plusforms imported from {plusforms.__file__}, not from {SRC}")
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()

    state: dict = {}
    outcomes = []
    wall0, cpu0 = time.perf_counter(), _cpu()
    for task in spec["tasks"]:
        try:
            outcomes.append(workloads.run_task(plusforms, task, state))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcomes.append(None)
    run_s = time.perf_counter() - wall0
    cpu_s = _cpu() - cpu0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_rss_mb = max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux

    # everything below is outside the timed region
    trace = None
    if tracer is not None:
        trace = {"layers": tracer.summary(), "absent": tracer.absent}

    results = []
    for task, out in zip(spec["tasks"], outcomes):
        row = {"op": task["op"], "ok": False, "errs": {}, "key": None, "digest": None}
        if out is not None:
            row.update(ok=bool(out.ok), errs=out.errs, key=out.key)
            if spec["digests"] and out.exact is not None:
                try:
                    row["digest"] = workloads.digest(out.exact())
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    row["ok"] = False
        results.append(row)

    oracle = []
    for case in spec["oracle"]:
        try:
            oracle.append(workloads.run_oracle(plusforms, case))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            oracle.append(False)

    print(json.dumps({
        "setup_s": SETUP_S, "run_s": run_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
        "tasks": results, "oracle": oracle, "trace": trace,
    }))


if __name__ == "__main__":
    main()
