"""One workload process: import the package under test, then drive its CLI.

Usage: worker.py PLAN_JSON RESULT_JSON SECONDS TRACE

``impulsewf.cli`` is imported before anything else so that the time from
process start to the end of that import is the package's set-up cost. The
CLI is called in a closed loop: one client, each ``main(argv)`` call starts
when the previous one returns, output goes to a temp file. Untraced, the
loop cycles through the plan for SECONDS. Traced, it runs the plan once
untraced and once traced, so counts repeat exactly at one seed; then its
``simulate`` calls once more under tracemalloc, for their allocation peak.
"""

import sys
import time

import impulsewf.cli

READY_NS = time.time_ns()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def run_call(argv: list[str], out: Path) -> tuple[int, str | None, str]:
    """Call main once; return (latency ns, output text or None, status)."""
    start = time.perf_counter_ns()
    try:
        code = impulsewf.cli.main(argv + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a failing call fails its rows; the run goes on
        elapsed = time.perf_counter_ns() - start
        return elapsed, None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter_ns() - start
    if code != 0:
        return elapsed, None, f"exit code {code}"
    return elapsed, out.read_text(encoding="utf-8"), "ok"


class Loop:
    """Closed-loop client that records every call and checks repeats."""

    def __init__(self, plan: list[dict], out: Path):
        self.plan = plan
        self.out = out
        self.outputs: dict[int, str] = {}
        self.calls: list[tuple[int, int, str]] = []

    def one(self, index: int) -> int:
        elapsed, text, status = run_call(self.plan[index]["argv"], self.out)
        if text is not None:
            first = self.outputs.setdefault(index, text)
            if text != first:
                status = "output differs from the first call with this argv"
        self.calls.append((index, elapsed, status))
        return elapsed


def main() -> int:
    plan_path, result_path, seconds, trace_on = sys.argv[1:5]
    package = Path(impulsewf.__file__).resolve()
    if not package.is_relative_to(ROOT / "src"):
        print(f"impulsewf imported from {package}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    out = Path(result_path).with_name("call_output.txt")
    result: dict = {"ready_ns": READY_NS, "package": str(package)}
    loop = Loop(plan, out)
    if trace_on == "1":
        from spans import Trace, alloc_peaks
        for index in range(len(plan)):
            loop.one(index)
        untraced = len(loop.calls)
        tracer = Trace()
        tracer.install()
        walls = []
        try:
            for index in range(len(plan)):
                tracer.call_index = index
                walls.append(loop.one(index))
        finally:
            tracer.uninstall()
        peaks = alloc_peaks(lambda: [run_call(call["argv"], out) for call in plan
                                     if call["command"] == "simulate"])
        rows = sum(call["rows"] for call in plan)
        result["untraced_calls"] = untraced
        result["trace"] = tracer.summary(walls, rows, peaks)
    else:
        deadline = time.perf_counter() + float(seconds)
        index = 0
        while True:
            loop.one(index % len(plan))
            index += 1
            if time.perf_counter() >= deadline:
                break
    result["calls"] = loop.calls
    result["outputs"] = loop.outputs
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
