"""Benchmark of the impulsewf CLI: one workload per run, checked outputs.

Usage, from the root of a checkout::

    python3 bench/run.py --workload theory-grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload in turn

The workload seed fixes the CLI calls (see plan.py); the package under test
only receives their argv. Each run starts a fresh worker process that
imports ``impulsewf`` from ``src/`` of this checkout and calls
``impulsewf.cli.main`` in a closed loop with one client. Outputs are checked
here, after the worker has exited, against the independent oracle in
oracle.py, so the checks cost the measured process neither time nor memory.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
reports the per-layer metrics from a traced pass (see spans.py), the
per-call breakdown and the tracing overhead. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every output row passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

from plan import SCHEMES, WORKLOADS, make_plan

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
# Fresh interpreters timed from spawn to the end of ``import impulsewf.cli``;
# the first one only warms the file cache and writes bytecode.
SETUP_PROBES = 12
PROBE = "import impulsewf.cli, time; print(time.time_ns())"
WORKER_TIMEOUT_S = 150
SIMULATING = ("simulate-1e7", "simulate-block")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def setup_samples() -> list[float]:
    samples = []
    for i in range(SETUP_PROBES + 1):
        spawned = time.time_ns()
        done = subprocess.run([sys.executable, "-c", PROBE], env=child_env(),
                              capture_output=True, text=True, check=True,
                              timeout=60, cwd=ROOT)
        if i:
            samples.append((int(done.stdout.strip()) - spawned) / 1e9)
    return samples


def run_worker(plan: list[dict], seconds: float, trace: int,
               tmp: Path) -> tuple[dict, float]:
    plan_path, result_path = tmp / "plan.json", tmp / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    spawned = time.time_ns()
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(plan_path),
                    str(result_path), str(seconds), str(trace)],
                   env=child_env(), stdout=sys.stderr, check=True,
                   timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result, (result["ready_ns"] - spawned) / 1e9


def check_outputs(plan: list[dict], outputs: dict[int, str]) -> dict:
    """Verdict per plan entry that produced an output."""
    import oracle
    verdicts = {}
    theory_text = {}
    for index in sorted(outputs):
        call, text = plan[index], outputs[index]
        try:
            if call["command"] == "theory":
                verdicts[index] = oracle.check_theory(call, text)
                theory_text[(call["snr_db"], call["inr_db"])] = text
            elif call["command"] == "crossover":
                verdicts[index] = oracle.check_crossover(
                    call, text, theory_text[(call["snr_db"], call["inr_db"])])
            else:
                verdicts[index] = oracle.check_simulate(call, text)
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            verdicts[index] = oracle.Verdict(call["rows"], [f"unreadable output: {exc!r}"])
    return verdicts


def tally(plan: list[dict], calls: list, verdicts: dict) -> tuple[int, int, list[str]]:
    """(attempted rows, failed rows, messages). A call that raised, exited
    nonzero or changed its output fails all of its rows."""
    attempted = failed = 0
    messages = []
    for index, _, status in calls:
        rows = plan[index]["rows"]
        attempted += rows
        if status != "ok":
            failed += rows
            messages.append(f"call {index} {plan[index]['argv']}: {status}")
        else:
            failed += verdicts[index].failed
    for index, verdict in sorted(verdicts.items()):
        messages += [f"call {index} {plan[index]['argv'][:5]}: {m}" for m in verdict.messages]
    return attempted, failed, messages


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Tail latency, its percentile and the samples beyond it.

    The highest percentile with at least 10 samples beyond it, but never
    below p90: with fewer than 100 calls, p90 (nearest rank) is reported
    with the samples that lie beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - 11, -(-9 * n // 10) - 1)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def call_symbols(call: dict) -> int:
    block = call["block_len"]
    return len(call["grid"]) * len(SCHEMES) * -(-call["symbols"] // block) * block


def git_commit() -> str:
    # Without its own .git, git would search the parent directories.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def end_to_end(workload: str, plan: list[dict], result: dict, setup: list[float],
               attempted: int, failed: int) -> dict:
    calls = result["calls"]
    busy_s = sum(ns for _, ns, _ in calls) / 1e9
    latencies_ms = [ns / 1e6 for _, ns, _ in calls]
    tail_ms, tail_pct, beyond = tail(latencies_ms)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "rows_per_s": ((attempted - failed) / busy_s, "rows/s"),
        "call_p50_ms": (statistics.median(latencies_ms), "ms"),
        "call_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, "MB"),
    }
    notes = {"call_tail_ms": f"p{tail_pct:.2f} of {len(calls)} calls, {beyond} beyond",
             "setup_s": f"median of {len(setup)} fresh processes: "
                        + " ".join(f"{v:.3f}" for v in setup)}
    if workload in SIMULATING:
        symbols = sum(call_symbols(plan[i]) for i, _, _ in calls)
        metrics["msym_per_s"] = (symbols / busy_s / 1e6, "Msym/s")
    metrics["failed_frac"] = (failed / attempted, "ratio")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload} {name} = {value:.6g} {unit}{note}")
    # failed_frac travels as attempted/failed and msym_per_s only exists on
    # the simulating workloads, so neither is in the result's metric set.
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in ("failed_frac", "msym_per_s")}


def per_layer(workload: str, plan: list[dict], result: dict) -> dict:
    from spans import LAYERS, METRICS
    trace = result["trace"]
    calls = result["calls"]
    untraced, traced = calls[:result["untraced_calls"]], calls[result["untraced_calls"]:]
    rows = sum(plan[i]["rows"] for i, _, _ in traced)
    rate = {label: rows / (sum(ns for _, ns, _ in part) / 1e9)
            for label, part in (("untraced", untraced), ("traced", traced))}
    print(f"{workload} trace: {trace['spans']} spans over {len(traced)} calls; "
          f"rows_per_s untraced {rate['untraced']:.6g}, traced {rate['traced']:.6g}, "
          f"overhead x{rate['untraced'] / rate['traced']:.3f}")
    if trace["missing_names"]:
        print(f"{workload} trace: not in the package, so not wrapped: "
              + ", ".join(trace["missing_names"]))
    print(f"{workload} per call (ms): call " + " ".join(LAYERS) + " uncovered wall")
    totals = dict.fromkeys(LAYERS + ("uncovered", "wall"), 0.0)
    for index, entry in enumerate(trace["per_call"]):
        for key in totals:
            totals[key] += entry[key]
        cells = " ".join(f"{entry[k] * 1e3:.3f}" for k in LAYERS + ("uncovered", "wall"))
        print(f"{workload} call {index} {plan[index]['command']}: {cells}")
    shares = ", ".join(f"{k} {100 * totals[k] / totals['wall']:.1f}%"
                       for k in LAYERS + ("uncovered",))
    print(f"{workload} self-time share of traced wall time: {shares}")
    metrics = {}
    for name, (unit, _) in METRICS.items():
        value = trace["metrics"][name]
        absent = name in trace["absent"]
        print(f"{workload} {name} = {'absent' if absent else f'{value:.6g}'} {unit}")
        # An absent metric stays in the result, as 0, so its key set is fixed.
        metrics[name] = {"value": 0 if absent else value, "unit": unit}
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> bool:
    plan = make_plan(workload, seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        setup = setup_samples()
        result, worker_setup = run_worker(plan, seconds, trace, Path(tmp))
    setup.append(worker_setup)
    outputs = {int(k): v for k, v in result["outputs"].items()}
    verdicts = check_outputs(plan, outputs)
    attempted, failed, messages = tally(plan, result["calls"], verdicts)
    for message in messages[:20]:
        print(f"{workload} FAIL {message}")
    allowance = [e for v in verdicts.values() for e in v.cutoff_allowance]
    if allowance:
        print(f"{workload} note: {len(allowance)} theory values differ from the "
              f"oracle by more than 1e-8 relative (max {max(allowance):.3g}); "
              f"each is within a 1e-12 cutoff error")
    env = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
           "commit": git_commit(), "python": platform.python_version(),
           "numpy": version("numpy"), "scipy": version("scipy"),
           "nproc": os.cpu_count(), "package": result["package"],
           "plan_calls": len(plan), "calls_run": len(result["calls"]),
           "distinct_calls_checked": len(verdicts),
           "symbols_per_row": sorted({c["symbols"] for c in plan}),
           "rows_per_pass": sum(c["rows"] for c in plan)}
    print(f"{workload} env {json.dumps(env)}")
    if trace:
        metrics = per_layer(workload, plan, result)
    else:
        metrics = end_to_end(workload, plan, result, setup, attempted, failed)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "impulsewf" / "cli.py").is_file():
        print(f"no impulsewf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        try:
            ok = run_workload(workload, args.seed, args.seconds, args.trace) and ok
        except subprocess.SubprocessError as exc:
            print(f"{workload}: worker failed: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
