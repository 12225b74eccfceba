"""Run one workload on several seeds and summarise each metric.

Usage, from the root of a checkout::

    python3 bench/spread.py --workload simulate-block --seeds 1-10 [--trace 0] [--out FILE]

Reads ``run_seconds`` from BENCHMARK.json. For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, and whether all runs were correct. With
``--out`` it also writes these figures, and every run's raw result, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            config["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(config["run_seconds"]),
                                 "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result.update(seed=seed, exit_code=done.returncode)
        runs.append(result)
        print(f"seed {seed}: exit {done.returncode} correct {result['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              file=sys.stderr)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = f" bound {bound}: {'below' if spread < bound / 3 else 'ABOVE'} a third"
        print(f"{args.workload} {name}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f}{verdict}")
    all_ok = all(r["correct"] and r["exit_code"] == 0 for r in runs)
    print(f"{args.workload}: {len(runs)} runs, all correct: {all_ok}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "summary": summary,
             "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
