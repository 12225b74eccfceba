"""Spans around the package's public functions, and the per-layer metrics.

Each wrapper is installed at the module global its callers look up, records
one span (name, start, end, parent span, CLI call index) per call, and
keeps it in memory until the run ends. A layer's self time is the time of
its spans minus the time their child spans cover.

Some wrapped names are due to be replaced (``exp_integral_e1``,
``solve_monotone_root``, ``expand_bracket``, ``solve_threshold``,
``budget_lhs``). A name missing from the package is skipped, and the
metrics built on it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from array import array

LAYERS = ("cli", "adaptation", "numerics", "channel", "simulate")

# Function name -> (layer, modules whose global the callers look up).
# The water-filling kernel lives in adaptation.py but is timed as part of
# the Monte Carlo layer, which is where its cost scales with symbols.
WRAPPED = {
    "main": ("cli", ("cli",)),
    "resolve_spec": ("cli", ("cli",)),
    "cmd_theory": ("cli", ("cli",)),
    "cmd_simulate": ("cli", ("cli",)),
    "cmd_crossover": ("cli", ("cli",)),
    "cmd_verify": ("cli", ("cli",)),
    "rows_to_csv": ("cli", ("cli",)),
    "rate_conventional": ("adaptation", ("adaptation",)),
    "rate_aggressive": ("adaptation", ("adaptation", "cli")),
    "rate_conservative": ("adaptation", ("adaptation", "cli")),
    "crossover_pth": ("adaptation", ("cli",)),
    "make_policy": ("adaptation", ("adaptation", "simulate")),
    "solve_threshold": ("adaptation", ("adaptation",)),
    "budget_lhs": ("adaptation", ("adaptation",)),
    "exp_integral_e1": ("numerics", ("adaptation",)),
    "expand_bracket": ("numerics", ("adaptation",)),
    "solve_monotone_root": ("numerics", ("adaptation",)),
    "sample_fading": ("channel", ("simulate",)),
    "sinr_of": ("channel", ("simulate",)),
    "simulate": ("simulate", ("cli",)),
    "expected_outage": ("simulate", ("cli",)),
    "wf_power_fraction": ("simulate", ("simulate",)),
    "wf_rate_bits": ("simulate", ("simulate",)),
}
CMD_NAMES = ("cmd_theory", "cmd_simulate", "cmd_crossover", "cmd_verify")
RATE_NAMES = ("rate_conventional", "rate_aggressive", "rate_conservative",
              "crossover_pth")

# Per-layer metric -> (unit, wrapped names it needs). The values are
# computed in ``Trace.summary``.
METRICS = {
    "numerics.e1_calls": ("count", ("exp_integral_e1",)),
    "numerics.e1_s": ("s", ("exp_integral_e1",)),
    "numerics.root_solves": ("count", ("solve_monotone_root",)),
    "numerics.root_self_s": ("s", ("solve_monotone_root",)),
    "adaptation.policy_solves": ("count", ("make_policy",)),
    "adaptation.solves_per_row": ("solves/row", ("make_policy",)),
    "adaptation.budget_evals_per_solve": ("evals/solve", ("budget_lhs", "solve_threshold")),
    "adaptation.solve_self_s": ("s", ("make_policy",)),
    "adaptation.rate_self_s": ("s", ("rate_conventional",)),
    "channel.sampled_symbols": ("count", ("sample_fading",)),
    "channel.sample_s": ("s", ("sample_fading",)),
    "channel.sinr_s": ("s", ("sinr_of",)),
    "simulate.calls": ("count", ("simulate",)),
    "simulate.symbols": ("count", ("simulate",)),
    "simulate.self_s": ("s", ("simulate",)),
    "simulate.kernel_s": ("s", ("wf_power_fraction", "wf_rate_bits")),
    "simulate.peak_alloc_mb": ("MB", ("simulate",)),
    "simulate.outage_s": ("s", ("expected_outage",)),
    "cli.resolve_s": ("s", ("resolve_spec",)),
    "cli.self_s": ("s", ("main",)),
    "cli.csv_s": ("s", ("rows_to_csv",)),
}


class Trace:
    """In-memory span recorder for one traced pass (single-threaded)."""

    def __init__(self) -> None:
        self.names = list(WRAPPED)
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.call = array("l")
        self.sizes: dict[int, int] = {}
        self.call_index = -1
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        name_id, start, end = self.name_id, self.start, self.end
        parent, call, stack, sizes = self.parent, self.call, self._stack, self.sizes
        clock = time.perf_counter_ns
        size_of = {"sample_fading": len,
                   "simulate": lambda r: r.n_symbols}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            call.append(self.call_index)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if size_of is not None:
                sizes[idx] = size_of(result)
            return result
        return wrapper

    def install(self) -> None:
        for name, (_, modules) in WRAPPED.items():
            for short in modules:
                module = importlib.import_module(f"impulsewf.{short}")
                original = getattr(module, name, None)
                if original is None:
                    continue
                self._undo.append((module, name, original))
                setattr(module, name, self._wrap(name, original))
                self.present.add(name)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()

    def summary(self, call_walls_ns: list[int], rows: int,
                alloc_peaks: list[int]) -> dict:
        """Per-layer metrics, and per CLI call the self time per layer and
        the time no span covers. ``alloc_peaks`` comes from ``alloc_peaks``."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        count = dict.fromkeys(self.names, 0)
        total = dict.fromkeys(self.names, 0)
        own = dict.fromkeys(self.names, 0)
        calls = [dict.fromkeys(LAYERS, 0) for _ in call_walls_ns]
        covered = [0] * len(call_walls_ns)
        for i in range(n):
            name = self.names[self.name_id[i]]
            count[name] += 1
            total[name] += dur[i]
            own[name] += dur[i] - child[i]
            c = self.call[i]
            calls[c][WRAPPED[name][0]] += dur[i] - child[i]
            if self.parent[i] < 0:
                covered[c] += dur[i]
        sizes = dict.fromkeys(("sample_fading", "simulate"), 0)
        for i, size in self.sizes.items():
            sizes[self.names[self.name_id[i]]] += size
        s = 1e-9
        values = {
            "numerics.e1_calls": count["exp_integral_e1"],
            "numerics.e1_s": total["exp_integral_e1"] * s,
            "numerics.root_solves": count["solve_monotone_root"],
            "numerics.root_self_s": (own["solve_monotone_root"] + own["expand_bracket"]) * s,
            "adaptation.policy_solves": count["make_policy"],
            "adaptation.solves_per_row": count["make_policy"] / max(rows, 1),
            "adaptation.budget_evals_per_solve":
                count["budget_lhs"] / max(count["solve_threshold"], 1),
            "adaptation.solve_self_s":
                (own["make_policy"] + own["solve_threshold"] + own["budget_lhs"]) * s,
            "adaptation.rate_self_s": sum(own[k] for k in RATE_NAMES) * s,
            "channel.sampled_symbols": sizes["sample_fading"],
            "channel.sample_s": total["sample_fading"] * s,
            "channel.sinr_s": total["sinr_of"] * s,
            "simulate.calls": count["simulate"],
            "simulate.symbols": sizes["simulate"],
            "simulate.self_s": own["simulate"] * s,
            "simulate.kernel_s": (total["wf_power_fraction"] + total["wf_rate_bits"]) * s,
            "simulate.peak_alloc_mb": max(alloc_peaks, default=0) / 2 ** 20,
            "simulate.outage_s": total["expected_outage"] * s,
            "cli.resolve_s": total["resolve_spec"] * s,
            "cli.self_s": (total["main"] - sum(total[k] for k in CMD_NAMES)) * s,
            "cli.csv_s": total["rows_to_csv"] * s,
        }
        absent = sorted(m for m, (_, needs) in METRICS.items()
                        if not all(k in self.present for k in needs))
        per_call = [{**{layer: ns * s for layer, ns in layers.items()},
                     "uncovered": (wall - cov) * s, "wall": wall * s}
                    for layers, wall, cov in zip(calls, call_walls_ns, covered)]
        return {"metrics": values, "absent": absent, "per_call": per_call,
                "spans": n, "missing_names": sorted(set(WRAPPED) - self.present)}


def alloc_peaks(run) -> list[int]:
    """tracemalloc peak of every ``impulsewf.cli.simulate`` call made while
    ``run()`` runs. This is a pass of its own, without spans: tracemalloc
    slows every allocation, so in the traced pass it would inflate the
    per-layer times."""
    cli = importlib.import_module("impulsewf.cli")
    original = getattr(cli, "simulate", None)
    peaks: list[int] = []
    if original is None:
        return peaks

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    cli.simulate = measured
    try:
        run()
    finally:
        cli.simulate = original
    return peaks
