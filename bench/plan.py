"""Workload plans: the CLI calls each workload makes, generated from its seed.

A plan is a list of calls. Each call is the argv passed to
``impulsewf.cli.main`` (without ``--out``, which the worker adds) plus what
the checks need: the link parameters it sweeps and how many output rows it
must produce. The same (workload, seed) always gives the same plan; the
program under test only ever sees the argv.
"""

from __future__ import annotations

import random

SCHEMES = ("conventional", "aggressive", "conservative")
# Published parameter sets (SNR dB, INR dB); their golden tables live in oracle.py.
FIXED_SETS = {"A": (0.0, 0.0), "B": (10.0, 20.0), "C": (0.0, 20.0)}
SNR_RANGE_DB = (-10.0, 40.0)
INR_RANGE_DB = (0.0, 40.0)
# The slowest solves sit at the low-SNR corners, so including every corner
# makes the slowest calls, and with them the tail latency, the same for
# every seed.
CORNER_SETS = tuple((snr, inr) for snr in SNR_RANGE_DB for inr in INR_RANGE_DB)

FINE_GRID = tuple(i / 20 for i in range(21))
DEFAULT_GRID = tuple(i / 10 for i in range(11))
DEFAULT_PB = 1e-3

THEORY_SEEDED_SETS = 240
SIM_CALLS = 6
SIM_SYMBOLS = 10_000_000
BLOCK_SEEDED_SETS = 21
BLOCK_SYMBOLS = 200_000
BLOCK_LEN = 8

WORKLOADS = ("theory-grid", "simulate-1e7", "simulate-block")


def _seeded_sets(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """Latin hypercube over the (SNR, INR) box, in random order: one draw per
    SNR stratum and per INR stratum, so the mix of cheap and costly sets,
    and with it the run's mean cost, varies little from seed to seed, and a
    run that ends part way through a pass has covered a random part of it."""
    snr_strata, inr_strata = list(range(n)), list(range(n))
    rng.shuffle(snr_strata)
    rng.shuffle(inr_strata)

    def draw(bounds, stratum):
        lo, hi = bounds
        return round(lo + (stratum + rng.random()) * (hi - lo) / n, 2)
    return [(draw(SNR_RANGE_DB, i), draw(INR_RANGE_DB, j))
            for i, j in zip(snr_strata, inr_strata)]


def _call(command: str, snr_db: float, inr_db: float, rows: int,
          grid=None, symbols: int = 0,
          seed: int | None = None, mode: str | None = None,
          block_len: int = 1) -> dict:
    argv = [command, "--snr-db", f"{snr_db:g}", "--mu-db", f"{inr_db:g}"]
    if grid is not None:
        argv += ["--p-grid", ",".join(f"{p:g}" for p in grid)]
    if symbols:
        argv += ["--symbols", str(symbols), "--seed", str(seed)]
    if mode is not None:
        argv += ["--mode", mode, "--block-len", str(block_len)]
    return {"argv": argv, "command": command, "snr_db": snr_db,
            "inr_db": inr_db, "grid": list(grid or DEFAULT_GRID),
            "symbols": symbols, "block_len": block_len, "rows": rows}


def _theory_grid(rng: random.Random) -> list[dict]:
    """A fine-grid theory sweep per set; a crossover report for the fixed
    and corner sets and every second seeded set. Two thirds of the calls are
    sweeps, so the median call is a sweep rather than a split between the
    two call kinds."""
    fixed = list(FIXED_SETS.values()) + list(CORNER_SETS)
    seeded = _seeded_sets(rng, THEORY_SEEDED_SETS)
    rows = len(FINE_GRID) * len(SCHEMES)
    calls = []
    for i, (snr, inr) in enumerate(fixed + seeded):
        calls.append(_call("theory", snr, inr, rows, grid=FINE_GRID))
        if i < len(fixed) or (i - len(fixed)) % 2 == 0:
            calls.append(_call("crossover", snr, inr, 1))
    return calls


def _simulate_1e7(rng: random.Random) -> list[dict]:
    calls = []
    for snr, inr in _seeded_sets(rng, SIM_CALLS):
        p = rng.randint(1, 9) / 10
        calls.append(_call("simulate", snr, inr, len(SCHEMES), grid=(p,),
                           symbols=SIM_SYMBOLS, seed=rng.randrange(2 ** 31)))
    return calls


def _simulate_block(rng: random.Random) -> list[dict]:
    sets = list(FIXED_SETS.values())
    sets += _seeded_sets(rng, BLOCK_SEEDED_SETS)
    rows = len(DEFAULT_GRID) * len(SCHEMES)
    return [_call("simulate", snr, inr, rows, symbols=BLOCK_SYMBOLS,
                  seed=rng.randrange(2 ** 31), mode="block",
                  block_len=BLOCK_LEN)
            for snr, inr in sets]


def make_plan(workload: str, seed: int) -> list[dict]:
    """The calls of ``workload`` for workload seed ``seed``."""
    builders = {"theory-grid": _theory_grid, "simulate-1e7": _simulate_1e7,
                "simulate-block": _simulate_block}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return builders[workload](random.Random(f"{workload}/{seed}"))
