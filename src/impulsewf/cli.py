"""Command-line front end: sweeps over the burst probability with CSV output.

Subcommands
-----------
theory     closed-form rate and outage per (p, scheme)
simulate   theory columns plus Monte Carlo measurements
crossover  burst probability where aggressive and conservative rates meet
verify     flag rows where simulation and theory disagree beyond tolerance

Flags override values from an optional JSON config file (same keys as the
flag destinations), which override built-in defaults. The CSV stream is
deterministic: fixed column order, rows ordered by (p, scheme), '.' decimal
separator, LF newlines, numbers carrying 12 significant digits.

Every command solves each cutoff it needs once: a sweep solves all of its
cutoffs in one vectorised call, with the p-independent aggressive and
conservative cutoffs solved once rather than per p.

Exit codes: 0 ok, 1 configuration or computation error (one line on
stderr), 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from .adaptation import (ErrorModel, Policy, Scheme, crossover, make_policies,
                         policy_rate)
from .channel import ChannelParams
from .numerics import ConvergenceError
from .simulate import (SimConfig, SimMode, policy_outage, policy_sim_rate,
                       simulate_policy)

__all__ = [
    "ConfigError",
    "SweepSpec",
    "rows_to_csv",
    "cmd_theory",
    "cmd_simulate",
    "cmd_crossover",
    "cmd_verify",
    "main",
    "app",
]

SCHEME_ORDER = (Scheme.CONVENTIONAL, Scheme.AGGRESSIVE, Scheme.CONSERVATIVE)
CSV_HEADER = "p,scheme,rate_theory,rate_sim,outage_theory,outage_sim,mean_power_sim,seed"

DEFAULTS: dict = {
    "snr_db": 0.0,
    "mu_db": 0.0,
    "pb": 1e-3,
    "ber_const": 0.2,
    "p_grid": [i / 10 for i in range(11)],
    "symbols": 100_000,
    "seed": 12345,
    "mode": "per-symbol",
    "block_len": 4,
    "schemes": [s.value for s in SCHEME_ORDER],
    "out": None,
}


class ConfigError(ValueError):
    """Invalid flag, config-file entry, or parameter combination."""


@dataclass(frozen=True)
class SweepSpec:
    """Fully resolved options for one sweep."""

    snr_db: float
    mu_db: float
    pb: float
    ber_const: float
    p_grid: tuple[float, ...]
    schemes: tuple[Scheme, ...]
    symbols: int
    seed: int
    mode: SimMode
    block_len: int
    out: str | None = None

    def error_model(self) -> ErrorModel:
        return ErrorModel(target_ber=self.pb, ber_coeff=self.ber_const)

    def params_at(self, p: float) -> ChannelParams:
        return ChannelParams(snr_db=self.snr_db, inr_db=self.mu_db, impulse_prob=p)

    def sim_config(self) -> SimConfig:
        return SimConfig(n_symbols=self.symbols, seed=self.seed,
                         mode=self.mode, block_len=self.block_len)


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.12g}"


def rows_to_csv(rows: list[tuple]) -> str:
    """CSV text of 8-cell rows in ``CSV_HEADER`` order: the scheme name and
    the seed as they are, numbers to 12 significant digits, None as an
    empty cell. Simulation cells are None in theory-only rows."""
    lines = [CSV_HEADER]
    for p, scheme, *values, seed in rows:
        lines.append(",".join([_fmt(p), scheme, *map(_fmt, values),
                               "" if seed is None else str(seed)]))
    return "\n".join(lines) + "\n"


def _sweep(spec: SweepSpec,
           em: ErrorModel) -> list[tuple[float, ChannelParams, Policy]]:
    """(p, link, solved policy) per row, in (p, scheme) order.

    All cutoffs come from one solve call. Conventional needs a cutoff per
    p; aggressive and conservative one in all, as theirs do not depend
    on p.
    """
    links = [spec.params_at(p) for p in spec.p_grid]
    conventional = Scheme.CONVENTIONAL
    requests = [(s, link) for s in spec.schemes
                for link in (links if s is conventional else links[:1])]
    solved = iter(make_policies(requests, em))
    policies = {s: [next(solved) for _ in links] if s is conventional
                else [next(solved)] * len(links) for s in spec.schemes}
    return [(p, link, policies[s][i])
            for i, (p, link) in enumerate(zip(spec.p_grid, links))
            for s in spec.schemes]


def cmd_theory(spec: SweepSpec) -> str:
    """Closed-form sweep: one row per (p, scheme)."""
    em = spec.error_model()
    rows = [(p, policy.scheme.value, policy_rate(policy, params, em), None,
             policy_outage(policy, params, em), None, None, None)
            for p, params, policy in _sweep(spec, em)]
    return rows_to_csv(rows)


def cmd_simulate(spec: SweepSpec) -> str:
    """Sweep with Monte Carlo columns next to the closed forms."""
    em = spec.error_model()
    cfg = spec.sim_config()
    rows = []
    for p, params, policy in _sweep(spec, em):
        result = simulate_policy(policy, params, em, cfg)
        rows.append((
            p, policy.scheme.value, policy_rate(policy, params, em),
            result.avg_se,
            policy_outage(policy, params, em, cfg.mode, cfg.block_len),
            result.outage_frac, result.mean_power_frac, cfg.seed))
    return rows_to_csv(rows)


def cmd_crossover(spec: SweepSpec) -> str:
    """Report where the aggressive and conservative rates intersect."""
    rate_n0, rate_i, p_th = crossover(spec.params_at(0.0), spec.error_model())
    return (f"snr_db={_fmt(spec.snr_db)} mu_db={_fmt(spec.mu_db)}\n"
            f"aggressive_rate_p0={_fmt(rate_n0)}\n"
            f"conservative_rate={_fmt(rate_i)}\n"
            f"p_th={_fmt(p_th)}\n")


def cmd_verify(spec: SweepSpec) -> tuple[str, bool]:
    """Compare simulation to theory row by row.

    Theory is the rate the sampling mode should measure
    (:func:`impulsewf.simulate.policy_sim_rate`): the closed form in
    per-symbol mode, plus what the first symbol of each block earns in
    block mode. A row fails when |rate_sim - theory| exceeds
    max(0.005, 3 * standard error of the simulated mean).
    """
    em = spec.error_model()
    cfg = spec.sim_config()
    lines = []
    failures = 0
    total = 0
    for p, params, policy in _sweep(spec, em):
        theory = policy_sim_rate(policy, params, em, cfg.mode, cfg.block_len)
        result = simulate_policy(policy, params, em, cfg)
        stderr = result.avg_se_stderr
        diff = abs(result.avg_se - theory)
        tol = max(0.005, 3.0 * stderr)
        ok = diff <= tol
        total += 1
        failures += 0 if ok else 1
        lines.append(
            f"p={_fmt(p)} scheme={policy.scheme.value} theory={_fmt(theory)} "
            f"sim={_fmt(result.avg_se)} diff={_fmt(diff)} "
            f"stderr={_fmt(stderr)} tol={_fmt(tol)} "
            f"{'PASS' if ok else 'FAIL'}")
    lines.append(f"verified {total - failures}/{total} rows"
                 + ("" if failures == 0 else f", {failures} FAILED"))
    return "\n".join(lines) + "\n", failures == 0


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file providing any of the other options")
    parser.add_argument("--snr-db", type=float, help="mean SNR in dB")
    parser.add_argument("--mu-db", type=float,
                        help="interference-to-noise power ratio in dB")
    parser.add_argument("--pb", type=float, help="instantaneous BER target")
    parser.add_argument("--ber-const", type=float,
                        help="BER curve coefficient (default 0.2)")
    parser.add_argument("--p-grid", metavar="P0,P1,...",
                        help="comma-separated burst probabilities to sweep")
    parser.add_argument("--schemes", metavar="S1,S2,...",
                        help="subset of conventional,aggressive,conservative")
    parser.add_argument("--symbols", type=int, help="symbols per simulated point")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--mode", choices=[m.value for m in SimMode],
                        help="sampling mode (default per-symbol)")
    parser.add_argument("--block-len", type=int,
                        help="symbols per coherence block in block mode")
    parser.add_argument("--out", metavar="FILE",
                        help="write output here instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every call."""
    parser = argparse.ArgumentParser(
        prog="impulsewf",
        description="Water-filling adaptation sweeps for a Rayleigh-faded "
                    "link with Bernoulli-gated impulsive interference.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
            ("theory", "closed-form rate/outage sweep as CSV"),
            ("simulate", "sweep with Monte Carlo columns as CSV"),
            ("crossover", "aggressive/conservative crossover report"),
            ("verify", "check simulation against theory, exit 2 on failure")):
        _add_common_flags(sub.add_parser(name, help=descr))
    return parser


def _parse_grid(raw) -> tuple[float, ...]:
    if isinstance(raw, str):
        try:
            values = [float(s) for s in raw.split(",") if s.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"bad p-grid entry: {exc}") from None
    else:
        values = [float(v) for v in raw]
    if not values:
        raise ConfigError("p-grid is empty")
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise ConfigError(f"p-grid values must be in [0, 1]: {values}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"p-grid must be strictly increasing: {values}")
    return tuple(values)


def _parse_schemes(raw) -> tuple[Scheme, ...]:
    names = [s.strip() for s in raw.split(",")] if isinstance(raw, str) else list(raw)
    known = {s.value: s for s in SCHEME_ORDER}
    for name in names:
        if name not in known:
            raise ConfigError(f"unknown scheme {name!r}; "
                              f"choose from {sorted(known)}")
    picked = set(names)
    return tuple(s for s in SCHEME_ORDER if s.value in picked)


def _real(value) -> float:
    """``value`` as a float; a bool is refused rather than read as 0 or 1."""
    if isinstance(value, bool):
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """``value`` as an int. A bool or a number with a fractional part is
    refused rather than silently truncated to a count or seed."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"must be an integer, got {value!r}")


def _path(value) -> str | None:
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"must be a file name, got {value!r}")


def resolve_spec(args: argparse.Namespace) -> SweepSpec:
    """Merge flags > config file > defaults into a validated SweepSpec."""
    file_values: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object, got "
                              f"{type(file_values).__name__}")
        unknown = set(file_values) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def pick(key: str, convert):
        """The winning value for ``key``, converted; a value of the wrong
        type (from a config file) is a config error naming the key."""
        flag = getattr(args, key, None)
        value = flag if flag is not None else file_values.get(key, DEFAULTS[key])
        try:
            return convert(value)
        except TypeError as exc:
            raise ConfigError(f"{key}: {exc}") from None

    try:
        spec = SweepSpec(
            snr_db=pick("snr_db", _real),
            mu_db=pick("mu_db", _real),
            pb=pick("pb", _real),
            ber_const=pick("ber_const", _real),
            p_grid=pick("p_grid", _parse_grid),
            schemes=pick("schemes", _parse_schemes),
            symbols=pick("symbols", _integer),
            seed=pick("seed", _integer),
            mode=pick("mode", SimMode),
            block_len=pick("block_len", _integer),
            out=pick("out", _path),
        )
        # Construct the value objects now so bad combinations fail before
        # any computation runs.
        spec.error_model()
        spec.params_at(0.0)
        spec.sim_config()
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from None
    return spec


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split())


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = resolve_spec(args)
    except ConfigError as exc:
        print(f"config error: {_one_line(exc)}", file=sys.stderr)
        return 1
    try:
        if args.command == "theory":
            text, ok = cmd_theory(spec), True
        elif args.command == "simulate":
            text, ok = cmd_simulate(spec), True
        elif args.command == "crossover":
            text, ok = cmd_crossover(spec), True
        else:
            text, ok = cmd_verify(spec)
    except (ValueError, ConvergenceError) as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 1
    try:
        _emit(text, spec.out)
    except OSError as exc:
        print(f"error: cannot write output: {_one_line(exc)}", file=sys.stderr)
        return 1
    return 0 if ok else 2


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
