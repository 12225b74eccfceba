"""Command-line front end: sweeps over the burst probability with CSV output.

Subcommands
-----------
theory     closed-form rate and outage per (p, scheme)
simulate   theory columns plus Monte Carlo measurements
crossover  burst probability where aggressive and conservative rates meet
verify     flag rows where simulation and theory disagree beyond tolerance

``OPTIONS`` is the one list of options: each entry is a config-file key
(its flag is the key with '-' for '_'), its default, the converter that
checks its value, and its argparse settings. A flag overrides the optional
JSON config file, which overrides the default. The CSV stream is
deterministic: fixed column order, rows ordered by (p, scheme), '.' decimal
separator, LF newlines, numbers carrying 12 significant digits.

Exit codes: 0 ok, 1 configuration or computation error (one line on
stderr), 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, replace

from .adaptation import (ErrorModel, Policy, Scheme, crossover, make_policies,
                         policy_law)
from .channel import ChannelParams
from .numerics import ConvergenceError
from .simulate import SimConfig, SimMode, simulate_policies

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

SCHEME_ORDER = tuple(Scheme)
CSV_HEADER = "p,scheme,rate_theory,rate_sim,outage_theory,outage_sim,mean_power_sim,seed"


class ConfigError(ValueError):
    """Invalid flag, config-file entry, or parameter combination."""


def _number(value) -> float:
    """``value`` as a float. Only a number is accepted: a bool or a string
    is refused rather than read as 0, 1 or the number it spells."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
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


def _items(raw, parse_text) -> list:
    """The items of a list option: a comma-separated string (the flag
    syntax) read item by item with ``parse_text``, blank items skipped, or
    a JSON list as it is."""
    if isinstance(raw, str):
        return [parse_text(s) for s in raw.split(",") if s.strip()]
    if isinstance(raw, list):
        return raw
    raise TypeError(f"must be a list or a comma-separated string, got {raw!r}")


def _grid(raw) -> tuple[float, ...]:
    values = [_number(v) for v in _items(raw, float)]
    if not values:
        raise ValueError("must not be empty")
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise ValueError(f"values must be in [0, 1]: {values}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"must be strictly increasing: {values}")
    return tuple(values)


def _schemes(raw) -> tuple[Scheme, ...]:
    names = _items(raw, str.strip)
    known = [s.value for s in SCHEME_ORDER]
    for name in names:
        if name not in known:
            raise ValueError(f"unknown scheme {name!r}; choose from {sorted(known)}")
    if not names:
        raise ValueError("must not be empty")
    return tuple(s for s in SCHEME_ORDER if s.value in names)


# Config key -> (default, converter, argparse settings of its flag).
OPTIONS: dict[str, tuple] = {
    "snr_db": (0.0, _number, dict(type=float, help="mean SNR in dB")),
    "mu_db": (0.0, _number, dict(
        type=float, help="interference-to-noise power ratio in dB")),
    "pb": (1e-3, _number, dict(type=float, help="instantaneous BER target")),
    "ber_const": (0.2, _number, dict(
        type=float, help="BER curve coefficient (default 0.2)")),
    "p_grid": ([i / 10 for i in range(11)], _grid, dict(
        metavar="P0,P1,...", help="comma-separated burst probabilities to sweep")),
    "schemes": ([s.value for s in SCHEME_ORDER], _schemes, dict(
        metavar="S1,S2,...",
        help="subset of conventional,aggressive,conservative")),
    "symbols": (100_000, _integer, dict(type=int, help="symbols per simulated point")),
    "seed": (12345, _integer, dict(type=int, help="master random seed")),
    "mode": ("per-symbol", SimMode, dict(
        choices=[m.value for m in SimMode], help="sampling mode (default per-symbol)")),
    "block_len": (4, _integer, dict(
        type=int, help="symbols per coherence block in block mode")),
    "out": (None, _path, dict(metavar="FILE", help="write output here instead of stdout")),
}


@dataclass(frozen=True)
class SweepSpec:
    """Fully resolved options for one sweep: the link at p = 0, the error
    model, the simulation settings, and what to sweep and where to write."""

    link: ChannelParams
    em: ErrorModel
    cfg: SimConfig
    p_grid: tuple[float, ...]
    schemes: tuple[Scheme, ...]
    out: str | None = None


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


def _sweep(spec: SweepSpec) -> list[Policy]:
    """The solved policy of every row, in (p, scheme) order, from one
    solve call."""
    links = [replace(spec.link, impulse_prob=p) for p in spec.p_grid]
    return make_policies([(s, link) for link in links for s in spec.schemes],
                         spec.em)


def cmd_theory(spec: SweepSpec) -> str:
    """Closed-form sweep: one row per (p, scheme)."""
    rows = []
    for policy in _sweep(spec):
        rate, outage = policy_law(policy)
        rows.append((policy.params.impulse_prob, policy.scheme.value, rate,
                     None, outage, None, None, None))
    return rows_to_csv(rows)


def cmd_simulate(spec: SweepSpec) -> str:
    """Sweep with Monte Carlo columns next to the closed forms: the paper's
    rate in every mode and the sampling mode's outage law."""
    cfg = spec.cfg
    policies = _sweep(spec)
    rows = []
    for policy, result in zip(policies, simulate_policies(policies, cfg)):
        rate, _ = policy_law(policy)
        _, outage = policy_law(policy, cfg.mismatch)
        rows.append((policy.params.impulse_prob, policy.scheme.value, rate,
                     result.avg_se, outage, result.outage_frac,
                     result.mean_power_frac, cfg.seed))
    return rows_to_csv(rows)


def cmd_crossover(spec: SweepSpec) -> str:
    """Report where the aggressive and conservative rates intersect."""
    rate_n0, rate_i, p_th = crossover(spec.link, spec.em)
    return (f"snr_db={_fmt(spec.link.snr_db)} mu_db={_fmt(spec.link.inr_db)}\n"
            f"aggressive_rate_p0={_fmt(rate_n0)}\n"
            f"conservative_rate={_fmt(rate_i)}\n"
            f"p_th={_fmt(p_th)}\n")


def cmd_verify(spec: SweepSpec) -> tuple[str, bool]:
    """Compare simulation to theory row by row.

    Theory is the rate the sampling mode should measure, ``policy_law``
    at the mode's ``mismatch``: the closed form in per-symbol mode, plus
    what the first symbol of each block earns in block mode. A row fails
    when |rate_sim - theory| exceeds max(0.005, 3 * standard error of the
    simulated mean).
    """
    cfg = spec.cfg
    lines = []
    failures = 0
    total = 0
    policies = _sweep(spec)
    for policy, result in zip(policies, simulate_policies(policies, cfg)):
        theory, _ = policy_law(policy, cfg.mismatch)
        stderr = result.avg_se_stderr
        diff = abs(result.avg_se - theory)
        tol = max(0.005, 3.0 * stderr)
        ok = diff <= tol
        total += 1
        failures += 0 if ok else 1
        lines.append(
            f"p={_fmt(policy.params.impulse_prob)} scheme={policy.scheme.value} "
            f"theory={_fmt(theory)} sim={_fmt(result.avg_se)} diff={_fmt(diff)} "
            f"stderr={_fmt(stderr)} tol={_fmt(tol)} {'PASS' if ok else 'FAIL'}")
    lines.append(f"verified {total - failures}/{total} rows"
                 + ("" if failures == 0 else f", {failures} FAILED"))
    return "\n".join(lines) + "\n", failures == 0


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
        command = sub.add_parser(name, help=descr)
        command.add_argument("--config", metavar="FILE",
                             help="JSON file providing any of the other options")
        for key, (_, _, flag) in OPTIONS.items():
            command.add_argument("--" + key.replace("_", "-"), **flag)
    return parser


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
        unknown = set(file_values) - set(OPTIONS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    values = {}
    for key, (default, convert, _) in OPTIONS.items():
        flag = getattr(args, key)
        try:
            values[key] = convert(flag if flag is not None
                                  else file_values.get(key, default))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{key}: {exc}") from None
    # The value objects check every combination before any computation runs.
    try:
        em = ErrorModel(target_ber=values["pb"], ber_coeff=values["ber_const"])
        link = ChannelParams(snr_db=values["snr_db"], inr_db=values["mu_db"],
                             impulse_prob=0.0)
        cfg = SimConfig(n_symbols=values["symbols"], seed=values["seed"],
                        mode=values["mode"], block_len=values["block_len"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return SweepSpec(link, em, cfg, values["p_grid"], values["schemes"],
                     values["out"])


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
