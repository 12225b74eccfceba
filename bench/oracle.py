"""Independent reference values and the output checks built on them.

Nothing here imports ``impulsewf``. Cutoffs come from ``scipy.optimize.brentq``
on the power-budget equation with ``scipy.special.exp1``; rates are
``log2(e) * E1`` closed forms; the moments that size the Monte Carlo
tolerances come from ``scipy.integrate.quad``. The BER curve and the
water-filling form follow Goldsmith & Chua, IEEE Trans. Commun. 45(10), 1997.

Every check returns the number of failed output rows and one message per
failure. Tolerance tests are written ``not err <= tol`` so that a NaN fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import exp1

from plan import DEFAULT_PB, FIXED_SETS, SCHEMES

LOG2E = math.log2(math.e)
BER_COEFF = 0.2
CSV_HEADER = "p,scheme,rate_theory,rate_sim,outage_theory,outage_sim,mean_power_sim,seed"

THEORY_REL_TOL = 1e-8
# The program documents its cutoffs as exact to 1e-12 absolute. Where a
# cutoff is tiny in relative terms (low SNR, high INR) that alone moves a
# rate by more than 1e-8 relative, so a theory value passes if it is within
# 1e-8 relative plus what a 1e-12 cutoff error explains. Values that need
# the second term are counted and reported, not hidden.
CUTOFF_TOL = 1e-12
GOLDEN_TOL = 2e-3
PTH_ABS_TOL = 1e-9
# Monte Carlo tolerance: rate within max(0.005, Z * stderr); outage and
# mean power within Z sigma. A run makes a few hundred such checks on
# inputs drawn from an arbitrary seed, so Z = 3 would fail correct code in
# a sizeable share of runs; at Z = 5 a Gaussian false alarm has
# probability 5.7e-7 per check.
MC_RATE_FLOOR = 0.005
MC_Z = 5.0

# Published sweep values at the default BER target (p grid 0, 0.1, ..., 1).
GOLDEN = {
    FIXED_SETS["A"]: {
        "conventional": dict(zip(range(11), [
            0.4842, 0.4246, 0.3707, 0.3237, 0.2845, 0.2544,
            0.2349, 0.2281, 0.2360, 0.2612, 0.3064])),
        "aggressive": dict(zip(range(11), [
            0.4842, 0.4357, 0.3873, 0.3389, 0.2905, 0.2421,
            0.1937, 0.1452, 0.0968, 0.0484, 0.0])),
        "conservative": {i: 0.3064 for i in range(11)},
    },
    FIXED_SETS["B"]: {
        "conventional": {0: 1.7524, 9: 0.0524, 10: 0.0957},
        "aggressive": {5: 0.8762},
        "conservative": {i: 0.0957 for i in range(11)},
    },
    FIXED_SETS["C"]: {
        "conservative": {i: 0.0155 for i in range(11)},
    },
}


def _budget(components, t: float) -> float:
    """Average of (1/t - 1/gamma)+ over an exponential mixture."""
    return sum(w * (math.exp(-t / m) / t - exp1(t / m) / m)
               for w, m in components if w > 0.0)


def _cutoff(components, k: float) -> float:
    def gap(t: float) -> float:
        return _budget(components, t) - k
    hi = 1.0
    while gap(hi) > 0.0:
        hi *= 2.0
    lo = hi / 2.0
    while gap(lo) < 0.0:
        lo /= 2.0
    return brentq(gap, lo, hi, xtol=1e-300, rtol=1e-15, maxiter=500)


def _tail_mean(g, z: float) -> float:
    """Integral of g(u) * exp(-u) over [z, inf), shifted for stability."""
    value, _ = quad(lambda v: g(z + v) * math.exp(-v), 0.0, math.inf,
                    epsabs=0.0, epsrel=1e-10, limit=200)
    return math.exp(-z) * value


def _rate_sq(z: float) -> float:
    """E[(log2(u / z))+^2] for u unit exponential."""
    return _tail_mean(lambda u: math.log2(u / z) ** 2, z)


def _power_sq(t: float, mean: float) -> float:
    """E[(1/t - 1/b)+^2] for b exponential with the given mean."""
    z = t / mean
    return _tail_mean(lambda u: (1.0 / z - 1.0 / u) ** 2, z) / mean ** 2


class Link:
    """Closed forms of one (SNR, INR, BER target) link for every p."""

    def __init__(self, snr_db: float, inr_db: float, pb: float):
        self.snr = 10.0 ** (snr_db / 10.0)
        self.inr = 10.0 ** (inr_db / 10.0)
        self.k = -1.5 / math.log(pb / BER_COEFF)
        self.m_clean = self.snr
        self.m_hit = self.snr / (1.0 + self.inr)
        hit_ber = BER_COEFF * (pb / BER_COEFF) ** (1.0 / (1.0 + self.inr))
        # A burst on a clean-priced symbol breaks the BER target.
        self.violates = hit_ber > pb + 1e-12
        self.t_aggressive = _cutoff([(1.0, 1.0)], self.k * self.snr)
        self.t_conservative = _cutoff([(1.0, 1.0)], self.k * self.snr / (1.0 + self.inr))
        self._t_conventional: dict[float, float] = {}

    def t_conventional(self, p: float) -> float:
        if p not in self._t_conventional:
            self._t_conventional[p] = _cutoff(
                [(1.0 - p, self.m_clean), (p, self.m_hit)], self.k)
        return self._t_conventional[p]

    def rate(self, scheme: str, p: float) -> float:
        """Closed-form average rate (bits/symbol)."""
        if scheme == "conventional":
            t = self.t_conventional(p)
            return float(LOG2E * ((1.0 - p) ** 2 * exp1(t / self.m_clean)
                                  + p * exp1(t / self.m_hit)))
        if scheme == "aggressive":
            return float((1.0 - p) * LOG2E * exp1(self.t_aggressive))
        return float(LOG2E * exp1(self.t_conservative))

    def rate_slope(self, scheme: str, p: float) -> float:
        """|d rate / d cutoff| of the closed form."""
        if scheme == "conventional":
            t = self.t_conventional(p)
            return LOG2E * ((1.0 - p) ** 2 * math.exp(-t / self.m_clean)
                            + p * math.exp(-t / self.m_hit)) / t
        if scheme == "aggressive":
            t = self.t_aggressive
            return (1.0 - p) * LOG2E * math.exp(-t) / t
        return LOG2E * math.exp(-self.t_conservative) / self.t_conservative

    def outage(self, scheme: str, p: float, block_len: int, block: bool) -> float:
        if not self.violates:
            return 0.0
        if scheme == "conventional":
            return p * (1.0 - p) * ((block_len - 1) / block_len if block else 1.0)
        if scheme == "aggressive":
            return p * math.exp(-self.t_aggressive)
        return 0.0

    def sim_moments(self, scheme: str, p: float, block_len: int,
                    block: bool) -> tuple[float, float, float]:
        """(E[credited rate], E[credited rate^2], E[power^2]) per symbol.

        In block mode the first symbol of a block adapts on its own burst
        state, so under the conventional scheme it never misses; the other
        symbols behave as in per-symbol mode.
        """
        pv = p if self.violates else 0.0
        if scheme == "conventional":
            t = self.t_conventional(p)
            zc, zh = t / self.m_clean, t / self.m_hit
            first = 1.0 / block_len if block else 0.0
            clean_w = (1.0 - p) * (first + (1.0 - first) * (1.0 - pv))
            mean = float(LOG2E * (clean_w * exp1(zc) + p * exp1(zh)))
            sq = clean_w * _rate_sq(zc) + p * _rate_sq(zh)
            power_sq = ((1.0 - p) * _power_sq(t, self.m_clean)
                        + p * _power_sq(t, self.m_hit)) / self.k ** 2
            return mean, sq, power_sq
        if scheme == "aggressive":
            t, k, kept = self.t_aggressive, self.k * self.snr, 1.0 - pv
        else:
            t, k, kept = self.t_conservative, self.k * self.snr / (1.0 + self.inr), 1.0
        mean = float(kept * LOG2E * exp1(t))
        return mean, kept * _rate_sq(t), _power_sq(t, 1.0) / k ** 2


@lru_cache(maxsize=None)
def link(snr_db: float, inr_db: float) -> Link:
    return Link(snr_db, inr_db, DEFAULT_PB)


@dataclass
class Verdict:
    """Failed rows of one call's output, with a message for each, and the
    relative errors of theory values that needed the cutoff allowance."""

    failed: int = 0
    messages: list[str] = field(default_factory=list)
    cutoff_allowance: list[float] = field(default_factory=list)


def parse_rows(text: str) -> list[list[str]]:
    lines = text.rstrip("\n").split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != 8 for r in rows):
        raise ValueError("row with other than 8 cells")
    return rows


def _row_layout(call: dict, rows: list[list[str]]) -> str | None:
    expected = [(p, s) for p in call["grid"] for s in SCHEMES]
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for row, (p, scheme) in zip(rows, expected):
        if float(row[0]) != p or row[1] != scheme:
            return f"row {row[:2]} out of order, expected {(p, scheme)}"
    return None


def _theory_columns(ref: Link, call: dict, row: list[str], verdict: Verdict,
                    problems: list[str]) -> float:
    """Check rate_theory and outage_theory; return the oracle outage."""
    p, scheme = float(row[0]), row[1]
    block = call["block_len"] > 1
    rate, want = float(row[2]), ref.rate(scheme, p)
    err = abs(rate - want)
    strict = THEORY_REL_TOL * abs(want) + 1e-15
    if not err <= strict + CUTOFF_TOL * ref.rate_slope(scheme, p):
        problems.append(f"rate_theory {rate!r} vs oracle {want!r}")
    elif err > strict:
        verdict.cutoff_allowance.append(err / abs(want))
    outage, q = float(row[4]), ref.outage(scheme, p, call["block_len"], block)
    slope = p * math.exp(-ref.t_aggressive) if scheme == "aggressive" else 0.0
    if not abs(outage - q) <= THEORY_REL_TOL * q + 1e-15 + CUTOFF_TOL * slope:
        problems.append(f"outage_theory {outage!r} vs oracle {q!r}")
    return q


def check_theory(call: dict, text: str) -> Verdict:
    """Theory rows against the oracle and the golden tables."""
    rows = parse_rows(text)
    bad = _row_layout(call, rows)
    if bad:
        return Verdict(call["rows"], [bad])
    ref = link(call["snr_db"], call["inr_db"])
    golden = GOLDEN.get((call["snr_db"], call["inr_db"]), {})
    verdict = Verdict()
    for row in rows:
        p, scheme, rate = float(row[0]), row[1], float(row[2])
        problems = []
        if any(row[i] for i in (3, 5, 6, 7)):
            problems.append("simulation cells not empty")
        _theory_columns(ref, call, row, verdict, problems)
        grid_index = round(p * 10)
        gold = golden.get(scheme, {}).get(grid_index)
        if gold is not None and abs(grid_index / 10 - p) < 1e-12 \
                and not abs(rate - gold) <= GOLDEN_TOL:
            problems.append(f"rate {rate!r} vs golden {gold}")
        if problems:
            verdict.failed += 1
            verdict.messages.append(f"p={row[0]} {scheme}: " + "; ".join(problems))
    return verdict


def check_crossover(call: dict, text: str, theory_text: str) -> Verdict:
    """p_th = 1 - R_cons / R_agg(0), both read from the set's theory rows."""
    fields = dict(line.split("=", 1) for line in text.split("\n")
                  if "=" in line and " " not in line)
    rows = parse_rows(theory_text)
    agg0 = float(next(r for r in rows if float(r[0]) == 0.0 and r[1] == "aggressive")[2])
    cons = float(next(r for r in rows if r[1] == "conservative")[2])
    problems = []
    if float(fields.get("aggressive_rate_p0", "nan")) != agg0:
        problems.append(f"aggressive_rate_p0 {fields.get('aggressive_rate_p0')} vs row {agg0!r}")
    if float(fields.get("conservative_rate", "nan")) != cons:
        problems.append(f"conservative_rate {fields.get('conservative_rate')} vs row {cons!r}")
    if "p_th" in fields:
        want = 1.0 - cons / agg0
        if not abs(float(fields["p_th"]) - want) <= PTH_ABS_TOL:
            problems.append(f"p_th {fields['p_th']} vs {want!r}")
    elif fields.get("status") != "no-crossover" or not cons > agg0:
        problems.append("missing p_th")
    return Verdict(1 if problems else 0, problems)


def check_simulate(call: dict, text: str) -> Verdict:
    """Monte Carlo rows against oracle moments, theory columns as in theory."""
    rows = parse_rows(text)
    bad = _row_layout(call, rows)
    if bad:
        return Verdict(call["rows"], [bad])
    ref = link(call["snr_db"], call["inr_db"])
    block = call["block_len"] > 1
    corr = call["block_len"] if block else 1
    n = -(-call["symbols"] // corr) * corr
    seed = call["argv"][call["argv"].index("--seed") + 1]
    verdict = Verdict()
    for row in rows:
        p, scheme = float(row[0]), row[1]
        rate_sim, out_sim, power = float(row[3]), float(row[5]), float(row[6])
        problems = []
        q = _theory_columns(ref, call, row, verdict, problems)
        if row[7] != seed:
            problems.append(f"seed {row[7]}")
        # Within-block correlation is at most 1, so the variance of a mean
        # over n symbols in blocks of L is at most L * (per-symbol variance) / n.
        mean, sq, power_sq = ref.sim_moments(scheme, p, call["block_len"], block)
        rate_sd = math.sqrt(corr * max(sq - mean * mean, 0.0) / n)
        if not abs(rate_sim - mean) <= max(MC_RATE_FLOOR, MC_Z * rate_sd):
            problems.append(f"rate_sim {rate_sim!r} vs {mean!r} (sd {rate_sd:.3g})")
        out_sd = math.sqrt(corr * q * (1.0 - q) / n)
        if not abs(out_sim - q) <= MC_Z * out_sd + 1e-12:
            problems.append(f"outage_sim {out_sim!r} vs {q!r} (sd {out_sd:.3g})")
        power_sd = math.sqrt(corr * max(power_sq - 1.0, 0.0) / n)
        if not abs(power - 1.0) <= MC_Z * power_sd + 1e-9:
            problems.append(f"mean_power_sim {power!r} vs 1 (sd {power_sd:.3g})")
        if problems:
            verdict.failed += 1
            verdict.messages.append(f"p={row[0]} {scheme}: " + "; ".join(problems))
    return verdict
