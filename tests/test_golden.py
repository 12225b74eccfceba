"""Golden CLI output: every call below must print exactly the bytes in
``tests/golden/<name>.txt`` and end with the exit code it records.

The files pin the CSV and report text of ``theory``, ``simulate`` (per-symbol
and block mode), ``crossover`` and ``verify`` on parameter sets A, B and C,
plus the zero-interference and 120 dB SNR corners and a crossover whose
rates tie but for rounding. A change that means to alter this output
regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in its description which cells moved and why.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from impulsewf.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SETS = {"A": ["--snr-db", "0", "--mu-db", "0"],
        "B": ["--snr-db", "10", "--mu-db", "20"],
        "C": ["--snr-db", "0", "--mu-db", "20"]}

CALLS = {}
for _name, _link in SETS.items():
    CALLS[f"theory_{_name}"] = ["theory", *_link]
    CALLS[f"simulate_{_name}"] = ["simulate", *_link, "--symbols", "100000"]
    CALLS[f"simulate_block8_{_name}"] = ["simulate", *_link, "--symbols", "100000",
                                         "--mode", "block", "--block-len", "8"]
    CALLS[f"crossover_{_name}"] = ["crossover", *_link]
    CALLS[f"verify_{_name}"] = ["verify", *_link]
CALLS["theory_no_interference"] = ["theory", "--mu-db=-inf"]
CALLS["theory_snr120"] = ["theory", "--snr-db", "120"]
# Cutoff-solve rounding puts conservative a few ulps above aggressive here.
CALLS["crossover_tiny_inr"] = ["crossover", "--snr-db", "-100",
                               "--mu-db", "-158.9"]


def call(argv):
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def render(code, stdout):
    """Golden file text: the exit code on the first line, then stdout."""
    return f"exit={code}\n{stdout}"


@pytest.mark.parametrize("name", sorted(CALLS))
def test_output_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_bytes()
    assert render(*call(CALLS[name])).encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(CALLS.items()):
        (GOLDEN_DIR / f"{name}.txt").write_bytes(
            render(*call(argv)).encode("utf-8"))
        print(f"wrote {name}.txt", file=sys.stderr)
