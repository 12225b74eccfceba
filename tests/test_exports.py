"""Export surface: every exported name exists, once, in some module's list,
and the package exports exactly the names listed here."""

import importlib

import pytest

import impulsewf

MODULES = ["adaptation", "channel", "cli", "numerics", "simulate"]

# Adding or removing a public name means editing this list.
PACKAGE_NAMES = [
    "ChannelParams",
    "ConvergenceError",
    "ErrorModel",
    "Policy",
    "Scheme",
    "SimConfig",
    "SimMode",
    "SimResult",
    "crossover",
    "cutoff_rows",
    "db_to_linear",
    "make_policies",
    "make_policy",
    "policy_law",
    "sample_fading",
    "simulate_policy",
    "solve_cutoffs",
]


def test_package_surface_is_pinned():
    assert sorted(impulsewf.__all__) == PACKAGE_NAMES


@pytest.mark.parametrize("name",
                         ["impulsewf"] + [f"impulsewf.{m}" for m in MODULES])
def test_all_names_exist_once(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(module.__all__) == len(set(module.__all__))


def test_package_names_come_from_module_lists():
    exported = set()
    for short in MODULES:
        exported |= set(importlib.import_module(f"impulsewf.{short}").__all__)
    assert sorted(set(impulsewf.__all__) - exported) == []


def test_simulate_is_the_module():
    assert importlib.import_module("impulsewf.simulate") is impulsewf.simulate
