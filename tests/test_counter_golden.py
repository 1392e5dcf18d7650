"""Counter-identity golden test over the full Table II corpus.

The deterministic counter families (optimizer moves, CostView event
replay, strash probes, transaction undo, node allocation) are pure
functions of the algorithm and its inputs — no
wall-clock, no machine dependence.  This test replays the whole-set
Table II flow at the effort and job count recorded in
``tests/data/table2_counters_golden.json`` and requires every counter
to match *exactly*.

Any drift fails tier-1.  If the change is intentional, refresh the
fixture with one command and review its diff like source:

    PYTHONPATH=src python benchmarks/refresh_counter_golden.py
"""

from __future__ import annotations

import json
import os

import pytest

FIXTURE = os.path.join(
    os.path.dirname(__file__), "data", "table2_counters_golden.json"
)


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def replayed_profile(golden):
    from repro.flows.bench import bench_table2

    return bench_table2(None, effort=golden["effort"], jobs=golden["jobs"])


def test_corpus_size_matches_fixture(golden, replayed_profile):
    assert replayed_profile["benchmarks"] == golden["benchmarks"]


def test_counters_identical(golden, replayed_profile):
    profile = replayed_profile["profile"]
    drifted = {}
    for key, expected in sorted(golden["counters"].items()):
        actual = profile.get(key, "<missing>")
        if actual != expected:
            drifted[key] = (expected, actual)
    assert not drifted, (
        "deterministic counter drift vs "
        "tests/data/table2_counters_golden.json "
        f"(expected, actual): {drifted} — if intentional, refresh via "
        "PYTHONPATH=src python benchmarks/refresh_counter_golden.py"
    )


def test_fixture_covers_every_counter_family(golden):
    """The fixture must pin at least one counter from each family the
    ledger gate watches — an empty or truncated fixture would make
    this test vacuous."""
    from repro.telemetry import DETERMINISTIC_COUNTER_KEYS

    missing = [
        key
        for key in DETERMINISTIC_COUNTER_KEYS
        if key not in golden["counters"]
    ]
    assert not missing, f"fixture missing counters: {missing}"
    assert golden["counters"]["moves_tried"] > 0
    assert golden["counters"]["events_replayed"] > 0
    assert golden["counters"]["tx_undo_replayed"] > 0
