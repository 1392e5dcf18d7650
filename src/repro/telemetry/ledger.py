"""Typed store over the ``BENCH_runtime.json`` perf ledger.

The ledger is append-only: ``bench`` entries, gate verdicts and
scale-tier counters.  This module is the read side:

* :func:`load_ledger` — parse the ledger into a :class:`Ledger`,
  collapsing byte-identical historical entries (re-running a bench
  twice on an unchanged tree must not skew the noise statistics);
* :class:`BaselineKey` / :meth:`Ledger.query` /
  :meth:`Ledger.baseline` — baseline selection keyed by the fields
  that actually partition the numbers (``kind``, ``effort``,
  ``machine``, ``jobs``);
* :func:`noise_band` — rolling-window median + MAD over historical
  wall-clocks, the robust statistics the wall-drift tier compares
  against;
* :func:`counter_drift` — exact comparison of the deterministic
  counter families (``moves_tried``, ``events_replayed``,
  ``strash_*``, ...).  These are machine-independent, so
  *any* unexplained change is algorithmic drift, not noise.

The write side stays where it always was
(:func:`repro.flows.bench.append_bench_entry`); new entries carry
``schema_version`` = :data:`BENCH_SCHEMA_VERSION` so readers can tell
normalized entries from historical ones.

See ``docs/OBSERVABILITY.md`` ("Observatory") for the prose contract.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

#: Version stamped into every new bench-ledger entry.  Version 1 is the
#: normalized schema (``kind``/``seconds``/``effort``, no explicit
#: marker); version 2 adds the marker itself.  ``trace-report
#: --validate`` accepts both.  Historical entries may carry fields
#: later versions dropped (a storage-engine name); readers ignore them.
BENCH_SCHEMA_VERSION = 2

#: Ledger entry schema versions ``validate_bench_ledger`` accepts.
ACCEPTED_BENCH_SCHEMA_VERSIONS = (1, BENCH_SCHEMA_VERSION)

#: Counter families that are pure functions of the algorithm and its
#: inputs — independent of machine speed, load, and wall-clock.  Any
#: change against a baseline measured at the same (kind, effort) key
#: is algorithmic drift and fails the counter tier of the
#: regression gate exactly; there is no noise band to hide in.
DETERMINISTIC_COUNTER_KEYS = (
    # Optimizer move accounting.
    "moves_tried",
    "moves_accepted",
    "predicted_skips",
    # CostView incremental maintenance.
    "events_replayed",
    "full_recomputes",
    "delta_updates",
    "cache_hits",
    # Structural hashing.
    "strash_hits",
    "strash_misses",
    # Transaction engine.
    "tx_checkpoints",
    "tx_rollbacks",
    "tx_undo_replayed",
    # Node allocation.
    "nodes_allocated",
    "compactions",
)

#: 1.4826 scales the median absolute deviation to the standard
#: deviation of a normal distribution; 3 of those is the conventional
#: "outside the noise" threshold.
MAD_SIGMA = 1.4826
MAD_K = 3.0


class LedgerError(ValueError):
    """The ledger file exists but cannot be used as one."""


# ----------------------------------------------------------------------
# Robust statistics
# ----------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    """Plain median (no statistics import: keeps worker cost nil)."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float], center: Optional[float] = None) -> float:
    """Median absolute deviation around ``center`` (default: median)."""
    if not values:
        raise ValueError("mad of empty sequence")
    middle = median(values) if center is None else center
    return median([abs(value - middle) for value in values])


@dataclass(frozen=True)
class NoiseBand:
    """Rolling-window noise statistics of one wall-clock series."""

    median: float
    mad: float
    count: int
    values: tuple = ()

    def upper(self, slack: float = 2.0) -> float:
        """The regression threshold: median + max(3·1.4826·MAD,
        slack·median).

        The MAD term is the statistical band; the relative ``slack``
        floor absorbs reference-box vs CI-runner speed differences
        (slack 2.0 == a 3× budget), so a sparsely populated ledger does not
        produce a zero-width band that fails every other machine.
        """
        return self.median + max(MAD_K * MAD_SIGMA * self.mad,
                                 slack * self.median)

    def classify(self, seconds: float, slack: float = 2.0) -> str:
        """``ok`` | ``slow`` for one measured wall-clock."""
        return "slow" if seconds > self.upper(slack) else "ok"


def noise_band(
    values: Sequence[float], *, window: int = 8
) -> Optional[NoiseBand]:
    """Band over the last ``window`` values, or None when empty."""
    tail = [float(v) for v in values][-max(1, window):]
    if not tail:
        return None
    center = median(tail)
    return NoiseBand(
        median=center, mad=mad(tail, center), count=len(tail),
        values=tuple(tail),
    )


# ----------------------------------------------------------------------
# Baseline selection
# ----------------------------------------------------------------------

#: Wildcard for BaselineKey fields ("do not filter on this field").
ANY = object()


@dataclass(frozen=True)
class BaselineKey:
    """What partitions ledger numbers into comparable series.

    ``kind`` is always required.  The remaining fields default to
    :data:`ANY` (no filtering); pass a concrete value — including
    ``None``, which some entries legitimately record for ``effort`` —
    to restrict the series.  ``machine`` and ``jobs`` matter for
    wall-clocks only; counter comparisons should leave them at ANY.
    """

    kind: str
    effort: Any = ANY
    machine: Any = ANY
    jobs: Any = ANY

    def matches(self, entry: Mapping[str, Any]) -> bool:
        if entry.get("kind") != self.kind:
            return False
        for field_name in ("effort", "machine", "jobs"):
            wanted = getattr(self, field_name)
            if wanted is not ANY and entry.get(field_name) != wanted:
                return False
        return True

    def describe(self) -> str:
        parts = [f"kind={self.kind}"]
        for field_name in ("effort", "machine", "jobs"):
            wanted = getattr(self, field_name)
            if wanted is not ANY:
                parts.append(f"{field_name}={wanted}")
        return " ".join(parts)


# ----------------------------------------------------------------------
# The ledger itself
# ----------------------------------------------------------------------


@dataclass
class Ledger:
    """Parsed ``BENCH_runtime.json`` with query/baseline helpers.

    ``entries`` preserves append order (oldest first) with
    byte-identical duplicates collapsed; ``duplicates_dropped`` counts
    how many were removed so reports can surface the dedupe.
    """

    path: str
    data: Dict[str, Any] = field(default_factory=dict)
    entries: List[Dict[str, Any]] = field(default_factory=list)
    duplicates_dropped: int = 0

    def query(self, key: BaselineKey) -> List[Dict[str, Any]]:
        """All matching entries, oldest first."""
        return [entry for entry in self.entries if key.matches(entry)]

    def baseline(self, key: BaselineKey) -> Optional[Dict[str, Any]]:
        """The most recent matching entry (None when the series is
        empty) — "latest wins" is the refresh contract: append a new
        entry after an intentional perf change and it becomes the
        baseline."""
        matches = self.query(key)
        return matches[-1] if matches else None

    def seconds_series(
        self, key: BaselineKey, *, field_name: str = "seconds"
    ) -> List[float]:
        """The numeric ``field_name`` series of matching entries,
        oldest first, skipping entries without a numeric value."""
        series = []
        for entry in self.query(key):
            value = entry.get(field_name)
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                series.append(float(value))
        return series

    def band(
        self,
        key: BaselineKey,
        *,
        field_name: str = "seconds",
        window: int = 8,
    ) -> Optional[NoiseBand]:
        return noise_band(
            self.seconds_series(key, field_name=field_name), window=window
        )


def dedupe_entries(
    entries: Iterable[Any],
) -> "tuple[List[Dict[str, Any]], int]":
    """Collapse byte-identical entries, keeping first occurrences.

    "Byte-identical" means identical canonical JSON (sorted keys) —
    the entry a re-run of an unchanged tree appends is exactly the
    entry already there, and counting it twice would fake a tighter
    noise band than the history supports.
    """
    seen = set()
    kept: List[Dict[str, Any]] = []
    dropped = 0
    for entry in entries:
        try:
            fingerprint = json.dumps(entry, sort_keys=True)
        except (TypeError, ValueError):
            fingerprint = repr(entry)
        if fingerprint in seen:
            dropped += 1
            continue
        seen.add(fingerprint)
        if isinstance(entry, dict):
            kept.append(entry)
    return kept, dropped


def load_ledger(path: str) -> Ledger:
    """Parse ``path`` into a :class:`Ledger`; raises :class:`LedgerError`
    on a missing/empty/non-ledger file (callers map this to exit 2)."""
    if not os.path.exists(path):
        raise LedgerError(f"{path}: no such ledger file")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise LedgerError(f"{path}: {exc}") from exc
    if not text.strip():
        raise LedgerError(f"{path}: empty ledger file")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LedgerError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(
        data.get("entries"), list
    ):
        raise LedgerError(
            f"{path}: not a bench ledger (expected an object with an "
            "'entries' list)"
        )
    entries, dropped = dedupe_entries(data["entries"])
    return Ledger(
        path=path, data=data, entries=entries, duplicates_dropped=dropped
    )


# ----------------------------------------------------------------------
# Counter drift (the deterministic tier)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CounterDrift:
    """One deterministic counter that moved against its baseline."""

    name: str
    baseline: Any
    current: Any

    def describe(self) -> str:
        return f"{self.name}: baseline {self.baseline} -> {self.current}"


def counter_drift(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
    keys: Sequence[str] = DETERMINISTIC_COUNTER_KEYS,
) -> List[CounterDrift]:
    """Exact comparison over the deterministic counter families.

    Only keys the *baseline* records are compared (historical entries
    predate some counters); a key the baseline has but the current run
    lost is drift too — a counter silently disappearing is exactly the
    kind of instrumentation rot the gate exists to catch.
    """
    drifts: List[CounterDrift] = []
    for key in keys:
        if key not in baseline:
            continue
        if key not in current:
            drifts.append(CounterDrift(key, baseline[key], "<missing>"))
        elif current[key] != baseline[key]:
            drifts.append(CounterDrift(key, baseline[key], current[key]))
    return drifts
