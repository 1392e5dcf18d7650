"""The telemetry contract: metric catalog and trace-record schema.

This module is the single source of truth for

* **metric names** — every name the instrumented code registers is
  listed in :data:`KNOWN_METRICS` / :data:`KNOWN_HISTOGRAMS` /
  :data:`KNOWN_METRIC_PREFIXES`.  CI validates emitted snapshots
  against the catalog and fails on unknown names, so counters cannot
  silently drift away from the documentation;
* **legacy profile keys** — the pre-telemetry ``--profile`` dicts used
  bare keys (``full_recomputes``, ``oracle``); those stay on the wire
  (pool workers sum them key-wise) and :func:`canonical_profile` maps
  them to catalog names at the rendering/registry boundary;
* **trace records** — the JSONL schema of ``--trace`` files
  (``meta`` / ``span`` / ``trajectory`` / ``metrics`` records),
  enforced by :func:`validate_record`.

See ``docs/OBSERVABILITY.md`` for the prose version of this contract.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from .registry import HISTOGRAM_SUFFIXES, NAME_RE

#: Trace schema version stamped into every ``meta`` record.
SCHEMA_VERSION = 1

# ----------------------------------------------------------------------
# Metric catalog
# ----------------------------------------------------------------------

#: Legacy per-run profile key → canonical registry metric name.
LEGACY_PROFILE_NAMES: Dict[str, str] = {
    # CostView incremental-maintenance counters.
    "full_recomputes": "costview.full_recomputes",
    "delta_updates": "costview.delta_updates",
    "cache_hits": "costview.cache_hits",
    "events_replayed": "costview.events_replayed",
    # Optimizer move accounting.
    "moves_tried": "optimizer.moves_tried",
    "moves_accepted": "optimizer.moves_accepted",
    "predicted_skips": "optimizer.predicted_skips",
    # Mig transaction-engine / structural-hashing counters.
    "tx_checkpoints": "mig.tx_checkpoints",
    "tx_rollbacks": "mig.tx_rollbacks",
    "tx_undo_replayed": "mig.tx_undo_replayed",
    "strash_hits": "mig.strash_hits",
    "strash_misses": "mig.strash_misses",
    # Graph node-allocation gauges.
    "compactions": "graph.compactions",
    "nodes_allocated": "graph.nodes_allocated",
    # Fuzz campaign stage wall-clocks (seconds).
    "generate": "fuzz.stage_seconds.generate",
    "oracle": "fuzz.stage_seconds.oracle",
    "faults": "fuzz.stage_seconds.faults",
    "shrink": "fuzz.stage_seconds.shrink",
}

#: Exact counter/gauge names the instrumented code registers.
KNOWN_METRICS = frozenset(
    set(LEGACY_PROFILE_NAMES.values())
    | {
        # Decomposition-engine NPN recipe cache.
        "resynth.npn_cache_hits",
        "resynth.npn_cache_misses",
        # Cut rewriting.
        "rewrite.rounds",
        "rewrite.substitutions",
        "rewrite.rollbacks",
        # Annealing complement placement.
        "anneal.realized",
        "anneal.rejected",
        # Deterministic scheduler (parent-side).
        "parallel.tasks_completed",
        # Fuzz campaign (parent-side).
        "fuzz.cases",
        # RRAM backends.
        "rram.compile.programs",
        "rram.plim.programs",
        # Crossbar mapping.
        "crossbar.mapped_programs",
        # Observatory gate wall-clock (gauge, seconds).
        "obs.gate_seconds",
    }
)

#: Histogram base names (snapshots expand to ``.count/.total/.min/.max``).
KNOWN_HISTOGRAMS = frozenset(
    {
        "rram.compile.measured_steps",
        "rram.compile.measured_devices",
        "rram.plim.instructions",
        "rram.plim.devices",
        "crossbar.parallel_steps",
        "crossbar.step_ratio",
        "crossbar.utilization",
        "bench.flow_seconds",
    }
)

#: Families with dynamic last segments (per-stage timings and the like).
KNOWN_METRIC_PREFIXES = (
    "fuzz.stage_seconds.",
    "report.stage_seconds.",
)

#: Metric families whose values are pure functions of the algorithm and
#: its inputs — identical across machines, job counts, and runs.  The
#: differential trace comparison (``trace-report --compare``) fails on
#: any delta here and merely *reports* deltas elsewhere (wall-clocks
#: legitimately differ between runs).
DETERMINISTIC_METRIC_PREFIXES = (
    "costview.",
    "optimizer.",
    "mig.",
    "graph.",
    "resynth.",
    "rewrite.",
    "anneal.",
    "rram.",
    "crossbar.",
)

#: Exact deterministic names outside the prefix families.
DETERMINISTIC_METRICS = frozenset(
    {"fuzz.cases", "parallel.tasks_completed"}
)


def deterministic_metric(name: str) -> bool:
    """Is ``name`` (a snapshot key) machine-independent by contract?"""
    return name in DETERMINISTIC_METRICS or name.startswith(
        DETERMINISTIC_METRIC_PREFIXES
    )


def canonical_profile(profile: Mapping[str, Any]) -> Dict[str, Any]:
    """Map a legacy profile dict onto catalog names (unknown keys pass
    through unchanged — they are caught by validation, not mangled)."""
    return {
        LEGACY_PROFILE_NAMES.get(key, key): value
        for key, value in profile.items()
    }


def metric_name_known(name: str) -> bool:
    """Is ``name`` (a snapshot key) covered by the catalog?"""
    if name in KNOWN_METRICS:
        return True
    for suffix in HISTOGRAM_SUFFIXES:
        if name.endswith(suffix) and name[: -len(suffix)] in KNOWN_HISTOGRAMS:
            return True
    return name.startswith(KNOWN_METRIC_PREFIXES)


def validate_metric_names(snapshot: Mapping[str, Any]) -> List[str]:
    """Catalog check for one flat snapshot; returns error strings."""
    errors = []
    for name in sorted(snapshot):
        if not isinstance(name, str) or not NAME_RE.match(name):
            errors.append(f"malformed metric name {name!r}")
        elif not metric_name_known(name):
            errors.append(
                f"unknown metric name {name!r} — add it to "
                "repro.telemetry.schema (and docs/OBSERVABILITY.md) "
                "or fix the instrumentation site"
            )
        value = snapshot[name]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append(f"metric {name!r}: non-numeric value {value!r}")
    return errors


# ----------------------------------------------------------------------
# Trace-record schema
# ----------------------------------------------------------------------

#: record type → {field: allowed types}; all fields are required.
_RECORD_FIELDS: Dict[str, Dict[str, tuple]] = {
    "meta": {
        "schema_version": (int,),
        "command": (str,),
    },
    "span": {
        "name": (str,),
        "span_id": (int,),
        "parent_id": (int, type(None)),
        "start_s": (int, float),
        "dur_s": (int, float),
    },
    "trajectory": {
        "iteration": (int,),
        "rule": (str,),
        "accepted": (bool,),
        "r": (int,),
        "s": (int,),
        "depth": (int,),
        "size": (int,),
        "complemented_edges": (int,),
        "realization": (str,),
    },
    "metrics": {
        "metrics": (dict,),
    },
}

#: Optional fields per record type.
_RECORD_OPTIONAL: Dict[str, Dict[str, tuple]] = {
    "meta": {"args": (dict,), "created_unix": (int, float)},
    "span": {"attrs": (dict,)},
    "trajectory": {},
    "metrics": {},
}

TRACE_RECORD_TYPES = frozenset(_RECORD_FIELDS)


def validate_record(record: Any) -> List[str]:
    """Validate one parsed JSONL record; returns error strings."""
    if not isinstance(record, dict):
        return [f"record is not an object: {record!r}"]
    kind = record.get("type")
    if kind not in _RECORD_FIELDS:
        return [f"unknown record type {kind!r}"]
    errors: List[str] = []
    required = _RECORD_FIELDS[kind]
    optional = _RECORD_OPTIONAL[kind]
    for field, types in required.items():
        if field not in record:
            errors.append(f"{kind} record missing field {field!r}")
        elif not isinstance(record[field], types) or (
            bool not in types and isinstance(record[field], bool)
        ):
            errors.append(
                f"{kind} record field {field!r}: bad value "
                f"{record[field]!r}"
            )
    for field in record:
        if field == "type":
            continue
        if field not in required and field not in optional:
            errors.append(f"{kind} record has unknown field {field!r}")
        elif field in optional and not isinstance(
            record[field], optional[field]
        ):
            errors.append(
                f"{kind} record field {field!r}: bad value "
                f"{record[field]!r}"
            )
    if kind == "metrics" and isinstance(record.get("metrics"), dict):
        errors.extend(validate_metric_names(record["metrics"]))
    if kind == "meta" and record.get("schema_version") not in (
        None,
        SCHEMA_VERSION,
    ):
        errors.append(
            f"unsupported schema_version {record.get('schema_version')!r}"
        )
    return errors
