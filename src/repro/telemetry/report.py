"""Rendering: the unified ``--profile`` formatter and ``trace-report``.

Historically each CLI subcommand grew its own profile dump (`synth`
printed a fixed key list, `table2` sorted a merged dict, `fuzz` printed
seconds per stage with yet another alignment).  :func:`render_profile`
replaces all of them: canonical catalog names, sorted, stable widths,
so goldens diff cleanly across subcommands.

:func:`render_trace_report` turns a ``--trace`` JSONL file into the
human summary the ``trace-report`` subcommand prints: per-pass
time breakdown, the R/S trajectory timeline per rule, and the top-N
slowest spans.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .ledger import ACCEPTED_BENCH_SCHEMA_VERSIONS
from .schema import (
    canonical_profile,
    deterministic_metric,
    validate_metric_names,
    validate_record,
)


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def render_profile(
    profile: Optional[Mapping[str, Any]],
    *,
    title: str,
    canonicalize: bool = True,
) -> str:
    """The one profile format: header plus sorted ``name : value`` rows.

    ``canonicalize`` maps legacy per-run keys (``full_recomputes``)
    onto catalog names (``costview.full_recomputes``); pass ``False``
    when the caller already speaks canonical names.
    """
    if not profile:
        return f"profile      : (no {title} recorded)"
    flat = canonical_profile(profile) if canonicalize else dict(profile)
    width = max(len(name) for name in flat)
    lines = [f"profile      : {title}"]
    for name in sorted(flat):
        lines.append(f"  {name:<{width}s} : {_format_value(flat[name])}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Trace loading / validation
# ----------------------------------------------------------------------


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file; raises ``ValueError`` on bad JSON."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}")
    return records


def validate_trace(records: Iterable[Any]) -> List[str]:
    """Validate every record; returns ``line N: ...`` error strings.

    ``metrics`` records additionally have every snapshot key checked
    against the catalog in :mod:`repro.telemetry.schema` — an unknown
    metric name is a schema violation, so instrumentation drift fails
    ``trace-report --validate`` (and CI) instead of passing silently.
    """
    errors = []
    for index, record in enumerate(records, start=1):
        record_errors = validate_record(record)
        if (
            not record_errors
            and isinstance(record, dict)
            and record.get("type") == "metrics"
        ):
            record_errors = validate_metric_names(record["metrics"])
        for error in record_errors:
            errors.append(f"record {index}: {error}")
    return errors


# ----------------------------------------------------------------------
# Bench-ledger validation (BENCH_runtime.json)
# ----------------------------------------------------------------------

#: Keys every bench-ledger entry must carry, whatever its kind — the
#: normalized schema ``repro.flows.bench`` stamps via ``_entry_common``
#: (``effort`` may be None for flows without the knob, but the key must
#: exist so entries stay diffable/comparable across kinds).
BENCH_ENTRY_REQUIRED_KEYS = ("kind", "seconds", "effort")


def load_bench_ledger(path: str) -> Optional[Dict[str, Any]]:
    """Parse ``path`` as a bench ledger, or None when it isn't one.

    A ledger is a single JSON object with an ``entries`` list (the
    ``BENCH_runtime.json`` shape) — distinct from a JSONL trace, whose
    first line is a complete JSON record.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if isinstance(data, dict) and isinstance(data.get("entries"), list):
        return data
    return None


def validate_bench_ledger(data: Mapping[str, Any]) -> List[str]:
    """Flag ledger entries missing the normalized key set."""
    errors: List[str] = []
    entries = data.get("entries")
    if not isinstance(entries, list):
        return ["'entries' is missing or not a list"]
    for index, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict):
            errors.append(f"entry {index}: not an object")
            continue
        missing = [
            key for key in BENCH_ENTRY_REQUIRED_KEYS if key not in entry
        ]
        kind = entry.get("kind", "?")
        if missing:
            errors.append(
                f"entry {index} (kind={kind}): missing required "
                f"key(s) {', '.join(missing)}"
            )
        # Entries written before the marker existed are implicitly
        # version 1; both accepted versions validate identically today.
        version = entry.get("schema_version", 1)
        if version not in ACCEPTED_BENCH_SCHEMA_VERSIONS:
            errors.append(
                f"entry {index} (kind={kind}): unsupported "
                f"schema_version {version!r} (accepted: "
                f"{', '.join(str(v) for v in ACCEPTED_BENCH_SCHEMA_VERSIONS)})"
            )
    return errors


# ----------------------------------------------------------------------
# trace-report rendering
# ----------------------------------------------------------------------


def summarize_spans(
    records: Iterable[Mapping[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Aggregate span records by name → calls/total/max duration."""
    by_name: Dict[str, Dict[str, Any]] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        entry = by_name.setdefault(
            record["name"], {"calls": 0, "total_s": 0.0, "max_s": 0.0}
        )
        entry["calls"] += 1
        entry["total_s"] += record["dur_s"]
        entry["max_s"] = max(entry["max_s"], record["dur_s"])
    return by_name


def summarize_trajectory(
    records: Iterable[Mapping[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Aggregate trajectory records by rule → tried/accepted plus the
    R/S values after the rule's last accepted snapshot."""
    by_rule: Dict[str, Dict[str, Any]] = {}
    for record in records:
        if record.get("type") != "trajectory":
            continue
        entry = by_rule.setdefault(
            record["rule"],
            {"tried": 0, "accepted": 0, "last_r": None, "last_s": None},
        )
        entry["tried"] += 1
        if record["accepted"]:
            entry["accepted"] += 1
            entry["last_r"] = record["r"]
            entry["last_s"] = record["s"]
    return by_rule


def render_trace_report(
    records: List[Dict[str, Any]], *, top: int = 5
) -> str:
    """Human summary of one trace: counts, per-pass time, trajectory
    timeline per rule, top-N slowest spans."""
    spans = [r for r in records if r.get("type") == "span"]
    trajectory = [r for r in records if r.get("type") == "trajectory"]
    metrics = [r for r in records if r.get("type") == "metrics"]
    meta = next((r for r in records if r.get("type") == "meta"), None)

    lines: List[str] = []
    if meta is not None:
        lines.append(f"command      : {meta.get('command', '?')}")
    lines.append(
        f"records      : {len(records)} "
        f"(spans {len(spans)}, trajectory {len(trajectory)}, "
        f"metrics {len(metrics)})"
    )

    if spans:
        by_name = summarize_spans(spans)
        width = max(len(name) for name in by_name)
        lines.append("")
        lines.append("per-pass time:")
        lines.append(
            f"  {'span':<{width}s}  {'calls':>6s}  {'total_s':>9s}  "
            f"{'mean_s':>9s}  {'max_s':>9s}"
        )
        for name in sorted(
            by_name, key=lambda n: (-by_name[n]["total_s"], n)
        ):
            entry = by_name[name]
            mean = entry["total_s"] / entry["calls"]
            lines.append(
                f"  {name:<{width}s}  {entry['calls']:>6d}  "
                f"{entry['total_s']:>9.4f}  {mean:>9.4f}  "
                f"{entry['max_s']:>9.4f}"
            )

    if trajectory:
        realization = trajectory[-1].get("realization", "?")
        accepted = sum(1 for r in trajectory if r["accepted"])
        lines.append("")
        lines.append(
            f"trajectory   : {len(trajectory)} snapshots, "
            f"{accepted} accepted (realization={realization})"
        )
        by_rule = summarize_trajectory(trajectory)
        width = max(len(rule) for rule in by_rule)
        lines.append(
            f"  {'rule':<{width}s}  {'tried':>6s}  {'accepted':>8s}  "
            f"{'R_after':>8s}  {'S_after':>8s}"
        )
        for rule in sorted(by_rule):
            entry = by_rule[rule]
            r_after = "-" if entry["last_r"] is None else str(entry["last_r"])
            s_after = "-" if entry["last_s"] is None else str(entry["last_s"])
            lines.append(
                f"  {rule:<{width}s}  {entry['tried']:>6d}  "
                f"{entry['accepted']:>8d}  {r_after:>8s}  {s_after:>8s}"
            )
        first, last = trajectory[0], trajectory[-1]
        lines.append(
            f"  R {first['r']} -> {last['r']}, "
            f"S {first['s']} -> {last['s']}, "
            f"depth {first['depth']} -> {last['depth']}, "
            f"size {first['size']} -> {last['size']}"
        )

    if spans and top > 0:
        slowest: List[Tuple[float, Dict[str, Any]]] = sorted(
            ((record["dur_s"], record) for record in spans),
            key=lambda pair: (-pair[0], pair[1]["span_id"]),
        )[:top]
        lines.append("")
        lines.append(f"top {len(slowest)} slowest spans:")
        for rank, (dur, record) in enumerate(slowest, start=1):
            lines.append(
                f"  {rank}. {record['name']} "
                f"(span {record['span_id']}) "
                f"start={record['start_s']:.4f}s dur={dur:.4f}s"
            )

    if metrics:
        lines.append("")
        lines.append(
            render_profile(
                metrics[-1].get("metrics", {}),
                title="final metrics snapshot",
                canonicalize=False,
            )
        )

    return "\n".join(lines)


# ----------------------------------------------------------------------
# Differential trace comparison (trace-report --compare)
# ----------------------------------------------------------------------

#: Trajectory fields that must agree trial-for-trial between two runs
#: of the same deterministic flow (timings are deliberately absent).
_TRAJECTORY_KEYS = (
    "iteration",
    "rule",
    "accepted",
    "r",
    "s",
    "depth",
    "size",
    "complemented_edges",
    "realization",
)


def _final_metrics(records: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    snapshot: Dict[str, Any] = {}
    for record in records:
        if record.get("type") == "metrics":
            snapshot = dict(record.get("metrics", {}) or {})
    return snapshot


def compare_traces(
    a_records: List[Dict[str, Any]], b_records: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Structured differential of two traces.

    Returns a dict with three sections:

    * ``spans`` — per-name (calls, total_s) for both sides plus the
      delta, sorted by absolute time delta (span *timings* always
      differ between runs; they are reported, never failed on);
    * ``metrics`` — final-snapshot deltas split into ``deterministic``
      (machine-independent counters: any delta is divergence) and
      ``timing`` (wall-clock-valued: informational);
    * ``trajectory`` — the first trial where the two runs' R/S paths
      diverge (or None), plus a count mismatch if one run recorded
      more trials.

    ``diverged`` is True iff a deterministic counter or the trajectory
    differs — the machine-independent definition of "these two runs did
    not do the same work".
    """
    a_spans = summarize_spans(a_records)
    b_spans = summarize_spans(b_records)
    span_rows = []
    for name in sorted(set(a_spans) | set(b_spans)):
        a_entry = a_spans.get(name, {"calls": 0, "total_s": 0.0})
        b_entry = b_spans.get(name, {"calls": 0, "total_s": 0.0})
        span_rows.append(
            {
                "name": name,
                "a_calls": a_entry["calls"],
                "b_calls": b_entry["calls"],
                "a_total_s": a_entry["total_s"],
                "b_total_s": b_entry["total_s"],
                "delta_s": b_entry["total_s"] - a_entry["total_s"],
            }
        )
    span_rows.sort(key=lambda row: (-abs(row["delta_s"]), row["name"]))

    a_metrics = _final_metrics(a_records)
    b_metrics = _final_metrics(b_records)
    deterministic_deltas = []
    timing_deltas = []
    for name in sorted(set(a_metrics) | set(b_metrics)):
        a_value = a_metrics.get(name)
        b_value = b_metrics.get(name)
        if a_value == b_value:
            continue
        row = {"name": name, "a": a_value, "b": b_value}
        if deterministic_metric(name):
            deterministic_deltas.append(row)
        else:
            timing_deltas.append(row)

    a_trajectory = [r for r in a_records if r.get("type") == "trajectory"]
    b_trajectory = [r for r in b_records if r.get("type") == "trajectory"]
    first_divergence = None
    for index, (a_rec, b_rec) in enumerate(
        zip(a_trajectory, b_trajectory)
    ):
        if any(
            a_rec.get(key) != b_rec.get(key) for key in _TRAJECTORY_KEYS
        ):
            first_divergence = {
                "trial": index,
                "a": {key: a_rec.get(key) for key in _TRAJECTORY_KEYS},
                "b": {key: b_rec.get(key) for key in _TRAJECTORY_KEYS},
            }
            break
    trajectory = {
        "a_trials": len(a_trajectory),
        "b_trials": len(b_trajectory),
        "first_divergence": first_divergence,
    }
    diverged = bool(
        deterministic_deltas
        or first_divergence is not None
        or len(a_trajectory) != len(b_trajectory)
    )
    return {
        "spans": span_rows,
        "metrics": {
            "deterministic": deterministic_deltas,
            "timing": timing_deltas,
        },
        "trajectory": trajectory,
        "diverged": diverged,
    }


def render_trace_compare(
    comparison: Mapping[str, Any],
    *,
    a_label: str,
    b_label: str,
    top: int = 10,
) -> str:
    """Human rendering of :func:`compare_traces`."""
    lines = [f"compare      : A={a_label}  B={b_label}"]

    span_rows = comparison["spans"]
    if span_rows:
        shown = span_rows[: max(0, top)] if top else span_rows
        width = max(len(row["name"]) for row in shown)
        lines.append("")
        lines.append(
            f"span-tree differential (top {len(shown)} by |time delta|):"
        )
        lines.append(
            f"  {'span':<{width}s}  {'A calls':>7s}  {'B calls':>7s}  "
            f"{'A total_s':>9s}  {'B total_s':>9s}  {'delta_s':>8s}"
        )
        for row in shown:
            lines.append(
                f"  {row['name']:<{width}s}  {row['a_calls']:>7d}  "
                f"{row['b_calls']:>7d}  {row['a_total_s']:>9.4f}  "
                f"{row['b_total_s']:>9.4f}  {row['delta_s']:>+8.4f}"
            )

    metric_deltas = comparison["metrics"]
    lines.append("")
    if metric_deltas["deterministic"]:
        lines.append("deterministic counter divergence:")
        for row in metric_deltas["deterministic"]:
            lines.append(f"  {row['name']}: A={row['a']}  B={row['b']}")
    else:
        lines.append("deterministic counters: identical")
    if metric_deltas["timing"]:
        lines.append("timing metric deltas (informational):")
        for row in metric_deltas["timing"]:
            lines.append(f"  {row['name']}: A={row['a']}  B={row['b']}")

    trajectory = comparison["trajectory"]
    lines.append("")
    if trajectory["a_trials"] == 0 and trajectory["b_trials"] == 0:
        lines.append("trajectory   : no trajectory records in either trace")
    elif trajectory["first_divergence"] is not None:
        divergence = trajectory["first_divergence"]
        a_rec, b_rec = divergence["a"], divergence["b"]
        lines.append(
            f"trajectory   : diverges at trial {divergence['trial']}"
        )
        for label, rec in (("A", a_rec), ("B", b_rec)):
            lines.append(
                f"  {label}: rule={rec['rule']} accepted={rec['accepted']} "
                f"R={rec['r']} S={rec['s']} depth={rec['depth']} "
                f"size={rec['size']}"
            )
    elif trajectory["a_trials"] != trajectory["b_trials"]:
        lines.append(
            f"trajectory   : common prefix identical, but A recorded "
            f"{trajectory['a_trials']} trials vs B "
            f"{trajectory['b_trials']}"
        )
    else:
        lines.append(
            f"trajectory   : identical ({trajectory['a_trials']} trials)"
        )

    lines.append("")
    lines.append(
        "verdict      : "
        + ("DIVERGED" if comparison["diverged"] else "IDENTICAL")
    )
    return "\n".join(lines)
