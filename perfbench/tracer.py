"""Timing wrappers installed from outside the program.

The benchmark does not instrument ``repro``: in a traced run it
replaces public module globals and methods of the concrete classes with
wrappers that time each call, then puts the originals back.  Nested
wrapped calls are charged to their caller's child time, so every
wrapped name gets ``busy_s`` (inclusive, outermost calls only),
``self_s`` (busy minus wrapped children) and ``calls``.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple


@dataclass
class SpanStats:
    """Accumulated timing of one wrapped name."""

    busy_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    truthy: int = 0
    active: int = 0  # recursion depth, so busy_s counts outermost calls only


class Tracer:
    """Installs timing wrappers and accumulates per-name statistics."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {}
        self._child: List[float] = []  # child time of each open span
        self._restore: List[Tuple[Any, str, Any, bool]] = []
        self._wrapped_classes: set = set()

    def stat(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def _wrap(self, name: str, func: Callable, truthy: bool = False) -> Callable:
        stats = self.stat(name)
        child = self._child
        clock = time.perf_counter

        @functools.wraps(func)
        def timed(*args, **kwargs):
            child.append(0.0)
            stats.active += 1
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.active -= 1
                stats.self_s += elapsed - child.pop()
                if not stats.active:
                    stats.busy_s += elapsed
                stats.calls += 1
                if child:
                    child[-1] += elapsed
            if truthy and result:
                stats.truthy += 1
            return result

        return timed

    def patch(
        self, owner: Any, attr: str, name: str, truthy: bool = False
    ) -> None:
        """Replace ``owner.attr`` (a module global or a plain method) by
        a timed wrapper recorded under ``name``; ``truthy`` also counts
        calls that return a true value.  Missing attributes are skipped,
        so a layer a later version removes reads as 0 calls."""
        try:
            original = inspect.getattr_static(owner, attr)
        except AttributeError:
            return
        if not inspect.isfunction(original):
            return
        own = attr in vars(owner)
        setattr(owner, attr, self._wrap(name, original, truthy))
        self._restore.append((owner, attr, original, own))

    def patch_class(self, cls: type, methods: Dict[str, str]) -> None:
        """Wrap ``methods`` (attribute → metric name) on ``cls`` once."""
        if cls in self._wrapped_classes:
            return
        self._wrapped_classes.add(cls)
        for attr, name in methods.items():
            self.patch(cls, attr, name)

    def span(self, name: str, func: Callable, *args, **kwargs):
        """Time one call made by the benchmark itself under ``name``."""
        return self._wrap(name, func)(*args, **kwargs)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._restore:
            owner, attr, original, own = self._restore.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._wrapped_classes.clear()


    def saw_mig(self, mig: Any) -> None:
        """Wrap the graph methods of ``mig``'s concrete class."""
        self.patch_class(type(mig), GRAPH_METHODS)


class NullTracer:
    """The untraced run: calls go straight through."""

    def span(self, name: str, func: Callable, *args, **kwargs):
        return func(*args, **kwargs)

    def saw_mig(self, mig: Any) -> None:
        return None


# ----------------------------------------------------------------------
# The layers: what is wrapped, and the per-layer metrics read from it
# ----------------------------------------------------------------------

#: ``repro.mig.algorithms`` globals: the four drivers and the passes.
OPT_DRIVERS = {
    "optimize_area": "opt.area",
    "optimize_depth": "opt.depth",
    "optimize_rram": "opt.rram",
    "optimize_steps": "opt.steps",
}
OPT_PASSES = {
    "push_up": "opt.push_up",
    "inverter_propagation_pass": "opt.inverter_propagation",
    "clear_complemented_levels": "opt.clear_complemented_levels",
    "reshape": "opt.reshape",
    "eliminate": "opt.eliminate",
}
GRAPH_METHODS = {
    name: f"graph.{name}"
    for name in (
        "substitute", "cone_nodes", "reachable_nodes", "clone", "make_maj",
        "checkpoint", "commit", "rollback", "compact",
    )
}
COSTVIEW_METHODS = {
    name: f"costview.{name}"
    for name in (
        "size_depth", "levels", "stats", "costs", "reachable", "heights",
        "predict_flip_group",
    )
}
#: ``repro.crossbar.mapping`` globals; ``map_program`` itself is timed
#: where the benchmark calls it.
CROSSBAR_FUNCTIONS = {
    name: f"crossbar.{name}"
    for name in (
        "fit_array", "place_greedy", "refine_placement", "schedule_rows",
        "check_placed",
    )
}

#: Layer → name prefixes whose self time it owns (for ``share.*``).
LAYERS = {
    "build": ("build",),
    "opt": ("opt.",),
    "graph": ("graph.",),
    "costview": ("costview.",),
    "views": ("views.",),
    "verify": ("verify.",),
    "compile": ("compile",),
    "crossbar": ("crossbar.",),
    "sim": ("sim.",),
}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.crossbar import mapping
    from repro.mig import algorithms
    from repro.mig.costview import CostView
    from repro.mig.graph import Mig

    for attr, name in {**OPT_DRIVERS, **OPT_PASSES}.items():
        tracer.patch(algorithms, attr, name, truthy=attr in OPT_PASSES)
    tracer.patch(algorithms, "rram_costs", "views.rram_costs")
    for attr, name in CROSSBAR_FUNCTIONS.items():
        tracer.patch(mapping, attr, name)
    tracer.patch_class(CostView, COSTVIEW_METHODS)
    tracer.saw_mig(Mig("probe"))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _profile_sum(results, key: str) -> int:
    return sum(r.profile.get(key, 0) for r in results)


def layer_counts(tracer: Tracer, results) -> Dict[str, float]:
    """Per-layer counts and ratios: exact for one workload, seed and
    source, so the determinism record covers them."""
    stats = tracer.stats
    calls = {name: stat.calls for name, stat in stats.items()}
    out: Dict[str, float] = {
        "build.calls": calls.get("build", 0),
        "build.gates": sum(r.built_gates for r in results),
        "opt.cycles": sum(r.cycles for r in results),
    }
    for name in OPT_PASSES.values():
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.changed_frac"] = _ratio(
            stats[name].truthy if name in stats else 0, calls.get(name, 0)
        )
    for name in (*GRAPH_METHODS.values(), *COSTVIEW_METHODS.values()):
        out[f"{name}.calls"] = calls.get(name, 0)
    strash_hits = _profile_sum(results, "strash_hits")
    out["graph.strash_hit_frac"] = _ratio(
        strash_hits, strash_hits + _profile_sum(results, "strash_misses")
    )
    out["graph.tx_rollbacks"] = _profile_sum(results, "tx_rollbacks")
    out["graph.tx_undo_replayed"] = _profile_sum(results, "tx_undo_replayed")
    out["graph.compactions"] = _profile_sum(results, "compactions")
    out["graph.nodes_allocated"] = _profile_sum(results, "nodes_allocated")
    out["graph.slab_capacity"] = max(
        (r.profile.get("slab_capacity", 0) for r in results), default=0
    )
    for key in ("full_recomputes", "delta_updates", "events_replayed",
                "moves_tried", "moves_accepted", "predicted_skips"):
        out[f"costview.{key}"] = _profile_sum(results, key)
    cache_hits = _profile_sum(results, "cache_hits")
    out["costview.cache_hit_frac"] = _ratio(
        cache_hits,
        cache_hits + out["costview.full_recomputes"] + out["costview.delta_updates"],
    )
    out["costview.accept_frac"] = _ratio(
        out["costview.moves_accepted"], out["costview.moves_tried"]
    )
    for key in ("score_calls", "candidates_scored", "group_calls", "strash_probes"):
        out[f"batch.{key}"] = _profile_sum(results, f"batch_{key}")
    out["views.rram_costs.calls"] = calls.get("views.rram_costs", 0)
    verify_calls = calls.get("verify.netlist", 0) + calls.get("verify.program", 0)
    out["verify.calls"] = verify_calls
    out["verify.exhaustive_frac"] = _ratio(
        sum(r.exhaustive_checks for r in results), verify_calls
    )
    out["compile.calls"] = calls.get("compile", 0)
    out["compile.steps"] = sum(r.program_steps for r in results)
    out["compile.devices"] = sum(r.devices for r in results)
    for name in ("crossbar.map_program", *CROSSBAR_FUNCTIONS.values()):
        out[f"{name}.calls"] = calls.get(name, 0)
    out["crossbar.parallel_steps"] = sum(r.parallel_steps for r in results)
    return out


def layer_metrics(tracer: Tracer, traced, untraced, *, gen_s: float,
                  drift_cells: int) -> Dict[str, dict]:
    """Every per-layer metric of one traced pass, with its unit."""
    results, traced_wall = traced
    stats = tracer.stats

    def busy(name: str) -> float:
        return stats[name].busy_s if name in stats else 0.0

    values: Dict[str, float] = {
        "inputs.gen_s": gen_s,
        "cells.count": len(untraced[0]),
        "cells.p50_s": statistics.median(r.seconds for r in untraced[0]),
        "build.busy_s": busy("build"),
    }
    for name in OPT_DRIVERS.values():
        values[f"{name}.busy_s"] = busy(name)
    for name in OPT_PASSES.values():
        values[f"{name}.busy_s"] = busy(name)
        values[f"{name}.self_s"] = stats[name].self_s if name in stats else 0.0
    for name in (*GRAPH_METHODS.values(), *COSTVIEW_METHODS.values(),
                 "views.rram_costs", "verify.netlist", "verify.program",
                 "compile", "crossbar.map_program", *CROSSBAR_FUNCTIONS.values(),
                 "sim.placed_identical"):
        values[f"{name}.busy_s"] = busy(name)
    values.update(layer_counts(tracer, results))
    cell_time = sum(r.seconds for r in results)
    attributed = 0.0
    for layer, prefixes in LAYERS.items():
        own = sum(s.self_s for n, s in stats.items() if n.startswith(prefixes))
        attributed += own
        values[f"share.{layer}"] = _ratio(own, cell_time)
    values["share.unattributed"] = _ratio(cell_time - attributed, cell_time)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced[1]
    values["table2.drift_cells"] = drift_cells
    return {name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in values.items()}


def _per_layer_units() -> Dict[str, str]:
    units = {"inputs.gen_s": "s", "cells.count": "count", "cells.p50_s": "s",
             "build.busy_s": "s", "build.calls": "count",
             "build.gates": "gates", "opt.cycles": "count"}
    for name in OPT_DRIVERS.values():
        units[f"{name}.busy_s"] = "s"
    for name in OPT_PASSES.values():
        units.update({f"{name}.busy_s": "s", f"{name}.self_s": "s",
                      f"{name}.calls": "count", f"{name}.changed_frac": "ratio"})
    for name in (*GRAPH_METHODS.values(), *COSTVIEW_METHODS.values()):
        units.update({f"{name}.busy_s": "s", f"{name}.calls": "count"})
    units.update({
        "graph.strash_hit_frac": "ratio", "graph.tx_rollbacks": "count",
        "graph.tx_undo_replayed": "count", "graph.compactions": "count",
        "graph.nodes_allocated": "nodes", "graph.slab_capacity": "rows",
        "costview.full_recomputes": "count", "costview.delta_updates": "count",
        "costview.cache_hit_frac": "ratio", "costview.events_replayed": "count",
        "costview.moves_tried": "count", "costview.moves_accepted": "count",
        "costview.accept_frac": "ratio", "costview.predicted_skips": "count",
        "batch.score_calls": "count", "batch.candidates_scored": "count",
        "batch.group_calls": "count", "batch.strash_probes": "count",
        "views.rram_costs.busy_s": "s", "views.rram_costs.calls": "count",
        "verify.netlist.busy_s": "s", "verify.program.busy_s": "s",
        "verify.calls": "count", "verify.exhaustive_frac": "ratio",
        "compile.busy_s": "s", "compile.calls": "count",
        "compile.steps": "steps", "compile.devices": "devices",
        "crossbar.parallel_steps": "cycles", "sim.placed_identical.busy_s": "s",
    })
    for name in ("crossbar.map_program", *CROSSBAR_FUNCTIONS.values()):
        units.update({f"{name}.busy_s": "s", f"{name}.calls": "count"})
    for layer in (*LAYERS, "unattributed"):
        units[f"share.{layer}"] = "ratio"
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s",
                  "table2.drift_cells": "count"})
    return units


#: name → unit of every per-layer metric.
PER_LAYER: Dict[str, str] = _per_layer_units()
