"""Per-layer tracing from outside the library.

The ddradar modules bind collaborators with `from .x import y`, so a call
goes through the name in the caller's namespace.  The tracer therefore
replaces every binding of a traced function, in every loaded ddradar
module, with a wrapper that records a span, and restores the originals
afterwards.  Names a module does not define are skipped, so a refactor that
renames or removes one costs only its metrics.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

# Layer (module) -> public functions whose calls are timed and counted.
LAYERS = {
    "cli": ("main", "parse_waveform_spec"),
    "radarsim": ("scene_from_json", "apply_channel", "add_noise", "form_image", "readout_targets"),
    "subgroups": ("eigenbasis_for_line", "crystallization_check", "pulsone", "chirp"),
    "symplectic": ("sl2_apply", "gdaft_apply", "gdaft_adjoint", "lfm_apply"),
    "ambiguity": (
        "fast_cross_ambiguity",
        "fast_pulsone_precompute",
        "fast_pulsone_query",
        "cross_ambiguity_naive",
        "surface_to_csv",
        "surface_to_pgm",
        "zc_sequence",
    ),
    "ddcore": ("dzt",),
}
# Wrapped only to count the vectors built when a single-eigenvector
# constructor replaces eigenbasis_for_line; it has no metrics of its own.
COUNTED_ONLY = {"subgroups": ("eigenvector",)}
ROOT = "cli.main"

# Exact per-command counts, next to the per-function ones.
COUNT_METRICS = {
    "subgroups.eigenvectors_used_ratio": "ratio",
    "ambiguity.points_read_ratio": "ratio",
    "ambiguity.csv_bytes": "bytes",
}
TRACE_METRICS = {
    "trace.cmd_median_s": "s",
    "trace.overhead_s": "s",
    "trace.child_self_share": "ratio",
}


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, funcs in LAYERS.items():
        for func in funcs:
            units[f"{module}.{func}.calls"] = "count"
            units[f"{module}.{func}.total_s"] = "s"
            units[f"{module}.{func}.self_s"] = "s"
        units[f"{module}.errors"] = "count"
    units.update(COUNT_METRICS)
    units.update(TRACE_METRICS)
    return units


class Tracer:
    """Spans (name, start, end, parent, command) of the traced commands, kept in memory."""

    def __init__(self) -> None:
        self.spans = []
        self.stack = []
        self.command = None
        self.errors = defaultdict(int)
        self.built = defaultdict(int)  # command -> eigenvectors constructed
        self.region_points = defaultdict(int)  # command -> points read out
        self.image_points = defaultdict(int)  # command -> image points formed
        self._restore = []

    # -- installation --------------------------------------------------

    def install(self, command: int) -> None:
        """Wrap every binding of the traced functions for one command."""
        self.command = command
        modules = [m for name, m in sys.modules.items() if name.startswith("ddradar") and m]
        for module, funcs in list(LAYERS.items()) + list(COUNTED_ONLY.items()):
            home = sys.modules.get(f"ddradar.{module}")
            for func in funcs:
                original = getattr(home, func, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(f"{module}.{func}", module, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()
        self.command = None

    def _wrap(self, name: str, module: str, fn):
        count = self._counter(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.command])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def _counter(self, name: str, fn):
        """Count hook for the functions behind the exact ratios, or None."""
        if name == "subgroups.eigenbasis_for_line":
            return lambda args, kwargs, result: self._add(self.built, len(result))
        if name == "subgroups.eigenvector":
            return lambda args, kwargs, result: self._add(self.built, 1)
        if name == "radarsim.form_image":
            return lambda args, kwargs, result: self._add(
                self.image_points, result.surface.values.size
            )
        if name == "radarsim.readout_targets" and "region" in inspect.signature(fn).parameters:
            signature = inspect.signature(fn)

            def count_region(args, kwargs, result):
                region = signature.bind(*args, **kwargs).arguments["region"]
                self._add(self.region_points, region.width_k * region.width_l)

            return count_region
        return None

    def _add(self, table, amount: int) -> None:
        table[self.command] += amount

    # -- reduction -----------------------------------------------------

    def layer_metrics(self, commands: list, csv_bytes: dict, uses_eigenvector: bool) -> dict:
        """Per-command calls, total and self seconds for every traced function.

        Self time is a span's duration minus the durations of its direct
        children; calls are the mean per command (they repeat exactly), times
        the median per command.
        """
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(lambda: defaultdict(int))
        total = defaultdict(lambda: defaultdict(float))
        own = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, cmd) in enumerate(self.spans):
            calls[name][cmd] += 1
            total[name][cmd] += end - start
            own[name][cmd] += end - start - child[i]

        def median(table, name):
            return statistics.median(table[name].get(c, 0.0) for c in commands)

        metrics = {}
        for module, funcs in LAYERS.items():
            for func in funcs:
                name = f"{module}.{func}"
                metrics[f"{name}.calls"] = sum(calls[name].values()) / len(commands)
                metrics[f"{name}.total_s"] = median(total, name)
                metrics[f"{name}.self_s"] = median(own, name)
            metrics[f"{module}.errors"] = self.errors[module]

        used = [1 / self.built[c] if uses_eigenvector and self.built[c] else 0.0 for c in commands]
        read = [
            self.region_points[c] / self.image_points[c] if self.image_points[c] else 0.0
            for c in commands
        ]
        metrics["subgroups.eigenvectors_used_ratio"] = statistics.median(used)
        metrics["ambiguity.points_read_ratio"] = statistics.median(read)
        metrics["ambiguity.csv_bytes"] = statistics.median(csv_bytes[c] for c in commands)
        root_total = sum(total[ROOT].values())
        metrics["trace.child_self_share"] = (
            1.0 - sum(own[ROOT].values()) / root_total if root_total else 0.0
        )
        return metrics

    def span_records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "command": c}
            for n, s, e, p, c in self.spans
        ]
