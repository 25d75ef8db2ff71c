"""Outside-in tracing of the cvsim layers.

The tracer replaces every public function of the cvsim modules with a thin
wrapper that records a span (name, start, end, parent span, job id) while
tracing is active.  Nothing under ``src/`` changes: the wrappers are
installed on the module attributes from here, and every module that
imported a function by name (``from .gates import apply_gate``) gets the
same wrapper, so cross-module calls are seen too.  Private helpers run
inside the span of the public function that calls them.

Spans are grouped into the layer metrics the benchmark reports.  A layer's
self time is its spans' duration minus the time covered by their child
spans; ``calls`` counts only the outermost span of a group, so
``bs_output_from_angle`` calling ``bs_output`` is one ``fock.bs`` call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import defaultdict
from time import perf_counter

#: the layers, one per cvsim module
LAYERS = ("cli", "homodyne", "network", "gates", "states", "entanglement", "phase_space", "fock")

#: function -> group within its layer; unlisted public functions go to "other",
#: except in entanglement, which is reported as one group
GROUPS = {
    "homodyne": {
        "quadrature_cdf": "cdf",
        "sample": "sample",
        "invert_cdf": "sample",
        "binned_variance": "binning",
        "theoretical_variance": "binning",
        "variance_standard_error": "binning",
        "squeezing_certificate": "binning",
        "heisenberg_violations": "binning",
        "write_samples_csv": "csv_write",
        "write_variance_csv": "csv_write",
        "read_samples_csv": "csv_read",
        "read_variance_csv": "csv_read",
    },
    "network": {"parse_network_spec": "parse", "run_network": "run"},
    "gates": {
        "displacement_gate": "build",
        "squeeze_gate": "build",
        "rotation_gate": "build",
        "beamsplitter_gate": "build",
        "apply_gate": "apply",
    },
    "states": {
        "symplectic_eigenvalues": "spectrum",
        "check_physicality": "physicality",
        "physicality_margin": "physicality",
        "symplectic_form": "symplectic_form",
    },
    "phase_space": {"wigner_gaussian": "wigner", "write_wigner_csv": "csv_write"},
    "fock": {"bs_output": "bs", "bs_output_from_angle": "bs"},
}
#: clean_tiny is a display helper; its time stays with the calling layer
UNTRACED = {"clean_tiny"}
ROOT = "cli"


def group_of(layer: str, func: str) -> str:
    if layer == "entanglement":
        return "entanglement"
    if layer == ROOT:
        return ROOT
    return f"{layer}.{GROUPS.get(layer, {}).get(func, 'other')}"


def _apply_gate_counts(counters, args, kwargs, result):
    """Computed from N: dense S @ cov @ S.T, symmetrisation and S @ mean."""
    state = args[1] if len(args) > 1 else kwargs["state"]
    m = state.mean.size  # 2N
    counters["gates.apply.flops_computed"] += 4 * m**3 + 4 * m**2 + m
    # operands read plus results written, 8 bytes each (no temporaries)
    counters["gates.apply.bytes_computed"] += 8 * (10 * m**2 + 5 * m)


def _file_bytes(key):
    def hook(counters, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        counters[key] += os.path.getsize(path)
    return hook


COUNT_HOOKS = {
    ("gates", "apply_gate"): _apply_gate_counts,
    ("homodyne", "write_samples_csv"): _file_bytes("homodyne.csv_write.bytes"),
    ("homodyne", "write_variance_csv"): _file_bytes("homodyne.csv_write.bytes"),
    ("phase_space", "write_wigner_csv"): _file_bytes("phase_space.csv_write.bytes"),
}


class Tracer:
    """Span recorder; inactive (a plain pass-through) until ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self.job = -1
        self.spans: list[tuple] = []  # (job, id, parent id, group, start, end, failed)
        self._stack: list[list] = []  # [span id, group, child time]
        self._next_id = 0
        self.reset_stats()

    def reset_stats(self) -> None:
        # group -> [outermost calls, self seconds, outermost failures]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, group: str, fn, count_hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, group, 0.0]
            self._stack.append(frame)
            failed = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                entry = self.stats[group]
                entry[1] += duration - frame[2]
                if parent is None or parent[1] != group:
                    entry[0] += 1
                    entry[2] += failed
                self.spans.append((self.job, span_id, parent[0] if parent else None,
                                   group, start, end, failed))
            if count_hook is not None:
                count_hook(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public cvsim function, in every module that holds it."""
        modules = [importlib.import_module("cvsim")]
        modules += [importlib.import_module(f"cvsim.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"cvsim.{layer}")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and name not in UNTRACED):
                    wrappers[fn] = self.wrap(group_of(layer, name), fn,
                                             COUNT_HOOKS.get((layer, name)))
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, name, wrappers[value])

    def snapshot(self) -> dict:
        """Per-group totals and counters accumulated since the last reset."""
        return {
            "groups": {g: {"calls": c, "self_s": s, "failed": f}
                       for g, (c, s, f) in self.stats.items()},
            "counters": dict(self.counters),
        }


def counts(snapshot: dict) -> tuple:
    """The parts of a snapshot that must repeat exactly for identical inputs."""
    return ({g: (v["calls"], v["failed"]) for g, v in snapshot["groups"].items()},
            snapshot["counters"])
