"""In-memory span tracer that wraps icbox's public functions from outside.

Each wrapped call records one span ``[name, start, end, parent, item]``
(parent is the index of the enclosing span, -1 at top level; item is the
request the call belongs to).  ``from module import name`` copies the
function object into consumer modules, so a wrapper is bound in every icbox
module that holds the original object, not only in the defining one.  The
icbox sources are left untouched.

The code is single-threaded with no queues, so spans carry busy time only;
there is no waiting time to record.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

import numpy as np

# icbox module -> its public functions traced as one span per call
TRACED = {
    "behaviors": ("mix", "validate", "named_box", "load_behavior",
                  "load_catalog", "from_json_obj", "relabeling_index_maps"),
    "entropy": ("entropy", "marginal", "mutual_information",
                "cond_mutual_information"),
    "protocol": ("single_copy_joint", "success_profile", "biases",
                 "concat_success_simulated", "concat_success_closed"),
    "criteria": ("evaluate", "eval_bipartite_ic", "eval_stronger_bipartite",
                 "eval_multipartite_ic", "eval_multicopy",
                 "eval_success_bound", "eval_uffink", "multicopy_orbit_max",
                 "eval_noisy_ic"),
    "scan": ("scan_slice", "write_scan_csv", "boundary", "bisect_threshold",
             "write_boundary_csv", "classify_catalog", "slice_point",
             "default_slice"),
    "cli": ("main", "parse_box_uri"),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)
PREDICATE = "scan.bisect.predicate"

# per-layer metrics besides <span>.calls and <span>.self_s: (unit, better)
DERIVED = {
    "protocol.single_copy_joint.atoms": ("count", "lower"),
    "protocol.single_copy_joint.nonzero_frac": ("frac", "higher"),
    "entropy.entropy.atoms_reduced": ("count", "lower"),
    "entropy.entropy.bytes_read_computed": ("B", "lower"),
    "criteria.entropy_calls_per_eval": ("count/eval", "lower"),
    "scan.bisect.predicate_calls": ("count", "lower"),
    "scan.bisect.evals_per_ray": ("count/ray", "lower"),
    "setup.behaviors.relabeling_index_maps.calls": ("count", "lower"),
    "setup.behaviors.relabeling_index_maps.self_s": ("s", "lower"),
    "trace.items_per_s_untraced": ("1/s", "higher"),
    "trace.items_per_s_traced": ("1/s", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
}


def layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its (unit, better)."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
    out.update(DERIVED)
    return out


def _joint_attrs(joint) -> tuple[int, int]:
    return int(joint.probs.size), int(np.count_nonzero(joint.probs))


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`.

    ``spans`` holds every recorded span; ``attrs`` maps a span index to the
    counts read off that call (joint atoms and nonzeros, entropy atoms) and
    ``attr_s`` to the time spent reading them, which is charged to no span.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.attrs: dict[int, tuple[int, ...]] = {}
        self.attr_s: dict[int, float] = {}
        self.item: object = None
        self._stack = [-1]
        self._bound: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attr=None):
        spans, stack, attrs, attr_s = (self.spans, self._stack, self.attrs,
                                       self.attr_s)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1], self.item]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attr is not None:
                attrs[idx] = attr(args, out)
                attr_s[idx] = perf_counter() - rec[2]
            return out
        return traced

    def _wrapper_for(self, module: str, func: str, fn):
        name = f"{module}.{func}"
        if name == "protocol.single_copy_joint":
            return self.wrap(name, fn, lambda args, out: _joint_attrs(out))
        if name == "entropy.entropy":
            return self.wrap(name, fn, lambda args, out: (args[0].probs.size,))
        if name == "scan.bisect_threshold":
            def bisect(predicate, *args, **kwargs):
                return fn(self.wrap(PREDICATE, predicate), *args, **kwargs)
            return self.wrap(name, functools.wraps(fn)(bisect))
        return self.wrap(name, fn)

    def install(self) -> None:
        if self._bound:
            return
        mods = [importlib.import_module("icbox")] + [
            importlib.import_module(f"icbox.{m}") for m in TRACED]
        for module, funcs in TRACED.items():
            home = importlib.import_module(f"icbox.{module}")
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrapper_for(module, func, original)
                for mod in mods:
                    for attr_name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr_name, wrapper)
                            self._bound.append((mod, attr_name, original))

    def uninstall(self) -> None:
        for mod, attr_name, original in reversed(self._bound):
            setattr(mod, attr_name, original)
        self._bound.clear()

    def dump(self, path: str) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list], attr_s: dict[int, float]) -> list[float]:
    """Span duration minus the time covered by its child spans (and by the
    tracer reading a child's counts)."""
    self_s = [rec[2] - rec[1] for rec in spans]
    for idx, rec in enumerate(spans):
        parent = rec[3]
        if parent >= 0:
            self_s[parent] -= rec[2] - rec[1] + attr_s.get(idx, 0.0)
    return self_s


def summarize(tracer: Tracer, cycles: int) -> dict[str, float]:
    """Per-layer metrics per cycle of the workload from the spans whose item
    is not ``"setup"``, plus the warm-up's relabeling-map spans."""
    spans = tracer.spans
    self_s = self_times(spans, tracer.attr_s)
    calls = dict.fromkeys(SPAN_NAMES + (PREDICATE,), 0)
    busy = dict.fromkeys(SPAN_NAMES + (PREDICATE,), 0.0)
    setup_calls = 0
    setup_s = 0.0
    joint_atoms = joint_nonzero = entropy_atoms = 0
    evals_in_boundary = 0
    for idx, rec in enumerate(spans):
        name = rec[0]
        if rec[4] == "setup":
            if name == "behaviors.relabeling_index_maps":
                setup_calls += 1
                setup_s += self_s[idx]
            continue
        calls[name] += 1
        busy[name] += self_s[idx]
        if name == "protocol.single_copy_joint":
            joint_atoms += tracer.attrs[idx][0]
            joint_nonzero += tracer.attrs[idx][1]
        elif name == "entropy.entropy":
            entropy_atoms += tracer.attrs[idx][0]
        elif name == "criteria.evaluate":
            parent = rec[3]
            while parent >= 0 and spans[parent][0] != "scan.boundary":
                parent = spans[parent][3]
            evals_in_boundary += parent >= 0

    per = 1.0 / cycles
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] * per
        out[f"{name}.self_s"] = busy[name] * per
    evaluations = calls["criteria.evaluate"]
    rays = calls["scan.boundary"]
    out.update({
        "protocol.single_copy_joint.atoms": joint_atoms * per,
        "protocol.single_copy_joint.nonzero_frac":
            joint_nonzero / joint_atoms if joint_atoms else 0.0,
        "entropy.entropy.atoms_reduced": entropy_atoms * per,
        "entropy.entropy.bytes_read_computed": 8.0 * entropy_atoms * per,
        "criteria.entropy_calls_per_eval":
            calls["entropy.entropy"] / evaluations if evaluations else 0.0,
        "scan.bisect.predicate_calls": calls[PREDICATE] * per,
        "scan.bisect.evals_per_ray":
            evals_in_boundary / rays if rays else 0.0,
        "setup.behaviors.relabeling_index_maps.calls": float(setup_calls),
        "setup.behaviors.relabeling_index_maps.self_s": setup_s,
    })
    return out
