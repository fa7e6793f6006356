"""The names the benchmark harness (perfbench/) binds in icbox still exist,
so deleting one fails here and not only in the benchmark's own tests.  The
harness modules are imported, never changed."""

import collections
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from icbox import scan
from icbox.behaviors import CatalogEntry, load_catalog
from icbox.cli import _bundled_catalog_path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load("tracer")
    for module, names in tracer.TRACED.items():
        icbox_module = importlib.import_module(f"icbox.{module}")
        for name in names:
            assert callable(getattr(icbox_module, name, None)), (
                f"perfbench traces icbox.{module}.{name}, which is gone")
    # the tracer self-test checks this binding
    assert hasattr(importlib.import_module("icbox.criteria"),
                   "single_copy_joint")


def test_workload_imports_resolve():
    try:
        workloads = _load("workloads")
    except ImportError as exc:
        pytest.fail(f"perfbench/workloads.py no longer imports: {exc}")
    assert set(workloads.WORKLOADS) == {"slice-scan", "boundary-rays",
                                        "catalog-classify", "multiparty-eval"}


def test_classify_evaluates_each_entry_once(monkeypatch):
    """perfbench's catalog check pins one multicopy_orbit_max call per
    entry, counted through the icbox.scan binding its tracer wraps."""
    catalog = load_catalog(_bundled_catalog_path())
    catalog += [CatalogEntry(1000 + i, e.behavior)
                for i, e in enumerate(catalog)]
    calls = collections.Counter()
    for name in ("multicopy_orbit_max", "eval_uffink"):
        def counted(b, name=name, original=getattr(scan, name)):
            calls[name] += 1
            return original(b)
        monkeypatch.setattr(scan, name, counted)
    scan.classify_catalog(catalog)
    assert calls == {"multicopy_orbit_max": len(catalog),
                     "eval_uffink": len(catalog)}


def test_boundary_takes_at_most_twelve_evaluations_per_ray(monkeypatch):
    """perfbench's boundary-rays reads scan.bisect.evals_per_ray (evaluate
    calls inside boundary) and scan.bisect.predicate_calls (calls of the
    function boundary hands to bisect_threshold), both through the icbox.scan
    bindings its tracer wraps.  ITP on the margin needs at most 12
    evaluations on each stratum's ray, where flag bisection needs 22 to 24,
    and boundary calls bisect_threshold once per bracketed ray."""
    workloads = _load("workloads")
    spec = scan.default_slice()
    calls = collections.Counter()

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in ("evaluate", "bisect_threshold"):
        monkeypatch.setattr(scan, name, counted(name, getattr(scan, name)))
    for criterion in workloads.RAY_CRITERIA:
        for i in range(workloads.RAYS):
            eps = (i + 0.5) / workloads.RAYS * 0.99
            calls.clear()
            assert scan.boundary(spec, criterion, eps).status == "ok"
            assert calls["bisect_threshold"] == 1
            assert calls["evaluate"] <= 12, (criterion, eps, calls)
