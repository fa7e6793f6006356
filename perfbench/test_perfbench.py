"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, layer_metrics, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, check_probe  # noqa: E402


def build(name: str, seed: int, workdir: Path):
    workdir.mkdir()
    return WORKLOADS[name].build(np.random.default_rng(seed), str(workdir))


def fingerprint(name: str, seed: int, workdir: Path):
    """The argv (work directory stripped) and the input files' bytes."""
    plan = build(name, seed, workdir)
    argvs = [[arg.replace(str(workdir), "") for arg in argv]
             for req in plan.requests for argv in req.argvs]
    return argvs, {p.name: p.read_bytes() for p in workdir.iterdir()}


def one_cycle(name: str, plan) -> tuple[list, float, dict]:
    """Run one traced cycle in this process: outputs, seconds, layers."""
    tracer = Tracer()
    tracer.install()
    try:
        start = perf_counter()
        outputs = []
        for i, req in enumerate(plan.requests):
            tracer.item = [0, i]
            outputs.append(worker.run_request(req.argvs))
        seconds = perf_counter() - start
    finally:
        tracer.uninstall()
    return outputs, seconds, summarize(tracer, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs(name, tmp_path):
    first = fingerprint(name, 1, tmp_path / "a")
    assert fingerprint(name, 1, tmp_path / "b") == first
    assert fingerprint(name, 2, tmp_path / "c") != first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_probe_fails_and_cost_is_seed_stable(name, tmp_path):
    runs = []
    for seed in (1, 2):
        plan = build(name, seed, tmp_path / str(seed))
        outputs, seconds, layers = one_cycle(name, plan)
        notes: list[str] = []
        failed = WORKLOADS[name].check(plan.requests, outputs, notes)
        assert sum(failed) == 0, notes[:5]
        assert check_probe(WORKLOADS[name], plan.requests, outputs)
        runs.append((seconds, layers))
    (t1, l1), (t2, l2) = runs
    for key in ("protocol.single_copy_joint.calls", "entropy.entropy.calls",
                "criteria.evaluate.calls", "cli.main.calls"):
        assert l2[key] == pytest.approx(l1[key], rel=0.05), key
    # wall time on a shared machine drifts; only a gross change fails
    assert 0.6 < t2 / t1 < 1.65


def test_catalog_workload_never_builds_a_joint(tmp_path):
    plan = build("catalog-classify", 3, tmp_path / "w")
    _, _, layers = one_cycle("catalog-classify", plan)
    assert layers["protocol.single_copy_joint.calls"] == 0
    assert layers["entropy.entropy.calls"] == 0
    assert layers["criteria.multicopy_orbit_max.calls"] == len(
        plan.requests) * plan.requests[0].items


def test_tracer_binds_every_consumer_and_restores():
    from icbox import criteria, protocol, scan
    original = protocol.single_copy_joint
    tracer = Tracer()
    tracer.install()
    try:
        assert criteria.single_copy_joint is protocol.single_copy_joint
        assert criteria.single_copy_joint is not original
        assert scan.evaluate is criteria.evaluate
    finally:
        tracer.uninstall()
    assert criteria.single_copy_joint is original
    assert protocol.single_copy_joint is original


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0], ["d", 5.0, 6.0, 0, 0]]
    assert self_times(spans, {3: 0.5}) == [5.5, 2.0, 1.0, 1.0]


def test_timings_correct_for_host_speed():
    # two requests per cycle; in the second cycle the host runs everything,
    # the probes too, twice as slowly
    ref = run.PROBE_REF_S
    slow = {"latencies_s": [0.01, 0.03, 0.02, 0.06],
            "probes_s": [ref, ref, 2 * ref, 2 * ref, 2 * ref]}
    got = run.timings(slow, 2, corrected=True)
    # the second request lies between a fast and a slow probe
    assert got["latencies_ms"] == pytest.approx([10.0, 20.0, 10.0, 30.0])
    assert got["cycle_s"] == pytest.approx(0.01 + 0.025)
    assert run.timings(slow, 2, corrected=False)["cycle_s"] == (
        pytest.approx(0.015 + 0.045))


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layer_metrics())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "slice-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
