"""icbox benchmark: four seeded workloads driven through ``icbox.cli.main``.

Run from the repository root:

    python3 perfbench/run.py --workload slice-scan --seed 1 --seconds 20 \
        --trace 0

Workloads (see ``workloads.py``): ``slice-scan``, ``boundary-rays``,
``catalog-classify``, ``multiparty-eval``.  Each is a closed loop with one
client: one worker process calls ``icbox.cli.main(argv)`` for one request
after another, with BLAS/OpenMP pinned to one thread.  The harness builds the
inputs from ``--seed`` into a scratch directory under ``perfbench/out``,
starts the worker, and checks every output afterwards.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

- ``setup_s``: median over fresh worker processes of the time from process
  start to the end of the warm-up command (interpreter start, ``import
  icbox``, lazy caches such as the relabeling maps); input generation is
  excluded.
- ``items_per_s``: items per second of a cycle (one pass over the request
  list) in which each request takes its median latency over the run.
- ``request_p50_ms``, ``request_p90_ms``: latency of one request, the unit a
  user waits for (one ``scan``, one ``classify``, one ray pair of
  ``boundary`` invocations, one ``eval``/``protocol``/``concat``).
- ``peak_rss_mb``: peak resident memory of the worker process, MiB.

Every timing is given at the reference host speed.  The host is shared,
and for tens of seconds at a time it runs the same request up to 1.8 times
slower; a run's raw times would tell more about its neighbours than about
icbox.  So each time is multiplied by ``PROBE_REF_S`` over the time of
``worker.host_probe``, a fixed piece of work timed just before and just
after it (their mean): the time the request would take on a host that runs
the probe in ``PROBE_REF_S``, as SPEC's ratios refer to a reference
machine.  The report on stderr gives the raw times as well.

With ``--trace 1`` the worker alternates untraced and traced cycles (spans
recorded by ``tracer.py`` around icbox's public functions; the spans are
written to ``perfbench/out``) and the last line reports per-layer metrics
per traced cycle, plus the traced/untraced throughput.  Failed items are
reported through ``failed``/``attempted``; a detailed report (environment,
sizes, sample counts, failures, the wrong-expectation probe) goes to stderr.
Self-tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 9               # fresh worker processes timed per run
# host_probe's time on the reference host, a 2-vCPU Intel Xeon VM (L2 2 MiB)
# at its unloaded speed
PROBE_REF_S = 1.5e-3
MIN_REQUESTS = 100       # latency samples per timed run
READY_TIMEOUT_S = 60.0
THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
E2E_UNITS = {"setup_s": "s", "items_per_s": "1/s", "request_p50_ms": "ms",
             "request_p90_ms": "ms", "peak_rss_mb": "MiB"}
WAITING = ("none: icbox is single-threaded with no queues, so requests never "
           "wait; spans carry busy time only")


def worker_env() -> dict[str, str]:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Worker:
    """A worker process started on a spec file; stopped on close."""

    def __init__(self, spec_path: str, log_path: str) -> None:
        self.log = open(log_path, "a", encoding="utf-8")
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), spec_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
            cwd=ROOT, env=worker_env(), text=True)

    def wait_ready(self) -> float:
        """Seconds from process start to READY."""
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if line.strip() != "READY":
            raise RuntimeError("worker did not finish its warm-up; see "
                               f"{self.log.name}")
        return perf_counter() - self.started

    def finish(self, command: str, timeout: float) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        if self.proc.wait(timeout) != 0:
            raise RuntimeError(f"worker exited {self.proc.returncode}; see "
                               f"{self.log.name}")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        self.log.close()


def environment() -> dict:
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "blas_threads": THREADS["OPENBLAS_NUM_THREADS"],
           "numpy": np.__version__, "cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip()
                                     for line in fh
                                     if line.startswith("model name")), None)
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                            .glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            env["caches"][f"L{level} {kind}"] = (index / "size").read_text(
                ).strip()
    except OSError:
        pass
    return env


def run_worker(spec: dict, workdir: str, setups: int, seconds: float
               ) -> tuple[dict, list[tuple[float, float]]]:
    """The worker's results and, per fresh worker, (set-up seconds, the host
    probe's seconds around it)."""
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    log = os.path.join(workdir, "worker.log")
    from worker import host_probe
    setup_s = []
    for i in range(setups):
        before = host_probe()
        worker = Worker(spec_path, log)
        try:
            setup_s.append((worker.wait_ready(), (before + host_probe()) / 2))
            worker.finish("run" if i == setups - 1 else "exit",
                          timeout=seconds * 2 + 60)
        finally:
            worker.close()
    with open(spec["results"], encoding="utf-8") as fh:
        return json.load(fh), setup_s


def check_run(workload, requests, run: dict) -> tuple[int, int, list[str]]:
    """Check every cycle's outputs; returns (attempted, failed, notes)."""
    attempted = failed = 0
    notes: list[str] = []
    first = run["cycles"][0]
    for cycle in run["cycles"]:
        outputs = [f if o is None else o for o, f in zip(cycle, first)]
        failed += sum(workload.check(requests, outputs, notes))
        attempted += sum(r.items for r in requests)
    return attempted, failed, notes


def at_reference(times: list[float], probes: list[float]) -> list[float]:
    return [t * PROBE_REF_S / p for t, p in zip(times, probes)]


def timings(run: dict, n_requests: int, corrected: bool) -> dict:
    """Cycle time and latency percentiles of a run, at the reference host
    speed or raw.  A request of the cycle takes its median latency."""
    lat = run["latencies_s"]
    if corrected:
        around = run["probes_s"]
        lat = at_reference(lat, [(a + b) / 2
                                 for a, b in zip(around, around[1:])])
    lat_ms = [1e3 * t for t in lat]
    return {"cycle_s": sum(statistics.median(lat[i::n_requests])
                           for i in range(n_requests)),
            "latencies_ms": lat_ms,
            "request_p50_ms": statistics.median(lat_ms),
            "request_p90_ms": statistics.quantiles(lat_ms, n=10)[-1]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "icbox" / "__init__.py").is_file():
        print(f"error: icbox sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import layer_metrics
    from workloads import WORKLOADS, check_probe
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        t0 = perf_counter()
        plan = workload.build(np.random.default_rng(args.seed), workdir)
        gen_s = perf_counter() - t0
        spec = {"warmup": plan.warmup,
                "requests": [r.argvs for r in plan.requests],
                "seconds": args.seconds, "trace": args.trace,
                "min_requests": MIN_REQUESTS,
                "results": os.path.join(workdir, "results.json"),
                "trace_out": str(out_dir / f"trace-{args.workload}-"
                                           f"seed{args.seed}.jsonl")}
        result, setup_s = run_worker(spec, workdir,
                                     1 if args.trace else SETUPS,
                                     args.seconds)
        t0 = perf_counter()
        attempted, failed, notes = check_run(workload, plan.requests,
                                             result["run"])
        first = result["run"]["cycles"][0]
        probe_caught = check_probe(workload, plan.requests, first)
        if args.trace:
            more = check_run(workload, plan.requests, result["traced"])
            attempted, failed = attempted + more[0], failed + more[1]
            notes += more[2]
        check_s = perf_counter() - t0
    except Exception:
        log = Path(workdir) / "worker.log"
        if log.is_file():
            sys.stderr.write(log.read_text(encoding="utf-8")[-4000:])
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run = result["run"]
    per_cycle = sum(r.items for r in plan.requests)
    raw = timings(run, len(plan.requests), corrected=False)
    ref = timings(run, len(plan.requests), corrected=True)
    lat_ms, p90 = ref["latencies_ms"], ref["request_p90_ms"]
    setup_raw = [t for t, _ in setup_s]
    setup_ref = at_reference(setup_raw, [p for _, p in setup_s])
    if args.trace:
        traced = result["traced"]
        metrics = dict(result["layers"])
        metrics["trace.items_per_s_untraced"] = (
            per_cycle * len(run["cycles"]) / run["wall_s"])
        metrics["trace.items_per_s_traced"] = (
            per_cycle * len(traced["cycles"]) / traced["wall_s"])
        metrics["trace.overhead_frac"] = (
            1.0 - metrics["trace.items_per_s_traced"]
            / metrics["trace.items_per_s_untraced"])
        units = {k: unit for k, (unit, _) in layer_metrics().items()}
    else:
        metrics = {"setup_s": statistics.median(setup_ref),
                   "items_per_s": per_cycle / ref["cycle_s"],
                   "request_p50_ms": ref["request_p50_ms"],
                   "request_p90_ms": p90,
                   "peak_rss_mb": result["peak_rss_mb"]}
        units = E2E_UNITS

    report = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "claim": None,
        "loop": "closed, 1 client, 1 worker process, BLAS threads pinned "
                "to 1",
        "size": plan.size, "largest_array_computed": plan.largest_array,
        "requests_per_cycle": len(plan.requests),
        "items_per_cycle": per_cycle, "cycles": len(run["cycles"]),
        "items_per_s_whole_run": per_cycle * len(run["cycles"])
        / run["wall_s"],
        "latency_samples": len(lat_ms),
        "samples_beyond_p90": sum(t > p90 for t in lat_ms),
        "host_probe_ref_s": PROBE_REF_S,
        "host_probe_median_s": statistics.median(run["probes_s"]),
        "uncorrected": {"setup_s": statistics.median(setup_raw),
                "items_per_s": per_cycle / raw["cycle_s"],
                "request_p50_ms": raw["request_p50_ms"],
                "request_p90_ms": raw["request_p90_ms"]},
        "setup_samples_s": setup_ref, "input_generation_s": gen_s,
        "check_s": check_s, "failed_frac": failed / attempted,
        "failures": notes[:20],
        "probe": {"attempted": 1, "failed": int(probe_caught)},
        "waiting": WAITING, "worker_threads": result["threads"],
        "environment": environment(),
    }
    if args.trace:
        report["per_layer_base"] = ("per cycle of the request list; "
                                    "criteria.entropy_calls_per_eval per "
                                    "criteria.evaluate call; "
                                    "scan.bisect.evals_per_ray per "
                                    "scan.boundary call")
        report["trace_file"] = spec["trace_out"]
    print(json.dumps(report, indent=1), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and probe_caught,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit}
                    for k, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
