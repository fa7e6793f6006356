"""One workload process: import icbox, run the warm-up, then the timed loop.

Usage: ``python3 worker.py SPEC.json`` with ``src`` on ``PYTHONPATH``.  The
worker prints ``READY`` on stdout once the warm-up command has finished and
then reads one line from stdin: ``run`` starts the loop, anything else exits.
Every request calls ``icbox.cli.main(argv)`` in this process, one after the
other.  Results go to the JSON file named in the spec.

A run is whole cycles of the request list, and lasts at least the spec's
``seconds`` of busy time and ``min_requests`` requests.  Outputs are kept
for the first cycle; a later cycle keeps an output only where it differs
from the first, so memory does not grow with the number of cycles.

The host is shared: its speed for this process drifts, and for tens of
seconds at a time the same request takes up to 1.8 times as long.  Before
every request, and once after the last, the worker times ``host_probe``, a
fixed piece of work that does not touch icbox, so that the harness can
correct each latency for the host's speed at the time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import numpy as np

from icbox import cli

PROBE_DATA = np.random.default_rng(0).random(1 << 16)
PROBE_INDEX = np.random.default_rng(1).permutation(1 << 16)


def host_probe() -> float:
    """Seconds a fixed piece of work takes, about 1.5 ms on an idle host:
    half pure-Python arithmetic, half an L2-resident numpy gather.  One
    untimed gather first, so that what the last request left in the cache
    does not decide the time."""
    PROBE_DATA[PROBE_INDEX].sum()
    t0 = perf_counter()
    acc = 0
    for i in range(12000):
        acc += i * i
    for _ in range(6):
        PROBE_DATA[PROBE_INDEX].sum()
    return perf_counter() - t0


def run_request(argvs: list[list[str]]) -> list[list]:
    outs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:       # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:               # counted as a failed item
                rc = "exception"
                err.write(traceback.format_exc())
        outs.append([rc, out.getvalue(), err.getvalue()])
    return outs


class Run:
    """Latencies, host probes, busy time and deduplicated outputs of whole
    cycles.  Request k of the run lies between probes k and k + 1; probe
    time is not busy time."""

    def __init__(self) -> None:
        self.first: list | None = None
        self.cycles: list[list] = []
        self.latencies_s: list[float] = []
        self.probes_s: list[float] = []
        self.wall_s = 0.0

    def cycle(self, requests: list[list[list[str]]], tracer=None) -> None:
        outs_cycle = []
        for i, argvs in enumerate(requests):
            self.probes_s.append(host_probe())
            if tracer is not None:
                tracer.item = [len(self.cycles), i]
            t0 = perf_counter()
            outs_cycle.append(run_request(argvs))
            self.latencies_s.append(perf_counter() - t0)
            self.wall_s += self.latencies_s[-1]
        if self.first is None:
            self.first = outs_cycle
            self.cycles.append(outs_cycle)
        else:
            self.cycles.append([None if o == f else o
                                for o, f in zip(outs_cycle, self.first)])

    def to_json(self) -> dict:
        return {"wall_s": self.wall_s, "latencies_s": self.latencies_s,
                "probes_s": self.probes_s + [host_probe()],
                "cycles": self.cycles}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, summarize
        tracer = Tracer()
        tracer.item = "setup"
        tracer.install()
    (warm,) = run_request([spec["warmup"]])
    if warm[0] != 0:
        print(f"warm-up failed with {warm[0]}: {warm[2]}", file=sys.stderr)
        return 3
    if tracer is not None:
        tracer.uninstall()
    sys.__stdout__.write("READY\n")
    sys.__stdout__.flush()
    if sys.stdin.readline().strip() != "run":
        return 0

    requests, seconds = spec["requests"], spec["seconds"]
    result: dict = {"threads": {k: v for k, v in os.environ.items()
                                if k.endswith("_THREADS")}}
    plain = Run()
    if tracer is None:
        while (plain.wall_s < seconds
               or len(plain.latencies_s) < spec["min_requests"]):
            plain.cycle(requests)
    else:
        # alternate untraced and traced cycles, so that both see the same
        # machine; their throughput ratio is the tracing overhead
        traced = Run()
        while plain.wall_s + traced.wall_s < seconds:
            plain.cycle(requests)
            tracer.install()
            traced.cycle(requests, tracer)
            tracer.uninstall()
        result["traced"] = traced.to_json()
        result["layers"] = summarize(tracer, len(traced.cycles))
        tracer.dump(spec["trace_out"])
    result["run"] = plain.to_json()
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["results"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
