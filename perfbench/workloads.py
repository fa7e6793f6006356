"""Seeded inputs, request lists and independent output checks.

A workload is a fixed list of requests (one *cycle*) that the worker
repeats.  A request is one or more ``icbox`` command lines whose total time
is one latency sample, and it finishes ``items`` items.  Inputs are built
from the seed with icbox's public API and numpy and written to a work
directory; icbox only sees those files and the argv.  The checks recompute
what they compare against from the benchmark's own formulas, never through
the icbox function that produced the output.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Callable

import numpy as np

from icbox.behaviors import (Behavior, all_local_deterministic, flip_inputs,
                             load_catalog, mix, named_box, permute_parties,
                             relabel_outputs, save_behavior, to_json_obj)
from icbox.scan import classify_catalog

TOL = 1e-9
BISECTION_TOL = 1e-6    # the CLI's default bracket, which the rays use

# published violator rows for the bundled classes (Pironio, Bancal and
# Scarani 2011): class -> (violates ic-multicopy, violates uffink-3)
PUBLISHED_ROWS = {1: (False, False), 45: (True, False), 46: (False, True)}
SYNTHETIC_ID0 = 1000    # synthetic catalog ids start here, clear of 1..46

Outputs = list[list]    # per command line of a request: [rc, stdout, stderr]


@dataclass
class Request:
    argvs: list[list[str]]
    items: int
    expect: dict[str, Any] = field(default_factory=dict)


@dataclass
class Plan:
    warmup: list[str]
    requests: list[Request]
    size: str                    # the stated input size
    largest_array: str           # computed, not measured


# ---------------------------------------------------------------------------
# reference formulas

def popcount_parity(idx: np.ndarray) -> np.ndarray:
    par = np.zeros_like(idx)
    while idx.any():
        par ^= idx & 1
        idx = idx >> 1
    return par


def correlators(table: np.ndarray) -> np.ndarray:
    """C_x = sum_a (-1)^(a_1 + ... + a_N) p(a|x) for every input row x."""
    signs = 1 - 2 * popcount_parity(np.arange(table.shape[1]))
    return table @ signs


def ref_biases(b: Behavior) -> tuple[float, float]:
    """(E_I, E_II) of the receiver-last parity condition: at x_N = 0 the
    outputs' parity should be 0, at x_N = 1 the senders' input parity."""
    corr = correlators(b.table)
    x = np.arange(corr.size)
    rec = x & 1
    sign = 1 - 2 * popcount_parity(x >> 1)
    return float(corr[rec == 0].mean()), float((corr * sign)[rec == 1].mean())


def ref_closed(e_one: float, e_two: float, depth: int, ones: int) -> float:
    return 0.5 * (1.0 + e_one ** (depth - ones) * e_two ** ones)


def ref_success_bound(e_one: float, e_two: float, depth: int,
                      parties: int) -> float:
    def h(p: float) -> float:
        return 0.0 if p in (0.0, 1.0) else float(
            -p * math.log2(p) - (1 - p) * math.log2(1 - p))
    return (parties - 1) * sum(
        math.comb(depth, r) * (1.0 - h(ref_closed(e_one, e_two, depth, r)))
        for r in range(depth + 1))


def ref_uffink3_canonical(b: Behavior) -> float:
    c = correlators(b.table)
    return float((c[0b001] + c[0b010] + c[0b100] - c[0b111]) ** 2
                 + (c[0b110] + c[0b101] + c[0b011] - c[0b000]) ** 2)


def multicopy_gamma_star(eps: float) -> float:
    """Default slice: E_I = gamma + eps, E_II = gamma, so the ic-multicopy
    boundary solves (gamma + eps)^2 + gamma^2 = 1."""
    return (-eps + math.sqrt(2.0 - eps * eps)) / 2.0


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# input helpers

def relabel_all(rng: np.random.Generator, boxes, perm) -> tuple:
    """One seeded element of the relabeling group applied to every box:
    party permutation `perm`, then input flips and output maps
    a_k -> a_k + beta_k + alpha_k x_k."""
    n = boxes[0].parties
    mask, beta, alpha = (rng.integers(0, 2, n).tolist() for _ in range(3))
    return tuple(relabel_outputs(flip_inputs(permute_parties(b, perm), mask),
                                 beta, alpha) for b in boxes)


def _save(workdir: str, name: str, b: Behavior) -> str:
    path = os.path.join(workdir, name)
    save_behavior(b, path)
    return path


def _fail_all(req: Request, why: str, notes: list[str]) -> int:
    notes.append(why)
    return req.items


def _command_errors(outs: Outputs) -> str | None:
    for rc, _, err in outs:
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
    return None


# ---------------------------------------------------------------------------
# slice-scan

SCAN_STEP = 0.2
PERMUTATIONS = tuple(itertools.permutations(range(3)))


def _scan_grid() -> list[tuple[int, int]]:
    k = round(1.0 / SCAN_STEP)
    return [(g, e) for e in range(k + 1) for g in range(k + 1) if g + e <= k]


def build_slice_scan(rng: np.random.Generator, workdir: str) -> Plan:
    """The default slice plus one relabeled copy of it per party
    permutation.  Input and output relabelings leave the task's cost
    unchanged but party permutations do not, so every cycle holds each
    permutation once and the seed draws the rest of the relabeling."""
    base = (named_box("box45", parties=3),
            named_box("deterministic-zero", parties=3),
            named_box("white", parties=3))
    rows = 2 * len(_scan_grid())
    slices = [(base, "default")]
    for s, perm in enumerate(PERMUTATIONS):
        gens = relabel_all(rng, base, perm)
        slices.append((gens, ",".join(
            "file:" + _save(workdir, f"slice{s}-g{k}.json", g)
            for k, g in enumerate(gens))))
    requests = [Request(
        [["scan", "--slice", arg, "--grid-step", str(SCAN_STEP),
          "--criterion", "ic-multi", "--criterion", "ic-multicopy"]],
        rows, {"biases": [ref_biases(g) for g in gens]})
        for gens, arg in (slices[i] for i in rng.permutation(len(slices)))]
    return Plan(["scan", "--grid-step", "0.5"], requests,
                f"{len(slices)} slices of 3-party boxes per cycle (the "
                f"default and one relabeling of it per party permutation), "
                f"each a {len(_scan_grid())}-point grid (step {SCAN_STEP}) "
                f"x 2 criteria = {rows} CSV rows",
                "3-party task joint: 2^15 atoms x 8 B = 262144 B")


def check_slice_scan(req: Request, outs: Outputs, notes: list[str]) -> int:
    err = _command_errors(outs)
    if err:
        return _fail_all(req, err, notes)
    lines = list(csv.reader(outs[0][1].splitlines()))
    if not lines or lines[0] != ["gamma", "epsilon", "criterion", "lhs",
                                 "rhs", "margin", "violated"]:
        return _fail_all(req, "bad scan CSV header", notes)
    got: dict[tuple[int, int, str], list[str]] = {}
    for row in lines[1:]:
        g, e = float(row[0]) / SCAN_STEP, float(row[1]) / SCAN_STEP
        key = (round(g), round(e), row[2])
        if abs(g - key[0]) > 1e-9 or abs(e - key[1]) > 1e-9 or key in got:
            return _fail_all(req, f"off-grid or repeated row {row}", notes)
        got[key] = row
    want = {(g, e, c) for g, e in _scan_grid()
            for c in ("ic-multi", "ic-multicopy")}
    if set(got) - want:
        return _fail_all(req, f"unexpected rows {sorted(set(got) - want)}",
                         notes)
    (e1, e2) = np.array(req.expect["biases"]).T
    failed = 0
    for key in sorted(want):
        row = got.get(key)
        if row is None:
            notes.append(f"missing scan row {key}")
            failed += 1
            continue
        gamma, eps = key[0] * SCAN_STEP, key[1] * SCAN_STEP
        lhs, rhs, margin = map(float, row[3:6])
        violated = row[6] == "true"
        ok = close(margin, lhs - rhs) and violated == (margin > TOL)
        if key[2] == "ic-multicopy":
            w = np.array([gamma, eps, 1.0 - gamma - eps])
            want_lhs = float(w @ e1) ** 2 + float(w @ e2) ** 2
            ok = ok and close(lhs, want_lhs) and rhs == 1.0
        elif key[0] == 0:  # gamma = 0 is a local box
            ok = ok and margin <= TOL
        if not ok:
            notes.append(f"scan row {row} fails its check")
            failed += 1
    return failed


def probe_slice_scan(req: Request) -> Request:
    """Shift the first generator's biases: the ic-multicopy rows with
    gamma > 0 no longer match."""
    (e1, e2), *rest = req.expect["biases"]
    return Request(req.argvs, req.items,
                   {"biases": [(e1 + 0.1, e2 + 0.1), *rest]})


# ---------------------------------------------------------------------------
# boundary-rays

RAYS = 16                # rays per cycle, one per stratum of [0, 0.99)
RAY_CRITERIA = ("ic-multicopy", "ic-multi")


def build_boundary_rays(rng: np.random.Generator, workdir: str) -> Plan:
    strata = (np.arange(RAYS) + rng.uniform(0.0, 1.0, RAYS)) / RAYS * 0.99
    requests = []
    for eps in rng.permutation(strata):
        arg = f"{min(float(eps), 0.989999):.6f}"
        requests.append(Request(
            [["boundary", "--criterion", c, "--epsilon-slice", arg]
             for c in RAY_CRITERIA], 1, {"epsilon": float(arg)}))
    return Plan(["boundary", "--criterion", "ic-multicopy",
                 "--epsilon-slice", "0.5"], requests,
                f"{RAYS} rays of the default 3-party slice per cycle, one "
                f"per stratum of epsilon in [0, 0.99), each bisected for "
                f"{' and '.join(RAY_CRITERIA)} to {BISECTION_TOL}",
                "3-party task joint: 2^15 atoms x 8 B = 262144 B")


def check_boundary_rays(req: Request, outs: Outputs,
                        notes: list[str]) -> int:
    err = _command_errors(outs)
    if err:
        return _fail_all(req, err, notes)
    eps = req.expect["epsilon"]
    closed = multicopy_gamma_star(eps)
    stars = []
    for (_, text, _), criterion in zip(outs, RAY_CRITERIA):
        lines = text.splitlines()
        row = lines[1].split(",") if len(lines) == 2 else []
        try:
            ok = (lines[0] == "criterion,epsilon,gamma_star,bracket_width"
                  and row[0] == criterion and float(row[1]) == eps
                  and float(row[3]) <= BISECTION_TOL * (1 + 1e-9))
            stars.append(float(row[2]))
        except (IndexError, ValueError):
            ok = False
        if not ok:
            return _fail_all(req, f"{criterion} ray at {eps}: {text!r}",
                             notes)
    if abs(stars[0] - closed) > BISECTION_TOL or not stars[1] > closed:
        return _fail_all(req, f"ray {eps}: gamma* {stars} vs closed form "
                              f"{closed}", notes)
    return 0


def probe_boundary_rays(req: Request) -> Request:
    return Request(req.argvs, req.items,
                   {"epsilon": req.expect["epsilon"] + 0.05})


# ---------------------------------------------------------------------------
# catalog-classify

CATALOGS = 4             # catalogs per cycle
CATALOG_SIZE = 64        # the 3 bundled classes + synthetic entries
CATALOG_RHS = {"ic-multicopy": 1.0, "uffink-3": 16.0}


def bundled_catalog_path() -> str:
    return str(resources.files("icbox").joinpath("data/example_catalog.json"))


def build_catalog_classify(rng: np.random.Generator, workdir: str) -> Plan:
    bundled = load_catalog(bundled_catalog_path())
    sources = {e.class_id: e.behavior for e in bundled}
    if set(sources) != set(PUBLISHED_ROWS):
        raise ValueError(f"bundled catalog holds classes {sorted(sources)}")
    # orbit maxima of the sources, only to keep the mixtures' values away
    # from the thresholds: w^2 * lhs must not sit at rhs
    near = {cid: [math.sqrt(CATALOG_RHS[c] / rep.lhs)
                  for c, rep in reps.items() if rep.lhs > 0.0]
            for cid, reps in classify_catalog(bundled).rows.items()}
    white = named_box("white", parties=3)
    requests = []
    for c in range(CATALOGS):
        entries = [{"class": cid, "behavior": to_json_obj(b)}
                   for cid, b in sources.items()]
        origin = {}
        for k in range(CATALOG_SIZE - len(sources)):
            # a fixed mix of sources and of pure copies (1 in 4), which
            # serialize fewer nonzero entries than the mixtures
            cid = sorted(sources)[k % len(sources)]
            w = 1.0
            while k % 4:
                w = float(rng.uniform(0.3, 1.0))
                if all(abs(w - t) > 1e-3 for t in near[cid]):
                    break
            box = sources[cid] if w == 1.0 else mix(
                [(w, sources[cid]), (1.0 - w, white)])
            (box,) = relabel_all(rng, (box,), rng.permutation(3).tolist())
            entries.append({"class": SYNTHETIC_ID0 + k,
                            "behavior": to_json_obj(box)})
            origin[SYNTHETIC_ID0 + k] = (cid, w)
        path = os.path.join(workdir, f"catalog{c}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entries, fh)
        requests.append(Request([["classify", "--catalog", path, "--json"]],
                                CATALOG_SIZE,
                                {"origin": origin, "rows": PUBLISHED_ROWS}))
    return Plan(["classify", "--json"], requests,
                f"{CATALOGS} catalogs of {CATALOG_SIZE} 3-party entries per "
                f"cycle: bundled classes 1, 45, 46 plus relabeled copies and "
                f"white-noise mixtures of them",
                "relabeled variants: 3072 x 64 x 8 B = 1572864 B (and the "
                "int64 index maps, the same size)")


def check_catalog_classify(req: Request, outs: Outputs,
                           notes: list[str]) -> int:
    err = _command_errors(outs)
    if err:
        return _fail_all(req, err, notes)
    res = json.loads(outs[0][1])
    classes = res["classes"]
    origin = req.expect["origin"]
    flagged = {}
    for line in res["diff"]:
        parts = line.split()
        flagged[(int(parts[2]), parts[3].rstrip(":"))] = line
    failed = 0
    for cid in [*req.expect["rows"], *origin]:
        rows = classes.get(str(cid))
        ok = rows is not None
        for k, crit in enumerate(CATALOG_RHS):
            if not ok:
                break
            rep = rows[crit]
            if cid in origin:
                src, w = origin[cid]
                want = w * w * classes[str(src)][crit]["lhs"]
                want_violated = want - CATALOG_RHS[crit] > TOL
                # ids >= 1000 are not in the published rows, so classify
                # reports each violated one as a mismatch
                want_flag = want_violated
            else:  # a published class: its row decides, and no diff line
                want = rep["lhs"]
                want_violated = req.expect["rows"][cid][k]
                want_flag = False
            ok = (close(rep["lhs"], want) and rep["rhs"] == CATALOG_RHS[crit]
                  and rep["violated"] == want_violated
                  and ((cid, crit) in flagged) == want_flag)
        if not ok:
            notes.append(f"catalog entry {cid} fails its check")
            failed += 1
    return failed


def probe_catalog_classify(req: Request) -> Request:
    """Expect class 45 not to violate ic-multicopy, as a wrong catalog row
    would say."""
    rows = dict(req.expect["rows"])
    rows[45] = (False, rows[45][1])
    return Request(req.argvs, req.items, {**req.expect, "rows": rows})


# ---------------------------------------------------------------------------
# multiparty-eval

BOXES = {2: 2, 3: 2, 4: 2}   # boxes per party count per cycle; box 0 local
CRITERIA = {
    2: ("ic-bipartite", "ic-bipartite-strong", "ic-multi", "ic-multicopy",
        "ic-success-bound", "uffink-2", "ic-noisy"),
    3: ("ic-multi", "ic-multicopy", "ic-success-bound", "uffink-3",
        "ic-noisy"),
    4: ("ic-multi", "ic-multicopy", "ic-success-bound", "ic-noisy"),
}


def build_multiparty_eval(rng: np.random.Generator, workdir: str) -> Plan:
    requests = []
    for n, count in BOXES.items():
        dets = list(all_local_deterministic(n))
        extremal = named_box("pr") if n == 2 else named_box("box45",
                                                             parties=n)
        for i in range(count):
            weights = rng.dirichlet(np.ones(len(dets)))
            w = 0.0 if i == 0 else float(rng.uniform(0.2, 1.0))
            box = mix([(w, extremal)]
                      + [(float((1.0 - w) * p), d)
                         for p, d in zip(weights, dets)])
            uri = "file:" + _save(workdir, f"box{n}-{i}.json", box)
            e1, e2 = ref_biases(box)
            base = {"parties": n, "local": w == 0.0, "biases": (e1, e2),
                    "box": f"{n}-{i}"}
            noisy_eps = 0.0 if i % 2 == 0 else round(
                float(rng.uniform(0.05, 0.45)), 6)
            for crit in CRITERIA[n]:
                argv = ["eval", "--box", uri, "--criterion", crit, "--json"]
                expect = {**base, "kind": "eval", "criterion": crit}
                if crit == "ic-success-bound":
                    depth = int(rng.integers(1, 4))
                    argv += ["--depth", str(depth)]
                    expect["want_lhs"] = ref_success_bound(e1, e2, depth, n)
                elif crit in ("ic-multicopy", "uffink-2"):
                    expect["want_lhs"] = e1 * e1 + e2 * e2
                elif crit == "uffink-3":
                    expect["canonical"] = ref_uffink3_canonical(box)
                elif crit == "ic-noisy":
                    argv += ["--epsilon-channel", str(noisy_eps)]
                    expect["equals_ic_multi"] = noisy_eps == 0.0
                requests.append(Request([argv], 1, expect))
            requests.append(Request([["protocol", "--box", uri]], 1,
                                    {**base, "kind": "protocol"}))
            depth = int(rng.integers(1, 4))
            z = "".join(str(int(v)) for v in rng.integers(0, 2, depth))
            closed = ref_closed(e1, e2, depth, z.count("1"))
            for flag in ([], ["--closed"]):
                requests.append(Request(
                    [["concat", "--box", uri, "--depth", str(depth),
                      "--z", z, *flag]], 1,
                    {**base, "kind": "concat", "want": closed}))
    order = rng.permutation(len(requests))
    share = sum(r.expect["parties"] == 4 for r in requests) / len(requests)
    return Plan(["eval", "--box", "builtin:box45", "--criterion", "uffink-3",
                 "--json"], [requests[i] for i in order],
                f"{len(requests)} invocations per cycle on "
                f"{sum(BOXES.values())} boxes ({BOXES} by party count); "
                f"{share:.0%} of invocations on 4-party boxes",
                "4-party ic-noisy task joint: 2^21 atoms x 8 B = 16777216 B "
                "(ic-multi: 2^20 atoms = 8388608 B)")


def _check_mpe_request(req: Request, outs: Outputs,
                       multi: dict[str, dict]) -> bool:
    ex = req.expect
    text = outs[0][1]
    e1, e2 = ex["biases"]
    if ex["kind"] == "protocol":
        vals = dict(tok.split("=") for tok in text.split())
        return (close(float(vals["E_I"]), e1) and close(float(vals["E_II"]), e2)
                and close(float(vals["p_success_choice1"]), (1 + e1) / 2)
                and close(float(vals["p_success_choice2"]), (1 + e2) / 2))
    if ex["kind"] == "concat":
        return close(float(text), ex["want"])
    rep = json.loads(text)
    ok = (rep["criterion"] == ex["criterion"]
          and close(rep["margin"], rep["lhs"] - rep["rhs"], 1e-12)
          and rep["violated"] == (rep["margin"] > TOL))
    if ex["local"]:
        ok = ok and not rep["violated"]
    if "want_lhs" in ex:
        ok = ok and close(rep["lhs"], ex["want_lhs"])
    if "canonical" in ex:
        ok = (ok and close(rep["details"]["canonical"], ex["canonical"])
              and rep["lhs"] >= ex["canonical"] - TOL)
    if ex.get("equals_ic_multi"):
        ref = multi[ex["box"]]
        ok = (ok and close(rep["lhs"], ref["lhs"], 1e-12)
              and close(rep["rhs"], ref["rhs"], 1e-12))
    return ok


def check_multiparty_cycle(requests: list[Request], outputs: list[Outputs],
                           notes: list[str]) -> list[int]:
    multi = {}
    for req, outs in zip(requests, outputs):
        if req.expect.get("criterion") == "ic-multi" and outs[0][0] == 0:
            multi[req.expect["box"]] = json.loads(outs[0][1])
    failed = []
    for req, outs in zip(requests, outputs):
        err = _command_errors(outs)
        try:
            ok = err is None and _check_mpe_request(req, outs, multi)
        except (KeyError, ValueError, TypeError) as exc:
            ok, err = False, f"unparsable output: {exc!r}"
        if not ok:
            notes.append(f"{req.argvs[0]}: {err or 'fails its check'}")
        failed.append(0 if ok else 1)
    return failed


def probe_multiparty_eval(req: Request) -> Request | None:
    """Expect 1% more than E_I^2 + E_II^2 from an ic-multicopy report."""
    if req.expect.get("criterion") != "ic-multicopy":
        return None
    return Request(req.argvs, req.items,
                   {**req.expect, "want_lhs": 1.01 * req.expect["want_lhs"]
                    + 0.01})


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[np.random.Generator, str], Plan]
    check: Callable[[list[Request], list[Outputs], list[str]], list[int]]
    # the request with a deliberately wrong expectation, None to skip one
    probe: Callable[[Request], Request | None]


def _per_request(check) -> Callable:
    def check_cycle(requests, outputs, notes):
        return [check(r, o, notes) for r, o in zip(requests, outputs)]
    return check_cycle


WORKLOADS = {w.name: w for w in (
    Workload("slice-scan",
             "many small 3-party evaluations: protocol, entropy and scan "
             "per-call cost dominate",
             build_slice_scan, _per_request(check_slice_scan),
             probe_slice_scan),
    Workload("boundary-rays",
             "the same point evaluations driven by bisection, not a grid",
             build_boundary_rays, _per_request(check_boundary_rays),
             probe_boundary_rays),
    Workload("catalog-classify",
             "JSON load, validate and relabeling-orbit gathers; never builds "
             "a task joint or calls entropy",
             build_catalog_classify, _per_request(check_catalog_classify),
             probe_catalog_classify),
    Workload("multiparty-eval",
             "2- to 4-party eval, protocol and concat invocations: the only "
             "cover of 4-party joints, ic-noisy and per-invocation overhead",
             build_multiparty_eval, check_multiparty_cycle,
             probe_multiparty_eval),
)}


def check_probe(workload: Workload, requests: list[Request],
                outputs: list[Outputs]) -> bool:
    """Run the workload's check once with a deliberately wrong expectation;
    True when the check counts it as a failure."""
    idx, bad = next((i, w) for i, w in enumerate(map(workload.probe, requests))
                    if w is not None)
    wrong = list(requests)
    wrong[idx] = bad
    return workload.check(wrong, outputs, [])[idx] > 0
