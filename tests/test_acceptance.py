"""Acceptance gate: nine end-to-end checks, one printed PASS/FAIL line each.

Run with plain pytest; the lines print even without -s.  Check 6 classifies
an external full catalog when ICBOX_CATALOG points at one, and otherwise
falls back to the bundled partial catalog plus a forced-mismatch probe of
the diff mechanism.
"""

import itertools
import os
import time

import numpy as np

from conftest import Channel, apply_channel, random_local_mixture
from icbox.behaviors import (CatalogEntry, all_local_deterministic,
                             load_catalog, named_box)
from icbox.cli import _bundled_catalog_path
from icbox.criteria import (VIOLATION_TOL, eval_multicopy, eval_noisy_ic,
                            evaluate)
from icbox.entropy import (JointDistribution, cond_mutual_information,
                           entropy, mutual_information)
from icbox.protocol import (concat_success_closed, concat_success_simulated,
                            single_copy_joint)
from icbox.scan import (REFERENCE_VIOLATORS, bisect_threshold, boundary,
                        classify_catalog, default_slice)

ROOT_HALF = 2.0 ** -0.5


def _emit(capsys, n, ok, desc):
    with capsys.disabled():
        print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"acceptance {n} failed: {desc}"


def test_01_pr_bipartite_violation(capsys):
    t0 = time.perf_counter()
    joint = single_copy_joint(named_box("pr"))
    i1 = mutual_information(joint, "X1^1", "G1")
    i2 = mutual_information(joint, "X2^1", "G2")
    hm = entropy(joint, "M1")
    rep = evaluate("ic-bipartite", named_box("pr"))
    dt = time.perf_counter() - t0
    ok = (abs(i1 - 1.0) <= 1e-12 and abs(i2 - 1.0) <= 1e-12
          and abs(hm - 1.0) <= 1e-12 and abs(rep.margin - 1.0) <= 1e-12
          and rep.violated and dt < 1.0)
    _emit(capsys, 1, ok,
          f"PR box: I(X1:G1)={i1:.15f} I(X2:G2)={i2:.15f} H(M)={hm:.15f} "
          f"margin=+{rep.margin:.15f} [{dt:.2f}s]")


def test_02_tripartite_maximal_violation(capsys):
    t0 = time.perf_counter()
    rep = evaluate("ic-multi", named_box("box45"))
    dt = time.perf_counter() - t0
    hm = rep.details["message_entropy"]
    ok = (abs(rep.lhs - 4.0) <= 1e-12 and abs(hm - 2.0) <= 1e-12
          and rep.violated and dt < 1.0)
    _emit(capsys, 2, ok,
          f"box45(3): guess-information sum={rep.lhs:.15f} "
          f"H(M1,M2)={hm:.15f} [{dt:.2f}s]")


def test_03_multicopy_threshold(capsys):
    t0 = time.perf_counter()
    lo, hi = bisect_threshold(
        lambda e: eval_multicopy(named_box("isotropic", bias=e)).margin
        - VIOLATION_TOL, 0.0, 1.0, tol=1e-6)
    e_star = 0.5 * (lo + hi)
    dt = time.perf_counter() - t0
    ok = abs(e_star - ROOT_HALF) <= 1e-6 and dt < 5.0
    _emit(capsys, 3, ok,
          f"two-copy critical bias E*={e_star:.9f} vs 1/sqrt(2)="
          f"{ROOT_HALF:.9f} (|diff|={abs(e_star - ROOT_HALF):.2e}) [{dt:.2f}s]")


def test_04_concatenation_oracle(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for e in (0.0, 0.3, 0.7, 1.0):
        b = named_box("isotropic", bias=e)
        for depth in (1, 2, 3):
            for z in itertools.product((0, 1), repeat=depth):
                sim = concat_success_simulated(b, depth, z)
                closed = concat_success_closed(e, e, depth, sum(z))
                worst = max(worst, abs(sim - closed))
                count += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 120.0
    _emit(capsys, 4, ok,
          f"exact tree enumeration vs closed form: {count} cases, "
          f"worst |diff|={worst:.2e} [{dt:.2f}s]")


def test_05_slice_boundary_ordering(capsys):
    t0 = time.perf_counter()
    spec = default_slice()
    edge = boundary(spec, "ic-multicopy", 0.0)
    ok = (edge.status == "ok"
          and abs(edge.gamma_star - ROOT_HALF) <= 1e-6)
    ordered = 0
    eps_grid = [round(i * 0.01, 12) for i in range(101)]
    for eps in eps_grid:
        mc = boundary(spec, "ic-multicopy", eps)
        mu = boundary(spec, "ic-multi", eps)
        if eps >= 1.0:
            ok = ok and mc.status == "no boundary on ray" \
                and mu.status == "no boundary on ray"
            continue
        ok = ok and mc.status == "ok" and mu.status == "ok" \
            and mu.gamma_star > mc.gamma_star
        ordered += 1
    dt = time.perf_counter() - t0
    ok = ok and dt < 300.0
    _emit(capsys, 5, ok,
          f"edge gamma*={edge.gamma_star:.9f} (|diff 1/sqrt(2)|="
          f"{abs(edge.gamma_star - ROOT_HALF):.2e}); single-copy boundary "
          f"above two-copy boundary on {ordered}/{ordered} rays with a "
          f"boundary [{dt:.1f}s]")


def test_06_catalog_classification(capsys):
    t0 = time.perf_counter()
    external = os.environ.get("ICBOX_CATALOG")
    if external:
        catalog = load_catalog(external)
        result = classify_catalog(catalog)
        diff = result.diff_vs_reference()
        gaps = result.coverage_gaps()
        ok = (not diff and not gaps
              and set(result.violators("ic-multicopy"))
              == set(REFERENCE_VIOLATORS["ic-multicopy"])
              and set(result.violators("uffink-3"))
              == set(REFERENCE_VIOLATORS["uffink-3"]))
        mode = (f"external catalog ({len(catalog)} classes): "
                f"both violator rows match, diff={diff or 'none'}")
    else:
        catalog = load_catalog(_bundled_catalog_path())
        result = classify_catalog(catalog)
        diff = result.diff_vs_reference()
        # the diff mechanism itself must fire on a wrong catalog
        probe = classify_catalog([CatalogEntry(45, named_box("white"))])
        probe_diff = probe.diff_vs_reference()
        ok = (diff == [] and len(probe_diff) == 1
              and probe_diff[0].startswith("MISMATCH class 45"))
        mode = (f"bundled catalog ({len(catalog)} classes agree, "
                f"{len(result.coverage_gaps())} absent); mismatch probe "
                f"emits: {probe_diff[0][:40]}...")
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    _emit(capsys, 6, ok, f"{mode} [{dt:.2f}s]")


def test_07_local_boxes_satisfy(capsys):
    t0 = time.perf_counter()
    boxes = list(all_local_deterministic(3))
    complete = len(boxes) == 4 ** 3  # every per-party strategy combination
    worst = -np.inf
    for b in boxes:
        worst = max(worst, evaluate("ic-multi", b).margin)
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        worst = max(worst, evaluate("ic-multi",
                                    random_local_mixture(rng, 3)).margin)
    dt = time.perf_counter() - t0
    ok = complete and worst <= 1e-9 and dt < 600.0
    _emit(capsys, 7, ok,
          f"all {len(boxes)} three-party local deterministic boxes "
          f"(complete enumeration) + 1000 random mixtures: worst margin "
          f"{worst:.2e} [{dt:.1f}s]")


def test_08_entropy_engine_properties(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)
    runs = 10_000
    worst_chain = worst_ssa = worst_dpi = worst_channel = 0.0
    for _ in range(runs):
        cards = tuple(rng.integers(2, 4, size=3))
        p = rng.dirichlet(np.ones(int(np.prod(cards)))).reshape(cards)
        d = JointDistribution(("A", "B", "C"), p)
        gap = (mutual_information(d, "A", ("B", "C"))
               - mutual_information(d, "A", "B")
               - cond_mutual_information(d, "A", "C", "B"))
        worst_chain = max(worst_chain, abs(gap))
        worst_ssa = max(worst_ssa, -cond_mutual_information(d, "A", "B", "C"))
    for _ in range(runs):
        ka, kb, kc = rng.integers(2, 4, size=3)
        pa = rng.dirichlet(np.ones(ka))
        pba = rng.dirichlet(np.ones(kb), size=ka)
        pcb = rng.dirichlet(np.ones(kc), size=kb)
        markov = JointDistribution(
            ("A", "B", "C"), np.einsum("a,ab,bc->abc", pa, pba, pcb))
        worst_dpi = max(worst_dpi,
                        mutual_information(markov, "A", "C")
                        - mutual_information(markov, "A", "B"))
    for _ in range(runs):
        kv = int(rng.integers(2, 4))
        p = rng.dirichlet(np.ones(2 * kv)).reshape(2, kv)
        d = JointDistribution(("M", "V"), p)
        noisy = apply_channel(d, "M", Channel(float(rng.uniform(0, 0.5))),
                              "Mp")
        worst_channel = max(worst_channel,
                            cond_mutual_information(noisy, "Mp", "V", "M"))
    dt = time.perf_counter() - t0
    ok = (worst_chain <= 1e-12 and worst_ssa <= 1e-12
          and worst_dpi <= 1e-12 and worst_channel <= 1e-12 and dt < 120.0)
    _emit(capsys, 8, ok,
          f"{runs} runs each: chain rule {worst_chain:.1e}, "
          f"SSA {worst_ssa:.1e}, data processing {worst_dpi:.1e}, "
          f"channel independence {worst_channel:.1e} [{dt:.1f}s]")


def test_09_noisy_channel_agreement(capsys):
    t0 = time.perf_counter()

    def critical_bias(eps):
        # both sides of the noisy criterion scale with the channel capacity,
        # which vanishes as eps -> 0.5; find the margin's root, since a
        # fixed absolute violation tolerance would bias the boundary upward
        lo, hi = bisect_threshold(
            lambda e: eval_noisy_ic(named_box("isotropic", bias=e),
                                    eps).margin,
            0.0, 1.0, tol=1e-6)
        return 0.5 * (lo + hi)

    sweep = (0.3, 0.4, 0.45, 0.49, 0.499)
    stars = [critical_bias(eps) for eps in sweep]
    monotone = all(b <= a + 2e-6 for a, b in zip(stars, stars[1:]))
    final_gap = abs(stars[-1] - ROOT_HALF)
    dt = time.perf_counter() - t0
    ok = monotone and final_gap <= 0.01 and dt < 300.0
    desc = ", ".join(f"E*({eps})={s:.6f}" for eps, s in zip(sweep, stars))
    _emit(capsys, 9, ok,
          f"{desc}; non-increasing={monotone}, "
          f"|E*(0.499) - 1/sqrt(2)|={final_gap:.2e} [{dt:.1f}s]")
