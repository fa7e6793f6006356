import io
import math

import numpy as np
import pytest

from conftest import flag_bisection, make_svetlichny
from icbox import scan
from icbox.behaviors import CatalogEntry, named_box
from icbox.criteria import evaluate
from icbox.scan import (BISECTION_TOL, BOUNDARY_HEADER, CSV_HEADER,
                        REFERENCE_VIOLATORS, SliceSpec, bisect_threshold,
                        boundary, classify_catalog, default_slice, scan_slice,
                        slice_point, write_boundary_csv, write_scan_csv)


def test_slice_point_values():
    spec = default_slice()
    assert np.allclose(slice_point(spec, 1.0, 0.0).table,
                       named_box("box45").table, atol=1e-15)
    assert np.allclose(slice_point(spec, 0.0, 0.0).table,
                       named_box("white").table, atol=1e-15)
    assert np.allclose(slice_point(spec, 0.0, 1.0).table,
                       named_box("deterministic-zero").table, atol=1e-15)


def test_slice_point_domain():
    spec = default_slice()
    with pytest.raises(ValueError):
        slice_point(spec, -0.1, 0.0)
    with pytest.raises(ValueError):
        slice_point(spec, 0.0, -0.1)
    with pytest.raises(ValueError):
        slice_point(spec, 0.7, 0.4)


def test_slice_spec_validation():
    with pytest.raises(ValueError):
        SliceSpec(generators=(named_box("white"), named_box("white")))
    with pytest.raises(ValueError):
        SliceSpec(generators=(named_box("white", parties=2),
                              named_box("white"), named_box("white")))
    with pytest.raises(ValueError):
        default_slice(grid_step=0.0)
    with pytest.raises(ValueError):
        default_slice(grid_step=1.5)
    assert default_slice().parties == 3


def test_scan_small_grid():
    spec = default_slice(grid_step=0.5)
    rows = scan_slice(spec)
    # 6 admissible points x 2 criteria
    assert len(rows) == 12
    keys = [(r.epsilon, r.gamma, r.criterion) for r in rows]
    assert keys == sorted(keys)
    assert all(r.gamma + r.epsilon <= 1.0 + 1e-9 for r in rows)

    by_key = {(r.gamma, r.epsilon, r.criterion): r for r in rows}
    top = by_key[(1.0, 0.0, "ic-multi")]
    assert top.lhs == pytest.approx(4.0, abs=1e-12)
    assert top.margin == pytest.approx(2.0, abs=1e-12)
    assert top.violated
    for criterion in ("ic-multi", "ic-multicopy"):
        assert by_key[(0.0, 0.0, criterion)].margin <= 0.0


def test_scan_frozen_point():
    spec = default_slice(criteria=("ic-multicopy",), grid_step=0.2)
    rows = scan_slice(spec)
    by_gamma = {r.gamma: r for r in rows if r.epsilon == 0.0}
    assert by_gamma[0.8].lhs == pytest.approx(2 * 0.8 ** 2, abs=1e-12)
    assert by_gamma[0.8].violated


def test_scan_csv_format():
    spec = default_slice(grid_step=1.0)
    rows = scan_slice(spec)
    buf = io.StringIO()
    write_scan_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + len(rows)
    cells = lines[-1].split(",")
    assert cells[6] in ("true", "false")
    assert cells[0] in ("0", "1") and "." not in cells[0]


def test_bisect_threshold():
    lo, hi = bisect_threshold(lambda v: v > 0.3, 0.0, 1.0, tol=1e-9)
    assert hi - lo <= 1e-9
    assert abs(0.5 * (lo + hi) - 0.3) <= 1e-9
    with pytest.raises(ValueError):
        bisect_threshold(lambda v: True, 0.0, 1.0)
    with pytest.raises(ValueError):
        bisect_threshold(lambda v: False, 0.0, 1.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_bisection_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        bisect_threshold(lambda v: v > 0.3, 0.0, 1.0, tol)
    with pytest.raises(ValueError, match="tolerance"):
        boundary(default_slice(), "ic-multicopy", 0.0, tol)


def test_bisection_stops_at_adjacent_floats():
    lo, hi = bisect_threshold(lambda v: v > 0.3, 0.0, 1.0, tol=1e-20)
    assert lo <= 0.3 < hi and np.nextafter(lo, 1.0) == hi


def test_boundary_multicopy_on_axis():
    spec = default_slice()
    point = boundary(spec, "ic-multicopy", 0.0)
    assert point.status == "ok"
    # the certified bracket holds the unique root 1/sqrt(2)
    assert abs(point.gamma_star - 1.0 / math.sqrt(2.0)) <= BISECTION_TOL / 2
    assert point.bracket_width <= BISECTION_TOL


def test_boundary_ordering_multi_vs_multicopy():
    # the single-copy entropic criterion needs more box strength than the
    # two-copy quadratic one, everywhere on the slice
    spec = default_slice()
    for eps in (0.0, 0.2):
        multi = boundary(spec, "ic-multi", eps)
        quad = boundary(spec, "ic-multicopy", eps)
        assert multi.status == "ok" and quad.status == "ok"
        assert multi.gamma_star > quad.gamma_star


def test_boundary_frozen_value():
    point = boundary(default_slice(), "ic-multi", 0.0)
    # E* solves 2(1 - h((1+E)/2)) = 1
    assert abs(point.gamma_star - 0.779944271123281) <= 2e-6


def test_boundary_absent():
    spec = default_slice(criteria=("uffink-3",))
    point = boundary(spec, "uffink-3", 0.0)
    assert point.status == "no boundary on ray"
    assert point.gamma_star is None
    # violated already at gamma = 0 cannot bracket either
    assert boundary(default_slice(), "ic-multicopy", 1.0).status == \
        "no boundary on ray"
    with pytest.raises(ValueError):
        boundary(spec, "uffink-3", 1.5)


# 101 rays for each of four criteria, plus uffink-3, which has no boundary
BATTERY = [(c, i / 100, kw) for i in range(101) for c, kw in (
    ("ic-multicopy", {}), ("ic-multi", {}),
    ("ic-noisy", {"epsilon_channel": 0.1}),
    ("ic-success-bound", {"depth": 2}))] + [
    ("uffink-3", eps, {}) for eps in (0.0, 0.3, 0.6, 0.9)]


def test_boundary_matches_flag_bisection_oracle(monkeypatch):
    """ITP on the margin keeps every status of the flag bisection and every
    gamma* within tol of it, and evaluate certifies each returned bracket."""
    spec = default_slice()
    brackets = []

    def recorded(*args):
        brackets.append(bisect_threshold(*args))
        return brackets[-1]

    monkeypatch.setattr(scan, "bisect_threshold", recorded)
    found = 0
    for criterion, eps, kw in BATTERY:
        def violated(gamma):
            return evaluate(criterion, slice_point(spec, gamma, eps),
                            depth=kw.get("depth"),
                            epsilon=kw.get("epsilon_channel")).violated

        want = flag_bisection(violated, 0.0, 1.0 - eps, BISECTION_TOL)
        brackets.clear()
        got = boundary(spec, criterion, eps, **kw)
        assert (got.status == "ok") == (want is not None), (criterion, eps)
        if want is None:
            assert brackets == []
            continue
        found += 1
        assert abs(got.gamma_star - 0.5 * sum(want)) <= BISECTION_TOL
        (lo, hi), = brackets
        assert not violated(lo) and violated(hi), (criterion, eps)
        assert got.bracket_width == hi - lo <= BISECTION_TOL
    assert found == 400  # every ray of the four criteria but eps = 1


def test_boundary_csv_format():
    spec = default_slice()
    points = [boundary(spec, "ic-multicopy", 0.0),
              boundary(spec, "uffink-3", 0.0)]
    buf = io.StringIO()
    write_boundary_csv(points, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(BOUNDARY_HEADER)
    assert lines[1].startswith("ic-multicopy,0,0.7071")
    assert lines[2] == "uffink-3,0,no boundary on ray,"


def _toy_catalog():
    return [CatalogEntry(1, named_box("deterministic-zero")),
            CatalogEntry(45, named_box("box45")),
            CatalogEntry(46, make_svetlichny())]


def test_classify_reference_consistency():
    result = classify_catalog(_toy_catalog())
    assert result.violators("ic-multicopy") == [45]
    assert result.violators("uffink-3") == [46]
    assert result.diff_vs_reference() == []
    want_gaps = sorted((REFERENCE_VIOLATORS["ic-multicopy"]
                        | REFERENCE_VIOLATORS["uffink-3"]) - {1, 45, 46})
    assert result.coverage_gaps() == want_gaps


def test_classify_mismatch_diff():
    # white noise mislabeled as class 45 must trip the reference check
    result = classify_catalog([CatalogEntry(45, named_box("white"))])
    diff = result.diff_vs_reference()
    assert diff == ["MISMATCH class 45 ic-multicopy: reference says "
                    "violated=true, computed violated=false"]


def test_classify_refuses_entries_that_are_not_tripartite(monkeypatch):
    calls = []
    monkeypatch.setattr(scan, "multicopy_orbit_max", calls.append)
    monkeypatch.setattr(scan, "eval_uffink", calls.append)
    for parties in (2, 4, 5):
        catalog = _toy_catalog() + [
            CatalogEntry(7, named_box("white", parties=parties))]
        with pytest.raises(ValueError, match=r"entry 3 \(class 7\) has "
                                             f"{parties} parties"):
            classify_catalog(catalog)
    assert calls == []  # refused before any entry is evaluated


def test_classify_empty_catalog():
    result = classify_catalog([])
    assert result.to_json_obj()["classes"] == {}
    assert result.violators("ic-multicopy") == []
    assert result.text_table() == "class  ic-multicopy (lhs)  uffink-3 (lhs)"


def test_classification_outputs():
    result = classify_catalog(_toy_catalog())
    table = result.text_table()
    lines = table.splitlines()
    assert lines[0].startswith("class")
    assert "ic-multicopy (lhs)" in lines[0]
    assert len(lines) == 4
    assert "violated (2)" in lines[2]

    obj = result.to_json_obj()
    assert obj["violators"]["ic-multicopy"] == [45]
    assert obj["reference_violators"]["uffink-3"] == sorted(
        REFERENCE_VIOLATORS["uffink-3"])
    assert obj["diff"] == []
    assert obj["classes"]["46"]["uffink-3"]["violated"] is True
