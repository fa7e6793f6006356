"""Parameter sweeps over a two-parameter slice of the no-signaling set,
criterion boundary location on the margin, and catalog classification.

The default slice mixes three 3-party generators,

    p(gamma, epsilon) = gamma p_45 + epsilon p_D + (1 - gamma - epsilon) p_W,

with p_45 the XOR-game extremal box, p_D the deterministic all-zeros box and
p_W white noise.  `epsilon` here is always the slice mixing weight; channel
noise is a separate knob named epsilon_channel throughout.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .behaviors import Behavior, CatalogEntry, mix, named_box
from .criteria import (VIOLATION_TOL, CriterionReport, eval_uffink,
                       evaluate, multicopy_orbit_max)

BISECTION_TOL = 1e-6
DEFAULT_GRID_STEP = 0.01
MIN_GRID_STEP = 1e-4     # about 5e7 grid points already
DEFAULT_SCAN_CRITERIA = ("ic-multi", "ic-multicopy")

CSV_HEADER = ("gamma", "epsilon", "criterion", "lhs", "rhs", "margin",
              "violated")
BOUNDARY_HEADER = ("criterion", "epsilon", "gamma_star", "bracket_width")

REFERENCE_VIOLATORS = {
    "ic-multicopy": frozenset({35, 37, 38, 40, 41, 42, 43, 44, 45}),
    "uffink-3": frozenset({21, 22, 30, 34, 36, 39, 41, 44, 46}),
}
CLASSIFY_CRITERIA = tuple(REFERENCE_VIOLATORS)  # what classify_catalog runs


@dataclass(frozen=True)
class SliceSpec:
    """Generators (p_45-like, deterministic, white) plus grid and criteria.
    The grid has the same step along gamma and epsilon."""

    generators: tuple[Behavior, Behavior, Behavior]
    grid_step: float = DEFAULT_GRID_STEP
    criteria: tuple[str, ...] = DEFAULT_SCAN_CRITERIA

    def __post_init__(self) -> None:
        if len(self.generators) != 3:
            raise ValueError("a slice needs exactly 3 generators")
        parties = {g.parties for g in self.generators}
        if len(parties) != 1:
            raise ValueError("slice generators must share the party count")
        if not MIN_GRID_STEP <= self.grid_step <= 1.0:
            raise ValueError(f"grid step must be in [{MIN_GRID_STEP:g}, 1], "
                             f"got {self.grid_step}")

    @property
    def parties(self) -> int:
        return self.generators[0].parties


def default_slice(criteria: Sequence[str] = DEFAULT_SCAN_CRITERIA,
                  grid_step: float = DEFAULT_GRID_STEP) -> SliceSpec:
    return SliceSpec(
        generators=(named_box("box45", parties=3),
                    named_box("deterministic-zero", parties=3),
                    named_box("white", parties=3)),
        grid_step=grid_step, criteria=tuple(criteria))


def slice_point(spec: SliceSpec, gamma: float, epsilon: float) -> Behavior:
    if gamma < 0.0 or epsilon < 0.0 or gamma + epsilon > 1.0 + 1e-12:
        raise ValueError(f"need gamma, epsilon >= 0 with gamma + epsilon <= 1,"
                         f" got ({gamma}, {epsilon})")
    rest = max(0.0, 1.0 - gamma - epsilon)
    g45, g_det, g_white = spec.generators
    return mix(((gamma, g45), (epsilon, g_det), (rest, g_white)))


@dataclass(frozen=True)
class ScanRow:
    gamma: float
    epsilon: float
    criterion: str
    lhs: float
    rhs: float
    margin: float
    violated: bool


def _grid(step: float) -> list[float]:
    count = int(round(1.0 / step))
    return [round(i * step, 12) for i in range(count + 1) if i * step <= 1.0 + 1e-9]


def _eval_point(spec: SliceSpec, criterion: str, gamma: float, epsilon: float,
                depth: int | None, epsilon_channel: float | None
                ) -> CriterionReport:
    box = slice_point(spec, gamma, epsilon)
    return evaluate(criterion, box, depth=depth, epsilon=epsilon_channel)


def scan_slice(spec: SliceSpec, *, depth: int | None = None,
               epsilon_channel: float | None = None) -> list[ScanRow]:
    """Evaluate every listed criterion at every admissible grid point.

    Rows come back sorted by (epsilon, gamma, criterion).  Points with
    gamma + epsilon > 1 are outside the simplex and skipped.
    """
    rows = []
    grid = _grid(spec.grid_step)
    for eps in grid:
        for gamma in grid:
            if gamma + eps > 1.0 + 1e-9:
                continue
            for criterion in spec.criteria:
                rep = _eval_point(spec, criterion, gamma, eps, depth,
                                  epsilon_channel)
                rows.append(ScanRow(gamma, eps, criterion, rep.lhs, rep.rhs,
                                    rep.margin, rep.violated))
    rows.sort(key=lambda r: (r.epsilon, r.gamma, r.criterion))
    return rows


def write_scan_csv(rows: Iterable[ScanRow], stream: io.TextIOBase) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([f"{r.gamma:.12g}", f"{r.epsilon:.12g}", r.criterion,
                         f"{r.lhs:.12g}", f"{r.rhs:.12g}", f"{r.margin:.12g}",
                         "true" if r.violated else "false"])


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"bisection tolerance must be positive and finite, "
                         f"got {tol}")


class NoCrossing(ValueError):
    """The ends of a bracket do not have f <= 0 at lo and f > 0 at hi."""


def bisect_threshold(f: Callable[[float], float], lo: float, hi: float,
                     tol: float = BISECTION_TOL) -> tuple[float, float]:
    """Shrink [lo, hi] to width <= tol keeping f(lo) <= 0 < f(hi).

    f is signed: "crossed" means f(x) > 0, so f == 0 counts as not crossed,
    and a bool predicate works too (True > 0).  f is evaluated at both ends
    first; NoCrossing is raised when they do not bracket.  Then the ITP
    method (Oliveira and Takahashi, ACM TOMS 47(1), art. 5, 2020) with
    kappa1 = 0.1 / (hi - lo), kappa2 = 2 and n0 = 1: a regula falsi step,
    truncated towards the midpoint and projected into the range that keeps
    at most ceil(log2((hi - lo) / tol)) + 1 further evaluations.  It falls
    back to the midpoint when the f values are not finite, and stops early
    once lo and hi are adjacent floats, where no point lies strictly
    between them."""
    _check_tol(tol)
    f_lo, f_hi = float(f(lo)), float(f(hi))
    if f_lo > 0:
        raise NoCrossing(f"predicate already true at {lo}")
    if not f_hi > 0:
        raise NoCrossing(f"predicate never turns true by {hi}")
    width = hi - lo
    if not width > tol:
        return lo, hi
    kappa1 = 0.1 / width
    # bisection needs n steps, the least n with tol 2^n >= width
    n = math.ceil(math.log2(width) - math.log2(tol))
    if math.ldexp(tol, n - 1) >= width:
        n -= 1
    elif math.ldexp(tol, n) < width:
        n += 1
    n_max = n + 1
    # step j leaves a bracket at most eps 2^(n_max - j) wide (each ITP
    # point lies within r of the midpoint), so n_max steps reach 2 eps <= tol
    # with `slack` to spare for rounding; within a few float spacings of the
    # ends there is no room for slack, and eps = 0 makes every step bisect
    slack = 8.0 * math.ulp(max(abs(lo), abs(hi)))
    eps = 0.5 * (tol - slack) if tol >= 4.0 * slack else 0.0
    j = 0
    while hi - lo > tol:
        width = hi - lo
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        x = mid
        rise = f_hi - f_lo
        if math.isfinite(rise):
            x_f = lo - width * (f_lo / rise)   # regula falsi
            sigma = math.copysign(1.0, mid - x_f)
            delta = kappa1 * width * width
            if delta <= abs(mid - x_f):
                x_f += sigma * delta           # truncate towards the middle
            else:
                x_f = mid
            r = max(math.ldexp(eps, n_max - j) - 0.5 * width, 0.0)
            x = x_f if abs(x_f - mid) <= r else mid - sigma * r
            if not lo < x < hi:
                x = mid
        f_x = float(f(x))
        if f_x > 0:
            hi, f_hi = x, f_x
        else:
            lo, f_lo = x, f_x
        j += 1
    return lo, hi


@dataclass(frozen=True)
class BoundaryPoint:
    criterion: str
    epsilon: float
    gamma_star: float | None
    bracket_width: float | None
    status: str  # "ok" or "no boundary on ray"


def boundary(spec: SliceSpec, criterion: str, epsilon: float,
             tol: float = BISECTION_TOL, *, depth: int | None = None,
             epsilon_channel: float | None = None) -> BoundaryPoint:
    """Critical gamma on the fixed-epsilon ray, located on the margin.

    The ray runs from gamma = 0 to gamma = 1 - epsilon.  A boundary is
    reported only when the criterion is satisfied at the bottom and violated
    at the top (certified bracket); anything else is "no boundary on ray".
    bisect_threshold runs on margin - VIOLATION_TOL, which is > 0 exactly
    when the report says violated (m - t > 0 iff m > t for IEEE doubles).
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    _check_tol(tol)

    def excess(gamma: float) -> float:
        return _eval_point(spec, criterion, gamma, epsilon, depth,
                           epsilon_channel).margin - VIOLATION_TOL

    try:
        lo, hi = bisect_threshold(excess, 0.0, 1.0 - epsilon, tol)
    except NoCrossing:
        return BoundaryPoint(criterion, epsilon, None, None,
                             "no boundary on ray")
    return BoundaryPoint(criterion, epsilon, 0.5 * (lo + hi), hi - lo, "ok")


def write_boundary_csv(points: Iterable[BoundaryPoint],
                       stream: io.TextIOBase) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(BOUNDARY_HEADER)
    for p in points:
        if p.status == "ok":
            writer.writerow([p.criterion, f"{p.epsilon:.12g}",
                             f"{p.gamma_star:.12g}", f"{p.bracket_width:.12g}"])
        else:
            writer.writerow([p.criterion, f"{p.epsilon:.12g}",
                             p.status, ""])


@dataclass(frozen=True)
class ClassificationResult:
    """Per-class violation flags plus the comparison against the published
    violator rows.  Orbit maxima are used for both criteria so arbitrary
    labelings of the class representatives cannot hide a violation."""

    rows: dict[int, dict[str, CriterionReport]]

    def violators(self, criterion: str) -> list[int]:
        return sorted(cid for cid, reps in self.rows.items()
                      if reps[criterion].violated)

    def diff_vs_reference(self) -> list[str]:
        """Labeled mismatch lines against the published rows; empty when every
        class present in the catalog agrees.  Classes absent from the catalog
        are reported as coverage gaps, not mismatches."""
        lines = []
        for criterion, want in REFERENCE_VIOLATORS.items():
            for cid in sorted(self.rows):
                expect = cid in want
                got = self.rows[cid][criterion].violated
                if expect != got:
                    lines.append(
                        f"MISMATCH class {cid} {criterion}: reference says "
                        f"violated={str(expect).lower()}, computed "
                        f"violated={str(got).lower()}")
        return lines

    def coverage_gaps(self) -> list[int]:
        referenced = frozenset().union(*REFERENCE_VIOLATORS.values())
        return sorted(referenced - set(self.rows))

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "criteria": list(CLASSIFY_CRITERIA),
            "classes": {str(cid): {c: reps[c].to_json_obj()
                                   for c in CLASSIFY_CRITERIA}
                        for cid, reps in sorted(self.rows.items())},
            "violators": {c: self.violators(c) for c in CLASSIFY_CRITERIA},
            "reference_violators": {c: sorted(want) for c, want
                                    in REFERENCE_VIOLATORS.items()},
            "diff": self.diff_vs_reference(),
            "missing_classes": self.coverage_gaps(),
        }

    def text_table(self) -> str:
        head = ["class"] + [f"{c} (lhs)" for c in CLASSIFY_CRITERIA]
        body = []
        for cid, reps in sorted(self.rows.items()):
            cells = [str(cid)]
            for c in CLASSIFY_CRITERIA:
                rep = reps[c]
                mark = "violated" if rep.violated else "ok"
                cells.append(f"{mark} ({rep.lhs:.6g})")
            body.append(cells)
        widths = [max(len(row[i]) for row in [head] + body)
                  for i in range(len(head))]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        out = [fmt.format(*head)]
        out.extend(fmt.format(*row) for row in body)
        return "\n".join(out)


def classify_catalog(catalog: Sequence[CatalogEntry]) -> ClassificationResult:
    """Orbit maxima of both classification criteria for every entry.  The
    published rows are the tripartite classes, so every entry must have 3
    parties; this is checked before anything is evaluated."""
    for i, entry in enumerate(catalog):
        if entry.behavior.parties != 3:
            raise ValueError(f"catalog entry {i} (class {entry.class_id}) "
                             f"has {entry.behavior.parties} parties; "
                             f"classification needs 3")
    return ClassificationResult({
        entry.class_id: {"ic-multicopy": multicopy_orbit_max(entry.behavior),
                         "uffink-3": eval_uffink(entry.behavior)}
        for entry in catalog})
