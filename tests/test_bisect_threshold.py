"""Contract of scan.bisect_threshold (ITP on a signed function) for smooth,
multi-root, step, bool, flat and infinite-valued f, down to tol = 1e-20."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from icbox.scan import NoCrossing, bisect_threshold


def _call_bound(lo: float, hi: float, tol: float) -> int:
    """ceil(log2((hi - lo) / tol)) + 1: bisection's steps plus n0 = 1."""
    n = 0
    while math.ldexp(tol, n) < hi - lo:
        n += 1
    return n + 1


def _check(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Run bisect_threshold through a counting wrapper and assert the whole
    contract: f(lo) <= 0 < f(hi), width <= tol or adjacent floats, and at
    most _call_bound evaluations after the two ends."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    a, b = bisect_threshold(counted, lo, hi, tol)
    assert calls[:2] == [lo, hi]
    assert all(lo < x < hi for x in calls[2:])
    assert lo <= a < b <= hi
    assert f(a) <= 0 < f(b)
    assert b - a <= tol or np.nextafter(a, b) == b
    assert len(calls) - 2 <= _call_bound(lo, hi, tol), (len(calls), a, b)
    return a, b


brackets = st.tuples(st.floats(-10.0, 10.0), st.floats(1e-3, 10.0)).map(
    lambda t: (t[0], t[0] + t[1]))
# every decade from 1e-20 (far below the float spacing) to 1
tols = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0),
                 st.integers(-20, -1))
roots = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(brackets, tols, roots, st.sampled_from(["linear", "cubic", "exp",
                                               "atan", "sqrt"]))
def test_smooth_monotone(bracket, tol, u, shape):
    lo, hi = bracket
    root = lo + u * (hi - lo)
    f = {"linear": lambda x: x - root,
         "cubic": lambda x: (x - root) ** 3 + 1e-3 * (x - root),
         "exp": lambda x: math.expm1(x - root),
         "atan": lambda x: math.atan(50.0 * (x - root)),
         "sqrt": lambda x: math.copysign(math.sqrt(abs(x - root)),
                                         x - root)}[shape]
    assume(f(lo) <= 0 < f(hi))
    a, b = _check(f, lo, hi, tol)
    assert a <= root <= b


@settings(max_examples=300, deadline=None)
@given(brackets, tols, st.integers(1, 7), st.floats(0.1, 3.0))
def test_several_sign_changes(bracket, tol, waves, phase):
    lo, hi = bracket
    span = hi - lo

    def f(x):
        # up-crossing at lo + 0.5 span at least, wiggles on the way
        t = (x - lo) / span
        return (t - 0.5) + 0.4 * math.sin(2 * math.pi * waves * t + phase)

    _check(f, lo, hi, tol)


@settings(max_examples=300, deadline=None)
@given(brackets, tols, roots, st.booleans())
def test_steps_and_bools(bracket, tol, u, as_bool):
    lo, hi = bracket
    edge = lo + u * (hi - lo)
    assume(edge < hi)
    if as_bool:
        def f(x):
            return x > edge
    else:
        def f(x):
            return 3.0 if x > edge else -7.0
    a, b = _check(f, lo, hi, tol)
    assert a <= edge < b


@settings(max_examples=300, deadline=None)
@given(brackets, tols, roots, st.floats(0.0, 1.0))
def test_flat_zero_stretch_counts_as_not_crossed(bracket, tol, u, v):
    lo, hi = bracket
    start = lo + u * (hi - lo)
    end = start + v * (hi - start)

    def f(x):
        # f == 0 on [start, end], negative before, positive after
        return x - start if x < start else (0.0 if x <= end else x - end)

    assume(end < hi)
    a, b = _check(f, lo, hi, tol)
    assert a <= end < b


@settings(max_examples=300, deadline=None)
@given(brackets, tols, roots, st.sampled_from(["both", "lo", "hi", "huge"]))
def test_infinite_values_fall_back_to_the_midpoint(bracket, tol, u, which):
    lo, hi = bracket
    root = lo + u * (hi - lo)
    assume(root < hi)

    def f(x):
        d = x - root
        if which == "huge":
            return math.copysign(1e308, d) if d else 0.0
        if d > 0 and which in ("both", "hi"):
            return math.inf
        if d <= 0 and which in ("both", "lo"):
            return -math.inf
        return d

    a, b = _check(f, lo, hi, tol)
    assert a <= root < b


@pytest.mark.parametrize("below", [-math.inf, -1.0])
def test_infinite_ends_take_midpoints(below):
    seen = []

    def f(x):
        seen.append(x)
        return math.inf if x > 0.3 else below

    bisect_threshold(f, 0.0, 1.0, 1e-3)
    assert seen[2:4] == [0.5, 0.25]


def test_smooth_margin_converges_fast():
    # a smooth simple root takes far fewer steps than bisection's 20
    calls = []

    def f(x):
        calls.append(x)
        return x * x - 0.5

    lo, hi = bisect_threshold(f, 0.0, 1.0, 1e-6)
    assert lo <= 2 ** -0.5 < hi and hi - lo <= 1e-6
    assert len(calls) - 2 <= 8


def test_no_crossing_is_a_value_error():
    with pytest.raises(NoCrossing, match="already true"):
        bisect_threshold(lambda x: 1.0, 0.0, 1.0)
    with pytest.raises(NoCrossing, match="never turns true"):
        bisect_threshold(lambda x: 0.0, 0.0, 1.0)
    assert issubclass(NoCrossing, ValueError)
