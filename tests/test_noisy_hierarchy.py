"""The paper's noisy-channel hierarchy as properties of the closed forms.

With s = 1 - 2 epsilon, ic-noisy is lhs = (N-1)(g(s E_I) + g(s E_II))
against rhs = (N-1) g(s), g(y) = 1 - h((1 + y)/2).  g(y)/y^2 is a power
series in y^2 with nonnegative coefficients, so g(s x) <= x^2 g(s) for
|x| <= 1, and each g(s x)/g(s) is a weighted mean of the x^(2n) whose
weights move toward n = 1 as s shrinks.  Hence:
- the ic-noisy margin is at most (N-1) g(s) times the ic-multicopy margin
  E_I^2 + E_II^2 - 1, so a box beyond the ic-noisy boundary is beyond the
  ic-multicopy one;
- ic-noisy at epsilon = 0 is ic-multi;
- lhs/rhs is nondecreasing in epsilon.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from conftest import random_ns_box
from icbox.criteria import _guess_info, evaluate

seeds = st.integers(0, 2**32 - 1)
epsilons = st.floats(0.0, 0.5)
PARTIES = [2, 3, 4, 5, 6]
EPS_GRID = np.linspace(0.0, 0.5, 51)[:-1]   # rhs is 0 at epsilon = 1/2


@pytest.mark.parametrize("parties", PARTIES)
@settings(max_examples=10, deadline=None)
@given(seed=seeds, eps=epsilons)
def test_noisy_violation_is_multicopy_violation(parties, seed, eps):
    """The margins obey noisy <= (N-1) g(s) multicopy, so an ic-noisy
    violation puts the box strictly beyond the ic-multicopy boundary.  The
    flags compare each margin with the same absolute 1e-9, while the noisy
    margin carries the factor (N-1) g(s), so the check is on the margin."""
    b = random_ns_box(np.random.default_rng(seed), parties)
    noisy = evaluate("ic-noisy", b, epsilon=eps)
    multicopy = evaluate("ic-multicopy", b)
    scale = (parties - 1) * _guess_info(1.0 - 2.0 * eps)
    assert noisy.margin <= scale * multicopy.margin + 1e-12
    if noisy.violated:
        assert multicopy.margin > 0.0


@pytest.mark.parametrize("parties", PARTIES)
@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_noisy_at_zero_is_multi(parties, seed):
    b = random_ns_box(np.random.default_rng(seed), parties)
    noisy = evaluate("ic-noisy", b, epsilon=0.0)
    multi = evaluate("ic-multi", b)
    assert abs(noisy.lhs - multi.lhs) <= 1e-12
    assert abs(noisy.rhs - multi.rhs) <= 1e-12
    assert noisy.violated == multi.violated


@pytest.mark.parametrize("parties", PARTIES)
@settings(max_examples=10, deadline=None)
@given(seed=seeds, eps=st.floats(0.0, 0.499))
def test_noisy_ratio_nondecreasing_in_epsilon(parties, seed, eps):
    b = random_ns_box(np.random.default_rng(seed), parties)
    grid = np.sort(np.append(EPS_GRID, eps))
    ratios = []
    for e in grid.tolist():
        rep = evaluate("ic-noisy", b, epsilon=e)
        ratios.append(rep.lhs / rep.rhs)
    assert all(b >= a - 1e-10 for a, b in zip(ratios, ratios[1:])), ratios
