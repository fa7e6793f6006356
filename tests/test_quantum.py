"""Quantum boxes never violate: the paper's claim for every quantum resource,
checked on qubit boxes from random pure and GHZ states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import qubit_box
from icbox.behaviors import validate
from icbox.criteria import evaluate, multicopy_orbit_max

SQRT_HALF = np.sqrt(0.5)


def equatorial(angle):
    return (np.cos(angle), np.sin(angle), 0.0)


def draw_box(rng, parties, ghz, flat):
    """A qubit box: GHZ or a random pure state, measured along random Bloch
    directions, all on the equator when flat."""
    if ghz:
        state = np.zeros(2 ** parties)
        state[[0, -1]] = SQRT_HALF
    else:
        state = rng.normal(size=2 ** parties) + 1j * rng.normal(size=2 ** parties)
    dirs = rng.normal(size=(parties, 2, 3))
    if flat:
        dirs[..., 2] = 0.0
    return qubit_box(state, dirs)


def reports(b, epsilon):
    out = [evaluate("ic-multi", b), evaluate("ic-noisy", b, epsilon=epsilon),
           evaluate("ic-multicopy", b), multicopy_orbit_max(b)]
    out += [evaluate("ic-success-bound", b, depth=k) for k in (1, 2, 3)]
    if b.parties == 3:
        out.append(evaluate("uffink-3", b))
    return out


@pytest.mark.parametrize("parties", [2, 3, 4])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ghz=st.booleans(), flat=st.booleans(),
       epsilon=st.floats(0.0, 0.5))
def test_quantum_boxes_never_violate(parties, seed, ghz, flat, epsilon):
    b = draw_box(np.random.default_rng(seed), parties, ghz, flat)
    assert validate(b).ok
    for rep in reports(b, epsilon):
        assert not rep.violated, rep


def test_tsirelson_point_is_tight():
    """|Phi+>, sender at 0 and pi/2, receiver at -pi/4 and pi/4 on the
    equator: E_I = E_II = 1/sqrt 2, on the ic-multicopy boundary."""
    phi_plus = np.array([1.0, 0.0, 0.0, 1.0])
    b = qubit_box(phi_plus, [[equatorial(0.0), equatorial(np.pi / 2)],
                             [equatorial(-np.pi / 4), equatorial(np.pi / 4)]])
    assert validate(b).ok
    rep = evaluate("ic-multicopy", b)
    assert rep.details["E_I"] == pytest.approx(SQRT_HALF, abs=1e-12)
    assert rep.details["E_II"] == pytest.approx(SQRT_HALF, abs=1e-12)
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert not rep.violated
    for rep in reports(b, 0.1):
        assert not rep.violated, rep
