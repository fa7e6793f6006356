"""With independent, uniform input bits the entropic criteria are closed
forms in the two biases (E_I, E_II) = protocol.biases(b).  Given X_i, the
other input bit makes every box input uniform, so G_i ⊕ (⊕_k X_i^k) is
independent of X_i and is 0 with probability (1 + E_i)/2, and the messages
are uniform.  Nothing here needs no-signaling, so signaling tables are
checked as well.

ic-multi and ic-bipartite still read the task joints, so they are checked
against the closed form; ic-noisy is the closed form, so it is checked
against its entropic oracle, conftest.noisy_ic_oracle, and its g against
a 50-digit reference."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import noisy_ic_oracle, random_ns_box, random_signaling_box
from icbox.behaviors import PROB_TOL, Behavior
from icbox.criteria import _guess_info, evaluate
from icbox.entropy import binary_entropy
from icbox.protocol import biases

REL_TOL = 1e-11

seeds = st.integers(0, 2**32 - 1)
epsilons = st.floats(0.0, 0.5)


def g(e: float) -> float:
    """1 - h((1 + E)/2), the information a guess of bias E carries."""
    return 1.0 - binary_entropy(min(1.0, max(0.0, 0.5 * (1.0 + e))))


def assert_close(got: float, want: float) -> None:
    assert abs(got - want) <= REL_TOL * max(1.0, abs(want)), (got, want)


def check_identities(b: Behavior) -> None:
    scale = b.parties - 1
    e_one, e_two = biases(b)

    multi = evaluate("ic-multi", b)
    assert_close(multi.lhs, scale * (g(e_one) + g(e_two)))
    assert_close(multi.rhs, scale)

    if b.parties == 2:
        bipartite = evaluate("ic-bipartite", b)
        assert_close(bipartite.lhs, g(e_one) + g(e_two))
        assert_close(bipartite.rhs, 1.0)
        assert_close(multi.lhs, bipartite.lhs)
        assert_close(multi.rhs, bipartite.rhs)


BOXES = {"no-signaling": random_ns_box, "signaling": random_signaling_box}


@pytest.mark.parametrize("kind", sorted(BOXES))
@pytest.mark.parametrize("parties", [2, 3, 4])
@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_closed_forms_up_to_four_parties(parties, kind, seed):
    check_identities(BOXES[kind](np.random.default_rng(seed), parties))


@pytest.mark.parametrize("kind", sorted(BOXES))
@pytest.mark.parametrize("parties", [5, 6])
@settings(max_examples=3, deadline=None)
@given(seed=seeds)
def test_closed_forms_at_five_and_six_parties(parties, kind, seed):
    check_identities(BOXES[kind](np.random.default_rng(seed), parties))


def check_noisy_against_oracle(b: Behavior, eps: float) -> None:
    got = evaluate("ic-noisy", b, epsilon=eps)
    want = noisy_ic_oracle(b, eps)
    assert_close(got.lhs, want.lhs)
    assert_close(got.rhs, want.rhs)
    assert got.details.keys() == want.details.keys()
    per_sender = want.details["per_sender"]
    assert got.details["per_sender"].keys() == per_sender.keys()
    for sender, values in per_sender.items():
        for key, value in values.items():
            assert_close(got.details["per_sender"][sender][key], value)


@pytest.mark.parametrize("kind", sorted(BOXES))
@pytest.mark.parametrize("parties", [2, 3, 4])
@settings(max_examples=10, deadline=None)
@given(seed=seeds, eps=epsilons)
def test_noisy_matches_entropic_oracle(parties, kind, seed, eps):
    check_noisy_against_oracle(
        BOXES[kind](np.random.default_rng(seed), parties), eps)


@pytest.mark.parametrize("kind", sorted(BOXES))
@pytest.mark.parametrize("parties", [5, 6])
@settings(max_examples=3, deadline=None)
@given(seed=seeds, eps=epsilons)
def test_noisy_matches_entropic_oracle_at_five_and_six_parties(
        parties, kind, seed, eps):
    check_noisy_against_oracle(
        BOXES[kind](np.random.default_rng(seed), parties), eps)


def reference_g(y: float) -> mpmath.mpf:
    """1 - h((1 + y)/2) to 50 digits, as
    ((1 + y) ln(1 + y) + (1 - y) ln(1 - y)) / (2 ln 2).  The two products
    are about ±y and their sum about y^2, so the working precision grows
    by the digits of y that cancel."""
    y = abs(mpmath.mpf(y))   # exact: a double is a dyadic rational
    if y == 0 or y == 1:
        return y
    with mpmath.workdps(50 + int(-mpmath.log10(y)) + 1):
        return (((1 + y) * mpmath.log(1 + y) + (1 - y) * mpmath.log(1 - y))
                / (2 * mpmath.log(2)))


TINY = 2.0 ** -500   # below it g(y) ~ y^2 / (2 ln 2) leaves the normal range


def assert_g_exact(y: float) -> None:
    got = _guess_info(y)
    if abs(y) < TINY:
        assert 0.0 <= got <= y * y, y
        return
    want = reference_g(y)
    err = abs(mpmath.mpf(got) - want)
    assert err <= 2e-15 * abs(want), (y, got, want)


@pytest.mark.parametrize("y", [0.0, 1.0, -1.0, 0.5, -0.5, 0.4999999999999999,
                               1.0 - 2.0 ** -53]
                         + [10.0 ** -k for k in range(1, 13)]
                         + [-(10.0 ** -k) for k in range(1, 13)])
def test_guess_info_against_fifty_digits(y):
    assert_g_exact(y)


@settings(max_examples=300, deadline=None)
@given(y=st.floats(-1.0, 1.0))
def test_guess_info_random_against_fifty_digits(y):
    assert_g_exact(y)


def test_guess_info_range():
    """Rows may sum to 1 within PROB_TOL, so a bias that far outside
    [-1, 1] counts as ±1; farther out is an error."""
    assert _guess_info(1.0 + PROB_TOL) == 1.0
    assert _guess_info(-1.0 - PROB_TOL) == 1.0
    for y in (1.0 + 2 * PROB_TOL, -2.0, float("inf")):
        with pytest.raises(ValueError):
            _guess_info(y)
