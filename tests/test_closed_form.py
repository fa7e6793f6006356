"""With independent, uniform input bits the entropic criteria are closed
forms in the two biases (E_I, E_II) = protocol.biases(b).  Given X_i, the
other input bit makes every box input uniform, so G_i ⊕ (⊕_k X_i^k) is
independent of X_i and is 0 with probability (1 + E_i)/2, and the messages
are uniform.  Nothing here needs no-signaling, so signaling tables are
checked as well."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ns_box
from icbox.behaviors import Behavior
from icbox.criteria import evaluate
from icbox.entropy import binary_entropy
from icbox.protocol import biases

REL_TOL = 1e-11

seeds = st.integers(0, 2**32 - 1)
epsilons = st.floats(0.0, 0.5)


def g(e: float) -> float:
    """1 - h((1 + E)/2), the information a guess of bias E carries."""
    return 1.0 - binary_entropy(min(1.0, max(0.0, 0.5 * (1.0 + e))))


def random_signaling_box(rng: np.random.Generator, parties: int) -> Behavior:
    table = rng.random((2 ** parties, 2 ** parties))
    return Behavior(parties, table / table.sum(axis=1, keepdims=True))


def assert_close(got: float, want: float) -> None:
    assert abs(got - want) <= REL_TOL * max(1.0, abs(want)), (got, want)


def check_identities(b: Behavior, eps: float) -> None:
    scale = b.parties - 1
    e_one, e_two = biases(b)

    multi = evaluate("ic-multi", b)
    assert_close(multi.lhs, scale * (g(e_one) + g(e_two)))
    assert_close(multi.rhs, scale)

    s = 1.0 - 2.0 * eps
    noisy = evaluate("ic-noisy", b, epsilon=eps)
    assert_close(noisy.lhs, scale * (g(s * e_one) + g(s * e_two)))
    assert_close(noisy.rhs, scale * (1.0 - binary_entropy(eps)))

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
@given(seed=seeds, eps=epsilons)
def test_closed_forms_up_to_four_parties(parties, kind, seed, eps):
    check_identities(BOXES[kind](np.random.default_rng(seed), parties), eps)


@pytest.mark.parametrize("kind", sorted(BOXES))
@pytest.mark.parametrize("parties", [5, 6])
@settings(max_examples=3, deadline=None)
@given(seed=seeds, eps=epsilons)
def test_closed_forms_at_five_and_six_parties(parties, kind, seed, eps):
    check_identities(BOXES[kind](np.random.default_rng(seed), parties), eps)
