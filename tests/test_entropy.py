import math

import numpy as np
import pytest

from conftest import Channel, apply_channel, capacity, pmf_items, transition
import icbox.entropy as en


def _random_joint(rng, cards):
    names = tuple(f"V{i}" for i in range(len(cards)))
    p = rng.dirichlet(np.ones(int(np.prod(cards)))).reshape(cards)
    return en.JointDistribution(names, p)


def test_uniform_entropies_exact():
    d = en.JointDistribution(("A", "B", "C"), np.full((2, 2, 2), 1.0 / 8))
    assert en.entropy(d) == 3.0
    assert en.entropy(d, "A") == 1.0
    assert en.entropy(d, ("A", "C")) == 2.0


def test_marginal_orders_axes():
    p = np.array([[0.1, 0.2], [0.3, 0.4]])
    d = en.JointDistribution(("A", "B"), p)
    m = en.marginal(d, ("B", "A"))
    assert m.names == ("B", "A")
    assert np.allclose(m.probs, p.T)


def test_mutual_information_extremes():
    half = np.array([[0.5, 0.0], [0.0, 0.5]])
    corr = en.JointDistribution(("A", "B"), half)
    assert en.mutual_information(corr, "A", "B") == pytest.approx(1.0, abs=1e-15)
    ind = en.JointDistribution(("A", "B"), np.full((2, 2), 0.25))
    assert en.mutual_information(ind, "A", "B") == pytest.approx(0.0, abs=1e-15)


def test_variable_resolution_errors():
    d = en.JointDistribution(("A", "B"), np.full((2, 2), 0.25))
    with pytest.raises(KeyError):
        en.entropy(d, "C")
    with pytest.raises(ValueError):
        en.mutual_information(d, "A", "A")
    with pytest.raises(ValueError):
        en.marginal(d, ("A", "A"))


def test_joint_construction_errors():
    with pytest.raises(ValueError):
        en.JointDistribution(("A", "A"), np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        en.JointDistribution(("A",), np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        en.JointDistribution(("A", "B"), np.full((2, 2), 0.3))
    bad = np.full((2, 2), 0.25)
    bad[0, 0] = -1e-6
    with pytest.raises(ValueError):
        en.JointDistribution(("A", "B"), bad)


def test_chain_rule_seeded():
    # I(A : B,C) = I(A:B) + I(A:C|B)
    rng = np.random.default_rng(42)
    for _ in range(500):
        cards = tuple(rng.integers(2, 4, size=3))
        d = _random_joint(rng, cards)
        lhs = en.mutual_information(d, "V0", ("V1", "V2"))
        rhs = (en.mutual_information(d, "V0", "V1")
               + en.cond_mutual_information(d, "V0", "V2", "V1"))
        assert abs(lhs - rhs) <= 1e-12


def test_strong_subadditivity_seeded():
    rng = np.random.default_rng(43)
    for _ in range(500):
        cards = tuple(rng.integers(2, 4, size=3))
        d = _random_joint(rng, cards)
        assert en.cond_mutual_information(d, "V0", "V1", "V2") >= 0.0


def test_data_processing_seeded():
    # A -> B -> C built as an explicit Markov chain
    rng = np.random.default_rng(44)
    for _ in range(300):
        pa = rng.dirichlet(np.ones(2))
        pba = rng.dirichlet(np.ones(2), size=2)
        pcb = rng.dirichlet(np.ones(2), size=2)
        p = np.einsum("a,ab,bc->abc", pa, pba, pcb)
        d = en.JointDistribution(("A", "B", "C"), p)
        assert (en.mutual_information(d, "A", "C")
                <= en.mutual_information(d, "A", "B") + 1e-12)
        assert en.cond_mutual_information(d, "A", "C", "B") <= 1e-12


def test_channel_conditional_independence_seeded():
    # the channel output depends on its input bit alone: I(M' : V | M) = 0
    rng = np.random.default_rng(45)
    for _ in range(300):
        p = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        d = en.JointDistribution(("M", "V", "W"), p)
        ch = Channel(float(rng.uniform(0.0, 0.5)))
        noisy = apply_channel(d, "M", ch, "Mp")
        assert en.cond_mutual_information(noisy, "Mp", ("V", "W"), "M") <= 1e-12


def test_apply_channel_flip_probability():
    d = en.JointDistribution(("M",), np.array([0.3, 0.7]))
    noisy = apply_channel(d, "M", Channel(0.2), "Mp")
    flip = sum(p for vals, p in pmf_items(noisy) if vals[0] != vals[1])
    assert flip == pytest.approx(0.2, abs=1e-15)
    with pytest.raises(ValueError):
        apply_channel(noisy, "M", Channel(0.2), "Mp")
    tri = en.JointDistribution(("T",), np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValueError):
        apply_channel(tri, "T", Channel(0.1), "Tp")


def test_binary_entropy_values():
    assert en.binary_entropy(0.0) == 0.0
    assert en.binary_entropy(1.0) == 0.0
    assert en.binary_entropy(0.5) == 1.0
    want = -0.11 * math.log2(0.11) - 0.89 * math.log2(0.89)
    assert en.binary_entropy(0.11) == pytest.approx(want, abs=1e-15)
    with pytest.raises(ValueError):
        en.binary_entropy(-0.01)
    with pytest.raises(ValueError):
        en.binary_entropy(1.01)


def test_capacity_values():
    assert capacity(Channel(0.0)) == 1.0
    assert capacity(Channel(0.5)) == 0.0
    assert capacity(Channel(0.11)) == pytest.approx(
        0.500084041835472, abs=1e-12)


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(0.6)
    with pytest.raises(ValueError):
        Channel(-0.1)
    t = transition(Channel(0.25))
    assert np.allclose(t.sum(axis=1), 1.0)
    assert t[0, 1] == 0.25
