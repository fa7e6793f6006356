import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (Channel, make_svetlichny, noisy_task_joints,
                      random_ns_box)
from icbox.behaviors import PARITY, mix, named_box, tuple_to_index
from icbox.entropy import (cond_mutual_information, marginal,
                           mutual_information)
from icbox.protocol import (MAX_JOINT_VARS, biases,
                            concat_success_closed, concat_success_simulated,
                            guess_name, message_name, single_copy_joint,
                            success_profile, x_bit_name, x_bit_names)
from icbox.scan import default_slice, slice_point


def test_name_helpers():
    assert x_bit_name(2, 1) == "X1^2"
    assert x_bit_names(3) == ["X1^1", "X2^1", "X1^2", "X2^2"]
    assert message_name(2) == "M2"
    assert guess_name(1) == "G1"


def test_pr_guesses_are_exact():
    joint = single_copy_joint(named_box("pr"))
    for i, bit in ((1, "X1^1"), (2, "X2^1")):
        m = marginal(joint, (bit, guess_name(i)))
        assert np.allclose(m.probs, np.diag([0.5, 0.5]), atol=1e-15)
        assert mutual_information(joint, bit, guess_name(i)) == pytest.approx(
            1.0, abs=1e-12)


def test_joint_normalization_and_uniform_inputs():
    rng = np.random.default_rng(7)
    b = random_ns_box(rng, 3)
    joint = single_copy_joint(b)
    assert joint.probs.sum() == pytest.approx(1.0, abs=1e-12)
    for name in x_bit_names(3) + ["J"]:
        m = marginal(joint, name)
        assert np.allclose(m.probs, 0.5, atol=1e-12)


def test_deterministic_zero_relays_first_bit():
    # a = c = 0 always, so both guesses equal M1 = X1^1
    joint = single_copy_joint(named_box("deterministic-zero", parties=2))
    for i in (1, 2):
        m = marginal(joint, ("X1^1", guess_name(i)))
        assert np.allclose(m.probs, np.diag([0.5, 0.5]), atol=1e-15)
    prof = success_profile(named_box("deterministic-zero", parties=2))
    assert prof.probabilities[0] == pytest.approx(1.0, abs=1e-12)
    assert prof.probabilities[1] == pytest.approx(0.5, abs=1e-12)


def test_success_profile_frozen_values():
    assert success_profile(named_box("box45")).probabilities == pytest.approx(
        (1.0, 1.0), abs=1e-12)
    assert success_profile(named_box("white")).probabilities == pytest.approx(
        (0.5, 0.5), abs=1e-12)
    prof = success_profile(named_box("isotropic", bias=0.7))
    assert prof.probabilities == pytest.approx((0.85, 0.85), abs=1e-12)
    assert prof.bias(1) == pytest.approx(0.7, abs=1e-12)


def test_biases_frozen_values():
    assert biases(named_box("pr")) == pytest.approx((1.0, 1.0), abs=1e-15)
    assert biases(named_box("box45")) == pytest.approx((1.0, 1.0), abs=1e-15)
    assert biases(named_box("white")) == pytest.approx((0.0, 0.0), abs=1e-15)
    assert biases(named_box("deterministic-zero", parties=2)) == pytest.approx(
        (1.0, 0.0), abs=1e-15)
    assert biases(named_box("isotropic", bias=0.4)) == pytest.approx(
        (0.4, 0.4), abs=1e-12)
    # on the box45 / deterministic-zero / white plane: E_I = g + e, E_II = g
    assert biases(slice_point(default_slice(), 0.3, 0.2)) == pytest.approx(
        (0.5, 0.3), abs=1e-12)


def test_biases_match_success_profile():
    rng = np.random.default_rng(11)
    for parties in (2, 3):
        for _ in range(6):
            b = random_ns_box(rng, parties)
            e_one, e_two = biases(b)
            prof = success_profile(b)
            assert abs(prof.bias(1) - e_one) <= 1e-12
            assert abs(prof.bias(2) - e_two) <= 1e-12


@pytest.mark.parametrize("parties", [2, 3, 4])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_success_profile_matches_dense_oracle(parties, seed):
    b = random_ns_box(np.random.default_rng(seed), parties)
    joint = single_copy_joint(b)
    target = PARITY[:2 ** (parties - 1)]  # ⊕_k X_i^k for each row of bits
    for i in (1, 2):
        names = [x_bit_name(k, i) for k in range(1, parties)] + [guess_name(i)]
        table = marginal(joint, names).probs.reshape(-1, 2)  # [X_i bits, G_i]
        hit = table[np.arange(target.size), target].sum()
        assert abs(success_profile(b).probabilities[i - 1] - hit) <= 1e-12


def test_channel_on_messages():
    """The noisy task joints of the ic-noisy oracle: the channel flips M1
    alone, and the guess is decoded from M1p."""
    eps = 0.2
    joint = noisy_task_joints(named_box("pr"), Channel(eps))[0]
    m = marginal(joint, ("M1", "M1p"))
    flip = m.probs[0, 1] + m.probs[1, 0]
    assert flip == pytest.approx(eps, abs=1e-12)
    # the channel acts on M1 alone
    assert cond_mutual_information(joint, "M1p", ("X1^1", "X2^1"),
                                   "M1") <= 1e-12
    hit = marginal(joint, ("X1^1", "G1")).probs
    assert hit[0, 0] + hit[1, 1] == pytest.approx(1.0 - eps, abs=1e-12)
    joint = noisy_task_joints(named_box("box45"), Channel(0.1), (2,))[1]
    assert "M2p" in joint.names and "M1p" not in joint.names


def test_joint_variable_cap():
    with pytest.raises(ValueError, match=str(MAX_JOINT_VARS)):
        single_copy_joint(named_box("white", parties=5))


def test_concat_closed_form():
    assert concat_success_closed(0.9, 0.7, 2, 1) == pytest.approx(
        0.815, abs=1e-15)
    assert concat_success_closed(1.0, 1.0, 3, 2) == 1.0
    with pytest.raises(ValueError):
        concat_success_closed(0.5, 0.5, 0, 0)
    with pytest.raises(ValueError):
        concat_success_closed(0.5, 0.5, 2, 3)


def test_concat_simulated_matches_closed_isotropic():
    for e in (0.0, 0.6, 1.0):
        b = named_box("isotropic", bias=e)
        for depth in (1, 2):
            for z in itertools.product((0, 1), repeat=depth):
                got = concat_success_simulated(b, depth, z)
                want = concat_success_closed(e, e, depth, sum(z))
                assert abs(got - want) <= 1e-12


def test_concat_simulated_matches_closed_asymmetric():
    b = slice_point(default_slice(), 0.3, 0.2)  # biases (0.5, 0.3)
    for z in ((0, 1), (1, 0)):
        got = concat_success_simulated(b, 2, z)
        assert abs(got - 0.575) <= 1e-12


@pytest.mark.parametrize("parties", [2, 3, 4, 5, 6])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_concat_simulated_matches_closed_random(parties, seed):
    b = random_ns_box(np.random.default_rng(seed), parties)
    e_one, e_two = biases(b)
    for depth in (1, 2, 3):
        for z in itertools.product((0, 1), repeat=depth):
            want = concat_success_closed(e_one, e_two, depth, sum(z))
            assert abs(concat_success_simulated(b, depth, z) - want) <= 1e-12


def test_z_permutation_symmetry_isotropic():
    b = named_box("isotropic", bias=0.8)
    a = concat_success_simulated(b, 2, (0, 1))
    c = concat_success_simulated(b, 2, (1, 0))
    assert abs(a - c) <= 1e-12


@pytest.mark.parametrize("z", [(2, 3), (True, 0.7), (0, 7)],
                         ids=["2-3", "true-0.7", "0-7"])
def test_simulated_path_bits_are_checked(z):
    b = mix([(0.8, named_box("box45")), (0.2, named_box("white"))])
    with pytest.raises(ValueError):
        concat_success_simulated(b, 2, z)


def test_simulation_caps():
    b = named_box("isotropic", bias=0.5)
    with pytest.raises(ValueError):
        concat_success_simulated(b, 0, ())
    with pytest.raises(ValueError):
        concat_success_simulated(b, 2, (0,))
    # no depth cap: one bincount per tree level
    b = mix([(0.5, named_box("box45")), (0.3, named_box("deterministic-zero",
                                                        parties=3)),
             (0.2, named_box("white", parties=3))])
    e_one, e_two = biases(b)
    assert (e_one, e_two) == pytest.approx((0.8, 0.5), abs=1e-12)
    for depth in range(4, 9):
        z = tuple(int(v) for v in f"{0b10110101 >> (8 - depth):0{depth}b}")
        want = concat_success_closed(e_one, e_two, depth, sum(z))
        assert abs(concat_success_simulated(b, depth, z) - want) <= 1e-12
    # no party cap: a tree level touches 4 n^3 cells, n = 2^(N-1)
    for parties in (5, 6):
        b = mix([(0.5, named_box("box45", parties=parties)),
                 (0.3, named_box("deterministic-zero", parties=parties)),
                 (0.2, named_box("white", parties=parties))])
        e_one, e_two = biases(b)
        for z in ((0,), (1, 0), (0, 1, 1)):
            want = concat_success_closed(e_one, e_two, len(z), sum(z))
            assert abs(concat_success_simulated(b, len(z), z) - want) <= 1e-12


def _naive_concat_depth1(b, z1):
    """Direct sum over every run of a single 3-party box."""
    full = b.table.reshape(4, 2, 4, 2)
    hit = 0.0
    for xa1, xa2, xb1, xb2 in itertools.product((0, 1), repeat=4):
        xs = tuple_to_index((xa1 ^ xa2, xb1 ^ xb2))
        for a_idx in range(4):
            a_a, a_b = a_idx >> 1, a_idx & 1
            g_part = xa1 ^ a_a ^ xb1 ^ a_b
            target = (xa1 ^ xb1) if z1 == 0 else (xa2 ^ xb2)
            for c in (0, 1):
                if (g_part ^ c) == target:
                    hit += full[xs, z1, a_idx, c] / 16.0
    return hit


def _naive_concat_depth2(b, z1, z2):
    """Direct sum over every run of the 3-box tree, 3-party box, K = 2.

    Sender bits (X1..X4) feed leaf boxes on pairs (X1, X2) and (X3, X4);
    the leaves' messages feed the root.  Only the z-selected leaf and the
    root are measured by the receiver.
    """
    full = b.table.reshape(4, 2, 4, 2)
    send = full[:, 0].sum(axis=-1)
    hit = 0.0
    for xa in itertools.product((0, 1), repeat=4):
        for xb in itertools.product((0, 1), repeat=4):
            w_x = 1.0 / 256.0
            xs_left = tuple_to_index((xa[0] ^ xa[1], xb[0] ^ xb[1]))
            xs_right = tuple_to_index((xa[2] ^ xa[3], xb[2] ^ xb[3]))
            first_left = (xa[0], xb[0])
            first_right = (xa[2], xb[2])
            if z1 == 0:
                xs_sel, xs_off = xs_left, xs_right
                first_sel, first_off = first_left, first_right
            else:
                xs_sel, xs_off = xs_right, xs_left
                first_sel, first_off = first_right, first_left
            target = xa[2 * z1 + z2] ^ xb[2 * z1 + z2]
            for a_off in range(4):
                w_off = send[xs_off, a_off]
                if w_off == 0.0:
                    continue
                m_off = (first_off[0] ^ (a_off >> 1), first_off[1] ^ (a_off & 1))
                for a_sel in range(4):
                    m_sel = (first_sel[0] ^ (a_sel >> 1),
                             first_sel[1] ^ (a_sel & 1))
                    m_left = m_sel if z1 == 0 else m_off
                    xs_root = tuple_to_index((m_sel[0] ^ m_off[0],
                                              m_sel[1] ^ m_off[1]))
                    for c_sel in (0, 1):
                        w_sel = full[xs_sel, z2, a_sel, c_sel]
                        if w_sel == 0.0:
                            continue
                        for a_root in range(4):
                            m_root = (m_left[0] ^ (a_root >> 1),
                                      m_left[1] ^ (a_root & 1))
                            for c_root in (0, 1):
                                w = (w_x * w_off * w_sel
                                     * full[xs_root, z1, a_root, c_root])
                                if w == 0.0:
                                    continue
                                # par(m_root) ^ c_root estimates the selected
                                # leaf's message parity; XOR with c_sel closes
                                # the leaf-level guess
                                g = m_root[0] ^ m_root[1] ^ c_root ^ c_sel
                                if g == target:
                                    hit += w
    return hit


@pytest.mark.parametrize("box_name", ["isotropic", "slice", "svetlichny"])
def test_concat_simulated_matches_naive(box_name):
    if box_name == "isotropic":
        b = named_box("isotropic", bias=0.7)
    elif box_name == "slice":
        b = slice_point(default_slice(), 0.3, 0.2)
    else:
        b = make_svetlichny()
    for z1 in (0, 1):
        got = concat_success_simulated(b, 1, (z1,))
        assert abs(got - _naive_concat_depth1(b, z1)) <= 1e-12
    for z1, z2 in itertools.product((0, 1), repeat=2):
        got = concat_success_simulated(b, 2, (z1, z2))
        assert abs(got - _naive_concat_depth2(b, z1, z2)) <= 1e-12
