"""The per-choice task joints against the dense run joint and against a
direct enumeration of the runs, and the noisy task joints of the ic-noisy
oracle (conftest.noisy_task_joints) against the same enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (Channel, noisy_message_name, noisy_task_joints,
                      random_local_mixture, random_ns_box,
                      random_signaling_box)
from icbox import criteria
from icbox.behaviors import Behavior, named_box, validate
from icbox.entropy import marginal
from icbox.protocol import (single_copy_joint, success_profile,
                            task_joint_names, task_joints)

seeds = st.integers(0, 2**32 - 1)
epsilons = st.floats(0.0, 0.5)


def assert_conditioned_oracle(b):
    """Joint i is the dense run joint conditioned on J = i-1: its marginal
    with J, at J = i-1, times 2 for the uniform choice."""
    joints = task_joints(b)
    dense = single_copy_joint(b)
    for i, joint in enumerate(joints, start=1):
        assert joint.names[-1] == f"G{i}"
        oracle = marginal(dense, joint.names + ("J",)).probs[..., i - 1] * 2
        assert joint.probs.shape == (2,) * len(joint.names)
        assert np.abs(joint.probs - oracle).max() <= 1e-12


def noisy_choices(parties):
    """None (every sender noisy) and every subset of the senders, each
    single sender among them."""
    senders = range(1, parties)
    return [None] + [subset for r in range(parties)
                     for subset in itertools.combinations(senders, r)]


@pytest.mark.parametrize("parties", [2, 3, 4])
@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_matches_oracle_without_channel(parties, seed):
    b = random_ns_box(np.random.default_rng(seed), parties)
    assert_conditioned_oracle(b)


@pytest.mark.parametrize("parties,noisy", [
    (n, choice) for n in (2, 3, 4) for choice in noisy_choices(n)])
@settings(max_examples=4, deadline=None)
@given(seed=seeds, eps=epsilons)
def test_matches_oracle_with_channel(parties, noisy, seed, eps):
    """The noisy gather of the ic-noisy oracle is the run-by-run sum, on a
    no-signaling and on a signaling box."""
    rng = np.random.default_rng(seed)
    senders = tuple(range(1, parties)) if noisy is None else noisy
    for b in (random_ns_box(rng, parties), random_signaling_box(rng, parties)):
        joints = noisy_task_joints(b, Channel(eps), noisy)
        for i, joint in enumerate(joints, start=1):
            assert joint.names == tuple(
                task_joint_names(parties, i)[:-1]
                + [noisy_message_name(k) for k in senders] + [f"G{i}"])
            want = enumerated_joint(b, i, eps, senders)
            assert np.abs(joint.probs - want).max() <= 1e-15


def test_names_and_sizes():
    assert task_joint_names(3, 2) == [
        "X1^1", "X2^1", "X1^2", "X2^2", "M1", "M2", "G2"]
    for parties, atoms in ((3, 128), (4, 1024), (6, 65536)):
        joints = task_joints(named_box("white", parties=parties))
        assert [j.probs.size for j in joints] == [atoms, atoms]
    noisy = noisy_task_joints(named_box("box45"), Channel(0.1))
    assert [j.probs.size for j in noisy] == [512, 512]
    noisy = noisy_task_joints(named_box("white", parties=6), Channel(0.1), (3,))
    assert [j.probs.size for j in noisy] == [131072, 131072]


def enumerated_joint(b, i, eps, noisy):
    """Joint i summed run by run: inputs X, box outcomes (a, c) at
    x_N = i-1 and channel flips f, each with weight w_X p(a, c | x, i-1)
    times the flip weights."""
    ns = b.parties - 1
    probs = np.zeros((2,) * (3 * ns + 1 + len(noisy)))
    for xbits in itertools.product((0, 1), repeat=2 * ns):
        first = np.array(xbits[0::2])
        xs = np.array(xbits[1::2]) ^ first
        for a in itertools.product((0, 1), repeat=ns):
            msgs = first ^ a
            for c, flips in itertools.product(
                    (0, 1), itertools.product((0, 1), repeat=len(noisy))):
                w = b.prob((*xs, i - 1), (*a, c)) / 4 ** ns
                received = msgs.copy()
                for k, f in zip(noisy, flips):
                    w *= eps if f else 1.0 - eps
                    received[k - 1] ^= f
                g = c ^ int(received.sum() & 1)
                noisy_msgs = [received[k - 1] for k in noisy]
                probs[(*xbits, *msgs, *noisy_msgs, g)] += w
    return probs


def signaling_boxes():
    """Sender outputs x_N (fully signaling), and a random table."""
    table = np.zeros((4, 4))
    for x in range(4):
        table[x, 2 * (x & 1)] = table[x, 2 * (x & 1) + 1] = 0.5
    rng = np.random.default_rng(7)
    rand = rng.random((8, 8))
    return [Behavior(2, table), Behavior(3, rand / rand.sum(axis=1,
                                                             keepdims=True))]


@pytest.mark.parametrize("box", signaling_boxes(), ids=["x_N-output", "random"])
def test_signaling_box_joints_are_exact_runs(box):
    assert not validate(box).ok
    for i, joint in enumerate(task_joints(box), start=1):
        assert abs(joint.probs.sum() - 1.0) <= 1e-12
        want = enumerated_joint(box, i, 0.2, ())
        assert np.abs(joint.probs - want).max() <= 1e-15
    for cid in ("ic-multi", "ic-noisy"):
        assert np.isfinite(criteria.evaluate(cid, box, epsilon=0.2).lhs)


BUILTINS = {"pr": named_box("pr"),
            "isotropic-0.8-3": named_box("isotropic", bias=0.8),
            "isotropic-0.3-2": named_box("isotropic", parties=2, bias=0.3),
            **{f"{name}-{n}": named_box(name, parties=n)
               for name in ("box45", "white", "deterministic-zero")
               for n in (2, 3, 4)}}


def _reports(b):
    ids = ["ic-multi"]
    if b.parties == 2:
        ids += ["ic-bipartite", "ic-bipartite-strong"]
    return {cid: criteria.evaluate(cid, b).to_json_obj() for cid in ids}


def _assert_close(got, want):
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _assert_close(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_close(g, w)
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12
    else:
        assert got == want


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_reports_unchanged_against_dense_path(name, monkeypatch):
    b = BUILTINS[name]
    compact = _reports(b)
    # the dense run joint carries both guesses, so it stands in for each
    monkeypatch.setattr(criteria, "task_joints",
                        lambda box: (single_copy_joint(box),) * 2)
    _assert_close(compact, _reports(b))


@pytest.mark.parametrize("parties", [5, 6])
def test_five_and_six_parties(parties):
    rep = criteria.evaluate("ic-multi", named_box("box45", parties=parties))
    assert rep.lhs == pytest.approx(2 * (parties - 1), abs=1e-9)
    assert rep.rhs == pytest.approx(parties - 1, abs=1e-9)
    assert rep.violated
    white = named_box("white", parties=parties)
    for cid in ("ic-multi", "ic-noisy"):
        rep = criteria.evaluate(cid, white, epsilon=0.1)
        assert not rep.violated
    prof = success_profile(named_box("box45", parties=parties))
    assert prof.probabilities == pytest.approx((1.0, 1.0), abs=1e-12)


@pytest.mark.parametrize("parties", [5, 6])
@settings(max_examples=5, deadline=None)
@given(seed=seeds, eps=epsilons)
def test_local_mixtures_hold_at_five_and_six_parties(parties, seed, eps):
    b = random_local_mixture(np.random.default_rng(seed), parties)
    for cid in ("ic-multi", "ic-noisy", "ic-multicopy"):
        assert not criteria.evaluate(cid, b, epsilon=eps).violated
    assert not criteria.multicopy_orbit_max(b).violated
    for depth in (1, 2, 3):
        assert not criteria.evaluate("ic-success-bound", b,
                                     depth=depth).violated
