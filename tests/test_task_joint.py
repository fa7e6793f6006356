"""The compact task joint against the dense run joint it marginalizes."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ns_box
from icbox import criteria
from icbox.behaviors import named_box
from icbox.entropy import Channel, JointDistribution, marginal
from icbox.protocol import (ProtocolConfig, single_copy_joint,
                            success_profile, task_joint, task_joint_names)

seeds = st.integers(0, 2**32 - 1)
epsilons = st.floats(0.0, 0.5)


def assert_matches_oracle(b, cfg=None, noisy_senders=None):
    compact = task_joint(b, cfg, noisy_senders=noisy_senders)
    dense = single_copy_joint(b, cfg, noisy_senders=noisy_senders)
    oracle = marginal(dense, compact.names)
    assert compact.probs.shape == (2,) * len(compact.names)
    assert np.abs(compact.probs - oracle.probs).max() <= 1e-12


def noisy_choices(parties):
    senders = range(1, parties)
    return [None] + [subset for r in range(parties)
                     for subset in itertools.combinations(senders, r)]


@pytest.mark.parametrize("parties", [2, 3, 4])
@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_matches_oracle_without_channel(parties, seed):
    b = random_ns_box(np.random.default_rng(seed), parties)
    assert_matches_oracle(b)


@pytest.mark.parametrize("parties,noisy", [
    (n, choice) for n in (2, 3, 4) for choice in noisy_choices(n)])
@settings(max_examples=4, deadline=None)
@given(seed=seeds, eps=epsilons)
def test_matches_oracle_with_channel(parties, noisy, seed, eps):
    b = random_ns_box(np.random.default_rng(seed), parties)
    cfg = ProtocolConfig(parties=parties, channel=Channel(eps))
    assert_matches_oracle(b, cfg, noisy)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, eps=epsilons, channel=st.booleans())
def test_matches_oracle_with_input_distribution(seed, eps, channel):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(4)).reshape(2, 2)
    dist = JointDistribution(("X2^1", "X1^1"), weights)  # axes reordered
    cfg = ProtocolConfig(parties=2, input_distribution=dist,
                         channel=Channel(eps) if channel else None)
    assert_matches_oracle(random_ns_box(rng, 2), cfg)


def test_names_and_sizes():
    assert task_joint_names(3, (2,)) == [
        "X1^1", "X2^1", "X1^2", "X2^2", "M1", "M2", "M2p", "G1", "G2"]
    for parties, atoms in ((3, 256), (4, 2048), (6, 131072)):
        joint = task_joint(named_box("white", parties=parties))
        assert joint.probs.size == atoms
    cfg = ProtocolConfig(parties=3, channel=Channel(0.1))
    assert task_joint(named_box("box45"), cfg).probs.size == 1024


def test_rejects_what_the_oracle_rejects():
    with pytest.raises(ValueError):
        task_joint(named_box("pr"), noisy_senders=(1,))
    cfg = ProtocolConfig(parties=3, channel=Channel(0.1))
    with pytest.raises(ValueError):
        task_joint(named_box("box45"), cfg, noisy_senders=(3,))
    with pytest.raises(ValueError):
        task_joint(named_box("box45"), ProtocolConfig(parties=2))


BUILTINS = {"pr": named_box("pr"),
            "isotropic-0.8-3": named_box("isotropic", bias=0.8),
            "isotropic-0.3-2": named_box("isotropic", parties=2, bias=0.3),
            **{f"{name}-{n}": named_box(name, parties=n)
               for name in ("box45", "white", "deterministic-zero")
               for n in (2, 3, 4)}}


def _reports(b):
    ids = ["ic-multi", "ic-noisy"]
    if b.parties == 2:
        ids += ["ic-bipartite", "ic-bipartite-strong"]
    return {cid: criteria.evaluate(cid, b, epsilon=0.2).to_json_obj()
            for cid in ids}


def _assert_close(got, want):
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            _assert_close(got[key], want[key])
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12
    else:
        assert got == want


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_reports_unchanged_against_dense_path(name, monkeypatch):
    b = BUILTINS[name]
    compact = _reports(b)
    # the dense run joint carries every variable the evaluators read
    monkeypatch.setattr(criteria, "task_joint", single_copy_joint)
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
