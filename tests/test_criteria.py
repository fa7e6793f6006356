import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (local_deterministic_boxes, make_ghz_style,
                      make_svetlichny, oracle_orbit_forms,
                      random_local_mixture, random_ns_box,
                      random_signaling_box)
from icbox import criteria
from icbox.behaviors import (Behavior, flip_inputs, mix, named_box,
                             permute_parties, relabel_outputs)
from icbox.criteria import (_UFFINK3_WEIGHTS, CRITERION_IDS, VIOLATION_TOL,
                            eval_bipartite_ic,
                            eval_multicopy, eval_multipartite_ic,
                            eval_noisy_ic, eval_stronger_bipartite,
                            eval_success_bound, eval_uffink, evaluate,
                            multicopy_orbit_max)
from icbox.entropy import binary_entropy
from icbox.protocol import bias_weights, single_copy_joint


def test_report_shape():
    rep = eval_multicopy(named_box("white"))
    assert rep.criterion_id == "ic-multicopy"
    assert rep.margin == rep.lhs - rep.rhs
    obj = rep.to_json_obj()
    assert set(obj) == {"criterion", "lhs", "rhs", "margin", "violated",
                        "details"}


def test_violation_threshold():
    # margin exactly 0 is not a violation
    rep = eval_multicopy(named_box("deterministic-zero"))
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.margin == pytest.approx(0.0, abs=1e-12)
    assert not rep.violated
    assert eval_multicopy(named_box("isotropic", bias=0.71)).violated
    assert not eval_multicopy(named_box("isotropic", bias=0.70)).violated


def test_bipartite_frozen_values():
    rep = evaluate("ic-bipartite", named_box("pr"))
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)
    assert rep.violated
    assert rep.details["terms"] == pytest.approx((1.0, 1.0), abs=1e-12)
    # direct joint entry point agrees with the dispatcher
    dense = single_copy_joint(named_box("pr"))
    direct = eval_bipartite_ic((dense, dense))
    assert direct.lhs == rep.lhs and direct.rhs == rep.rhs

    rep = evaluate("ic-bipartite", named_box("isotropic", parties=2, bias=0.5))
    want = 2.0 * (1.0 - binary_entropy(0.75))
    assert rep.lhs == pytest.approx(want, abs=1e-12)
    assert rep.lhs == pytest.approx(0.3774437510817341, abs=1e-12)
    assert not rep.violated

    rep = evaluate("ic-bipartite", named_box("white", parties=2))
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)

    # ic-bipartite is ic-multi at two parties, signaling boxes included
    rng = np.random.default_rng(27)
    for make in (random_ns_box, random_signaling_box) * 10:
        b = make(rng, 2)
        bip, multi = evaluate("ic-bipartite", b), evaluate("ic-multi", b)
        assert (bip.lhs, bip.rhs) == (multi.lhs, multi.rhs)
        assert bip.details["terms"] == list(multi.details["terms"].values())


def test_stronger_bipartite():
    rep = evaluate("ic-bipartite-strong", named_box("pr"))
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)
    assert rep.violated

    rep = evaluate("ic-bipartite-strong", named_box("deterministic-zero",
                                                    parties=2))
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert not rep.violated

    rep = evaluate("ic-bipartite-strong", named_box("white", parties=2))
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)

    dense = single_copy_joint(named_box("pr"))
    direct = eval_stronger_bipartite((dense, dense))
    assert direct.lhs == pytest.approx(2.0, abs=1e-12)

    # the rhs is H(M), the bipartite criterion's rhs
    b = random_ns_box(np.random.default_rng(26), 2)
    assert (evaluate("ic-bipartite-strong", b).rhs
            == evaluate("ic-bipartite", b).rhs)


def test_multipartite_frozen_values():
    rep = evaluate("ic-multi", named_box("box45"))
    assert rep.lhs == pytest.approx(4.0, abs=1e-12)
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)
    assert rep.violated
    assert sorted(rep.details["terms"]) == ["k=1,i=1", "k=1,i=2",
                                            "k=2,i=1", "k=2,i=2"]
    for v in rep.details["terms"].values():
        assert v == pytest.approx(1.0, abs=1e-12)
    assert rep.details["input_correlation"] == 0.0
    assert rep.rhs == rep.details["message_entropy"]

    rep = evaluate("ic-multi", named_box("box45", parties=4))
    assert rep.lhs == pytest.approx(6.0, abs=1e-12)
    assert rep.rhs == pytest.approx(3.0, abs=1e-12)

    rep = evaluate("ic-multi", named_box("white"))
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)
    assert not rep.violated


def test_multipartite_direct_joint_entry_point():
    # the dense run joint carries both guesses, so it stands in for each
    joints = (single_copy_joint(named_box("box45")),) * 2
    rep = eval_multipartite_ic(joints, 3)
    assert rep.lhs == pytest.approx(4.0, abs=1e-12)
    assert rep.rhs == rep.details["message_entropy"]
    assert rep.details["input_correlation"] == 0.0


def test_multipartite_holds_on_local_boxes():
    rng = np.random.default_rng(21)
    boxes = local_deterministic_boxes(3)
    picks = rng.choice(len(boxes), size=6, replace=False)
    for i in picks:
        assert not evaluate("ic-multi", boxes[i]).violated
    for _ in range(4):
        assert not evaluate("ic-multi", random_local_mixture(rng, 3)).violated


def test_multicopy_frozen_values():
    rep = eval_multicopy(named_box("box45"))
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.violated
    assert rep.details["E_I"] == pytest.approx(1.0, abs=1e-12)
    assert eval_multicopy(named_box("white")).lhs == pytest.approx(
        0.0, abs=1e-12)


def test_multicopy_orbit_max_frozen_values():
    rep = multicopy_orbit_max(named_box("box45"))
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.details["orbit_size"] == 3072
    assert rep.violated

    rep = multicopy_orbit_max(make_svetlichny())
    assert rep.lhs == pytest.approx(0.5, abs=1e-12)
    assert not rep.violated

    rep = multicopy_orbit_max(named_box("deterministic-zero"))
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert not rep.violated

    rep = multicopy_orbit_max(named_box("pr"))
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.details["orbit_size"] == 128

    rep = multicopy_orbit_max(named_box("box45", parties=4))
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.details["orbit_size"] == 24 * 16 ** 3


@pytest.mark.parametrize("parties", [5, 6])
def test_multicopy_orbit_max_five_and_six_parties(parties):
    size = math.factorial(parties) * 8 ** parties
    rep = multicopy_orbit_max(named_box("box45", parties=parties))
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.details["orbit_size"] == size
    rep = multicopy_orbit_max(named_box("isotropic", parties=parties,
                                        bias=0.6))
    assert rep.lhs == pytest.approx(2 * 0.6 ** 2, abs=1e-12)
    assert rep.details["orbit_size"] == size


def _first_oracle_max(values: np.ndarray) -> int:
    """First row within rounding of the oracle maximum (the oracle computes
    exactly tied rows in different orders)."""
    top = float(values.max())
    return int(np.flatnonzero(values >= top - 1e-15 * max(1.0, top))[0])


@pytest.mark.parametrize("parties", [2, 3, 4])
def test_orbit_max_reports_the_first_oracle_maximizer(parties):
    # box45's orbit has exact ties, between variants and their negations
    boxes = [random_ns_box(np.random.default_rng(60 + parties), parties),
             named_box("box45", parties=parties)]
    for b in boxes:
        forms = oracle_orbit_forms(b, bias_weights(parties))
        values = (forms ** 2).sum(axis=1)
        first = _first_oracle_max(values)
        rep = multicopy_orbit_max(b)
        assert abs(rep.lhs - values.max()) <= 1e-15 * max(1.0, values.max())
        assert abs(rep.details["E_I"] - forms[first, 0]) <= 1e-15
        assert abs(rep.details["E_II"] - forms[first, 1]) <= 1e-15
        if parties == 3:
            forms = oracle_orbit_forms(b, _UFFINK3_WEIGHTS)
            values = (forms ** 2).sum(axis=1)
            rep = eval_uffink(b)
            assert rep.details["argmax_variant"] == _first_oracle_max(values)
            assert abs(rep.details["canonical"] - values[0]) <= 1e-14


def test_orbit_never_below_canonical():
    rng = np.random.default_rng(22)
    for _ in range(5):
        b = random_ns_box(rng, 3)
        assert multicopy_orbit_max(b).lhs >= eval_multicopy(b).lhs - 1e-12


@pytest.mark.parametrize("parties", [2, 3, 4])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_orbit_maxima_invariant_under_relabeling(parties, seed):
    rng = np.random.default_rng(seed)
    b = random_ns_box(rng, parties)
    perm = tuple(rng.permutation(parties).tolist())
    mask, beta, alpha = (rng.integers(0, 2, parties).tolist() for _ in range(3))
    v = relabel_outputs(flip_inputs(permute_parties(b, perm), mask), beta, alpha)
    assert abs(multicopy_orbit_max(v).lhs - multicopy_orbit_max(b).lhs) <= 1e-12
    if parties == 3:
        assert abs(eval_uffink(v).lhs - eval_uffink(b).lhs) <= 1e-12


def test_uffink_two_party_equals_multicopy():
    rng = np.random.default_rng(23)
    for _ in range(5):
        b = random_ns_box(rng, 2)
        u = evaluate("uffink-2", b)
        m = eval_multicopy(b)
        assert u.criterion_id == "uffink-2"
        assert u.lhs == pytest.approx(m.lhs, abs=1e-12)
        assert u.rhs == 1.0


def test_uffink_three_party_frozen_values():
    rep = evaluate("uffink-3", named_box("box45"))
    assert rep.details["canonical"] == pytest.approx(8.0, abs=1e-12)
    assert rep.lhs == pytest.approx(8.0, abs=1e-12)
    assert rep.details["orbit_size"] == 3072
    assert not rep.violated

    rep = evaluate("uffink-3", make_svetlichny())
    assert rep.lhs == pytest.approx(32.0, abs=1e-12)
    assert rep.violated

    rep = evaluate("uffink-3", make_ghz_style())
    assert rep.lhs == pytest.approx(16.0, abs=1e-12)
    assert not rep.violated

    assert evaluate("uffink-3", named_box("white")).lhs == pytest.approx(
        0.0, abs=1e-12)
    rep = evaluate("uffink-3", named_box("deterministic-zero"))
    assert rep.lhs == pytest.approx(8.0, abs=1e-12)


def test_uffink_party_count():
    with pytest.raises(ValueError):
        eval_uffink(named_box("box45", parties=4))


def test_success_bound():
    rep = evaluate("ic-success-bound", named_box("box45"))
    assert rep.lhs == pytest.approx(4.0, abs=1e-12)
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)
    assert rep.details["depth"] == 1
    assert rep.details["analytic_lower_bound"] == pytest.approx(
        2.0 / (2.0 * math.log(2.0)) * 2.0, abs=1e-12)
    assert rep.violated

    with pytest.raises(ValueError):
        eval_success_bound(named_box("box45"), 0)


def test_success_bound_analytic_never_exceeds_lhs():
    rng = np.random.default_rng(24)
    for _ in range(20):
        b = random_ns_box(rng, 3)
        for depth in (1, 2, 3):
            rep = eval_success_bound(b, depth)
            assert rep.details["analytic_lower_bound"] <= rep.lhs + 1e-12


def test_success_bound_grows_for_violating_box():
    b = named_box("isotropic", bias=0.9)
    values = [eval_success_bound(b, k).lhs for k in (1, 2, 3, 4)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_noisy_reduces_to_multipartite_at_zero():
    rng = np.random.default_rng(25)
    for b in (named_box("box45"), random_local_mixture(rng, 3)):
        noisy = eval_noisy_ic(b, 0.0)
        multi = evaluate("ic-multi", b)
        assert abs(noisy.lhs - multi.lhs) <= 1e-12
        assert abs(noisy.rhs - multi.rhs) <= 1e-12


def test_noisy_channel_values():
    rep = eval_noisy_ic(named_box("white"), 0.1)
    assert not rep.violated
    assert set(rep.details["per_sender"]) == {"k=1", "k=2"}

    rep = eval_noisy_ic(named_box("box45"), 0.5)
    assert rep.details["flag"] == "indeterminate-limit"
    assert rep.lhs == pytest.approx(0.0, abs=1e-9)
    assert rep.rhs == pytest.approx(0.0, abs=1e-9)

    with pytest.raises(ValueError):
        eval_noisy_ic(named_box("box45"), -0.1)
    with pytest.raises(ValueError):
        eval_noisy_ic(named_box("box45"), 0.6)


def test_noisy_monotone_in_bias():
    # fixed channel, growing box bias: the margin should cross from
    # satisfied to violated
    eps = 0.3
    low = eval_noisy_ic(named_box("isotropic", bias=0.5), eps)
    high = eval_noisy_ic(named_box("isotropic", bias=0.95), eps)
    assert not low.violated
    assert high.violated
    assert high.margin > low.margin


def _negative_entry_box() -> Behavior:
    """The PR box with one row moved to [0.6, -0.1, 0, 0.5]: still summing
    to 1, but with an entry below -ENTRY_CLAMP."""
    table = named_box("pr").table.copy()
    table[0] = (0.6, -0.1, 0.0, 0.5)
    return Behavior(2, table)


def test_noisy_and_multi_refuse_unnormalized_tables():
    doubled = Behavior(3, 2 * named_box("box45").table)
    with pytest.raises(ValueError, match="sums to 2.0"):
        evaluate("ic-noisy", doubled, epsilon=0.1)
    with pytest.raises(ValueError, match="sums to 2.0"):
        evaluate("ic-multi", doubled)
    negative = _negative_entry_box()
    with pytest.raises(ValueError, match="negative entry"):
        evaluate("ic-noisy", negative, epsilon=0.1)
    with pytest.raises(ValueError, match="negative entry"):
        evaluate("ic-multi", negative)
    # rows that sum to 1.1 and 0.9 are refused by every criterion
    for parties in (2, 3):
        table = named_box("box45", parties=parties).table.copy()
        table[0] *= 1.1
        table[2] *= 0.9
        for cid in CRITERION_IDS:
            with pytest.raises(ValueError, match="row 0 sums to 1.1"):
                evaluate(cid, Behavior(parties, table), epsilon=0.0)
    # one row off by 2 PROB_TOL is refused, as validate refuses it
    table = named_box("box45").table.copy()
    table[3, 0] += 2e-9
    with pytest.raises(ValueError, match="row 3"):
        evaluate("ic-noisy", Behavior(3, table), epsilon=0.1)
    table[3, 0] -= 1.5e-9    # off by PROB_TOL / 2: scored
    assert evaluate("ic-noisy", Behavior(3, table), epsilon=0.1).violated


def test_each_evaluate_checks_the_table_once(monkeypatch):
    calls = []
    original = criteria._require_normalized

    def counted(b):
        calls.append(b)
        return original(b)

    monkeypatch.setattr(criteria, "_require_normalized", counted)
    box = named_box("isotropic", bias=0.8)
    for cid, kwargs in [("ic-noisy", {"epsilon": 0.1}),
                        ("ic-noisy", {"epsilon": 0.5}),
                        ("ic-multi", {}), ("ic-multicopy", {}),
                        ("ic-success-bound", {"depth": 2}),
                        ("uffink-3", {})]:
        calls.clear()
        evaluate(cid, box, **kwargs)
        assert calls == [box], cid
    # eval_noisy_ic called directly still checks its table, once
    calls.clear()
    eval_noisy_ic(box, 0.1)
    assert calls == [box]
    with pytest.raises(ValueError, match="sums to 2.0"):
        eval_noisy_ic(Behavior(3, 2 * named_box("box45").table), 0.1)
    with pytest.raises(ValueError, match="negative entry"):
        eval_noisy_ic(_negative_entry_box(), 0.1)
    # without an epsilon the table is checked before the missing epsilon
    with pytest.raises(ValueError, match="sums to 2.0"):
        evaluate("ic-noisy", Behavior(3, 2 * named_box("box45").table))


@pytest.mark.parametrize("parties", [2, 3, 4, 5, 6])
def test_noisy_reads_no_joint_and_no_entropy(parties, monkeypatch):
    """ic-noisy is a closed form in the biases: evaluate never reaches a
    task joint or an entropy through criteria's bindings."""
    calls = dict.fromkeys(("task_joints", "entropy", "mutual_information"), 0)

    def counted(name, original):
        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(criteria, name,
                            counted(name, getattr(criteria, name)))
    b = mix([(0.6, named_box("box45", parties=parties)),
             (0.4, named_box("white", parties=parties))])
    for eps in (0.0, 0.1, 0.5):
        evaluate("ic-noisy", b, epsilon=eps)
    assert calls == dict.fromkeys(calls, 0)
    evaluate("ic-multi", b)   # the counters do see the entropic criteria
    assert calls["task_joints"] == 1 and calls["mutual_information"] > 0


def test_dispatcher():
    assert len(CRITERION_IDS) == 8
    with pytest.raises(ValueError):
        evaluate("ic-unknown", named_box("pr"))
    with pytest.raises(ValueError):
        evaluate("ic-bipartite", named_box("box45"))
    with pytest.raises(ValueError):
        evaluate("uffink-2", named_box("box45"))
    with pytest.raises(ValueError):
        evaluate("uffink-3", named_box("pr"))
    with pytest.raises(ValueError):
        evaluate("ic-noisy", named_box("box45"))
    d1 = evaluate("ic-success-bound", named_box("isotropic", bias=0.6))
    d1x = evaluate("ic-success-bound", named_box("isotropic", bias=0.6),
                   depth=1)
    assert d1.lhs == d1x.lhs


def test_bound_ordering_chain():
    # analytic <= success-bound LHS <= multipartite LHS for isotropic boxes
    for e in (0.2, 0.5, 0.8):
        b = named_box("isotropic", bias=e)
        sb = eval_success_bound(b, 1)
        multi = evaluate("ic-multi", b)
        assert sb.details["analytic_lower_bound"] <= sb.lhs + 1e-12
        assert sb.lhs <= multi.lhs + 1e-12


def test_multicopy_on_mixture():
    b = mix([(0.75, named_box("box45")), (0.25, named_box("white"))])
    rep = eval_multicopy(b)
    assert rep.details["E_I"] == pytest.approx(0.75, abs=1e-12)
    assert rep.lhs == pytest.approx(2 * 0.75 ** 2, abs=1e-12)
    assert rep.violated is (rep.lhs - 1.0 > VIOLATION_TOL)
