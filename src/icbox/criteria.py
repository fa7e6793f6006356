"""Information-causality style criteria evaluated on boxes and task joints.

Entropic criteria (ic-bipartite, ic-bipartite-strong, ic-multi) read
mutual informations off the exact per-choice task joints
(protocol.task_joints): a term that holds the guess G_i reads joints[i-1],
the run in which the receiver picked bit i, and a term without a guess
reads joints[0].  Input bits are independent and uniform, so the
input-correlation term of ic-multi and ic-noisy is 0.  The noisy-channel
criterion (ic-noisy), the quadratic criteria (ic-multicopy, uffink-2,
uffink-3) and the concatenated success bound (ic-success-bound) are
closed forms in the box biases and correlators; the information a guess
of bias y carries, g(y) = 1 - h((1 + y)/2), is _guess_info.  Every
evaluator returns a CriterionReport with lhs, rhs, margin = lhs - rhs and
a violated flag at threshold VIOLATION_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

import numpy as np

from .behaviors import PROB_TOL, Behavior, orbit_forms
from .entropy import (JointDistribution, entropy, cond_mutual_information,
                      mutual_information)
from .protocol import (bias_weights, biases, guess_name, message_name,
                       task_joints, x_bit_name)
# not called here: the benchmark's tracer self-test reads this binding
from .protocol import single_copy_joint  # noqa: F401

VIOLATION_TOL = 1e-9

CRITERION_IDS = ("ic-bipartite", "ic-bipartite-strong", "ic-multi",
                 "ic-multicopy", "ic-success-bound", "uffink-2", "uffink-3",
                 "ic-noisy")


@dataclass(frozen=True)
class CriterionReport:
    criterion_id: str
    lhs: float
    rhs: float
    margin: float
    violated: bool
    details: dict[str, Any] = field(default_factory=dict)

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "criterion": self.criterion_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "violated": self.violated,
            "details": self.details,
        }


def _report(cid: str, lhs: float, rhs: float,
            details: dict[str, Any] | None = None) -> CriterionReport:
    margin = lhs - rhs
    return CriterionReport(cid, lhs, rhs, margin, margin > VIOLATION_TOL,
                           details or {})


_BITS = (1, 2)  # every sender holds two input bits


def eval_bipartite_ic(joints: Sequence[JointDistribution]
                      ) -> CriterionReport:
    """ic-multi at two parties: Sum_i I(X_i : G_i) against the message
    entropy H(M); joints[i-1] carries G_i.  terms lists i = 1, 2."""
    terms = list(_multi_lhs_terms(joints, 2).values())
    return _report("ic-bipartite", sum(terms),
                   entropy(joints[0], message_name(1)), {"terms": terms})


def eval_stronger_bipartite(joints: Sequence[JointDistribution]
                            ) -> CriterionReport:
    """Message-conditioned strengthening of the bipartite criterion.

    LHS = I(X_1 : G_1, M) + I(X_2 : G_2, M) + I(X_1 : X_2 | G_2, M);
    RHS = H(M).  This is the form for independent, uniform input bits,
    which every run of the task has.  joints[i-1] carries G_i.
    """
    m = message_name(1)
    x_one, x_two = x_bit_name(1, 1), x_bit_name(1, 2)
    lhs = (mutual_information(joints[0], x_one, (guess_name(1), m))
           + mutual_information(joints[1], x_two, (guess_name(2), m))
           + cond_mutual_information(joints[1], x_one, x_two,
                                     (guess_name(2), m)))
    return _report("ic-bipartite-strong", lhs, entropy(joints[0], m), {})


def _multi_lhs_terms(joints: Sequence[JointDistribution], parties: int
                     ) -> dict[tuple[int, int], float]:
    """I(X_i^k : X_i^(others), G_i) for each sender k and bit i, read off
    joints[i-1]."""
    senders = range(1, parties)
    out = {}
    for k in senders:
        for i in _BITS:
            others = tuple(x_bit_name(j, i) for j in senders if j != k)
            out[(k, i)] = mutual_information(
                joints[i - 1], x_bit_name(k, i), others + (guess_name(i),))
    return out


def eval_multipartite_ic(joints: Sequence[JointDistribution],
                         parties: int) -> CriterionReport:
    """Sum over the parties - 1 senders of bitwise guess informations
    against the joint message entropy; joints[i-1] carries G_i.  With
    independent input bits the input-correlation term of the criterion is
    0, and the report carries it as such."""
    terms = _multi_lhs_terms(joints, parties)
    msg_entropy = entropy(joints[0], tuple(message_name(k)
                                           for k in range(1, parties)))
    return _report("ic-multi", sum(terms.values()), msg_entropy, {
        "message_entropy": msg_entropy,
        "input_correlation": 0.0,
        "terms": {f"k={k},i={i}": v for (k, i), v in sorted(terms.items())},
    })


_LN2 = math.log(2.0)


def _guess_info(y: float) -> float:
    """g(y) = 1 - h((1 + y)/2), the bits a guess of bias y carries.

    For |y| < 1/2 the series sum_n y^(2n) / (2n (2n - 1) ln 2), summed
    until a term no longer moves the total; otherwise
    ((1 + y) log1p(y) + (1 - y) log1p(-y)) / (2 ln 2), which is exact at
    |y| = 1.  Both keep every digit where 1 - h((1 + y)/2) cancels.  A
    bias of a table whose rows sum to 1 within PROB_TOL lies within
    PROB_TOL of [-1, 1]; such a |y| above 1 counts as 1, and a larger one
    raises ValueError.
    """
    y = abs(y)
    if y < 0.5:
        u = y * y
        power, total, n = u, 0.0, 1
        while True:
            term = power / (2 * n * (2 * n - 1))
            if total + term == total:
                return total / _LN2
            total += term
            power *= u
            n += 1
    if y >= 1.0:
        if y > 1.0 + PROB_TOL:
            raise ValueError(f"bias {y!r} is outside [-1, 1]")
        return 1.0
    return ((1.0 + y) * math.log1p(y) + (1.0 - y) * math.log1p(-y)) / (2 * _LN2)


def eval_multicopy(b: Behavior) -> CriterionReport:
    """E_I^2 + E_II^2 against 1 (canonical party roles and labels)."""
    e_one, e_two = biases(b)
    return _report("ic-multicopy", e_one ** 2 + e_two ** 2, 1.0,
                   {"E_I": e_one, "E_II": e_two})


def eval_success_bound(b: Behavior, depth: int) -> CriterionReport:
    """Concatenated Fano chain at depth K:

    (N-1) Sum_r C(K,r) g(E_I^(K-r) E_II^r)  vs  N-1,

    g(y) = 1 - h((1 + y)/2) (_guess_info), the right side being the joint
    entropy of N-1 one-bit messages.  The details carry the analytic lower
    bound (N-1)/(2 ln 2) (E_I^2 + E_II^2)^K, which never exceeds the LHS.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    e_one, e_two = biases(b)
    scale = b.parties - 1
    lhs = scale * sum(math.comb(depth, r)
                      * _guess_info(e_one ** (depth - r) * e_two ** r)
                      for r in range(depth + 1))
    analytic = scale / (2.0 * math.log(2.0)) * (e_one ** 2 + e_two ** 2) ** depth
    return _report("ic-success-bound", lhs, float(scale), {
        "E_I": e_one, "E_II": e_two, "depth": depth,
        "analytic_lower_bound": analytic,
    })


# the brackets of uffink-3 as weights on C_000 .. C_111:
# C_001 + C_010 + C_100 - C_111 and C_110 + C_101 + C_011 - C_000
_UFFINK3_WEIGHTS = np.array([[0, 1, 1, 0, 1, 0, 0, -1],
                             [-1, 0, 0, 1, 0, 1, 1, 0]], dtype=float).T
_UFFINK3_WEIGHTS.setflags(write=False)


def _orbit_max(b: Behavior, weights: np.ndarray
               ) -> tuple[float, int, np.ndarray, float]:
    """(maximum, variant, F at the variant, value of the identity variant)
    of sum_j F_j^2 over the relabeling orbit (behaviors.orbit_forms).
    variant is the first row of relabeling_index_maps, order
    (permutation, flip, β, α), whose value is at least
    top - 1e-15 max(1, top): exactly tied rows are summed in different
    orders, so rounding must not pick among them.  Rows that differ in β
    tie exactly, and β = 0 comes first."""
    size = 2 ** b.parties
    forms = orbit_forms(b, weights)
    values = np.einsum("rja,rja->ra", forms, forms).ravel()
    top = float(values[values.argmax()])
    best = int((values >= top - 1e-15 * max(1.0, top)).argmax())
    row, alpha = divmod(best, size)
    return (top, row * size * size + alpha,
            forms[row, :, alpha], float(values[0]))


def eval_uffink(b: Behavior) -> CriterionReport:
    """Quadratic correlator criterion.

    Two parties: the ic-multicopy report, E_I^2 + E_II^2 vs 1, as uffink-2.
    Three parties: (C_001 + C_010 + C_100 - C_111)^2 +
    (C_110 + C_101 + C_011 - C_000)^2 vs 16, maximized over the full
    relabeling orbit (party permutations, input flips, input-conditioned
    output flips; 3072 variants).  canonical is the identity variant's
    value.
    """
    if b.parties == 2:
        return replace(eval_multicopy(b), criterion_id="uffink-2")
    if b.parties == 3:
        value, variant, _, canonical = _orbit_max(b, _UFFINK3_WEIGHTS)
        return _report("uffink-3", value, 16.0, {
            "canonical": canonical,
            "orbit_size": 3072,
            "argmax_variant": variant,
        })
    raise ValueError(f"quadratic correlator criterion supports 2 or 3 "
                     f"parties, got {b.parties}")


def multicopy_orbit_max(b: Behavior) -> CriterionReport:
    """ic-multicopy maximized over the relabeling orbit (including which
    party acts as receiver, via party permutations).  Used for catalog
    classification, where class representatives carry arbitrary labelings.
    E_I and E_II are those of the first variant, in the row order of
    relabeling_index_maps, that attains the maximum.  Any party count
    from 2 to 6."""
    value, _, (e_one, e_two), _ = _orbit_max(b, bias_weights(b.parties))
    return _report("ic-multicopy", value, 1.0, {
        "orbit": True,
        "orbit_size": math.factorial(b.parties) * 8 ** b.parties,
        "E_I": float(e_one),
        "E_II": float(e_two),
    })


def _require_normalized(b: Behavior) -> None:
    """Refuse a table with a negative entry or with a row that sums to 1
    only outside PROB_TOL, the checks of validate that make each row a
    distribution.  No-signaling is not checked: the biases of a signaling
    table are still those of its runs."""
    lowest = float(b.table.min())
    if lowest < 0.0:
        raise ValueError(f"table has a negative entry {lowest!r}")
    sums = b.table.sum(axis=1)
    worst = int(np.abs(sums - 1.0).argmax())
    if abs(sums[worst] - 1.0) > PROB_TOL:
        raise ValueError(f"table row {worst} sums to {float(sums[worst])!r}, "
                         f"not 1")


def eval_noisy_ic(b: Behavior, epsilon: float) -> CriterionReport:
    """Per-sender noisy-channel criterion, in closed form.

    Each sender's message crosses one use of a binary symmetric channel
    with flip probability epsilon; sender k's guess-information terms are
    those of the run in which channel k is noisy (the receiver decodes
    from M_k' and the other, clean, messages), and the budget on the right
    is the sum of the channel informations I(M_k : M_k').  With uniform
    inputs, s = 1 - 2 epsilon scales both biases, so every sender's terms
    are g(s E_I) + g(s E_II) and its channel information is
    g(s) = 1 - h(epsilon): lhs = (N-1)(g(s E_I) + g(s E_II)) against
    rhs = (N-1) g(s).  At epsilon = 0 this is the multipartite criterion.
    At epsilon = 0.5 both sides vanish and the report is flagged
    indeterminate.  The table must be normalized and nonnegative
    (_require_normalized), but need not be no-signaling.
    """
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must be in [0, 0.5], got {epsilon}")
    _require_normalized(b)
    e_one, e_two = biases(b)
    s = 1.0 - 2.0 * epsilon
    terms = _guess_info(s * e_one) + _guess_info(s * e_two)
    cap = _guess_info(s)
    scale = b.parties - 1
    per_sender = {f"k={k}": {"terms": terms, "channel_information": cap}
                  for k in range(1, b.parties)}
    details: dict[str, Any] = {"epsilon": epsilon, "input_correlation": 0.0,
                               "per_sender": per_sender}
    if epsilon == 0.5:
        details["flag"] = "indeterminate-limit"
    return _report("ic-noisy", scale * terms, scale * cap, details)


def evaluate(criterion_id: str, b: Behavior, *, depth: int | None = None,
             epsilon: float | None = None) -> CriterionReport:
    """Dispatch a criterion id against a behavior, building the task joints
    when the criterion needs them.  Every criterion refuses a table that
    _require_normalized refuses, checked once: ic-noisy with an epsilon
    leaves the check to eval_noisy_ic, after its epsilon check."""
    if criterion_id not in CRITERION_IDS:
        raise ValueError(f"unknown criterion {criterion_id!r}; "
                         f"known: {', '.join(CRITERION_IDS)}")
    if criterion_id == "ic-noisy" and epsilon is not None:
        return eval_noisy_ic(b, epsilon)
    _require_normalized(b)
    if criterion_id in ("ic-bipartite", "ic-bipartite-strong", "ic-multi"):
        if criterion_id != "ic-multi" and b.parties != 2:
            raise ValueError(f"{criterion_id} needs a 2-party behavior, "
                             f"got {b.parties} parties")
        joints = task_joints(b)
        if criterion_id == "ic-multi":
            return eval_multipartite_ic(joints, b.parties)
        if criterion_id == "ic-bipartite":
            return eval_bipartite_ic(joints)
        return eval_stronger_bipartite(joints)
    if criterion_id == "ic-multicopy":
        return eval_multicopy(b)
    if criterion_id == "ic-success-bound":
        return eval_success_bound(b, 1 if depth is None else depth)
    if criterion_id in ("uffink-2", "uffink-3"):
        if b.parties != int(criterion_id[-1]):
            raise ValueError(f"{criterion_id} needs a {criterion_id[-1]}-party "
                             f"behavior")
        return eval_uffink(b)
    raise ValueError("ic-noisy needs a channel epsilon")
