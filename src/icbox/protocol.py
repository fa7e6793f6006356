"""The multipartite XOR communication task built on a shared box.

Single copy: N-1 senders each hold two bits X_1^k, X_2^k, input
x_k = X_1^k ⊕ X_2^k into the shared box, and send M_k = X_1^k ⊕ a_k.  The
receiver (party N) picks a choice J in {0, 1}, inputs x_N = J, and guesses
bit position i = J+1 of every sender at once:

    G_i = (⊕_k M_k) ⊕ c_i.

Every input bit is independent and uniform; that is part of the task, not
an option.

Concatenation: with 2^K bits per sender, messages are fed pairwise into a
depth-K binary tree of identical boxes; the receiver measures one box per
level (z_l at level l, root is level 1), and recovering the selected
subtree's message XOR at each step leaves a guess for bit position
1 + sum_l z_l 2^(K-l).

task_joints gives what the entropic criteria read: for each receiver
choice, the run joint of the input bits, the messages and the guess G_i
picked by that choice, 2^(3(N-1)+1) atoms.  Given the input bits, (a, c)
and (M, G_i) determine each other, so every atom is one box weight
p(a, c | x, i-1) times 4^-(N-1): a fixed gather of the box table, exact
for any table.  single_copy_joint builds the full run joint (box inputs
and outcomes, choice J, and both guesses on one sample space) by direct
enumeration; it is kept as the test oracle for task_joints.  The
noisy-channel criterion needs no joint: it is a closed form in the
biases (criteria.eval_noisy_ic).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, reduce
from typing import Sequence

import numpy as np

from .behaviors import (PARITY, Behavior, _bitmask, correlators,
                        index_to_tuple, tuple_to_index)
from .entropy import JointDistribution

MAX_JOINT_VARS = 24      # dense oracle joint capped at 2^24 atoms

CHOICE = "J"


def x_bit_name(k: int, i: int) -> str:
    """Bit i of sender k (both 1-based)."""
    return f"X{i}^{k}"


def message_name(k: int) -> str:
    return f"M{k}"


def guess_name(i: int) -> str:
    return f"G{i}"


def x_bit_names(parties: int) -> list[str]:
    return [x_bit_name(k, i) for k in range(1, parties) for i in (1, 2)]


def task_joint_names(parties: int, i: int) -> list[str]:
    """Variables of the task joint for receiver choice i, in axis order."""
    return (x_bit_names(parties)
            + [message_name(k) for k in range(1, parties)]
            + [guess_name(i)])


@cache
def _task_index(n_send: int) -> np.ndarray:
    """src over the atoms of a task joint, raveled from [X, M, G]: src[v]
    is the flat box-table index of the run (x, x_N = v, a, c) that lands
    on the atom under choice v.  Shared between calls, so read-only."""
    n_x, n_msg = 4 ** n_send, 2 ** n_send
    x_idx = np.arange(n_x)
    first = np.zeros(n_x, dtype=np.int64)
    second = np.zeros(n_x, dtype=np.int64)
    for k in range(n_send):  # X_1^k, X_2^k are bits 2(ns-k)-1, 2(ns-k)-2
        first = (first << 1) | ((x_idx >> (2 * (n_send - k) - 1)) & 1)
        second = (second << 1) | ((x_idx >> (2 * (n_send - k) - 2)) & 1)
    msgs = np.arange(n_msg)
    c = PARITY[msgs][:, None] ^ np.arange(2)                 # [M, G]
    a = first[:, None] ^ msgs                                # [X, M]
    row = 2 * (first ^ second)[:, None, None]
    src = (row * n_msg + a[:, :, None]) * 2 + c              # [X, M, G]
    src = np.stack([src.ravel(), src.ravel() + 2 * n_msg])
    src.setflags(write=False)
    return src


def task_joints(b: Behavior) -> tuple[JointDistribution, JointDistribution]:
    """Exact run joints of the input bits, messages and guess, one per
    receiver choice; joints[i-1] carries G_i.

    Variables (task_joint_names): X_i^k, M_k, G_i.  The weight of the run
    (X, a, c) under choice i is 4^-(N-1) p(a, c | x, x_N = i-1).  This
    reads the box table and divides by nothing, so each joint is
    normalized for any normalized table; for a no-signaling box it equals
    single_copy_joint conditioned on J = i-1.
    """
    n_send = b.parties - 1
    w = b.table.ravel()[_task_index(n_send)]
    w *= 1.0 / 4 ** n_send
    shape = (2,) * (3 * n_send + 1)
    return tuple(JointDistribution(
        tuple(task_joint_names(b.parties, i)), w[i - 1].reshape(shape))
        for i in (1, 2))


def single_copy_joint(b: Behavior) -> JointDistribution:
    """Exact joint of inputs, box data, messages, choice and guesses.

    Variables: X_i^k, x_k, a_k, c_1, c_2, M_k, J, G_1, G_2.  Built by
    enumeration and capped at MAX_JOINT_VARS variables; it is the test
    oracle for task_joints, which the criteria use.  It draws c_1 and c_2
    from p(c | a, x, x_N) given the senders' p(a | x), which is well
    defined only for a no-signaling box.
    """
    n_parties = b.parties
    senders = list(range(1, n_parties))

    names = (x_bit_names(n_parties)
             + [f"x{k}" for k in senders] + [f"a{k}" for k in senders]
             + ["c1", "c2"]  # receiver outcome under x_N = 0, 1
             + [message_name(k) for k in senders]
             + [CHOICE, guess_name(1), guess_name(2)])
    if len(names) > MAX_JOINT_VARS:
        raise ValueError(
            f"joint would need {len(names)} binary variables; dense cap is "
            f"{MAX_JOINT_VARS} (reduce parties)")

    ns = n_parties - 1
    # [xs, x_N, as, c]: the receiver's bits are the least significant ones
    full = b.table.reshape(2 ** ns, 2, 2 ** ns, 2)
    send = full[:, 0].sum(axis=-1)  # p(a | x), x_N-independent once validated

    w_x = 1.0 / 4 ** ns  # uniform input bits

    probs = np.zeros((2,) * len(names))
    half = 0.5  # uniform receiver choice
    for xbits in itertools.product((0, 1), repeat=2 * ns):
        first = xbits[0::2]
        second = xbits[1::2]
        xs_idx = tuple_to_index(tuple(f ^ s for f, s in zip(first, second)))
        xs_bits = index_to_tuple(xs_idx, ns)
        for as_idx in range(2 ** ns):
            p_send = send[xs_idx, as_idx]
            if p_send <= 0.0:
                continue
            as_bits = index_to_tuple(as_idx, ns)
            msgs = tuple(f ^ a for f, a in zip(first, as_bits))
            decode = reduce(lambda u, v: u ^ v, msgs, 0)
            cond = full[xs_idx, :, as_idx, :] / p_send  # [choice, c]
            for c1, c2 in itertools.product((0, 1), repeat=2):
                w_c = cond[0, c1] * cond[1, c2]
                if w_c == 0.0:
                    continue
                w = w_x * p_send * w_c * half
                g1 = decode ^ c1
                g2 = decode ^ c2
                idx = (*xbits, *xs_bits, *as_bits, c1, c2, *msgs)
                probs[(*idx, 0, g1, g2)] += w
                probs[(*idx, 1, g1, g2)] += w
    return JointDistribution(tuple(names), probs)


@dataclass(frozen=True)
class SuccessProfile:
    """Per receiver-choice probability that G_i hits ⊕_k X_i^k."""

    probabilities: tuple[float, ...]

    def bias(self, i: int) -> float:
        return 2.0 * self.probabilities[i - 1] - 1.0


def success_profile(b: Behavior) -> SuccessProfile:
    """Hit probabilities for uniform inputs: G_i = ⊕_k X_i^k exactly when
    the box meets its parity condition at x_N = i-1, so p_i = (1 + E_i)/2
    with (E_I, E_II) = biases(b)."""
    return SuccessProfile(tuple(0.5 * (1.0 + e) for e in biases(b)))


@cache
def bias_weights(parties: int) -> np.ndarray:
    """(2^N, 2) weights W with biases(b) = correlators(b) @ W: ±2^-(N-1)
    on the inputs with x_N = 0 (E_I) or 1 (E_II), - where the target
    ⊕_{k<N} x_k x_N is 1, since sum_a (-1)^(⊕_k a_k ⊕ target) p(a|x) is
    (-1)^target C_x.  Shared between calls, so read-only."""
    x = np.arange(2 ** parties)
    x_n = x & 1
    sign = 1.0 - 2.0 * (PARITY[x >> 1] & x_n)
    w = np.stack([np.where(x_n == v, sign, 0.0) for v in (0, 1)],
                 axis=1) / 2 ** (parties - 1)
    w.setflags(write=False)
    return w


def biases(b: Behavior) -> tuple[float, float]:
    """(E_I, E_II): input-averaged biases of the box parity condition.

    P_I is the probability, uniform over sender inputs with x_N = 0, that
    ⊕_k a_k equals ⊕_{k<N} x_k x_N; P_II is the same at x_N = 1; the bias is
    E = 2P - 1.
    """
    e_one, e_two = (correlators(b) @ bias_weights(b.parties)).tolist()
    return e_one, e_two


def concat_success_closed(e_one: float, e_two: float, depth: int, ones: int) -> float:
    """Success of the depth-K tree when the path uses `ones` z-bits equal 1:
    (1 + E_I^(K-r) E_II^r) / 2, exact for any table of distributions.  Each
    level's box input XORs in the unselected subtree's message vector, a
    one-time pad (see concat_success_simulated), so it is uniform and
    independent of the selected subtree's carried error.  The level's own
    error, of bias E_I (z = 0) or E_II (z = 1), is then independent of it,
    and the XOR of independent errors has the product of their biases."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0 <= ones <= depth:
        raise ValueError(f"ones must be in [0, {depth}]")
    return 0.5 * (1.0 + e_one ** (depth - ones) * e_two ** ones)


def concat_success_simulated(b: Behavior, depth: int, z: Sequence[int]) -> float:
    """Exact success probability of the depth-K concatenated run for path z.

    Enumerates the tree bottom-up, carrying the exact joint distribution of
    the measured subtree's outgoing message vector and the receiver's
    running decode bit against the target, r.  The off-path subtree at each
    level is never measured, and its outgoing message vector is exactly
    uniform and independent of everything else: it is its left input
    (fresh first bits at a leaf) XOR the outcomes of a box whose input is
    independent of that left input, so the fresh bits act as a one-time
    pad.  Each level is then one weighted bincount over
    (m_sel, r_sel, m_off, a, c) into (m_out, r), starting at the leaves
    from uniform first (z_K = 0) or second (z_K = 1) bits with r = 0.
    Subtrees involve disjoint boxes and disjoint fresh input bits, so the
    product structure is exact; nothing here assumes anything about how
    box errors combine.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    zbits = index_to_tuple(_bitmask(z, depth), depth)

    n_msgs = 2 ** (b.parties - 1)
    full = b.table.reshape(n_msgs, 2, n_msgs, 2)             # [xs, v, a, c]
    m_sel, r_sel, m_off, a, c = np.ix_(*(np.arange(k) for k in
                                         (n_msgs, 2, n_msgs, n_msgs, 2)))
    sel = np.zeros((n_msgs, 2))
    sel[:, 0] = 1.0 / n_msgs
    for zeta in reversed(zbits):
        # the selected subtree feeds the box's left input when zeta = 0
        m_out = (m_off if zeta else m_sel) ^ a
        r_out = PARITY[m_out] ^ c ^ r_sel ^ PARITY[m_sel]
        w = sel[m_sel, r_sel] * full[m_sel ^ m_off, zeta, a, c] / n_msgs
        cell = np.broadcast_to(2 * m_out + r_out, w.shape)
        sel = np.bincount(cell.ravel(), weights=w.ravel(),
                          minlength=2 * n_msgs).reshape(n_msgs, 2)
    return float(sel[:, 0].sum())
