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
choice, the run joint of the input bits, the messages (and their channel
outputs) and the guess G_i picked by that choice, 2^(3(N-1)+1) atoms without
a channel.  Given the input bits, (a, c, channel flips) and (M, M', G_i)
determine each other, so every atom is one box weight p(a, c | x, i-1) times
4^-(N-1) and the flip weights: a fixed gather of the box table, exact for any
table.  single_copy_joint builds the full run joint (box inputs and
outcomes, choice J, and both guesses on one sample space) by direct
enumeration; it is kept as the test oracle for task_joints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, reduce
from typing import Sequence

import numpy as np

from .behaviors import (PARITY, Behavior, _bitmask, correlators,
                        index_to_tuple, tuple_to_index)
from .entropy import Channel, JointDistribution

MAX_JOINT_VARS = 24      # dense oracle joint capped at 2^24 atoms

CHOICE = "J"


def x_bit_name(k: int, i: int) -> str:
    """Bit i of sender k (both 1-based)."""
    return f"X{i}^{k}"


def message_name(k: int) -> str:
    return f"M{k}"


def noisy_message_name(k: int) -> str:
    return f"M{k}p"


def guess_name(i: int) -> str:
    return f"G{i}"


def x_bit_names(parties: int) -> list[str]:
    return [x_bit_name(k, i) for k in range(1, parties) for i in (1, 2)]


def _resolve_noisy(b: Behavior, channel: Channel | None,
                   noisy_senders: Sequence[int] | None) -> tuple[int, ...]:
    """The sorted senders whose messages cross the channel."""
    senders = range(1, b.parties)
    if channel is None:
        if noisy_senders:
            raise ValueError("noisy_senders given without a channel")
        return ()
    noisy = tuple(sorted(senders if noisy_senders is None else noisy_senders))
    if any(k not in senders for k in noisy):
        raise ValueError(f"noisy_senders must be senders 1..{b.parties - 1}")
    return noisy


def task_joint_names(parties: int, i: int,
                     noisy: Sequence[int] = ()) -> list[str]:
    """Variables of the task joint for receiver choice i, in axis order."""
    return (x_bit_names(parties)
            + [message_name(k) for k in range(1, parties)]
            + [noisy_message_name(k) for k in noisy]
            + [guess_name(i)])


@cache
def _task_index(n_send: int, noisy: tuple[int, ...]
                ) -> tuple[np.ndarray, np.ndarray]:
    """(src, flip) over the atoms of a task joint, raveled from
    [X, M, M', G]: src[v] is the flat box-table index of the run
    (x, x_N = v, a, c) that lands on the atom under choice v, and flip the
    index of its channel flips f, which only depends on [M, M', G].  Both
    are shared between calls, so read-only."""
    n_x, n_msg, n_flip = 4 ** n_send, 2 ** n_send, 2 ** len(noisy)
    x_idx = np.arange(n_x)
    first = np.zeros(n_x, dtype=np.int64)
    second = np.zeros(n_x, dtype=np.int64)
    for k in range(n_send):  # X_1^k, X_2^k are bits 2(ns-k)-1, 2(ns-k)-2
        first = (first << 1) | ((x_idx >> (2 * (n_send - k) - 1)) & 1)
        second = (second << 1) | ((x_idx >> (2 * (n_send - k) - 2)) & 1)
    msgs = np.arange(n_msg)
    noisy_bits = np.zeros_like(msgs)                         # M_k, k noisy
    for k in noisy:
        noisy_bits = (noisy_bits << 1) | ((msgs >> (n_send - k)) & 1)
    flips = noisy_bits[:, None] ^ np.arange(n_flip)          # [M, M']
    # the receiver decodes from M_k' = M_k ⊕ f_k for noisy senders
    c = (PARITY[msgs][:, None] ^ PARITY[flips])[:, :, None] ^ np.arange(2)
    a = first[:, None] ^ msgs                                # [X, M]
    row = 2 * (first ^ second)[:, None, None, None]
    src = (row * n_msg + a[:, :, None, None]) * 2 + c        # [X, M, M', G]
    src = np.stack([src.ravel(), src.ravel() + 2 * n_msg])
    flip = np.broadcast_to(flips[:, :, None], c.shape).ravel()
    for arr in (src, flip):
        arr.setflags(write=False)
    return src, flip


def task_joints(b: Behavior, channel: Channel | None = None, *,
                noisy_senders: Sequence[int] | None = None
                ) -> tuple[JointDistribution, JointDistribution]:
    """Exact run joints of the input bits, messages and guess, one per
    receiver choice; joints[i-1] carries G_i.

    Variables (task_joint_names): X_i^k, M_k, M_kp for the senders behind
    the channel, G_i.  With a channel, noisy_senders selects which
    messages pass through it (default: all of them); the guess is decoded
    from M_kp for those senders and from M_k for the rest.

    The weight of the run (X, a, c, f) under choice i is
    4^-(N-1) p(a, c | x, x_N = i-1) times the flip weights.  This reads the
    box table and divides by nothing, so each joint is normalized for any
    normalized table; for a no-signaling box it equals single_copy_joint
    conditioned on J = i-1.
    """
    noisy = _resolve_noisy(b, channel, noisy_senders)
    n_send = b.parties - 1
    src, flip = _task_index(n_send, noisy)
    w = b.table.ravel()[src].reshape(2, 4 ** n_send, -1)
    w *= 1.0 / 4 ** n_send
    if noisy:
        eps = channel.epsilon
        flip_w = np.ones(1)
        for _ in noisy:
            flip_w = np.multiply.outer(flip_w, (1.0 - eps, eps)).ravel()
        w *= flip_w[flip]
    shape = (2,) * (3 * n_send + 1 + len(noisy))
    return tuple(JointDistribution(
        tuple(task_joint_names(b.parties, i, noisy)), w[i - 1].reshape(shape))
        for i in (1, 2))


def single_copy_joint(b: Behavior, channel: Channel | None = None, *,
                      noisy_senders: Sequence[int] | None = None) -> JointDistribution:
    """Exact joint of inputs, box data, messages, choice and guesses.

    Variables: X_i^k, x_k, a_k, c_1, c_2, M_k, (M_kp for senders behind the
    channel), J, G_1, G_2.  With a channel, noisy_senders selects which
    messages pass through it (default: all of them); the guesses are
    decoded from M_kp for those senders and from M_k for the rest.  Built by
    enumeration and capped at MAX_JOINT_VARS variables; it is the test
    oracle for task_joints, which the criteria use.  It draws c_1 and c_2
    from p(c | a, x, x_N) given the senders' p(a | x), which is well
    defined only for a no-signaling box.
    """
    noisy = _resolve_noisy(b, channel, noisy_senders)
    n_parties = b.parties
    senders = list(range(1, n_parties))

    names = (x_bit_names(n_parties)
             + [f"x{k}" for k in senders] + [f"a{k}" for k in senders]
             + ["c1", "c2"]  # receiver outcome under x_N = 0, 1
             + [message_name(k) for k in senders]
             + [noisy_message_name(k) for k in noisy]
             + [CHOICE, guess_name(1), guess_name(2)])
    if len(names) > MAX_JOINT_VARS:
        raise ValueError(
            f"joint would need {len(names)} binary variables; dense cap is "
            f"{MAX_JOINT_VARS} (reduce parties or noisy senders)")

    ns = n_parties - 1
    # [xs, x_N, as, c]: the receiver's bits are the least significant ones
    full = b.table.reshape(2 ** ns, 2, 2 ** ns, 2)
    send = full[:, 0].sum(axis=-1)  # p(a | x), x_N-independent once validated

    w_x = 1.0 / 4 ** ns  # uniform input bits
    eps = channel.epsilon if channel is not None else 0.0
    flip_w = (1.0 - eps, eps)

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
            cond = full[xs_idx, :, as_idx, :] / p_send  # [choice, c]
            for c1, c2 in itertools.product((0, 1), repeat=2):
                w_c = cond[0, c1] * cond[1, c2]
                if w_c == 0.0:
                    continue
                base = w_x * p_send * w_c * half
                for flips in itertools.product((0, 1), repeat=len(noisy)):
                    w_f = base
                    for f in flips:
                        w_f *= flip_w[f]
                    if w_f == 0.0:
                        continue
                    noisy_msgs = {k: msgs[k - 1] ^ f for k, f in zip(noisy, flips)}
                    used = [noisy_msgs.get(k, msgs[k - 1]) for k in senders]
                    decode = reduce(lambda u, v: u ^ v, used, 0)
                    g1 = decode ^ c1
                    g2 = decode ^ c2
                    tail = (*(noisy_msgs[k] for k in noisy), 0, g1, g2)
                    idx = (*xbits, *xs_bits, *as_bits, c1, c2, *msgs, *tail)
                    probs[idx] += w_f
                    idx_j1 = (*idx[:-3], 1, g1, g2)
                    probs[idx_j1] += w_f
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
    (1 + E_I^(K-r) E_II^r) / 2."""
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
