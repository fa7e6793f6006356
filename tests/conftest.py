"""Shared box constructors and comparison helpers for the test suite."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

import numpy as np

from icbox import behaviors as bh
from icbox.behaviors import (Behavior, all_local_deterministic, bit_tuples,
                             local_deterministic, mix, named_box)
from icbox.criteria import CriterionReport, _report
from icbox.entropy import (JointDistribution, binary_entropy,
                           mutual_information)
from icbox.protocol import (guess_name, message_name, task_joint_names,
                            x_bit_name)

_DET_CACHE: dict[int, list[Behavior]] = {}
SAMPLED_DETS = 32   # beyond 4 parties, mix this many drawn deterministic boxes


def local_deterministic_boxes(parties: int) -> list[Behavior]:
    if parties not in _DET_CACHE:
        _DET_CACHE[parties] = list(all_local_deterministic(parties))
    return _DET_CACHE[parties]


def make_svetlichny() -> Behavior:
    """Tripartite extremal box with xor(outputs) = xy + yz + zx (mod 2)."""
    table = np.zeros((8, 8))
    for xi, (x, y, z) in enumerate(bit_tuples(3)):
        cond = (x & y) ^ (y & z) ^ (z & x)
        for oi, (a, b, c) in enumerate(bit_tuples(3)):
            if a ^ b ^ c == cond:
                table[xi, oi] = 0.25
    return Behavior(3, table)


def make_ghz_style() -> Behavior:
    """Odd-weight inputs parity-pinned (to 1 only at x=y=z=1), even-weight
    inputs uniform.  Sits exactly on the tripartite quadratic boundary."""
    table = np.zeros((8, 8))
    for xi, (x, y, z) in enumerate(bit_tuples(3)):
        w = x + y + z
        if w % 2 == 1:
            g = 1 if w == 3 else 0
            for oi, (a, b, c) in enumerate(bit_tuples(3)):
                if a ^ b ^ c == g:
                    table[xi, oi] = 0.25
        else:
            table[xi, :] = 1.0 / 8
    return Behavior(3, table)


def random_local_mixture(rng: np.random.Generator, parties: int,
                         extremal: Behavior | None = None,
                         extremal_weight: float = 0.0) -> Behavior:
    """Random convex mixture of local deterministic boxes, optionally with a
    fixed weight on one extremal no-signaling box.  Always no-signaling.
    Up to 4 parties every deterministic box takes part; beyond, a random
    sample of them (all 4^6 tables at 6 parties would take 134 MB)."""
    if parties <= 4:
        dets = local_deterministic_boxes(parties)
    else:
        dets = [local_deterministic(parties, funcs) for funcs in
                rng.integers(0, 2, (SAMPLED_DETS, parties, 2)).tolist()]
    weights = rng.dirichlet(np.ones(len(dets))) * (1.0 - extremal_weight)
    comps = list(zip(weights.tolist(), dets))
    if extremal is not None and extremal_weight > 0.0:
        comps.append((extremal_weight, extremal))
    return mix(comps)


_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def qubit_box(state: np.ndarray, directions: np.ndarray) -> Behavior:
    """Quantum box p(a|x) = <psi| (x)_k P_k(a_k|x_k) |psi> of an N-qubit
    state (2^N amplitudes, party 1 the most significant qubit) measured by
    party k on input x along the Bloch vector directions[k][x], outcome
    a = 0 on the +1 eigenvector."""
    n = len(directions)
    psi = np.asarray(state, dtype=complex).reshape((2,) * n)
    psi = psi / np.linalg.norm(psi)
    bases = []
    for dirs in directions:      # per party: [x, a, qubit] = <e_a^x|
        rows = []
        for v in dirs:
            v = np.asarray(v, dtype=float) / np.linalg.norm(v)
            _, vecs = np.linalg.eigh(np.tensordot(v, _PAULIS, axes=1))
            rows.append(vecs[:, ::-1].conj().T)   # eigenvalue +1 first
        bases.append(np.stack(rows))
    qubits, inputs, outs = "abcdef"[:n], "ghijkl"[:n], "mnopqr"[:n]
    spec = ",".join(f"{inputs[k]}{outs[k]}{qubits[k]}" for k in range(n))
    amp = np.einsum(f"{spec},{qubits}->{inputs}{outs}", *bases, psi)
    return Behavior(n, (np.abs(amp) ** 2).reshape(2 ** n, 2 ** n))


def random_ns_box(rng: np.random.Generator, parties: int) -> Behavior:
    """Random no-signaling box: local mixture blended with a random weight on
    the parity-extremal box for the scenario."""
    w = float(rng.uniform(0.0, 1.0))
    return random_local_mixture(rng, parties,
                                extremal=named_box("box45", parties=parties),
                                extremal_weight=w)


def random_signaling_box(rng: np.random.Generator, parties: int) -> Behavior:
    """Random table with every row a distribution: normalized and
    nonnegative, almost surely signaling."""
    table = rng.random((2 ** parties, 2 ** parties))
    return Behavior(parties, table / table.sum(axis=1, keepdims=True))


def oracle_orbit_forms(b: Behavior, weights: np.ndarray) -> np.ndarray:
    """sum_x weights[x, j] C'(x) of every relabeled variant of b, computed
    from its relabeled table, shape (N! 8^N, J), rows in the order
    (permutation, flip, beta, alpha) of relabeling_index_maps.  Up to 3
    parties the maps are the whole group; at 4 parties one permutation's
    maps at a time come from _source_index."""
    n = b.parties
    masks = np.arange(2 ** n)
    flip, beta, alpha = (m[..., None, None] for m in np.ix_(masks, masks, masks))
    if n <= 3:
        chunks = [bh.relabeling_index_maps(n)]
    else:
        chunks = (bh._source_index(n, perm, flip, beta, alpha).reshape(-1, 4 ** n)
                  for perm in itertools.permutations(range(n)))
    signs = 1.0 - 2.0 * bh.PARITY[:2 ** n]
    return np.concatenate([
        (b.table.ravel()[maps].reshape(-1, 2 ** n, 2 ** n) @ signs) @ weights
        for maps in chunks])


def behaviors_close(b1: Behavior, b2: Behavior, atol: float = 1e-12) -> bool:
    return b1.parties == b2.parties and bool(
        np.allclose(b1.table, b2.table, atol=atol, rtol=0.0))


def pmf_items(d: JointDistribution
              ) -> Iterable[tuple[tuple[int, ...], float]]:
    """(values, probability) for every atom of d with nonzero weight."""
    it = np.nditer(d.probs, flags=["multi_index"])
    for v in it:
        p = float(v)
        if p != 0.0:
            yield it.multi_index, p


@dataclass(frozen=True)
class Channel:
    """Binary symmetric channel flipping the bit with probability epsilon."""

    epsilon: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 0.5:
            raise ValueError(f"bsc epsilon must be in [0, 0.5], got {self.epsilon}")


def transition(ch: Channel) -> np.ndarray:
    """p(output | input) of a binary symmetric channel, [input, output]."""
    e = ch.epsilon
    return np.array([[1.0 - e, e], [e, 1.0 - e]])


def apply_channel(d: JointDistribution, var: str, ch: Channel,
                  new_name: str) -> JointDistribution:
    """Append `new_name`, the channel output for `var`, to the joint.

    The noise is fresh randomness, so I(new : anything | var) = 0 by
    construction.  `var` must be binary.
    """
    ax = d.axis(var)
    if d.probs.shape[ax] != 2:
        raise ValueError(f"{var!r} has cardinality {d.probs.shape[ax]}, "
                         f"need 2")
    if new_name in d.names:
        raise ValueError(f"name {new_name!r} already present")
    moved = np.moveaxis(d.probs, ax, -1)
    out = moved[..., :, None] * transition(ch)[(None,) * (moved.ndim - 1)]
    out = np.moveaxis(out, -2, ax)  # original axis back in place, output last
    return JointDistribution(d.names + (new_name,), np.ascontiguousarray(out))


def capacity(ch: Channel) -> float:
    """Capacity of the binary symmetric channel, 1 - h(epsilon) bits."""
    return 1.0 - binary_entropy(ch.epsilon)


def noisy_message_name(k: int) -> str:
    """M_k', sender k's message after the channel."""
    return f"M{k}p"


@cache
def _noisy_task_index(n_send: int, noisy: tuple[int, ...]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(src, flip) over the atoms of a noisy task joint, raveled from
    [X, M, M', G]: src[v] is the flat box-table index of the run
    (x, x_N = v, a, c) that lands on the atom under choice v, and flip the
    index of its channel flips f, which only depends on [M, M', G]."""
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
    c = (bh.PARITY[msgs][:, None] ^ bh.PARITY[flips])[:, :, None] ^ np.arange(2)
    a = first[:, None] ^ msgs                                # [X, M]
    row = 2 * (first ^ second)[:, None, None, None]
    src = (row * n_msg + a[:, :, None, None]) * 2 + c        # [X, M, M', G]
    src = np.stack([src.ravel(), src.ravel() + 2 * n_msg])
    flip = np.broadcast_to(flips[:, :, None], c.shape).ravel()
    return src, flip


def noisy_task_joints(b: Behavior, channel: Channel,
                      noisy_senders: Sequence[int] | None = None
                      ) -> tuple[JointDistribution, JointDistribution]:
    """protocol.task_joints with the messages of noisy_senders (default:
    all senders) sent through the channel: the joints gain M_k' after the
    messages, and the guess is decoded from M_k' for those senders and
    from M_k for the rest.  The weight of the run (X, a, c, f) under
    choice i is 4^-(N-1) p(a, c | x, x_N = i-1) times the flip weights, a
    gather of the box table exact for any table.  The entropic oracle of
    the closed-form ic-noisy, 2^(3(N-1)+2) atoms per joint for one noisy
    sender."""
    n_send = b.parties - 1
    noisy = tuple(sorted(range(1, b.parties) if noisy_senders is None
                         else noisy_senders))
    src, flip = _noisy_task_index(n_send, noisy)
    w = b.table.ravel()[src].reshape(2, 4 ** n_send, -1)
    w *= 1.0 / 4 ** n_send
    flip_w = np.ones(1)
    for _ in noisy:
        flip_w = np.multiply.outer(flip_w, (1.0 - channel.epsilon,
                                            channel.epsilon)).ravel()
    w *= flip_w[flip]
    shape = (2,) * (3 * n_send + 1 + len(noisy))
    return tuple(JointDistribution(
        tuple(task_joint_names(b.parties, i)[:-1]
              + [noisy_message_name(k) for k in noisy] + [guess_name(i)]),
        w[i - 1].reshape(shape)) for i in (1, 2))


def noisy_ic_oracle(b: Behavior, epsilon: float) -> CriterionReport:
    """ic-noisy read off the entropies of the noisy task joints: sender
    k's terms are I(X_i^k : X_i^(others), G_i) on the run in which only
    channel k is noisy, its channel information is I(M_k : M_k')."""
    channel = Channel(epsilon)
    senders = range(1, b.parties)
    lhs = rhs = 0.0
    per_sender = {}
    for k in senders:
        joints = noisy_task_joints(b, channel, (k,))
        terms = 0.0
        for i in (1, 2):
            others = tuple(x_bit_name(j, i) for j in senders if j != k)
            terms += mutual_information(joints[i - 1], x_bit_name(k, i),
                                        others + (guess_name(i),))
        cap = mutual_information(joints[0], message_name(k),
                                 noisy_message_name(k))
        lhs += terms
        rhs += cap
        per_sender[f"k={k}"] = {"terms": terms, "channel_information": cap}
    details = {"epsilon": epsilon, "input_correlation": 0.0,
               "per_sender": per_sender}
    if epsilon == 0.5:
        details["flag"] = "indeterminate-limit"
    return _report("ic-noisy", lhs, rhs, details)


def subset_loop_reports(t: np.ndarray, atol: float = bh.PROB_TOL
                        ) -> list[bh.ValidationReport]:
    """ValidationReport of every table in the (E, 2^N, 2^N) stack t, with
    no-signaling checked by the subset loop alone: for every nonempty
    proper subset S of parties, the largest spread of a marginal entry of
    S's outcomes across the inputs outside S.  The reference for
    behaviors._validate_stack, which runs this loop only for the tables
    that its Walsh–Hadamard bound cannot clear."""
    e, size, _ = t.shape
    n = size.bit_length() - 1
    lowest = t.min(axis=(1, 2))
    row_sums = t.sum(axis=2)
    off = np.abs(row_sums - 1.0)
    worst_off = off.max(axis=1)
    tens = t.reshape((e,) + (2,) * (2 * n))
    spreads = []
    for _, outcomes, inputs in bh._outside_axes(n):
        marg = tens.sum(axis=outcomes)
        spreads.append(marg.max(axis=inputs) - marg.min(axis=inputs))
    worst_spread = np.concatenate([s.reshape(e, -1) for s in spreads],
                                  axis=1).max(axis=1)
    failing = ((lowest < -bh.ENTRY_CLAMP) | (worst_off > atol)
               | (worst_spread > atol))
    reports = [bh.ValidationReport(n)] * e
    for i in np.flatnonzero(failing).tolist():
        found = []
        if lowest[i] < -bh.ENTRY_CLAMP:
            xi, ai = divmod(int(np.argmin(t[i])), size)
            found.append(bh.ConstraintViolation(
                "nonnegativity",
                f"entry x={bh.index_to_tuple(xi, n)} "
                f"a={bh.index_to_tuple(ai, n)}",
                float(-lowest[i])))
        if worst_off[i] > atol:
            xi = int(np.argmax(off[i]))
            found.append(bh.ConstraintViolation(
                "normalization",
                f"input x={bh.index_to_tuple(xi, n)} sums to "
                f"{row_sums[i, xi]:.12g}",
                float(worst_off[i])))
        for (names, _, _), spread in zip(bh._outside_axes(n), spreads):
            spread = spread[i]
            worst = float(spread.max())
            if worst > atol:
                loc = np.unravel_index(int(np.argmax(spread)), spread.shape)
                found.append(bh.ConstraintViolation(
                    "no-signaling",
                    f"marginal of parties {{{names}}} varies with outside "
                    f"inputs (at x_S,a_S index "
                    f"{tuple(int(v) for v in loc)})",
                    worst))
        reports[i] = bh.ValidationReport(n, tuple(found))
    return reports


def sequential_load_catalog(path) -> list[bh.CatalogEntry]:
    """load_catalog as a plain loop: parse entry i, validate it, then go on
    to entry i + 1.  The reference for the order of load_catalog's errors."""
    data = bh.read_json(path)
    if not isinstance(data, list):
        raise bh.StructureError("catalog must be a JSON array")
    entries = []
    seen = set()
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise bh.StructureError(f"catalog entry {i} is not an object")
        if "class" not in item or "behavior" not in item:
            raise bh.StructureError(f"catalog entry {i} lacks class/behavior "
                                    f"keys")
        class_id = item["class"]
        if type(class_id) is not int:
            raise bh.StructureError(f"catalog entry {i}: class must be an "
                                    f"integer, got {class_id!r}")
        if class_id in seen:
            raise bh.StructureError(f"catalog entry {i} repeats class "
                                    f"{class_id}")
        seen.add(class_id)
        beh = bh.from_json_obj(item["behavior"])
        report = bh.validate(beh)
        if not report.ok:
            raise ValueError(f"catalog entry {i} (class {class_id}) fails "
                             f"validation:\n" + report.summary())
        entries.append(bh.CatalogEntry(class_id, beh))
    return entries


def flag_bisection(predicate, lo: float, hi: float,
                   tol: float) -> tuple[float, float] | None:
    """Bisection on a bool predicate, halving [lo, hi] until it is at most
    tol wide or lo and hi are adjacent floats; None when the ends do not
    bracket (predicate False at lo, True at hi).  The reference for
    scan.bisect_threshold's ITP on the margin."""
    if predicate(lo) or not predicate(hi):
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi
