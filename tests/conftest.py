"""Shared box constructors and comparison helpers for the test suite."""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

from icbox import behaviors as bh
from icbox.behaviors import (Behavior, all_local_deterministic, bit_tuples,
                             local_deterministic, mix, named_box)
from icbox.entropy import Channel, JointDistribution, binary_entropy

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
    extremal = named_box("pr") if parties == 2 else named_box(
        "box45", parties=parties)
    w = float(rng.uniform(0.0, 1.0))
    return random_local_mixture(rng, parties, extremal=extremal,
                                extremal_weight=w)


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
