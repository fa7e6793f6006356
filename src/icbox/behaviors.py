"""Multipartite no-signaling behaviors with binary inputs and outputs.

A behavior is the conditional table p(a|x) for N parties, x, a in {0,1}^N.
Tables are stored dense as a (2^N, 2^N) float array, rows indexed by the
joint input, columns by the joint outcome.  Bit tuples map to indices with
party 1 as the most significant bit, so for 3 parties the input (x1,x2,x3)
has row index 4*x1 + 2*x2 + x3.  The receiver of the communication task is
always the last party.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, NoReturn, Sequence

import numpy as np

MAX_PARTIES = 6
PROB_TOL = 1e-9          # normalization / no-signaling slack
ENTRY_CLAMP = 1e-12      # negatives above -ENTRY_CLAMP are clamped to 0
JSON_FORMAT = "nsbox-v1"

Bits = tuple[int, ...]


class StructureError(ValueError):
    """Malformed table: wrong shape, missing entries, NaN, bad party count.

    Distinct from constraint violations, which validate() reports instead of
    raising.
    """


def tuple_to_index(bits: Sequence[int]) -> int:
    """Joint index of the bits, the first the most significant.  Each must
    equal 0 or 1 (numpy ints and bools do); nothing is masked."""
    idx = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must each be 0 or 1, got {tuple(bits)!r}")
        idx = (idx << 1) | int(b)
    return idx


def index_to_tuple(idx: int, width: int) -> Bits:
    return tuple((idx >> (width - 1 - i)) & 1 for i in range(width))


def bit_tuples(width: int) -> Iterable[Bits]:
    return itertools.product((0, 1), repeat=width)


def _parity_table(width: int) -> np.ndarray:
    idx = np.arange(2**width)
    par = np.zeros(2**width, dtype=np.int64)
    for shift in range(width):
        par ^= (idx >> shift) & 1
    return par


# parity of the set bits of every joint input or outcome index
PARITY = _parity_table(MAX_PARTIES)
PARITY.setflags(write=False)
_SIGNS = 1.0 - 2.0 * PARITY  # (-1)^parity
_SIGNS.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Behavior:
    """Immutable N-party behavior. Use the module constructors, not raw init."""

    parties: int
    table: np.ndarray

    def __post_init__(self) -> None:
        n = self.parties
        if not isinstance(n, int) or n < 2 or n > MAX_PARTIES:
            raise StructureError(f"parties must be an int in [2, {MAX_PARTIES}], got {n!r}")
        t = np.asarray(self.table, dtype=float)
        if t.shape != (2**n, 2**n):
            raise StructureError(
                f"table shape {t.shape} does not cover all {2**n}x{2**n} entries"
            )
        if np.isnan(t).any():
            raise StructureError("table contains NaN entries")
        # clamp tiny negatives on load; anything below -ENTRY_CLAMP is kept
        # for validate() to report as a nonnegativity violation
        t = np.where((t < 0.0) & (t >= -ENTRY_CLAMP), 0.0, t)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    def prob(self, x: Sequence[int], a: Sequence[int]) -> float:
        n = self.parties
        return float(self.table[_bitmask(x, n), _bitmask(a, n)])

    def entries(self) -> Iterable[tuple[Bits, Bits, float]]:
        n = self.parties
        for xi in range(2**n):
            for ai in range(2**n):
                yield index_to_tuple(xi, n), index_to_tuple(ai, n), float(self.table[xi, ai])


def _wrap(n: int, table: np.ndarray) -> Behavior:
    """Behavior of a read-only (2^N, 2^N) float table, 2 <= N <= 6, that
    has no NaN and that Behavior's clamp leaves unchanged, shared and
    not copied."""
    b = object.__new__(Behavior)
    object.__setattr__(b, "parties", n)
    object.__setattr__(b, "table", table)
    return b


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class ConstraintViolation:
    constraint: str        # "normalization" | "nonnegativity" | "no-signaling"
    context: str
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    parties: int
    violations: tuple[ConstraintViolation, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return "valid"
        lines = [f"{len(self.violations)} constraint violation(s):"]
        for v in self.violations:
            lines.append(f"  {v.constraint}: {v.context} (magnitude {v.magnitude:.3e})")
        return "\n".join(lines)


@functools.cache
def _outside_axes(n: int) -> tuple[tuple[str, tuple[int, ...], tuple[int, ...]],
                                   ...]:
    """(party names of S, outcome axes, input axes of the parties outside
    S) for every nonempty proper subset S, in itertools.combinations order,
    as axes of a stacked (E,) + (2,) * 2N table view: axis 0 the entry,
    1..N the inputs, N+1..2N the outcomes."""
    parties = range(n)
    out = []
    for size in range(1, n):
        for subset in itertools.combinations(parties, size):
            outside = [p for p in parties if p not in subset]
            out.append((",".join(str(p + 1) for p in subset),
                        tuple(1 + n + p for p in outside),
                        tuple(1 + p for p in outside)))
    return tuple(out)


@functools.cache
def _signaling_weights(n: int) -> np.ndarray:
    """2^(1-N) at the flat index of every (α, β) of a 2^N x 2^N
    Walsh–Hadamard spectrum with α ⊄ β, 0 elsewhere.  Shared, so
    read-only."""
    masks = np.arange(2 ** n)
    outside = (masks[:, None] & ~masks[None, :]) != 0
    w = np.where(outside, 2.0 ** (1 - n), 0.0).ravel()
    w.setflags(write=False)
    return w


def _validate_stack(t: np.ndarray, atol: float = PROB_TOL
                    ) -> list[ValidationReport]:
    """ValidationReport of every table in the (E, 2^N, 2^N) stack t.

    Each check runs once over the whole stack; the violation text is built
    only for the entries that fail.  No-signaling holds for a nonempty
    proper subset S of parties when the marginal on S's outcomes does not
    depend on the inputs outside S; the reported magnitude is the largest
    spread of a marginal entry across the outside inputs.

    Most tables skip the subset loop.  Let F = H T H, with
    H[x, α] = (-1)^|α & x|, so T = 4^-N H F H.  Summing T over the
    outcomes outside S keeps the β ⊆ S part of F, times 2^(N-|S|), and the
    terms that vary with an input outside S have α ⊄ S, hence α ⊄ β.  So
    each marginal entry is a constant plus a remainder of size at most
    2^(-N-|S|) Σ_{α ⊄ β} |F[α, β]|, and every spread, at most twice that,
    is at most 2^(-N) Σ_{α ⊄ β} |F[α, β]| (the sum is 0 exactly when T is
    no-signaling).  A nonnegative, normalized table with
    2^(1-N) Σ_{α ⊄ β} |F[α, β]| <= atol/2, so with every spread at most
    atol/4, is valid; the rest of atol covers rounding, at most about
    1e-11 in the bound at N = 6.  Every other table runs the subset loop,
    so each report, message and magnitude is the loop's.
    """
    e, size, _ = t.shape
    n = size.bit_length() - 1
    if np.isnan(t).any():  # defensive, already rejected at construction
        raise StructureError("table contains NaN entries")
    lowest = t.min(axis=(1, 2))
    row_sums = t.sum(axis=2)
    off = np.abs(row_sums - 1.0)
    worst_off = off.max(axis=1)
    # only these tables are finite, so only they enter the spectrum
    sound = np.flatnonzero((lowest >= -ENTRY_CLAMP) & (worst_off <= atol))
    loop = np.ones(e, dtype=bool)
    if sound.size:
        h = _walsh_hadamard(n)
        spectrum = h @ (t if sound.size == e else t[sound]) @ h
        bound = np.abs(spectrum).reshape(sound.size, -1) @ _signaling_weights(n)
        loop[sound[bound <= atol / 2]] = False
    reports = [ValidationReport(n)] * e
    rest = np.flatnonzero(loop)
    if not rest.size:
        return reports
    # tensor view: axis 0 the entry, then the inputs, then the outcomes
    tens = t[rest].reshape((rest.size,) + (2,) * (2 * n))
    spreads = []
    for _, outcomes, inputs in _outside_axes(n):
        marg = tens.sum(axis=outcomes)   # marginal of S's outcomes
        spreads.append(marg.max(axis=inputs) - marg.min(axis=inputs))
    worst_spread = np.concatenate([s.reshape(rest.size, -1) for s in spreads],
                                  axis=1).max(axis=1)
    failing = ((lowest[rest] < -ENTRY_CLAMP) | (worst_off[rest] > atol)
               | (worst_spread > atol))
    for j in np.flatnonzero(failing).tolist():
        i = int(rest[j])
        found: list[ConstraintViolation] = []
        if lowest[i] < -ENTRY_CLAMP:
            xi, ai = divmod(int(np.argmin(t[i])), size)
            found.append(ConstraintViolation(
                "nonnegativity",
                f"entry x={index_to_tuple(xi, n)} a={index_to_tuple(ai, n)}",
                float(-lowest[i]),
            ))
        if worst_off[i] > atol:
            xi = int(np.argmax(off[i]))
            found.append(ConstraintViolation(
                "normalization",
                f"input x={index_to_tuple(xi, n)} sums to {row_sums[i, xi]:.12g}",
                float(worst_off[i]),
            ))
        for (names, _, _), spread in zip(_outside_axes(n), spreads):
            spread = spread[j]
            worst = float(spread.max())
            if worst > atol:
                loc = np.unravel_index(int(np.argmax(spread)), spread.shape)
                found.append(ConstraintViolation(
                    "no-signaling",
                    f"marginal of parties {{{names}}} varies with outside inputs "
                    f"(at x_S,a_S index {tuple(int(v) for v in loc)})",
                    worst,
                ))
        reports[i] = ValidationReport(n, tuple(found))
    return reports


def validate(b: Behavior, atol: float = PROB_TOL) -> ValidationReport:
    """Check normalization, nonnegativity and full-subset no-signaling
    (_validate_stack of the one table).  Structural problems raise
    StructureError; this function only reports constraint violations."""
    return _validate_stack(b.table[None], atol)[0]


# ---------------------------------------------------------------------------
# named boxes

def named_box(name: str, *, parties: int | None = None,
              bias: float | None = None) -> Behavior:
    """Construct a built-in behavior.

    box45                 N-party box with ⊕_k a_k = (x1 ⊕ ... ⊕ x_{N-1}) x_N
    pr                    box45 at 2 parties: a1 ⊕ a2 = x1 x2
    white                 uniform noise, 2^-N everywhere
    deterministic-zero    all parties output 0
    isotropic             E * box45(N) + (1-E) * white(N), E in [0, 1]

    parties defaults to 2 for pr, else 3; bias is the E of isotropic.
    """
    if name == "pr":
        if parties not in (None, 2):
            raise ValueError("pr box is bipartite; parties must be 2")
        name, parties = "box45", 2
    n = 3 if parties is None else parties
    if not 2 <= n <= MAX_PARTIES:
        raise ValueError(f"parties must be in [2, {MAX_PARTIES}], got {n}")
    if name == "box45":
        # the receiver's input x_N is the low bit of the joint input x
        x = np.arange(2**n)[:, None]
        hit = PARITY[:2**n] == PARITY[x >> 1] & x & 1
        return Behavior(n, np.where(hit, 2.0 ** (1 - n), 0.0))
    if name == "white":
        return Behavior(n, np.full((2**n, 2**n), 1.0 / 2**n))
    if name == "deterministic-zero":
        t = np.zeros((2**n, 2**n))
        t[:, 0] = 1.0
        return Behavior(n, t)
    if name == "isotropic":
        if bias is None:
            raise ValueError("isotropic box needs bias=E")
        if not 0.0 <= bias <= 1.0:
            raise ValueError(f"isotropic bias must be in [0, 1], got {bias}")
        return mix([(bias, named_box("box45", parties=n)),
                    (1.0 - bias, named_box("white", parties=n))])
    raise ValueError(f"unknown box name {name!r}")


def local_deterministic(parties: int, funcs: Sequence[tuple[int, int]]) -> Behavior:
    """Deterministic local box: party k outputs funcs[k][x_k]."""
    n = parties
    if len(funcs) != n:
        raise ValueError("need one response pair per party")
    pairs = [_bitmask(f, 2) for f in funcs]  # output on input v: bit 1 - v
    t = np.zeros((2**n, 2**n))
    for xi in range(2**n):
        x = index_to_tuple(xi, n)
        a = tuple((pairs[k] >> (1 - x[k])) & 1 for k in range(n))
        t[xi, tuple_to_index(a)] = 1.0
    return Behavior(n, t)


def all_local_deterministic(parties: int) -> Iterable[Behavior]:
    """All 4^N local deterministic boxes (every per-party response function)."""
    per_party = list(itertools.product((0, 1), repeat=2))
    for combo in itertools.product(per_party, repeat=parties):
        yield local_deterministic(parties, combo)


def mix(components: Sequence[tuple[float, Behavior]]) -> Behavior:
    """Convex combination. Weights must be >= 0 and sum to 1 within 1e-9."""
    if not components:
        raise ValueError("mix of zero components")
    n = components[0][1].parties
    total = 0.0
    acc = np.zeros_like(components[0][1].table)
    for w, b in components:
        if b.parties != n:
            raise ValueError("mix components must share the party count")
        if w < -ENTRY_CLAMP:
            raise ValueError(f"negative mixture weight {w}")
        total += w
        acc += w * b.table
    if abs(total - 1.0) > PROB_TOL:
        raise ValueError(f"mixture weights sum to {total!r}, not 1")
    return Behavior(n, acc)


def correlators(b: Behavior) -> np.ndarray:
    """Full N-party correlators C_x = sum_a (-1)^(a1+...+aN) p(a|x), one
    per joint input x (row index order)."""
    return b.table @ _SIGNS[:2 ** b.parties]


def correlator(b: Behavior, x: Sequence[int]) -> float:
    """Full N-party correlator C_x at the input bits x."""
    return float(correlators(b)[_bitmask(x, b.parties)])


# ---------------------------------------------------------------------------
# relabelings (used by the orbit criteria and catalog classification)

def _bitmask(bits: Sequence[int], n: int) -> int:
    """tuple_to_index of exactly n bits."""
    bits = tuple(bits)
    if len(bits) != n:
        raise ValueError(f"need {n} bits, each 0 or 1, got {bits!r}")
    return tuple_to_index(bits)


def _moved_bits(n: int, perm: Sequence[int]) -> np.ndarray:
    """moved[i]: the joint index i of the party-permuted behavior (party i
    is the source's party perm[i]) written in the source party order."""
    idx = np.arange(2 ** n)
    moved = np.zeros(2 ** n, dtype=np.int64)
    for i, p in enumerate(perm):
        moved |= ((idx >> (n - 1 - i)) & 1) << (n - 1 - p)
    return moved


@functools.cache
def _permuted_bits(n: int) -> np.ndarray:
    """(N!, 2^N): row p is _moved_bits for the p-th permutation in
    itertools.permutations order.  Shared between calls, so read-only."""
    moved = np.stack([_moved_bits(n, perm)
                      for perm in itertools.permutations(range(n))])
    moved.setflags(write=False)
    return moved


@functools.cache
def _walsh_hadamard(n: int) -> np.ndarray:
    """(2^N, 2^N) signs H[x, α] = (-1)^|α & x|.  Shared, so read-only."""
    x = np.arange(2 ** n)
    signs = _SIGNS[x[:, None] & x]
    signs.setflags(write=False)
    return signs


def _source_index(n: int, perm: Sequence[int], flip=0, beta=0,
                  alpha=0) -> np.ndarray:
    """Flat source index of every entry of a relabeled N-party table.

    The relabeled behavior's party i is the source's party perm[i]; then
    its inputs are flipped, x -> x ⊕ flip, and its outcomes mapped
    a -> a ⊕ beta ⊕ (alpha & x).  flip, beta and alpha are party bitmasks
    (party 1 the most significant bit), ints or integer arrays that
    broadcast to a leading shape S; the result has shape S + (4^N,) and the
    relabeled table is table.ravel()[result].
    """
    size = 2 ** n
    idx = np.arange(size)
    moved = _moved_bits(n, perm)
    x = idx[:, None]
    src = (moved[x ^ flip] << n) | moved[idx ^ beta ^ (alpha & x)]
    return src.reshape(*src.shape[:-2], size * size)


def _relabeled(b: Behavior, src: np.ndarray) -> Behavior:
    return Behavior(b.parties, b.table.ravel()[src].reshape(b.table.shape))


def permute_parties(b: Behavior, perm: Sequence[int]) -> Behavior:
    """Behavior whose party i is b's party perm[i] (perm is 0-based)."""
    n = b.parties
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n-1}")
    return _relabeled(b, _source_index(n, perm))


def flip_inputs(b: Behavior, mask: Sequence[int]) -> Behavior:
    """Relabel inputs x_k -> x_k ⊕ mask[k]."""
    n = b.parties
    return _relabeled(b, _source_index(n, range(n), flip=_bitmask(mask, n)))


def relabel_outputs(b: Behavior, offsets: Sequence[int],
                    input_conditioned: Sequence[int] | None = None) -> Behavior:
    """Relabel outputs a_k -> a_k ⊕ offsets[k] ⊕ input_conditioned[k]*x_k."""
    n = b.parties
    alpha = input_conditioned or (0,) * n
    return _relabeled(b, _source_index(n, range(n), beta=_bitmask(offsets, n),
                                       alpha=_bitmask(alpha, n)))


def relabeling_index_maps(parties: int) -> np.ndarray:
    """Flat-index maps for the full relabeling group, shape (G, 4^N).

    Row g maps new flat index (x*2^N + a) to the source flat index, so the
    relabeled table is table.ravel()[maps[g]].  G = N! * 2^N * 4^N covers all
    party permutations, input flips and per-party output maps
    a -> a ⊕ β ⊕ αx, in the order (permutation, flip, β, α), the last
    fastest.  For N=3 that is 6*8*64 = 3072 group elements.  The test
    oracle of orbit_forms; 2 to 4 parties (201 MB at N=4).
    """
    n = parties
    if not 2 <= n <= 4:
        raise ValueError(f"relabeling index maps are supported for 2 to 4 "
                         f"parties, got {n}")
    masks = np.arange(2 ** n)
    flip, beta, alpha = (m[..., None, None] for m in np.ix_(masks, masks, masks))
    return np.concatenate([
        _source_index(n, perm, flip, beta, alpha).reshape(-1, 4 ** n)
        for perm in itertools.permutations(range(n))])


def orbit_forms(b: Behavior, weights: np.ndarray) -> np.ndarray:
    """F_j = sum_x weights[x, j] C'(x) for the correlators C' of every
    relabeled variant of b with β = 0, shape (N!·2^N, J, 2^N) over
    (permutation, flip), j, α.  The β variants are (-1)^|β| times these.

    C'(x) = (-1)^(|β| ⊕ |α & x|) C(moved(x ⊕ flip)), so F_j is the
    Walsh-Hadamard transform of weights[:, j] ⊙ D at α, with
    D(x) = C(moved(x ⊕ flip)).  moved is linear over XOR, so D is one
    gather, and one product with weights ⊗ H, H[x, α] = (-1)^|α & x|,
    transforms every row.
    """
    n = b.parties
    size = 2 ** n
    w = np.asarray(weights, dtype=float)
    d = correlators(b)[_orbit_gather(n)]
    forms = d.reshape(-1, size) @ _weighted_hadamard(w.shape, w.tobytes())
    return forms.reshape(-1, w.shape[1], size)


@functools.cache
def _orbit_gather(n: int) -> np.ndarray:
    """(N!, 2^N, 2^N) uint8 index moved(x ⊕ flip) = moved(x) ⊕ moved(flip)
    of every (permutation, flip, x), for the gather in orbit_forms.
    Shared, so read-only."""
    moved = _permuted_bits(n).astype(np.uint8)
    gather = moved[:, :, None] ^ moved[:, None, :]
    gather.setflags(write=False)
    return gather


@functools.lru_cache(maxsize=16)
def _weighted_hadamard(shape: tuple[int, int], packed: bytes) -> np.ndarray:
    """(2^N, J 2^N) product weights ⊗ H of orbit_forms, keyed by the float
    weights' shape and bytes, so each criterion's weights build it once.
    Shared, so read-only."""
    size, cols = shape
    weights = np.frombuffer(packed).reshape(shape)
    n = size.bit_length() - 1
    wh = (weights[:, :, None] * _walsh_hadamard(n)[:, None, :]).reshape(
        size, cols * size)
    wh.setflags(write=False)
    return wh


# ---------------------------------------------------------------------------
# JSON I/O

def to_json_obj(b: Behavior) -> dict:
    table = []
    for x, a, p in b.entries():
        if p != 0.0:
            table.append({"x": list(x), "a": list(a), "p": p})
    return {"parties": b.parties, "format": JSON_FORMAT, "table": table}


def _brief(value) -> str:
    """repr of a parsed JSON value for an error message, cut to 60
    characters."""
    try:
        text = repr(value)
    except ValueError:  # an int with too many digits to print
        return f"an {type(value).__name__} too long to print"
    return text if len(text) <= 60 else text[:57] + "..."


def _bits_index(bits, n: int, key: str, row: int) -> int:
    """Row index of one nsbox-v1 bit list: exactly n ints, each 0 or 1."""
    if not isinstance(bits, list) or len(bits) != n:
        raise StructureError(f"table entry {row}: {key} must list {n} bits, "
                             f"got {_brief(bits)}")
    idx = 0
    for v in bits:
        if type(v) is not int or not 0 <= v <= 1:
            raise StructureError(f"table entry {row}: {key} bits must be 0 "
                                 f"or 1, got {_brief(bits)}")
        idx = (idx << 1) | v
    return idx


def _raise_row_error(rows: list, n: int) -> NoReturn:
    """Raise StructureError naming the first malformed or repeated entry."""
    seen = set()
    for i, row in enumerate(rows):
        if not isinstance(row, Mapping) or not {"x", "a", "p"} <= row.keys():
            raise StructureError(f"table entry {i} must be an object with "
                                 f"x, a and p")
        key = (_bits_index(row["x"], n, "x", i),
               _bits_index(row["a"], n, "a", i))
        p = row["p"]
        try:
            finite = type(p) in (int, float) and math.isfinite(p)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise StructureError(f"table entry {i}: p must be a finite "
                                 f"number, got {_brief(p)}")
        if key in seen:
            raise StructureError(f"table entry {i} repeats x={row['x']} "
                                 f"a={row['a']}")
        seen.add(key)
    raise StructureError("malformed table")


@functools.cache
def _bits_indices(n: int) -> dict[Bits, int]:
    return {bits: i for i, bits in enumerate(bit_tuples(n))}


def _table_entries(rows: list, n: int, sizes: Sequence[int] = ()
                   ) -> np.ndarray:
    """The (T, 2^N, 2^N) stack of the tables that the nsbox-v1 entries in
    rows list, omitted entries 0: table k holds the sizes[k] rows after
    those of tables 0..k-1 (default: one table of every row).  The checks
    run over all entries at once; _raise_row_error names the entry that
    failed by its index in rows."""
    try:
        bit_lists = (list(map(itemgetter("x"), rows))
                     + list(map(itemgetter("a"), rows)))
        ps = list(map(itemgetter("p"), rows))
        # admits only length-n sequences whose items equal 0 or 1
        idx = list(map(_bits_indices(n).__getitem__, map(tuple, bit_lists)))
        # also rejects 1.0 and true, which pass the lookup
        ok = not (set(map(type, bit_lists)) - {list}
                  or set(map(type, itertools.chain.from_iterable(bit_lists)))
                  - {int}
                  or set(map(type, ps)) - {int, float}
                  or not all(map(math.isfinite, ps)))
    except (TypeError, KeyError, OverflowError):
        ok = False
    if not ok:
        _raise_row_error(rows, n)
    flat = np.array(idx, dtype=np.int64).reshape(2, -1)
    flat = flat[0] * 2**n + flat[1]
    count = len(sizes) or 1
    if sizes:  # each table's entries count from its own offset
        flat += np.repeat(np.arange(count) * 4**n, sizes)
    if len(set(flat.tolist())) != len(rows):
        _raise_row_error(rows, n)
    t = np.zeros(count * 4**n)
    t[flat] = ps
    return t.reshape(count, 2**n, 2**n)


def _behavior_rows(obj) -> tuple[int, list]:
    """(parties, table entries) of an nsbox-v1 object whose format,
    party count and table type pass; the entries are not checked."""
    if not isinstance(obj, Mapping):
        raise StructureError("behavior JSON must be an object")
    if obj.get("format") != JSON_FORMAT:
        raise StructureError(f"unsupported behavior format "
                             f"{_brief(obj.get('format'))}")
    n = obj.get("parties")
    if type(n) is not int:
        raise StructureError("parties must be an integer")
    if not 2 <= n <= MAX_PARTIES:
        raise StructureError(f"parties must be in [2, {MAX_PARTIES}], "
                             f"got {_brief(n)}")
    rows = obj.get("table", [])
    if not isinstance(rows, list):
        raise StructureError("table must be a JSON array")
    return n, rows


def from_json_obj(obj: Mapping) -> Behavior:
    """Parse a strict nsbox-v1 object.  Omitted entries are 0; bits must be
    the ints 0 or 1, each (x, a) may appear once and p must be a finite
    number.  Every failure raises StructureError."""
    n, rows = _behavior_rows(obj)
    return Behavior(n, _table_entries(rows, n)[0])


def save_behavior(b: Behavior, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_obj(b), fh, indent=1)
        fh.write("\n")


def read_json(path):
    """The JSON value in a file.  Malformed JSON, nesting too deep for the
    parser and text that is not UTF-8 raise StructureError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise StructureError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:
            raise StructureError(f"{path}: not valid JSON: {exc}") from None


def load_behavior(path) -> Behavior:
    return from_json_obj(read_json(path))


@dataclass(frozen=True)
class CatalogEntry:
    class_id: int
    behavior: Behavior


def _catalog_class(i: int, item, seen: set[int]) -> int:
    """The class id of catalog entry i, checked like its keys and added to
    seen, the ids of the entries before it."""
    if not isinstance(item, Mapping):
        raise StructureError(f"catalog entry {i} is not an object")
    if "class" not in item or "behavior" not in item:
        raise StructureError(f"catalog entry {i} lacks class/behavior keys")
    class_id = item["class"]
    if type(class_id) is not int:
        raise StructureError(f"catalog entry {i}: class must be an "
                             f"integer, got {class_id!r}")
    if class_id in seen:
        raise StructureError(f"catalog entry {i} repeats class {class_id}")
    seen.add(class_id)
    return class_id


def _check_catalog(entries: Sequence[CatalogEntry]) -> None:
    """Raise for the first entry that fails validation: one stacked check
    per party count."""
    by_parties: dict[int, list[int]] = {}
    for i, entry in enumerate(entries):
        by_parties.setdefault(entry.behavior.parties, []).append(i)
    failed = {}
    for rows in by_parties.values():
        reports = _validate_stack(
            np.stack([entries[i].behavior.table for i in rows]))
        failed.update((i, r) for i, r in zip(rows, reports) if not r.ok)
    if failed:
        i = min(failed)
        raise ValueError(
            f"catalog entry {i} (class {entries[i].class_id}) fails "
            f"validation:\n" + failed[i].summary())


def _load_stacked(data: list) -> list[CatalogEntry]:
    """The catalog entries of data, parsed with one _table_entries call
    per party count and validated by _check_catalog.  Raises
    StructureError for any malformed entry, without naming the first."""
    seen: set[int] = set()
    class_ids, by_parties = [], {}
    for i, item in enumerate(data):
        class_ids.append(_catalog_class(i, item, seen))
        n, rows = _behavior_rows(item["behavior"])
        by_parties.setdefault(n, []).append((i, rows))
    behaviors = {}
    for n, group in by_parties.items():
        tables = _table_entries(
            list(itertools.chain.from_iterable(rows for _, rows in group)),
            n, [len(rows) for _, rows in group])
        # Behavior's clamp, on the whole stack; no entry is NaN
        tables[(tables < 0.0) & (tables >= -ENTRY_CLAMP)] = 0.0
        tables.setflags(write=False)
        behaviors.update((i, _wrap(n, t)) for (i, _), t in zip(group, tables))
    entries = [CatalogEntry(c, behaviors[i]) for i, c in enumerate(class_ids)]
    _check_catalog(entries)
    return entries


def load_catalog(path) -> list[CatalogEntry]:
    """Load a JSON array of {"class": int, "behavior": {...}} entries.

    Class ids must be integers, each listed once.  Every behavior is
    validated; entries that fail validation abort the load.  The first bad
    entry in file order names the error, as if each entry were parsed and
    validated before the next: a catalog with a malformed entry is loaded
    again entry by entry to find it.
    """
    data = read_json(path)
    if not isinstance(data, list):
        raise StructureError("catalog must be a JSON array")
    try:
        return _load_stacked(data)
    except StructureError:
        pass
    entries: list[CatalogEntry] = []
    seen: set[int] = set()
    try:
        for i, item in enumerate(data):
            class_id = _catalog_class(i, item, seen)
            entries.append(CatalogEntry(class_id,
                                        from_json_obj(item["behavior"])))
    except StructureError:
        _check_catalog(entries)   # an invalid entry before it comes first
        raise
    _check_catalog(entries)
    return entries
