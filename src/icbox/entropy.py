"""Finite joint distributions and Shannon quantities.

All entropies are in bits.  Distributions are dense numpy arrays with one
axis per named variable; marginalization is an axis sum, so every quantity
is an exact finite sum over the support (no sampling anywhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# a pmf must sum to 1 within PROB_TOL; entries in [-ENTRY_CLAMP, 0) clamp
# to 0, and lower ones are rejected
from .behaviors import ENTRY_CLAMP, PROB_TOL

NONNEG_CLAMP = 1e-12     # conditional MI values in (-1e-12, 0) clamp to 0


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Named finite joint pmf.

    names: variable names, probs axis i belongs to names[i], axis length is
    that variable's cardinality.
    """

    names: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        names = tuple(self.names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != len(names):
            raise ValueError(f"{len(names)} names but pmf has {p.ndim} axes")
        if p.min() < -ENTRY_CLAMP:
            raise ValueError(f"pmf entry below -{ENTRY_CLAMP}: {p.min()}")
        p = np.where(p < 0.0, 0.0, p)
        total = float(p.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"pmf sums to {total!r}, not 1")
        p.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "probs", p)

    @property
    def cards(self) -> tuple[int, ...]:
        return self.probs.shape

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}; have {self.names}") from None


def _resolve(d: JointDistribution, names: Sequence[str] | str) -> tuple[str, ...]:
    if isinstance(names, str):
        names = (names,)
    out = tuple(names)
    for n in out:
        d.axis(n)  # raises on unknown
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate names in {out}")
    return out


def marginal(d: JointDistribution, names: Sequence[str] | str) -> JointDistribution:
    """Marginal distribution over `names`, axes reordered to match `names`."""
    keep = _resolve(d, names)
    drop = tuple(i for i, n in enumerate(d.names) if n not in keep)
    p = d.probs.sum(axis=drop) if drop else d.probs
    kept_order = [n for n in d.names if n in keep]
    p = np.moveaxis(p, [kept_order.index(n) for n in keep], range(len(keep)))
    return JointDistribution(keep, np.ascontiguousarray(p))


def _entropy_of_array(p: np.ndarray) -> float:
    flat = p.ravel()
    pos = flat[flat > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def entropy(d: JointDistribution, names: Sequence[str] | str | None = None) -> float:
    """Shannon entropy H(names) in bits (all variables when names is None)."""
    if names is None:
        return _entropy_of_array(d.probs)
    keep = _resolve(d, names)
    drop = tuple(i for i, n in enumerate(d.names) if n not in keep)
    return _entropy_of_array(d.probs.sum(axis=drop) if drop else d.probs)


def mutual_information(d: JointDistribution,
                       a: Sequence[str] | str, b: Sequence[str] | str) -> float:
    """I(A:B) = H(A) + H(B) - H(A,B).  A and B must be disjoint."""
    aa, bb = _resolve(d, a), _resolve(d, b)
    if set(aa) & set(bb):
        raise ValueError(f"variable sets overlap: {set(aa) & set(bb)}")
    return entropy(d, aa) + entropy(d, bb) - entropy(d, aa + bb)


def cond_mutual_information(d: JointDistribution, a: Sequence[str] | str,
                            b: Sequence[str] | str, c: Sequence[str] | str) -> float:
    """I(A:B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C), clamped at 0.

    The identity is evaluated as stated; values in (-1e-12, 0) are rounding
    noise and clamp to exactly 0.  Anything more negative means a broken
    input distribution and raises.
    """
    aa, bb, cc = _resolve(d, a), _resolve(d, b), _resolve(d, c)
    joint = set(aa) & set(bb) | set(aa) & set(cc) | set(bb) & set(cc)
    if joint:
        raise ValueError(f"variable sets overlap: {joint}")
    v = (entropy(d, aa + cc) + entropy(d, bb + cc)
         - entropy(d, aa + bb + cc) - entropy(d, cc))
    if v < 0.0:
        if v < -NONNEG_CLAMP:
            raise ArithmeticError(f"conditional mutual information {v} < -{NONNEG_CLAMP}")
        v = 0.0
    return v


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p) for p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy needs p in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    return float(-p * math.log2(p) - q * math.log2(q))
