"""Adjacency patterns over variable tuples and their extension weights.

A graph type records, for an ordered tuple of k variables, which unordered
pairs are adjacent; every pair is decided one way or the other. Extending a
type adds one fresh variable together with a full set of edge decisions
against the existing ones. The alpha weights below are the limiting
probabilities that a uniformly random new node realizes a given extension
pattern, either unconditionally or conditioned on being adjacent to an
anchor variable.

A type is stored as (k, bits) with pair (i, j), i < j, at bit j(j-1)/2 + i
(colex order); restriction masks the low bits, extension appends above them.

Weights come in float and exact `Fraction` flavors. The exact ones make the
normalization identity (the weights over all extensions of a type sum to
one) hold with no rounding at all, which the float versions inherit only
approximately.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import index
from typing import Optional, Sequence

from .errors import ConfigError

__all__ = [
    "GraphType",
    "enumerate_extensions",
    "alpha_weight",
    "alpha_weight_exact",
    "alpha_weight_local",
    "alpha_weight_local_exact",
    "alpha_weight_sbm",
]


def _npairs(k: int) -> int:
    return k * (k - 1) // 2


def _int(x, what: str) -> int:
    """x through operator.index, so NumPy integers pass and floats do not."""
    try:
        return index(x)
    except TypeError:
        raise ConfigError(f"{what} must be an integer, got {x!r}") from None


@dataclass(frozen=True, init=False)
class GraphType:
    """Edge/non-edge decision for every pair among k ordered variables.

    `edges` holds the adjacent pairs as (i, j) with i < j; absent pairs are
    non-edges. k=0 is the unique empty type; equality is on (k, bits()).
    """

    k: int
    _bits: int

    def __init__(self, k: int, edges=frozenset()):
        if (k := _int(k, "variable count")) < 0:
            raise ConfigError("variable count must be >= 0")
        bits = 0
        for i, j in edges:
            i, j = _int(i, "pair entry"), _int(j, "pair entry")
            if not (0 <= i < j < k):
                raise ConfigError(
                    f"pair ({i}, {j}) is not ordered and below k={k}")
            bits |= 1 << (_npairs(j) + i)
        self.__dict__.update(k=k, _bits=bits)

    @classmethod
    def _make(cls, k: int, bits: int) -> "GraphType":
        """Unchecked constructor for bits derived from a valid type."""
        t = object.__new__(cls)
        t.__dict__.update(k=k, _bits=bits)
        return t

    @property
    def edges(self) -> frozenset:
        return frozenset((i, j) for j in range(self.k) for i in range(j)
                         if self._bits >> (_npairs(j) + i) & 1)

    def has_edge(self, i: int, j: int) -> bool:
        i, j = sorted((_int(i, "pair entry"), _int(j, "pair entry")))
        if i == j:
            raise ConfigError("graph types have no self pairs")
        if not (0 <= i and j < self.k):
            raise ConfigError(f"pair ({i}, {j}) is out of range for k={self.k}")
        return bool(self._bits >> (_npairs(j) + i) & 1)

    def bits(self) -> int:
        """The pair decisions as an int, pair (i, j) at bit j(j-1)/2 + i."""
        return self._bits

    @classmethod
    def from_bits(cls, k: int, bits: int) -> "GraphType":
        """Inverse of bits(): bit j(j-1)/2 + i set means (i, j) is an edge."""
        if not (k >= 0 and 0 <= (bits := index(bits)) < 1 << _npairs(k)):
            raise ConfigError(f"bit pattern {bits} out of range for k={k}")
        return cls._make(k, bits)

    def restrict(self, m: int) -> "GraphType":
        """Induced type on the first m variables."""
        if not (0 <= m <= self.k):
            raise ConfigError(f"cannot restrict a {self.k}-type to {m} variables")
        return GraphType._make(m, self._bits & ((1 << _npairs(m)) - 1))


def enumerate_extensions(t: GraphType,
                         anchor: Optional[int] = None) -> list:
    """All one-variable extensions of t, optionally forced adjacent to anchor.

    The new variable gets index t.k. Without an anchor there are 2^k
    extensions (every subset of possible new edges); with anchor i there are
    2^(k-1), all containing the edge (i, t.k). Order is deterministic: the
    edge subsets are swept as binary counters over the free pair slots.
    """
    if anchor is not None and not (0 <= anchor < t.k):
        raise ConfigError(f"anchor {anchor} out of range for a {t.k}-type")
    base, shift = t._bits, _npairs(t.k)
    return [GraphType._make(t.k + 1, base | new << shift)
            for new in range(1 << t.k) if anchor is None or new >> anchor & 1]


def _new_edges(t: GraphType, t_ext: GraphType) -> int:
    """Validate that t_ext extends t; bit i of the result is edge (i, t.k)."""
    if t_ext.k != t.k + 1:
        raise ConfigError(
            f"extension must have {t.k + 1} variables, got {t_ext.k}")
    shift = _npairs(t.k)
    if t_ext._bits & ((1 << shift) - 1) != t._bits:
        raise ConfigError("extension disagrees with the base type on old pairs")
    return t_ext._bits >> shift


@lru_cache(maxsize=256)
def _weights(p_limit, n: int) -> tuple:
    """Exact p^r (1-p)^(n-r) for r = 0..n, cached on p_limit as given."""
    p = Fraction(p_limit)
    if not (0 <= p <= 1):
        raise ConfigError(f"edge-probability limit {p_limit} outside [0, 1]")
    return tuple(p ** r * (1 - p) ** (n - r) for r in range(n + 1))


def alpha_weight_exact(t: GraphType, t_ext: GraphType, p_limit) -> Fraction:
    """Exact weight p^r (1-p)^(k-r) where r counts the new variable's edges."""
    return _weights(p_limit, t.k)[_new_edges(t, t_ext).bit_count()]


def alpha_weight(t: GraphType, t_ext: GraphType, p_limit) -> float:
    """Float weight of one unanchored extension; sums to 1 over all of them."""
    return float(alpha_weight_exact(t, t_ext, p_limit))


def alpha_weight_local_exact(t: GraphType, t_ext: GraphType, anchor: int,
                             p_limit) -> Fraction:
    """Exact anchored weight p^r (1-p)^(k-1-r), r excluding the anchor edge.

    The extension must contain the anchor edge: anchored extensions model a
    node drawn from the anchor's neighborhood, so that edge carries no
    probability factor.
    """
    if not (0 <= anchor < t.k):
        raise ConfigError(f"anchor {anchor} out of range for a {t.k}-type")
    touched = _new_edges(t, t_ext)
    if not touched >> anchor & 1:
        raise ConfigError("anchored extension must contain the anchor edge")
    return _weights(p_limit, t.k - 1)[touched.bit_count() - 1]


def alpha_weight_local(t: GraphType, t_ext: GraphType, anchor: int,
                       p_limit) -> float:
    return float(alpha_weight_local_exact(t, t_ext, anchor, p_limit))


def alpha_weight_sbm(t: GraphType, t_ext: GraphType,
                     communities: Sequence[int],
                     fractions: Sequence[float],
                     p,
                     anchor: Optional[int] = None) -> float:
    """Weight of an extension whose variables carry block-model communities.

    `communities` assigns 1-based labels to all k+1 variables (the last one
    is the new variable). The weight is the probability that a random node
    lands in the new variable's community and realizes exactly the
    extension's edge pattern against the old variables at the block edge
    probabilities:

        q_c * prod_{i edge} P[c_i, c] * prod_{i non-edge} (1 - P[c_i, c])

    With an anchor, the anchor edge must be present and its factor is the
    conditional P[c_anchor, c] as usual; summing over patterns and c then
    gives sum_c q_c P[c_anchor, c] rather than 1, the anchored normalizer.
    """
    touched = _new_edges(t, t_ext)
    if anchor is not None:
        if not (0 <= anchor < t.k):
            raise ConfigError(f"anchor {anchor} out of range for a {t.k}-type")
        if not touched >> anchor & 1:
            raise ConfigError("anchored extension must contain the anchor edge")
    m = len(fractions)
    pm = [list(row) for row in p]
    if len(pm) != m or any(len(row) != m for row in pm):
        raise ConfigError("block probability matrix must be M x M")
    labels = [int(c) for c in communities]
    if len(labels) != t_ext.k:
        raise ConfigError(
            f"need {t_ext.k} community labels, got {len(labels)}")
    if any(not (1 <= c <= m) for c in labels):
        raise ConfigError(f"community labels must lie in 1..{m}")
    c_new = labels[-1]
    weight = float(fractions[c_new - 1])
    for i in range(t.k):
        pic = float(pm[labels[i] - 1][c_new - 1])
        if not (0.0 <= pic <= 1.0):
            raise ConfigError("block probabilities must lie in [0, 1]")
        weight *= pic if touched >> i & 1 else (1.0 - pic)
    return weight
