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

Weights are exact `Fraction`s, so the normalization identity (the weights
over all extensions of a type sum to one) holds with no rounding at all;
a caller that wants a float converts the Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import index
from typing import Optional

from .errors import ConfigError, as_int

__all__ = ["GraphType", "enumerate_extensions", "alpha_weight_exact"]


def _npairs(k: int) -> int:
    return k * (k - 1) // 2


@dataclass(frozen=True, init=False)
class GraphType:
    """Edge/non-edge decision for every pair among k ordered variables.

    `edges` holds the adjacent pairs as (i, j) with i < j; absent pairs are
    non-edges. k=0 is the unique empty type; equality is on (k, bits()).
    """

    k: int
    _bits: int

    def __init__(self, k: int, edges=frozenset()):
        k = as_int(k, "variable count", 0)
        bits = 0
        for i, j in edges:
            i, j = as_int(i, "pair entry"), as_int(j, "pair entry")
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


def _check_anchor(t: GraphType, anchor: Optional[int]) -> None:
    if anchor is not None and not (0 <= anchor < t.k):
        raise ConfigError(f"anchor {anchor} out of range for a {t.k}-type")


def enumerate_extensions(t: GraphType,
                         anchor: Optional[int] = None) -> list:
    """All one-variable extensions of t, optionally forced adjacent to anchor.

    The new variable gets index t.k. Without an anchor there are 2^k
    extensions (every subset of possible new edges); with anchor i there are
    2^(k-1), all containing the edge (i, t.k). Order is deterministic: the
    edge subsets are swept as binary counters over the free pair slots.
    """
    _check_anchor(t, anchor)
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


def alpha_weight_exact(t: GraphType, t_ext: GraphType, p_limit,
                       anchor: Optional[int] = None) -> Fraction:
    """Exact weight p^r (1-p)^(m-r) of the extension t_ext of t.

    r counts the new variable's edges and m = t.k. With an anchor the
    extension must contain the anchor edge, which is left out of r and m:
    anchored extensions model a node drawn from the anchor's neighborhood,
    so that edge carries no probability factor.
    """
    if anchor is None:
        return _weights(p_limit, t.k)[_new_edges(t, t_ext).bit_count()]
    _check_anchor(t, anchor)
    touched = _new_edges(t, t_ext)
    if not touched >> anchor & 1:
        raise ConfigError("anchored extension must contain the anchor edge")
    return _weights(p_limit, t.k - 1)[touched.bit_count() - 1]
