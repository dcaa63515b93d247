"""Adjacency patterns over variable tuples and their extension weights.

A graph type records, for an ordered tuple of k variables, which unordered
pairs are adjacent; every pair is decided one way or the other. Extending a
type adds one fresh variable together with a full set of edge decisions
against the existing ones. The alpha weight of an extension is the limiting
probability that a uniformly random new node realizes its pattern.

A type is stored as (k, bits) with pair (i, j), i < j, at bit j(j-1)/2 + i
(colex order); extension appends the new pairs above the old ones.

Weights are exact `Fraction`s, so the normalization identity (the weights
over all extensions of a type sum to one) holds with no rounding at all;
a caller that wants a float converts the Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConfigError, as_int

__all__ = ["GraphType", "enumerate_extensions", "alpha_weight_exact"]


def _npairs(k: int) -> int:
    return k * (k - 1) // 2


@dataclass(frozen=True, init=False)
class GraphType:
    """Edge/non-edge decision for every pair among k ordered variables.

    `edges` lists the adjacent pairs as (i, j) with i < j; absent pairs are
    non-edges. k=0 is the unique empty type; equality is on (k, bits).
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


def enumerate_extensions(t: GraphType) -> list:
    """All 2^k one-variable extensions of t, one per subset of new edges.

    The new variable gets index t.k. Order is deterministic: the edge
    subsets are swept as binary counters over the new pair slots.
    """
    base, shift = t._bits, _npairs(t.k)
    return [GraphType._make(t.k + 1, base | new << shift)
            for new in range(1 << t.k)]


@lru_cache(maxsize=256)
def _weights(p_limit, n: int) -> tuple:
    """Exact p^r (1-p)^(n-r) for r = 0..n, cached on p_limit as given."""
    p = Fraction(p_limit)
    if not (0 <= p <= 1):
        raise ConfigError(f"edge-probability limit {p_limit} outside [0, 1]")
    return tuple(p ** r * (1 - p) ** (n - r) for r in range(n + 1))


def alpha_weight_exact(t: GraphType, t_ext: GraphType, p_limit) -> Fraction:
    """Exact weight p^r (1-p)^(k-r) of the extension t_ext of t.

    r counts the new variable's edges and k = t.k.
    """
    if t_ext.k != t.k + 1:
        raise ConfigError(
            f"extension must have {t.k + 1} variables, got {t_ext.k}")
    shift = _npairs(t.k)
    if t_ext._bits & ((1 << shift) - 1) != t._bits:
        raise ConfigError("extension disagrees with the base type on old pairs")
    return _weights(p_limit, t.k)[(t_ext._bits >> shift).bit_count()]
