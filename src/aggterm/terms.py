"""Term ASTs for the weighted-mean aggregation language.

A term denotes a d-dimensional vector per variable assignment. The grammar
has constants, node features H(x), random-walk encodings rw(x, k), function
application, neighborhood and global weighted means, and the symmetric
degree-normalized neighborhood sum used by spectral-style convolutions.

All nodes are frozen dataclasses, so structural equality and hashing work
out of the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import ConfigError

RESERVED = {"wmean", "mean", "gcn", "H", "rw", "in", "N"}


@dataclass(frozen=True)
class Const:
    value: tuple[float, ...]


@dataclass(frozen=True)
class Feature:
    var: str


@dataclass(frozen=True)
class Rw:
    var: str
    kmax: int


@dataclass(frozen=True)
class Apply:
    fn: str
    args: tuple["Term", ...]


@dataclass(frozen=True)
class LocalWMean:
    """Weighted mean of `value` over neighbors `bound` of `anchor`.

    Weights are weight_map(weight_arg) componentwise; an empty neighborhood
    yields the zero vector.
    """

    bound: str
    anchor: str
    value: "Term"
    weight_map: str
    weight_arg: "Term"


@dataclass(frozen=True)
class GlobalWMean:
    bound: str
    value: "Term"
    weight_map: str
    weight_arg: "Term"


@dataclass(frozen=True)
class GcnAgg:
    """Sum of value over neighbors, scaled by 1/sqrt(deg(anchor) * deg(bound))."""

    bound: str
    anchor: str
    value: "Term"


Term = Union[Const, Feature, Rw, Apply, LocalWMean, GlobalWMean, GcnAgg]


def children(term: Term) -> tuple:
    """The node's direct subterms; a binder's body comes first."""
    if isinstance(term, (Const, Feature, Rw)):
        return ()
    if isinstance(term, Apply):
        return term.args
    if isinstance(term, (LocalWMean, GlobalWMean)):
        return (term.value, term.weight_arg)
    if isinstance(term, GcnAgg):
        return (term.value,)
    raise TypeError(f"not a term: {term!r}")


def read_children(term: Term) -> tuple:
    """The direct subterms the node's value depends on: all but the weight
    argument of an aggregate under the weight map "one", never read."""
    if getattr(term, "weight_map", None) == "one":
        return (term.value,)
    return children(term)


def free_vars(term: Term) -> tuple[str, ...]:
    """Free variables in order of first occurrence."""
    out: list[str] = []

    def walk(t, bound):
        # a Feature or Rw reads its var, a neighborhood its anchor
        for v in (getattr(t, "var", None), getattr(t, "anchor", None)):
            if v is not None and v not in bound and v not in out:
                out.append(v)
        inner = bound | {t.bound} if hasattr(t, "bound") else bound
        for c in children(t):
            walk(c, inner)

    walk(term, frozenset())
    return tuple(out)


def reach(term: Term) -> int:
    """How many hops of graph structure the term's value can depend on."""
    if isinstance(term, Rw):
        return term.kmax
    if isinstance(term, GlobalWMean):
        return 0
    inner = max(map(reach, read_children(term)), default=0)
    return inner + 1 if isinstance(term, (LocalWMean, GcnAgg)) else inner


def contains_gcn(term: Term) -> bool:
    """Whether the term's value depends on a degree-normalized aggregate."""
    return isinstance(term, GcnAgg) or any(map(contains_gcn, read_children(term)))


def substitute(term: Term, mapping: dict) -> Term:
    """Rename free variables. Binders are assumed fresh, so no capture."""
    if isinstance(term, Const):
        return term
    if isinstance(term, Feature):
        return Feature(mapping.get(term.var, term.var))
    if isinstance(term, Rw):
        return Rw(mapping.get(term.var, term.var), term.kmax)
    if isinstance(term, Apply):
        return Apply(term.fn, tuple(substitute(a, mapping) for a in term.args))
    if isinstance(term, LocalWMean):
        inner = {k: v for k, v in mapping.items() if k != term.bound}
        return LocalWMean(term.bound, mapping.get(term.anchor, term.anchor),
                          substitute(term.value, inner), term.weight_map,
                          substitute(term.weight_arg, inner))
    if isinstance(term, GlobalWMean):
        inner = {k: v for k, v in mapping.items() if k != term.bound}
        return GlobalWMean(term.bound, substitute(term.value, inner),
                           term.weight_map, substitute(term.weight_arg, inner))
    if isinstance(term, GcnAgg):
        inner = {k: v for k, v in mapping.items() if k != term.bound}
        return GcnAgg(term.bound, mapping.get(term.anchor, term.anchor),
                      substitute(term.value, inner))
    raise TypeError(f"not a term: {term!r}")


def validate_term(term: Term, registry, d: int) -> None:
    """Check dimensions, arities, weight-map positivity, binder freshness."""
    if d < 1:
        raise ConfigError("term dimension must be >= 1")

    def walk(t, scope):
        if isinstance(t, Const):
            if len(t.value) != d:
                raise ConfigError(f"constant has dimension {len(t.value)}, expected {d}")
            if not all(isinstance(x, (int, float)) and math.isfinite(x)
                       for x in t.value):
                raise ConfigError("constants must be finite numbers")
        elif isinstance(t, Rw) and t.kmax < 1:
            raise ConfigError("rw needs kmax >= 1")
        elif isinstance(t, Apply):
            entry = registry.entry(t.fn)
            if entry.arity is not None and entry.arity != len(t.args):
                raise ConfigError(
                    f"{t.fn} expects {entry.arity} argument(s), got {len(t.args)}")
        elif isinstance(t, (LocalWMean, GlobalWMean, GcnAgg)):
            if t.bound in scope:
                raise ConfigError(f"bound variable {t.bound!r} shadows an outer variable")
            if not isinstance(t, GcnAgg):
                entry = registry.entry(t.weight_map)
                if not entry.positive:
                    raise ConfigError(f"weight map {t.weight_map!r} is not flagged positive")
                if entry.arity not in (1, None):
                    raise ConfigError(f"weight map {t.weight_map!r} must take one argument")
            scope = scope | {t.bound}
        for c in children(t):
            walk(c, scope)

    walk(term, set(free_vars(term)))
