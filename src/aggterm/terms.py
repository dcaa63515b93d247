"""Term ASTs for the weighted-mean aggregation language.

A term denotes a d-dimensional vector per variable assignment. The grammar
has constants, node features H(x), random-walk encodings rw(x, k), function
application, neighborhood and global weighted means, and the symmetric
degree-normalized neighborhood sum used by spectral-style convolutions.

Nodes are frozen dataclasses with structural equality. Each works out its
structural facts once, at construction, from its children's; the facts
about reading count only the children a node reads (read_children):

* free: its free variables, in order of first occurrence;
* depth: the nesting depth of structure-reading operators, the census
  radius a neighborhood class needs for the term to evaluate on it
  exactly. rw(x, k) counts k and a local aggregate one more than its
  body. A global binder does not reset the count: its body may still
  read structure around outer variables, and the components decoded for
  those must extend far enough to serve it;
* gcn: whether its value depends on a degree-normalized aggregate;
* outer: for an aggregate, whether its body reads a variable other than
  its binder; one that does not is one vector for every outer assignment;
* solo: the kinds of the aggregates below it whose body reads only their
  binder;
* feeds: whether it reads a feature outside every global aggregate whose
  body reads only its binder;
* id: a small int, equal for any two nodes that differ only in variable
  names, as in de Bruijn's nameless terms. It is interned from the node's
  kind, its other fields, and per child the child's id and where each of
  the child's free variables points: to the node's binder, or to a place
  in the node's own free list. Ids are local to the process: a pickled
  term is rebuilt, and interned afresh, where it is loaded.

The hash is cached too, so a term is a cheap dictionary key.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Union

from .errors import ConfigError

RESERVED = {"wmean", "mean", "gcn", "H", "rw", "in", "N"}

# structure key -> id, for the life of the process; the lock makes each
# new key's id len(_IDS) at insertion when threads build terms at once
_IDS: dict = {}
_NEW_ID = threading.Lock()
_NONE: frozenset = frozenset()


class _Node:
    """The facts every term node computes at construction (module doc)."""

    def __post_init__(self):
        fields = self.__dict__
        kind, binder = type(self), fields.get("bound")
        scalars = tuple([fields[f] for f in _SCALARS.get(kind, ())])
        # the node's own variables come first in free: their place is implied
        free = [v for v in (fields.get("var"), fields.get("anchor"))
                if v is not None]
        kids, places = children(self), []
        for c in kids:
            free += [v for v in c.free if v != binder and v not in free]
            places.append((c.id, tuple([-1 if v == binder else free.index(v)
                                        for v in c.free])))
        # repr tells 0.0 from -0.0, which == does not
        key = (kind, repr(scalars), tuple(places))
        ident = _IDS.get(key)
        if ident is None:
            with _NEW_ID:
                ident = _IDS.setdefault(key, len(_IDS))
        reads = read_children(self)
        outer = binder is not None and any(v != binder for c in reads
                                           for v in c.free)
        fields.update(
            free=tuple(free), id=ident, outer=outer,
            depth=(self.kmax if kind is Rw else
                   max([c.depth for c in reads], default=0)
                   + (kind is LocalWMean or kind is GcnAgg)),
            gcn=kind is GcnAgg or any([c.gcn for c in reads]),
            solo=_NONE.union(*[c.solo for c in reads], [
                type(c) for c in reads
                if isinstance(c, _AGGREGATES) and not c.outer]),
            feeds=kind is Feature or (
                (outer or kind is not GlobalWMean)
                and any([c.feeds for c in reads])),
            # from names and raw scalars, so that equal terms hash equal
            _hash=hash((kind, scalars, binder, tuple(free),
                        tuple([c._hash for c in kids]))))

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__dataclass_fields__)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._fields() == other._fields()

    def __reduce__(self):
        # rebuild through __init__, so the loading process interns its own id
        return type(self), self._fields()


# eq=False: equality and the cached hash come from _Node
@dataclass(frozen=True, eq=False)
class Const(_Node):
    value: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class Feature(_Node):
    var: str


@dataclass(frozen=True, eq=False)
class Rw(_Node):
    var: str
    kmax: int


@dataclass(frozen=True, eq=False)
class Apply(_Node):
    fn: str
    args: tuple["Term", ...]


@dataclass(frozen=True, eq=False)
class LocalWMean(_Node):
    """Weighted mean of `value` over neighbors `bound` of `anchor`.

    Weights are weight_map(weight_arg) componentwise; an empty neighborhood
    yields the zero vector.
    """

    bound: str
    anchor: str
    value: "Term"
    weight_map: str
    weight_arg: "Term"


@dataclass(frozen=True, eq=False)
class GlobalWMean(_Node):
    bound: str
    value: "Term"
    weight_map: str
    weight_arg: "Term"


@dataclass(frozen=True, eq=False)
class GcnAgg(_Node):
    """Sum of value over neighbors, scaled by 1/sqrt(deg(anchor) * deg(bound))."""

    bound: str
    anchor: str
    value: "Term"


Term = Union[Const, Feature, Rw, Apply, LocalWMean, GlobalWMean, GcnAgg]
_AGGREGATES = (LocalWMean, GlobalWMean, GcnAgg)
# the fields that are neither variables nor subterms
_SCALARS = {Const: ("value",), Rw: ("kmax",), Apply: ("fn",),
            LocalWMean: ("weight_map",), GlobalWMean: ("weight_map",)}


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
    return term.free


def contains_gcn(term: Term) -> bool:
    """Whether the term's value depends on a degree-normalized aggregate."""
    return term.gcn


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
            if entry.arity is None and not t.args:
                raise ConfigError(f"{t.fn} needs at least one argument")
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

    walk(term, set(term.free))
