"""AST helpers: free variables, node facts, substitution, validation."""

import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from aggterm.errors import ConfigError
from aggterm.registry import default_registry
from aggterm.terms import (Apply, Const, Feature, GcnAgg, GlobalWMean,
                           LocalWMean, Rw, children, contains_gcn, free_vars,
                           read_children, substitute, validate_term)

from conftest import rand_term

REG = default_registry()

H = Feature
LOCAL_MEAN_XY = LocalWMean("y", "x", H("y"), "one", H("y"))


# reference walks: each node's facts must equal these recursions

def walk_free(term):
    out = []

    def walk(t, bound):
        for v in (getattr(t, "var", None), getattr(t, "anchor", None)):
            if v is not None and v not in bound and v not in out:
                out.append(v)
        inner = bound | {t.bound} if hasattr(t, "bound") else bound
        for c in children(t):
            walk(c, inner)

    walk(term, frozenset())
    return tuple(out)


def walk_depth(term):
    if isinstance(term, Rw):
        return term.kmax
    inner = max(map(walk_depth, read_children(term)), default=0)
    return inner + 1 if isinstance(term, (LocalWMean, GcnAgg)) else inner


def walk_gcn(term):
    return isinstance(term, GcnAgg) or any(map(walk_gcn, read_children(term)))


def walk_outer(term):
    return hasattr(term, "bound") and any(
        set(walk_free(c)) - {term.bound} for c in read_children(term))


def walk_solo(term):
    return set().union(*(walk_solo(c) | ({type(c)} if hasattr(c, "bound")
                                          and not walk_outer(c) else set())
                         for c in read_children(term)))


def walk_feeds(term):
    if isinstance(term, Feature):
        return True
    if isinstance(term, GlobalWMean) and not walk_outer(term):
        return False
    return any(map(walk_feeds, read_children(term)))


def nameless(term, env=None, depth=0):
    """A string naming each free variable by its place in term's free list
    and each binder by its nesting depth: equal exactly for terms that
    differ only in variable names."""
    env = {v: f"f{i}" for i, v in enumerate(walk_free(term))} if env is None else env
    own = [env[v] for v in (getattr(term, "var", None),
                            getattr(term, "anchor", None)) if v is not None]
    head = [type(term).__name__, *own, repr(getattr(term, "value", None))
            if isinstance(term, Const) else "", repr(getattr(term, "kmax", "")),
            getattr(term, "fn", ""), getattr(term, "weight_map", "")]
    if hasattr(term, "bound"):
        env = {**env, term.bound: f"b{depth}"}
        depth += 1
    kids = ";".join(nameless(c, env, depth) for c in children(term))
    return f"{':'.join(head)}({kids})"


def subterms(term):
    yield term
    for c in children(term):
        yield from subterms(c)


def rename_all(term, names, bound=None):
    """term with every variable, free or bound, renamed: free ones by
    names, binders to fresh names."""
    bound = {} if bound is None else bound
    name = lambda v: bound.get(v, names.get(v, v))
    if isinstance(term, Const):
        return Const(term.value)
    if isinstance(term, Feature):
        return Feature(name(term.var))
    if isinstance(term, Rw):
        return Rw(name(term.var), term.kmax)
    if isinstance(term, Apply):
        return Apply(term.fn, tuple(rename_all(a, names, bound)
                                    for a in term.args))
    inner = {**bound, term.bound: f"{term.bound}_r{len(bound)}"}
    kids = [rename_all(c, names, inner) for c in children(term)]
    if isinstance(term, GlobalWMean):
        return GlobalWMean(inner[term.bound], kids[0], term.weight_map, kids[1])
    if isinstance(term, GcnAgg):
        return GcnAgg(inner[term.bound], name(term.anchor), kids[0])
    return LocalWMean(inner[term.bound], name(term.anchor), kids[0],
                      term.weight_map, kids[1])


def rand_terms(count, scope=("a", "b")):
    for seed in range(count):
        rng = np.random.default_rng(seed)
        yield rand_term(rng, 2, scope=scope[:seed % 3], max_depth=4)


def test_free_vars_first_occurrence_order():
    t = Apply("add", (H("b"), Apply("hadamard", (H("a"), H("b")))))
    assert free_vars(t) == ("b", "a")


def test_free_vars_binder_removes_bound():
    assert free_vars(LOCAL_MEAN_XY) == ("x",)
    g = GlobalWMean("x", LOCAL_MEAN_XY, "one", LOCAL_MEAN_XY)
    assert free_vars(g) == ()


def test_free_vars_weight_arg_counts():
    t = LocalWMean("y", "x", H("y"), "exp", H("z"))
    assert free_vars(t) == ("x", "z")


def test_depth_counts_local_nesting():
    assert Const((1.0,)).depth == 0
    assert H("x").depth == 0
    assert LOCAL_MEAN_XY.depth == 1
    inner = LocalWMean("w", "z", H("w"), "one", H("w"))
    nested = LocalWMean("z", "y", inner, "one", inner)
    assert nested.depth == 2


def test_depth_rw_and_gcn():
    assert Rw("x", 5).depth == 5
    assert GcnAgg("y", "x", Rw("y", 2)).depth == 3


def test_depth_global_does_not_reset():
    # a global body may read structure around outer variables
    inner = LocalWMean("z", "y", H("z"), "one", H("z"))
    g = GlobalWMean("y", inner, "one", inner)
    assert g.depth == 1
    assert LocalWMean("y", "x", g, "one", g).depth == 2


def test_node_facts_equal_the_reference_walks():
    for term in rand_terms(300):
        for t in subterms(term):
            assert t.free == walk_free(t)
            assert t.depth == walk_depth(t)
            assert t.gcn == walk_gcn(t)
            assert t.outer == walk_outer(t)
            assert t.solo == walk_solo(t)
            assert t.feeds == walk_feeds(t)


def test_ids_equal_exactly_for_renamings():
    seen = {}
    for term in rand_terms(300):
        for t in subterms(term):
            key = nameless(t)
            assert seen.setdefault(t.id, key) == key
            names = {v: f"{v}_new" for v in t.free}
            again = rename_all(t, names)
            assert again.id == t.id and again.free == tuple(
                names[v] for v in t.free)
    # and distinct nameless forms got distinct ids
    assert len(set(seen.values())) == len(seen)


@pytest.mark.parametrize("a, b", [
    (Const((1.0,)), Const((2.0,))),
    (Const((0.0,)), Const((-0.0,))),
    (Rw("x", 2), Rw("x", 3)),
    (Apply("relu", (H("x"),)), Apply("sigmoid", (H("x"),))),
    (GlobalWMean("y", H("y"), "exp", H("y")),
     GlobalWMean("y", H("y"), "softplus", H("y"))),
    (LocalWMean("y", "x", H("y"), "one", H("y")),
     LocalWMean("y", "x", H("y"), "one", H("x"))),
    (Apply("add", (H("x"), H("x"))), Apply("add", (H("x"), H("y")))),
    (LocalWMean("y", "x", H("y"), "one", H("y")),
     LocalWMean("y", "x", H("x"), "one", H("x"))),
    (GlobalWMean("y", GlobalWMean("z", Apply("add", (H("y"), H("z"))),
                                  "one", H("z")), "one", H("y")),
     GlobalWMean("y", GlobalWMean("z", Apply("add", (H("z"), H("z"))),
                                  "one", H("z")), "one", H("y"))),
], ids=range(9))
def test_ids_tell_structure_apart(a, b):
    assert a.id != b.id
    wrap = lambda t: Apply("relu", (GlobalWMean("q", t, "one", t),))
    assert wrap(a).id != wrap(b).id


def test_ids_agree_across_threads():
    # fresh constants, so the threads intern new nodes at the same time
    seeds = range(1000, 1200)

    def build(out):
        for seed in seeds:
            rng = np.random.default_rng(seed)
            term = Apply("add", (Const((rng.uniform(7, 8),)),
                                 rand_term(rng, 1, max_depth=3)))
            out.append(([t.id for t in subterms(term)], nameless(term)))

    got = [[] for _ in range(4)]  # more threads than cores
    threads = [threading.Thread(target=build, args=(out,)) for out in got]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert len(got[0]) == len(seeds)
    assert all(out == got[0] for out in got)
    forms = {}
    for ids, form in got[0]:
        assert forms.setdefault(ids[0], form) == form
    assert len(set(forms.values())) == len(forms)


def test_pickled_terms_intern_again_where_loaded():
    t = GlobalWMean("y", LocalWMean("z", "y", H("z"), "exp", Rw("y", 2)),
                    "one", H("y"))
    again = pickle.loads(pickle.dumps(t))
    assert again == t and again.id == t.id and hash(again) == hash(t)
    # another process numbers its nodes in its own order: the loaded rw
    # node takes that process's id for rw(·, 2), after a node built first
    code = ("import pickle, sys\n"
            "from aggterm.terms import Const, Rw\n"
            "first = Const((123.25,)).id\n"
            "t = pickle.loads(sys.stdin.buffer.read())\n"
            "print(first, t.value.weight_arg.id, Rw('q', 2).id)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(t),
                         capture_output=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src}).stdout.split()
    first, loaded, fresh = map(int, out)
    assert loaded == fresh and first < loaded


def test_equal_terms_hash_equal():
    for term in rand_terms(50):
        twin = pickle.loads(pickle.dumps(term))  # rebuilt node by node
        assert twin is not term
        assert twin == term and hash(twin) == hash(term)
    assert Const((1,)) == Const((1.0,))
    assert hash(Const((1,))) == hash(Const((1.0,)))
    assert rename_all(LOCAL_MEAN_XY, {}) != LOCAL_MEAN_XY


def test_contains_gcn():
    assert not contains_gcn(LOCAL_MEAN_XY)
    assert contains_gcn(GlobalWMean("x", GcnAgg("y", "x", H("y")), "one",
                                    Const((1.0,))))


def test_substitute_respects_binding():
    t = Apply("add", (H("x"), LocalWMean("y", "x", H("y"), "one", H("y"))))
    s = substitute(t, {"x": "u", "y": "q"})
    assert free_vars(s) == ("u",)
    inner = s.args[1]
    assert inner.anchor == "u" and inner.value == H("y")


def test_validate_accepts_simple():
    g = GlobalWMean("x", LOCAL_MEAN_XY, "one", LOCAL_MEAN_XY)
    validate_term(g, REG, 3)


def test_validate_const_width():
    with pytest.raises(ConfigError):
        validate_term(Const((1.0, 2.0)), REG, 3)


def test_validate_arity():
    with pytest.raises(ConfigError):
        validate_term(Apply("add", (Const((1.0,)),)), REG, 1)


def test_validate_variadic_needs_an_argument():
    # the parser and FunctionRegistry.call refuse an empty variadic call
    # too; validation must, or evaluation fails late with EvaluationError
    reg = default_registry()
    reg.register("vsum", None, lambda *xs: sum(xs))
    empty = GlobalWMean("v", Apply("vsum", ()), "one", Apply("vsum", ()))
    with pytest.raises(ConfigError, match="at least one argument"):
        validate_term(empty, reg, 1)
    validate_term(GlobalWMean("v", Apply("vsum", (H("v"),)), "one", H("v")),
                  reg, 1)


def test_validate_unknown_function():
    with pytest.raises(ConfigError):
        validate_term(Apply("mystery", (Const((1.0,)),)), REG, 1)


def test_validate_weight_map_positivity():
    t = GlobalWMean("x", H("x"), "relu", H("x"))
    with pytest.raises(ConfigError):
        validate_term(t, REG, 1)


def test_validate_rejects_shadowing():
    inner = LocalWMean("x", "x", H("x"), "one", H("x"))
    outer = GlobalWMean("x", inner, "one", Const((1.0,)))
    with pytest.raises(ConfigError):
        validate_term(outer, REG, 1)


def test_validate_rejects_bad_rw_steps():
    with pytest.raises(ConfigError):
        validate_term(GlobalWMean("x", Rw("x", 0), "one", Const((1.0,))),
                      REG, 1)
