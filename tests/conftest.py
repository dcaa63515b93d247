"""Shared helpers: random AST and random graph generators."""

import numpy as np

from aggterm.graphs import from_edges
from aggterm.terms import (Apply, Const, Feature, GcnAgg, GlobalWMean,
                           LocalWMean, Rw)

WEIGHT_MAPS = ("one", "exp", "softplus")
FN_UNARY = ("relu", "sigmoid", "exp", "softplus", "softmax", "one")
FN_BINARY = ("add", "sub", "hadamard", "dot_scaled")


def rand_const(rng, d):
    if rng.random() < 0.3:
        return Const((float(rng.integers(-3, 4)),) * d)
    vals = rng.uniform(-2.0, 2.0, size=d)
    if rng.random() < 0.2:
        vals = vals * 10.0 ** float(rng.integers(-8, 9))
    return Const(tuple(float(x) for x in vals))


def rand_term(rng, d, scope=(), depth=0, max_depth=4):
    """A random well-formed term over the default registry.

    Closed when scope is empty: node-dependent leaves and local binders
    only appear under some binder. Binder names are fresh with respect to
    the enclosing scope, so no shadowing is ever generated.
    """
    choices = ["const"]
    if scope:
        choices += ["feat", "feat", "rw"]
    if depth < max_depth:
        choices += ["apply1", "apply2", "global", "global"]
        if scope:
            choices += ["local", "local", "gcn"]
    kind = choices[int(rng.integers(len(choices)))]

    def sub(extra=(), bump=1):
        return rand_term(rng, d, scope + tuple(extra), depth + bump, max_depth)

    if kind == "const":
        return rand_const(rng, d)
    if kind == "feat":
        return Feature(scope[int(rng.integers(len(scope)))])
    if kind == "rw":
        return Rw(scope[int(rng.integers(len(scope)))],
                  int(rng.integers(1, 7)))
    if kind == "apply1":
        return Apply(FN_UNARY[int(rng.integers(len(FN_UNARY)))], (sub(),))
    if kind == "apply2":
        return Apply(FN_BINARY[int(rng.integers(len(FN_BINARY)))],
                     (sub(), sub()))
    fresh = f"v{len(scope)}"
    if kind == "global":
        value = sub((fresh,))
        wmap = WEIGHT_MAPS[int(rng.integers(len(WEIGHT_MAPS)))]
        warg = value if rng.random() < 0.5 else sub((fresh,))
        return GlobalWMean(fresh, value, wmap, warg)
    anchor = scope[int(rng.integers(len(scope)))]
    if kind == "gcn":
        return GcnAgg(fresh, anchor, sub((fresh,)))
    value = sub((fresh,))
    wmap = WEIGHT_MAPS[int(rng.integers(len(WEIGHT_MAPS)))]
    warg = value if rng.random() < 0.5 else sub((fresh,))
    return LocalWMean(fresh, anchor, value, wmap, warg)


def rand_graph(rng, nmax, d, ensure_isolated=False):
    """Small ER-style graph with uniform features in [-1, 1]."""
    n = int(rng.integers(2, nmax + 1))
    p = float(rng.uniform(0.05, 0.6))
    iu = np.triu_indices(n, 1)
    sel = rng.random(len(iu[0])) < p
    u, v = iu[0][sel], iu[1][sel]
    if ensure_isolated:
        keep = (u != 0) & (v != 0)
        u, v = u[keep], v[keep]
    feats = rng.uniform(-1.0, 1.0, size=(n, d))
    return from_edges(n, u, v, feats)


def path_graph(feats):
    """Path 0-1-...-(n-1) with the given (n, d) features."""
    feats = np.asarray(feats, dtype=np.float64)
    n = feats.shape[0]
    u = np.arange(n - 1)
    return from_edges(n, u, u + 1, feats)


def star_graph(feats):
    """Node 0 joined to 1..n-1."""
    feats = np.asarray(feats, dtype=np.float64)
    n = feats.shape[0]
    return from_edges(n, np.zeros(n - 1, dtype=int), np.arange(1, n), feats)


def tree_code(rg):
    """Reference code of a rooted forest, one ball at a time in Python.

    Roots take positions 0..k-1; the other nodes follow in pre-order over
    the components, taken in order of their first root, each node's
    children in order of their nested (root position or -1, sorted child
    encodings) tuples. None when some component has a cycle or no root.
    """
    from itertools import combinations

    n, k = rg.n, rg.k
    root_pos = {v: i for i, v in enumerate(rg.roots)}
    comp = [-1] * n
    tops = []
    for v in range(n):
        if comp[v] >= 0:
            continue
        members, stack = [v], [v]
        comp[v] = v
        while stack:
            for w in rg.adj[stack.pop()]:
                if comp[w] < 0:
                    comp[w] = v
                    members.append(w)
                    stack.append(w)
        marks = sorted(root_pos[w] for w in members if w in root_pos)
        edges = sum(len(rg.adj[w]) for w in members) // 2
        if not marks or edges != len(members) - 1:
            return None
        tops.append(marks[0])
    enc = {}

    def encode(v, parent):
        enc[v] = (root_pos.get(v, -1),
                  tuple(sorted(encode(w, v) for w in rg.adj[v] if w != parent)))
        return enc[v]

    order = []

    def emit(v, parent):
        if v not in root_pos:
            order.append(v)
        for w in sorted((w for w in rg.adj[v] if w != parent),
                        key=lambda w: enc[w]):
            emit(w, v)

    for mark in sorted(tops):
        encode(rg.roots[mark], -1)
        emit(rg.roots[mark], -1)
    where = {v: p for p, v in enumerate(list(rg.roots) + order)}
    bits = bytearray((n * (n - 1) // 2 + 7) // 8)
    pair = {ij: t for t, ij in enumerate(combinations(range(n), 2))}
    for v, row in enumerate(rg.adj):
        for w in row:
            i, j = where[v], where[w]
            if i < j:
                t = pair[(i, j)]
                bits[t >> 3] |= 1 << (t & 7)
    return b"RN1" + bytes([k]) + n.to_bytes(2, "big") + bytes(bits)
