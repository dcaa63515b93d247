"""Linear neighborhood aggregates as adjacency products, and the graph
construction behind them.

The oracle for every aggregate is evaluate.local_aggregate, the (anchor,
neighbor) expansion, called directly on the same graph with the
evaluator's own values for the body. The samplers are checked against a
per-row reference written here, and from_edges against a lexsort.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aggterm.evaluate as evaluate
import aggterm.graphs as graphs
from aggterm.errors import EvaluationError
from aggterm.evaluate import (Evaluator, adjacency_product, eval_closed,
                              eval_nodewise, eval_term, local_aggregate, plan)
from aggterm.graphs import (DenseSchedule, from_edges, gen_er, gen_sbm,
                            sbm_sizes)
from aggterm.parser import parse_term
from aggterm.registry import default_registry
from aggterm.rng import stream

REG = default_registry()
TOL = 1e-12

LINEAR = ["mean[y in N(x)](H(y))",
          "gcn[y in N(x)](H(y))",
          "mean[y in N(x)](relu(sub(hadamard(2, H(y)), 1)))",
          "gcn[y in N(x)](sigmoid(H(y)))",
          "mean[y in N(x)](1)",
          "gcn[y in N(x)](mean[z in N(y)](H(z)))",
          "wmean[y in N(x)](wmean[z in N(y)](H(z), exp), one, H(x))"]
NONLINEAR = ["wmean[y in N(x)](H(y), exp)",
             "wmean[y in N(x)](H(y), softplus)",
             "mean[y in N(x)](hadamard(H(x), H(y)))",
             "gcn[y in N(x)](add(H(x), H(y)))"]


def t(src, d):
    return parse_term(src, d, registry=REG)


class Expanding(Evaluator):
    """The evaluator with every local aggregate expanded."""

    def _local(self, term, frame, shape, path):
        return local_aggregate(term, frame, np.empty(shape),
                               self.graph.indptr, self.graph.indices,
                               self._value, self.registry, path)


def expanded(term, graph):
    """All n rows of a one-anchor aggregate from local_aggregate itself."""
    n = graph.n
    return local_aggregate(term, {term.anchor: np.arange(n)},
                           np.empty((n, graph.d)), graph.indptr,
                           graph.indices, Expanding(graph, REG)._value, REG,
                           ())


def assert_close(got, want):
    gap = float(np.max(np.abs(got - want), initial=0.0))
    assert gap <= TOL * max(1.0, float(np.max(np.abs(want), initial=0.0)))


def with_isolated(graph, extra, d, seed):
    """graph plus `extra` isolated nodes, with fresh features in [-1, 1]."""
    src = np.repeat(np.arange(graph.n), graph.degrees)
    keep = src < graph.indices
    n = graph.n + extra
    feats = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, d))
    return from_edges(n, src[keep], graph.indices[keep], feats)


def er(n, p, d, seed, extra=3):
    return with_isolated(gen_er(n, DenseSchedule(p), seed), extra, d, seed)


@pytest.fixture
def products(monkeypatch):
    """Counts the evaluator's calls of adjacency_product."""
    calls = []
    real = evaluate.adjacency_product

    def counted(*args, **kw):
        calls.append(args[0])
        return real(*args, **kw)

    monkeypatch.setattr(evaluate, "adjacency_product", counted)
    return calls


@pytest.mark.parametrize("src", LINEAR)
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("p", [0.002, 0.02, 0.1, 0.5])
def test_product_matches_expansion(src, d, p):
    graph = er(200, p, d, 11)
    term = t(src, d)
    assert plan(term, REG).kind == "linear"
    vals = Expanding(graph, REG)._nodewise_rows(term.value, term.bound, ())
    want = expanded(term, graph)
    # 203 nodes: one slab, slabs of 8 rows with a short last one, or 1 row
    for block in (evaluate._CHUNK_ROWS, 8 * graph.n + 5, 1):
        got = adjacency_product(term, vals, graph.indptr, graph.indices, (),
                                block)
        assert_close(got, want)
        assert np.all(got[graph.degrees == 0] == 0.0)


@pytest.mark.parametrize("src", NONLINEAR)
def test_other_shapes_are_not_linear(src):
    assert plan(t(src, 2), REG).kind != "linear"


@pytest.mark.parametrize("src", LINEAR[:2])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("p", [0.002, 0.005, 0.02, 0.05, 0.2, 0.5])
def test_evaluator_agrees_on_both_sides_of_the_crossover(src, d, p, products):
    graph = er(400, p, d, 12)
    term = t(src, d)
    got = eval_nodewise(term, graph, REG)
    assert_close(got, expanded(term, graph))
    assert bool(products) == evaluate.slab_pays(graph.n, len(graph.indices),
                                                d)


def test_plan_switches_within_the_ladder(products):
    # d = 3: the sparsest graphs expand, the densest take the product
    taken = []
    for p in (0.002, 0.5):
        products.clear()
        eval_nodewise(t(LINEAR[0], 3), er(400, p, 3, 13), REG)
        taken.append(bool(products))
    assert taken == [False, True]


@pytest.mark.parametrize("src", NONLINEAR)
def test_other_shapes_keep_the_expansion(src, products):
    graph = er(150, 0.5, 2, 14)
    term = t(src, 2)
    assert_close(eval_nodewise(term, graph, REG), expanded(term, graph))
    assert not products


@pytest.mark.parametrize("src", LINEAR)
def test_sbm_with_isolated_nodes(src, products):
    sbm = gen_sbm(300, (0.4, 0.6), ((0.5, 0.05), (0.05, 0.3)), stream(15))
    graph = with_isolated(sbm, 4, 3, 15)
    term = t(src, 3)
    assert_close(eval_nodewise(term, graph, REG), expanded(term, graph))
    assert products


def test_nested_inside_an_outer_reading_global(products):
    term = t("mean[x](wmean[y](mean[z in N(y)](H(z)), exp, H(x)))", 3)
    for p in (0.005, 0.3):
        graph = er(250, p, 3, 16)
        assert_close(eval_closed(term, graph, REG),
                     Expanding(graph, REG).closed(term))
    assert products  # the dense graph took the product


@pytest.mark.parametrize("src", LINEAR[:2])
def test_single_assignments(src, products):
    graph = er(300, 0.3, 3, 17)
    term = t(src, 3)
    want = expanded(term, graph)
    isolated = int(np.flatnonzero(graph.degrees == 0)[0])
    for node in (0, 5, graph.n - 1 - 3, isolated):
        assert_close(eval_term(term, graph, {"x": node}, REG), want[node])
    assert products


@pytest.mark.filterwarnings("ignore:overflow")
def test_overflow_raises_like_the_expansion():
    graph = er(100, 0.5, 2, 18, extra=0)
    graph = graph.with_features(np.full((graph.n, 2), 1e308))
    term = t(LINEAR[0], 2)
    message = "weighted mean under weight map 'one' is not finite in t"
    with pytest.raises(EvaluationError, match=message):
        local_aggregate(term, {"x": np.arange(graph.n)},
                        np.empty((graph.n, 2)), graph.indptr, graph.indices,
                        Expanding(graph, REG)._value, REG, ("t",))
    with pytest.raises(EvaluationError, match=message):
        adjacency_product(term, graph.features, graph.indptr, graph.indices,
                          ("t",))


# ---------------------------------------------------------------------------
# graph construction


def _edge_sets(n):
    """(n, picked pair ids in random order), ids into np.triu_indices."""
    pairs = n * (n - 1) // 2
    return st.tuples(st.just(n), st.permutations(range(pairs)),
                     st.integers(0, pairs))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40).flatmap(_edge_sets))
def test_from_edges_matches_lexsort(case):
    n, order, count = case
    iu, ju = np.triu_indices(n, 1)
    picked = np.array(order[:count], dtype=np.int64)
    u, v = iu[picked], ju[picked]
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.lexsort((dst, src))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    g = from_edges(n, u, v)
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, dst[order])


def reference_csr(n, rows, rng):
    """CSR arrays from Bernoulli rows (u, first, length, p), one draw call
    per row, built through a dense adjacency matrix."""
    adj = np.zeros((n, n), dtype=bool)
    for u, first, length, p in rows:
        hit = np.flatnonzero(rng.random(length) < p) + first
        adj[u, hit] = adj[hit, u] = True
    indptr = np.concatenate([[0], np.cumsum(adj.sum(axis=1))])
    return indptr, np.nonzero(adj)[1]


def assert_csr(g, want):
    assert np.array_equal(g.indptr, want[0])
    assert np.array_equal(g.indices, want[1])


@pytest.mark.parametrize("block", [None, 1, 97])
@pytest.mark.parametrize("n,p", [(2, 0.5), (60, 0.01), (300, 0.2),
                                 (301, 1.0)])
def test_gen_er_matches_row_sampler(n, p, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(graphs, "_DRAW_BLOCK", block)
    for seed in (1, 2):
        rows = [(u, u + 1, n - 1 - u, p) for u in range(n - 1)]
        want = reference_csr(n, rows, stream(seed, "er", n))
        assert_csr(gen_er(n, DenseSchedule(p), seed), want)


def test_gen_er_spans_several_draw_blocks():
    n, p = 2100, 0.02  # 2.2 million pairs
    assert n * (n - 1) // 2 > graphs._DRAW_BLOCK
    rows = [(u, u + 1, n - 1 - u, p) for u in range(n - 1)]
    assert_csr(gen_er(n, DenseSchedule(p), 3),
               reference_csr(n, rows, stream(3, "er", n)))


@pytest.mark.parametrize("block", [None, 1, 50])
@pytest.mark.parametrize("n,fractions,probs", [
    (200, (0.5, 0.5), ((0.2, 0.05), (0.05, 0.2))),
    (151, (0.3, 0.3, 0.4), ((0.5, 0.0, 0.1), (0.0, 0.0, 0.3),
                            (0.1, 0.3, 1.0))),
    (3, (0.5, 0.5), ((1.0, 1.0), (1.0, 1.0)))])
def test_gen_sbm_matches_row_sampler(n, fractions, probs, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(graphs, "_DRAW_BLOCK", block)
    sizes = sbm_sizes(n, fractions)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    rows = []
    for a in range(len(sizes)):
        for b in range(a, len(sizes)):
            if probs[a][b] == 0.0:
                continue
            for i in range(sizes[a] - (a == b)):
                first = starts[a] + i + 1 if a == b else starts[b]
                length = sizes[a] - 1 - i if a == b else sizes[b]
                rows.append((starts[a] + i, first, length, probs[a][b]))
    for seed in (4, 5):
        want = reference_csr(n, rows, stream(seed, "sbm", n))
        assert_csr(gen_sbm(n, fractions, probs, seed), want)
