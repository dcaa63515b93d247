"""The attention kernel: exp-weighted means scored by a registered form.

Global aggregates take one score matrix per chunk of outer rows, local
ones one score per CSR entry, reduced by weighted slabs or segment sums.
The oracle everywhere is the generic expansion of (anchor or outer row,
node) pairs: the same term under a copy of the registry whose functions
carry no score form and no elementwise declaration, so the evaluator has
nothing to take the fast path with.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

import aggterm.evaluate as evaluate
from aggterm.architectures import (ArchConfig, compile_architecture,
                                   init_weights)
from aggterm.errors import ConfigError, EvaluationError
from aggterm.evaluate import (adjacency_product, attention_reduce,
                              eval_closed, eval_nodewise, plan, wmean_reduce)
from aggterm.graphs import (DenseSchedule, ErModel, SparseSchedule, Uniform01,
                            attach_features, from_edges, sample_graph)
from aggterm.harness import SweepConfig, run_sweep, write_report_csv
from aggterm.parser import parse_term
from aggterm.registry import (FunctionRegistry, default_registry,
                              make_leaky_relu, make_linear)
from aggterm.sparse_limit import CensusConfig, sparse_limit
from conftest import path_graph, rand_graph

REG = default_registry()


def without_pairwise(reg):
    """A copy of reg whose entries carry no score form, of either kind, and
    no elementwise declaration."""
    out = FunctionRegistry()
    for name in reg.names():
        e = reg.entry(name)
        out.register(name, e.arity, e.fn, positive=e.positive)
        assert not out.entry(name).scored
        assert not out.entry(name).elementwise
    return out


ORACLE = without_pairwise(REG)


@pytest.fixture
def spy(monkeypatch):
    """Counts registry calls by name: plain calls, score matrices and
    scores of row pairs."""
    calls, pairs, edges = Counter(), Counter(), Counter()
    call, call_pairwise = FunctionRegistry.call, FunctionRegistry.call_pairwise
    call_pairs = FunctionRegistry.call_pairs

    def counted_call(self, name, args):
        calls[name] += 1
        return call(self, name, args)

    def counted_pairwise(self, name, x, y):
        pairs[name] += 1
        return call_pairwise(self, name, x, y)

    def counted_pairs(self, name, *args):
        edges[name] += 1
        return call_pairs(self, name, *args)

    monkeypatch.setattr(FunctionRegistry, "call", counted_call)
    monkeypatch.setattr(FunctionRegistry, "call_pairwise", counted_pairwise)
    monkeypatch.setattr(FunctionRegistry, "call_pairs", counted_pairs)
    return calls, pairs, edges


def assert_close(fast, slow):
    scale = max(1.0, float(np.max(np.abs(slow))))
    assert np.max(np.abs(fast - slow)) <= 1e-12 * scale


def _random_config(kind, rng, readout):
    layers = int(rng.integers(1, 4))
    kw = dict(kind=kind, layers=layers, hidden=int(rng.integers(3, 9)),
              classes=int(rng.integers(2, 5)), in_dim=int(rng.integers(1, 6)),
              activation="sigmoid" if rng.random() < 0.3 else "relu",
              global_readout=readout)
    if kind == "gps_rw":
        kw["rw_len"] = int(rng.integers(2, 6))
    if layers >= 2 and rng.random() < 0.5:
        kw["skips"] = ((1, layers),)
    return ArchConfig(**kw)


@pytest.mark.parametrize("kind", ["gps", "gps_rw"])
@pytest.mark.parametrize("readout", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_nets_agree_with_expansion(kind, readout, seed, spy):
    rng = np.random.default_rng([seed, readout, kind == "gps_rw"])
    cfg = _random_config(kind, rng, readout)
    cm = compile_architecture(cfg, init_weights(cfg, seed))
    graph = cm.prepare(attach_features(
        sample_graph(ErModel(DenseSchedule(0.2)), int(rng.integers(30, 90)),
                     seed), Uniform01(cfg.in_dim), seed))
    slow_reg = without_pairwise(cm.registry)
    body = cm.term.args[0].args[0].value  # the last layer, pooled over p
    assert_close(eval_nodewise(body, graph, cm.registry),
                 eval_nodewise(body, graph, slow_reg))
    assert_close(eval_closed(cm.term, graph, cm.registry),
                 eval_closed(cm.term, graph, slow_reg))
    assert spy[1]["dot_scaled"] >= 1


HAND_TERMS = [
    "mean[x](wmean[z](H(z), exp, dot_scaled(H(x), H(z))))",
    # the query reads two outer variables
    "mean[x](mean[y in N(x)](wmean[z](relu(H(z)), exp,"
    " dot_scaled(add(H(x), H(y)), hadamard(H(z), H(z))))))",
    "mean[x](mean[y](wmean[z](H(z), exp, dot_scaled(sub(H(x), H(y)), H(z)))))",
    # query and key are aggregates themselves
    "mean[x](wmean[z](H(z), exp, dot_scaled(mean[y in N(x)](H(y)), H(z))))",
    "mean[x](hadamard(H(x), wmean[z](sigmoid(H(z)), exp,"
    " dot_scaled(H(x), mean[w in N(z)](H(w))))))",
    # a value that reads no variable at all
    "mean[x](wmean[z](0.5, exp, dot_scaled(H(x), H(z))))",
    "mean[x](wmean[z](H(z), exp, dot_scaled(H(x), [1, -2])))",
]


@pytest.mark.parametrize("src", HAND_TERMS)
def test_hand_terms_agree_with_expansion(src, spy, monkeypatch):
    # small chunks, so outer rows are split into several score matrices
    monkeypatch.setattr(evaluate, "_CHUNK_ROWS", 64)
    term = parse_term(src, 2, registry=REG)
    for seed in range(3):
        graph = rand_graph(np.random.default_rng(seed), 40, 2)
        fast = eval_closed(term, graph, REG)
        spy[0].clear()
        assert_close(fast, eval_closed(term, graph, ORACLE))
        assert spy[0]["dot_scaled"] >= 1  # the oracle really expanded
    assert spy[1]["dot_scaled"] >= 1


def test_large_scores_are_shifted():
    # scores up to about 2000: exp overflows unless each row is shifted
    rng = np.random.default_rng(4)
    graph = rand_graph(rng, 40, 2)
    graph = graph.with_features(rng.uniform(-40.0, 40.0, size=(graph.n, 2)))
    term = parse_term("mean[x](wmean[z](H(z), exp, dot_scaled(H(x), H(z))))",
                      2, registry=REG)
    assert_close(eval_closed(term, graph, REG),
                 eval_closed(term, graph, ORACLE))


NEAR_MISSES = [
    # a weight map other than exp
    "mean[x](wmean[z](H(z), softplus, dot_scaled(H(x), H(z))))",
    # the value reads an outer variable
    "mean[x](wmean[z](add(H(x), H(z)), exp, dot_scaled(H(x), H(z))))",
    # the score is wrapped
    "mean[x](wmean[z](H(z), exp, add(dot_scaled(H(x), H(z)), 0.5)))",
    # swapped arguments: the query reads the bound variable
    "mean[x](wmean[z](H(z), exp, dot_scaled(H(z), H(x))))",
    # the key reads an outer variable
    "mean[x](wmean[z](H(z), exp, dot_scaled(H(x), add(H(x), H(z)))))",
]


@pytest.mark.parametrize("src", NEAR_MISSES)
def test_near_misses_keep_the_expansion(src, spy):
    term = parse_term(src, 2, registry=REG)
    graph = rand_graph(np.random.default_rng(7), 30, 2)
    out = eval_closed(term, graph, REG)
    assert not spy[1]
    assert spy[0]["dot_scaled"] >= 1
    assert np.array_equal(out, eval_closed(term, graph, ORACLE))


def _same_error(term, graph, reg, slow_reg):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError) as fast:
            eval_closed(term, graph, reg)
        with pytest.raises(EvaluationError) as slow:
            eval_closed(term, graph, slow_reg)
    assert str(fast.value) == str(slow.value)
    return str(fast.value)


def test_nonfinite_score_names_the_path():
    graph = path_graph([[1e200, 1e200], [2e200, 1e200], [1.0, 1.0]])
    term = parse_term("mean[x](wmean[z](H(z), exp, dot_scaled(H(x), H(z))))",
                      2, registry=REG)
    msg = _same_error(term, graph, REG, ORACLE)
    assert msg == "non-finite value in wmean[x] / wmean[z] / dot_scaled"


def test_bad_pairwise_function_names_the_path():
    def score(x, y):  # a dot product, infinite once a query leaves [-5, 5]
        s = np.sum(x * y, axis=-1, keepdims=True)
        s[np.abs(x[:, :1]) > 5] = np.inf
        return np.broadcast_to(s, x.shape)

    def pairwise(x, y):
        s = x @ y.T
        s[np.abs(x[:, 0]) > 5] = np.inf
        return s

    reg = default_registry()
    reg.register("score", 2, score, pairwise=pairwise)
    graph = path_graph([[9.0, 1.0], [0.5, 1.0], [1.0, -1.0]])
    term = parse_term("mean[x](wmean[z](H(z), exp, score(H(x), H(z))))", 2,
                      registry=reg)
    msg = _same_error(term, graph, reg, without_pairwise(reg))
    assert msg == "non-finite value in wmean[x] / wmean[z] / score"


def test_nonfinite_mean_names_the_path():
    graph = path_graph([[0.0], [0.0], [1.0]])
    term = parse_term("mean[x](wmean[z](1e308, exp, dot_scaled(H(x), H(z))))",
                      1, registry=REG)
    msg = _same_error(term, graph, REG, ORACLE)
    assert msg == ("weighted mean under weight map 'exp' is not finite in "
                   "wmean[x] / wmean[z]")


def test_zero_denominator_matches_wmean_reduce():
    # a score row that is all -inf has no finite shift: its weights are NaN,
    # which the denominator check catches in both kernels
    scores = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
    vals = np.array([[1.0], [2.0]])
    path = ("wmean[x]", "wmean[z]")
    with np.errstate(invalid="ignore"):
        with pytest.raises(EvaluationError) as fast:
            attention_reduce(scores, vals, path)
        with pytest.raises(EvaluationError) as slow:
            wmean_reduce(np.tile(vals, (2, 1)), scores.reshape(-1, 1), "exp",
                         REG, np.array([0, 2, 4]), path=path)
    assert str(fast.value) == str(slow.value) == (
        "weight map 'exp' produced a zero or non-finite denominator in "
        "wmean[x] / wmean[z]")


def test_attention_reduce_is_the_segment_mean():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(5, 7)) * 30
    vals = rng.normal(size=(7, 3))
    seg = np.arange(6) * 7
    slow = wmean_reduce(np.tile(vals, (5, 1)),
                        np.repeat(scores.reshape(-1, 1), 3, axis=1), "exp",
                        REG, seg)
    assert_close(attention_reduce(scores, vals), slow)


def test_pairwise_forms_are_checked_at_registration():
    reg = FunctionRegistry()
    dot = REG.entry("dot_scaled")
    with pytest.raises(ConfigError, match="does not match"):
        reg.register("unscaled", 2, dot.fn, pairwise=lambda x, y: x @ y.T)
    with pytest.raises(ConfigError, match="does not match"):
        reg.register("wide", 2, dot.fn, pairwise=lambda x, y: x @ x.T)
    with pytest.raises(ConfigError, match="two-argument"):
        reg.register("unary", 1, np.exp, pairwise=dot.pairwise)
    # right on the four-key sample inputs, cut short on more keys
    reg.register("cut", 2, dot.fn,
                 pairwise=lambda x, y: dot.pairwise(x, y)[:, :4])
    assert reg.call_pairwise("cut", np.ones((2, 3)), np.ones((4, 3))).shape \
        == (2, 4)
    with pytest.raises(EvaluationError, match=r"shape \(2, 4\), expected"):
        reg.call_pairwise("cut", np.ones((2, 3)), np.ones((6, 3)))


def _left(x):
    return x @ np.linspace(-1.0, 1.0, x.shape[-1])


def _right(y):
    return y @ np.linspace(0.5, -0.7, y.shape[-1])


def _att(x, y):
    """A GAT-style score: one linear score of both rows, repeated across d."""
    return np.broadcast_to((_left(x) + _right(y))[:, None], x.shape)


def test_additive_forms_are_checked_at_registration():
    reg = FunctionRegistry()
    reg.register("att", 2, _att, additive=(_left, _right))
    with pytest.raises(ConfigError, match="does not match"):
        reg.register("swapped", 2, _att, additive=(_right, _left))
    with pytest.raises(ConfigError, match="does not match"):
        reg.register("column", 2, _att,
                     additive=(lambda x: _left(x)[:, None], _right))
    with pytest.raises(ConfigError, match="does not match"):
        reg.register("product", 2, REG.entry("dot_scaled").fn,
                     additive=(_left, _right))
    with pytest.raises(ConfigError, match="two-argument"):
        reg.register("unary", 1, np.exp, additive=(_left, _right))
    with pytest.raises(ConfigError, match="one score form"):
        reg.register("both", 2, _att, additive=(_left, _right),
                     pairwise=lambda x, y: _left(x)[:, None] + _right(y))
    # a function that takes one row width only is sampled at that width
    w = np.tile(np.concatenate([np.linspace(-1.0, 1.0, 4),
                                np.linspace(0.5, -0.7, 4)]), (4, 1))
    with pytest.raises(ConfigError, match="does not match"):
        reg.register("fixed", 2, make_linear(w, np.zeros(4)),
                     additive=(_left, _right))
    reg.register("fixed", 2, make_linear(w, np.zeros(4)),
                 additive=(_left, _right), width=4)
    x, y = np.ones((2, 4)), np.arange(12.0).reshape(3, 4)
    assert np.allclose(reg.call_pairwise("fixed", x, y),
                       _left(x)[:, None] + _right(y))
    assert np.allclose(reg.call_pairs("fixed", x, y, np.array([1, 0]),
                                      np.array([2, 2])),
                       _left(x[[1, 0]]) + _right(y[[2, 2]]))


def test_elementwise_declarations_are_checked_at_registration():
    reg = FunctionRegistry()
    for name in ("relu", "sigmoid", "exp", "softplus"):
        assert REG.entry(name).elementwise
    assert not REG.entry("softmax").elementwise
    reg.register("leaky", 1, make_leaky_relu(0.2), elementwise=True)
    with pytest.raises(ConfigError, match="not elementwise"):
        reg.register("sm", 1, REG.entry("softmax").fn, elementwise=True)
    with pytest.raises(ConfigError, match="not elementwise"):
        reg.register("centred", 1, lambda x: x - x.mean(axis=0),
                     elementwise=True)
    with pytest.raises(ConfigError, match="not elementwise"):
        reg.register("lin", 1, make_linear(np.eye(5), np.zeros(5)),
                     elementwise=True)
    with pytest.raises(ConfigError, match="one argument"):
        reg.register("plus", 2, np.add, elementwise=True)


# ---------------------------------------------------------------------------
# local attention: one score per CSR entry


def gat_registry():
    """The default registry plus an additive score and an elementwise leaky
    relu, the two pieces of a GAT layer."""
    reg = default_registry()
    reg.register("att", 2, _att, additive=(_left, _right))
    reg.register("leaky", 1, make_leaky_relu(0.2), elementwise=True)
    return reg


GAT_REG = gat_registry()
GAT_ORACLE = without_pairwise(GAT_REG)

LOCAL_TERMS = [
    "wmean[y in N(x)](H(y), exp, leaky(att(H(x), H(y))))",
    "wmean[y in N(x)](relu(H(y)), exp, att(H(x), H(y)))",
    "wmean[y in N(x)](H(y), exp, sigmoid(att(hadamard(H(x), H(x)), H(y))))",
    "wmean[y in N(x)](H(y), exp, dot_scaled(H(x), H(y)))",
    # score arguments and the value are aggregates themselves
    "wmean[y in N(x)](mean[w in N(y)](H(w)), exp,"
    " leaky(att(mean[u in N(x)](H(u)), gcn[v in N(y)](H(v)))))",
    # the score reads no anchor row at all
    "wmean[y in N(x)](H(y), exp, leaky(att([1, -2, 0.5, 3], H(y))))",
]
# the first score argument reads an outer variable besides the anchor
OUTER_TERM = ("mean[x](mean[z in N(x)](wmean[y in N(x)](H(y), exp,"
              " leaky(att(sub(H(x), H(z)), H(y))))))")


def gt(src, d=4):
    return parse_term(src, d, registry=GAT_REG)


def er_graph(n, schedule, seed, d=4):
    return attach_features(sample_graph(ErModel(schedule), n, seed),
                           Uniform01(d), seed)


def assert_rel(fast, slow, tol=1e-12):
    scale = max(1e-300, float(np.max(np.abs(slow), initial=0.0)))
    assert np.max(np.abs(fast - slow), initial=0.0) <= tol * scale


@pytest.fixture
def slabs(monkeypatch):
    """Counts the weighted slab products the evaluator takes."""
    calls = []
    real = evaluate.adjacency_product

    def counted(*args, **kw):
        calls.append(kw.get("scores") is not None)
        return real(*args, **kw)

    monkeypatch.setattr(evaluate, "adjacency_product", counted)
    return calls


@pytest.mark.parametrize("src", LOCAL_TERMS)
@pytest.mark.parametrize("side", ["segments", "slabs"])
def test_local_terms_agree_with_expansion(src, side, spy, slabs):
    if side == "segments":  # ER(K = 3): segment sums
        graph = er_graph(3000, SparseSchedule(3.0), 31)
    else:  # ER(0.1) at n = 600: weighted slabs
        graph = er_graph(600, DenseSchedule(0.1), 32)
    assert evaluate.slab_pays(graph.n, len(graph.indices), 4) == (
        side == "slabs")
    term = gt(src)
    assert plan(term, GAT_REG).kind == "scored"
    fast = eval_nodewise(term, graph, GAT_REG)
    spy[0].clear()
    assert_rel(fast, eval_nodewise(term, graph, GAT_ORACLE))
    assert spy[2] and not spy[1]
    # the oracle really expanded: its score ran once per chunk of pairs
    score_fn = "dot_scaled" if "dot_scaled" in src else "att"
    assert spy[0][score_fn] >= 1
    assert any(slabs) == (side == "slabs")
    closed = gt(f"mean[x]({src})")
    assert_rel(eval_closed(closed, graph, GAT_REG),
               eval_closed(closed, graph, GAT_ORACLE))


def test_outer_reading_score_takes_the_segments(spy, slabs):
    term = gt(OUTER_TERM)
    for schedule, seed in ((SparseSchedule(3.0), 33),
                           (DenseSchedule(0.1), 34)):
        graph = er_graph(500, schedule, seed)
        assert_rel(eval_closed(term, graph, GAT_REG),
                   eval_closed(term, graph, GAT_ORACLE))
    assert spy[2]["att"] >= 2
    assert not any(slabs)  # an aggregate of x and z has no row per node


def star_and_isolated(d=4, seed=35):
    """A star hub on 60 leaves, a sparse random part, and 5 isolated
    nodes, with features in [-1, 1]."""
    rng = np.random.default_rng(seed)
    n = 200
    hub = np.zeros(60, dtype=np.int64), np.arange(1, 61)
    iu = np.triu_indices(n - 5, 1)
    pick = rng.random(len(iu[0])) < 0.01
    u = np.concatenate([hub[0], iu[0][pick]])
    v = np.concatenate([hub[1], iu[1][pick]])
    edges = {(a, b) for a, b in zip(u.tolist(), v.tolist())}
    u, v = (np.array(x) for x in zip(*sorted(edges)))
    return from_edges(n, u, v, rng.uniform(-1.0, 1.0, size=(n, d)))


@pytest.mark.parametrize("slab", [False, True])
@pytest.mark.parametrize("src", LOCAL_TERMS[:2])
def test_star_hub_and_isolated_nodes(src, slab, monkeypatch, slabs):
    monkeypatch.setattr(evaluate, "slab_pays", lambda *args: slab)
    graph = star_and_isolated()
    term = gt(src)
    fast = eval_nodewise(term, graph, GAT_REG)
    assert_rel(fast, eval_nodewise(term, graph, GAT_ORACLE))
    assert np.all(fast[graph.degrees == 0] == 0.0)
    assert any(slabs) == slab


@pytest.mark.parametrize("slab", [False, True])
def test_large_local_scores_are_shifted_per_anchor(slab, monkeypatch):
    # scores of about +-3000 across anchors: one shared shift would underflow
    # every weight of the low anchors to 0
    monkeypatch.setattr(evaluate, "slab_pays", lambda *args: slab)
    rng = np.random.default_rng(36)
    graph = star_and_isolated()
    graph = graph.with_features(rng.uniform(-1000.0, 1000.0,
                                            size=(graph.n, 4)))
    term = gt(LOCAL_TERMS[0])
    assert_rel(eval_nodewise(term, graph, GAT_REG),
               eval_nodewise(term, graph, GAT_ORACLE))


def test_global_additive_attention_agrees_with_expansion(spy, monkeypatch):
    monkeypatch.setattr(evaluate, "_CHUNK_ROWS", 256)
    term = gt("mean[x](wmean[z](H(z), exp, leaky(att(H(x), H(z)))))")
    graph = er_graph(300, DenseSchedule(0.1), 37)
    fast = eval_closed(term, graph, GAT_REG)
    assert spy[1]["att"] >= 2  # one score matrix per chunk of outer rows
    assert_rel(fast, eval_closed(term, graph, GAT_ORACLE))


def test_gat_sparse_limit_agrees_with_expansion(spy):
    cfg = ArchConfig(kind="gat", layers=1, hidden=4, classes=3, in_dim=3)
    cm = compile_architecture(cfg, init_weights(cfg, 3))
    census = CensusConfig(n=600, node_samples=400)
    args = (cm.term, ErModel(SparseSchedule(2.0)), Uniform01(cm.dim), census,
            40, 38)
    fast = sparse_limit(*args, registry=cm.registry)
    assert spy[2]["att1"] >= 1
    slow = sparse_limit(*args, registry=without_pairwise(cm.registry))
    assert_rel(fast.estimate, slow.estimate)
    assert np.allclose(fast.stderr, slow.stderr, rtol=1e-9, atol=1e-15)


LOCAL_NEAR_MISSES = [
    # a unary map that is not elementwise
    "wmean[y in N(x)](H(y), exp, softmax(att(H(x), H(y))))",
    # two unary maps
    "wmean[y in N(x)](H(y), exp, relu(leaky(att(H(x), H(y)))))",
    # the value reads the anchor
    "wmean[y in N(x)](add(H(x), H(y)), exp, leaky(att(H(x), H(y))))",
    # the second score argument reads the anchor
    "wmean[y in N(x)](H(y), exp, leaky(att(H(y), add(H(x), H(y)))))",
    # a weight map other than exp
    "wmean[y in N(x)](H(y), softplus, leaky(att(H(x), H(y))))",
]


@pytest.mark.parametrize("src", LOCAL_NEAR_MISSES)
def test_local_near_misses_keep_the_expansion(src, spy):
    term = gt(src)
    assert plan(term, GAT_REG).kind == "expansion"
    graph = er_graph(300, DenseSchedule(0.1), 39)
    out = eval_nodewise(term, graph, GAT_REG)
    assert not spy[1] and not spy[2]
    assert np.array_equal(out, eval_nodewise(term, graph, GAT_ORACLE))


@pytest.mark.parametrize("slab", [False, True])
@pytest.mark.parametrize("where", ["local", "global"])
@pytest.mark.filterwarnings("ignore:overflow")
def test_overflowing_score_names_the_path(where, slab, monkeypatch):
    monkeypatch.setattr(evaluate, "slab_pays", lambda *args: slab)
    # node 0's first score term is 2e308: inf
    graph = path_graph([[-1e308, 0.0, 0.0, 1e308], [1.0, 1.0, 1.0, 1.0],
                        [0.5, 0.0, 0.0, 0.5]])
    if where == "local":
        term = gt("mean[x](wmean[y in N(x)](H(y), exp,"
                  " leaky(att(H(x), H(y)))))")
        want = "wmean[x] / wmean[y in N(x)] / leaky / att"
    else:
        term = gt("mean[x](wmean[z](H(z), exp, leaky(att(H(x), H(z)))))")
        want = "wmean[x] / wmean[z] / leaky / att"
    msg = _same_error(term, graph, GAT_REG, GAT_ORACLE)
    assert msg == f"non-finite value in {want}"


def test_nonfinite_unary_names_the_path():
    reg = gat_registry()
    reg.register("cliff", 1, lambda x: np.where(x > 0.3, np.inf, x),
                 elementwise=True)
    graph = path_graph([[1.0] * 4, [1.0] * 4, [-1.0] * 4])
    term = parse_term("mean[x](wmean[y in N(x)](H(y), exp,"
                      " cliff(att(H(x), H(y)))))", 4, registry=reg)
    assert plan(term.value, reg).kind == "scored"
    msg = _same_error(term, graph, reg, without_pairwise(reg))
    assert msg == "non-finite value in wmean[x] / wmean[y in N(x)] / cliff"


def test_zero_denominator_in_the_slabs_matches_wmean_reduce():
    # an anchor whose scores are all -inf has no finite shift: its weights
    # are NaN, which the denominator check catches in both kernels
    graph = path_graph([[1.0], [2.0], [3.0]])
    term = gt("wmean[y in N(x)](H(y), exp, att(H(x), H(y)))", 1)
    scores = np.array([0.0, -np.inf, -np.inf, 1.0])  # node 1's two entries
    path = ("wmean[x]", "wmean[y in N(x)]")
    with np.errstate(invalid="ignore"):
        with pytest.raises(EvaluationError) as fast:
            adjacency_product(term, graph.features, graph.indptr,
                              graph.indices, path, scores=scores)
        with pytest.raises(EvaluationError) as slow:
            wmean_reduce(graph.features[graph.indices], scores[:, None],
                         "exp", REG, graph.indptr, path=path)
    assert str(fast.value) == str(slow.value) == (
        "weight map 'exp' produced a zero or non-finite denominator in "
        "wmean[x] / wmean[y in N(x)]")


def _gps(layers, in_dim=4):
    cfg = ArchConfig(kind="gps", layers=layers, hidden=16, classes=3,
                     in_dim=in_dim)
    return compile_architecture(cfg, init_weights(cfg, 0))


def test_gps_never_expands_its_scores(spy):
    cm = _gps(2)
    graph = cm.prepare(attach_features(
        sample_graph(ErModel(DenseSchedule(0.1)), 400, 1), Uniform01(4), 2))
    eval_closed(cm.term, graph, cm.registry)
    assert "dot_scaled" not in spy[0]
    assert spy[1]["dot_scaled"] >= 2  # one score matrix per layer at least


def test_gps_sweep_bytes_do_not_depend_on_workers(tmp_path):
    digests = []
    for workers in (1, 2):
        rep = run_sweep(SweepConfig(subject=_gps(2, in_dim=2),
                                    model=ErModel(DenseSchedule(0.2)),
                                    feature_dist=Uniform01(2),
                                    sizes=(60, 150), samples=3, seed=11,
                                    workers=workers))
        path = tmp_path / f"w{workers}.csv"
        write_report_csv(rep, str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
