"""Evaluator oracles: small graphs where every mean is hand arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aggterm.errors import ConfigError, EvaluationError
from aggterm.evaluate import eval_closed, eval_nodewise, eval_term
from aggterm.parser import parse_term
from aggterm.registry import default_registry
from aggterm.terms import (Apply, Const, Feature, GlobalWMean, LocalWMean,
                           free_vars, validate_term)
from conftest import path_graph, rand_graph, rand_term, star_graph

REG = default_registry()


def P3():
    return path_graph([[0.2], [0.5], [0.8]])


def t(src, d=1):
    return parse_term(src, d, registry=REG)


def test_feature_lookup():
    g = P3()
    assert eval_term(t("H(x)"), g, {"x": 2}) == pytest.approx([0.8])


def test_local_mean_path():
    g = P3()
    lm = t("mean[y in N(x)](H(y))")
    assert eval_term(lm, g, {"x": 0}) == pytest.approx([0.5])
    assert eval_term(lm, g, {"x": 1}) == pytest.approx([(0.2 + 0.8) / 2])


def test_local_wmean_exp_weights():
    g = P3()
    wm = t("wmean[y in N(x)](H(y), exp)")
    num = 0.2 * math.exp(0.2) + 0.8 * math.exp(0.8)
    den = math.exp(0.2) + math.exp(0.8)
    assert eval_term(wm, g, {"x": 1}) == pytest.approx([num / den])


def test_local_wmean_separate_weight_arg():
    g = P3()
    wm = t("wmean[y in N(x)](H(y), exp, hadamard(H(x), H(y)))")
    w0 = math.exp(0.5 * 0.2)
    w2 = math.exp(0.5 * 0.8)
    expect = (0.2 * w0 + 0.8 * w2) / (w0 + w2)
    assert eval_term(wm, g, {"x": 1}) == pytest.approx([expect])


def test_global_mean():
    g = P3()
    assert eval_closed(t("mean[y](H(y))"), g) == pytest.approx([0.5])


def test_global_wmean_softplus():
    g = P3()
    vals = [0.2, 0.5, 0.8]
    w = [math.log1p(math.exp(v)) for v in vals]
    expect = sum(v * wi for v, wi in zip(vals, w)) / sum(w)
    got = eval_closed(t("wmean[y](H(y), softplus)"), g)
    assert got == pytest.approx([expect])


def test_empty_neighborhood_is_zero():
    g = path_graph([[0.3], [0.4], [0.9]])
    lonely = path_graph([[0.3]])  # single node, no edges
    lm = t("mean[y in N(x)](H(y))")
    assert eval_term(lm, lonely, {"x": 0}) == pytest.approx([0.0])
    deep = t("mean[x](add(1, mean[y in N(x)](H(y))))")
    assert eval_closed(deep, lonely) == pytest.approx([1.0])
    del g


def test_gcn_star():
    g = star_graph([[0.0], [1.0], [2.0], [3.0]])
    gc = t("gcn[y in N(x)](H(y))")
    # center degree 3, leaves degree 1
    expect_center = sum(v / math.sqrt(3 * 1) for v in (1.0, 2.0, 3.0))
    assert eval_term(gc, g, {"x": 0}) == pytest.approx([expect_center])
    assert eval_term(gc, g, {"x": 1}) == pytest.approx([0.0 / math.sqrt(3)])


def test_gcn_on_isolated_node_is_zero():
    lonely = path_graph([[0.7]])
    gc = t("gcn[y in N(x)](H(y))")
    assert eval_term(gc, lonely, {"x": 0}) == pytest.approx([0.0])


def test_rw_term_truncation_and_padding():
    g = path_graph([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    # kmax=4 > d=2: truncate to the first two return probabilities
    got = eval_term(t("rw(x, 4)", d=2), g, {"x": 0})
    assert got == pytest.approx([0.0, 0.5])
    # kmax=1 < d=2: zero-pad on the right
    got1 = eval_term(t("rw(x, 1)", d=2), g, {"x": 1})
    assert got1 == pytest.approx([0.0, 0.0])


def test_apply_chain():
    g = P3()
    term = t("relu(sub(H(x), 0.5))")
    assert eval_term(term, g, {"x": 0}) == pytest.approx([0.0])
    assert eval_term(term, g, {"x": 2}) == pytest.approx([0.3])


def test_softmax_rows():
    g = path_graph([[1.0, 2.0, 0.5]])
    got = eval_term(t("softmax(H(x))", d=3), g, {"x": 0})
    e = np.exp([1.0, 2.0, 0.5])
    assert got == pytest.approx(e / e.sum())


def test_nodewise_matches_pointwise():
    rng = np.random.default_rng(60)
    term = t("add(H(x), mean[y in N(x)](relu(H(y))))", d=2)
    for _ in range(5):
        g = rand_graph(rng, 20, 2, ensure_isolated=True)
        rows = eval_nodewise(term, g)
        assert rows.shape == (g.n, 2)
        for v in range(g.n):
            assert np.allclose(rows[v], eval_term(term, g, {"x": v}),
                               atol=1e-12)


def test_closed_requires_closed():
    with pytest.raises(Exception):
        eval_closed(t("H(x)"), P3())


def test_missing_assignment_rejected():
    with pytest.raises(Exception):
        eval_term(t("H(x)"), P3(), {})


@pytest.mark.parametrize("node", [1.7, 1.0, "3", True, None])
def test_assignment_node_ids_must_be_integers(node):
    # not truncated or parsed into some node: refused as configuration
    with pytest.raises(ConfigError, match="node id of x must be an integer"):
        eval_term(t("H(x)"), P3(), {"x": node})
    assert eval_term(t("H(x)"), P3(), {"x": np.int64(2)}) == pytest.approx(
        [0.8])


@pytest.mark.parametrize("node", [3, -1])
def test_assignment_node_out_of_range(node):
    with pytest.raises(EvaluationError, match="out of range"):
        eval_term(t("H(x)"), P3(), {"x": node})


@pytest.mark.parametrize("src", ["mean[y](H(y))", "add(H(x), H(y))"])
def test_nodewise_needs_one_free_variable(src):
    with pytest.raises(EvaluationError, match="exactly one free variable"):
        eval_nodewise(t(src), P3())


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nonfinite_function_output_flagged():
    g = path_graph([[100.0], [200.0], [300.0]])
    term = t("wmean[y](exp(exp(H(y))), one)")
    with pytest.raises(EvaluationError):
        eval_closed(term, g)


# properties -----------------------------------------------------------------

def _eval_any(term, graph):
    fvs = free_vars(term)
    assignment = {v: i % graph.n for i, v in enumerate(fvs)}
    return eval_term(term, graph, assignment)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_weighted_means_stay_in_hull(seed):
    """A weighted mean of values lies in their componentwise hull."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    g = rand_graph(rng, 12, d)
    wmap = ("one", "exp", "softplus")[int(rng.integers(3))]
    value = rand_term(rng, d, scope=("y",), max_depth=2)
    validate_term(GlobalWMean("y", value, wmap, value), REG, d)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            per_node = np.stack([
                eval_term(value, g, {"y": v}) for v in range(g.n)])
            got = eval_closed(GlobalWMean("y", value, wmap, value), g)
    except EvaluationError:
        # the random term overflowed or its weights underflowed to zero;
        # refusing to evaluate is the contract there, not a hull violation
        assume(False)
    lo, hi = per_node.min(axis=0), per_node.max(axis=0)
    tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    assert np.all(got >= lo - tol) and np.all(got <= hi + tol)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_exp_weight_shift_invariance(seed):
    """exp weights are scale-free: shifting the weight argument by a
    constant leaves the weighted mean unchanged."""
    rng = np.random.default_rng(seed)
    g = rand_graph(rng, 12, 1)
    shift = float(rng.uniform(-3, 3))
    base = GlobalWMean("y", Feature("y"), "exp", Feature("y"))
    shifted = GlobalWMean("y", Feature("y"), "exp",
                          Apply("add", (Feature("y"), Const((shift,)))))
    a = eval_closed(base, g)
    b = eval_closed(shifted, g)
    assert np.allclose(a, b, atol=1e-9)
