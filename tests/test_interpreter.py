"""The evaluator and both limit engines give one term one meaning."""

import numpy as np
import pytest

from conftest import path_graph, rand_term
from aggterm.dense_limit import dense_controller
from aggterm.errors import EvaluationError
from aggterm.evaluate import eval_closed
from aggterm.graphs import (ConstantFeatures, DenseSchedule, ErModel,
                            SparseSchedule, Uniform01, draw_features)
from aggterm.parser import parse_term
from aggterm.registry import default_registry
from aggterm.sparse_limit import CensusConfig, sparse_limit

DENSE = ErModel(DenseSchedule(0.5))
SPARSE = ErModel(SparseSchedule(2.0))
CENSUS = CensusConfig(n=300, node_samples=300)


def _engines(term, reg, dist, mc=4):
    """eval_closed on a 5-node path, dense_controller and sparse_limit, as
    calls that return the term's value; for terms that read no structure."""
    graph = path_graph(draw_features(dist, 5, np.random.default_rng(0)))
    return (lambda: eval_closed(term, graph, reg),
            lambda: dense_controller(term, DENSE, dist, mc, 0, registry=reg,
                                     inner_mc=2).estimate,
            lambda: sparse_limit(term, SPARSE, dist, CENSUS, mc, 0,
                                 registry=reg, inner_mc=2).estimate)


@pytest.mark.parametrize("text", ["c2", "wmean[v](c2, exp, c2)"])
def test_zero_argument_function_in_every_engine(text):
    reg = default_registry()
    reg.register("c2", 0, lambda: np.array([0.25, 0.75]))
    term = parse_term(text, 2, registry=reg)
    for run in _engines(term, reg, Uniform01(2)):
        np.testing.assert_allclose(run(), [0.25, 0.75], rtol=1e-12)


def test_unread_weight_argument_keeps_an_aggregate_collapsed():
    # under the weight map one, H(x) is never read, so the inner mean does
    # not depend on x and must equal the plain collapsed mean bitwise
    reg = default_registry()
    unread = parse_term("mean[x](wmean[y](H(y), one, H(x)))", 1, registry=reg)
    plain = parse_term("mean[x](mean[y](H(y)))", 1, registry=reg)
    for run in (
            lambda t: dense_controller(t, DENSE, Uniform01(1), 2000, 3,
                                       registry=reg),
            lambda t: sparse_limit(t, SPARSE, Uniform01(1), CENSUS, 2000, 3,
                                   registry=reg)):
        a, b = run(unread), run(plain)
        assert a.estimate.tobytes() == b.estimate.tobytes()
        assert a.stderr.tobytes() == b.stderr.tobytes()


def test_errors_name_the_term_path():
    # positive and finite on the registry's spot check (inputs in [-10, 10])
    reg = default_registry()
    reg.register("f", 1, lambda x: np.where(x > 20.0, np.inf, 1.0 + x * x),
                 positive=True)
    term = parse_term("mean[y](f(H(y)))", 1, registry=reg)
    for run in _engines(term, reg, ConstantFeatures(30.0, 1)):
        with pytest.raises(EvaluationError,
                           match=r"non-finite value in wmean\[y\] / f$"):
            run()


@pytest.mark.parametrize("body", ["H(y)", "add(H(x), H(y))"],
                         ids=("collapsed", "nested"))
def test_denominator_errors_name_the_term_path(body):
    # positive on the registry's spot check, 0 at the feature value 30
    reg = default_registry()
    reg.register("g", 1, lambda x: np.exp(-x * x), positive=True)
    term = parse_term(f"mean[x](wmean[y](H(y), g, {body}))", 1, registry=reg)
    for run in _engines(term, reg, ConstantFeatures(30.0, 1)):
        with pytest.raises(EvaluationError,
                           match=r"denominator in wmean\[x\] / wmean\[y\]$"):
            run()


def test_engines_agree_on_structure_free_terms():
    """Under constant features a term that reads no structure has one value;
    the three engines give it to 1e-12 or all raise."""
    reg = default_registry()
    checked = raised = 0
    for seed in range(400):
        term = rand_term(np.random.default_rng(seed), 2, max_depth=3)
        if term.depth != 0:
            continue
        got = []
        for run in _engines(term, reg, ConstantFeatures(0.3, 2)):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    got.append(run())
            except EvaluationError:
                got.append(None)
        if all(g is None for g in got):
            raised += 1
            continue
        assert all(g is not None for g in got), (seed, got)
        for other in got[1:]:
            np.testing.assert_allclose(other, got[0], rtol=1e-12, atol=1e-12,
                                       err_msg=f"seed {seed}")
        checked += 1
    assert (checked, raised) == (215, 1)
