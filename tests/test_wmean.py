"""The weighted-mean kernel as seen through the evaluator and both limit
engines: the same term must fail, or shift, the same way in each."""

import numpy as np
import pytest

from aggterm.dense_limit import dense_controller
from aggterm.errors import EvaluationError
from aggterm.evaluate import eval_closed, wmean_reduce
from aggterm.graphs import (DenseSchedule, ErModel, SparseSchedule, Uniform01,
                            attach_features, sample_graph)
from aggterm.parser import parse_term
from aggterm.registry import default_registry
from aggterm.rng import stream
from aggterm.sparse_limit import CensusConfig, sparse_limit

ER_DENSE = ErModel(DenseSchedule(0.2))
ER_SPARSE = ErModel(SparseSchedule(2.0))
CENSUS = CensusConfig(n=400, node_samples=400)

# one template per reduction site: a collapsed global, a local mean, and a
# global whose weights read an outer variable (nested in the limit engines)
TEMPLATES = (
    "wmean[y](H(y), {w}, add(H(y), {c}))",
    "mean[x](wmean[y in N(x)](H(y), {w}, add(H(y), {c})))",
    "mean[x](wmean[y](H(y), {w}, add(H(x), add(H(y), {c}))))",
)


def _evaluator(term, reg, seed):
    g = sample_graph(ER_DENSE, 40, stream(seed, "g"))
    g = attach_features(g, Uniform01(1), stream(seed, "f"))
    return eval_closed(term, g, reg)


def _dense(term, reg, seed):
    return dense_controller(term, ER_DENSE, Uniform01(1), 400, seed,
                            registry=reg, inner_mc=8).estimate


def _sparse(term, reg, seed):
    return sparse_limit(term, ER_SPARSE, Uniform01(1), CENSUS, 400, seed,
                        registry=reg, inner_mc=8).estimate


@pytest.mark.parametrize("template", TEMPLATES)
@pytest.mark.parametrize("engine", (_evaluator, _dense, _sparse))
def test_zero_denominator_names_weight_map(engine, template):
    # positive on the registry's spot-check range [-10, 10], but 0 on the
    # weight arguments the term feeds it (all above 50)
    reg = default_registry()
    reg.register("cliff", 1, lambda x: np.where(x > 50.0, 0.0, 1.0),
                 positive=True)
    term = parse_term(template.format(w="cliff", c=100), 1, registry=reg)
    with pytest.raises(EvaluationError, match="'cliff'.*denominator"):
        engine(term, reg, 3)


@pytest.mark.parametrize("template", TEMPLATES)
@pytest.mark.parametrize("engine", (_dense, _sparse))
def test_limit_engines_shift_exp_weights(engine, template):
    # exp(800) overflows; shifted weights cancel the constant exactly
    reg = default_registry()
    base = engine(parse_term(template.format(w="exp", c=0), 1, registry=reg),
                  reg, 5)
    with np.errstate(over="raise"):
        far = engine(parse_term(template.format(w="exp", c=800), 1,
                                registry=reg), reg, 5)
    assert np.all(np.isfinite(far))
    assert np.allclose(far, base, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("seg", ([0, 3, 3, 7, 8, 8], [0, 3, 4, 7, 8]),
                         ids=("empty segments", "all nonempty"))
@pytest.mark.parametrize("samples", (3, "nseg"))
@pytest.mark.parametrize("weight_map", ("one", "exp", "softplus"))
def test_segments_over_trailing_sample_axis(seg, samples, weight_map):
    # (rows, samples, d) blocks reduce per sample exactly as (rows, d) ones;
    # samples == nseg would hide a per-segment count broadcast on the
    # wrong axis
    seg = np.array(seg)
    samples = len(seg) - 1 if samples == "nseg" else samples
    rng = np.random.default_rng(17)
    vals = rng.random((seg[-1], samples, 2))
    eta = 5.0 * rng.standard_normal((seg[-1], samples, 2))
    reg = default_registry()
    got = wmean_reduce(vals, eta, weight_map, reg, seg)
    want = np.stack([wmean_reduce(vals[:, s], eta[:, s], weight_map, reg,
                                  seg) for s in range(samples)], axis=1)
    assert got.shape == (len(seg) - 1, samples, 2)
    assert np.array_equal(got, want)
