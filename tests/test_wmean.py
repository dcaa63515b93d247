"""The weighted-mean kernel as seen through the evaluator and both limit
engines: the same term must fail, or shift, the same way in each."""

import hashlib

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
ER_K3 = ErModel(SparseSchedule(3.0))
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


# sha256 of eval_closed's (d,) float64 output of a closed global mean over
# a graph-dependent body, on 500-node ER(0.1) and ER(K = 3) graphs: the
# bits of one axis sum over all n rows (_Mean). A one-segment reduceat
# rounds differently, at d = 1 as at d = 3: a mean taken that way fails 9
# of these 12 cases
CLOSED_SHA256 = {
    (1, "er01", "one"):
        "dcd5d16a011f1e0086355da380da416ffe720dc488e9545db61204099c1fad1a",
    (1, "er01", "exp"):
        "ed040f7cbac151fc06b52507fc926395d34aed6914a26e7f5f80daf67f9bb810",
    (1, "er01", "softplus"):
        "be334363ba0b8721baed77e1e02a85b361493087732eb83cd1b1e79e9c2df608",
    (1, "erk3", "one"):
        "10124f7cb3d76d58f2b9fc4c9985a09e6d933eb589dfe114108a3b140b25b65c",
    (1, "erk3", "exp"):
        "73b3526000a82d7c7f6287a18eda541341574f9f08ed556199ce5c87c7eba782",
    (1, "erk3", "softplus"):
        "cb6d5438b53be27a9c57db1eec8dccb63af974602a0f4df129e11bd7fda59dcb",
    (3, "er01", "one"):
        "d27ef0f05977e59deda0e2acbd17c1cb3bdc2f94825eba5a4b398aca721dc6c3",
    (3, "er01", "exp"):
        "93a3ef45bd6d328ab696ea0b15f2a343f676e94b161c8f145bb36d20adb960a0",
    (3, "er01", "softplus"):
        "81d5e5d3eba2ac846d9f2a51f0db102d189385642338aa478cf9a345319f211d",
    (3, "erk3", "one"):
        "94a8a5593b86b70d7e7e7f84595ade378dd5d0162f9e90085c828fe1140d633f",
    (3, "erk3", "exp"):
        "33efe53fe329d0ce7fb50543128ba86921e9d66ee6b899240c929ca3ced3fc7d",
    (3, "erk3", "softplus"):
        "2e47804402cd92fd53a50ae79f8554c05fc1956cfd9b8e8f5428b768cae457ea",
}


@pytest.mark.parametrize("weight_map", ("one", "exp", "softplus"))
@pytest.mark.parametrize("name, model", (("er01", ErModel(DenseSchedule(0.1))),
                                         ("erk3", ER_K3)))
@pytest.mark.parametrize("d", (1, 3))
def test_closed_global_means_are_pinned(d, name, model, weight_map):
    g = sample_graph(model, 500, stream(11, "graph", d))
    g = attach_features(g, Uniform01(d), stream(11, "features", d))
    src = ("mean[x](mean[y in N(x)](H(y)))" if weight_map == "one"
           else f"wmean[x](mean[y in N(x)](H(y)), {weight_map}, H(x))")
    reg = default_registry()
    out = eval_closed(parse_term(src, d, registry=reg), g, reg)
    digest = hashlib.sha256(out.astype("<f8").tobytes()).hexdigest()
    assert digest == CLOSED_SHA256[d, name, weight_map]
