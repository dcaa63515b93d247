"""Sparse-model limits against Poisson facts and large-graph evaluation."""

import importlib
import math

import numpy as np
import pytest

from aggterm.canonical import decode_code
from aggterm.census import neighborhood_census
from aggterm.dense_limit import dense_controller
from aggterm.errors import ConfigError
from aggterm.evaluate import eval_closed, eval_nodewise
from aggterm.graphs import (BaModel, ConstantFeatures, DenseSchedule,
                            ErModel, SparseSchedule, Uniform01,
                            attach_features, from_edges, sample_graph)
from aggterm.parser import parse_term
from aggterm.registry import default_registry
from aggterm.rng import stream
from aggterm.sparse_limit import CensusConfig, _SparseEngine, sparse_limit

REG = default_registry()
K1 = ErModel(SparseSchedule(1.0))
K2 = ErModel(SparseSchedule(2.0))
ISO = "mean[u](sub(1, mean[v in N(u)](1)))"
CENSUS = CensusConfig(n=3000, node_samples=3000)


def t(src, d=1):
    return parse_term(src, d, registry=REG)


def empirical(term, model, sizes, dist, seed, graphs=4):
    outs = []
    for i in range(graphs):
        g = sample_graph(model, sizes, stream(seed, "emp", i))
        g = attach_features(g, dist, stream(seed, "empf", i))
        outs.append(eval_closed(term, g, REG))
    return np.mean(outs, axis=0)


def test_isolated_fraction_poisson1():
    v = sparse_limit(t(ISO), K1, Uniform01(1), CENSUS, 4000, 21)
    assert abs(float(v.estimate[0]) - math.exp(-1)) < 0.03
    assert v.truncated_mass is not None and v.truncated_mass < 0.05


def test_isolated_fraction_poisson2():
    v = sparse_limit(t(ISO), K2, Uniform01(1), CENSUS, 4000, 22)
    assert abs(float(v.estimate[0]) - math.exp(-2)) < 0.03


def test_structure_free_matches_dense():
    term = t("mean[v](H(v))")
    s = sparse_limit(term, K1, Uniform01(1), CENSUS, 30000, 23)
    d = dense_controller(term, ErModel(DenseSchedule(0.1)), Uniform01(1),
                         30000, 23)
    assert abs(float(s.estimate[0]) - 0.5) < 0.01
    gap = abs(float(s.estimate[0] - d.estimate[0]))
    assert gap < max(0.005, 4 * math.hypot(float(s.stderr[0]),
                                           float(d.stderr[0])))
    assert s.truncated_mass == 0.0


def test_dependent_nested_product():
    # E_x E_y [x * y] = 1/4; the inner mean reads the outer variable
    term = t("mean[x](mean[y](hadamard(H(x), H(y))))")
    v = sparse_limit(term, K1, Uniform01(1), CENSUS, 20000, 24,
                     inner_mc=128)
    assert abs(float(v.estimate[0]) - 0.25) < max(0.01, 4 * float(v.stderr[0]))


def test_local_mean_feature():
    # mean over non-isolated share of E[H] = (1 - e^{-1}) / 2
    term = t("mean[u](mean[v in N(u)](H(v)))")
    v = sparse_limit(term, K1, Uniform01(1), CENSUS, 20000, 25)
    target = (1.0 - math.exp(-1)) / 2.0
    assert abs(float(v.estimate[0]) - target) < 0.02


def test_rw_against_large_graphs():
    term = t("mean[v](rw(v, 2))", d=2)
    v = sparse_limit(term, K1, Uniform01(2), CensusConfig(n=3000,
                     node_samples=3000), 4000, 26)
    emp = empirical(term, K1, 12000, Uniform01(2), 26)
    assert float(v.estimate[0]) == 0.0  # no length-1 returns
    assert abs(float(v.estimate[1]) - float(emp[1])) < 0.02


def test_gcn_against_large_graphs():
    term = t("mean[x](gcn[y in N(x)](H(y)))")
    v = sparse_limit(term, K1, Uniform01(1),
                     CensusConfig(n=4000, node_samples=4000), 8000, 27,
                     eps=0.02)
    emp = empirical(term, K1, 16000, Uniform01(1), 27)
    assert abs(float(v.estimate[0]) - float(emp[0])) < 0.03


def test_ba_has_no_isolated_nodes():
    v = sparse_limit(t(ISO), BaModel(3), Uniform01(1),
                     CensusConfig(n=2000, node_samples=2000), 2000, 28)
    assert float(v.estimate[0]) == 0.0


def test_deterministic_per_seed():
    a = sparse_limit(t(ISO), K1, Uniform01(1), CENSUS, 2000, 29)
    b = sparse_limit(t(ISO), K1, Uniform01(1), CENSUS, 2000, 29)
    assert np.array_equal(a.estimate, b.estimate)
    assert np.array_equal(a.stderr, b.stderr)
    assert a.truncated_mass == b.truncated_mass


def test_multidim_features():
    v = sparse_limit(t("mean[v](H(v))", d=3), K1,
                     Uniform01(3), CENSUS, 20000, 30)
    assert np.all(np.abs(v.estimate - 0.5) < 0.01)


def test_open_term_rejected():
    with pytest.raises(ConfigError):
        sparse_limit(t("mean[v in N(x)](H(v))"), K1, Uniform01(1), CENSUS,
                     100, 1)


def test_dense_model_rejected():
    with pytest.raises(ConfigError):
        sparse_limit(t(ISO), ErModel(DenseSchedule(0.1)), Uniform01(1),
                     CENSUS, 100, 1)


def test_bad_eps_rejected():
    for eps in (1.0, -0.1):
        with pytest.raises(ConfigError):
            sparse_limit(t(ISO), K1, Uniform01(1), CENSUS, 100, 1, eps=eps)


def test_tiny_mc_rejected():
    with pytest.raises(ConfigError):
        sparse_limit(t(ISO), K1, Uniform01(1), CENSUS, 1, 1)
    with pytest.raises(ConfigError):
        sparse_limit(t(ISO), K1, Uniform01(1), CENSUS, 100, 1, inner_mc=1)


def test_census_config_type_checked():
    with pytest.raises(ConfigError):
        sparse_limit(t(ISO), K1, Uniform01(1), {"n": 1000}, 100, 1)


def test_unreachable_eps_reports_mass():
    cfg = CensusConfig(n=1500, node_samples=800, size_cap=12)
    term = t("mean[x](mean[y in N(x)](mean[z in N(y)](H(z))))")
    with pytest.raises(ConfigError, match="mass"):
        sparse_limit(term, BaModel(4), Uniform01(1), cfg, 500, 2, eps=0.01)


@pytest.mark.parametrize("src, d, model", [
    (ISO, 1, K1),
    ("mean[u](gcn[v in N(u)](H(v)))", 1, K1),
    ("mean[u](rw(u, 2))", 2, K1),
    ("mean[u](wmean[v in N(u)](mean[w in N(v)](H(w)), exp, H(v)))", 1, K2),
])
def test_exact_class_mixture(src, d, model):
    # constant features make every draw equal, so the limit must be the
    # census mixture of the body at each kept class's root, exactly
    term = t(src, d)
    dist = ConstantFeatures(0.7, d)
    engine = _SparseEngine(term, REG, dist, model,
                           CensusConfig(n=1500, node_samples=1500), 50, 31,
                           0.05, 8)
    got = engine.estimate().estimate
    [(_, codes, weights, _)] = engine._kept.values()
    want = np.zeros(d)
    for code, q in zip(codes, weights):
        adj = decode_code(code).adj
        pairs = [(a, b) for a, row in enumerate(adj) for b in row if a < b]
        g = from_edges(len(adj), [a for a, _ in pairs], [b for _, b in pairs])
        g = g.with_features(np.full((len(adj), d), 0.7))
        want += q * eval_nodewise(term.value, g, REG)[0]
    assert len(codes) > 1
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_unread_weight_argument_needs_no_census_radius():
    # the weight map one never reads the local mean, so one radius-0 class
    # (a lone root) serves the term
    term = t("wmean[y](H(y), one, mean[z in N(y)](H(z)))")
    engine = _SparseEngine(term, REG, Uniform01(1), K2,
                           CensusConfig(n=300, node_samples=300), 50, 31,
                           0.05, 8)
    engine.estimate()
    assert list(engine._kept) == [0]
    assert len(engine._kept[0][1]) == 1


@pytest.mark.parametrize("src,d,drawn", [
    (ISO, 1, 0), ("mean[u](rw(u, 2))", 2, 0),
    # the inner global's lone-root pool alone, 400 rows drawn once: the
    # outer body reads mean[v]'s per-run value, so it runs for the full
    # run and again for the blocks, on no pool of its own
    ("mean[u](mean[v](H(v)))", 1, 400)])
def test_terms_reading_no_feature_draw_none(src, d, drawn, monkeypatch):
    # a body that reads no feature on its union (an inner global that reads
    # only its binder runs on pools of its own) draws no pool for it
    sl = importlib.import_module("aggterm.sparse_limit")
    rows = []

    def counting(dist, count, rng):
        rows.append(count)
        return draw(dist, count, rng)

    draw = sl.draw_features
    monkeypatch.setattr(sl, "draw_features", counting)
    sparse_limit(t(src, d), K1, Uniform01(d), CensusConfig(500, 300), 400, 3)
    assert sum(rows) == drawn


COUNT_CALLS = {
    "dense mc_samples": lambda: dense_controller(
        t("mean[v](H(v))"), ErModel(DenseSchedule(0.1)), Uniform01(1), 100.5,
        1),
    "dense inner_mc": lambda: dense_controller(
        t("mean[x](mean[y](hadamard(H(x), H(y))))"),
        ErModel(DenseSchedule(0.1)), Uniform01(1), 100, 1, inner_mc=8.5),
    "sparse mc_samples": lambda: sparse_limit(
        t(ISO), K1, Uniform01(1), CENSUS, 100.5, 1),
    "sparse inner_mc": lambda: sparse_limit(
        t(ISO), K1, Uniform01(1), CENSUS, 100, 1, inner_mc=8.5),
    "census n": lambda: sparse_limit(
        t(ISO), K1, Uniform01(1), CensusConfig(n=500.5, node_samples=200),
        100, 1),
    "census node_samples": lambda: sparse_limit(
        t(ISO), K1, Uniform01(1), CensusConfig(n=500, node_samples=200.5),
        100, 1),
    "census size_cap": lambda: sparse_limit(
        t(ISO), K1, Uniform01(1),
        CensusConfig(n=500, node_samples=200, size_cap=3.5), 100, 1),
    # a term that reads no structure draws no census; its CensusConfig
    # still refuses counts that are not integers
    "census n, radius 0": lambda: sparse_limit(
        t("mean[v](H(v))"), K1, Uniform01(1),
        CensusConfig(n=500.5, node_samples=200), 100, 1),
    "census node_samples, radius 0": lambda: sparse_limit(
        t("mean[v](H(v))"), K1, Uniform01(1),
        CensusConfig(n=500, node_samples=200.5), 100, 1),
    "census size_cap, radius 0": lambda: sparse_limit(
        t("mean[v](H(v))"), K1, Uniform01(1),
        CensusConfig(n=500, node_samples=200, size_cap=3.5), 100, 1),
    "census radius": lambda: neighborhood_census(K1, 500, 1.5, 1, 200, 1),
    "census k": lambda: neighborhood_census(K1, 500, 1, 1.5, 200, 1),
}


@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_count_arguments_are_config_errors(name):
    with pytest.raises(ConfigError, match="integer"):
        COUNT_CALLS[name]()


def test_radius_zero_is_exact_without_a_census(monkeypatch):
    # a radius-0 ball is the lone root on every sparse model, as a sampled
    # census confirms, so a term that reads no structure draws no census
    # the package re-exports the function sparse_limit under the module's name
    sl = importlib.import_module("aggterm.sparse_limit")
    lone = bytes.fromhex("524e31010001")
    for model in (K1, BaModel(3)):
        table = neighborhood_census(model, 1000, 0, 1, 600, 5)
        assert table.proportions == {lone: 1.0}
        assert table.truncated_mass == 0.0

    def no_census(*args, **kwargs):
        raise AssertionError("a radius-0 term sampled a census")

    monkeypatch.setattr(sl, "neighborhood_census", no_census)
    engine = _SparseEngine(t("mean[u](wmean[v](H(v), exp, H(u)))"), REG,
                           Uniform01(1), K1, CENSUS, 200, 3, 0.05, 8)
    value = engine.estimate()
    [(_, codes, weights, dropped)] = engine._kept.values()
    assert codes == (lone,) and weights.tolist() == [1.0] and dropped == 0.0
    assert value.truncated_mass == 0.0
