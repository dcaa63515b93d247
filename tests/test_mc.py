"""Monte-Carlo plumbing: value container, block slicing, batch stderr,
pool streams and working memory."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from aggterm.architectures import ArchConfig, compile_architecture, init_weights
from aggterm.dense_limit import dense_controller
from aggterm.errors import ConfigError
from aggterm.graphs import (BernoulliFeatures, ConstantFeatures, DenseSchedule,
                            ErModel, PaddedFeatures, SparseSchedule, Uniform01,
                            UniformRange, draw_features)
from aggterm.dense_limit import _DenseEngine
from aggterm.evaluate import _Mean
from aggterm.mc import (_LONE, ControllerValue, McEngine, batch_stderr,
                        block_slices)
from aggterm.parser import parse_term
from aggterm.registry import default_registry
from aggterm.rng import stream
from aggterm.sparse_limit import CensusConfig, _SparseEngine, sparse_limit


def test_controller_value_readonly():
    v = ControllerValue(estimate=np.array([0.5]), stderr=np.array([0.01]),
                        mc_samples=100)
    with pytest.raises(ValueError):
        v.estimate[0] = 1.0


def test_controller_value_validation():
    with pytest.raises(ConfigError):
        ControllerValue(estimate=np.array([0.5]),
                        stderr=np.array([-0.1]), mc_samples=10)
    with pytest.raises(ConfigError):
        ControllerValue(estimate=np.array([0.5]),
                        stderr=np.array([0.1, 0.2]), mc_samples=10)
    with pytest.raises(ConfigError):
        ControllerValue(estimate=np.array([0.5]),
                        stderr=np.array([0.1]), mc_samples=0)


def test_block_slices_cover_everything():
    for total in (10, 37, 100, 1003):
        slices = block_slices(total)
        covered = []
        for s in slices:
            covered.extend(range(s.start, s.stop))
        assert covered == list(range(total))
        assert len(slices) == 10


def test_block_slices_balanced():
    slices = block_slices(100, blocks=4)
    assert [s.stop - s.start for s in slices] == [25, 25, 25, 25]


def test_batch_stderr_matches_formula():
    rng = np.random.default_rng(3)
    blocks = rng.normal(size=(10, 2))
    got = batch_stderr(blocks)
    want = blocks.std(axis=0, ddof=1) / np.sqrt(10)
    assert np.allclose(got, want)


def test_batch_stderr_scales_with_noise():
    rng = np.random.default_rng(4)
    small = batch_stderr(rng.normal(scale=0.1, size=(10, 1)))
    large = batch_stderr(rng.normal(scale=10.0, size=(10, 1)))
    assert large[0] > 10 * small[0]


@pytest.mark.parametrize("weight_map,width", [
    ("one", 2), ("exp", 2), ("exp", 1), ("softplus", 2)])
def test_streamed_mean_is_the_mean_over_all_rows(weight_map, width):
    # rows fed in chunks whose weight arguments jump by +50 and then -20:
    # the exp sums rescale to the largest shift so far, and every map gives
    # the mean over all rows written out below; fed as one chunk, its bits
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(30, 2, 3, 2))
    jumps = np.repeat([0.0, 50.0, -20.0], 10)[:, None, None, None]
    eta = rng.normal(size=(30, 2, 3, width)) + jumps
    mass = rng.random(30)
    reg = default_registry()
    col = mass.reshape(-1, 1, 1, 1)
    if weight_map == "one":
        w = col
    elif weight_map == "exp":
        w = np.exp(eta - eta.max(axis=0, keepdims=True)) * col
    else:
        w = np.logaddexp(0.0, eta) * col
    want = (vals * w).sum(axis=0) / w.sum(axis=0)
    streamed, whole = _Mean(weight_map, reg), _Mean(weight_map, reg)
    for sl in block_slices(30, 3):
        streamed.add(vals[sl], eta[sl], mass[sl])
    whole.add(vals, eta, mass)
    assert np.allclose(streamed.value(()), want, rtol=1e-12, atol=0)
    assert np.array_equal(whole.value(()), want)


DISTS = [Uniform01(2), UniformRange(-1.0, 3.0, 2), BernoulliFeatures(0.3, 3),
         ConstantFeatures(0.5, 2), PaddedFeatures(Uniform01(3), 5),
         PaddedFeatures(BernoulliFeatures(0.6, 1), 2)]


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
def test_pool_streams_are_read_once_per_aggregate(dist, monkeypatch):
    # one pass serves the full run and every error block, so each (depth,
    # class) pool stream is read once per aggregate that draws on it, from
    # its start: the two aggregates below read each class's depth-0 pool
    # twice, and every read is the stream's sample-major rows
    reads = []

    def recording(self, depth, code, count):
        pool = pool_of(self, depth, code, count)
        reads.append((depth, code, pool.copy()))
        return pool

    pool_of = McEngine._pool
    monkeypatch.setattr(McEngine, "_pool", recording)
    term = parse_term("add(mean[u](mean[v in N(u)](H(v))), "
                      "mean[w](mean[x in N(w)](relu(H(x)))))", dist.dim,
                      registry=default_registry())
    sparse_limit(term, ErModel(SparseSchedule(2.0)), dist,
                 CensusConfig(n=300, node_samples=200), 53, 4)
    counts = Counter((depth, code) for depth, code, _ in reads)
    assert len(counts) > 1 and set(counts.values()) == {2}
    assert any(pool.shape[0] > 1 for _, _, pool in reads)
    for depth, code, pool in reads:
        nodes = pool.shape[0]
        rows = draw_features(dist, 53 * nodes,
                             stream(4, "sparse", "pool", depth, code.hex()))
        assert np.array_equal(
            pool, rows.reshape(53, nodes, dist.dim).transpose(1, 0, 2))


def _lone_draws(kind, seed, count, *key):
    """count U[0, 1] draws of the lone root from the stream (seed, kind,
    *key), straight from the stream."""
    return draw_features(Uniform01(1), count, stream(seed, kind, *key))[:, 0]


PER_RUN = "mean[x](hadamard(H(x), mean[y](H(y))))"


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_blocks_read_their_own_per_run_values(kind):
    # the outer body reads mean[y]'s per-run value, so block b's estimate is
    # the product of block b's means of the two radius-0 pools, at depths 0
    # and 1 (the sparse engine keys its lone root's pools by its code)
    m, seed = 997, 12
    term = parse_term(PER_RUN, 1, registry=default_registry())
    if kind == "dense":
        engine, key = _DenseEngine(term, default_registry(), Uniform01(1),
                                   draw_features, m, seed, 64), ()
    else:
        engine, key = _SparseEngine(
            term, default_registry(), Uniform01(1),
            ErModel(SparseSchedule(2.0)),
            CensusConfig(n=300, node_samples=100), m, seed, 0.05, 64), \
            (_LONE.hex(),)
    v = engine.estimate()
    full, blocks = engine._cache[(term, 0)]
    x, y = (_lone_draws(kind, seed, m, "pool", depth, *key)
            for depth in (0, 1))
    want = np.array([[x[sl].mean() * y[sl].mean()] for sl in block_slices(m)])
    assert np.allclose(full, [x.mean() * y.mean()], rtol=1e-12, atol=0)
    assert np.array_equal(v.estimate, full)
    assert np.allclose(blocks, want, rtol=1e-12, atol=0)
    assert np.allclose(v.stderr, batch_stderr(want), rtol=1e-12, atol=0)


def test_open_top_aggregate_blocks_slice_its_inner_draws():
    # an open term's top aggregate averages P = max(inner_mc, m) = 64 inner
    # draws of its one outer sample, and block b is slice b of them; its
    # body reads mean[z]'s per-run value, block b's for block b's draws
    m, seed, h = 40, 13, 0.7
    term = parse_term("mean[y](hadamard(H(x), hadamard(H(y), mean[z](H(z)))))",
                      1, registry=default_registry())
    engine = _DenseEngine(term, default_registry(), Uniform01(1),
                          draw_features, m, seed, 64)
    v = engine.estimate({"x": np.array([h])})
    full, blocks = engine._cache[(term, 0)]
    y = _lone_draws("dense", seed, 64, "inner", 0, 0)
    z = _lone_draws("dense", seed, m, "pool", 1)
    want = np.array([[h * y[a].mean() * z[b].mean()] for a, b in
                     zip(block_slices(64), block_slices(m))])
    assert np.allclose(full, [h * y.mean() * z.mean()], rtol=1e-12, atol=0)
    assert np.array_equal(v.estimate, full)
    assert np.allclose(blocks, want, rtol=1e-12, atol=0)
    assert np.allclose(v.stderr, batch_stderr(want), rtol=1e-12, atol=0)


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_sparse_two_hop_working_memory():
    # pools are drawn per chunk of classes and dropped with it, so memory
    # follows the block size, not the census (86 MB when every class's pool
    # lived for the whole estimate)
    term = parse_term(
        "mean[u](wmean[v in N(u)](mean[w in N(v)](H(w)), exp, H(v)))", 1,
        registry=default_registry())
    assert _traced_peak_mb(lambda: sparse_limit(
        term, ErModel(SparseSchedule(2.0)), Uniform01(1),
        CensusConfig(n=5000, node_samples=5000), 4000, 7)) < 40


def test_sparse_two_hop_reduces_as_it_streams():
    # the same limit: each chunk of classes is reduced into running sums
    # before the next is drawn, so no classes x draws value matrix is held
    # (18.7 MB when it was, with block reruns)
    term = parse_term(
        "mean[u](wmean[v in N(u)](mean[w in N(v)](H(w)), exp, H(v)))", 1,
        registry=default_registry())
    assert _traced_peak_mb(lambda: sparse_limit(
        term, ErModel(SparseSchedule(2.0)), Uniform01(1),
        CensusConfig(n=5000, node_samples=5000), 4000, 7)) < 12


def test_dense_nested_attention_working_memory():
    # a nested chunk holds about graphs.BLOCK elements, d included (114 MB for
    # gat-1L when chunks were sized without d)
    cfg = ArchConfig(kind="gat", layers=1, hidden=8, classes=4, in_dim=4)
    net = compile_architecture(cfg, init_weights(cfg, 123))
    assert _traced_peak_mb(lambda: dense_controller(
        net.term, ErModel(DenseSchedule(0.1)),
        PaddedFeatures(Uniform01(net.in_dim), net.dim), 5000, 5,
        registry=net.registry)) < 40
