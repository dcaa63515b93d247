"""Monte-Carlo plumbing: value container, block slicing, batch stderr,
pool streams and working memory."""

import tracemalloc

import numpy as np
import pytest

from aggterm.architectures import ArchConfig, compile_architecture, init_weights
from aggterm.dense_limit import dense_controller
from aggterm.errors import ConfigError
from aggterm.graphs import (BernoulliFeatures, ConstantFeatures, DenseSchedule,
                            ErModel, PaddedFeatures, SparseSchedule, Uniform01,
                            UniformRange)
from aggterm.mc import ControllerValue, McEngine, batch_stderr, block_slices
from aggterm.parser import parse_term
from aggterm.registry import default_registry
from aggterm.sparse_limit import CensusConfig, sparse_limit


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


DISTS = [Uniform01(2), UniformRange(-1.0, 3.0, 2), BernoulliFeatures(0.3, 3),
         ConstantFeatures(0.5, 2), PaddedFeatures(Uniform01(3), 5),
         PaddedFeatures(BernoulliFeatures(0.6, 1), 2)]


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
def test_block_pools_are_the_full_pool_restricted(dist, monkeypatch):
    # every run reads its own draws of a class's sample-major pool stream,
    # skipping the rows of earlier draws: the block reruns' pools are the
    # full run's, split along the draws, bit for bit. Two aggregates read
    # each pool in every run, so the second read of a block rerun resets
    # its stream and skips to the block's first draw
    pools = {}

    def recording(self, depth, code, count):
        pool = pool_of(self, depth, code, count)
        pools.setdefault(code, []).append(pool.copy())
        return pool

    pool_of = McEngine._pool
    monkeypatch.setattr(McEngine, "_pool", recording)
    term = parse_term("add(mean[u](mean[v in N(u)](H(v))), "
                      "mean[w](mean[x in N(w)](relu(H(x)))))", dist.dim,
                      registry=default_registry())
    sparse_limit(term, ErModel(SparseSchedule(2.0)), dist,
                 CensusConfig(n=300, node_samples=200), 53, 4)
    assert any(p[0].shape[0] > 1 for p in pools.values())
    for full, again, *blocks in pools.values():
        assert len(blocks) == 20 and full.shape[1] == 53
        assert np.array_equal(again, full)
        for reads in (blocks[::2], blocks[1::2]):
            assert np.array_equal(np.concatenate(reads, axis=1), full)


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


def test_dense_nested_attention_working_memory():
    # a nested chunk holds about graphs.BLOCK elements, d included (114 MB for
    # gat-1L when chunks were sized without d)
    cfg = ArchConfig(kind="gat", layers=1, hidden=8, classes=4, in_dim=4)
    net = compile_architecture(cfg, init_weights(cfg, 123))
    assert _traced_peak_mb(lambda: dense_controller(
        net.term, ErModel(DenseSchedule(0.1)),
        PaddedFeatures(Uniform01(net.in_dim), net.dim), 5000, 5,
        registry=net.registry)) < 40
