"""Schedules, graph models, feature draws, file round trip."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggterm import graphs
from aggterm.errors import ConfigError
from aggterm.graphs import (AlternatingSchedule, BaModel, BernoulliFeatures,
                            ConstantFeatures, DenseSchedule, ErModel,
                            LogSchedule, PaddedFeatures, RootSchedule,
                            SbmModel, SparseSchedule, Uniform01, UniformRange,
                            attach_features, bounded_draws, draw_features,
                            eval_schedule, feature_dim, from_edges, gen_ba,
                            gen_er, gen_sbm,
                            read_graph, rooted_neighborhood, sample_graph,
                            sbm_sizes, write_graph)
from aggterm.rng import stream
from conftest import csr_by_divmod, gen_ba_per_pick


def test_schedule_values():
    assert eval_schedule(DenseSchedule(0.3), 17) == 0.3
    assert eval_schedule(RootSchedule(2.0, 0.5), 100) == 2.0 / 10.0
    assert eval_schedule(LogSchedule(1.5), 100) == 1.5 * math.log(100) / 100
    assert eval_schedule(SparseSchedule(3.0), 600) == 0.005
    alt = AlternatingSchedule(DenseSchedule(0.5), SparseSchedule(1.0))
    assert eval_schedule(alt, 10) == 0.5
    assert eval_schedule(alt, 11) == 1.0 / 11


def test_schedule_clamped():
    assert eval_schedule(SparseSchedule(10.0), 4) == 1.0
    assert eval_schedule(DenseSchedule(0.2), 1) == 0.2


def test_schedule_rejects_bad_size():
    with pytest.raises(ConfigError):
        eval_schedule(DenseSchedule(0.2), 0)


def test_er_edge_count_matches_binomial():
    n, p = 400, 0.05
    npairs = n * (n - 1) // 2
    counts = [sample_graph(ErModel(DenseSchedule(p)), n,
                           stream(300, "er", i)).num_edges
              for i in range(30)]
    mean = np.mean(counts)
    expect = npairs * p
    sd = math.sqrt(npairs * p * (1 - p) / 30)
    assert abs(mean - expect) < 5 * sd


def test_er_sparse_mean_degree():
    g = sample_graph(ErModel(SparseSchedule(3.0)), 20000, stream(301))
    mean_deg = 2 * g.num_edges / g.n
    assert abs(mean_deg - 3.0) < 0.15
    g.validate()


def test_one_block_sbm_is_dense_er():
    # both scan the upper triangle row by row with the same Bernoulli draws
    for n in (57, 300, 1000):
        er = gen_er(n, DenseSchedule(0.3), np.random.default_rng(n))
        sbm = gen_sbm(n, (1.0,), ((0.3,),), np.random.default_rng(n))
        assert np.array_equal(er.indptr, sbm.indptr)
        assert np.array_equal(er.indices, sbm.indices)


def test_sbm_sizes_and_block_density():
    assert sbm_sizes(10, (0.5, 0.5)) == [5, 5]
    assert sum(sbm_sizes(7, (0.3, 0.7))) == 7
    model = SbmModel((0.5, 0.5), ((0.2, 0.02), (0.02, 0.2)))
    g = sample_graph(model, 600, stream(302))
    g.validate()
    comm = g.community
    assert comm is not None and set(comm.tolist()) == {1, 2}
    within = between = 0
    for v in range(g.n):
        for u in g.neighbors(v):
            if u > v:
                if comm[u] == comm[v]:
                    within += 1
                else:
                    between += 1
    n1 = int(np.sum(comm == 1))
    n2 = g.n - n1
    pairs_within = n1 * (n1 - 1) // 2 + n2 * (n2 - 1) // 2
    pairs_between = n1 * n2
    assert abs(within / pairs_within - 0.2) < 0.02
    assert abs(between / pairs_between - 0.02) < 0.006


def test_ba_edge_count_exact():
    m = 4
    g = sample_graph(BaModel(m), 500, stream(303))
    g.validate()
    # seed clique on m nodes, then m edges per arriving node
    assert g.num_edges == m * (m - 1) // 2 + (500 - m) * m
    assert int(g.degrees.min()) >= m - 1


def test_ba_degree_tail_is_heavy():
    g = sample_graph(BaModel(3), 4000, stream(304))
    assert int(g.degrees.max()) > 60


def test_feature_draws():
    rng = stream(310)
    u = draw_features(Uniform01(3), 1000, rng)
    assert u.shape == (1000, 3) and u.min() >= 0.0 and u.max() <= 1.0
    r = draw_features(UniformRange(-2.0, 5.0, 2), 500, stream(311))
    assert r.min() >= -2.0 and r.max() <= 5.0
    b = draw_features(BernoulliFeatures(0.25, 4), 2000, stream(312))
    assert set(np.unique(b).tolist()) <= {0.0, 1.0}
    assert abs(b.mean() - 0.25) < 0.02
    c = draw_features(ConstantFeatures(1.5, 2), 7, stream(313))
    assert np.all(c == 1.5)
    p = draw_features(PaddedFeatures(Uniform01(2), 5), 40, stream(314))
    assert p.shape == (40, 5)
    assert np.all(p[:, 2:] == 0.0) and p[:, :2].min() >= 0.0


def test_feature_dim():
    assert feature_dim(Uniform01(3)) == 3
    assert feature_dim(PaddedFeatures(Uniform01(2), 6)) == 6


def test_attach_features_deterministic():
    g = sample_graph(ErModel(DenseSchedule(0.2)), 50, stream(320))
    g1 = attach_features(g, Uniform01(3), stream(321))
    g2 = attach_features(g, Uniform01(3), stream(321))
    assert np.array_equal(g1.features, g2.features)
    assert g1.features.shape == (50, 3)


def test_graph_file_round_trip(tmp_path):
    model = SbmModel((0.4, 0.6), ((0.3, 0.05), (0.05, 0.2)))
    g = attach_features(sample_graph(model, 80, stream(322)),
                        Uniform01(3), stream(323))
    path = tmp_path / "g.graph"
    write_graph(g, path)
    h = read_graph(path)
    assert h.n == g.n
    assert np.array_equal(h.indptr, g.indptr)
    assert np.array_equal(h.indices, g.indices)
    assert np.array_equal(h.features, g.features)
    assert np.array_equal(h.community, g.community)


def test_rooted_neighborhood_radius():
    # path 0-1-2-3-4 rooted at 2
    u = np.arange(4)
    g = from_edges(5, u, u + 1)
    rg = rooted_neighborhood(g, [2], 1)
    assert len(rg.adj) == 3
    rg2 = rooted_neighborhood(g, [2], 2)
    assert len(rg2.adj) == 5


def test_sample_graph_determinism():
    a = sample_graph(ErModel(DenseSchedule(0.1)), 200, stream(9, "g", 1))
    b = sample_graph(ErModel(DenseSchedule(0.1)), 200, stream(9, "g", 1))
    assert np.array_equal(a.indices, b.indices)


def test_model_validation():
    with pytest.raises(ConfigError):
        SbmModel((0.5, 0.6), ((0.1, 0.1), (0.1, 0.1)))
    with pytest.raises(ConfigError):
        SbmModel((0.5, 0.5), ((0.1, 0.2), (0.3, 0.1)))
    with pytest.raises(ConfigError):
        BaModel(0)


# spans whose Lemire rejection is likeliest: 2**32 mod span is about half,
# a quarter, and one of the 2**32 words
HARD_SPANS = [2**31 + 1, 3 * 2**30 + 1, 2**32 - 1]


@pytest.mark.parametrize("block", [1, 3, 1000])
def test_bounded_draws_equal_integers_call_by_call(block):
    pick = np.random.default_rng(3)
    for seed in range(5):
        spans = [int(x) for x in pick.choice(
            [1, 2, 3, 7, 1000, 12345, 2**20 + 3, *HARD_SPANS], size=400)]
        below = bounded_draws(stream(seed, "draws"), block)
        ref = stream(seed, "draws")
        assert [below(s) for s in spans] == [int(ref.integers(s))
                                              for s in spans]


def test_bounded_draws_reject_like_numpy():
    # about half the words are rejected at span 2**31 + 1; a long run
    # keeps the two streams aligned only if every rejection matches
    for span in HARD_SPANS:
        below = bounded_draws(stream(7, span), 64)
        ref = stream(7, span)
        assert [below(span) for _ in range(2000)] == \
            [int(x) for x in ref.integers(span, size=2000)]


def test_bounded_draw_of_one_reads_no_word():
    rng = stream(11)
    below = bounded_draws(rng, 8)
    assert [below(1) for _ in range(5)] == [0] * 5
    assert rng.random() == stream(11).random()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_gen_ba_matches_per_pick_sampler(m):
    for n in sorted({1, m, m + 1, 50, 5000}):
        if n < m:
            continue
        for seed in range(10):
            g, ref = gen_ba(n, m, seed), gen_ba_per_pick(n, m, seed)
            assert np.array_equal(g.indptr, ref.indptr), (n, m, seed)
            assert np.array_equal(g.indices, ref.indices), (n, m, seed)


def test_gen_ba_endpoint_bound():
    # the endpoint list must stay below 2**32 entries for the 32-bit draws
    with pytest.raises(ConfigError, match="2mn < 2\\*\\*32"):
        gen_ba(2**31, 1, 0)
    with pytest.raises(ConfigError, match="2mn < 2\\*\\*32"):
        gen_ba(2**29, 4, 0)


@st.composite
def edge_lists(draw):
    """n and unique edges u < v in any order, isolated nodes and all."""
    n = draw(st.integers(1, 40))
    arcs = draw(st.sets(st.tuples(st.integers(0, n - 1),
                                  st.integers(0, n - 1)), max_size=120))
    edges = sorted({(min(a, b), max(a, b)) for a, b in arcs if a != b})
    edges = draw(st.permutations(edges))
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    return n, u, v


@settings(max_examples=200, deadline=None)
@given(edge_lists())
def test_from_edges_matches_sort_and_divmod(case):
    n, u, v = case
    g = from_edges(n, u, v)
    indptr, indices = csr_by_divmod(n, u, v)
    assert g.indptr.dtype == g.indices.dtype == np.int64
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)
    g.validate()


# sha256 of (indptr, indices) as little-endian int64, recorded from the
# sort-and-divmod construction (csr_by_divmod) before from_edges sorted
# in place; the dense ER spans several Bernoulli draw blocks
GRAPH_SHA256 = {
    "er_dense": "b281d01ecd329de6531dde9d3ac31d26cd6278b52ba0debad5623ddac2b202d3",
    "er_sparse": "faaa9543898deb651db43438f793f7ac597c48c1335c35a81d3ef2d4bdbd5edc",
    "sbm": "d6345c72a720c03c40e0506c8cdd030bf29059643883fc8404103d2d1c999a43",
    "ba": "8766e0cb73f147249c0b2cc81f65dc77478f3baf708890fda0ab9a89004a0269",
}


@pytest.mark.parametrize("name,make", [
    ("er_dense", lambda: gen_er(1000, DenseSchedule(0.05), 1)),
    ("er_sparse", lambda: gen_er(2000, SparseSchedule(3.0), 2)),
    ("sbm", lambda: gen_sbm(600, (0.3, 0.7), ((0.2, 0.05), (0.05, 0.1)), 3)),
    ("ba", lambda: gen_ba(1000, 3, 4))])
def test_sampled_graphs_are_pinned(name, make):
    g = make()
    digest = hashlib.sha256(g.indptr.astype("<i8").tobytes()
                            + g.indices.astype("<i8").tobytes())
    assert digest.hexdigest() == GRAPH_SHA256[name]


# the same digests at bench size, recorded before the Bernoulli samplers
# wrote their arcs straight into the CSR's key array
BENCH_GRAPH_SHA256 = {
    "er_0.1": "59ac7a9c60d91d6e64b3536152a1e11d600d263f310be229f869047b5378f68b",
    "sbm": "11cae8715490e1b3570d530d530c5292df561b9e369af5197fa41bd656366c9c",
}


@pytest.mark.parametrize("name,make", [
    ("er_0.1", lambda: gen_er(3000, DenseSchedule(0.1), 1)),
    ("sbm", lambda: gen_sbm(3000, (0.5, 0.5), ((0.2, 0.05), (0.05, 0.2)), 1))])
def test_bench_size_graphs_are_pinned(name, make):
    g = make()
    digest = hashlib.sha256(g.indptr.astype("<i8").tobytes()
                            + g.indices.astype("<i8").tobytes())
    assert digest.hexdigest() == BENCH_GRAPH_SHA256[name]


class AllHits:
    """An rng whose every draw is 0: each Bernoulli pair is an edge."""

    def random(self, size):
        return np.zeros(size)


def test_bernoulli_key_array_grows_past_its_estimate():
    # p = 0.01 expects 0.01 * 80 * 79 / 2 = 32 edges, but every pair
    # is drawn, so the key array outgrows its first size
    u = np.arange(79)
    g = graphs._bernoulli_graph(AllHits(), 80, [(u, u + 1, 79 - u, 0.01)])
    g.validate()
    assert np.array_equal(g.degrees, np.full(80, 79))
