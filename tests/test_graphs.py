"""Schedules, graph models, feature draws, file round trip."""

import math

import numpy as np
import pytest

from aggterm.errors import ConfigError
from aggterm.graphs import (AlternatingSchedule, BaModel, BernoulliFeatures,
                            ConstantFeatures, DenseSchedule, ErModel,
                            LogSchedule, PaddedFeatures, RootSchedule,
                            SbmModel, SparseSchedule, Uniform01, UniformRange,
                            attach_features, draw_features, eval_schedule,
                            feature_dim, from_edges, gen_er, gen_sbm,
                            read_graph, rooted_neighborhood, sample_graph,
                            sbm_sizes, write_graph)
from aggterm.rng import stream


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
