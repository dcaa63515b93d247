"""Walk-return encodings against hand-computed transition powers."""

import time

import numpy as np
import pytest

from aggterm import rw
from aggterm.graphs import (BaModel, DenseSchedule, ErModel, LogSchedule,
                            SparseSchedule, from_edges, sample_graph)
from aggterm.rw import rw_encoding, rw_encoding_all, walk_returns
from aggterm.sparse_limit import _union_rw
from conftest import path_graph, rand_graph, star_graph


def triangle():
    return from_edges(3, [0, 0, 1], [1, 2, 2])


def test_triangle_returns():
    g = triangle()
    # uniform walk on C3: no length-1 return, 1/2 at length 2, 1/4 at 3
    expect = np.array([0.0, 0.5, 0.25, 0.375])
    for v in range(3):
        assert np.allclose(rw_encoding(g, v, 4), expect, atol=1e-12)


def test_single_edge_alternates():
    g = from_edges(2, [0], [1])
    assert np.allclose(rw_encoding(g, 0, 5), [0, 1, 0, 1, 0])


def test_star_center_and_leaf():
    g = star_graph(np.zeros((4, 1)))
    assert np.allclose(rw_encoding(g, 0, 4), [0, 1, 0, 1])
    assert np.allclose(rw_encoding(g, 1, 4), [0, 1 / 3, 0, 1 / 3])


def test_path3_endpoint_and_middle():
    g = path_graph(np.zeros((3, 1)))
    assert np.allclose(rw_encoding(g, 0, 4), [0, 0.5, 0, 0.5])
    assert np.allclose(rw_encoding(g, 1, 4), [0, 1, 0, 1])


def test_isolated_node_is_zero():
    g = from_edges(3, [1], [2])
    assert np.array_equal(rw_encoding(g, 0, 6), np.zeros(6))


def test_all_matches_per_node():
    rng = np.random.default_rng(41)
    for _ in range(5):
        g = rand_graph(rng, 30, 1, ensure_isolated=True)
        allv = rw_encoding_all(g, 5)
        assert allv.shape == (g.n, 5)
        for v in range(g.n):
            assert np.allclose(allv[v], rw_encoding(g, v, 5), atol=1e-12)


def test_exact_matches_matrix_power():
    rng = np.random.default_rng(42)
    g = rand_graph(rng, 25, 1)
    deg = g.degrees.astype(float)
    trans = np.zeros((g.n, g.n))
    for v in range(g.n):
        for u in g.neighbors(v):
            trans[v, u] = 1.0 / deg[v]
    power = np.eye(g.n)
    for k in range(1, 7):
        power = power @ trans
        for v in range(g.n):
            got = rw_encoding(g, v, 6)
            assert abs(got[k - 1] - power[v, v]) < 1e-12


def test_bad_kmax_rejected():
    g = triangle()
    with pytest.raises(ValueError):
        rw_encoding(g, 0, 0)
    g = from_edges(3, [0], [1])
    for v in (-2, -1, 3, 1.0, None, "0"):
        with pytest.raises(ValueError, match="in \\[0, 3\\)"):
            rw_encoding(g, v, 3)


def power_returns(g, kmax):
    """Diagonals of P^1..P^kmax from dense transition-matrix powers."""
    deg = g.degrees.astype(float)
    rows = np.repeat(np.arange(g.n), g.degrees)
    trans = np.zeros((g.n, g.n))
    trans[rows, g.indices] = 1.0 / deg[rows]
    out, power = np.zeros((g.n, kmax)), np.eye(g.n)
    for k in range(kmax):
        power = power @ trans
        out[:, k] = np.diag(power)
    return out


def with_isolated(g, extra):
    """g with `extra` isolated nodes appended."""
    src = np.repeat(np.arange(g.n), g.degrees)
    keep = src < g.indices
    return from_edges(g.n + extra, src[keep], g.indices[keep])


def test_both_plans_match_matrix_powers(monkeypatch):
    # one graph on each side of the plan choice, both with isolated nodes
    sparse = with_isolated(sample_graph(ErModel(LogSchedule(2.0)), 2100, 5), 7)
    dense = with_isolated(sample_graph(ErModel(DenseSchedule(0.1)), 2100, 5), 7)
    slab_calls = []
    slab_rows = rw._slab_rows

    def spy(*args):
        slab_calls.append(args)
        return slab_rows(*args)

    monkeypatch.setattr(rw, "_slab_rows", spy)
    for g, slab_plan in ((sparse, False), (dense, True)):
        ref = power_returns(g, 4)
        assert np.all(ref[-7:] == 0.0)
        slab_calls.clear()
        assert np.abs(walk_returns(g.indptr, g.indices, np.arange(g.n), 4)
                      - ref).max() < 1e-12
        assert bool(slab_calls) == slab_plan
        # each plan directly: <r_a, r_b> is the (a + b)-step return
        src, deg = np.arange(g.n), g.degrees.astype(float)
        scale = np.divide(1.0, np.sqrt(deg), out=np.zeros(g.n), where=deg > 0)
        mat = np.zeros((g.n, g.n))
        rows = np.repeat(src, g.degrees)
        mat[rows, g.indices] = scale[rows] * scale[g.indices]
        plans = [(list(slab_rows(mat, src, 2)),
                  lambda x, y: np.einsum("ij,ij->i", x, y))]
        if not slab_plan:  # triples on a dense graph take seconds
            plans.append((list(rw._triple_rows(g.indptr, g.indices, scale,
                                               src, 2)),
                          lambda x, y: rw._triple_dot(x, y, g.n, g.n)))
        for (r1, r2), dot in plans:
            got = np.stack([dot(r1, r1), dot(r1, r2), dot(r2, r2)], axis=1)
            assert np.abs(got - ref[:, 1:]).max() < 1e-12


def test_triples_ignore_block_partition(monkeypatch):
    g = with_isolated(sample_graph(ErModel(SparseSchedule(3.0)), 600, 8), 3)

    def no_slab(*args):
        raise AssertionError("expected the triples plan")

    monkeypatch.setattr(rw, "_slab_rows", no_slab)
    whole = rw_encoding_all(g, 5)
    monkeypatch.setattr(rw, "_BLOCK_ENTRIES", 100)
    assert np.array_equal(rw_encoding_all(g, 5), whole)
    picks = [0, 17, 599, 601]
    assert np.array_equal(walk_returns(g.indptr, g.indices, picks, 5),
                          whole[picks])


def test_ba_hub_is_exact():
    g = sample_graph(BaModel(3), 20000, 11)
    deg = g.degrees.astype(float)
    for v in np.argsort(-g.degrees, kind="stable")[:3]:
        two_step = np.sum(1.0 / (deg[v] * deg[g.neighbors(v)]))
        got = rw_encoding(g, v, 4)
        assert got[0] == 0.0 and abs(got[1] - two_step) < 1e-12


def test_no_size_cliff():
    for model, n in ((ErModel(DenseSchedule(0.1)), 2500),
                     (ErModel(LogSchedule(2.0)), 3000)):
        g = sample_graph(model, n, 3)
        t0 = time.perf_counter()
        enc = rw_encoding_all(g, 3)
        assert time.perf_counter() - t0 < 5.0
        assert enc.shape == (n, 3) and np.all(np.isfinite(enc))


def test_sparse_engine_union_returns():
    # a triangle plus a path 3-4-5 plus an isolated node, as adjacency rows
    adj = ((1, 2), (0, 2), (0, 1), (4,), (3, 5), (4,), ())
    u, v = zip(*[(a, b) for a, row in enumerate(adj) for b in row if a < b])
    ref = power_returns(from_edges(len(adj), u, v), 6)
    assert np.abs(_union_rw(adj, 6) - ref).max() < 1e-12
