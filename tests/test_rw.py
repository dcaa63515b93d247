"""Walk-return encodings against hand-computed transition powers."""

import hashlib
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aggterm import graphs, rw
from aggterm.graphs import (BaModel, DenseSchedule, ErModel, LogSchedule,
                            SparseSchedule, from_edges, sample_graph)
from aggterm.mc import _layout
from aggterm.rw import rw_encoding, rw_encoding_all, walk_returns
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
    for kmax in (0, -1, 2.5, None):
        with pytest.raises(ValueError, match="kmax must be"):
            rw_encoding(g, 0, kmax)
        with pytest.raises(ValueError, match="kmax must be"):
            rw_encoding_all(g, kmax)
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
    tile_calls = []
    tile_returns = rw._tile_returns

    def spy(*args):
        tile_calls.append(args)
        return tile_returns(*args)

    monkeypatch.setattr(rw, "_tile_returns", spy)
    for g, dense_plan in ((sparse, False), (dense, True)):
        ref = power_returns(g, 4)
        assert np.all(ref[-7:] == 0.0)
        tile_calls.clear()
        assert np.abs(walk_returns(g.indptr, g.indices, np.arange(g.n), 4)
                      - ref).max() < 1e-12
        assert bool(tile_calls) == dense_plan
        # each plan's rows directly: <r_a, r_b> is the (a + b)-step return
        src, deg = np.arange(g.n), g.degrees.astype(float)
        scale = np.divide(1.0, np.sqrt(deg), out=np.zeros(g.n), where=deg > 0)
        mat = np.zeros((g.n, g.n))
        rows = np.repeat(src, g.degrees)
        mat[rows, g.indices] = scale[rows] * scale[g.indices]
        plans = [(list(rw._tile_rows(lambda lo: mat[lo:lo + 300], 300, g.n,
                                     src, 2)),
                  lambda x, y: np.einsum("ij,ij->i", x, y))]
        if not dense_plan:  # triples on a dense graph take seconds
            plans.append((list(rw._triple_rows(g.indptr, g.indices, scale,
                                               src, 2)),
                          lambda x, y: rw._triple_dot(x, y, g.n, g.n)))
        for (r1, r2), dot in plans:
            got = np.stack([dot(r1, r1), dot(r1, r2), dot(r2, r2)], axis=1)
            assert np.abs(got - ref[:, 1:]).max() < 1e-12


def no_dense_rows(*args, **kwargs):
    raise AssertionError("expected the triples plan")


@pytest.mark.parametrize("block", [None, 1 << 12])
def test_dense_tiles_match_matrix_powers(monkeypatch, block):
    # 1 << 12 gives row slabs of 6 rows, 102 of them, the last of one row
    if block is not None:
        monkeypatch.setattr(graphs, "BLOCK", block)
    monkeypatch.setattr(rw, "_TRIPLE_COST", 1e30)  # the dense plan
    slabs = []
    dense_rows = graphs.dense_rows

    def spy(indptr, indices, lo, hi, *args):
        slabs.append(hi - lo)
        return dense_rows(indptr, indices, lo, hi, *args)

    monkeypatch.setattr(graphs, "dense_rows", spy)
    sbm = graphs.gen_sbm(600, (0.5, 0.5), ((0.2, 0.05), (0.05, 0.2)), 9)
    er = sample_graph(ErModel(DenseSchedule(0.1)), 600, 9)
    picks = [0, 17, 17, 599, 606, 3]
    for g in (with_isolated(er, 7), with_isolated(sbm, 7)):
        for kmax in range(1, 7):
            slabs.clear()
            whole = walk_returns(g.indptr, g.indices, np.arange(g.n), kmax)
            assert max(slabs) == min(graphs.BLOCK // g.n, g.n)
            assert np.abs(whole - power_returns(g, kmax)).max() < 1e-12
            assert np.all(whole[-7:] == 0.0)
            some = walk_returns(g.indptr, g.indices, picks, kmax)
            assert np.abs(some - whole[picks]).max() < 1e-12


def test_triples_ignore_block_partition(monkeypatch):
    g = with_isolated(sample_graph(ErModel(SparseSchedule(3.0)), 600, 8), 3)

    monkeypatch.setattr(graphs, "dense_rows", no_dense_rows)
    whole = rw_encoding_all(g, 5)
    monkeypatch.setattr(graphs, "BLOCK", 100)
    assert np.array_equal(rw_encoding_all(g, 5), whole)
    picks = [0, 17, 599, 601]
    assert np.array_equal(walk_returns(g.indptr, g.indices, picks, 5),
                          whole[picks])


@pytest.mark.parametrize("rows", [None, 0.0, np.inf])
@pytest.mark.parametrize("kmax", [3, 5, 7])
def test_odd_kmax_on_triples(monkeypatch, kmax, rows):
    # the last odd return <r_(h-1), r_h> comes from r_(h-1)'s expansion
    # (always at kmax 3 here), or from r_h when rows cap it at 0
    cases = (with_isolated(sample_graph(ErModel(LogSchedule(2.0)), 400, 6), 5),
             sample_graph(BaModel(3), 400, 6))

    closures = []
    closure = rw._triple_closure

    def spy(*args):
        closures.append(1)
        return closure(*args)

    monkeypatch.setattr(graphs, "dense_rows", no_dense_rows)
    monkeypatch.setattr(rw, "_triple_closure", spy)
    monkeypatch.setattr(rw, "_TRIPLE_COST", 0.0)  # triples at any kmax
    if rows is not None:
        monkeypatch.setattr(rw, "_CLOSURE_ROWS", rows)
    for g in cases:
        src = np.arange(g.n)
        closures.clear()
        whole = walk_returns(g.indptr, g.indices, src, kmax)
        if rows is not None or kmax == 3:
            assert bool(closures) == (rows != 0.0)
        assert np.abs(whole - power_returns(g, kmax)).max() < 1e-12
        # every return but the last is kmax - 1's, bit for bit
        assert np.array_equal(whole[:, :-1],
                              walk_returns(g.indptr, g.indices, src, kmax - 1))
        picks = [0, 17, 399, g.n - 1]
        assert np.array_equal(walk_returns(g.indptr, g.indices, picks, kmax),
                              whole[picks])
        with monkeypatch.context() as m:
            m.setattr(graphs, "BLOCK", 100)
            assert np.array_equal(walk_returns(g.indptr, g.indices, src, kmax),
                                  whole)


@st.composite
def sort_keys(draw):
    """int64 keys with ties, around the widest spread that packs with the
    positions: max - min < 2^(63 - bits), bits the positions' width."""
    m = draw(st.integers(0, 40))
    span = 1 << (63 - max(m - 1, 0).bit_length())
    lo = draw(st.integers(-2 ** 63, 2 ** 63 - 1 - span))
    offsets = st.sampled_from([0, 1, span // 2, span - 1, span]) | \
        st.integers(0, 4)
    return np.array([lo + off for off in draw(st.lists(offsets, min_size=m,
                                                       max_size=m))],
                    dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(sort_keys())
@example(np.zeros(0, dtype=np.int64))
@example(np.array([7], dtype=np.int64))
@example(np.array([3, 1, 3, 1, 0, 3], dtype=np.int64))
# key * length overflows int64: the stable sort takes over
@example(np.array([2 ** 62, 0, 2 ** 62, 5, 0], dtype=np.int64))
@example(np.array([2 ** 63 - 1, -2 ** 63, 0, 2 ** 63 - 1], dtype=np.int64))
def test_packed_sort_is_the_stable_order(keys):
    before = keys.copy()
    got, order = rw._stable_sort(keys)
    assert np.array_equal(keys, before)
    assert order.dtype == np.int64
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    assert np.array_equal(got, keys[order]) and got.dtype == np.int64


# sha256 of rw_encoding_all(g, 4) as little-endian float64, recorded while
# the triples were ordered by np.argsort(kind="stable"): the packed sort
# gives the same order, so every even-length return keeps its bits
RW4_SHA256 = {
    "er_log2": "2230bff508f8b61fabac5907ce8000cc3796aaa381d9bfcd8f2aac061f4626f6",
    "ba3": "faa5e841033d1edc660ae798419c97110ea433be5e592062000e8988f9a4b41d",
}


@pytest.mark.parametrize("name, model, n", [
    ("er_log2", ErModel(LogSchedule(2.0)), 1000), ("ba3", BaModel(3), 2000)])
def test_even_returns_are_pinned(name, model, n):
    enc = rw_encoding_all(sample_graph(model, n, 1), 4)
    digest = hashlib.sha256(enc.astype("<f8").tobytes()).hexdigest()
    assert digest == RW4_SHA256[name]


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
    # the same graph as the sparse engine's union CSR of three components
    union = _layout([((1, 2), (0, 2), (0, 1)), ((1,), (0, 2), (1,)), ((),)])
    got = walk_returns(union.indptr, union.indices, np.arange(len(adj)), 6)
    assert np.abs(got - ref).max() < 1e-12
