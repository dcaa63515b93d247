"""Working memory of the sweep path: every chunked kernel sizes its largest
temporary by graphs.BLOCK elements, and the evaluator's chunks change no
output bit."""

import tracemalloc

import numpy as np
import pytest

from aggterm import evaluate, graphs
from aggterm.architectures import ArchConfig, compile_architecture, init_weights
from aggterm.evaluate import eval_closed
from aggterm.graphs import (DenseSchedule, ErModel, LogSchedule, SparseSchedule,
                            Uniform01, attach_features, sample_graph)
from aggterm.rw import rw_encoding_all


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def net_and_graph(kind, layers, model, n, seed):
    cfg = ArchConfig(kind=kind, layers=layers, hidden=8, classes=4, in_dim=4)
    net = compile_architecture(cfg, init_weights(cfg, seed))
    graph = attach_features(sample_graph(model, n, seed), Uniform01(4), seed)
    return net, net.prepare(graph)


def test_dense_graph_build_working_memory():
    # Bernoulli draws come BLOCK at a time and the CSR is sorted in place
    # (27 MB with 2^21 draws per call and five 2|E| copies in from_edges)
    assert traced_peak_mb(lambda: graphs.gen_er(
        3000, DenseSchedule(0.1), 1)) < 20


BENCH_SBM = graphs.SbmModel((0.5, 0.5), ((0.2, 0.05), (0.05, 0.2)))


@pytest.mark.parametrize("make, limit", [
    # the CSR's 2|E| keys are 7.2 and 9.0 MB: arcs go straight into them
    # (13.9 and 17.5 MB with per-block edge lists and a from_edges copy)
    (lambda: graphs.gen_er(3000, DenseSchedule(0.1), 1), 11),
    (lambda: sample_graph(BENCH_SBM, 3000, 1), 14.5)])
def test_bernoulli_graph_build_working_memory(make, limit):
    assert traced_peak_mb(make) < limit


@pytest.mark.parametrize("kmax", [3, 4])
@pytest.mark.parametrize("n, limit", [(1500, 12), (3000, 24)])
def test_dense_walk_returns_working_memory(n, limit, kmax):
    # tiles of S from row slabs of BLOCK entries (23 and 89 MB with the
    # whole n x n matrix S)
    graph = sample_graph(ErModel(DenseSchedule(0.1)), n, 2)
    assert traced_peak_mb(lambda: rw_encoding_all(graph, kmax)) < limit


def test_walk_returns_working_memory():
    # a block of sources holds about BLOCK triples (72 MB at 2^21)
    graph = sample_graph(ErModel(LogSchedule(2.0)), 3000, 2)
    assert traced_peak_mb(lambda: rw_encoding_all(graph, 4)) < 40


def test_global_attention_working_memory():
    # score matrices of BLOCK // n outer rows and adjacency slabs of BLOCK
    # entries (51 MB when both held about 2^21)
    net, graph = net_and_graph("gps", 2, ErModel(DenseSchedule(0.1)), 1500, 3)
    assert traced_peak_mb(lambda: eval_closed(net.term, graph,
                                              net.registry)) < 20


def test_chunked_attention_is_bitwise_unchunked(monkeypatch):
    # the expansion chunk counts elements: BLOCK // d rows, not BLOCK rows
    net, graph = net_and_graph("gat", 3, ErModel(SparseSchedule(3.0)), 2000, 4)
    calls = []
    real = evaluate.wmean_reduce

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluate, "wmean_reduce", counted)
    whole = eval_closed(net.term, graph, net.registry)
    unchunked = len(calls)
    monkeypatch.setattr(graphs, "BLOCK", 1 << 12)
    chunked = eval_closed(net.term, graph, net.registry)
    assert len(calls) - unchunked > 3 * unchunked  # several chunks a layer
    assert np.array_equal(chunked, whole)
