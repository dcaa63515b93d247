"""The attention kernel: global exp-weighted means scored by a pairwise form.

The oracle everywhere is the generic expansion of (outer row, node) pairs:
the same term under a copy of the registry whose functions carry no
pairwise form, so the evaluator has nothing to take the fast path with.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

import aggterm.evaluate as evaluate
from aggterm.architectures import (ArchConfig, compile_architecture,
                                   init_weights)
from aggterm.errors import ConfigError, EvaluationError
from aggterm.evaluate import (attention_reduce, eval_closed, eval_nodewise,
                              wmean_reduce)
from aggterm.graphs import (DenseSchedule, ErModel, Uniform01,
                            attach_features, sample_graph)
from aggterm.harness import SweepConfig, run_sweep, write_report_csv
from aggterm.parser import parse_term
from aggterm.registry import FunctionRegistry, default_registry
from conftest import path_graph, rand_graph

REG = default_registry()


def without_pairwise(reg):
    """A copy of reg whose entries carry no pairwise form."""
    out = FunctionRegistry()
    for name in reg.names():
        e = reg.entry(name)
        out.register(name, e.arity, e.fn, positive=e.positive)
    return out


ORACLE = without_pairwise(REG)


@pytest.fixture
def spy(monkeypatch):
    """Counts registry calls by name: plain calls and pairwise forms."""
    calls, pairs = Counter(), Counter()
    call, call_pairwise = FunctionRegistry.call, FunctionRegistry.call_pairwise

    def counted_call(self, name, args):
        calls[name] += 1
        return call(self, name, args)

    def counted_pairwise(self, name, x, y):
        pairs[name] += 1
        return call_pairwise(self, name, x, y)

    monkeypatch.setattr(FunctionRegistry, "call", counted_call)
    monkeypatch.setattr(FunctionRegistry, "call_pairwise", counted_pairwise)
    return calls, pairs


def assert_close(fast, slow):
    scale = max(1.0, float(np.max(np.abs(slow))))
    assert np.max(np.abs(fast - slow)) <= 1e-12 * scale


def _random_config(kind, rng, readout):
    layers = int(rng.integers(1, 4))
    kw = dict(kind=kind, layers=layers, hidden=int(rng.integers(3, 9)),
              classes=int(rng.integers(2, 5)), in_dim=int(rng.integers(1, 6)),
              activation="sigmoid" if rng.random() < 0.3 else "relu",
              global_readout=readout)
    if kind == "gps_rw":
        kw["rw_len"] = int(rng.integers(2, 6))
    if layers >= 2 and rng.random() < 0.5:
        kw["skips"] = ((1, layers),)
    return ArchConfig(**kw)


@pytest.mark.parametrize("kind", ["gps", "gps_rw"])
@pytest.mark.parametrize("readout", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_nets_agree_with_expansion(kind, readout, seed, spy):
    rng = np.random.default_rng([seed, readout, kind == "gps_rw"])
    cfg = _random_config(kind, rng, readout)
    cm = compile_architecture(cfg, init_weights(cfg, seed))
    graph = cm.prepare(attach_features(
        sample_graph(ErModel(DenseSchedule(0.2)), int(rng.integers(30, 90)),
                     seed), Uniform01(cfg.in_dim), seed))
    slow_reg = without_pairwise(cm.registry)
    body = cm.term.args[0].args[0].value  # the last layer, pooled over p
    assert_close(eval_nodewise(body, graph, cm.registry),
                 eval_nodewise(body, graph, slow_reg))
    assert_close(eval_closed(cm.term, graph, cm.registry),
                 eval_closed(cm.term, graph, slow_reg))
    assert spy[1]["dot_scaled"] >= 1


HAND_TERMS = [
    "mean[x](wmean[z](H(z), exp, dot_scaled(H(x), H(z))))",
    # the query reads two outer variables
    "mean[x](mean[y in N(x)](wmean[z](relu(H(z)), exp,"
    " dot_scaled(add(H(x), H(y)), hadamard(H(z), H(z))))))",
    "mean[x](mean[y](wmean[z](H(z), exp, dot_scaled(sub(H(x), H(y)), H(z)))))",
    # query and key are aggregates themselves
    "mean[x](wmean[z](H(z), exp, dot_scaled(mean[y in N(x)](H(y)), H(z))))",
    "mean[x](hadamard(H(x), wmean[z](sigmoid(H(z)), exp,"
    " dot_scaled(H(x), mean[w in N(z)](H(w))))))",
    # a value that reads no variable at all
    "mean[x](wmean[z](0.5, exp, dot_scaled(H(x), H(z))))",
    "mean[x](wmean[z](H(z), exp, dot_scaled(H(x), [1, -2])))",
]


@pytest.mark.parametrize("src", HAND_TERMS)
def test_hand_terms_agree_with_expansion(src, spy, monkeypatch):
    # small chunks, so outer rows are split into several score matrices
    monkeypatch.setattr(evaluate, "_CHUNK_ROWS", 64)
    term = parse_term(src, 2, registry=REG)
    for seed in range(3):
        graph = rand_graph(np.random.default_rng(seed), 40, 2)
        fast = eval_closed(term, graph, REG)
        spy[0].clear()
        assert_close(fast, eval_closed(term, graph, ORACLE))
        assert spy[0]["dot_scaled"] >= 1  # the oracle really expanded
    assert spy[1]["dot_scaled"] >= 1


def test_large_scores_are_shifted():
    # scores up to about 2000: exp overflows unless each row is shifted
    rng = np.random.default_rng(4)
    graph = rand_graph(rng, 40, 2)
    graph = graph.with_features(rng.uniform(-40.0, 40.0, size=(graph.n, 2)))
    term = parse_term("mean[x](wmean[z](H(z), exp, dot_scaled(H(x), H(z))))",
                      2, registry=REG)
    assert_close(eval_closed(term, graph, REG),
                 eval_closed(term, graph, ORACLE))


NEAR_MISSES = [
    # a weight map other than exp
    "mean[x](wmean[z](H(z), softplus, dot_scaled(H(x), H(z))))",
    # the value reads an outer variable
    "mean[x](wmean[z](add(H(x), H(z)), exp, dot_scaled(H(x), H(z))))",
    # the score is wrapped
    "mean[x](wmean[z](H(z), exp, add(dot_scaled(H(x), H(z)), 0.5)))",
    # swapped arguments: the query reads the bound variable
    "mean[x](wmean[z](H(z), exp, dot_scaled(H(z), H(x))))",
    # the key reads an outer variable
    "mean[x](wmean[z](H(z), exp, dot_scaled(H(x), add(H(x), H(z)))))",
]


@pytest.mark.parametrize("src", NEAR_MISSES)
def test_near_misses_keep_the_expansion(src, spy):
    term = parse_term(src, 2, registry=REG)
    graph = rand_graph(np.random.default_rng(7), 30, 2)
    out = eval_closed(term, graph, REG)
    assert not spy[1]
    assert spy[0]["dot_scaled"] >= 1
    assert np.array_equal(out, eval_closed(term, graph, ORACLE))


def _same_error(term, graph, reg, slow_reg):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError) as fast:
            eval_closed(term, graph, reg)
        with pytest.raises(EvaluationError) as slow:
            eval_closed(term, graph, slow_reg)
    assert str(fast.value) == str(slow.value)
    return str(fast.value)


def test_nonfinite_score_names_the_path():
    graph = path_graph([[1e200, 1e200], [2e200, 1e200], [1.0, 1.0]])
    term = parse_term("mean[x](wmean[z](H(z), exp, dot_scaled(H(x), H(z))))",
                      2, registry=REG)
    msg = _same_error(term, graph, REG, ORACLE)
    assert msg == "non-finite value in wmean[x] / wmean[z] / dot_scaled"


def test_bad_pairwise_function_names_the_path():
    def score(x, y):  # a dot product, infinite once a query leaves [-5, 5]
        s = np.sum(x * y, axis=-1, keepdims=True)
        s[np.abs(x[:, :1]) > 5] = np.inf
        return np.broadcast_to(s, x.shape)

    def pairwise(x, y):
        s = x @ y.T
        s[np.abs(x[:, 0]) > 5] = np.inf
        return s

    reg = default_registry()
    reg.register("score", 2, score, pairwise=pairwise)
    graph = path_graph([[9.0, 1.0], [0.5, 1.0], [1.0, -1.0]])
    term = parse_term("mean[x](wmean[z](H(z), exp, score(H(x), H(z))))", 2,
                      registry=reg)
    msg = _same_error(term, graph, reg, without_pairwise(reg))
    assert msg == "non-finite value in wmean[x] / wmean[z] / score"


def test_nonfinite_mean_names_the_path():
    graph = path_graph([[0.0], [0.0], [1.0]])
    term = parse_term("mean[x](wmean[z](1e308, exp, dot_scaled(H(x), H(z))))",
                      1, registry=REG)
    msg = _same_error(term, graph, REG, ORACLE)
    assert msg == ("weighted mean under weight map 'exp' is not finite in "
                   "wmean[x] / wmean[z]")


def test_zero_denominator_matches_wmean_reduce():
    # a score row that is all -inf has no finite shift: its weights are NaN,
    # which the denominator check catches in both kernels
    scores = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
    vals = np.array([[1.0], [2.0]])
    path = ("wmean[x]", "wmean[z]")
    with np.errstate(invalid="ignore"):
        with pytest.raises(EvaluationError) as fast:
            attention_reduce(scores, vals, path)
        with pytest.raises(EvaluationError) as slow:
            wmean_reduce(np.tile(vals, (2, 1)), scores.reshape(-1, 1), "exp",
                         REG, np.array([0, 2, 4]), path=path)
    assert str(fast.value) == str(slow.value) == (
        "weight map 'exp' produced a zero or non-finite denominator in "
        "wmean[x] / wmean[z]")


def test_attention_reduce_is_the_segment_mean():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=(5, 7)) * 30
    vals = rng.normal(size=(7, 3))
    seg = np.arange(6) * 7
    slow = wmean_reduce(np.tile(vals, (5, 1)),
                        np.repeat(scores.reshape(-1, 1), 3, axis=1), "exp",
                        REG, seg)
    assert_close(attention_reduce(scores, vals), slow)


def test_pairwise_forms_are_checked_at_registration():
    reg = FunctionRegistry()
    dot = REG.entry("dot_scaled")
    with pytest.raises(ConfigError, match="does not match"):
        reg.register("unscaled", 2, dot.fn, pairwise=lambda x, y: x @ y.T)
    with pytest.raises(ConfigError, match="does not match"):
        reg.register("wide", 2, dot.fn, pairwise=lambda x, y: x @ x.T)
    with pytest.raises(ConfigError, match="two-argument"):
        reg.register("unary", 1, np.exp, pairwise=dot.pairwise)
    # right on the four-key sample inputs, cut short on more keys
    reg.register("cut", 2, dot.fn,
                 pairwise=lambda x, y: dot.pairwise(x, y)[:, :4])
    assert reg.call_pairwise("cut", np.ones((2, 3)), np.ones((4, 3))).shape \
        == (2, 4)
    with pytest.raises(EvaluationError, match=r"shape \(2, 4\), expected"):
        reg.call_pairwise("cut", np.ones((2, 3)), np.ones((6, 3)))


def _gps(layers, in_dim=4):
    cfg = ArchConfig(kind="gps", layers=layers, hidden=16, classes=3,
                     in_dim=in_dim)
    return compile_architecture(cfg, init_weights(cfg, 0))


def test_gps_never_expands_its_scores(spy):
    cm = _gps(2)
    graph = cm.prepare(attach_features(
        sample_graph(ErModel(DenseSchedule(0.1)), 400, 1), Uniform01(4), 2))
    eval_closed(cm.term, graph, cm.registry)
    assert "dot_scaled" not in spy[0]
    assert spy[1]["dot_scaled"] >= 2  # one score matrix per layer at least


def test_gps_sweep_bytes_do_not_depend_on_workers(tmp_path):
    digests = []
    for workers in (1, 2):
        rep = run_sweep(SweepConfig(subject=_gps(2, in_dim=2),
                                    model=ErModel(DenseSchedule(0.2)),
                                    feature_dist=Uniform01(2),
                                    sizes=(60, 150), samples=3, seed=11,
                                    workers=workers))
        path = tmp_path / f"w{workers}.csv"
        write_report_csv(rep, str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
