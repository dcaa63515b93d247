"""Dense-model limit predictions against closed-form integrals."""

import math

import numpy as np
import pytest
from scipy import integrate

from aggterm.dense_limit import DenseController, dense_controller, dense_limit_p
from aggterm.errors import ConfigError, UnsupportedTermError
from aggterm.graphs import (BaModel, BernoulliFeatures, DenseSchedule, ErModel,
                            LogSchedule, RootSchedule, SbmModel,
                            SparseSchedule, Uniform01)
from aggterm.parser import parse_term
from aggterm.registry import default_registry

REG = default_registry()
ER01 = ErModel(DenseSchedule(0.1))


def t(src, d=1):
    return parse_term(src, d, registry=REG)


def within(value, target, floor=0.005):
    tol = max(floor, 4.0 * float(np.max(value.stderr)))
    return abs(float(value.estimate[0]) - target) < tol


def test_limit_p_values():
    assert dense_limit_p(ErModel(DenseSchedule(0.3))) == 0.3
    assert dense_limit_p(ErModel(RootSchedule(2.0, 0.5))) == 0.0
    assert dense_limit_p(ErModel(LogSchedule(1.0))) == 0.0
    assert dense_limit_p(SbmModel((1.0,), ((0.2,),))) is None
    with pytest.raises(ConfigError):
        dense_limit_p(ErModel(SparseSchedule(1.0)))
    with pytest.raises(ConfigError):
        dense_limit_p(BaModel(2))


def test_global_mean_of_uniform():
    v = dense_controller(t("mean[v](H(v))"), ER01, Uniform01(1), 30000, 1)
    assert within(v, 0.5)


def test_relu_integral():
    term = t("mean[v](relu(sub(hadamard(2, H(v)), 1)))")
    v = dense_controller(term, ER01, Uniform01(1), 30000, 2)
    assert within(v, 0.25)


def test_exp_weighted_mean():
    v = dense_controller(t("wmean[v](H(v), exp)"), ER01, Uniform01(1),
                         30000, 3)
    assert within(v, 1.0 / (math.e - 1.0))


def test_matches_quadrature_on_sigmoid():
    # E[u * sigmoid(u)] / E[sigmoid(u)] over U[0,1], via scipy quadrature
    num, _ = integrate.quad(lambda u: u / (1 + math.exp(-u)), 0, 1)
    den, _ = integrate.quad(lambda u: 1 / (1 + math.exp(-u)), 0, 1)
    reg = default_registry()
    reg.register("sigmoid_pos", 1, lambda x: 1.0 / (1.0 + np.exp(-x)),
                 positive=True)
    term = parse_term("wmean[v](H(v), sigmoid_pos)", 1, registry=reg)
    v = dense_controller(term, ER01, Uniform01(1), 40000, 4, registry=reg)
    assert within(v, num / den)


def test_local_and_global_agree_for_iid_features():
    # with i.i.d. features the local mean has the same limit as the global
    g = dense_controller(t("mean[v](mean[u in N(v)](H(u)))"), ER01,
                         Uniform01(1), 30000, 5)
    assert within(g, 0.5, floor=0.01)


def test_rw_vanishes():
    v = dense_controller(t("mean[v](rw(v, 3))", d=3), ER01, Uniform01(3),
                         5000, 6)
    assert np.allclose(v.estimate, 0.0)


def test_bernoulli_features():
    v = dense_controller(t("mean[v](H(v))"), ER01, BernoulliFeatures(0.3, 2),
                         40000, 7)
    assert np.all(np.abs(v.estimate - 0.3) < np.maximum(0.01, 4 * v.stderr))


def test_stderr_shrinks_with_samples():
    small = dense_controller(t("wmean[v](H(v), exp)"), ER01, Uniform01(1),
                             10000, 8)
    large = dense_controller(t("wmean[v](H(v), exp)"), ER01, Uniform01(1),
                             40000, 8)
    ratio = float(large.stderr[0] / small.stderr[0])
    assert 0.5 * 0.7 < ratio < 0.5 * 1.45
    combined = 4 * math.hypot(float(small.stderr[0]), float(large.stderr[0]))
    assert abs(float(small.estimate[0] - large.estimate[0])) < combined


def test_deterministic_per_seed():
    a = dense_controller(t("wmean[v](H(v), softplus)"), ER01, Uniform01(1),
                         5000, 9)
    b = dense_controller(t("wmean[v](H(v), softplus)"), ER01, Uniform01(1),
                         5000, 9)
    assert np.array_equal(a.estimate, b.estimate)
    assert np.array_equal(a.stderr, b.stderr)


def test_open_term_returns_controller():
    ctrl = dense_controller(t("relu(sub(H(x), 0.3))"), ER01, Uniform01(1),
                            1000, 10)
    assert isinstance(ctrl, DenseController)
    assert ctrl.variables == ("x",)
    v = ctrl(np.array([0.7]))
    assert v.estimate[0] == pytest.approx(0.4)
    assert v.stderr[0] == 0.0


def test_open_term_with_aggregate():
    # e[x -> wmean[y](add(H(x), H(y)), one)] = a + 1/2
    ctrl = dense_controller(t("mean[y](add(H(x), H(y)))"), ER01,
                            Uniform01(1), 30000, 11)
    v = ctrl({"x": np.array([0.2])})
    assert abs(float(v.estimate[0]) - 0.7) < max(0.005, 4 * float(v.stderr[0]))


def test_weight_argument_skipped_under_one(monkeypatch):
    # mean[...] sugar repeats the value as an unread weight argument; its
    # nested aggregate's inner draws must not be made a second time
    import aggterm.dense_limit as dl
    rows = []

    def counting(dist, count, rng):
        rows.append(count)
        return draw(dist, count, rng)

    draw = dl.draw_features
    monkeypatch.setattr(dl, "draw_features", counting)
    term = t("mean[x](mean[y](hadamard(H(x), H(y))))")
    got = dense_controller(term, ER01, Uniform01(1), 1000, 14, inner_mc=8)
    assert sum(rows) == 17000
    # the same estimate with the value repeated as a weight the map reads
    # (exp of 0 * body is 1 everywhere), where both are evaluated
    rows.clear()
    weighted = t("wmean[x](mean[y](hadamard(H(x), H(y))), exp, "
                 "hadamard(0, mean[y](hadamard(H(x), H(y)))))")
    ref = dense_controller(weighted, ER01, Uniform01(1), 1000, 14,
                           inner_mc=8)
    assert sum(rows) == 33000
    assert np.array_equal(got.estimate, ref.estimate)


def test_gcn_rejected():
    with pytest.raises(UnsupportedTermError):
        dense_controller(t("mean[v](gcn[u in N(v)](H(u)))"), ER01,
                         Uniform01(1), 100, 13)


def test_sparse_model_rejected():
    with pytest.raises(ConfigError):
        dense_controller(t("mean[v](H(v))"), ErModel(SparseSchedule(1.0)),
                         Uniform01(1), 100, 14)


def test_tiny_mc_rejected():
    with pytest.raises(ConfigError):
        dense_controller(t("mean[v](H(v))"), ER01, Uniform01(1), 1, 15)
