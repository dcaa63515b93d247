"""Dense-model limit predictions against closed-form integrals."""

import math

import numpy as np
import pytest
from scipy import integrate

from aggterm.dense_limit import DenseController, dense_controller, dense_limit_p
from aggterm.errors import ConfigError, UnsupportedTermError
from aggterm.graphs import (BaModel, BernoulliFeatures, DenseSchedule, ErModel,
                            LogSchedule, PaddedFeatures, RootSchedule,
                            SbmModel, SparseSchedule, Uniform01, UniformRange)
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
    assert dense_limit_p(ErModel(RootSchedule(0.5, 0.0))) == 0.5
    assert dense_limit_p(ErModel(RootSchedule(0.5, -0.5))) == 1.0
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


@pytest.mark.parametrize("features, why", [
    ({"x": [0.1, 0.2]}, "missing features"),
    (np.zeros((3, 2)), r"must be \(2, 2\)"),
    ({"x": [0.1], "y": [0.1, 0.2]}, "must have length 2"),
    ([[0.1, np.nan], [0.1, 0.2]], "non-finite"),
], ids=["missing", "shape", "length", "nan"])
def test_controller_refuses_bad_features(features, why):
    ctrl = dense_controller(t("add(H(x), H(y))", d=2), ER01, Uniform01(2),
                            1000, 10)
    assert ctrl({"x": [0.1, 0.2], "y": [0.3, 0.4]}).estimate == \
        pytest.approx([0.4, 0.6])
    with pytest.raises(ConfigError, match=why):
        ctrl(features)


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
    # one pass draws the 1000-row pool of mean[x] once and, its body reading
    # no per-run value, evaluates it once: 1000 outer samples * 8 inner rows
    # for mean[y]. The blocks' means take slices of the same rows
    assert sum(rows) == 1000 + 8000
    # the same estimate with the value repeated as a weight the map reads
    # (exp of 0 * body is 1 everywhere), where both are evaluated
    rows.clear()
    weighted = t("wmean[x](mean[y](hadamard(H(x), H(y))), exp, "
                 "hadamard(0, mean[y](hadamard(H(x), H(y)))))")
    ref = dense_controller(weighted, ER01, Uniform01(1), 1000, 14,
                           inner_mc=8)
    # as above, with the inner rows drawn for the value and the weight
    assert sum(rows) == 1000 + 2 * 8000
    assert np.array_equal(got.estimate, ref.estimate)


def test_inner_draw_streams_are_distinct(monkeypatch):
    # a depth-2 nested aggregate runs once per chunk of its depth-1 parent
    # (10000 outer rows are three chunks at inner_mc=64); each chunk needs
    # its own inner draws
    import aggterm.mc as mc
    keys = []

    def recording(*key):
        keys.append(key)
        return stream(*key)

    stream = mc.stream
    monkeypatch.setattr(mc, "stream", recording)
    term = t("mean[x](wmean[y](wmean[z](H(z), exp, hadamard(H(y), H(z))), "
             "exp, hadamard(H(x), H(y))))")
    dense_controller(term, ER01, Uniform01(1), 10000, 3, inner_mc=64)
    assert len(set(keys)) == len(keys)


def test_gcn_rejected():
    with pytest.raises(UnsupportedTermError):
        dense_controller(t("mean[v](gcn[u in N(v)](H(u)))"), ER01,
                         Uniform01(1), 100, 13)


def test_sparse_model_rejected():
    with pytest.raises(ConfigError):
        dense_controller(t("mean[v](H(v))"), ErModel(SparseSchedule(1.0)),
                         Uniform01(1), 100, 14)


@pytest.mark.parametrize("sched", [
    RootSchedule(1.0, 1.0), RootSchedule(1.0, 1.5), RootSchedule(0.0, 0.5),
    DenseSchedule(0.0), LogSchedule(0.0)])
def test_non_densifying_schedule_rejected(sched):
    # n p(n) stays bounded, so the isolated fraction does not vanish (0.388
    # and 0.981 on n = 4000 graphs for the first two) and a dense
    # prediction of 0 would be wrong
    with pytest.raises(ConfigError, match="not densifying"):
        dense_controller(t("mean[u](sub(1, mean[v in N(u)](1)))"),
                         ErModel(sched), Uniform01(1), 100, 16)


def test_sbm_with_an_empty_block_rejected():
    # block 1 never gains an edge: half the nodes of every sample stay
    # isolated (0.5 on n = 2000 graphs), where a dense prediction says 0
    model = SbmModel((0.5, 0.5), ((0.5, 0.0), (0.0, 0.0)))
    with pytest.raises(ConfigError, match="block 1 of"):
        dense_controller(t("mean[u](sub(1, mean[v in N(u)](1)))"), model,
                         Uniform01(1), 100, 17)
    # a zero diagonal alone still densifies, through the other block
    assert dense_limit_p(SbmModel((0.5, 0.5), ((0.0, 0.5), (0.5, 0.0)))) is None


def test_tiny_mc_rejected():
    with pytest.raises(ConfigError):
        dense_controller(t("mean[v](H(v))"), ER01, Uniform01(1), 1, 15)


def test_open_term_top_aggregate_averages_every_draw():
    # the top-level aggregate reads the free variable, so its one outer
    # sample gets all 30000 draws of the run, not inner_mc of them:
    # stderr sqrt(1/12 / 30000) for a mean of uniform draws
    ctrl = dense_controller(t("mean[y](add(H(x), H(y)))"), ER01,
                            Uniform01(1), 30000, 11)
    v = ctrl({"x": np.array([0.2])})
    err = float(v.stderr[0])
    assert abs(err / math.sqrt(1.0 / 12.0 / 30000) - 1.0) < 0.3
    assert abs(float(v.estimate[0]) - 0.7) <= 4 * err


def test_neighbourhood_aggregate_takes_the_global_path():
    # in the dense limit a neighbor is a fresh draw, as a globally bound
    # node is, so the two terms share every draw and every number
    local = dense_controller(t("mean[x](wmean[y in N(x)](H(y), exp, H(x)))"),
                             ER01, Uniform01(1), 2000, 18)
    glob = dense_controller(t("mean[x](wmean[y](H(y), exp, H(x)))"), ER01,
                            Uniform01(1), 2000, 18)
    assert np.array_equal(local.estimate, glob.estimate)
    assert np.array_equal(local.stderr, glob.stderr)
    assert local.truncated_mass is None and glob.truncated_mass is None


# bytes of collapsed estimates and stderrs at 10000 draws, seed 8: a lone
# root's sample-major pool stream is the node-major one, so reading each
# block's draws from its own skipped-to stream changes no bit
PINNED = [
    ("wmean[v](H(v), exp)", Uniform01(1),
     ["0x1.28f86c0f3430ep-1"], ["0x1.25cc5b35f4b28p-9"]),
    ("mean[v](relu(sub(hadamard(2, H(v)), 1)))", Uniform01(1),
     ["0x1.fb2d1ccf34792p-3"], ["0x1.0de94057a2c50p-9"]),
    ("mean[v](H(v))", PaddedFeatures(Uniform01(2), 3),
     ["0x1.02a966d1128afp-1", "0x1.ff0567394031fp-2", "0x0.0p+0"],
     ["0x1.0248b868054c7p-8", "0x1.1f488abb15889p-9", "0x0.0p+0"]),
    ("wmean[v](H(v), softplus)", UniformRange(-1.0, 2.0, 2),
     ["0x1.e1bfbf6d5b1f0p-1", "0x1.df4804a4d4a47p-1"],
     ["0x1.4d940eea87cbcp-7", "0x1.5233d546924d3p-8"]),
]


@pytest.mark.parametrize("src,dist,est,err", PINNED)
def test_collapsed_estimates_are_pinned(src, dist, est, err):
    v = dense_controller(t(src, d=dist.dim), ER01, dist, 10000, 8)
    assert [x.hex() for x in v.estimate.tolist()] == est
    assert [x.hex() for x in v.stderr.tolist()] == err
