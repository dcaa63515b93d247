"""Spec dict round trips and canonical hashing."""

import json

import pytest

from aggterm.architectures import ArchConfig
from aggterm.config import (arch_from_spec, arch_to_spec, canonical_json,
                            features_from_spec, features_to_spec,
                            model_from_spec, model_to_spec,
                            schedule_from_spec, schedule_to_spec, spec_digest)
from aggterm.errors import ConfigError
from aggterm.graphs import (AlternatingSchedule, BaModel, BernoulliFeatures,
                            ConstantFeatures, DenseSchedule, ErModel,
                            LogSchedule, PaddedFeatures, RootSchedule,
                            SbmModel, SparseSchedule, Uniform01, UniformRange)

SCHEDULES = [
    DenseSchedule(0.1),
    RootSchedule(2.0, 0.5),
    LogSchedule(1.5),
    SparseSchedule(1.0),
    AlternatingSchedule(DenseSchedule(0.5), SparseSchedule(1.0)),
]

MODELS = [
    ErModel(DenseSchedule(0.2)),
    ErModel(AlternatingSchedule(DenseSchedule(0.5), SparseSchedule(1.0))),
    SbmModel((0.3, 0.7), ((0.5, 0.1), (0.1, 0.4))),
    BaModel(5),
]

FEATURES = [
    Uniform01(3),
    UniformRange(-1.0, 2.0, 2),
    BernoulliFeatures(0.3, 4),
    ConstantFeatures(0.7, 1),
    PaddedFeatures(Uniform01(2), 6),
]

ARCHES = [
    ArchConfig(kind="mean", layers=3, hidden=16, classes=5, in_dim=4),
    ArchConfig(kind="gcn", layers=2, hidden=8, classes=3, in_dim=8,
               activation="sigmoid"),
    ArchConfig(kind="gat", layers=1, hidden=6, classes=2, in_dim=6),
    ArchConfig(kind="gps", layers=2, hidden=8, classes=4, in_dim=8,
               skips=((1, 2),), global_readout=True),
    ArchConfig(kind="gps_rw", layers=2, hidden=8, classes=4, in_dim=8,
               rw_len=4),
]


@pytest.mark.parametrize("sched", SCHEDULES)
def test_schedule_round_trip(sched):
    spec = schedule_to_spec(sched)
    json.dumps(spec)  # must be JSON-serializable as-is
    assert schedule_from_spec(spec) == sched


@pytest.mark.parametrize("model", MODELS)
def test_model_round_trip(model):
    spec = model_to_spec(model)
    json.dumps(spec)
    assert model_from_spec(spec) == model


@pytest.mark.parametrize("dist", FEATURES)
def test_features_round_trip(dist):
    spec = features_to_spec(dist)
    json.dumps(spec)
    assert features_from_spec(spec) == dist


@pytest.mark.parametrize("cfg", ARCHES)
def test_arch_round_trip(cfg):
    spec = arch_to_spec(cfg)
    json.dumps(spec)
    assert arch_from_spec(spec) == cfg


def test_arch_defaults_fill_in():
    cfg = arch_from_spec({"kind": "mean", "layers": 1, "hidden": 4,
                          "classes": 2, "in_dim": 4})
    assert cfg.activation == "relu"
    assert cfg.skips == ()
    assert cfg.global_readout is False
    assert cfg.rw_len is None


def test_canonical_json_is_key_sorted():
    assert canonical_json({"b": 1, "a": [2, {"z": 0, "y": 1}]}) == \
        '{"a":[2,{"y":1,"z":0}],"b":1}'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_spec_digest_stability():
    spec = model_to_spec(MODELS[2])
    assert spec_digest(spec) == spec_digest(model_to_spec(MODELS[2]))
    assert spec_digest(spec) != spec_digest(model_to_spec(MODELS[3]))
    assert len(spec_digest(spec)) == 64


def test_digest_ignores_key_order():
    assert spec_digest({"a": 1, "b": 2}) == spec_digest({"b": 2, "a": 1})


def test_missing_key_rejected():
    with pytest.raises(ConfigError, match="missing"):
        schedule_from_spec({"kind": "dense"})
    with pytest.raises(ConfigError, match="missing"):
        model_from_spec({"family": "er"})


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="unknown schedule"):
        schedule_from_spec({"kind": "cubic", "p": 0.1})
    with pytest.raises(ConfigError, match="unknown model"):
        model_from_spec({"family": "grid"})
    with pytest.raises(ConfigError, match="unknown feature"):
        features_from_spec({"kind": "gaussian", "dim": 1})


def test_extra_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        schedule_from_spec({"kind": "dense", "p": 0.1, "q": 0.2})
    with pytest.raises(ConfigError, match="unknown"):
        arch_from_spec({"kind": "mean", "layers": 1, "hidden": 4,
                        "classes": 2, "in_dim": 4, "dropout": 0.5})


def test_non_object_rejected():
    with pytest.raises(ConfigError):
        schedule_from_spec(["dense", 0.1])


ARCH = {"kind": "mean", "layers": 2, "hidden": 4, "classes": 2, "in_dim": 4}


@pytest.mark.parametrize("read, spec, message", [
    (schedule_from_spec, {"kind": "dense", "p": True}, "field 'p'"),
    (schedule_from_spec, {"kind": "dense", "p": float("nan")}, "field 'p'"),
    (schedule_from_spec, {"kind": ["dense"], "p": 0.1}, "unknown schedule"),
    (model_from_spec, {"family": "er", "schedule": {
        "kind": "alternating", "even": {"kind": "dense", "p": "x"},
        "odd": {"kind": "sparse", "k": 1.0}}}, "field 'p'"),
    (model_from_spec, {"family": "sbm", "fractions": 0.5,
                       "p": [[0.1]]}, "field 'fractions'"),
    (arch_from_spec, {**ARCH, "skips": [[0, 1, 2]]}, "field 'skips'"),
    (arch_from_spec, {**ARCH, "activation": 1}, "field 'activation'"),
    (schedule_from_spec, {"kind": "dense", "p": 1.5}, r"\[0, 1\]"),
    (schedule_from_spec, {"kind": "root", "k": -1.0, "beta": 0.5}, "rate"),
    (features_from_spec, {"kind": "uniform01", "dim": 0}, "dimension"),
    (features_from_spec, {"kind": "uniform", "a": 2.0, "b": 1.0, "dim": 1},
     "a <= b"),
    (features_from_spec, {"kind": "bernoulli", "q": 1.5, "dim": 1},
     r"\[0, 1\]"),
    (features_from_spec, {"kind": "padded", "dim": 2,
                          "base": {"kind": "uniform01", "dim": 3}}, "pad"),
])
def test_bad_values_rejected(read, spec, message):
    with pytest.raises(ConfigError, match=message):
        read(spec)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: RootSchedule(5.0, NAN),
    lambda: RootSchedule(5.0, INF),
    lambda: SbmModel((NAN, 1.0), ((0.5, 0.1), (0.1, 0.4))),
    lambda: BaModel(2.7),
    lambda: Uniform01(2.5),
    lambda: UniformRange(NAN, 1.0, 2),
    lambda: UniformRange(0.0, INF, 2),
    lambda: ConstantFeatures(INF, 2),
    lambda: ConstantFeatures(NAN, 2),
    lambda: ArchConfig("mean", 2.5, 4, 2, 3),
    lambda: ArchConfig("mean", 2, 4.5, 2, 3),
    lambda: ArchConfig("mean", 2, 4, 2.5, 3),
    lambda: ArchConfig("mean", 2, 4, 2, 3.5),
    lambda: ArchConfig("gps_rw", 2, 4, 2, 3, rw_len=2.5),
    lambda: ArchConfig("mean", 2, 4, 2, 4, skips=((0.5, 1.7),)),
], ids=["root beta nan", "root beta inf", "sbm fraction nan", "ba m float",
        "uniform01 dim float", "uniform a nan", "uniform b inf",
        "constant c inf", "constant c nan", "arch layers float",
        "arch hidden float", "arch classes float", "arch in_dim float",
        "arch rw_len float", "arch skips float"])
def test_python_specs_refuse_what_the_codec_refuses(build):
    # the JSON codec turns each of these values away; built in Python they
    # used to construct and fail later, or be cast silently
    with pytest.raises(ConfigError):
        build()


def test_optional_field_takes_null():
    assert arch_from_spec({**ARCH, "rw_len": None}) == ArchConfig(**ARCH)
