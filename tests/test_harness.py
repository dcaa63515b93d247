"""Sweep runner, report files, divergence demo, and the SVG plot."""

import hashlib
import math

import numpy as np
import pytest

from aggterm.architectures import (ArchConfig, compile_architecture,
                                   init_weights)
from aggterm.errors import ConfigError, EvaluationError
from aggterm.graphs import (AlternatingSchedule, BaModel, DenseSchedule,
                            ErModel, SparseSchedule, Uniform01)
from aggterm.harness import (SweepConfig, diverge_demo, read_report_csv,
                             run_sweep, summarize_outputs, write_plot_svg,
                             write_report_csv, write_summary_csv)
from aggterm.parser import parse_term
from aggterm.registry import FunctionRegistry, default_registry

REG = default_registry()
ISO = parse_term("mean[u](sub(1, mean[v in N(u)](1)))", 1, registry=REG)
ALT = AlternatingSchedule(DenseSchedule(0.5), SparseSchedule(1.0))


def t(src, d=1):
    return parse_term(src, d, registry=REG)


def small_sweep(**kw):
    args = dict(subject=t("mean[v](H(v))"), model=ErModel(DenseSchedule(0.3)),
                feature_dist=Uniform01(1), sizes=(20, 40), samples=3, seed=9)
    args.update(kw)
    return SweepConfig(**args)


def test_constant_term_is_exact():
    rep = run_sweep(small_sweep(subject=t("[0.25, 0.75]", d=2),
                                feature_dist=Uniform01(2),
                                limit=np.array([0.25, 0.75])))
    assert rep.outputs.shape == (2, 3, 2)
    assert np.all(rep.outputs[..., 0] == 0.25)
    assert np.all(rep.outputs[..., 1] == 0.75)
    for s in rep.summary:
        assert np.all(s.std == 0.0)
        assert s.dist_to_limit == 0.0


def test_summary_matches_recompute():
    rep = run_sweep(small_sweep(limit=np.array([0.5])))
    redo = summarize_outputs(rep.sizes, rep.outputs, rep.limit)
    for a, b in zip(rep.summary, redo):
        assert a.size == b.size
        assert np.allclose(a.mean, b.mean, atol=1e-12)
        assert np.allclose(a.std, b.std, atol=1e-12)
        assert abs(a.dist_to_limit - b.dist_to_limit) < 1e-12


def test_dist_to_limit_is_mean_euclidean():
    outputs = np.array([[[0.0, 0.0], [1.0, 1.0]]])  # one size, two samples
    limit = np.array([0.0, 1.0])
    (s,) = summarize_outputs((10,), outputs, limit)
    assert abs(s.dist_to_limit - (1.0 + 1.0) / 2) < 1e-12
    # std here is the population spread per coordinate
    assert np.allclose(s.std, [0.5, 0.5])


def test_worker_count_does_not_change_bytes(tmp_path):
    digests = []
    for workers in (1, 4, 8):
        rep = run_sweep(small_sweep(workers=workers))
        path = tmp_path / f"w{workers}.csv"
        write_report_csv(rep, str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1] == digests[2]


def test_report_csv_round_trip(tmp_path):
    rep = run_sweep(small_sweep(subject=t("mean[v](H(v))", d=3),
                                feature_dist=Uniform01(3)))
    path = str(tmp_path / "rep.csv")
    write_report_csv(rep, path)
    sizes, outputs = read_report_csv(path)
    assert sizes == rep.sizes
    assert np.array_equal(outputs, rep.outputs)


ROWS_HEADER = "size,sample,out_0,out_1\n"
BROKEN_ROW_CSVS = {
    # the grid is every (size, sample) pair: (20, 1) is missing
    "missing_row": "20,0,0.5,0.5\n40,0,0.5,0.5\n40,1,0.5,0.5\n",
    "duplicate_row": "20,0,0.5,0.5\n20,0,0.25,0.25\n",
    "narrow_row": "20,0,0.5,0.5\n40,0,0.5\n",
    "wide_row": "20,0,0.5,0.5\n40,0,0.5,0.5,0.5\n",
    "non_numeric_cell": "20,0,0.5,abc\n",
    "non_numeric_size": "x,0,0.5,0.5\n",
    "negative_sample": "20,-1,0.5,0.5\n20,0,0.5,0.5\n",
    "no_rows": "",
}


@pytest.mark.parametrize("body", list(BROKEN_ROW_CSVS.values()),
                         ids=list(BROKEN_ROW_CSVS))
def test_read_report_csv_refuses_broken_files(tmp_path, body):
    # each used to come back as uninitialized entries, a silently kept last
    # row, a ragged row, or a bare ValueError
    path = tmp_path / "rows.csv"
    path.write_text(ROWS_HEADER + body)
    with pytest.raises(ConfigError):
        read_report_csv(str(path))


@pytest.mark.parametrize("limit", [[np.nan], [np.inf], [0.5, -np.inf]])
def test_limit_must_be_finite(limit):
    # a NaN limit used to run the whole sweep and report NaN distances
    with pytest.raises(ConfigError, match="finite"):
        small_sweep(limit=np.array(limit))


def test_summary_csv_format(tmp_path):
    rep = run_sweep(small_sweep(limit=np.array([0.5])))
    path = tmp_path / "sum.csv"
    write_summary_csv(rep, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "size,dim,mean,std,dist_to_limit"
    assert len(lines) == 1 + 2  # one row per size per dim
    first = lines[1].split(",")
    assert first[0] == "20" and first[1] == "0"
    assert abs(float(first[2]) - float(rep.summary[0].mean[0])) < 1e-15


def test_compiled_model_subject():
    cfg = ArchConfig(kind="mean", layers=1, hidden=4, classes=3, in_dim=2)

    def sweep(weight_seed):
        model = compile_architecture(cfg, init_weights(cfg, weight_seed))
        return run_sweep(SweepConfig(subject=model,
                                     model=ErModel(DenseSchedule(0.3)),
                                     feature_dist=Uniform01(2),
                                     sizes=(15, 30), samples=2, seed=3))

    rep = sweep(5)
    assert rep.outputs.shape == (2, 2, 3)
    sums = rep.outputs.sum(axis=-1)
    assert np.all(np.abs(sums - 1.0) < 1e-9)  # softmax head
    # the hash covers the weights, not just the architecture shape
    assert rep.provenance["config_sha256"] == \
        sweep(5).provenance["config_sha256"]
    assert rep.provenance["config_sha256"] != \
        sweep(6).provenance["config_sha256"]


def test_provenance_tracks_inputs():
    a = run_sweep(small_sweep()).provenance
    b = run_sweep(small_sweep()).provenance
    c = run_sweep(small_sweep(seed=10)).provenance
    assert a == b
    assert a["config_sha256"] != c["config_sha256"]
    assert a["seed"] == 9 and c["seed"] == 10


def test_failures_name_the_item():
    bad = FunctionRegistry()
    bad.register("one", 1, lambda x: np.ones_like(x), positive=True)
    bad.register("boom", 1, lambda x: x * np.inf)
    term = parse_term("mean[v](boom(H(v)))", 1, registry=bad)
    with pytest.raises(EvaluationError, match=r"size=20 sample=0"):
        run_sweep(small_sweep(subject=term, registry=bad))


def test_diverge_demo_parity():
    rep = diverge_demo(ISO, ALT, (400, 401, 800, 801), 6, 11)
    assert rep.parity is not None
    assert float(rep.parity.even_mean[0]) < 0.02
    assert 0.25 < float(rep.parity.odd_mean[0]) < 0.45
    assert rep.parity.gap > 0.2


def test_diverge_swapped_schedule_swaps_parity():
    swapped = AlternatingSchedule(SparseSchedule(1.0), DenseSchedule(0.5))
    rep = diverge_demo(ISO, swapped, (400, 401, 800, 801), 6, 11)
    assert float(rep.parity.odd_mean[0]) < 0.02
    assert 0.25 < float(rep.parity.even_mean[0]) < 0.45


def test_diverge_needs_both_parities():
    with pytest.raises(ConfigError):
        diverge_demo(ISO, ALT, (400, 800), 4, 1)
    with pytest.raises(ConfigError):
        diverge_demo(ISO, DenseSchedule(0.5), (400, 401), 4, 1)


def test_diverge_refuses_fractional_sizes():
    # sizes are not truncated: 200.7 and 301.2 would run 200 and 301
    with pytest.raises(ConfigError, match="size must be an integer"):
        diverge_demo(ISO, ALT, (200.7, 301.2), 2, 1)


def test_plot_svg_structure(tmp_path):
    rep = run_sweep(small_sweep(subject=t("mean[v](H(v))", d=2),
                                feature_dist=Uniform01(2),
                                limit=np.array([0.5, 0.5])))
    path = tmp_path / "plot.svg"
    write_plot_svg(rep, str(path))
    svg = path.read_text()
    assert svg.count("<polyline") == 2
    assert svg.count("<polygon") == 2
    assert svg.count("stroke-dasharray") == 2  # one dashed limit line per dim
    assert "graph size" in svg
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_config_validation():
    with pytest.raises(ConfigError):
        small_sweep(sizes=())
    with pytest.raises(ConfigError):
        small_sweep(sizes=(40, 20))
    with pytest.raises(ConfigError):
        small_sweep(samples=0)
    with pytest.raises(ConfigError):
        small_sweep(workers=0)
    with pytest.raises(ConfigError, match="closed"):
        run_sweep(small_sweep(subject=t("mean[v in N(x)](H(v))")))


@pytest.mark.parametrize("kw", [
    dict(sizes=(200.7, 400.2)), dict(sizes=(20, 40.0)), dict(samples=1.5),
    dict(samples=2.0), dict(workers=1.0)])
def test_counts_must_be_integers(kw):
    # floats were truncated (sizes) or kept as they were (samples, workers)
    with pytest.raises(ConfigError, match="must be an integer"):
        small_sweep(**kw)


def test_numpy_integer_counts_accepted():
    cfg = small_sweep(sizes=np.array([20, 40]), samples=np.int64(2))
    assert cfg.sizes == (20, 40) and type(cfg.samples) is int


def test_limit_width_checked():
    with pytest.raises(ConfigError):
        run_sweep(small_sweep(limit=np.array([0.5, 0.5])))
