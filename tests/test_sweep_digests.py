"""sha256 of the files the sweep path writes, pinned.

The row CSV, summary CSV and SVG of a term subject and of gat-2L and
gps_rw-2L subjects, at one and two workers, and the divergence demo's
three files. The digests were recorded before the sweep item's graph draw
(harness.sweep_graph), the compiled subject's run (CompiledModel.run) and
the text writer (harness.write_lines) each moved into one place.
"""

import hashlib

import numpy as np
import pytest

from aggterm.architectures import ArchConfig, compile_architecture, init_weights
from aggterm.graphs import (AlternatingSchedule, DenseSchedule, ErModel,
                            SparseSchedule, Uniform01)
from aggterm.harness import (SweepConfig, diverge_demo, run_sweep,
                             write_plot_svg, write_report_csv,
                             write_summary_csv)
from aggterm.parser import parse_term
from aggterm.registry import default_registry

ER01 = ErModel(DenseSchedule(0.1))


def _arch(kind, **kw):
    cfg = ArchConfig(kind, 2, 8, 3, 3, **kw)
    return compile_architecture(cfg, init_weights(cfg, 1))


def _files(report, tmp_path):
    digests = []
    for name, write in (("rows.csv", write_report_csv),
                        ("summary.csv", write_summary_csv),
                        ("plot.svg", write_plot_svg)):
        path = tmp_path / name
        write(report, str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    return digests


# (rows, summary, plot) per subject
SWEEP_SHA256 = {
    "wmean_exp": (
        "a4b8d679dc9c0bcc90e63e65b88f6bd1d27603a4edc5e9c3fbe1024a5a0ef297",
        "2b09632eab7d9371501e62d6d788dede460adbc9939d64e9a5c5feb2d435d174",
        "fed18bbf239116c56279354e56bd594e6a87b2edf76d1689b3efd692c0fff0f7"),
    "gat2": (
        "e1cbe5a3908065a0e45e74912138bb01d20df5ccea246ac5ca0f8d2e4c008f75",
        "27ec4a9a15e3f34f5fd86c0d4331b8887b3d835b69e58dec71049ac40005c84d",
        "acb0b9c6f0937fe64aecfa66f9f03762e22aedff741fd68dd3838c10fa91a934"),
    "gps_rw2": (
        "7b8574d50d8a061d52c99aac709a996c12563ee45c048b6071e7c1dcaafa26b9",
        "70a4bd021bcaf90ee04559997038044f54b329ce60199ef65025ff05d6231294",
        "3bc955a15ea7ba89bc621a63374d2c427e1bc02baaa85660d58219ac381bd647"),
}

DIVERGE_SHA256 = (
    "3ac600a024497997e48953f80706254edf2c08f49edad5aa7648bbaa6c9e70eb",
    "b7bbd0e59895306835ea5350fb11abd1fc7d69851f877411a309267e2b74ed32",
    "d2d25e497a1ee7886d8671d07a611cdc39d9d588e216820fef82138b3e6878b5")


def _subject(name):
    if name == "wmean_exp":
        reg = default_registry()
        term = parse_term("wmean[v](H(v), exp)", 1, registry=reg)
        return dict(subject=term, registry=reg, feature_dist=Uniform01(1),
                    limit=np.array([0.582]))
    if name == "gat2":
        return dict(subject=_arch("gat"), feature_dist=Uniform01(3))
    return dict(subject=_arch("gps_rw", rw_len=3), feature_dist=Uniform01(3))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(SWEEP_SHA256))
def test_sweep_files_are_pinned(name, workers, tmp_path):
    report = run_sweep(SweepConfig(model=ER01, sizes=(60, 120), samples=3,
                                   seed=5, workers=workers, **_subject(name)))
    assert tuple(_files(report, tmp_path)) == SWEEP_SHA256[name]


def test_diverge_files_are_pinned(tmp_path):
    reg = default_registry()
    iso = parse_term("mean[u](sub(1, mean[v in N(u)](1)))", 1, registry=reg)
    alt = AlternatingSchedule(DenseSchedule(0.5), SparseSchedule(1.0))
    report = diverge_demo(iso, alt, (200, 201, 400, 401), 3, 3, registry=reg)
    assert tuple(_files(report, tmp_path)) == DIVERGE_SHA256
