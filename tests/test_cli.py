"""End-to-end command line runs, in process, against temp files."""

import hashlib
import json
import math

import pytest

from aggterm.cli import main
from aggterm.graphs import read_graph, write_graph


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        p = tmp_path / name
        if isinstance(content, dict):
            p.write_text(json.dumps(content))
        else:
            p.write_text(content)
        return str(p)

    return {
        "dense": write("dense.json",
                       {"family": "er",
                        "schedule": {"kind": "dense", "p": 0.2}}),
        "sparse": write("sparse.json",
                        {"family": "er",
                         "schedule": {"kind": "sparse", "k": 1.0}}),
        "alt": write("alt.json",
                     {"family": "er",
                      "schedule": {"kind": "alternating",
                                   "even": {"kind": "dense", "p": 0.5},
                                   "odd": {"kind": "sparse", "k": 1.0}}}),
        "feat2": write("feat2.json", {"kind": "uniform01", "dim": 2}),
        "mean_term": write("mean.term", "mean[v](H(v))\n"),
        "iso_term": write("iso.term",
                          "mean[u](sub(1, mean[v in N(u)](1)))\n"),
        "arch": write("arch.json",
                      {"kind": "mean", "layers": 1, "hidden": 4,
                       "classes": 3, "in_dim": 2, "seed": 7}),
        "dir": tmp_path,
    }


def test_gen_writes_readable_graph(files, capsys):
    out = str(files["dir"] / "g.graph")
    assert main(["gen", "--model", files["dense"], "--size", "30",
                 "--seed", "4", "--features", files["feat2"],
                 "--out", out]) == 0
    g = read_graph(out)
    assert g.n == 30
    assert g.features.shape == (30, 2)
    assert "n=30" in capsys.readouterr().out


# sha256 of the file gen writes, recorded before gen drew its graph through
# harness.sweep_graph
GEN_SHA256 = "b246d013da731eca804104f017ec5cfff07a67096080824c9563470d4183d42b"


def test_gen_file_is_pinned(files):
    out = files["dir"] / "g.graph"
    assert main(["gen", "--model", files["dense"], "--size", "40",
                 "--seed", "4", "--features", files["feat2"],
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_SHA256


def test_gen_writes_the_sweep_items_graph(files):
    # gen's graph is sample 0 of a sweep at the same size and seed
    from aggterm import config as cfg
    from aggterm.harness import sweep_graph
    out = files["dir"] / "g.graph"
    assert main(["gen", "--model", files["dense"], "--size", "40",
                 "--seed", "4", "--features", files["feat2"],
                 "--out", str(out)]) == 0
    with open(files["dense"]) as fh:
        model = cfg.model_from_spec(json.load(fh))
    with open(files["feat2"]) as fh:
        dist = cfg.features_from_spec(json.load(fh))
    ref = files["dir"] / "ref.graph"
    write_graph(sweep_graph(model, dist, 4, 40, 0), str(ref))
    assert out.read_bytes() == ref.read_bytes()


def test_eval_term_csv(files, capsys):
    graph = str(files["dir"] / "g.graph")
    main(["gen", "--model", files["dense"], "--size", "25", "--out", graph])
    out = str(files["dir"] / "val.csv")
    assert main(["eval", "--term", files["mean_term"], "--graph", graph,
                 "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "dim,value"
    assert len(lines) == 2
    assert 0.0 <= float(lines[1].split(",")[1]) <= 1.0


def test_eval_open_term_exits_2(files, capsys):
    graph = str(files["dir"] / "g.graph")
    main(["gen", "--model", files["dense"], "--size", "10", "--out", graph])
    capsys.readouterr()
    term = files["dir"] / "open.term"
    term.write_text("mean[y in N(x)](H(y))\n")
    assert main(["eval", "--term", str(term), "--graph", graph]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "free variables" in err


def test_eval_arch_gives_class_scores(files, capsys):
    graph = str(files["dir"] / "g2.graph")
    main(["gen", "--model", files["dense"], "--size", "20",
          "--features", files["feat2"], "--out", graph])
    capsys.readouterr()  # drop the gen status line
    assert main(["eval", "--arch", files["arch"], "--graph", graph]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(vals) == 3
    assert abs(sum(vals) - 1.0) < 1e-9


def test_limit_dense(files, capsys):
    assert main(["limit", "--term", files["mean_term"], "--model",
                 files["dense"], "--mode", "dense", "--mc", "20000",
                 "--seed", "2"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "dim,estimate,stderr,mc_samples"
    est = float(rows[1].split(",")[1])
    assert abs(est - 0.5) < 0.01


def test_limit_sparse_reports_truncation(files, capsys):
    assert main(["limit", "--term", files["iso_term"], "--model",
                 files["sparse"], "--mode", "sparse", "--mc", "2000",
                 "--census-n", "2000", "--census-samples", "2000",
                 "--seed", "2"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "dim,estimate,stderr,mc_samples,truncated_mass"
    parts = rows[1].split(",")
    assert abs(float(parts[1]) - math.exp(-1)) < 0.03
    assert 0.0 <= float(parts[4]) < 0.1


def test_census_proportions(files, capsys):
    assert main(["census", "--model", files["sparse"], "--size", "2000",
                 "--radius", "1", "--samples", "2000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    rows = out.strip().splitlines()
    assert rows[0] == "code,nodes,edges,root_degree,proportion"
    body = [r.split(",") for r in rows[1:] if not r.startswith("mass")]
    props = [float(r[4]) for r in body]
    assert all(0.0 < p <= 1.0 for p in props)
    assert sum(props) <= 1.0 + 1e-9
    assert props == sorted(props, reverse=True)
    # at K=1 the lone root and the 1-neighbor ball tie near e^{-1}
    top_nodes = {body[0][1], body[1][1]}
    assert top_nodes == {"1", "2"}
    assert props[0] - props[1] < 0.05


def test_census_root_count_over_code_limit(files, capsys):
    # the code header holds the root count in one byte
    assert main(["census", "--model", files["sparse"], "--size", "2000",
                 "--radius", "1", "--samples", "10", "--roots", "256",
                 "--cap", "300"]) == 2
    assert "root count" in capsys.readouterr().err


def test_sweep_writes_all_outputs(files, capsys):
    out = str(files["dir"] / "rows.csv")
    summary = str(files["dir"] / "sum.csv")
    plot = str(files["dir"] / "plot.svg")
    assert main(["sweep", "--term", files["mean_term"], "--model",
                 files["dense"], "--sizes", "20,40", "--samples", "3",
                 "--seed", "5", "--limit", "0.5", "--out", out,
                 "--summary", summary, "--plot", plot]) == 0
    assert open(out).readline().strip() == "size,sample,out_0"
    assert open(summary).readline().strip() == "size,dim,mean,std,dist_to_limit"
    assert open(plot).read().startswith("<svg")
    assert "n=40" in capsys.readouterr().out


def test_diverge_prints_gap(files, capsys):
    out = str(files["dir"] / "div.csv")
    assert main(["diverge", "--term", files["iso_term"], "--model",
                 files["alt"], "--sizes", "300,301,600,601",
                 "--samples", "4", "--seed", "6", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "parity gap" in text
    assert open(out).readline().startswith("size,sample")


def test_parse_error_exits_2(files, tmp_path, capsys):
    bad = tmp_path / "bad.term"
    bad.write_text("mean[v](H(v)\n")
    code = main(["eval", "--term", str(bad), "--graph", "nowhere.graph"])
    assert code in (2, 3)  # parse or file error, never a traceback
    graph = str(files["dir"] / "g3.graph")
    main(["gen", "--model", files["dense"], "--size", "10", "--out", graph])
    assert main(["eval", "--term", str(bad), "--graph", graph]) == 2
    assert "config error" in capsys.readouterr().err


def test_mode_mismatch_exits_2(files, capsys):
    assert main(["limit", "--term", files["iso_term"], "--model",
                 files["dense"], "--mode", "sparse", "--mc", "100"]) == 2


def test_missing_file_exits_3(files, capsys):
    assert main(["eval", "--term", files["mean_term"],
                 "--graph", "does-not-exist.graph"]) == 3
    assert "error" in capsys.readouterr().err


def test_diverge_requires_alternating(files, capsys):
    assert main(["diverge", "--term", files["iso_term"], "--model",
                 files["dense"], "--sizes", "300,301", "--samples", "2",
                 "--out", str(files["dir"] / "x.csv")]) == 2


def test_bad_sizes_exit_2(files):
    assert main(["sweep", "--term", files["mean_term"], "--model",
                 files["dense"], "--sizes", "40,20", "--samples", "2",
                 "--out", str(files["dir"] / "y.csv")]) == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("line", ["F x 0.5", "0", "F 0 abc"])
def test_malformed_graph_line_exits_2(files, capsys, line):
    graph = files["dir"] / "bad.graph"
    graph.write_text(f"aggterm-graph v1 n=3 d=1 communities=0\n0 1\n{line}\n")
    assert main(["eval", "--term", files["mean_term"],
                 "--graph", str(graph)]) == 2
    assert repr(line) in capsys.readouterr().err


GOOD_FEATURES = "F 0 0.5\nF 1 0.25\nF 2 0.75\n"
BROKEN_GRAPHS = {
    "negative_d": "n=3 d=-1 communities=0\n0 1\n",
    "negative_communities": "n=3 d=1 communities=-1\n0 1\n" + GOOD_FEATURES,
    "nan_feature": "n=3 d=1 communities=0\n0 1\nF 0 nan\nF 1 0.25\nF 2 0.75\n",
    "inf_feature": "n=3 d=1 communities=0\n0 1\nF 0 0.5\nF 1 inf\nF 2 0.75\n",
    "missing_features": "n=3 d=1 communities=0\n0 1\nF 0 0.1\n",
    "duplicate_feature": ("n=3 d=1 communities=0\n0 1\n" + GOOD_FEATURES
                          + "F 0 0.9\n"),
    "label_above_communities": ("n=3 d=1 communities=2\n0 1\n" + GOOD_FEATURES
                                + "C 0 1\nC 1 2\nC 2 7\n"),
    "duplicate_label": ("n=3 d=1 communities=2\n0 1\n" + GOOD_FEATURES
                        + "C 0 1\nC 1 2\nC 2 2\nC 2 1\n"),
}


@pytest.mark.parametrize("body", list(BROKEN_GRAPHS.values()),
                         ids=list(BROKEN_GRAPHS))
def test_broken_graph_file_exits_2(files, capsys, body):
    # each was read as it stood: a bare ValueError (d=-1), a feature that
    # failed later (nan, inf), zero-filled or last-wins features, or a
    # label outside 1..communities
    graph = files["dir"] / "bad.graph"
    graph.write_text("aggterm-graph v1 " + body)
    assert main(["eval", "--term", files["mean_term"],
                 "--graph", str(graph)]) == 2
    assert "config error" in capsys.readouterr().err


def test_non_finite_limit_exits_2(files, capsys):
    for limit in ("nan", "inf", "0.5,-inf"):
        assert main(["sweep", "--term", files["mean_term"], "--model",
                     files["dense"], "--sizes", "20,40", "--samples", "2",
                     "--limit", limit,
                     "--out", str(files["dir"] / "y.csv")]) == 2
        assert "finite" in capsys.readouterr().err


ARCH = {"kind": "mean", "layers": 1, "hidden": 4, "classes": 3, "in_dim": 2}
BAD_SPECS = [
    ("p", "model", {"family": "er", "schedule": {"kind": "dense", "p": "abc"}}),
    ("m", "model", {"family": "ba", "m": 2.7}),
    ("m", "model", {"family": "ba", "m": 2.0}),
    ("dim", "features", {"kind": "uniform01", "dim": "x"}),
    ("layers", "arch", {**ARCH, "layers": "2"}),
    ("global_readout", "arch", {**ARCH, "global_readout": "false"}),
]


@pytest.mark.parametrize("field, kind, spec", BAD_SPECS,
                         ids=["p='abc'", "m=2.7", "m=2.0", "dim='x'",
                              "layers='2'", "global_readout='false'"])
def test_mistyped_spec_field_exits_2(files, capsys, field, kind, spec):
    # each value used to be cast (int(2.7), bool("false")) or to fail with a
    # traceback (float("abc"))
    bad = str(files["dir"] / "bad.json")
    with open(bad, "w") as fh:
        json.dump(spec, fh)
    graph = str(files["dir"] / "g.graph")
    argv = {"model": ["gen", "--model", bad, "--size", "20", "--out", graph],
            "features": ["gen", "--model", files["dense"], "--size", "20",
                         "--features", bad, "--out", graph],
            "arch": ["eval", "--arch", bad, "--graph", graph]}[kind]
    if kind == "arch":
        main(["gen", "--model", files["dense"], "--size", "20",
              "--features", files["feat2"], "--out", graph])
        capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"field {field!r}" in err
