"""Command-line front end.

Subcommands: gen (sample one graph to a file), eval (run a term or a
compiled architecture on a stored graph), limit (dense or sparse constant
prediction for a closed term), census (rooted-neighborhood proportions),
sweep (size ladder with CSV/SVG reports), diverge (alternating-schedule
parity demo).

File conventions: terms are plain text in the surface syntax; models,
feature distributions, and architectures are small JSON documents (see
config). An architecture document may carry a "seed" field, which keys
the weight draw. All floats in emitted CSV use 17 significant digits.

Exit codes: 0 on success, 2 for configuration problems (bad flags, bad
files, invalid terms), 3 for runtime trouble (numeric failures, I/O).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import config as cfg
from .architectures import compile_architecture, init_weights
from .canonical import code_counts
from .census import DEFAULT_SIZE_CAP, neighborhood_census
from .dense_limit import dense_controller
from .errors import AggtermError, ConfigError, as_int
from .evaluate import eval_closed
from .graphs import (AlternatingSchedule, ErModel, Uniform01, feature_dim,
                     read_graph, write_graph)
from .harness import (SweepConfig, diverge_demo, g17, run_sweep, sweep_graph,
                      write_lines, write_plot_svg, write_report_csv,
                      write_summary_csv)
from .parser import parse_term
from .registry import default_registry
from .sparse_limit import CensusConfig, sparse_limit


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    return doc


def _load_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _load_model(path: str):
    return cfg.model_from_spec(_load_json(path))


def _load_features(path, default=None):
    if path is None:
        return default if default is not None else Uniform01(1)
    return cfg.features_from_spec(_load_json(path))


def _load_arch(path: str):
    doc = _load_json(path)
    seed = as_int(doc.pop("seed", 0), "architecture seed")
    arch = cfg.arch_from_spec(doc)
    return compile_architecture(arch, init_weights(arch, seed))


def _parse_sizes(text: str):
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"sizes must be comma-separated integers: {text!r}")
    return sizes


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")])
    except ValueError:
        raise ConfigError(f"expected comma-separated floats: {text!r}")


def _closed_term(path: str, d: int, registry):
    return parse_term(_load_text(path), d, registry=registry, closed=True)


# subcommands ---------------------------------------------------------------

def _cmd_gen(args) -> None:
    g = sweep_graph(_load_model(args.model), _load_features(args.features),
                    args.seed, args.size, 0)
    write_graph(g, args.out)
    write_lines(None, [f"wrote n={g.n} graph with {g.num_edges} edges "
                       f"to {args.out}"])


def _cmd_eval(args) -> None:
    graph = read_graph(args.graph)
    if args.arch is not None:
        out = _load_arch(args.arch).run(graph)
    else:
        reg = default_registry()
        out = eval_closed(_closed_term(args.term, graph.d, reg), graph, reg)
    write_lines(args.out,
                ["dim,value"] + [f"{j},{g17(x)}" for j, x in enumerate(out)])


def _cmd_limit(args) -> None:
    reg = default_registry()
    model = _load_model(args.model)
    dist = _load_features(args.features)
    term = _closed_term(args.term, feature_dim(dist), reg)
    if args.mode == "dense":
        value = dense_controller(term, model, dist, args.mc, args.seed,
                                 registry=reg, inner_mc=args.inner_mc)
        header = "dim,estimate,stderr,mc_samples"
        tail = ""
    else:
        census = CensusConfig(n=args.census_n, node_samples=args.census_samples)
        value = sparse_limit(term, model, dist, census, args.mc, args.seed,
                             registry=reg, inner_mc=args.inner_mc)
        header = "dim,estimate,stderr,mc_samples,truncated_mass"
        tail = f",{g17(value.truncated_mass)}"
    lines = [header]
    for j in range(len(value.estimate)):
        lines.append(f"{j},{g17(value.estimate[j])},{g17(value.stderr[j])},"
                     f"{value.mc_samples}{tail}")
    write_lines(args.out, lines)


def _cmd_census(args) -> None:
    model = _load_model(args.model)
    table = neighborhood_census(model, args.size, args.radius, args.roots,
                                args.samples, args.seed, size_cap=args.cap)
    lines = ["code,nodes,edges,root_degree,proportion"]
    for code, prop in table.types_by_mass():
        nodes, edges, degree = code_counts(code)
        lines.append(f"{code.hex()},{nodes},{edges},{degree},{g17(prop)}")
    write_lines(args.out, lines)
    write_lines(None, [f"mass {g17(table.total_mass())}, "
                       f"cap overflow {g17(table.truncated_mass)}"])


def _sweep_config(args) -> SweepConfig:
    model = _load_model(args.model)
    limit = None if args.limit is None else _parse_vector(args.limit)
    if args.arch is not None:
        subject = _load_arch(args.arch)
        dist = _load_features(args.features, Uniform01(subject.in_dim))
        registry = None
    else:
        dist = _load_features(args.features)
        reg = default_registry()
        subject = _closed_term(args.term, feature_dim(dist), reg)
        registry = reg
    return SweepConfig(subject=subject, model=model, feature_dist=dist,
                       sizes=_parse_sizes(args.sizes), samples=args.samples,
                       seed=args.seed, limit=limit, registry=registry,
                       workers=args.workers)


def _emit_report(report, args) -> None:
    write_report_csv(report, args.out)
    if args.summary is not None:
        write_summary_csv(report, args.summary)
    if args.plot is not None:
        write_plot_svg(report, args.plot)


def _cmd_sweep(args) -> None:
    report = run_sweep(_sweep_config(args))
    _emit_report(report, args)
    for s in report.summary:
        dist = "" if s.dist_to_limit is None else \
            f"  dist_to_limit {g17(s.dist_to_limit)}"
        write_lines(None, [f"n={s.size}  mean [{', '.join(map(g17, s.mean))}]"
                           f"  std [{', '.join(map(g17, s.std))}]{dist}"])


def _cmd_diverge(args) -> None:
    model = _load_model(args.model)
    if not isinstance(model, ErModel) or \
            not isinstance(model.schedule, AlternatingSchedule):
        raise ConfigError(
            "diverge needs an er model with an alternating schedule")
    reg = default_registry()
    dist = _load_features(args.features)
    term = _closed_term(args.term, feature_dim(dist), reg)
    report = diverge_demo(term, model.schedule, _parse_sizes(args.sizes),
                          args.samples, args.seed, feature_dist=dist,
                          registry=reg, workers=args.workers)
    _emit_report(report, args)
    p = report.parity
    write_lines(None, [f"even mean [{', '.join(map(g17, p.even_mean))}]",
                       f"odd mean  [{', '.join(map(g17, p.odd_mean))}]",
                       f"parity gap {g17(p.gap)}"])


# parser --------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="aggterm",
        description="graph aggregation terms: evaluation, limits, sweeps")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample one graph to a file")
    gen.add_argument("--model", required=True, help="model JSON file")
    gen.add_argument("--size", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--features", help="feature distribution JSON file")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    ev = sub.add_parser("eval", help="evaluate a term or architecture on a graph")
    pick = ev.add_mutually_exclusive_group(required=True)
    pick.add_argument("--term", help="term file (surface syntax)")
    pick.add_argument("--arch", help="architecture JSON file")
    ev.add_argument("--graph", required=True, help="graph file from gen")
    ev.add_argument("--out", help="CSV path (default stdout)")
    ev.set_defaults(func=_cmd_eval)

    lim = sub.add_parser("limit", help="predict the limiting constant")
    lim.add_argument("--term", required=True)
    lim.add_argument("--model", required=True)
    lim.add_argument("--mode", choices=("dense", "sparse"), required=True)
    lim.add_argument("--mc", type=int, default=100000,
                     help="feature draws per pool of an aggregate that "
                          "reads no structure; the error bars are batch "
                          "means over 10 blocks (fewer if --mc is below 10)")
    lim.add_argument("--seed", type=int, default=0)
    lim.add_argument("--features", help="feature distribution JSON file")
    lim.add_argument("--inner-mc", type=int, default=64,
                     help="least fresh draws per outer sample of an "
                          "aggregate whose body reads an outer variable; "
                          "its ratio bias is O(1/inner-mc)")
    lim.add_argument("--census-n", type=int, default=3000,
                     help="sparse mode: nodes of the graphs the rooted "
                          "balls are grown on")
    lim.add_argument("--census-samples", type=int, default=3000,
                     help="sparse mode: rooted balls, one feature draw "
                          "each, per aggregate that reads structure; the "
                          "error blocks split them")
    lim.add_argument("--out", help="CSV path (default stdout)")
    lim.set_defaults(func=_cmd_limit)

    cen = sub.add_parser("census", help="rooted-neighborhood proportions")
    cen.add_argument("--model", required=True)
    cen.add_argument("--size", type=int, required=True)
    cen.add_argument("--radius", type=int, required=True)
    cen.add_argument("--roots", type=int, default=1)
    cen.add_argument("--samples", type=int, required=True)
    cen.add_argument("--seed", type=int, default=0)
    cen.add_argument("--cap", type=int, default=DEFAULT_SIZE_CAP)
    cen.add_argument("--out", help="CSV path (default stdout)")
    cen.set_defaults(func=_cmd_census)

    def sweep_common(p):
        pick = p.add_mutually_exclusive_group(required=True)
        pick.add_argument("--term", help="term file (surface syntax)")
        if p.prog.endswith("sweep"):
            pick.add_argument("--arch", help="architecture JSON file")
        p.add_argument("--model", required=True)
        p.add_argument("--features", help="feature distribution JSON file")
        p.add_argument("--sizes", required=True, help="comma-separated sizes")
        p.add_argument("--samples", type=int, default=30)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1,
                       help="sweep threads; more than one pays only with "
                            "one BLAS thread (OPENBLAS_NUM_THREADS=1)")
        p.add_argument("--out", required=True, help="row CSV path")
        p.add_argument("--summary", help="summary CSV path")
        p.add_argument("--plot", help="SVG path")

    sw = sub.add_parser("sweep", help="convergence sweep over a size ladder")
    sweep_common(sw)
    sw.add_argument("--limit", help="reference vector, comma-separated")
    sw.set_defaults(func=_cmd_sweep)

    dv = sub.add_parser("diverge", help="alternating-schedule parity demo")
    sweep_common(dv)
    dv.set_defaults(func=_cmd_diverge)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AggtermError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
