"""Convergence sweeps, the divergence demo, and report emission.

A sweep evaluates one closed subject (a term, or a compiled architecture)
on freshly sampled graphs over a ladder of sizes, many samples per size,
and summarizes how the outputs concentrate. Every (size, sample) work item
draws its graph and features from streams keyed by the master seed plus
the item coordinates, so the result table is identical no matter how many
workers run it or what order they finish in, and adding sizes later never
perturbs existing rows.

The divergence demo is the same machinery pointed at an alternating
edge-probability schedule, where outputs oscillate between two values by
size parity instead of settling; the report then carries the parity gap.

Reports serialize to CSV (byte-deterministic, 17 significant digits, so
floats survive a round trip exactly) and to a self-contained SVG with one
mean curve per output dimension over shaded +-1 std bands. g17 and
write_lines are that float format and that line writer; the command line
writes its files and stdout through them too.
"""

from __future__ import annotations

import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

import numpy as np

from .architectures import CompiledModel
from .config import features_to_spec, model_to_spec, spec_digest
from .errors import ConfigError, EvaluationError, as_int
from .evaluate import eval_closed
from .graphs import FeatureDist, attach_features, feature_dim, sample_graph
from .graphs import AlternatingSchedule, ErModel
from .mc import ControllerValue
from .parser import print_term
from .registry import FunctionRegistry, default_registry
from .rng import stream
from .terms import Term, validate_term

__all__ = ["SweepConfig", "SweepReport", "SizeSummary", "ParityGap",
           "sweep_graph", "run_sweep", "diverge_demo", "write_report_csv",
           "write_summary_csv", "write_plot_svg", "read_report_csv",
           "summarize_outputs", "g17", "write_lines"]

VERSION = "0.1.0"

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f")


def g17(x: float) -> str:
    """x at 17 significant digits, which a float survives exactly."""
    return "%.17g" % float(x)


def write_lines(path: Optional[str], lines) -> None:
    """Write each line with a newline after it, to path or else stdout."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


@dataclass(frozen=True, eq=False)
class SweepConfig:
    """One sweep: a closed subject, a model, sizes, and a sample budget.

    subject is a closed Term (registry supplies its functions) or a
    CompiledModel, whose output is cut to its class count. limit, when
    given, is the reference vector distances are measured against; a
    ControllerValue is accepted and reduced to its estimate.
    """

    subject: Union[Term, CompiledModel]
    model: object
    feature_dist: FeatureDist
    sizes: Tuple[int, ...]
    samples: int
    seed: int
    limit: Optional[np.ndarray] = None
    registry: Optional[FunctionRegistry] = None
    workers: int = 1

    def __post_init__(self):
        sizes = tuple(as_int(s, "size", 1) for s in self.sizes)
        if not sizes:
            raise ConfigError("need at least one size")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError("sizes must be strictly ascending")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "samples",
                           as_int(self.samples, "samples per size", 1))
        object.__setattr__(self, "workers", as_int(self.workers, "workers", 1))
        limit = self.limit
        if isinstance(limit, ControllerValue):
            limit = limit.estimate
        if limit is not None:
            limit = np.asarray(limit, dtype=np.float64)
            if limit.ndim != 1:
                raise ConfigError("limit reference must be a flat vector")
            if not np.isfinite(limit).all():
                raise ConfigError(f"limit reference must be finite, got {limit}")
            limit.flags.writeable = False
        object.__setattr__(self, "limit", limit)


@dataclass(frozen=True, eq=False)
class SizeSummary:
    size: int
    mean: np.ndarray
    std: np.ndarray
    dist_to_limit: Optional[float]


@dataclass(frozen=True, eq=False)
class ParityGap:
    """Mean outputs split by size parity, and the distance between them."""

    even_mean: np.ndarray
    odd_mean: np.ndarray
    gap: float


@dataclass(frozen=True, eq=False)
class SweepReport:
    """All rows of a sweep plus per-size summaries and provenance.

    outputs has shape (len(sizes), samples, d) in size-ascending,
    sample-ascending order. provenance carries the sha256 of the canonical
    config JSON, the master seed, and the package version.
    """

    sizes: Tuple[int, ...]
    samples: int
    outputs: np.ndarray
    summary: Tuple[SizeSummary, ...]
    provenance: dict
    limit: Optional[np.ndarray] = None
    parity: Optional[ParityGap] = None

    @property
    def dim(self) -> int:
        return self.outputs.shape[2]


def summarize_outputs(sizes, outputs: np.ndarray,
                      limit: Optional[np.ndarray]) -> Tuple[SizeSummary, ...]:
    """Per-size mean/std (population) and mean Euclidean distance to limit."""
    out = []
    for i, size in enumerate(sizes):
        block = outputs[i]
        dist = None
        if limit is not None:
            if limit.shape != (block.shape[1],):
                raise ConfigError(
                    f"limit reference has dimension {limit.shape}, "
                    f"outputs have {block.shape[1]}")
            dist = float(np.linalg.norm(block - limit[None, :], axis=1).mean())
        out.append(SizeSummary(size=int(size),
                               mean=block.mean(axis=0),
                               std=block.std(axis=0),
                               dist_to_limit=dist))
    return tuple(out)


def _weight_digest(model: CompiledModel) -> str:
    h = hashlib.sha256()
    for layer in model.weights.layers:
        for name in sorted(layer):
            h.update(name.encode())
            h.update(np.ascontiguousarray(layer[name]).tobytes())
    h.update(np.ascontiguousarray(model.weights.head_w).tobytes())
    h.update(np.ascontiguousarray(model.weights.head_b).tobytes())
    return h.hexdigest()


def _subject(config: SweepConfig):
    """Normalize the subject to (runner on a graph, term, spec extras)."""
    sub = config.subject
    d_in = feature_dim(config.feature_dist)
    if isinstance(sub, CompiledModel):
        if config.registry is not None:
            raise ConfigError(
                "a compiled architecture carries its own registry")
        if d_in != sub.in_dim:
            raise ConfigError(
                f"architecture expects {sub.in_dim} input features, "
                f"distribution provides {d_in}")
        extras = {"arch_classes": sub.classes,
                  "weights_sha256": _weight_digest(sub)}
        return sub.run, sub.term, extras
    reg = config.registry if config.registry is not None else default_registry()
    validate_term(sub, reg, d_in)
    if sub.free:
        raise ConfigError(f"sweep subjects must be closed; free: {list(sub.free)}")
    return (lambda g: eval_closed(sub, g, reg)), sub, {}


def sweep_graph(model, feature_dist: FeatureDist, seed: int, size: int,
                sample: int):
    """The featured graph of sweep item (size, sample), drawn from the
    streams (seed, "graph" / "features", size, sample) and nothing else."""
    g = sample_graph(model, size, stream(seed, "graph", size, sample))
    return attach_features(g, feature_dist,
                           stream(seed, "features", size, sample))


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run all (size, sample) items and assemble the report.

    Items are independent: each runs on its own sweep_graph. Failures
    are annotated with their item coordinates.
    """
    run, term, extras = _subject(config)

    def item(size: int, sample: int) -> np.ndarray:
        try:
            return run(sweep_graph(config.model, config.feature_dist,
                                   config.seed, size, sample))
        except ConfigError:
            raise
        except Exception as exc:
            raise EvaluationError(
                f"sweep item size={size} sample={sample}: {exc}") from exc

    sizes = [size for size in config.sizes for _ in range(config.samples)]
    samples = list(range(config.samples)) * len(config.sizes)
    if config.workers == 1:
        rows = list(map(item, sizes, samples))
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(item, sizes, samples))
    outputs = np.array(rows).reshape(len(config.sizes), config.samples, -1)
    outputs.flags.writeable = False

    spec = {"term": print_term(term),
            "model": model_to_spec(config.model),
            "features": features_to_spec(config.feature_dist),
            "sizes": list(config.sizes),
            "samples": config.samples,
            "seed": config.seed}
    spec.update(extras)
    provenance = {
        "config_sha256": spec_digest(spec),
        "seed": config.seed,
        "version": VERSION,
    }
    return SweepReport(sizes=config.sizes, samples=config.samples,
                       outputs=outputs,
                       summary=summarize_outputs(config.sizes, outputs,
                                                 config.limit),
                       provenance=provenance, limit=config.limit)


def diverge_demo(term: Term, schedule: AlternatingSchedule, sizes, samples: int,
                 seed: int, *, feature_dist: Optional[FeatureDist] = None,
                 registry: Optional[FunctionRegistry] = None,
                 workers: int = 1) -> SweepReport:
    """Sweep a term under a parity-switching schedule and report the gap.

    Needs sizes of both parities; the parity summary holds the mean output
    per parity (sizes weighted equally) and the Euclidean gap between them.
    """
    if not isinstance(schedule, AlternatingSchedule):
        raise ConfigError("diverge_demo needs an alternating schedule")
    sizes = tuple(as_int(s, "size", 1) for s in sizes)
    evens = [s for s in sizes if s % 2 == 0]
    odds = [s for s in sizes if s % 2 == 1]
    if not evens or not odds:
        raise ConfigError("need sizes of both parities to show a gap")
    if feature_dist is None:
        from .graphs import Uniform01
        feature_dist = Uniform01(1)
    config = SweepConfig(subject=term, model=ErModel(schedule),
                         feature_dist=feature_dist, sizes=sizes,
                         samples=samples, seed=seed, registry=registry,
                         workers=workers)
    report = run_sweep(config)
    means = {s.size: s.mean for s in report.summary}
    even_mean = np.mean([means[s] for s in evens], axis=0)
    odd_mean = np.mean([means[s] for s in odds], axis=0)
    return replace(report, parity=ParityGap(
        even_mean=even_mean, odd_mean=odd_mean,
        gap=float(np.linalg.norm(odd_mean - even_mean))))


# CSV ----------------------------------------------------------------------

def write_report_csv(report: SweepReport, path: str) -> None:
    """One row per (size, sample); floats carry 17 significant digits."""
    d = report.dim
    lines = ["size,sample," + ",".join(f"out_{j}" for j in range(d))]
    for i, size in enumerate(report.sizes):
        for sample in range(report.samples):
            vec = report.outputs[i, sample]
            lines.append(f"{size},{sample}," + ",".join(g17(x) for x in vec))
    write_lines(path, lines)


def read_report_csv(path: str):
    """Read rows back as (sizes, outputs); exact inverse of the writer.

    Refuses a row whose width differs from the header's, a non-numeric
    cell, a repeated (size, sample), and a grid of sizes by samples
    0..max with a hole in it.
    """
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("size,sample,"):
        raise ConfigError(f"{path} is not a sweep row CSV")
    width = len(lines[0].split(","))
    rows: dict = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != width:
            raise ConfigError(f"{path}: row {ln!r} has {len(parts)} cells, "
                              f"the header {width}")
        try:
            key = (int(parts[0]), int(parts[1]))
            vec = [float(x) for x in parts[2:]]
        except ValueError:
            raise ConfigError(f"{path}: non-numeric cell in {ln!r}") from None
        if key in rows:
            raise ConfigError(f"{path}: repeated row {ln!r}")
        rows[key] = vec
    if not rows:
        raise ConfigError(f"{path} has no rows")
    sizes = tuple(sorted({s for s, _ in rows}))
    samples = 1 + max(i for _, i in rows)
    if min(i for _, i in rows) < 0 or len(rows) != len(sizes) * samples:
        raise ConfigError(f"{path} lacks rows of its (size, sample) grid")
    return sizes, np.array([[rows[(s, i)] for i in range(samples)]
                            for s in sizes])


def write_summary_csv(report: SweepReport, path: str) -> None:
    """Per-(size, dim) mean and std; distance repeats on each dim row."""
    lines = ["size,dim,mean,std,dist_to_limit"]
    for s in report.summary:
        dist = "" if s.dist_to_limit is None else g17(s.dist_to_limit)
        for j in range(len(s.mean)):
            lines.append(f"{s.size},{j},{g17(s.mean[j])},{g17(s.std[j])},{dist}")
    write_lines(path, lines)


# SVG ----------------------------------------------------------------------

def _xpos(sizes):
    lo, hi = math.log10(sizes[0]), math.log10(sizes[-1])
    width = hi - lo
    if width <= 0:
        return [0.5 for _ in sizes]
    return [(math.log10(s) - lo) / width for s in sizes]


def write_plot_svg(report: SweepReport, path: str) -> None:
    """Mean curve per output dimension over a shaded +-1 std band.

    Sizes sit on a log axis. The file is plain SVG with no external
    references; exactly one polyline per dimension.
    """
    W, H = 720, 440
    ml, mr, mt, mb = 70, 24, 24, 52
    iw, ih = W - ml - mr, H - mt - mb
    sizes = report.sizes
    means = np.stack([s.mean for s in report.summary])   # (sizes, d)
    stds = np.stack([s.std for s in report.summary])
    lo = float((means - stds).min())
    hi = float((means + stds).max())
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def X(frac):
        return ml + frac * iw

    def Y(v):
        return mt + (hi - v) / (hi - lo) * ih

    xs = [X(f) for f in _xpos(sizes)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {W} {H}" '
        f'font-family="Helvetica, Arial, sans-serif" font-size="12">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H - mb}" stroke="#333"/>',
        f'<line x1="{ml}" y1="{H - mb}" x2="{W - mr}" y2="{H - mb}" stroke="#333"/>',
    ]
    for k in range(5):
        v = lo + (hi - lo) * k / 4
        y = Y(v)
        parts.append(f'<line x1="{ml - 4}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end">{v:.3g}</text>')
    for x, size in zip(xs, sizes):
        parts.append(f'<line x1="{x:.2f}" y1="{H - mb}" x2="{x:.2f}" y2="{H - mb + 4}" stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{H - mb + 18}" text-anchor="middle">{size}</text>')
    parts.append(f'<text x="{ml + iw / 2:.2f}" y="{H - 8}" text-anchor="middle">graph size</text>')
    d = report.dim
    for j in range(d):
        color = _PALETTE[j % len(_PALETTE)]
        upper = [(x, Y(means[i, j] + stds[i, j])) for i, x in enumerate(xs)]
        lower = [(x, Y(means[i, j] - stds[i, j])) for i, x in enumerate(xs)]
        band = " ".join(f"{x:.2f},{y:.2f}" for x, y in upper + lower[::-1])
        parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.18" stroke="none"/>')
    for j in range(d):
        color = _PALETTE[j % len(_PALETTE)]
        line = " ".join(f"{x:.2f},{Y(means[i, j]):.2f}" for i, x in enumerate(xs))
        parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        lx = W - mr - 58
        ly = mt + 16 * j + 10
        parts.append(f'<rect x="{lx}" y="{ly - 9}" width="12" height="4" fill="{color}"/>')
        parts.append(f'<text x="{lx + 16}" y="{ly}">out_{j}</text>')
    if report.limit is not None and len(report.limit) == d:
        for j in range(d):
            y = Y(float(report.limit[j]))
            parts.append(f'<line x1="{ml}" y1="{y:.2f}" x2="{W - mr}" y2="{y:.2f}" '
                         f'stroke="{_PALETTE[j % len(_PALETTE)]}" stroke-dasharray="4 3" stroke-width="0.8"/>')
    parts.append("</svg>")
    write_lines(path, parts)
