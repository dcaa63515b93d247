"""The three benchmark workloads: their inputs, operations and oracles.

A workload is a closed loop: one caller issues its operations back to back,
each waiting for the one before. All inputs come from the workload seed.
setup() derives network weights and fixed graphs from it; ops() derives
every graph, feature and Monte-Carlo stream of one pass from a pass seed.

Every operation's output is checked against an oracle that does not come
from the code path being measured: closed-form limits, exact walk-return
identities, the Poisson degree law of sparse Erdos-Renyi graphs, the
minimum degree of preferential attachment, and the per-node reference
forward pass for compiled architectures.

Library functions are always looked up as module attributes at call time
(harness.run_sweep, not a name imported once), so a tracer that wraps
those attributes sees every call.
"""

from __future__ import annotations

import hashlib
import importlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from aggterm import (architectures, census, dense_limit, graphs, harness,
                     parser, rng, rw)
from aggterm.registry import default_registry

# the package re-exports the function sparse_limit under the module's name
sparse = importlib.import_module("aggterm.sparse_limit")

# gates from the package's acceptance checks
DENSE_GATE = 0.005        # or 4 stderr, whichever is larger
SPARSE_GATE = 0.03
LAW_GATE = 0.02           # degree law and census stability ...
LAW_SIGMAS = 4.5          # ... widened to this many binomial sd when larger
REFERENCE_GAP = 1e-9
SWEEP_LIMIT_GATE = 0.05

ER_DENSE = graphs.ErModel(graphs.DenseSchedule(0.1))
SBM = graphs.SbmModel((0.5, 0.5), ((0.2, 0.05), (0.05, 0.2)))
ER_LOG2 = graphs.ErModel(graphs.LogSchedule(2.0))
ER_K1 = graphs.ErModel(graphs.SparseSchedule(1.0))
ER_K2 = graphs.ErModel(graphs.SparseSchedule(2.0))
ER_K3 = graphs.ErModel(graphs.SparseSchedule(3.0))
BA3 = graphs.BaModel(3)
BA5 = graphs.BaModel(5)


class CheckError(Exception):
    """An operation's output disagreed with its oracle."""


@dataclass
class Op:
    """One timed call. kind is sweep, limit, census or rw.

    check(result) raises CheckError on a wrong output and otherwise
    returns facts for the metrics: items (sweep items), roots (census
    roots tallied), truth ((|error|, stderr) of a prediction with a
    closed-form value) and dist (sweep mean to predicted limit).
    """

    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], dict]


def sub_seed(seed: int, *tags) -> int:
    """A 62-bit seed derived from a workload seed and tags."""
    text = repr((int(seed),) + tags).encode()
    digest = hashlib.blake2b(text, digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 2


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def rw_single(graph, v: int, kmax: int) -> np.ndarray:
    """One single-node walk-return call; the tracer wraps this name."""
    return rw.rw_encoding(graph, v, kmax)


# ---------------------------------------------------------------------------
# oracles


def poisson_pmf(k: float, j: int) -> float:
    return math.exp(-k) * k ** j / math.factorial(j)


def two_step_returns(graph) -> np.ndarray:
    """P(walk of length 2 from v is back at v) = sum_{u~v} 1/(deg v deg u)."""
    deg = np.diff(graph.indptr).astype(np.float64)
    inv = np.divide(1.0, deg, out=np.zeros(graph.n), where=deg > 0)
    rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    return np.bincount(rows, weights=inv[graph.indices],
                       minlength=graph.n) * inv


def rw_term_coord1(graph) -> float:
    """Coordinate 1 of mean[u](hadamard(rw(u, k), mean[v in N(u)](H(v))))."""
    deg = np.diff(graph.indptr).astype(np.float64)
    inv = np.divide(1.0, deg, out=np.zeros(graph.n), where=deg > 0)
    rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    nbr_mean = np.bincount(rows, weights=graph.features[graph.indices, 1],
                           minlength=graph.n) * inv
    return float(np.mean(two_step_returns(graph) * nbr_mean))


def sweep_item_graph(model, dist, size: int, seed: int):
    """The graph and features run_sweep draws for sample 0 at `size`."""
    g = graphs.sample_graph(model, size, rng.stream(seed, "graph", size, 0))
    return graphs.attach_features(g, dist,
                                  rng.stream(seed, "features", size, 0))


def check_classes(out, classes: int, what: str) -> None:
    """Class outputs are finite probabilities summing to 1; padding is 0."""
    out = np.asarray(out)
    expect(np.all(np.isfinite(out)), f"{what}: non-finite output")
    probs = out[..., :classes]
    expect(np.all((probs >= 0) & (probs <= 1)),
           f"{what}: class output outside [0, 1]")
    gap = float(np.max(np.abs(probs.sum(axis=-1) - 1.0)))
    expect(gap <= 1e-9, f"{what}: class outputs sum to 1 +- {gap:.2e}")
    expect(np.all(out[..., classes:] == 0.0),
           f"{what}: padded class coordinates are not 0")


def law_tolerance(variance: float) -> float:
    """Gate on a census proportion: LAW_GATE, or LAW_SIGMAS binomial sd."""
    return max(LAW_GATE, LAW_SIGMAS * math.sqrt(variance))


def check_census_mass(table, what: str) -> None:
    total = table.total_mass() + table.truncated_mass
    expect(abs(total - 1.0) <= 1e-9,
           f"{what}: class mass plus truncated mass is {total!r}")


def check_degree_law(table, k: float, what: str, top: int = 8) -> None:
    mass = table.root_degree_mass()
    for j in range(top):
        p = poisson_pmf(k, j)
        gap = abs(mass.get(j, 0.0) - p)
        tol = law_tolerance(p * (1 - p) / table.sample_size)
        expect(gap <= tol, f"{what}: degree {j} mass off by {gap:.4f} "
                           f"(gate {tol:.4f})")


def check_min_root_degree(table, m: int, what: str) -> None:
    low = min(table.root_degree_mass())
    expect(low >= m, f"{what}: root of degree {low} under attachment "
                     f"count {m}")


def tallied(table) -> int:
    return int(round(table.sample_size * (1.0 - table.truncated_mass)))


# ---------------------------------------------------------------------------
# operation builders


def sweep_op(name, subject, model, dist, sizes, samples, seed, workers,
             check_item, state=None) -> Op:
    """A run_sweep call; check_item(report, sample-0 graph at sizes[0])."""
    config = harness.SweepConfig(subject=subject, model=model,
                                 feature_dist=dist, sizes=tuple(sizes),
                                 samples=samples, seed=seed, workers=workers)

    def check(report):
        expect(report.outputs.shape[:2] == (len(sizes), samples),
               f"{name}: output shape {report.outputs.shape}")
        check_item(report, sweep_item_graph(model, dist, sizes[0], seed))
        if state is not None:
            state[name] = report.summary[-1].mean
        return {"items": len(sizes) * samples}

    return Op(name, "sweep", lambda: harness.run_sweep(config), check)


def model_item_check(net):
    def check(report, graph):
        check_classes(report.outputs, net.classes, net.config.kind)
        want = architectures.reference_forward(net.config, net.weights, graph)
        gap = float(np.max(np.abs(report.outputs[0, 0] - want)))
        expect(gap <= REFERENCE_GAP,
               f"{net.config.kind}: reference forward gap {gap:.2e}")
    return check


def rw_term_item_check(report, graph):
    out = report.outputs
    expect(np.all(np.isfinite(out)), "rw term: non-finite output")
    expect(np.all((out >= 0) & (out <= 1)), "rw term: output outside [0, 1]")
    expect(np.all(out[..., 0] == 0.0),
           "rw term: one-step return probability is not 0")
    gap = abs(float(out[0, 0, 1]) - rw_term_coord1(graph))
    expect(gap <= REFERENCE_GAP, f"rw term: two-step value off by {gap:.2e}")


def truth_check(truth: float, coord: int, floor: float, sigmas: float):
    """|estimate - truth| <= max(floor, sigmas * stderr)."""
    def check(cv):
        expect(np.all(np.isfinite(cv.estimate)), "non-finite estimate")
        est, err = float(cv.estimate[coord]), float(cv.stderr[coord])
        gap = abs(est - truth)
        gate = max(floor, sigmas * err)
        expect(gap <= gate, f"estimate {est:.5f} vs truth {truth:.5f}: "
                            f"gap {gap:.4f} over gate {gate:.4f}")
        return {"truth": (gap, err)}
    return check


def compile_net(kind: str, layers: int, seed: int, **dims):
    cfg = architectures.ArchConfig(kind=kind, layers=layers, **dims)
    weights = architectures.init_weights(cfg, seed)
    return architectures.compile_architecture(cfg, weights)


def net_features(net):
    return graphs.PaddedFeatures(graphs.Uniform01(net.in_dim), net.dim)


def net_limit_op(name, net, model, draws, seed, check_extra=None) -> Op:
    def run():
        return dense_limit.dense_controller(net.term, model, net_features(net),
                                            draws, seed,
                                            registry=net.registry)

    def check(cv):
        check_classes(cv.estimate, net.classes, name)
        return check_extra(cv) if check_extra else {}

    return Op(name, "limit", run, check)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base: setup() builds inputs, warm_up() runs a first small call,
    ops(pass_seed) lists one pass."""

    name = ""
    growth_op: Optional[str] = None  # sweep whose rw cost gives rw.growth
    WORKERS = 1  # sweep threads asked for; the runner caps them at nproc

    def __init__(self, seed: int, workers: int):
        self.seed = int(seed)
        self.workers = workers

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self, pass_seed: int) -> list:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One small unchecked operation; it ends the timed setup."""
        raise NotImplementedError


class DenseCheck(Workload):
    """The convergence-check workflow on dense ER and a two-block SBM.

    Sweeps grow the graph under fixed networks; predictions take the
    dense Monte-Carlo limit, including the same mean-3L network, so the
    sweep's distance to its predicted limit is measured every pass.
    """

    name = "dense_check"
    WORKERS = 2
    ANALYTIC = (("mean[v](H(v))", 0.5),
                ("mean[v](relu(sub(hadamard(2, H(v)), 1)))", 0.25),
                ("wmean[v](H(v), exp)", 1.0 / (math.e - 1.0)))

    def __init__(self, seed, workers, tiny=False):
        super().__init__(seed, workers)
        if tiny:
            self.mean_sizes, self.mean_samples = (30, 60), 2
            self.arch_sizes, self.sbm_samples = (20, 40), 1
            self.analytic_draws, self.net_draws = 2000, 400
            self.nested_draws = 100
        else:
            self.mean_sizes, self.mean_samples = (300, 1000, 3000), 2
            self.arch_sizes, self.sbm_samples = (500, 1000, 1500), 1
            self.analytic_draws, self.net_draws = 100_000, 20_000
            self.nested_draws = 5_000

    def setup(self):
        reg = default_registry()
        self.analytic = [(parser.parse_term(src, 1, registry=reg), truth)
                         for src, truth in self.ANALYTIC]
        self.registry = reg
        self.mean3 = compile_net("mean", 3, sub_seed(self.seed, "mean3"),
                                 hidden=16, classes=5, in_dim=8)
        self.archs = [compile_net(kind, 2, sub_seed(self.seed, kind),
                                  hidden=8, classes=4, in_dim=4,
                                  rw_len=3 if kind == "gps_rw" else None)
                      for kind in ("gcn", "gat", "gps", "gps_rw")]
        self.nested = [compile_net(kind, 1, sub_seed(self.seed, kind, 1),
                                   hidden=8, classes=4, in_dim=4)
                       for kind in ("gps", "gat")]

    def warm_up(self):
        harness.run_sweep(harness.SweepConfig(
            subject=self.mean3, model=ER_DENSE,
            feature_dist=graphs.Uniform01(8), sizes=(100,),
            samples=self.workers, seed=sub_seed(self.seed, "warm"),
            workers=self.workers))

    def ops(self, pass_seed):
        state: dict = {}
        mean3 = self.mean3

        def seed(*tags):
            return sub_seed(pass_seed, *tags)

        out = [sweep_op("sweep/mean3/er", mean3, ER_DENSE,
                        graphs.Uniform01(8), self.mean_sizes,
                        self.mean_samples, seed("mean3"), self.workers,
                        model_item_check(mean3), state)]
        for net in self.archs:
            kind = net.config.kind
            out.append(sweep_op(f"sweep/{kind}2/er", net, ER_DENSE,
                                graphs.Uniform01(4), self.arch_sizes, 1,
                                seed(kind), self.workers,
                                model_item_check(net)))
        out.append(sweep_op("sweep/mean3/sbm", mean3, SBM,
                            graphs.Uniform01(8), self.mean_sizes,
                            self.sbm_samples, seed("sbm"), self.workers,
                            model_item_check(mean3)))
        for i, (term, truth) in enumerate(self.analytic):
            out.append(Op(f"limit/analytic{i}", "limit",
                          lambda term=term, i=i: dense_limit.dense_controller(
                              term, ER_DENSE, graphs.Uniform01(1),
                              self.analytic_draws, seed("analytic", i),
                              registry=self.registry),
                          truth_check(truth, 0, DENSE_GATE, 4.0)))

        def sweep_distance(cv):
            swept = state.get("sweep/mean3/er")
            expect(swept is not None, "no mean-3L sweep to compare with")
            dist = float(np.linalg.norm(swept - cv.estimate[:mean3.classes]))
            expect(dist < SWEEP_LIMIT_GATE,
                   f"sweep mean is {dist:.4f} from the predicted limit")
            return {"dist": dist}

        out.append(net_limit_op("limit/mean3/er", mean3, ER_DENSE,
                                self.net_draws, seed("mean3"),
                                sweep_distance))
        out.append(net_limit_op("limit/mean3/sbm", mean3, SBM,
                                self.net_draws, seed("sbm")))
        for net in self.nested:
            out.append(net_limit_op(f"limit/{net.config.kind}1/er", net,
                                    ER_DENSE, self.nested_draws,
                                    seed(net.config.kind, 1)))
        return out


class SparseRw(Workload):
    """Walk-return encodings on bounded or slowly growing degree graphs.

    The log-schedule ladder straddles the size where rw_encoding_all
    leaves dense matrix powers for per-node balls; single-node calls on
    a preferential-attachment graph reach the Monte-Carlo fallback.
    """

    name = "sparse_rw"
    growth_op = "sweep/rw/er_log2"
    TERM = "mean[u](hadamard(rw(u, 3), mean[v in N(u)](H(v))))"

    def __init__(self, seed, workers, tiny=False):
        super().__init__(seed, workers)
        if tiny:
            self.ladders = (("er_log2", ER_LOG2, (40, 80)),
                            ("er_k3", ER_K3, (60,)),
                            ("ba3", BA3, (50,)))
            self.arch_sizes, self.ba_n, self.single = (50, 100), 300, 3
        else:
            self.ladders = (("er_log2", ER_LOG2, (1000, 2000, 3000)),
                            ("er_k3", ER_K3, (2500, 5000)),
                            ("ba3", BA3, (2000,)))
            self.arch_sizes, self.ba_n, self.single = (5000, 20000), 20000, 10

    def setup(self):
        reg = default_registry()
        self.term = parser.parse_term(self.TERM, 3, registry=reg)
        self.archs = [compile_net("gat", 3, sub_seed(self.seed, "gat"),
                                  hidden=8, classes=4, in_dim=4),
                      compile_net("gcn", 2, sub_seed(self.seed, "gcn"),
                                  hidden=8, classes=4, in_dim=4)]
        self.ba = graphs.sample_graph(BA3, self.ba_n,
                                      sub_seed(self.seed, "ba"))
        deg = self.ba.degrees
        self.hubs = np.argsort(-deg, kind="stable")[:self.single]

    def warm_up(self):
        harness.run_sweep(harness.SweepConfig(
            subject=self.term, model=ER_LOG2,
            feature_dist=graphs.Uniform01(3), sizes=(200,), samples=1,
            seed=sub_seed(self.seed, "warm")))

    def ops(self, pass_seed):
        def seed(*tags):
            return sub_seed(pass_seed, *tags)

        out = []
        for label, model, sizes in self.ladders:
            out.append(sweep_op(f"sweep/rw/{label}", self.term, model,
                                graphs.Uniform01(3), sizes, 1, seed(label),
                                self.workers, rw_term_item_check))
        for net in self.archs:
            kind = net.config.kind
            out.append(sweep_op(f"sweep/{kind}{net.config.layers}/er_k3",
                                net, ER_K3, graphs.Uniform01(4),
                                self.arch_sizes, 2, seed(kind),
                                self.workers, model_item_check(net)))
        uniform = np.random.default_rng(seed("uniform")).choice(
            self.ba.n, size=self.single, replace=False)
        nodes = [int(v) for v in np.concatenate([self.hubs, uniform])]
        out.append(self._single_op(nodes))
        return out

    def _single_op(self, nodes) -> Op:
        graph, kmax = self.ba, 4

        def run():
            return [rw_single(graph, v, kmax) for v in nodes]

        def check(encs):
            exact = two_step_returns(graph)
            for v, enc in zip(nodes, encs):
                expect(enc.shape == (kmax,) and np.all(np.isfinite(enc))
                       and np.all((enc >= 0) & (enc <= 1)),
                       f"rw node {v}: bad encoding {enc}")
                expect(enc[0] == 0.0, f"rw node {v}: one-step return != 0")
                p = float(exact[v])
                # exact path or DEFAULT_WALKS Monte-Carlo walks
                tol = max(REFERENCE_GAP,
                          5.0 * math.sqrt(p * (1 - p) / rw.DEFAULT_WALKS))
                expect(abs(enc[1] - p) <= tol,
                       f"rw node {v}: two-step {enc[1]:.5f} vs {p:.5f}")
            return {}

        return Op("rw/single/ba3", "rw", run, check)


class SparseLimit(Workload):
    """Census-based sparse limits and the censuses themselves; no sweeps.

    Truths: isolated fraction e^-1 and two-step return (1 - e^-1)^2 on
    ER(K=1); a global wmean whose weight reads only the outer node is a
    plain mean, 1/2; the 2-hop wmean on ER(K=2) is 1/2 at every
    non-isolated root because each neighbour's neighbourhood holds the
    root, so (1 - e^-2)/2.
    """

    name = "sparse_limit"

    def __init__(self, seed, workers, tiny=False):
        super().__init__(seed, workers)
        if tiny:
            self.census_n, self.roots, self.mc = 2000, 2000, 100
            self.k1_roots, self.big_roots = 300, 300
            self.ba5_n, self.ba5_roots = 300, 200
        else:
            self.census_n, self.roots, self.mc = 5000, 5000, 4000
            self.k1_roots, self.big_roots = 6000, 10_000
            self.ba5_n, self.ba5_roots = 3000, 3000

    def setup(self):
        reg = default_registry()
        parse = parser.parse_term
        e1 = math.exp(-1.0)
        self.limits = [
            ("isolated", ER_K1, 1, parse(
                "mean[u](sub(1, mean[v in N(u)](1)))", 1, registry=reg),
             truth_check(e1, 0, SPARSE_GATE, 0.0)),
            ("rw2", ER_K1, 2, parse("mean[u](rw(u, 2))", 2, registry=reg),
             self._rw2_check),
            ("gcn", ER_K1, 1, parse(
                "mean[u](gcn[v in N(u)](H(v)))", 1, registry=reg),
             self._gcn_check),
            ("exp_outer", ER_K1, 1, parse(
                "mean[u](wmean[v](H(v), exp, H(u)))", 1, registry=reg),
             truth_check(0.5, 0, SPARSE_GATE, 0.0)),
            ("exp_2hop", ER_K2, 1, parse(
                "mean[u](wmean[v in N(u)](mean[w in N(v)](H(w)), exp, H(v)))",
                1, registry=reg),
             truth_check((1.0 - math.exp(-2.0)) / 2.0, 0, SPARSE_GATE, 0.0)),
        ]

    def warm_up(self):
        census.neighborhood_census(ER_K1, 1000, 1, 1, 200,
                                   sub_seed(self.seed, "warm"))

    @staticmethod
    def _rw2_check(cv):
        expect(float(cv.estimate[0]) == 0.0, "one-step return is not 0")
        return truth_check((1.0 - math.exp(-1.0)) ** 2, 1, SPARSE_GATE,
                           0.0)(cv)

    @staticmethod
    def _gcn_check(cv):
        # no gate: eps truncation biases this term low by about 0.015
        # against 0.5 * E[sqrt(D)]^2, close to the 0.03 sparse gate
        est = cv.estimate
        expect(np.all(np.isfinite(est)) and np.all(est >= 0),
               f"gcn limit {est} is not a finite nonnegative value")
        return {}

    def ops(self, pass_seed):
        def seed(*tags):
            return sub_seed(pass_seed, *tags)

        cfg = sparse.CensusConfig(n=self.census_n, node_samples=self.roots)
        out = []
        for label, model, d, term, check in self.limits:
            out.append(Op(f"limit/{label}", "limit",
                          lambda model=model, d=d, term=term, label=label:
                          sparse.sparse_limit(term, model,
                                              graphs.Uniform01(d), cfg,
                                              self.mc, seed(label)),
                          check))
        tables: dict = {}

        def census_op(name, model, n, radius, k, roots, check):
            def run():
                return census.neighborhood_census(model, n, radius, k,
                                                  roots, seed(name))

            def checked(table):
                check_census_mass(table, name)
                check(table)
                tables[name] = table
                return {"roots": tallied(table)}

            return Op(name, "census", run, checked)

        def stable(table):
            check_min_root_degree(table, 5, "ba5")
            first = tables.get("census/ba5_r1/a")
            expect(first is not None, "no first BA(5) census to compare")
            for code in set(first.proportions) | set(table.proportions):
                a = first.proportions.get(code, 0.0)
                b = table.proportions.get(code, 0.0)
                tol = law_tolerance((a * (1 - a) + b * (1 - b))
                                    / table.sample_size)
                expect(max(a, b) <= 0.01 or abs(a - b) <= tol,
                       f"ba5 census class mass {a:.4f} vs {b:.4f}")

        out += [
            census_op("census/er_k1_r1", ER_K1, self.census_n, 1, 1,
                      self.k1_roots, lambda t: check_degree_law(
                          t, 1.0, "er_k1_r1", top=6)),
            census_op("census/ba5_r1/a", BA5, self.ba5_n, 1, 1,
                      self.ba5_roots,
                      lambda t: check_min_root_degree(t, 5, "ba5")),
            census_op("census/ba5_r1/b", BA5, self.ba5_n, 1, 1,
                      self.ba5_roots, stable),
            census_op("census/ba3_r2", BA3, self.census_n, 2, 1,
                      self.big_roots,
                      lambda t: check_min_root_degree(t, 3, "ba3_r2")),
            census_op("census/er_k2_r3", ER_K2, self.census_n, 3, 1,
                      self.big_roots, lambda t: check_degree_law(
                          t, 2.0, "er_k2_r3")),
            census_op("census/er_k1_k2", ER_K1, self.census_n, 1, 2,
                      self.roots, lambda t: check_degree_law(
                          t, 1.0, "er_k1_k2", top=6)),
        ]
        return out


WORKLOADS = {cls.name: cls for cls in (DenseCheck, SparseRw, SparseLimit)}
