"""Compilation of message-passing architectures into closed terms.

Supported kinds and their layer updates, writing h for the previous layer:

  mean     h'(v) = act(W [h(v); avg_{u~v} h(u); (avg_u h(u))] + b)
  gcn      h'(v) = sum_{u~v} W h(u) / sqrt(deg(v) deg(u))
  gat      h'(v) = sum_{u~v} softmax_u(score(v,u)) W h(u)
           score(v,u) = leaky_relu(a . [W h(v) || W h(u)], slope 0.2)
  gps      h'(v) = att(v) + mpnn(v), where att attends over all nodes with
           softmax of (Q h(v) . K h(u)) / sqrt(dim) and values V h(u), and
           mpnn is the `mean` update above
  gps_rw   gps with walk-return encodings rw(v, k) concatenated onto the
           input features

After the last layer the node vectors are mean-pooled, mapped through the
output head, and normalized with softmax. Aggregates over an empty
neighborhood are zero vectors.

Everything is compiled in one ambient dimension d, the maximum of the
input, hidden, and class widths. True-shape weight matrices are embedded
as blocks into d x (k*d) maps that ignore padding coordinates, so the
compiled term reproduces the true-dimension forward pass exactly; output
coordinates past the class count come out of the softmax as exact zeros
because the head gives them a -1e9 bias.

reference_forward is an independent per-node implementation in true
dimensions, used to cross-check the compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, as_int
from .graphs import FeaturedGraph
from .registry import (FunctionRegistry, default_registry, make_leaky_relu,
                       make_linear, make_concat_pad)
from .rng import stream
from .rw import rw_encoding_all
from .terms import (Apply, Feature, GcnAgg, GlobalWMean, LocalWMean,
                    Rw, Term)

KINDS = ("mean", "gcn", "gat", "gps", "gps_rw")

_ALIASES = {
    "mean": "mean", "meangnn": "mean", "mean_gnn": "mean",
    "gcn": "gcn",
    "gat": "gat",
    "gps": "gps",
    "gps_rw": "gps_rw", "gps+rw": "gps_rw", "gpsrw": "gps_rw",
}

_READOUT_KINDS = ("mean", "gps", "gps_rw")

_HEAD_MASK = -1e9
_GAT_SLOPE = 0.2


def canonical_kind(name: str) -> str:
    try:
        return _ALIASES[name.strip().lower()]
    except KeyError:
        raise ConfigError(f"unknown architecture kind {name!r}") from None


@dataclass(frozen=True)
class ArchConfig:
    kind: str
    layers: int
    hidden: int
    classes: int
    in_dim: int
    rw_len: Optional[int] = None
    activation: str = "relu"
    skips: tuple[tuple[int, int], ...] = ()
    global_readout: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kind", canonical_kind(self.kind))
        for name in ("layers", "hidden", "classes", "in_dim") + (
                () if self.rw_len is None else ("rw_len",)):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        object.__setattr__(self, "skips", tuple(
            (as_int(a, "skip layer"), as_int(b, "skip layer"))
            for a, b in self.skips))
        if self.layers < 1:
            raise ConfigError("need at least one layer")
        if min(self.hidden, self.classes, self.in_dim) < 1:
            raise ConfigError("dimensions must be >= 1")
        if self.kind == "gps_rw":
            if self.rw_len is None or self.rw_len < 1:
                raise ConfigError("gps_rw needs rw_len >= 1")
        elif self.rw_len is not None:
            raise ConfigError(f"rw_len only applies to gps_rw, not {self.kind}")
        if self.activation not in ("relu", "sigmoid"):
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.global_readout and self.kind not in _READOUT_KINDS:
            raise ConfigError(
                f"global readout needs an update with a linear slot; "
                f"{self.kind} has none")
        seen = set()
        for l1, l2 in self.skips:
            if not (0 <= l1 < l2 <= self.layers):
                raise ConfigError(f"bad skip connection ({l1}, {l2})")
            if (l1, l2) in seen:
                raise ConfigError(f"duplicate skip connection ({l1}, {l2})")
            seen.add((l1, l2))
            if l1 == 0 and self.in_width != self.hidden:
                raise ConfigError(
                    "a skip from the input needs input width == hidden "
                    f"({self.in_width} != {self.hidden})")

    @property
    def in_width(self) -> int:
        return self.in_dim + (self.rw_len if self.kind == "gps_rw" else 0)

    def layer_width(self, layer: int) -> int:
        return self.in_width if layer == 0 else self.hidden


def program_dim(config: ArchConfig) -> int:
    return max(config.in_width, config.hidden, config.classes)


@dataclass(frozen=True)
class WeightSet:
    layers: tuple[dict, ...]
    head_w: np.ndarray
    head_b: np.ndarray


def _uniform(rng, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    arr = rng.uniform(-bound, bound, size=shape)
    arr.flags.writeable = False
    return arr


def init_weights(config: ArchConfig, seed: int) -> WeightSet:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) entries, keyed per matrix."""
    layers = []
    for l in range(1, config.layers + 1):
        w_in = config.layer_width(l - 1)
        h = config.hidden

        def draw(name, fan_in, shape, l=l):
            return _uniform(stream(seed, "weights", l, name), fan_in, shape)

        if config.kind == "mean":
            k = 3 if config.global_readout else 2
            layers.append({
                "w": draw("w", k * w_in, (h, k * w_in)),
                "b": draw("b", k * w_in, (h,)),
            })
        elif config.kind == "gcn":
            layers.append({"w": draw("w", w_in, (h, w_in))})
        elif config.kind == "gat":
            layers.append({
                "w": draw("w", w_in, (h, w_in)),
                "a": draw("a", 2 * h, (2 * h,)),
            })
        else:  # gps, gps_rw
            k = 3 if config.global_readout else 2
            layers.append({
                "m_w": draw("m_w", k * w_in, (h, k * w_in)),
                "m_b": draw("m_b", k * w_in, (h,)),
                "v_w": draw("v_w", w_in, (h, w_in)),
                "q_w": draw("q_w", w_in, (h, w_in)),
                "k_w": draw("k_w", w_in, (h, w_in)),
            })
    head_rng = stream(seed, "weights", "head")
    bound = 1.0 / np.sqrt(config.hidden)
    head_w = head_rng.uniform(-bound, bound, size=(config.classes, config.hidden))
    head_b = head_rng.uniform(-bound, bound, size=(config.classes,))
    head_w.flags.writeable = False
    head_b.flags.writeable = False
    return WeightSet(tuple(layers), head_w, head_b)


def _embed_linear(w_true: np.ndarray, b_true: Optional[np.ndarray],
                  d: int, k: int, mask_from: Optional[int] = None):
    """Place a true (out, k*w_in) map into d x (k*d), zero elsewhere.

    Padded input coordinates hit zero columns and padded outputs get zero
    rows, so the embedded map commutes with zero padding. mask_from fills
    the trailing bias entries with a large negative number instead of
    zero, which a following softmax turns into exact zeros.
    """
    out_w = w_true.shape[0]
    w_in = w_true.shape[1] // k
    w = np.zeros((d, k * d))
    for j in range(k):
        w[:out_w, j * d:j * d + w_in] = w_true[:, j * w_in:(j + 1) * w_in]
    b = np.zeros(d)
    if b_true is not None:
        b[:out_w] = b_true
    if mask_from is not None:
        b[mask_from:] = _HEAD_MASK
    return w, b


@dataclass(frozen=True)
class CompiledModel:
    """A closed term plus the registry carrying its embedded weights."""
    term: Term
    registry: FunctionRegistry
    dim: int
    classes: int
    in_dim: int
    config: ArchConfig
    weights: WeightSet = field(repr=False)

    def pad_features(self, feats: np.ndarray) -> np.ndarray:
        feats = np.asarray(feats, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] != self.in_dim:
            raise ConfigError(
                f"expected (n, {self.in_dim}) features, got {feats.shape}")
        if self.dim == self.in_dim:
            return feats
        pad = np.zeros((feats.shape[0], self.dim - self.in_dim))
        return np.concatenate([feats, pad], axis=1)

    def prepare(self, graph: FeaturedGraph) -> FeaturedGraph:
        """Zero-pad a graph's true input features up to the ambient dim."""
        return graph.with_features(self.pad_features(graph.features))

    def run(self, graph: FeaturedGraph, full: bool = False) -> np.ndarray:
        """Forward pass via term evaluation; features must be (n, in_dim)."""
        from .evaluate import eval_closed
        out = eval_closed(self.term, self.prepare(graph), self.registry)
        return out if full else out[:self.classes]


def compile_architecture(config: ArchConfig, weights: WeightSet) -> CompiledModel:
    _check_shapes(config, weights)
    d = program_dim(config)
    reg = default_registry()
    if config.kind == "gat":
        reg.register("leaky02", 1, make_leaky_relu(_GAT_SLOPE),
                     elementwise=True)
    if config.kind == "gps_rw":
        reg.register("pack_rw", 2,
                     make_concat_pad((config.in_dim, config.rw_len)))
        tau: Term = Apply("pack_rw", (Feature("x"), Rw("x", config.rw_len)))
    else:
        tau = Feature("x")
    act = config.activation
    layer_terms = [tau]

    for l in range(1, config.layers + 1):
        lw = weights.layers[l - 1]
        prev = layer_terms[l - 1]
        yl, zl, gl = f"y{l}", f"z{l}", f"g{l}"
        prev_y = _rename(prev, yl)
        if config.kind == "mean":
            args = [prev, LocalWMean(yl, "x", prev_y, "one", prev_y)]
            if config.global_readout:
                prev_g = _rename(prev, gl)
                args.append(GlobalWMean(gl, prev_g, "one", prev_g))
            w, b = _embed_linear(lw["w"], lw["b"], d, len(args))
            reg.register(f"upd{l}", len(args), make_linear(w, b))
            update: Term = Apply(act, (Apply(f"upd{l}", tuple(args)),))
        elif config.kind == "gcn":
            w, b = _embed_linear(lw["w"], None, d, 1)
            reg.register(f"w{l}", 1, make_linear(w, b))
            update = GcnAgg(yl, "x", Apply(f"w{l}", (prev_y,)))
        elif config.kind == "gat":
            w, b = _embed_linear(lw["w"], None, d, 1)
            reg.register(f"w{l}", 1, make_linear(w, b))
            # one score row a.[Wh(v) || Wh(u)], repeated across all d
            # coordinates so the scalar broadcasts through exp weights; it is
            # alpha(h(v)) + beta(h(u)), the additive form the evaluator
            # scores each edge with
            h = config.hidden
            row = np.concatenate([lw["a"][:h] @ lw["w"], lw["a"][h:] @ lw["w"]])
            score_true = np.tile(row, (d, 1))
            sw, sb = _embed_linear(score_true, None, d, 2)
            left, right = sw[0, :d].copy(), sw[0, d:].copy()
            reg.register(f"att{l}", 2, make_linear(sw, sb),
                         additive=(lambda f, u=left: f @ u,
                                   lambda g, u=right: g @ u), width=d)
            score = Apply("leaky02", (Apply(f"att{l}", (prev, prev_y)),))
            update = LocalWMean(yl, "x", Apply(f"w{l}", (prev_y,)), "exp", score)
        else:  # gps, gps_rw
            prev_z = _rename(prev, zl)
            for name in ("v", "q", "k"):
                w, b = _embed_linear(lw[f"{name}_w"], None, d, 1)
                reg.register(f"{name}{l}", 1, make_linear(w, b))
            scale = Apply("dot_scaled", (Apply(f"q{l}", (prev,)),
                                         Apply(f"k{l}", (prev_z,))))
            att = GlobalWMean(zl, Apply(f"v{l}", (prev_z,)), "exp", scale)
            args = [prev, LocalWMean(yl, "x", prev_y, "one", prev_y)]
            if config.global_readout:
                prev_g = _rename(prev, gl)
                args.append(GlobalWMean(gl, prev_g, "one", prev_g))
            w, b = _embed_linear(lw["m_w"], lw["m_b"], d, len(args))
            reg.register(f"m{l}", len(args), make_linear(w, b))
            mpnn = Apply(act, (Apply(f"m{l}", tuple(args)),))
            update = Apply("add", (att, mpnn))
        for l1, l2 in sorted(config.skips):
            if l2 == l:
                update = Apply("add", (update, layer_terms[l1]))
        layer_terms.append(update)

    w, b = _embed_linear(weights.head_w, weights.head_b, d, 1,
                         mask_from=config.classes)
    reg.register("head", 1, make_linear(w, b))
    pooled_body = _rename(layer_terms[-1], "p")
    pooled = GlobalWMean("p", pooled_body, "one", pooled_body)
    term = Apply("softmax", (Apply("head", (pooled,)),))
    return CompiledModel(term, reg, d, config.classes, config.in_dim,
                         config, weights)


def _rename(term: Term, var: str) -> Term:
    from .terms import substitute
    return substitute(term, {"x": var})


def _check_shapes(config: ArchConfig, weights: WeightSet) -> None:
    if len(weights.layers) != config.layers:
        raise ConfigError(
            f"weights have {len(weights.layers)} layer(s), config wants "
            f"{config.layers}")
    expect = init_weights(config, 0)
    for l, (got, want) in enumerate(zip(weights.layers, expect.layers), start=1):
        if set(got) != set(want):
            raise ConfigError(
                f"layer {l} weights have keys {sorted(got)}, expected "
                f"{sorted(want)}")
        for name in want:
            if np.asarray(got[name]).shape != want[name].shape:
                raise ConfigError(
                    f"layer {l} weight {name!r} has shape "
                    f"{np.asarray(got[name]).shape}, expected {want[name].shape}")
    if weights.head_w.shape != (config.classes, config.hidden):
        raise ConfigError(
            f"head weight shape {weights.head_w.shape} does not match "
            f"({config.classes}, {config.hidden})")
    if weights.head_b.shape != (config.classes,):
        raise ConfigError("head bias shape does not match the class count")


# ---------------------------------------------------------------------------
# independent reference implementation, true dimensions throughout


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "relu":
        return np.maximum(z, 0.0)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_forward(config: ArchConfig, weights: WeightSet,
                      graph: FeaturedGraph) -> np.ndarray:
    """Plain message-passing forward pass, one node at a time."""
    _check_shapes(config, weights)
    feats = np.asarray(graph.features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != config.in_dim:
        raise ConfigError(
            f"expected (n, {config.in_dim}) features, got {feats.shape}")
    n = graph.n
    if config.kind == "gps_rw":
        h = np.concatenate([feats, rw_encoding_all(graph, config.rw_len)], axis=1)
    else:
        h = feats.copy()
    history = [h]
    deg = graph.degrees
    d_amb = program_dim(config)

    for l in range(1, config.layers + 1):
        lw = weights.layers[l - 1]
        prev = history[-1]
        new = np.zeros((n, config.hidden))
        if config.kind == "mean":
            parts_tail = [prev.mean(axis=0)] if config.global_readout else []
            for v in range(n):
                nbrs = graph.neighbors(v)
                agg = prev[nbrs].mean(axis=0) if len(nbrs) else np.zeros(prev.shape[1])
                x = np.concatenate([prev[v], agg, *parts_tail])
                new[v] = _act(config.activation, lw["w"] @ x + lw["b"])
        elif config.kind == "gcn":
            for v in range(n):
                for u in graph.neighbors(v):
                    new[v] += (lw["w"] @ prev[u]) / np.sqrt(deg[v] * deg[u])
        elif config.kind == "gat":
            wh = prev @ lw["w"].T
            a1, a2 = lw["a"][:config.hidden], lw["a"][config.hidden:]
            for v in range(n):
                nbrs = graph.neighbors(v)
                if not len(nbrs):
                    continue
                s = a1 @ wh[v] + wh[nbrs] @ a2
                s = np.where(s >= 0, s, _GAT_SLOPE * s)
                alpha = np.exp(s - s.max())
                alpha /= alpha.sum()
                new[v] = alpha @ wh[nbrs]
        else:  # gps, gps_rw
            wh_v = prev @ lw["v_w"].T
            wh_q = prev @ lw["q_w"].T
            wh_k = prev @ lw["k_w"].T
            parts_tail = [prev.mean(axis=0)] if config.global_readout else []
            for v in range(n):
                e = (wh_k @ wh_q[v]) / np.sqrt(d_amb)
                alpha = np.exp(e - e.max())
                alpha /= alpha.sum()
                att = alpha @ wh_v
                nbrs = graph.neighbors(v)
                agg = prev[nbrs].mean(axis=0) if len(nbrs) else np.zeros(prev.shape[1])
                x = np.concatenate([prev[v], agg, *parts_tail])
                new[v] = att + _act(config.activation, lw["m_w"] @ x + lw["m_b"])
        for l1, l2 in sorted(config.skips):
            if l2 == l:
                new = new + history[l1]
        history.append(new)

    pooled = history[-1].mean(axis=0)
    logits = weights.head_w @ pooled + weights.head_b
    z = np.exp(logits - logits.max())
    return z / z.sum()
