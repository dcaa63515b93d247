"""Function registry backing the Apply nodes and weight maps.

Every registered function maps a list of (m, d) float arrays to one (m, d)
array. Functions flagged `positive` may be used as weight maps; positivity
is spot-checked on random inputs at registration time, which catches the
common mistake of registering relu or a linear map as a weight.

A two-argument function whose value on a pair of rows is one scalar score,
repeated across all d components, may also carry a score form, which
computes that score for many pairs without the d-wide call. There are two
kinds:

* bilinear, `pairwise=`: pairwise(F, G) takes (m, d) and (k, d) arrays and
  returns the (m, k) matrix of scores of every row of F against every row
  of G, so that fn(F[i], G[j]) == pairwise(F, G)[i, j] in each component.
  `dot_scaled` carries F @ G.T / sqrt(d).
* additive, `additive=(alpha, beta)`: alpha(F) is (m,) and beta(G) is
  (k,), and the score of a pair is alpha(F)[i] + beta(G)[j], so the score
  matrix is alpha(F)[:, None] + beta(G)[None, :]. GAT's score
  a . [W h(v) || W h(u)] has this form.

A one-argument function may be declared `elementwise`: each output entry
depends only on the same input entry, so it may be applied to a score
matrix or a vector of scores as well as to (m, d) blocks. relu, sigmoid,
exp, softplus and GAT's leaky02 are.

The evaluator takes an exp-weighted mean whose weight argument is an
optional elementwise function of a function with a score form as one
scalar per pair, instead of expanding the pairs (evaluate.plan). Both
declarations are spot-checked against fn on random inputs at registration
time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, EvaluationError
from .terms import RESERVED

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    arity: Optional[int]  # None means variadic, at least one argument
    fn: Callable
    positive: bool
    pairwise: Optional[Callable] = None
    additive: Optional[Tuple[Callable, Callable]] = None
    elementwise: bool = False

    @property
    def scored(self) -> bool:
        """Whether the function carries a score form of either kind."""
        return self.pairwise is not None or self.additive is not None


class FunctionRegistry:
    def __init__(self):
        self._entries: dict[str, RegistryEntry] = {}

    def register(self, name: str, arity: Optional[int], fn: Callable,
                 positive: bool = False,
                 pairwise: Optional[Callable] = None,
                 additive: Optional[Tuple[Callable, Callable]] = None,
                 elementwise: bool = False, width: int = 5) -> None:
        """Add fn under name. width is the row width the score form's spot
        check samples, for a function that accepts only one."""
        if not _IDENT.match(name) or name in RESERVED:
            raise ConfigError(f"bad function name {name!r}")
        if name in self._entries:
            raise ConfigError(f"function {name!r} already registered")
        if arity is not None and arity < 0:
            raise ConfigError("arity must be >= 0 or None")
        if positive:
            if arity not in (1, None):
                raise ConfigError("weight maps must take one argument")
            _check_positive(name, fn)
        if pairwise is not None or additive is not None:
            if arity != 2:
                raise ConfigError("a score form needs a two-argument function")
            if pairwise is not None and additive is not None:
                raise ConfigError("a function carries one score form, not two")
            if additive is not None:
                additive = tuple(additive)
            _check_pairwise(name, fn, pairwise if additive is None
                            else partial(_additive_matrix, *additive), width)
        if elementwise:
            if arity != 1:
                raise ConfigError("an elementwise function takes one argument")
            _check_elementwise(name, fn)
        self._entries[name] = RegistryEntry(name, arity, fn, positive,
                                            pairwise, additive, elementwise)

    def entry(self, name: str) -> RegistryEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigError(f"unknown function {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def names(self) -> list[str]:
        return sorted(self._entries)

    def call(self, name: str, args: Sequence[np.ndarray]) -> np.ndarray:
        entry = self.entry(name)
        if entry.arity is not None and len(args) != entry.arity:
            raise EvaluationError(
                f"{name} expects {entry.arity} argument(s), got {len(args)}")
        if entry.arity is None and not args:
            raise EvaluationError(f"{name} needs at least one argument")
        out = np.asarray(entry.fn(*args), dtype=np.float64)
        if args and out.shape != args[0].shape:
            raise EvaluationError(
                f"{name} returned shape {out.shape}, expected {args[0].shape}")
        return out

    def call_pairwise(self, name: str, x: np.ndarray,
                      y: np.ndarray) -> np.ndarray:
        """The (len(x), len(y)) matrix of name's scores of every row pair."""
        entry = self.entry(name)
        if entry.additive is not None:
            return _additive_matrix(*entry.additive, x, y, name)
        out = np.asarray(entry.pairwise(x, y), dtype=np.float64)
        if out.shape != (x.shape[0], y.shape[0]):
            raise EvaluationError(
                f"pairwise {name} returned shape {out.shape}, expected "
                f"{(x.shape[0], y.shape[0])}")
        return out

    def call_pairs(self, name: str, x: np.ndarray, y: np.ndarray,
                   i: np.ndarray,
                   j: Optional[np.ndarray] = None) -> np.ndarray:
        """name's scores of the row pairs (x[i[e]], y[j[e]]), one per e;
        j=None pairs the rows of y in order. An additive form computes
        alpha and beta once per row of x and y; a bilinear one calls the
        function on the gathered rows."""
        entry = self.entry(name)
        if entry.additive is None:
            return self.call(name, [x[i], y if j is None else y[j]])[:, 0]
        alpha, beta = _sides(*entry.additive, x, y, name)
        return alpha[i] + (beta if j is None else beta[j])


def _check_positive(name: str, fn: Callable) -> None:
    rng = np.random.default_rng(0)
    for _ in range(4):
        x = rng.uniform(-10.0, 10.0, size=(3, 5))
        y = np.asarray(fn(x))
        if y.shape != x.shape or not np.all(np.isfinite(y)) or not np.all(y > 0):
            raise ConfigError(
                f"function {name!r} is not strictly positive on sample inputs")


def _sides(alpha: Callable, beta: Callable, x: np.ndarray, y: np.ndarray,
           name: str = "") -> tuple:
    """An additive form's alpha(x) and beta(y), one score term per row."""
    a = np.asarray(alpha(x), dtype=np.float64)
    b = np.asarray(beta(y), dtype=np.float64)
    if a.shape != (x.shape[0],) or b.shape != (y.shape[0],):
        raise EvaluationError(
            f"additive {name} returned shapes {a.shape} and {b.shape}, "
            f"expected {(x.shape[0],)} and {(y.shape[0],)}")
    return a, b


def _additive_matrix(alpha: Callable, beta: Callable, x: np.ndarray,
                     y: np.ndarray, name: str = "") -> np.ndarray:
    a, b = _sides(alpha, beta, x, y, name)
    return a[:, None] + b[None, :]


def _check_pairwise(name: str, fn: Callable, pairwise: Callable,
                    width: int) -> None:
    rng = np.random.default_rng(0)
    x = rng.uniform(-3.0, 3.0, size=(3, width))
    y = rng.uniform(-3.0, 3.0, size=(4, width))
    try:
        s = np.asarray(pairwise(x, y), dtype=np.float64)
        ok = s.shape == (3, 4) and np.all(np.isfinite(s))
        if ok:
            # every (row of x, row of y) pair, in row-major order of s
            pairs = np.asarray(fn(np.repeat(x, 4, axis=0), np.tile(y, (3, 1))))
            ok = pairs.shape == (12, width) and np.allclose(
                pairs, s.reshape(-1, 1), rtol=1e-12, atol=1e-12)
    except (ValueError, EvaluationError):
        ok = False
    if not ok:
        raise ConfigError(
            f"score form of {name!r} does not match it on sample inputs")


def _check_elementwise(name: str, fn: Callable) -> None:
    """fn must give the same entries on a block, on its entries one per row
    and on its transpose."""
    x = np.random.default_rng(0).uniform(-10.0, 10.0, size=(3, 5))
    try:
        y = np.asarray(fn(x), dtype=np.float64)
        ok = y.shape == x.shape and all(
            np.allclose(y, other, rtol=1e-12, atol=1e-12, equal_nan=True)
            for other in (np.asarray(fn(x.reshape(-1, 1))).reshape(x.shape),
                          np.asarray(fn(np.ascontiguousarray(x.T))).T))
    except (ValueError, EvaluationError):
        ok = False
    if not ok:
        raise ConfigError(
            f"function {name!r} is not elementwise on sample inputs")


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softmax(x):
    z = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _dot_scaled(x, y):
    s = np.sum(x * y, axis=-1, keepdims=True) / np.sqrt(x.shape[-1])
    return np.broadcast_to(s, x.shape)


def _dot_scaled_pairwise(x, y):
    return (x @ y.T) / np.sqrt(x.shape[-1])


def fit_width(arr: np.ndarray, d: int) -> np.ndarray:
    """Truncate or zero-pad the last axis of arr to width d."""
    width = arr.shape[-1]
    if width >= d:
        return arr[..., :d]
    return np.concatenate([arr, np.zeros(arr.shape[:-1] + (d - width,))],
                          axis=-1)


def _concat_pad(*args):
    return fit_width(np.concatenate(args, axis=-1), args[0].shape[-1])


def make_leaky_relu(alpha: float) -> Callable:
    return lambda x: np.where(x >= 0, x, alpha * x)


def make_linear(weight: np.ndarray, bias: np.ndarray) -> Callable:
    """Map k stacked d-vectors through a d x (k*d) matrix plus bias.

    The arguments are concatenated along the feature axis, so a 1-ary
    linear is the usual W @ x + b applied rowwise.
    """
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if weight.ndim != 2 or bias.ndim != 1 or weight.shape[0] != bias.shape[0]:
        raise ConfigError("linear needs a 2-d weight and matching 1-d bias")

    def fn(*args):
        x = np.concatenate(args, axis=-1)
        if x.shape[-1] != weight.shape[1]:
            raise EvaluationError(
                f"linear expects input width {weight.shape[1]}, got {x.shape[-1]}")
        return x @ weight.T + bias

    return fn


def make_concat_pad(widths: Sequence[int]) -> Callable:
    """Concatenate per-argument prefixes of the given widths, then fit to d.

    Used to pack several narrow payloads into one d-vector when each payload
    arrives padded out to d already.
    """
    widths = tuple(int(w) for w in widths)
    if any(w < 1 for w in widths):
        raise ConfigError("widths must be positive")

    def fn(*args):
        if len(args) != len(widths):
            raise EvaluationError(
                f"concat_pad expects {len(widths)} arguments, got {len(args)}")
        flat = np.concatenate([a[..., :w] for a, w in zip(args, widths)], axis=-1)
        return fit_width(flat, args[0].shape[-1])

    return fn


def default_registry() -> FunctionRegistry:
    """A fresh registry holding the built-in functions."""
    reg = FunctionRegistry()
    reg._entries.update(_default_entries())
    return reg


@lru_cache(maxsize=None)
def _default_entries() -> tuple:
    """The built-in functions' entries, spot-checked once per process
    rather than at every default_registry() call; entries are immutable."""
    reg = FunctionRegistry()
    reg.register("one", 1, np.ones_like, positive=True)
    reg.register("exp", 1, np.exp, positive=True, elementwise=True)
    reg.register("softplus", 1, lambda x: np.logaddexp(0.0, x), positive=True,
                 elementwise=True)
    reg.register("relu", 1, lambda x: np.maximum(x, 0.0), elementwise=True)
    reg.register("sigmoid", 1, _sigmoid, elementwise=True)
    reg.register("softmax", 1, _softmax)
    reg.register("add", 2, np.add)
    reg.register("sub", 2, np.subtract)
    reg.register("hadamard", 2, np.multiply)
    reg.register("dot_scaled", 2, _dot_scaled, pairwise=_dot_scaled_pairwise)
    reg.register("concat_pad", None, _concat_pad)
    return tuple(reg._entries.items())
