"""Function registry backing the Apply nodes and weight maps.

Every registered function maps a list of (m, d) float arrays to one (m, d)
array. Functions flagged `positive` may be used as weight maps; positivity
is spot-checked on random inputs at registration time, which catches the
common mistake of registering relu or a linear map as a weight.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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


class FunctionRegistry:
    def __init__(self):
        self._entries: dict[str, RegistryEntry] = {}

    def register(self, name: str, arity: Optional[int], fn: Callable,
                 positive: bool = False) -> None:
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
        self._entries[name] = RegistryEntry(name, arity, fn, positive)

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


def _check_positive(name: str, fn: Callable) -> None:
    rng = np.random.default_rng(0)
    for _ in range(4):
        x = rng.uniform(-10.0, 10.0, size=(3, 5))
        y = np.asarray(fn(x))
        if y.shape != x.shape or not np.all(np.isfinite(y)) or not np.all(y > 0):
            raise ConfigError(
                f"function {name!r} is not strictly positive on sample inputs")


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
    reg = FunctionRegistry()
    reg.register("one", 1, np.ones_like, positive=True)
    reg.register("exp", 1, np.exp, positive=True)
    reg.register("softplus", 1, lambda x: np.logaddexp(0.0, x), positive=True)
    reg.register("relu", 1, lambda x: np.maximum(x, 0.0))
    reg.register("sigmoid", 1, _sigmoid)
    reg.register("softmax", 1, _softmax)
    reg.register("add", 2, np.add)
    reg.register("sub", 2, np.subtract)
    reg.register("hadamard", 2, np.multiply)
    reg.register("dot_scaled", 2, _dot_scaled)
    reg.register("concat_pad", None, _concat_pad)
    return reg
