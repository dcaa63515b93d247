"""JSON-friendly specs for models, schedules, features, and architectures.

The CLI and the sweep provenance hash both need a stable text form of every
configurable object. Specs are plain dicts with a discriminator key ("kind"
for schedules and features, "family" for graph models), so config files
stay hand-editable and diffable. One codec serves every spec class: field
names and types come from the dataclasses, which check their own ranges.
from_spec converts each value by its declared type, so a mistyped value
fails as ConfigError naming the group, the field and the value instead of
being cast.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from functools import partial
from typing import Union, get_args, get_origin, get_type_hints

from .architectures import ArchConfig
from .errors import ConfigError, as_int
from .graphs import (AlternatingSchedule, BaModel, BernoulliFeatures,
                     ConstantFeatures, DenseSchedule, ErModel, LogSchedule,
                     PaddedFeatures, RootSchedule, SbmModel, SparseSchedule,
                     Uniform01, UniformRange)

__all__ = [
    "to_spec", "from_spec", "schedule_to_spec", "schedule_from_spec",
    "model_to_spec", "model_from_spec", "features_to_spec",
    "features_from_spec", "arch_to_spec", "arch_from_spec",
    "canonical_json", "spec_digest",
]

# group -> (discriminator key, {discriminator value: spec class})
_GROUPS = {
    "schedule": ("kind", {"dense": DenseSchedule, "root": RootSchedule,
                          "log": LogSchedule, "sparse": SparseSchedule,
                          "alternating": AlternatingSchedule}),
    "model": ("family", {"er": ErModel, "sbm": SbmModel, "ba": BaModel}),
    "features": ("kind", {"uniform01": Uniform01, "uniform": UniformRange,
                          "bernoulli": BernoulliFeatures,
                          "constant": ConstantFeatures,
                          "padded": PaddedFeatures}),
    "architecture": (None, {None: ArchConfig}),
}

# spec class -> (group, discriminator key, discriminator value)
_TAGS = {cls: (group, key, tag) for group, (key, classes) in _GROUPS.items()
         for tag, cls in classes.items()}


def to_spec(obj) -> dict:
    """The spec dict of any spec object, JSON-serializable as-is."""
    if type(obj) not in _TAGS:
        raise ConfigError(f"not a spec object: {obj!r}")
    _, key, tag = _TAGS[type(obj)]
    spec = {} if key is None else {key: tag}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is not None or f.default is not None:
            spec[f.name] = _plain(value)
    return spec


def _plain(value):
    if type(value) in _TAGS:
        return to_spec(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def from_spec(group: str, spec):
    """The spec object a group's spec dict describes, validated."""
    key, classes = _GROUPS[group]
    if not isinstance(spec, dict):
        raise ConfigError(f"{group} spec must be an object, got {type(spec).__name__}")
    if key is not None and key not in spec:
        raise ConfigError(f"{group} spec is missing {key!r}: {spec!r}")
    tag = spec.get(key)
    cls = classes.get(tag) if isinstance(tag, str) or tag is None else None
    if cls is None:
        raise ConfigError(f"unknown {group} {key} {tag!r}")
    fields = dataclasses.fields(cls)
    extras = sorted(set(spec) - {f.name for f in fields} - {key})
    if extras:
        raise ConfigError(f"unknown {group} keys {extras}")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields:
        if f.name in spec:
            kwargs[f.name] = _convert(hints[f.name], spec[f.name],
                                      f"{group} field {f.name!r}")
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"{group} spec is missing {f.name!r}: {spec!r}")
    return cls(**kwargs)


def _convert(tp, value, what: str):
    """value as the declared type tp, or ConfigError naming what and value."""
    args = get_args(tp)
    if tp is int:
        return as_int(value, what)
    if (tp is float and isinstance(value, (int, float))
            and not isinstance(value, bool) and abs(value) <= sys.float_info.max):
        return float(value)
    if tp in (str, bool) and type(value) is tp:
        return value
    if get_origin(tp) is Union:
        if value is None and type(None) in args:
            return None
        rest = [a for a in args if a is not type(None)]
        if len(rest) == 1:
            return _convert(rest[0], value, what)
        # a union of spec classes is one group's nested spec
        return from_spec(_TAGS[rest[0]][0], value)
    if get_origin(tp) is tuple and isinstance(value, (list, tuple)):
        if args[-1] is Ellipsis:
            return tuple(_convert(args[0], v, what) for v in value)
        if len(value) == len(args):
            return tuple(_convert(a, v, what) for a, v in zip(args, value))
    name = tp.__name__ if isinstance(tp, type) else repr(tp).replace("typing.", "")
    raise ConfigError(f"{what} must be {name}, got {value!r}")


schedule_to_spec = model_to_spec = features_to_spec = arch_to_spec = to_spec
schedule_from_spec = partial(from_spec, "schedule")
model_from_spec = partial(from_spec, "model")
features_from_spec = partial(from_spec, "features")
arch_from_spec = partial(from_spec, "architecture")


# hashing -----------------------------------------------------------------

def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, plain ASCII."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


def spec_digest(obj) -> str:
    """sha256 hex digest of the canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()
