"""Function registry: arity, positivity flags, reserved names."""

import numpy as np
import pytest

from aggterm.errors import ConfigError, EvaluationError
from aggterm.parser import parse_term
from aggterm.registry import FunctionRegistry, default_registry


def test_default_entries_present():
    reg = default_registry()
    for name in ("one", "exp", "softplus", "relu", "sigmoid", "softmax",
                 "add", "sub", "hadamard", "dot_scaled"):
        assert reg.entry(name) is not None


def test_concat_pad_is_no_builtin():
    # every argument reached it d wide, so it returned its first one;
    # gps_rw registers make_concat_pad with real widths as pack_rw
    assert "concat_pad" not in default_registry()
    with pytest.raises(ConfigError, match="unknown function 'concat_pad'"):
        parse_term("mean[v](concat_pad(H(v), sub(1, H(v))))", 1)


def test_positive_flags():
    reg = default_registry()
    assert reg.entry("one").positive
    assert reg.entry("exp").positive
    assert reg.entry("softplus").positive
    assert not reg.entry("relu").positive
    assert not reg.entry("sub").positive


def test_call_one():
    reg = default_registry()
    x = np.array([[1.0, -2.0], [0.0, 3.0]])
    assert np.array_equal(reg.call("one", [x]), np.ones_like(x))


def test_call_dot_scaled():
    reg = default_registry()
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0, 4.0]])
    got = reg.call("dot_scaled", [a, b])
    # scaled inner product, broadcast back over the row
    expect = (1 * 3 + 2 * 4) / np.sqrt(2.0)
    assert got == pytest.approx(np.full((1, 2), expect))


def test_register_custom_and_unknown():
    reg = default_registry()
    reg.register("half", 1, lambda x: 0.5 * x)
    assert np.array_equal(reg.call("half", [np.array([[4.0]])]),
                          np.array([[2.0]]))
    with pytest.raises(ConfigError):
        reg.entry("missing_fn")


def test_reserved_names_rejected():
    reg = FunctionRegistry()
    with pytest.raises(ConfigError):
        reg.register("mean", 1, lambda x: x)
    with pytest.raises(ConfigError):
        reg.register("H", 1, lambda x: x)


def test_duplicate_registration_rejected():
    reg = default_registry()
    with pytest.raises(ConfigError):
        reg.register("exp", 1, np.exp)


def test_arity_enforced_on_call():
    reg = default_registry()
    with pytest.raises(EvaluationError):
        reg.call("add", [np.zeros((1, 1))])
