"""Extension weights: exact normalization and hand cases."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from aggterm.errors import ConfigError
from aggterm.graphtypes import (GraphType, alpha_weight_exact,
                                enumerate_extensions)


def _pair_sets(k):
    """Every set of pairs among k variables, as lists of (i, j), i < j."""
    pairs = list(combinations(range(k), 2))
    for bits in range(1 << len(pairs)):
        yield [pair for n, pair in enumerate(pairs) if bits >> n & 1]


def _new_edges(k, new):
    """The pairs (i, k) selected by the bits of new."""
    return [(i, k) for i in range(k) if new >> i & 1]


def test_extension_count():
    t = GraphType(3, frozenset({(0, 1)}))
    assert len(enumerate_extensions(t)) == 8


def test_extensions_extend_base():
    # one extension per subset of new edges, swept as a binary counter
    t = GraphType(2, frozenset({(0, 1)}))
    assert enumerate_extensions(t) == [
        GraphType(3, [(0, 1)] + _new_edges(2, new)) for new in range(4)]


def test_alpha_weight_hand_case():
    # new node adjacent to exactly one of two old ones at p = 1/3:
    # p * (1 - p) = 2/9
    t = GraphType(2)
    ext = GraphType(3, frozenset({(0, 2)}))
    assert alpha_weight_exact(t, ext, Fraction(1, 3)) == Fraction(2, 9)
    assert float(alpha_weight_exact(t, ext, 0.5)) == pytest.approx(0.25)


def test_alpha_weights_sum_to_one_exactly():
    for k in range(0, 7):
        all_pairs = list(combinations(range(k), 2))
        for pairs in ([], all_pairs[:1], all_pairs):
            t = GraphType(k, pairs)
            for p in (Fraction(0), Fraction(1, 10), Fraction(1, 2),
                      Fraction(1)):
                total = sum(alpha_weight_exact(t, ext, p)
                            for ext in enumerate_extensions(t))
                assert total == 1


def test_bad_extension_rejected():
    t = GraphType(2, frozenset({(0, 1)}))
    wrong = GraphType(3)  # dropped the old edge
    with pytest.raises(ConfigError):
        alpha_weight_exact(t, wrong, Fraction(1, 2))


def test_bad_input_rejected():
    t = GraphType(3, frozenset({(0, 1)}))
    ext = enumerate_extensions(t)[0]
    bad = [
        lambda: GraphType(-1),
        lambda: GraphType(3, frozenset({(1, 0)})),
        lambda: GraphType(3, frozenset({(1, 1)})),
        lambda: GraphType(3, frozenset({(0, 3)})),
        lambda: GraphType(3, frozenset({(-1, 1)})),
        lambda: GraphType(3, frozenset({(0.5, 1)})),
        lambda: GraphType(3, frozenset({(0, 1.0)})),
        lambda: GraphType(3, frozenset({(True, 2)})),
        lambda: GraphType(2.5),
        lambda: GraphType(None),
        lambda: alpha_weight_exact(t, GraphType(5), Fraction(1, 2)),
        lambda: alpha_weight_exact(t, GraphType(3), Fraction(1, 2)),
    ]
    # out-of-range limits fail on the first call and again on a repeat,
    # after valid calls have filled the weight cache for the same k
    alpha_weight_exact(t, ext, Fraction(1, 2))
    for p in (Fraction(3, 2), -0.25, 1.5):
        bad += [lambda p=p: alpha_weight_exact(t, ext, p)] * 2
    for call in bad:
        with pytest.raises(ConfigError):
            call()
    # NumPy integers are integers
    t_np = GraphType(np.int64(3), frozenset({(np.int32(0), np.int64(1))}))
    assert t_np == t and hash(t_np) == hash(t)
    assert enumerate_extensions(t_np) == enumerate_extensions(t)


def test_representation_consistent():
    for k in range(6):
        seen = set()
        for pairs in _pair_sets(k):
            t = GraphType(k, pairs)
            again = GraphType(k, reversed(pairs))
            assert again == t and hash(again) == hash(t)
            seen.add(t)
            # the same pairs among more variables make another type
            assert GraphType(k + 1, pairs) != t
            exts = enumerate_extensions(t)
            assert exts == [GraphType(k + 1, pairs + _new_edges(k, new))
                            for new in range(1 << k)]
            for new, e in enumerate(exts):
                assert float(alpha_weight_exact(t, e, 0.5)) == float(
                    alpha_weight_exact(t, e, Fraction(1, 2)))
                # a float limit means its exact binary value, not 1/10
                r = new.bit_count()
                p = Fraction(0.1)
                assert (alpha_weight_exact(t, e, 0.1)
                        == p ** r * (1 - p) ** (k - r))
        # distinct pair sets make distinct types
        assert len(seen) == 1 << (k * (k - 1) // 2)
