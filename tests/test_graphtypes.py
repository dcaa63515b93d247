"""Extension weights: exact normalization and hand cases."""

from fractions import Fraction

import numpy as np
import pytest

from aggterm.errors import ConfigError
from aggterm.graphtypes import (GraphType, alpha_weight, alpha_weight_exact,
                                alpha_weight_local_exact, alpha_weight_sbm,
                                enumerate_extensions)


def test_extension_count():
    t = GraphType(3, frozenset({(0, 1)}))
    assert len(enumerate_extensions(t)) == 8
    assert len(enumerate_extensions(t, anchor=2)) == 4


def test_extensions_extend_base():
    t = GraphType(2, frozenset({(0, 1)}))
    for ext in enumerate_extensions(t):
        assert ext.k == 3
        assert ext.restrict(2) == t
    for ext in enumerate_extensions(t, anchor=0):
        assert ext.has_edge(0, 2)


def test_alpha_weight_hand_case():
    # new node adjacent to exactly one of two old ones at p = 1/3:
    # p * (1 - p) = 2/9
    t = GraphType(2)
    ext = GraphType(3, frozenset({(0, 2)}))
    assert alpha_weight_exact(t, ext, Fraction(1, 3)) == Fraction(2, 9)
    assert alpha_weight(t, ext, 0.5) == pytest.approx(0.25)


def test_alpha_weights_sum_to_one_exactly():
    for k in range(0, 7):
        for bits in (0, 1, (1 << (k * (k - 1) // 2)) - 1):
            if k < 2 and bits:
                continue
            t = GraphType.from_bits(k, bits)
            for p in (Fraction(0), Fraction(1, 10), Fraction(1, 2),
                      Fraction(1)):
                total = sum(alpha_weight_exact(t, ext, p)
                            for ext in enumerate_extensions(t))
                assert total == 1


def test_anchored_weights_sum_to_one_exactly():
    t = GraphType(3, frozenset({(0, 1), (1, 2)}))
    for p in (Fraction(0), Fraction(1, 10), Fraction(1)):
        total = sum(alpha_weight_local_exact(t, ext, 1, p)
                    for ext in enumerate_extensions(t, anchor=1))
        assert total == 1


def test_anchored_weight_requires_anchor_edge():
    t = GraphType(2)
    no_edge = GraphType(3, frozenset({(1, 2)}))
    with pytest.raises(ConfigError):
        alpha_weight_local_exact(t, no_edge, 0, Fraction(1, 2))


def test_sbm_weights_sum_over_communities():
    t = GraphType(1)
    fractions = (0.3, 0.7)
    p = ((0.5, 0.1), (0.1, 0.4))
    total = 0.0
    for ext in enumerate_extensions(t):
        for c in (1, 2):
            total += alpha_weight_sbm(t, ext, (1, c), fractions, p)
    assert total == pytest.approx(1.0)


def test_sbm_anchored_normalizer():
    # anchored mass totals sum_c q_c P[c_anchor, c]
    t = GraphType(1)
    fractions = (0.3, 0.7)
    p = ((0.5, 0.1), (0.1, 0.4))
    total = 0.0
    for ext in enumerate_extensions(t, anchor=0):
        for c in (1, 2):
            total += alpha_weight_sbm(t, ext, (1, c), fractions, p, anchor=0)
    assert total == pytest.approx(0.3 * 0.5 + 0.7 * 0.1)


def test_bits_round_trip():
    for k in (0, 1, 3, 5):
        npairs = k * (k - 1) // 2
        for bits in range(min(1 << npairs, 64)):
            t = GraphType.from_bits(k, bits)
            assert t.bits() == bits


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
        lambda: GraphType(3, frozenset({(0, 3)})),
        lambda: GraphType(3, frozenset({(-1, 1)})),
        lambda: GraphType.from_bits(3, 8),
        lambda: GraphType.from_bits(3, -1),
        lambda: GraphType.from_bits(-1, 0),
        lambda: t.restrict(4),
        lambda: t.restrict(-1),
        lambda: t.has_edge(1, 1),
        lambda: GraphType(3).has_edge(0, 7),
        lambda: GraphType(3).has_edge(-1, 2),
        lambda: GraphType(3).has_edge(0.0, 1),
        lambda: GraphType(3, frozenset({(0.5, 1)})),
        lambda: GraphType(3, frozenset({(0, 1.0)})),
        lambda: GraphType(2.5),
        lambda: GraphType(None),
        lambda: alpha_weight_exact(t, GraphType(5), Fraction(1, 2)),
        lambda: enumerate_extensions(t, anchor=3),
        lambda: enumerate_extensions(t, anchor=-1),
        lambda: alpha_weight_local_exact(t, ext, 3, Fraction(1, 2)),
        lambda: alpha_weight_sbm(t, ext, (1, 1, 1, 1), (1.0,), ((0.5,),),
                                 anchor=3),
    ]
    # out-of-range limits fail on the first call and again on a repeat,
    # after valid calls have filled the weight cache for the same k
    alpha_weight_exact(t, ext, Fraction(1, 2))
    for p in (Fraction(3, 2), -0.25, 1.5):
        bad += [lambda p=p: alpha_weight_exact(t, ext, p)] * 2
        bad += [lambda p=p: alpha_weight_local_exact(
            t, enumerate_extensions(t, anchor=0)[0], 0, p)] * 2
    for call in bad:
        with pytest.raises(ConfigError):
            call()
    with pytest.raises(TypeError):  # a float is not a bit pattern
        GraphType.from_bits(3, 1.0)
    # NumPy integers are integers
    t_np = GraphType(np.int64(3), frozenset({(np.int32(0), np.int64(1))}))
    assert t_np == t and t_np.has_edge(np.int64(1), np.int8(0))


def test_representation_consistent():
    for k in range(6):
        for bits in range(1 << (k * (k - 1) // 2)):
            t = GraphType.from_bits(k, bits)
            again = GraphType(k, t.edges)
            assert again == t and hash(again) == hash(t)
            assert GraphType.from_bits(k, t.bits()) == t
            # pair (i, j), i < j, sits at bit j(j-1)/2 + i
            assert bits == sum(1 << (j * (j - 1) // 2 + i) for i, j in t.edges)
            for e in enumerate_extensions(t):
                assert e.restrict(k) == t
                assert alpha_weight(t, e, 0.5) == float(
                    alpha_weight_exact(t, e, Fraction(1, 2)))
                # a float limit means its exact binary value, not 1/10
                r = sum(e.has_edge(i, k) for i in range(k))
                p = Fraction(0.1)
                assert (alpha_weight_exact(t, e, 0.1)
                        == p ** r * (1 - p) ** (k - r))
