"""Neighborhood censuses on sparse models."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggterm.canonical import canonical_code, code_counts, decode_code
from aggterm.census import (CensusTable, _ball_codes, _sample_tuples,
                            is_sparse_class, neighborhood_census)
from aggterm.dense_limit import dense_controller, dense_limit_p
from aggterm.errors import ConfigError, NeighborhoodTooLargeError
from aggterm.graphs import (BaModel, DenseSchedule, ErModel, LogSchedule,
                            RootSchedule, SparseSchedule, Uniform01,
                            from_edges, rooted_neighborhood, sample_graph)
from aggterm.parser import parse_term
from aggterm.sparse_limit import CensusConfig, sparse_limit
from conftest import oracle_code

ISO = "mean[u](sub(1, mean[v in N(u)](1)))"


def test_sparse_class_membership():
    assert is_sparse_class(ErModel(SparseSchedule(2.0)))
    assert is_sparse_class(BaModel(3))
    assert not is_sparse_class(ErModel(DenseSchedule(0.1)))
    assert not is_sparse_class(ErModel(RootSchedule(1.0, 0.5)))
    assert not is_sparse_class(ErModel(LogSchedule(1.0)))


def test_er_degree_census_matches_poisson():
    model = ErModel(SparseSchedule(1.0))
    table = neighborhood_census(model, 4000, 1, 1, 4000, seed=5)
    mass = table.root_degree_mass()
    for deg in range(6):
        pmf = math.exp(-1.0) / math.factorial(deg)
        assert abs(mass.get(deg, 0.0) - pmf) < 0.02, deg


def test_census_proportions_sum():
    model = ErModel(SparseSchedule(2.0))
    table = neighborhood_census(model, 2000, 2, 1, 1500, seed=6)
    assert table.total_mass() <= 1.0 + 1e-12
    assert table.total_mass() + table.truncated_mass == pytest.approx(1.0)
    for _, prop in table.types_by_mass():
        assert prop > 0


def test_census_deterministic():
    model = ErModel(SparseSchedule(1.5))
    a = neighborhood_census(model, 1000, 1, 1, 800, seed=9)
    b = neighborhood_census(model, 1000, 1, 1, 800, seed=9)
    assert a.proportions == b.proportions


def test_census_two_roots():
    model = ErModel(SparseSchedule(1.0))
    table = neighborhood_census(model, 1500, 1, 2, 1000, seed=11)
    assert table.k == 2
    for code, _ in table.types_by_mass():
        assert table.decode(code).k == 2


def test_census_decode_degrees():
    model = ErModel(SparseSchedule(1.0))
    table = neighborhood_census(model, 2000, 1, 1, 1500, seed=12)
    # radius-1 ball around a degree-d root is a star with d leaves
    for code, _ in table.types_by_mass():
        rg = table.decode(code)
        assert rg.num_edges() >= rg.degree(0)


@pytest.mark.parametrize("model, radius", [(BaModel(3), 2),
                                           (ErModel(SparseSchedule(2.0)), 3)])
def test_code_counts_agree_with_decode(model, radius):
    table = neighborhood_census(model, 1500, radius, 1, 1000, seed=14)
    assert len(table.proportions) > 50
    decoded = {}
    for code, prop in table.proportions.items():
        rg = decode_code(code)
        assert code_counts(code) == (len(rg.adj), rg.num_edges(), rg.degree(0))
        decoded[rg.degree(0)] = decoded.get(rg.degree(0), 0.0) + prop
    mass = table.root_degree_mass()
    assert list(mass.items()) == list(decoded.items())


class _Draws:
    """A generator that fails a test instead of drawing without end."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.left = 10_000

    def choice(self, *args, **kwargs):
        self.left -= 1
        assert self.left, "drew 10,000 root tuples"
        return self._rng.choice(*args, **kwargs)


@pytest.mark.parametrize("n, k, want, why", [
    (5, 1, 6, "more root samples than nodes"),
    (3, 2, 7, "distinct root tuples"),  # 3 nodes hold 6 ordered pairs
])
def test_sample_tuples_refusals(n, k, want, why):
    assert len(set(_sample_tuples(_Draws(1), n, k, want - 1))) == want - 1
    with pytest.raises(ConfigError, match=why):
        _sample_tuples(_Draws(1), n, k, want)


def test_ba_census_never_isolated():
    table = neighborhood_census(BaModel(2), 1500, 1, 1, 1200, seed=13)
    assert table.root_degree_mass().get(0, 0.0) == 0.0


def test_dense_model_rejected():
    with pytest.raises(ConfigError):
        neighborhood_census(ErModel(DenseSchedule(0.2)), 500, 1, 1, 100,
                            seed=1)


def test_size_cap_truncates():
    # BA hubs blow through a small cap at radius 2 without failing the call
    table = neighborhood_census(BaModel(4), 1200, 2, 1, 600, seed=14,
                                size_cap=12)
    assert table.truncated_mass > 0.1
    assert table.total_mass() < 0.9


def test_census_table_validation():
    with pytest.raises(ConfigError):
        CensusTable(radius=1, k=1, proportions={b"x": 0.7, b"y": 0.6},
                    sample_size=10, truncated_mass=0.0)


def test_root_schedule_at_beta_one_is_sparse_class():
    # p = k n^-1 is the sparse schedule K/n with K = k
    model = ErModel(RootSchedule(1.0, 1.0))
    assert is_sparse_class(model)
    with pytest.raises(ConfigError, match="use the sparse construction"):
        dense_limit_p(model)


def test_isolated_fraction_under_root_schedule_beta_one():
    v = sparse_limit(parse_term(ISO, 1), ErModel(RootSchedule(1.0, 1.0)),
                     Uniform01(1), CensusConfig(n=3000, node_samples=3000),
                     4000, 21)
    assert abs(float(v.estimate[0]) - math.exp(-1)) < 0.03


@pytest.mark.parametrize("sched", [RootSchedule(1.0, 1.5),
                                   RootSchedule(3.0, 2.0),
                                   RootSchedule(0.0, 1.5)])
def test_vanishing_expected_degree_is_one_error(sched):
    # k n^(1 - beta) -> 0: neither limit predictor applies, and neither
    # error sends the caller to the other one
    model, term = ErModel(sched), parse_term(ISO, 1)
    calls = [lambda: is_sparse_class(model),
             lambda: neighborhood_census(model, 500, 1, 1, 100, seed=1),
             lambda: sparse_limit(term, model, Uniform01(1),
                                  CensusConfig(n=500, node_samples=100),
                                  100, 1),
             lambda: dense_controller(term, model, Uniform01(1), 100, 1)]
    messages = set()
    for call in calls:
        with pytest.raises(ConfigError, match="vanishes") as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1
    assert "use " not in messages.pop()


def test_code_header_limits():
    # the code stores the root count in one byte and the node count in two
    model = ErModel(SparseSchedule(1.0))
    with pytest.raises(ConfigError, match="root count"):
        neighborhood_census(model, 1000, 1, 256, 10, seed=1, size_cap=300)
    with pytest.raises(ConfigError, match="size cap"):
        neighborhood_census(model, 1000, 1, 1, 10, seed=1, size_cap=65536)
    table = neighborhood_census(model, 1000, 0, 255, 2, seed=1,
                                size_cap=65535)
    assert table.total_mass() == 1.0


# ---------------------------------------------------------------------------
# the batched census against the per-root oracle


def per_root(g, tuples, radius, cap):
    """One rooted_neighborhood and one canonical_code per tuple; None
    where the ball overflows the cap."""
    out = []
    for tup in tuples:
        try:
            rg = rooted_neighborhood(g, tup, radius, size_cap=cap)
            out.append(canonical_code(rg, size_cap=cap).code)
        except NeighborhoodTooLargeError:
            out.append(None)
    return out


def check_batch(g, tuples, radius, cap=64):
    """The batched codes equal the per-root path's, and each ball's code
    equals the one-ball reference (oracle_code)."""
    batched = _ball_codes(g, np.array(tuples, dtype=np.int64), radius, cap)
    assert batched == per_root(g, tuples, radius, cap)
    for tup, code in zip(tuples, batched):
        if code is not None:
            assert code == oracle_code(rooted_neighborhood(g, tup, radius))
    return batched


@st.composite
def rooted_forests(draw, extra=2):
    """A random forest (a tree per -1 parent), at most `extra` extra edges
    that close cycles, 1-5 root tuples with k = 1..3, a radius and a cap."""
    n = draw(st.integers(3, 30))
    edges = {(p, v) for v in range(1, n)
             for p in [draw(st.integers(-1, v - 1))] if p >= 0}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                                 max_size=extra)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    relabel = draw(st.permutations(range(n)))
    u = np.array([relabel[a] for a, b in edges], dtype=np.int64)
    v = np.array([relabel[b] for a, b in edges], dtype=np.int64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    k = draw(st.integers(1, 3))
    tuples = draw(st.lists(st.permutations(range(n)).map(
        lambda p: tuple(p[:k])), min_size=1, max_size=5))
    radius = draw(st.integers(0, 4))
    cap = draw(st.sampled_from([64, k + 2, k + 6]))
    return from_edges(n, lo, hi), tuples, radius, cap


@settings(max_examples=150, deadline=None)
@given(rooted_forests())
def test_batched_codes_match_per_root(case):
    g, tuples, radius, cap = case
    check_batch(g, tuples, radius, cap)


@settings(max_examples=150, deadline=None)
@given(rooted_forests(extra=6))
def test_batched_cyclic_codes_match_per_root(case):
    # up to six extra edges: balls with several cycles, twins and ties
    g, tuples, radius, cap = case
    check_batch(g, tuples, radius, cap)


def _union(shapes):
    """One graph holding every (node count, edges, root tuples) shape as
    its own component, and all their root tuples."""
    us, vs, tuples, base = [], [], [], 0
    for n, edges, roots in shapes:
        us += [base + a for a, _ in edges]
        vs += [base + b for _, b in edges]
        tuples += [tuple(base + r for r in tup) for tup in roots]
        base += n
    return from_edges(base, np.array(us), np.array(vs)), tuples


def _binary_tree(depth):
    n = 2 ** (depth + 1) - 1
    return n, [((v - 1) // 2, v) for v in range(1, n)]


SYMMETRIC = [
    # star: at the center, at a leaf, and centered pair of roots
    (8, [(0, v) for v in range(1, 8)], [(0,), (3,), (0, 5), (5, 0), (2, 6)]),
    # perfect binary tree: at the top, at a leaf, a second root inside the
    # first root's tree, and two roots in sibling subtrees
    (*_binary_tree(3), [(0,), (9,), (0, 3), (3, 0), (1, 2), (7, 8, 0)]),
    # a path with a root at each end, in both orders
    (6, [(v, v + 1) for v in range(5)], [(0, 5), (5, 0), (0,), (2, 3)]),
    # two stars: a two-component k = 2 ball at radius 1 and 2
    (9, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (4, 8)],
     [(0, 4), (4, 0), (1, 5)]),
]


@pytest.mark.parametrize("radius", [0, 1, 2, 3, 4])
def test_symmetric_forests_match_per_root(radius):
    for k in (1, 2, 3):
        shapes = [(n, edges, [t for t in roots if len(t) == k])
                  for n, edges, roots in SYMMETRIC]
        g, tuples = _union(shapes)
        codes = check_batch(g, tuples, radius)
        assert all(code is not None for code in codes)


@pytest.mark.parametrize("model,radius", [
    (ErModel(SparseSchedule(2.0)), 2), (ErModel(SparseSchedule(2.0)), 3),
    (BaModel(3), 1), (BaModel(3), 2)])
def test_overflow_boundary(model, radius):
    # a cap equal to the ball's size keeps it; one smaller overflows it
    g = sample_graph(model, 2000, 5)
    hub = int(np.argmax(g.degrees))
    picks = [hub] if radius == 1 else []
    sizes = {v: rooted_neighborhood(g, [v], radius).n
             for v in range(g.n - 300, g.n)}
    picks += sorted((v for v in sizes if sizes[v] <= 80),
                    key=lambda v: -sizes[v])[:4]
    assert picks
    for v in picks:
        size = rooted_neighborhood(g, [v], radius).n
        assert size > 2
        assert check_batch(g, [(v,)], radius, size)[0] is not None
        assert check_batch(g, [(v,)], radius, size - 1)[0] is None


# ---------------------------------------------------------------------------
# census bytes pinned: sha256 of the (code, count) list in dict order plus
# truncated_mass, recorded before cyclic balls and BA draws were batched


def table_digest(table):
    h = hashlib.sha256()
    for code, prop in table.proportions.items():
        count = round(prop * table.sample_size)
        h.update(len(code).to_bytes(2, "big") + code + count.to_bytes(4, "big"))
    h.update(repr(table.truncated_mass).encode())
    return h.hexdigest()


@pytest.mark.parametrize("model,n,radius,k,roots,seed,cap,digest", [
    (BaModel(3), 1000, 2, 1, 1000, 21, 64,
     "417d75b74971fd2bf5f566e1e07c70029f389d89c96e031b40211255a3b58bb0"),
    (BaModel(3), 1000, 2, 1, 1000, 21, 256,
     "a431a27db18557df955ac18fbdfa31a193648b4961973b569855a969c0ca902a"),
    (BaModel(5), 1000, 1, 1, 1000, 22, 64,
     "bd3d69af2966ecd209c634b722e62682c5ccf595fbaf9929216e29948fadb7a3"),
    (ErModel(SparseSchedule(2.0)), 2000, 3, 1, 2000, 23, 64,
     "2e7b69c809e9e15d373831488bfdff0206b2b8fad180d900d4f6bc547a035977"),
    (ErModel(SparseSchedule(1.0)), 2000, 1, 2, 1000, 24, 64,
     "740832f110b4a48718a4d0e3f2da342d19080eeded4c9bea563ba6b7d6400ba3"),
], ids=["ba3_r2_cap64", "ba3_r2_cap256", "ba5_r1", "er2_r3", "er1_k2"])
def test_census_bytes_are_pinned(model, n, radius, k, roots, seed, cap,
                                 digest):
    table = neighborhood_census(model, n, radius, k, roots, seed,
                                size_cap=cap)
    assert table_digest(table) == digest
