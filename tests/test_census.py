"""Neighborhood censuses on sparse models."""

import math

import numpy as np
import pytest

from aggterm.census import CensusTable, is_sparse_class, neighborhood_census
from aggterm.dense_limit import dense_controller, dense_limit_p
from aggterm.errors import ConfigError
from aggterm.graphs import (BaModel, DenseSchedule, ErModel, LogSchedule,
                            RootSchedule, SparseSchedule, Uniform01)
from aggterm.parser import parse_term
from aggterm.sparse_limit import CensusConfig, sparse_limit

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
