import math

import numpy as np
import pytest

from pqlab.comm.protocol import instance_shape, sample_instance
from pqlab.comm.samplers import check_observation1
from pqlab.errors import ConfigError
from pqlab.workload import TreeParams, build_tree, subset_np


def rng(seed=0):
    return np.random.default_rng(seed)


def test_subset_is_uniform_and_distinct():
    r = rng(1)
    s = subset_np(r, 1000, 200)
    assert len(set(int(v) for v in s)) == 200
    assert all(0 <= v < 1000 for v in s)


def test_subset_at_the_key_type_limit():
    s = subset_np(rng(4), 1 << 63, 1000)
    assert s.dtype == np.int64 and len(set(s.tolist())) == 1000
    assert all(0 <= v < (1 << 63) for v in s.tolist())
    with pytest.raises(ConfigError):
        subset_np(rng(4), (1 << 63) + 1, 10)


def test_uint_forced_full_sets():
    # n == universe takes the dense-permutation branch and returns every key
    assert sorted(subset_np(rng(), 4, 4).tolist()) == [0, 1, 2, 3]


def _first_node(params, height):
    return next(n.id for n in build_tree(params).internal_nodes() if n.height == height)


def test_uint_intersection_expectation():
    # E|X cap Y| = |X|*|Y|/U = 16*8/1280 = 0.1
    params = TreeParams(2, 4, 2, seed=0, universe_override=1280)
    v = _first_node(params, 2)
    assert instance_shape(params, v) == (16, 8)
    trials = 10_000
    total = sum(len(sample_instance(params, v, seed).intersection()) for seed in range(trials))
    assert abs(total / trials - 0.1) <= 0.02


def test_uint_marginal_inclusion():
    # P[0 in X] = |X|/U = 16/256
    params = TreeParams(2, 4, 2, seed=0, universe_override=256)
    v = _first_node(params, 2)
    hits = sum(0 in sample_instance(params, v, seed).X for seed in range(5000))
    assert abs(hits / 5000 - 16 / 256) < 0.02


def test_obs1_l_equals_u():
    rep = check_observation1(60, 60, 40, 0)
    assert rep.mean_singleton_fraction == 1.0
    assert rep.p_at_least_third == 1.0


def test_obs1_asymptotic_fraction():
    rep = check_observation1(10**5, 10**3, 200, 1)
    assert abs(rep.mean_singleton_fraction - math.exp(-1)) <= 0.02
    # the true per-trial P[>= l/3] sits near 0.988 at l=1e3; the >=0.99
    # empirical check runs at full scale in the acceptance suite
    assert rep.p_at_least_third >= 0.95
    assert np.var(rep.singleton_counts) / rep.l**2 <= 0.01


def test_obs1_divisibility():
    with pytest.raises(ConfigError):
        check_observation1(10, 3, 5, 0)
