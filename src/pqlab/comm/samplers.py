"""Set-intersection instances and the singleton-bucket check.

``SetIntersectionInstance`` is the input of the two-phase protocol: Alice's
set X and Bob's set Y over [0, U).  ``protocol.sample_instance`` draws X and
Y as independent uniform subsets of the sizes the embedding at a tree node
needs.  ``check_observation1`` measures Observation 1: a uniform l-subset of
[0, U) cut into l equal buckets leaves roughly e^-1 of the buckets with
exactly one element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..workload import subset_np


@dataclass(frozen=True)
class SetIntersectionInstance:
    U: int
    X: frozenset[int]
    Y: frozenset[int]

    def intersection(self) -> frozenset[int]:
        return self.X & self.Y


@dataclass
class Obs1Report:
    universe: int
    l: int
    trials: int
    singleton_counts: list[int]

    @property
    def mean_singleton_fraction(self) -> float:
        return float(np.mean(self.singleton_counts)) / self.l

    @property
    def p_at_least_third(self) -> float:
        threshold = self.l / 3
        return float(np.mean([c >= threshold for c in self.singleton_counts]))


def check_observation1(U: int, l: int, trials: int, seed: int) -> Obs1Report:
    if U % l != 0:
        raise ConfigError("l must divide U")
    if l < 3:
        raise ConfigError("need l >= 3")
    us = U // l
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = []
    for _ in range(trials):
        occ = np.bincount(subset_np(rng, U, l) // us, minlength=l)
        counts.append(int(np.count_nonzero(occ == 1)))
    return Obs1Report(U, l, trials, counts)
