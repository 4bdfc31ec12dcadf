"""Hard-distribution samplers for the set-intersection game family.

Four input laws: uniform independent sets (one per player), the blocked
variant with exactly one Alice element per block and one Bob element per
bucket, the index-equality game, and uniform equality testing.  The two
reductions are executable: an index-equality instance embeds into a blocked
instance by planting the pair in a public random block, and a blocked
instance embeds into the uniform law by publicly sampling bucket and block
occupancies and planting into blocks that came out singleton (the sampling
fails with small probability and is retried).  The occupancy step succeeds
because a uniform l-subset leaves roughly e^-1 of the l buckets with exactly
one element; ``check_observation1`` measures that fraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..workload import subset_np


@dataclass(frozen=True)
class SetIntersectionInstance:
    U: int
    k: int
    l: int
    X: frozenset[int]
    Y: frozenset[int]

    def intersection(self) -> frozenset[int]:
        return self.X & self.Y


@dataclass(frozen=True)
class BlockedInstance:
    """One X element per block of U/k, one Y element per bucket of U/l."""

    U: int
    k: int
    l: int
    X: frozenset[int]
    Y: frozenset[int]

    @property
    def block_size(self) -> int:
        return self.U // self.k

    @property
    def bucket_size(self) -> int:
        return self.U // self.l

    def intersection(self) -> frozenset[int]:
        return self.X & self.Y


@dataclass(frozen=True)
class IndexEqInstance:
    V: int
    L: int
    F: int              # Alice's bucket index in [0, L)
    O: int              # Alice's offset in [0, V)
    Ys: tuple[int, ...]  # Bob's offsets, one per bucket

    @property
    def answer(self) -> bool:
        return self.O == self.Ys[self.F]


def sample_uint(U: int, k: int, l: int, rng: np.random.Generator) -> SetIntersectionInstance:
    if not k <= l <= U:
        raise ConfigError(f"need k <= l <= U, got k={k} l={l} U={U}")
    x = frozenset(int(v) for v in subset_np(rng, U, k))
    y = frozenset(int(v) for v in subset_np(rng, U, l))
    return SetIntersectionInstance(U, k, l, x, y)


def _check_blocked_shape(U: int, k: int, l: int) -> None:
    if l % k != 0:
        raise ConfigError(f"k={k} must divide l={l}")
    if U % l != 0:
        raise ConfigError(f"l={l} must divide U={U}")


def sample_dint(U: int, k: int, l: int, rng: np.random.Generator) -> BlockedInstance:
    _check_blocked_shape(U, k, l)
    bs, us = U // k, U // l
    x = frozenset(int(i * bs + rng.integers(0, bs)) for i in range(k))
    y = frozenset(int(b * us + rng.integers(0, us)) for b in range(l))
    return BlockedInstance(U, k, l, x, y)


def sample_die(V: int, L: int, rng: np.random.Generator) -> IndexEqInstance:
    if V < 1 or L < 1:
        raise ConfigError("V and L must be positive")
    return IndexEqInstance(
        V, L,
        int(rng.integers(0, L)), int(rng.integers(0, V)),
        tuple(int(v) for v in rng.integers(0, V, size=L)),
    )


def sample_eq(W: int, rng: np.random.Generator) -> tuple[int, int]:
    if W < 1:
        raise ConfigError("W must be positive")
    return int(rng.integers(0, W)), int(rng.integers(0, W))


def embed_die_in_dint(
    instance: IndexEqInstance, k: int, rng: np.random.Generator
) -> tuple[BlockedInstance, int]:
    """Plant an index-equality instance into a public random block.

    Returns the blocked instance over U = k*L*V and the chosen block index.
    The planted element for (F, O) sits at I*L*V + F*V + O, zero-indexed;
    restricted to block I, the intersection is nonempty iff O = Ys[F].
    """
    V, L = instance.V, instance.L
    U = k * L * V
    block = L * V
    i_pub = int(rng.integers(0, k))
    x = set()
    y = set()
    for b in range(k):
        base = b * block
        if b == i_pub:
            x.add(base + instance.F * V + instance.O)
            for f, yf in enumerate(instance.Ys):
                y.add(base + f * V + yf)
        else:
            x.add(base + int(rng.integers(0, block)))
            for f in range(L):
                y.add(base + f * V + int(rng.integers(0, V)))
    return BlockedInstance(U, k, L * k, frozenset(x), frozenset(y)), i_pub


@dataclass
class EmbedFrame:
    """Public occupancy draw for embedding a blocked instance into U^SI."""

    y_occupancy: np.ndarray        # per bucket
    vblocks: list[list[int]]       # singleton buckets grouped l/k at a time
    x_occupancy: list[int]         # per vblock
    x_rest: int                    # X elements outside every vblock
    good: list[int]                # vblock indices with exactly one X element


def sample_embed_frame(U: int, k: int, l: int, rng: np.random.Generator) -> EmbedFrame | None:
    """Occupancy sampling for the factor-9 embedding; None means resample."""
    _check_blocked_shape(U, k, l)
    us = U // l
    per_block = l // k
    y_occ = np.bincount(subset_np(rng, U, l) // us, minlength=l)
    singles = np.flatnonzero(y_occ == 1)
    if singles.size < l // 3:
        return None
    take = (l // 3) - (l // 3) % per_block
    vblocks = [
        [int(b) for b in singles[i : i + per_block]]
        for i in range(0, take, per_block)
    ]
    bucket_to_vb = {b: i for i, vb in enumerate(vblocks) for b in vb}
    x_occ = [0] * len(vblocks)
    rest = 0
    for e in subset_np(rng, U, k):
        vb = bucket_to_vb.get(int(e) // us)
        if vb is None:
            rest += 1
        else:
            x_occ[vb] += 1
    good = [i for i, c in enumerate(x_occ) if c == 1]
    if len(good) < max(1, k // 9):
        return None
    return EmbedFrame(y_occ, vblocks, x_occ, rest, good)


@dataclass
class EmbedOutcome:
    ok: bool
    instance: SetIntersectionInstance | None = None
    good_vblocks: list[list[int]] | None = None  # bucket ids per used block, in dint block order

    def good_region(self) -> set[int] | None:
        if self.good_vblocks is None:
            return None
        us = self.instance.U // self.instance.l
        return {
            b * us + o for vb in self.good_vblocks for b in vb for o in range(us)
        }


def embed_dint_in_uint(
    dint: BlockedInstance, U: int, k: int, l: int, rng: np.random.Generator
) -> EmbedOutcome:
    """Embed a blocked instance over (U/9, k/9, l/9) into the uniform law.

    Public occupancy sampling may fail (returns ok=False; caller resamples).
    On success the instance restricted to the good blocks reproduces the
    blocked instance's intersection.
    """
    if (dint.U * 9, dint.k * 9, dint.l * 9) != (U, k, l):
        raise ConfigError("blocked instance must have shape (U/9, k/9, l/9)")
    frame = sample_embed_frame(U, k, l, rng)
    if frame is None or len(frame.good) < dint.k:
        return EmbedOutcome(False)
    us = U // l
    used = frame.good[: dint.k]
    good_vblocks = [frame.vblocks[i] for i in used]
    per_block = l // k

    x: set[int] = set()
    y: set[int] = set()
    # Plant the blocked instance: dint block i maps onto good vblock i,
    # bucket j within it onto that vblock's j-th bucket, offsets unchanged.
    for e in dint.X:
        i = e // dint.block_size
        j = (e % dint.block_size) // dint.bucket_size
        o = e % dint.bucket_size
        x.add(good_vblocks[i][j] * us + o)
    for e in dint.Y:
        i = e // dint.block_size
        j = (e % dint.block_size) // dint.bucket_size
        o = e % dint.bucket_size
        y.add(good_vblocks[i][j] * us + o)

    # Complete the remaining occupancies privately.
    used_set = set(used)
    slots_per_vb = per_block * us
    for i, vb in enumerate(frame.vblocks):
        if i in used_set:
            continue
        for idx in subset_np(rng, slots_per_vb, frame.x_occupancy[i]):
            idx = int(idx)
            x.add(vb[idx // us] * us + idx % us)
    in_vb_bucket = {b for vb in frame.vblocks for b in vb}
    need = frame.x_rest
    while need > 0:
        for e in subset_np(rng, U, need):
            e = int(e)
            if e // us not in in_vb_bucket and e not in x:
                x.add(e)
                need -= 1
                if need == 0:
                    break
    used_buckets = {b for vb in good_vblocks for b in vb}
    for b in range(l):
        if b in used_buckets:
            continue
        cnt = int(frame.y_occupancy[b])
        if cnt:
            for o in subset_np(rng, us, cnt):
                y.add(b * us + int(o))
    return EmbedOutcome(True, SetIntersectionInstance(U, k, l, frozenset(x), frozenset(y)), good_vblocks)


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

    @property
    def variance_ratio(self) -> float:
        """Var of the singleton count over l^2 (vanishes for concentrated counts)."""
        return float(np.var(self.singleton_counts)) / self.l**2


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
