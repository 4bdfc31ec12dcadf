"""Golden probe digests: wall-time changes must leave every probe bit-identical.

Each case replays a fixed workload and pins the sha256 of the device log's
``(addr, access)`` sequence together with the extraction answers.  The inputs
are ``materialize`` tree workloads and two hand-built arithmetic sequences
(insert-all/extract-all, and a mix of all four op kinds); they deliberately avoid ``make_random_workload`` so that a change to
the random generator cannot move them.  A digest that changes means the probe
order, the probe set or an answer changed; that is a cost-model change and
must be declared, never re-pinned silently.  The memory-image digests pin the
word layout of the heap's and the tournament's images the same way.
"""

import hashlib

import pytest

from pqlab import Device, DeviceConfig
from pqlab.cli import make_queue
from pqlab.pq.base import run_workload
from pqlab.ops import DECREASE, DELETE, EXTRACTMIN, INSERT, Op
from pqlab.pq.oracle import OracleQueue
from pqlab.workload import TreeParams, Workload, insert_extract_workload, materialize

HASH_SEED = 3


def _insert_all_extract_all(n: int) -> Workload:
    """n inserts with scattered, partly tied priorities, then n extractions."""
    return insert_extract_workload(range(n), [(k * 7919) % (n // 3) for k in range(n)], n, 0)


def _mixed_arith(n: int) -> Workload:
    """n steps of all four op kinds on arithmetic keys, resolved against the oracle.

    Step i uses key (i * 7919) % n, distinct per step.  Steps i % 8 < 4
    insert it at priority (i * 104729) % n; i % 8 == 4 decreases a live key,
    to a quarter of its priority on even such steps (often beating a node's
    tops maximum, so the tournament adopts it and sends an erase) and by one
    on odd ones; i % 16 == 5 deletes the step's own never-inserted key,
    i % 16 == 13 a live key; i % 8 >= 6 extracts.
    """
    oracle = OracleQueue()
    prio: dict[int, int] = {}
    live: list[int] = []
    ops: list[Op] = []

    def pick(i: int) -> int | None:
        while live:
            j = (i * 31) % len(live)
            if live[j] in prio:
                return live[j]
            live[j] = live[-1]
            live.pop()
        return None

    for i in range(n):
        key, step = (i * 7919) % n, i % 16
        if step % 8 < 4:
            p = (i * 104729) % n
            oracle.insert(key, p)
            prio[key] = p
            live.append(key)
            ops.append(Op(INSERT, key, p, None))
        elif step % 8 == 4:
            k = pick(i)
            if k is None:
                continue
            p = prio[k] // 4 if step == 4 else prio[k] - 1
            oracle.decrease_key(k, p)
            prio[k] = min(prio[k], p)
            ops.append(Op(DECREASE, k, p, None))
        elif step == 5 or step == 13:
            k = key if step == 5 else pick(i)
            if k is None:
                continue
            oracle.delete(k)
            prio.pop(k, None)
            ops.append(Op(DELETE, k, 0, None))
        elif prio:
            k, p = oracle.extract_min()
            del prio[k]
            ops.append(Op(EXTRACTMIN, k, p, None))
    return Workload(None, "random", n, 0, ops)


def _digest(kind: str, work: Workload, B: int, M: int, w: int) -> tuple[int, str]:
    dev = Device(DeviceConfig(B=B, M=M, w=w))
    queue = make_queue(kind, dev, n_hint=max(1024, len(work.ops)), seed=HASH_SEED)
    rep = run_workload(queue, dev, work)  # raises on any answer divergence
    h = hashlib.sha256()
    h.update(repr([(rec.addr, rec.access) for rec in dev.log]).encode())
    h.update(repr(rep.extractions).encode())
    return dev.probe_count, h.hexdigest()


def _tree(beta: int, h: int, m: int, seed: int) -> Workload:
    return materialize(TreeParams(beta, h, m, seed))


def _dk_w(work: Workload) -> int:
    """Word width for dk queues: key bits plus the 32 counter bits, at least 64."""
    return max(64, (work.universe - 1).bit_length() + 32)


# (queue, workload, B, M) -> (probes, sha256)
CASES = {
    ("dk_buffered_heap", "insert_extract_3000", 16, 192): (21790, "8fe9759e38878e534a4ce3d7d73a51e2991674bb480b4026b5f7cb900dd75e1a"),
    ("dk_buffered_heap", "tree_2_4_2_s1", 16, 256): (58, "71c50728f333747dcd4cf469d9f5d6703c74801690e9c4b7f2c5b5a51706a57d"),
    ("dk_buffered_heap", "tree_2_6_2_s5", 16, 256): (1187, "71ebc36e69fdc046c98ae08ba1901ccc4a11157ccbf90051517f2cde4f8a4e08"),
    ("dk_buffered_heap", "tree_2_6_2_s5", 64, 1024): (50, "359b74cd151a673bee5755cff28826d184f2a0d00bae76cb742f6ca56079ed57"),
    ("dk_tournament", "insert_extract_3000", 16, 192): (37523, "be980fa06820369271b0254667262201b2c51276fe04878a606a1a30d618b33c"),
    ("dk_tournament", "tree_2_4_2_s1", 16, 256): (359, "7d9dbd53b53b9863b6ee5e3a772253e74a424ea470afe83e2de0e30dd4aa946f"),
    ("dk_tournament", "tree_2_6_2_s5", 16, 256): (4161, "6c75649706b78ebed822ed2ca6c9512e3fb5b92302f0ddfc0801878d0a5ebc39"),
    ("buffered_heap", "insert_extract_3000", 8, 128): (49642, "dfae8e76d7155be03a7aa71aaf18c0e15fe49d7a8ef8066f087ed6ac485ea533"),
    ("buffered_heap", "insert_extract_3000", 16, 192): (21790, "8fe9759e38878e534a4ce3d7d73a51e2991674bb480b4026b5f7cb900dd75e1a"),
    ("tournament", "insert_extract_3000", 16, 192): (38583, "f0d2474e2120e2f2ed5a18c62bb18e7387fcb9722dd1426f212ea692b7aa1f18"),
    ("tournament", "mixed_arith_6000", 16, 192): (16775, "6c97a9e7d55cf45b12a09db0b7950c9df11bf82b2f50394a660b426c6695b1f9"),
    ("tournament", "tree_2_4_2_s1", 16, 256): (740, "1e639a1169b19f25135380fbefd41c13e29fbc2040e8ce3837f10f3e599b05e2"),
    ("tournament", "tree_2_6_2_s5", 16, 256): (7989, "bb7ff5646a979afa667cfde2317d5cf8133ae6d981588a7c94b9cd035683cec3"),
}

WORKLOADS = {
    "insert_extract_3000": lambda: _insert_all_extract_all(3000),
    "mixed_arith_6000": lambda: _mixed_arith(6000),
    "tree_2_4_2_s1": lambda: _tree(2, 4, 2, 1),
    "tree_2_6_2_s5": lambda: _tree(2, 6, 2, 5),
}


@pytest.mark.parametrize("case", sorted(CASES), ids=lambda c: "-".join(map(str, c)))
def test_probe_log_digest_pinned(case):
    assert _case_digest(case) == CASES[case]


def _case_digest(case) -> tuple[int, str]:
    kind, name, B, M = case
    work = WORKLOADS[name]()
    w = _dk_w(work) if kind.startswith("dk_") else 64
    return _digest(kind, work, B, M, w)


# queue -> sha256 of repr(memory_image()) after the insert half of insert_extract_3000 at (16, 192)
IMAGES = {
    "buffered_heap": "47e88f729ca00c9bbaa3044707b21f30763bb16684d45a3e38d921d0495b9900",
    "tournament": "2f22c4a7eb8fc3ebbe6df8fe894e7d3e80b8ae0c4b52fad0c831d048cc88f372",
}


@pytest.mark.parametrize("kind", sorted(IMAGES))
def test_memory_image_digest_pinned(kind):
    work = WORKLOADS["insert_extract_3000"]()
    dev = Device(DeviceConfig(B=16, M=192, w=64))
    queue = make_queue(kind, dev, n_hint=max(1024, len(work.ops)), seed=HASH_SEED)
    run_workload(queue, dev, work, hi=len(work.ops) // 2)
    assert hashlib.sha256(repr(queue.memory_image()).encode()).hexdigest() == IMAGES[kind]


if __name__ == "__main__":
    # A declared cost-model change re-pins from this listing: pinned beside computed.
    for case in sorted(CASES):
        got = _case_digest(case)
        mark = "" if got == CASES[case] else "  CHANGED"
        print(f"{case}:\n  pinned   {CASES[case]}\n  computed {got}{mark}")
