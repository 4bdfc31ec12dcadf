"""Golden probe digests: wall-time changes must leave every probe bit-identical.

Each case replays a fixed workload and pins the sha256 of the device log's
``(addr, access)`` sequence together with the extraction answers.  The inputs
are ``materialize`` tree workloads and two hand-built arithmetic sequences
(insert-all/extract-all, and a mix of all four op kinds); they deliberately avoid ``make_random_workload`` so that a change to
the random generator cannot move them.  A digest that changes means the probe
order, the probe set or an answer changed; that is a cost-model change and
must be declared, never re-pinned silently.  The memory-image digests pin the
word layout of the heap's and the tournament's images the same way.  What a
probe digest cannot see is pinned too: each queue's on-disk block words, a
heap image whose ops never leave the root, and the oracle's image.  The
CLI pins fix the bytes of ``pqlab comm``'s CSV and transcript and the exact
singleton counts behind ``pqlab obs1``.  The ledger pins go further than the
CSV: every message's payload digest, so a content request charged out of
order or answered with the wrong block moves them.  The record pins hash the
full probe records, op index and leaf tag included, and the file pins hash
the bytes ``write_workload`` writes for three trees, a ``no_spurious``
transform and a ``mixed`` random workload (whose generator stream is pinned
separately in test_hard_dist).  The prefix pin hashes the op columns of one
protocol run's prefix, whose deletes remove live keys.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from pqlab import BufferedHeap, Device, DeviceConfig
from pqlab.cli import main, make_queue
from pqlab.comm.protocol import run_embedding_protocol, sample_instance
from pqlab.comm.samplers import SetIntersectionInstance, check_observation1
from pqlab.device import WRITE
from pqlab.dk import augmented_key_bits
from pqlab.pq.base import run_workload
from pqlab.ops import DECREASE, DELETE, EXTRACTMIN, INSERT, Op
from pqlab.pq.oracle import OracleQueue
from pqlab.workload import (
    TreeParams,
    Workload,
    build_tree,
    insert_extract_workload,
    make_random_workload,
    materialize,
    read_workload,
    transform_no_spurious,
    write_workload,
)

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
    """Word width for dk queues: the dk width rule, at least 64."""
    return max(64, augmented_key_bits(work.universe))


# (queue, workload, B, M) -> (probes, sha256)
CASES = {
    ("dk_buffered_heap", "insert_extract_3000", 16, 192): (10257, "53cce6bf2ec84e5b101936a991e993bb96bc96aacdde6f06e334bef719a8bfd9"),
    ("dk_buffered_heap", "tree_2_4_2_s1", 8, 128): (39, "b95f949d42b45d0739b47b677823fa41d0dd6613b8ddf811ccfb5ee3b2c29564"),
    ("dk_buffered_heap", "tree_2_4_2_s1", 16, 256): (0, "eddbe96fa4259658dfe4a4059230c2b6d89467a42013ac474c61e78a2cc0de21"),
    ("dk_buffered_heap", "tree_2_6_2_s5", 8, 128): (1518, "a56928d8927b906d66a6e878619236752b3adbc0f2327f0ccd2bc6385c6eb59c"),
    ("dk_buffered_heap", "tree_2_6_2_s5", 16, 256): (203, "62cf09e7086226fdaf4ebc7d766c64310603cc33896c2ea44d20c59a2df71ef6"),
    ("dk_buffered_heap", "tree_2_6_2_s5", 64, 1024): (0, "525cf1397e624475c431c99f9ad45a36f4ecc1aa8122851dc276b7f57a3ea150"),
    ("dk_tournament", "insert_extract_3000", 16, 192): (17427, "7f4dfe8d6d0062c7b70a2336c6faee96a469e275ff192efccc86ca04fb6d30ec"),
    ("dk_tournament", "tree_2_4_2_s1", 16, 256): (47, "56fad627667eb161acdfe1edaabf97f2e8ed6c714f4d587c580bed0690f2f86c"),
    ("dk_tournament", "tree_2_6_2_s5", 16, 256): (1002, "06ad06f7c8609bdf8e574a2d03c0653ce27f4c26d22a5adfe7a9d2d0bd31518b"),
    ("buffered_heap", "insert_extract_3000", 8, 128): (28555, "b64c8f9d139921187e7ba45f05b7f25e28ca8d7fc5864437984951a3a3959151"),
    ("buffered_heap", "insert_extract_3000", 16, 192): (10257, "53cce6bf2ec84e5b101936a991e993bb96bc96aacdde6f06e334bef719a8bfd9"),
    ("tournament", "insert_extract_3000", 16, 192): (18054, "bbac12a93df34174480d0959381c3dc3c1c2b94c5656c2629e0a628b9633a474"),
    ("tournament", "mixed_arith_6000", 16, 192): (7343, "8d38b59bd605b39b0ef1249137fdc1e9054574783079ea8a0b52d7704f6af184"),
    ("tournament", "tree_2_4_2_s1", 16, 256): (80, "f2c8e4a8b1c8c7290bb8ae85cd9fd526c0ec21bd572147b35f0cce2911dc7031"),
    ("tournament", "tree_2_6_2_s5", 16, 256): (2048, "55cb0afd1e23bc2a4b7d5f1e7e5f4145224397183e04be951254eea5adf045d7"),
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


# (queue, workload, B, M) -> sha256 of every probe record's
# (op_index, leaf_id, addr, access); the probe digests above see only
# (addr, access), so a leaf tag replayed wrongly would not move them.
RECORDS = {
    ("tournament", "mixed_arith_6000", 16, 192): "8752ecbb0e931038ef8a23b4e3f4addef38370b98d542d3ff73e1c13f3c76708",
    ("tournament", "tree_2_4_2_s1", 16, 256): "142ce0b09baa89623bea24829eea0755a23415db01272c8dd56f70504d10051c",
}


@pytest.mark.parametrize("case", sorted(RECORDS), ids=lambda c: "-".join(map(str, c)))
def test_probe_records_pinned(case):
    assert _record_digest(case) == RECORDS[case]


def _record_digest(case) -> str:
    kind, name, B, M = case
    work = WORKLOADS[name]()
    dev = Device(DeviceConfig(B=B, M=M, w=64))
    queue = make_queue(kind, dev, n_hint=max(1024, len(work.ops)), seed=HASH_SEED)
    run_workload(queue, dev, work)
    records = [(rec.op_index, rec.leaf_id, rec.addr, rec.access) for rec in dev.log]
    return hashlib.sha256(repr(records).encode()).hexdigest()


# workload -> sha256 of the file write_workload writes for it
FILES = {
    "no_spurious_2_2_1_x2": "cca1a48c499233ced459751b10780932905530b761207327c1e86d313e7e3d15",
    "random_mixed_3000": "16afc87e6e3f2079a733737ff2d8c6c3ce5811a41fb02b8fab2d510250fc771d",
    "tree_2_4_2_s1": "7832272e8a4dee87ecc40fc14cc3b15fa09ec11fae85e477e9bd1cd1d7d08367",
    "tree_2_8_4_s41": "066cab7555f3c1ab41ff1a34eae05d4483e951324735f8f7b4eedfa6cb17af65",
    "tree_3_4_2_s3": "9af1925644307aa06ef160472152a2aa660d9455ff6100c3fc136bb0d25d1175",
}

FILE_WORKLOADS = {
    "no_spurious_2_2_1_x2": lambda: transform_no_spurious(
        [materialize(TreeParams(2, 2, 1, seed=s, universe_override=64)) for s in (0, 3)]),
    "random_mixed_3000": lambda: make_random_workload(3000, 4, universe=5000, profile="mixed"),
    "tree_2_4_2_s1": WORKLOADS["tree_2_4_2_s1"],
    "tree_2_8_4_s41": lambda: _tree(2, 8, 4, 41),
    "tree_3_4_2_s3": lambda: _tree(3, 4, 2, 3),
}


@pytest.mark.parametrize("name", sorted(FILES))
def test_workload_file_bytes_pinned(tmp_path, name):
    assert _file_digest(name, tmp_path) == FILES[name]
    work = FILE_WORKLOADS[name]()
    assert read_workload(tmp_path / f"{name}.bin") == work


def _file_digest(name: str, tmp_path: Path) -> str:
    path = tmp_path / f"{name}.bin"
    write_workload(FILE_WORKLOADS[name](), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# name -> sha256 of repr([(kind, key, priority, leaf), ...]) over a protocol
# run's prefix_workload at the perfbench protocol_pair shape: tree (2,6,2)
# seed 41, its first height-3 node, k=2, B=16, M=256, w=128.  Half of X is
# taken from Y, so Alice's delete leaves remove keys that are live at
# priority h_v, which independent key sets almost never do.
PREFIXES = {
    "2_6_2_s41_x_meets_y": "481dec4023c3e886337f10492851ab69d6fc4615a6a5b2505f16ea91e778b326",
}


@pytest.mark.parametrize("name", sorted(PREFIXES))
def test_protocol_prefix_columns_pinned(name):
    assert _prefix_digest(name) == PREFIXES[name]


def _prefix_digest(name: str) -> str:
    params = TreeParams(2, 6, 2, seed=41)
    v = next(n.id for n in build_tree(params).internal_nodes() if n.height == 3)
    drawn = sample_instance(params, v, seed=41)
    xs, ys = sorted(drawn.X), sorted(drawn.Y)
    x = frozenset(xs[len(ys) // 2:]) | frozenset(ys[: len(ys) // 2])
    instance = SetIntersectionInstance(drawn.U, x, drawn.Y)
    res = run_embedding_protocol(lambda dev: make_queue("tournament", dev, n_hint=4096, seed=0),
                                 params, v, 2, instance, DeviceConfig(B=16, M=256, w=128), seed=41)
    assert res.correct and res.expected
    return hashlib.sha256(repr(list(zip(*res.prefix_workload.ops.columns()))).encode()).hexdigest()


# queue -> sha256 of repr(memory_image()) after the insert half of insert_extract_3000 at (16, 192)
IMAGES = {
    "buffered_heap": "ff666c30ba512beccc2bb8e66e1560403b313cc669f030f9f0958c8ebbc80ea6",
    "tournament": "0843dba8be7d4d4ccb0ff332985d79f31746c0e1fd4c712e39815842dcd4cd13",
}


@pytest.mark.parametrize("kind", sorted(IMAGES))
def test_memory_image_digest_pinned(kind):
    assert _image_digest(kind) == IMAGES[kind]


def _image_digest(kind: str) -> str:
    work = WORKLOADS["insert_extract_3000"]()
    dev = Device(DeviceConfig(B=16, M=192, w=64))
    queue = make_queue(kind, dev, n_hint=max(1024, len(work.ops)), seed=HASH_SEED)
    run_workload(queue, dev, work, hi=len(work.ops) // 2)
    return hashlib.sha256(repr(queue.memory_image()).encode()).hexdigest()


# queue -> sha256 of [(addr, block)] over every address written by the first
# 3,000 ops at (16, 192): the on-disk words, which the probe digests above
# cannot see (an entry of either tree is stored as key, priority + 2^(w-1)).  The heaps run the insert
# half of insert_extract_3000; the tournaments run mixed_arith_6000, so
# every signal kind sits in some buffer.
BLOCKS = {
    "buffered_heap": "1672a4ca06ded90bb8a7937c8626ca1085756be85cf433ebaa67244471c2eb6a",
    "dk_buffered_heap": "b3832224d6d4c531176e286c7e092c600a6b75998ff36e2dbbd950d29898a716",
    "dk_tournament": "fcfb364bb4388e744e4d6d02cc3bdd84528617060c1038ab32bc3e453c7815be",
    "tournament": "bd54012dd7709d150726b86b4f9fbc272263b7a31af626caeabcf233a18f649a",
}


@pytest.mark.parametrize("kind", sorted(BLOCKS))
def test_block_words_pinned(kind):
    assert _block_digest(kind) == BLOCKS[kind]


def _block_digest(kind: str) -> str:
    work = WORKLOADS["mixed_arith_6000" if kind.endswith("tournament") else "insert_extract_3000"]()
    w = _dk_w(work) if kind.startswith("dk_") else 64
    dev = Device(DeviceConfig(B=16, M=192, w=w))
    queue = make_queue(kind, dev, n_hint=max(1024, len(work.ops)), seed=HASH_SEED)
    run_workload(queue, dev, work, hi=3000)
    written = sorted({rec.addr for rec in dev.log if rec.access == WRITE})
    return hashlib.sha256(repr([(a, dev.peek_block(a)) for a in written]).encode()).hexdigest()


def test_heap_root_image_pinned():
    """Five inserts and one extract stay in the root: no probe, so only the image shows them.

    The image is [live, rr, n_tops, bits], then the root's entries as key,
    priority + 2^63; the tied priorities 3 order by key.  No child holds
    anything, so bits is 0.
    """
    dev = Device(DeviceConfig(B=16, M=192, w=64))
    heap = BufferedHeap(dev, n_hint=1024)
    for key, priority in [(5, 3), (9, -7), (2, 3), (7, 1 << 40), (4, -(1 << 63))]:
        heap.insert(key, priority)
    assert heap.extract_min() == (4, -(1 << 63))
    assert dev.probe_count == 0
    bias = 1 << 63
    assert heap.memory_image() == [4, 0, 3, 0, 9, bias - 7, 2, bias + 3, 5, bias + 3, 7, bias + (1 << 40)]


def test_oracle_image_pinned():
    """The oracle's image is [clock] then live entries as key, priority, ts, in (priority, key) order."""
    oracle = OracleQueue()
    for key, priority in [(5, 3), (9, -7), (2, 3), (7, 40), (4, -2)]:
        oracle.insert(key, priority)
    oracle.decrease_key(7, -9)
    oracle.delete(2)
    assert oracle.extract_min() == (7, -9)
    oracle.insert(2, 0)
    oracle.decrease_key(5, 1)
    image = oracle.memory_image()
    assert image == [6, 9, -7, 2, 4, -2, 5, 2, 0, 6, 5, 1, 1]
    resumed = OracleQueue()
    resumed.load_memory_image(image)
    assert resumed.memory_image() == image
    assert [resumed.extract_min() for _ in range(4)] == [(9, -7), (4, -2), (2, 0), (5, 1)]


# queue -> sha256 of (CSV, transcript) from `pqlab comm --beta 2 --h 4 --m 2 --trials 3`
COMM = {
    "dk_buffered_heap": ("7c725ee15ca85ea02cea886f79cac9cbac5514f87c30fe4aaf326fe65196f51a",
                         "761a4402fd9b6e7d0da90b104abe7335820cfad9f5c59f3320283879f38dd8c0"),
    "tournament": ("94847bec2cbcf9a391ae4fbd62d36c154860bc99e3e6864d66a4fea2a8b2689f",
                   "761a4402fd9b6e7d0da90b104abe7335820cfad9f5c59f3320283879f38dd8c0"),
}


@pytest.mark.parametrize("kind", sorted(COMM))
def test_comm_outputs_pinned(tmp_path, kind):
    assert _comm_digests(kind, tmp_path) == COMM[kind]


def _comm_digests(kind: str, tmp_path: Path) -> tuple[str, str]:
    out, transcript = tmp_path / "comm.csv", tmp_path / "transcript.csv"
    with contextlib.redirect_stdout(io.StringIO()):  # the listing below prints only digests
        rc = main(["comm", "--beta", "2", "--h", "4", "--m", "2", "--trials", "3", "--queue", kind,
                   "--out", str(out), "--transcript", str(transcript)])
    assert rc == 0
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, transcript))


# queue -> sha256 of every protocol run's ledger at (2,4,2), B=16, M=256, w=64:
# the first internal node of each height, every k, seeds 0..2
LEDGERS = {
    "dk_buffered_heap": "3774037dc5319daf84875710be58ed4c098701cb25e6c6ba616c4caf97b9837c",
    "tournament": "54adea757fac1f8c6af20df625f9ca5da03687305d0fe84343717ca757c8af4e",
}


def _ledger_digest(kind: str) -> str:
    params = TreeParams(2, 4, 2, seed=0)
    tree = build_tree(params)
    cfg = DeviceConfig(B=16, M=256, w=64)
    h = hashlib.sha256()
    for height in range(1, params.h + 1):
        v = next(n.id for n in tree.internal_nodes() if n.height == height)
        for k in range(2, params.beta + 2):
            for seed in range(3):
                res = run_embedding_protocol(lambda dev: make_queue(kind, dev, n_hint=4096, seed=0),
                                             params, v, k, sample_instance(params, v, seed=seed), cfg, seed=seed)
                assert res.correct
                h.update(repr(([(m.sender, m.phase, m.kind, m.bits, m.digest) for m in res.transcript],
                               res.alice_requests, res.bob_requests, res.a_set_size, res.z_set_size)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("kind", sorted(LEDGERS))
def test_protocol_ledger_pinned(kind):
    assert _ledger_digest(kind) == LEDGERS[kind]


def test_obs1_singleton_counts_pinned():
    rep = check_observation1(600, 30, 12, 4)
    assert rep.singleton_counts == [19, 16, 18, 6, 10, 12, 18, 12, 13, 6, 10, 10]


def _listing() -> int:
    """Print every digest pin beside its computed value; 1 if any differs, else 0."""
    changed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for family, pins, compute in (("CASES", CASES, _case_digest), ("RECORDS", RECORDS, _record_digest),
                                      ("FILES", FILES, lambda name: _file_digest(name, Path(tmp))),
                                      ("PREFIXES", PREFIXES, _prefix_digest),
                                      ("IMAGES", IMAGES, _image_digest),
                                      ("BLOCKS", BLOCKS, _block_digest),
                                      ("COMM", COMM, lambda kind: _comm_digests(kind, Path(tmp))),
                                      ("LEDGERS", LEDGERS, _ledger_digest)):
            for key in sorted(pins):
                got = compute(key)
                changed += got != pins[key]
                mark = "" if got == pins[key] else "  CHANGED"
                print(f"{family} {key}:\n  pinned   {pins[key]}\n  computed {got}{mark}")
    return 1 if changed else 0


if __name__ == "__main__":
    # A declared cost-model change re-pins from this listing: pinned beside computed, every pin family.
    sys.exit(_listing())
