"""Priority-queue interface and the one replay loop.

Queue implementations expose:

* ``insert(key, priority)``; inserting a live key is a contract violation
  (the oracle detects it, external structures trust the generator).
* ``extract_min() -> (key, priority)``, minimum under (priority, key,
  timestamp).
* ``decrease_key(key, priority)`` where supported: new priority is
  min(old, new); requires a live key.
* ``delete(key)`` where supported: removes the key if present, no effect
  otherwise (the workload model's reading of Delete).
* ``delete_key(key)``, provided only by the oracle and the dk wrapper:
  strict variant that raises on an absent key; on the wrapper it is the
  DecreaseKey-then-ExtractMin recipe.
* ``clear()``, ``memory_image()``/``load_memory_image()`` for global
  rebuilding and snapshot-resume replication.  The image is a list of w-bit
  words in the queue's own layouts: counters, occupancy bitmaps
  (``pack_ids``) and the root in its node layout, so its length is the
  number of words resident in the M-word memory.

Capability flags ``supports_decrease_key``/``supports_delete`` gate which
workloads a queue may run.

``run_workload`` is the only loop that dispatches ops to a queue; the CLI,
the protocol replicas and the tests all replay through it.  It replays the
half-open range ``ops[lo:hi]`` (``hi=None`` means the end), tags each probe
with the op's absolute index in ``ops``, reports ``n_ops = hi - lo`` and
checks each ExtractMin answer against the transcript, so a queue resumed
from a snapshot can run the tail of the same workload.

On-disk queues store an entry ``(priority, key, timestamp)`` as three w-bit
words ``key, priority + 2^(w-1), timestamp``; ``check_entry`` checks that
an entry fits.  In memory, the heap and the tournament hold an entry as its
stored words ``(priority + 2^(w-1), key, timestamp)``, which order as the
entries do, so no codec converts one; ``entry_words``/``word_entries``
only reorder words, and the oracle's image uses them unbiased.

``BufferedTree`` is the resident half of both external queues (the buffered
heap and the tournament).  It owns the M-word memory: an operation counter
``_seq``, the ids of node arenas written since ``clear()`` (``_occupied``)
and of subtrees that may hold entries (``_maybe``), and the root node.  The
memory image is ``[seq] + pack_ids(_occupied) + pack_ids(_maybe)`` followed
by the subclass's root words, and the constructor audit charges the largest
image that layout can produce plus 2B words of block buffers against M, so
an accepted queue's image never exceeds M - 2B words.  A subclass gives the
node id space, ``_children(x)``, the root's id and word layout, and how a
node other than the root is read and written; a node whose id is not
occupied is empty without a probe, which makes ``clear()`` free.

The base also runs both tree walks.  A flush empties a node's buffer: for
each ``(child, batch)`` the subclass's ``_route`` names, it loads the
child, lets the subclass's ``_apply`` take the batch (which may flush the
child in turn) and stores it.  A refill fills an empty node's tops with up
to ``cap`` of its subtree's minima, flushing the node's own buffer first so
no entry below is overlooked.  It merges one ``SOURCE`` per child in
``_maybe`` with a heap keyed by ``(head, child index)``, yet probes as a
full rescan would: the first round asks every source for its head in child
order (a source whose node ran dry with entries below refills it first),
after that only the popped source is asked again, and only while the node
still wants entries.  The default source, ``Loaded``, holds the child whole.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import islice

from ..errors import CapabilityError, ConfigError, DivergenceError, EncodingError
from ..ops import DECREASE, DELETE, EXTRACTMIN, INSERT, OP_NAMES

ENTRY_WORDS = 3


def check_entry(key: int, priority: int, w: int) -> None:
    """Raise EncodingError unless the key and priority fit w-bit entry words."""
    if not 0 <= key < (1 << w):
        raise EncodingError(f"key {key} does not fit in {w}-bit words")
    bias = 1 << (w - 1)
    if not -bias <= priority < bias:
        raise EncodingError(f"priority {priority} does not fit in {w}-bit words")


def entry_words(entries) -> list[int]:
    """Lay (priority word, key, timestamp) entries out as key, priority word, timestamp."""
    words = [0] * (ENTRY_WORDS * len(entries))
    if entries:
        words[1::3], words[0::3], words[2::3] = zip(*entries)
    return words


def word_entries(words: list[int], lo: int, n: int) -> list[tuple[int, int, int]]:
    """The n entries laid out from word lo, as (priority word, key, timestamp)."""
    span = words[lo : lo + ENTRY_WORDS * n]
    return list(zip(span[1::3], span[0::3], span[2::3]))


def pack_ids(ids, n: int, w: int) -> list[int]:
    """Node ids in [0, n) as a bitmap of ceil(n/w) w-bit words, id i at bit i % w of word i // w."""
    words = [0] * -(-n // w)
    for i in ids:
        words[i // w] |= 1 << (i % w)
    return words


def unpack_ids(words: list[int], w: int) -> set[int]:
    """The node ids set in a ``pack_ids`` bitmap."""
    return {j * w + i for j, word in enumerate(words) for i, bit in enumerate(f"{word:b}"[::-1]) if bit == "1"}


class PriorityQueueBase:
    supports_decrease_key = False
    supports_delete = False
    name = "abstract"

    def insert(self, key: int, priority: int) -> None:
        raise NotImplementedError

    def extract_min(self) -> tuple[int, int]:
        raise NotImplementedError

    def decrease_key(self, key: int, priority: int) -> None:
        raise CapabilityError(f"{self.name} does not support DecreaseKey")

    def delete(self, key: int) -> None:
        raise CapabilityError(f"{self.name} does not support Delete")

    def clear(self) -> None:
        raise NotImplementedError


class Node:
    """A buffered-tree node: sorted ``tops``, the buffer ``buf`` in transit
    toward the leaves, and ``rr``, the next child a buffer flush goes to."""

    __slots__ = ("tops", "buf", "rr")

    def __init__(self, tops=None, buf=None, rr=0):
        self.tops = tops if tops is not None else []
        self.buf = buf if buf is not None else []
        self.rr = rr

    def pop_min(self) -> tuple[int, int, int]:
        return self.tops.pop(0)

    def set_tops(self, tops: list) -> None:
        self.tops = tops


class Loaded:
    """A refill source holding its child node whole; it refills the node
    from below whenever the node runs dry, and stores it back if it changed."""

    __slots__ = ("owner", "x", "node", "dirty")

    def __init__(self, owner: "BufferedTree", x: int, node: Node | None = None):
        self.owner = owner
        self.x = x
        self.node = owner._load(x) if node is None else node
        self.dirty = False

    def next_head(self) -> tuple[int, int, int] | None:
        node = self.node
        if not node.tops and (node.buf or self.owner._below_maybe(self.x)):
            self.owner._refill(self.x, node)
            self.dirty = True
        return node.tops[0] if node.tops else None

    def pop(self) -> None:
        self.node.pop_min()
        self.dirty = True

    def pop_next(self) -> tuple[int, int, int] | None:
        self.pop()
        return self.next_head()

    def writeback(self) -> None:
        if self.dirty:
            self.owner._store(self.x, self.node)


class BufferedTree(PriorityQueueBase):
    """Resident state, memory image, M-word audit and tree walks of an on-disk buffered tree.

    Subclasses set ``ROOT`` (the root's id), ``ROOT_HEADER`` (the length of
    their root words' header, which reads all-zero as an empty root) and
    ``cap`` (the most entries a refill takes), and define ``_children``,
    ``_root_words``/``_load_root_words``, ``_read_node``/``_write_node``,
    ``_route`` and ``_apply``.
    """

    ROOT: int
    ROOT_HEADER: int
    NODE = Node  # the class of the empty node an unoccupied id reads as
    SOURCE = Loaded  # the refill source over one child: next_head, pop, pop_next, writeback

    def __init__(self, device):
        self.device = device
        cfg = device.config
        self.B, self.M, self.w = cfg.B, cfg.M, cfg.w
        self._prio_bias = 1 << (self.w - 1)

    def _setup(self, n_ids: int, root_words_max: int) -> None:
        """Audit the largest image (ids in [0, n_ids)) against M - 2B, then start empty."""
        self._n_ids = n_ids
        resident = 1 + 2 * -(-n_ids // self.w) + root_words_max
        if resident > self.M - 2 * self.B:
            raise ConfigError(
                f"M={self.M} words cannot hold {2 * self.B} words of block buffers "
                f"plus the largest memory image ({resident} words)"
            )
        self.clear()

    def _bump(self) -> int:
        self._seq += 1
        if self._seq >= (1 << self.w):
            raise EncodingError("operation counter exceeded the word width")
        return self._seq

    def _below_maybe(self, x: int) -> bool:
        return not self._maybe.isdisjoint(self._children(x))

    def _refresh_maybe(self, x: int, node: Node) -> None:
        if node.tops or node.buf or self._below_maybe(x):
            self._maybe.add(x)
        else:
            self._maybe.discard(x)

    def _load(self, x: int) -> Node:
        if x == self.ROOT:
            return self._root
        if x not in self._occupied:
            return self.NODE()
        return self._read_node(x)

    def _store(self, x: int, node: Node) -> None:
        if x == self.ROOT:
            self._root = node
        else:
            self._write_node(x, node)
            self._occupied.add(x)
        self._refresh_maybe(x, node)

    def _flush(self, x: int, node: Node) -> None:
        """Empty node x's buffer into the children ``_route`` names (module docstring)."""
        for child, batch in self._route(x, node):
            cnode = self._load(child)
            self._apply(child, cnode, batch)
            self._store(child, cnode)
        self._refresh_maybe(x, node)

    def _refill(self, x: int, node: Node) -> None:
        """Fill internal node x's tops with its subtree's minima; own buffer flushed first."""
        if node.buf:
            self._flush(x, node)
        if node.tops:
            return
        sources = [self.SOURCE(self, c) for c in self._children(x) if c in self._maybe]
        # Probes as a rescan per taken entry would (module docstring): all
        # sources once in child order, then only the popped one.
        merge = []
        for i, src in enumerate(sources):
            head = src.next_head()
            if head is not None:
                merge.append((head, i))
        heapq.heapify(merge)
        taken: list[tuple[int, int, int]] = []
        cap = self.cap
        while merge:
            head, i = merge[0]
            taken.append(head)
            if len(taken) >= cap:
                sources[i].pop()
                break
            head = sources[i].pop_next()
            if head is None:
                heapq.heappop(merge)
            else:
                heapq.heapreplace(merge, (head, i))
        node.set_tops(taken)
        for src in sources:
            src.writeback()
        self._refresh_maybe(x, node)

    def clear(self) -> None:
        self._seq = 0
        self._occupied: set[int] = set()
        self._maybe: set[int] = set()
        self._load_root_words([0] * self.ROOT_HEADER)

    def memory_image(self) -> list[int]:
        n, w = self._n_ids, self.w
        return [self._seq] + pack_ids(self._occupied, n, w) + pack_ids(self._maybe, n, w) + self._root_words()

    def load_memory_image(self, words: list[int]) -> None:
        nb = -(-self._n_ids // self.w)
        self._seq = words[0]
        self._occupied = unpack_ids(words[1 : 1 + nb], self.w)
        self._maybe = unpack_ids(words[1 + nb : 1 + 2 * nb], self.w)
        self._load_root_words(words[1 + 2 * nb :])


@dataclass
class RunReport:
    structure: str
    B: int
    M: int
    w: int
    n_ops: int
    probes_total: int = 0
    probes_insert: int = 0
    probes_delete: int = 0
    probes_extractmin: int = 0
    probes_decrease: int = 0
    seed: int | None = None
    extractions: list[tuple[int, int]] = field(default_factory=list)

    CSV_HEADER = [
        "structure", "B", "M", "w", "N", "probes_total",
        "probes_insert", "probes_delete", "probes_extractmin", "probes_decrease", "seed",
    ]

    def csv_row(self) -> list:
        return [
            self.structure, self.B, self.M, self.w, self.n_ops, self.probes_total,
            self.probes_insert, self.probes_delete, self.probes_extractmin, self.probes_decrease,
            "" if self.seed is None else self.seed,
        ]


def _require_capabilities(queue, ops) -> None:
    kinds = {op.kind for op in ops}
    if DELETE in kinds and not queue.supports_delete:
        raise CapabilityError(
            f"workload contains Delete but {queue.name} does not support it; wrap it in the DecreaseKey reduction"
        )
    if DECREASE in kinds and not queue.supports_decrease_key:
        raise CapabilityError(f"workload contains DecreaseKey but {queue.name} does not support it")


def run_workload(queue, device, workload, check_answers: bool = True, lo: int = 0, hi: int | None = None) -> RunReport:
    """Replay ``workload.ops[lo:hi]`` on an instrumented queue, one context per op.

    Every ExtractMin record carries its answer, and the answers act as the
    oracle transcript; any divergence aborts with a diagnostic naming the
    absolute op index.  Probe counts are aggregated per operation class from
    the device log delta.  The device context is reset on every exit.
    """
    ops = workload.ops
    hi = len(ops) if hi is None else hi
    if not 0 <= lo <= hi <= len(ops):
        raise ValueError(f"op range [{lo}, {hi}) outside a workload of {len(ops)} ops")
    _require_capabilities(queue, islice(ops, lo, hi))
    cfg = device.config
    report = RunReport(
        structure=queue.name, B=cfg.B, M=cfg.M, w=cfg.w, n_ops=hi - lo,
        seed=getattr(workload, "seed", None),
    )
    log, set_context = device.log, device.set_context
    insert, extract_min, decrease_key, delete = queue.insert, queue.extract_min, queue.decrease_key, queue.delete
    probes = [0] * (max(OP_NAMES) + 1)  # per op kind
    start = len(log)
    try:
        for idx, (kind, key, priority, leaf_id) in enumerate(islice(ops, lo, hi), lo):
            set_context(idx, leaf_id)
            before = len(log)
            if kind == INSERT:
                insert(key, priority)
            elif kind == EXTRACTMIN:
                got = extract_min()
                report.extractions.append(got)
                if check_answers and got != (key, priority):
                    raise DivergenceError(
                        f"op {idx} (leaf {leaf_id}): {queue.name} extracted "
                        f"({got[0]},{got[1]}), oracle transcript says ({key},{priority})"
                    )
            elif kind == DECREASE:
                decrease_key(key, priority)
            elif kind == DELETE:
                delete(key)
            else:
                raise ValueError(f"unknown op kind {kind}")
            probes[kind] += len(log) - before
    finally:
        set_context(None, None)
    report.probes_insert, report.probes_delete = probes[INSERT], probes[DELETE]
    report.probes_extractmin, report.probes_decrease = probes[EXTRACTMIN], probes[DECREASE]
    report.probes_total = len(log) - start
    return report
