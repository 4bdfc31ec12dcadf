"""Priority-queue interface and the one replay loop.

Queue implementations expose:

* ``insert(key, priority)``; inserting a live key is a contract violation
  (the oracle detects it, external structures trust the generator).
* ``extract_min() -> (key, priority)``, minimum under (priority, key);
  keys are unique among live entries, so no later field decides.
* ``decrease_key(key, priority)`` where supported: new priority is
  min(old, new); requires a live key.
* ``delete(key)`` where supported: removes the key if present, no effect
  otherwise (the workload model's reading of Delete).
* ``delete_key(key)``, provided only by the oracle and the dk wrapper:
  strict variant that raises on an absent key; on the wrapper it is the
  DecreaseKey-then-ExtractMin recipe.
* ``clear()``, ``memory_image()``/``load_memory_image()`` for global
  rebuilding and snapshot-resume replication.  The image is a list of w-bit
  words in the queue's own layouts: counters and the resident nodes in
  their node layout, so its length is the number of words resident in the
  M-word memory.

Capability flags ``supports_decrease_key``/``supports_delete`` gate which
workloads a queue may run.

``run_workload`` is the only loop in the package that feeds a workload to
a queue; the CLI and the protocol replicas replay through it.  It replays the
half-open range ``ops[lo:hi]`` (``hi=None`` means the end), tags each probe
with the op's absolute index in ``ops``, reports ``n_ops = hi - lo`` and
checks each ExtractMin answer against the transcript, so a queue resumed
from a snapshot can run the tail of the same workload.

``check_entry`` checks that a key and a priority fit w-bit words.  Both
external trees store an entry as the two words ``key, priority +
2^(w-1)`` and hold it in memory as ``(priority + 2^(w-1), key)``, which
orders as the entries do: keys are unique among live entries, so (priority,
key) is total and no timestamp is stored.  ``entry_words``/``word_entries``
are the one codec between the two, and only reorder words.  The walks below
compare these tuples.

``BufferedTree`` is the one tree shape and the resident half of both
external queues (the buffered heap and the tournament).  The tree is a
complete ``fanout``-ary tree numbered level by level from ``ROOT``, its
leaves from ``first_leaf`` on; node x's arena is ``node_blocks`` blocks
(``leaf_blocks`` at a leaf) from block ``_addr(x)``, the internal nodes'
arenas first, so the ``n_nodes`` arenas tile blocks [0, ``_addr(ROOT +
n_nodes)``), a bound the constructor audits against 2^w.  The base owns
the M-word memory, ``T`` resident nodes: the root and, in the tournament,
the whole levels below it that fit.  The memory image is the subclass's
words for the resident nodes, and the constructor audit charges the largest
image that layout can produce plus 2B words of block buffers against M, so
an accepted queue's image never exceeds M - 2B words, whatever N is.  Every
node carries ``bits``, one bit per child, stored in its header: bit i is
set iff child i's subtree holds an entry or a buffered item.  A child whose
bit is clear is read as an empty node without a probe, so ``clear()``,
which empties the resident nodes, leaves every node on disk unreachable at
no cost, and ``nodes(peek=True)`` walks every node behind set bits without
a probe.  A subclass gives the sizes above, its node layouts (the resident
words' ``memory_image``/``load_memory_image`` and the on-disk node's
``_read_node``/``_write_node``) and its node rules (``_route``,
``_apply`` and the operations).

``BufferedTree._load``/``_store`` are the one site in ``pq/`` that reaches
the device.  Both take word spans [lo, hi) of node x's arena, whole blocks
from block ``_addr(x)``: ``_load`` reads each block a span covers that its
block map lacks (through ``peek_block`` for the probe-free walk), and
``_store`` zero-pads the words to whole blocks and writes every block a
span touches, in ascending block order.

The base also runs both tree walks, and each walk holds the parent of every
child it changes, so it keeps the parent's bits exact at no extra probe.  A
flush moves the batches the subclass's ``_route`` takes out of a node's
buffer, which need not be all of it (the heap's takes the whole buffer,
the tournament's its fuller half): for each ``(child index, batch)`` it
loads the child, lets the subclass's ``_apply`` take the batch (which may
flush the child in turn), stores it and sets the child's bit.  A refill
fills an empty node's tops with up to ``_cap_of(x)`` of its subtree's
minima, ``cap`` unless the subclass gives node x more.  No entry in the
node's own buffer may be overlooked, and the class picks how, as it picks
``SOURCE``: a ``BUF_SOURCE`` merges the buffer as one more source, and
``None`` flushes it until it is empty first.  The heap merges its pending
entries.  They are in memory, so this costs no probe, where a flush would
write them to a child only for the merge to read them back; what the
merge leaves stays pending, each entry >= the new tops maximum.  The
tournament flushes first, because its buffer carries signals that must
reach their records before any record climbs.  Those flushes do not store
a child that still holds anything: it stays loaded as that child's
source, a ``Loaded`` marked changed, so it is written once, after the
merge, and never read back.  The merge takes one ``SOURCE`` per child
whose bit is set, with a heap keyed by ``(head, source index)``, yet
probes as a full rescan would: the first round asks every source for its
head in child order (a source whose node ran dry with entries below
refills it first), after that only the popped source is asked again, and
only while the node still wants entries.  A source keeps the lead with no
heap step while its next head stays below every other source's (a gallop),
so a run from one child costs one heap step.  Then each source writes back
and sets its child's bit.  The default source, ``Loaded``, holds the
child whole.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count

from ..device import ProbeRecord
from ..errors import CapabilityError, ConfigError, DivergenceError, EncodingError, StructureOverflowError
from ..ops import DECREASE, DELETE, EXTRACTMIN, INSERT, NO_LEAF, OP_NAMES

ENTRY_WORDS = 2  # key, priority word
_LAST = ((float("inf"),), 0)  # a merge item whose head follows every entry


def check_entry(key: int, priority: int, w: int) -> None:
    """Raise EncodingError unless the key and priority fit w-bit entry words."""
    if not 0 <= key < (1 << w):
        raise EncodingError(f"key {key} does not fit in {w}-bit words")
    bias = 1 << (w - 1)
    if not -bias <= priority < bias:
        raise EncodingError(f"priority {priority} does not fit in {w}-bit words")


def entry_words(entries) -> list[int]:
    """Lay (priority word, key) entries out as key, priority word."""
    words = [0] * (ENTRY_WORDS * len(entries))
    if entries:
        words[1::2], words[0::2] = zip(*entries)
    return words


def word_entries(words: list[int], lo: int, n: int) -> list[tuple[int, int]]:
    """The n entries laid out from word lo, as (priority word, key)."""
    span = words[lo : lo + ENTRY_WORDS * n]
    return list(zip(span[1::2], span[0::2]))


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
    toward the leaves, ``rr``, the next child a buffer flush goes to, and
    ``bits``, whose bit i is set iff child i's subtree holds anything."""

    __slots__ = ("tops", "buf", "rr", "bits")

    def __init__(self, tops=None, buf=None, rr=0, bits=0):
        self.tops = tops if tops is not None else []
        self.buf = buf if buf is not None else []
        self.rr = rr
        self.bits = bits

    def pop_min(self) -> tuple[int, int]:
        return self.tops.pop(0)

    def set_tops(self, tops: list) -> None:
        self.tops = tops

    def holds(self) -> bool:
        """Whether this node's subtree holds an entry or a buffered item."""
        return bool(self.tops or self.buf or self.bits)

    def mark(self, i: int, holds: bool) -> None:
        """Set child i's bit if its subtree holds anything, else clear it."""
        self.bits = self.bits | 1 << i if holds else self.bits & ~(1 << i)


class Loaded:
    """A refill source holding its child node whole; it refills the node
    from below whenever the node runs dry, and stores it back if it changed."""

    __slots__ = ("owner", "x", "node", "dirty")

    def __init__(self, owner: "BufferedTree", x: int, node: Node | None = None, dirty: bool = False):
        self.owner = owner
        self.x = x
        self.node = owner._read_node(x) if node is None else node
        self.dirty = dirty

    def next_head(self) -> tuple[int, int] | None:
        node = self.node
        if not node.tops and (node.buf or node.bits):
            self.owner._refill(self.x, node)
            self.dirty = True
        return node.tops[0] if node.tops else None

    def pop(self) -> None:
        self.node.pop_min()
        self.dirty = True

    def pop_next(self) -> tuple[int, int] | None:
        self.pop()
        return self.next_head()

    def writeback(self) -> bool:
        """Store the node if it changed; whether its subtree still holds anything."""
        if self.dirty:
            self.owner._write_node(self.x, self.node)
        return self.node.holds()


class BufferedTree(PriorityQueueBase):
    """Tree shape, resident state, audits, block I/O and tree walks of an on-disk buffered tree.

    Subclasses set the sizes ``ROOT``, ``fanout``, ``first_leaf``,
    ``n_nodes``, ``node_blocks`` and ``leaf_blocks`` (module docstring),
    ``ROOT_HEADER`` (the length of their root words' header, which reads
    all-zero as an empty root), ``T`` when more than the root is resident,
    and ``cap`` (the most entries a refill takes where ``_cap_of`` gives no
    other).  They define the codecs ``memory_image``/``load_memory_image``
    and ``_read_node(x, peek)``/``_write_node``, and ``_route`` and ``_apply``.
    """

    ROOT: int
    ROOT_HEADER: int
    T = 1  # nodes resident in memory, the root included; each reads as ROOT_HEADER zero words when empty
    NODE = Node  # the class of the empty node a clear bit reads as
    SOURCE = Loaded  # the refill source over one child: next_head, pop, pop_next, writeback
    BUF_SOURCE = None  # the refill source over the node's own buffer; None flushes the buffer first

    def __init__(self, device):
        self.device = device
        cfg = device.config
        self.B, self.M, self.w = cfg.B, cfg.M, cfg.w
        self._prio_bias = 1 << (self.w - 1)

    def _setup(self, resident_words_max: int) -> None:
        """Audit the arena against w-bit addresses and the largest image, the
        resident words, against M - 2B, then start empty."""
        blocks = self._addr(self.ROOT + self.n_nodes)
        if blocks >= self.device.config.word_limit:
            raise ConfigError(f"{self.w}-bit words too narrow to address a {blocks}-block tree arena; increase w")
        if resident_words_max > self.M - 2 * self.B:
            raise ConfigError(
                f"M={self.M} words cannot hold {2 * self.B} words of block buffers "
                f"plus the largest memory image ({resident_words_max} words)"
            )
        self.clear()

    def _flush(self, x: int, node: Node, loaded: dict[int, Node] | None = None) -> None:
        """Move the batches ``_route`` names from node x's buffer into its children
        (module docstring).  With ``loaded``, a refill's map from child index to
        the child nodes its flushes loaded, a child is taken from it if there,
        and left there, not written, while it holds anything."""
        kids = self._children(x)
        for i, batch in self._route(x, node):
            cnode = loaded.pop(i, None) if loaded else None
            if cnode is None:
                cnode = self._read_node(kids[i]) if node.bits >> i & 1 else self.NODE()
            self._apply(kids[i], cnode, batch)
            holds = cnode.holds()
            if loaded is not None and holds:
                loaded[i] = cnode
            else:
                self._write_node(kids[i], cnode)
            node.mark(i, holds)

    def _refill(self, x: int, node: Node) -> None:
        """Fill internal node x's tops with its subtree's minima, merging its own
        buffer as one more source, or flushing it empty first (module docstring)."""
        loaded: dict[int, Node] = {}
        while node.buf and self.BUF_SOURCE is None:
            self._flush(x, node, loaded)
        kids = self._children(x)
        held = [i for i in range(len(kids)) if node.bits >> i & 1]
        # A child the flushes left loaded is already the changed node: no probe opens it.
        sources = [Loaded(self, kids[i], loaded[i], True) if i in loaded else self.SOURCE(self, kids[i])
                   for i in held]
        own = self.BUF_SOURCE(node) if node.buf else None
        if own is not None:
            sources.append(own)
        # Probes as a rescan per taken entry would (module docstring): all
        # sources once in child order, then only the popped one.
        merge = []
        for j, src in enumerate(sources):
            head = src.next_head()
            if head is not None:
                merge.append((head, j))
        heapq.heapify(merge)
        taken: list[tuple[int, int]] = []
        cap = self._cap_of(x)
        while merge:
            head, j = merge[0]
            bound = min(merge[1:3], default=_LAST)[0]  # gallop: j leads while below every other head
            taken.append(head)
            while len(taken) < cap and (head := sources[j].pop_next()) is not None and head < bound:
                taken.append(head)
            if len(taken) >= cap:
                sources[j].pop()
                break
            if head is None:
                heapq.heappop(merge)
            else:
                heapq.heapreplace(merge, (head, j))
        node.set_tops(taken)
        for i, src in zip(held, sources):
            node.mark(i, src.writeback())
        if own is not None:
            own.writeback()

    def _cap_of(self, x: int) -> int:  # the most entries node x's tops take in a refill
        return self.cap

    # -- tree shape ---------------------------------------------------------------

    def _children(self, x: int) -> range:
        first = self.fanout * (x - self.ROOT) + self.ROOT + 1
        return range(first, first + self.fanout)

    def _is_leaf(self, x: int) -> bool:
        return x >= self.first_leaf

    def _blocks_for(self, words: int) -> int:
        return (words + self.B - 1) // self.B

    def _addr(self, x: int) -> int:
        """Node x's first block: ``node_blocks`` per internal node from ``ROOT``, then ``leaf_blocks`` per leaf."""
        if x <= self.first_leaf:
            return (x - self.ROOT) * self.node_blocks
        return (self.first_leaf - self.ROOT) * self.node_blocks + (x - self.first_leaf) * self.leaf_blocks

    @staticmethod
    def _check_leaf(x: int, n: int, cap: int) -> None:
        """Raise StructureOverflowError if leaf x holds more than its ``cap`` entries."""
        if n > cap:
            raise StructureOverflowError(f"leaf {x} overflow ({n} entries); construct with a larger n_hint")

    def _load(self, x: int, lo: int, hi: int, blocks: dict, peek: bool = False) -> dict:
        """Read into ``blocks`` (block index -> words), through ``peek_block`` with ``peek``,
        each block of node x's arena that the word span [lo, hi) covers and ``blocks`` lacks."""
        if hi > lo:
            read = self.device.peek_block if peek else self.device.read_block
            base, B = self._addr(x), self.B
            for b in range(lo // B, (hi - 1) // B + 1):
                if b not in blocks:
                    blocks[b] = read(base + b)
        return blocks

    def _store(self, x: int, words: list[int], spans) -> None:
        """Zero-pad node x's ``words`` to whole blocks and write, in ascending order, each block a span touches."""
        B = self.B
        words += [0] * (-len(words) % B)
        write, base, last = self.device.write_block, self._addr(x), -1
        for lo, hi in spans:  # ascending, so one pass past the last block written skips repeats
            if hi > lo:
                for b in range(max(lo // B, last + 1), (hi - 1) // B + 1):
                    write(base + b, words[b * B : (b + 1) * B])
                    last = b

    def clear(self) -> None:
        self.load_memory_image([0] * (self.T * self.ROOT_HEADER))

    def nodes(self, peek: bool = False):
        """Yield ``(x, node)`` for the root and every node reachable through set
        bits, each before its children.  Resident nodes come from memory; with
        ``peek`` the others are decoded through ``peek_block``, at no probe."""
        stack = [(self.ROOT, self._root)]
        while stack:
            x, node = stack.pop()
            yield x, node
            stack += [(c, self._read_node(c, peek)) for i, c in enumerate(self._children(x)) if node.bits >> i & 1]


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


def _require_capabilities(queue, kinds: set[int]) -> None:
    if DELETE in kinds and not queue.supports_delete:
        raise CapabilityError(
            f"workload contains Delete but {queue.name} does not support it; wrap it in the DecreaseKey reduction"
        )
    if DECREASE in kinds and not queue.supports_decrease_key:
        raise CapabilityError(f"workload contains DecreaseKey but {queue.name} does not support it")


def run_workload(queue, device, workload, check_answers: bool = True, lo: int = 0, hi: int | None = None) -> RunReport:
    """Replay ``workload.ops[lo:hi]`` on an instrumented queue, stamping each op's probes.

    Every ExtractMin record carries its answer, and the answers act as the
    oracle transcript; any divergence aborts with a diagnostic naming the
    absolute op index.  The device logs untagged records; once an op returns
    or raises, the records it added get its absolute index and leaf.  Probe
    counts are aggregated per operation class from the same log deltas.
    """
    ops = workload.ops
    hi = len(ops) if hi is None else hi
    if not 0 <= lo <= hi <= len(ops):
        raise ValueError(f"op range [{lo}, {hi}) outside a workload of {len(ops)} ops")
    rows = ops[lo:hi]
    _require_capabilities(queue, set(rows.kind))
    cfg = device.config
    report = RunReport(
        structure=queue.name, B=cfg.B, M=cfg.M, w=cfg.w, n_ops=hi - lo,
        seed=getattr(workload, "seed", None),
    )
    log = device.log
    insert, extract_min, decrease_key, delete = queue.insert, queue.extract_min, queue.decrease_key, queue.delete
    probes = [0] * (max(OP_NAMES) + 1)  # per op kind
    start = stamped = len(log)
    for idx, kind, key, priority, leaf_id in zip(count(lo), *rows.columns()):
        try:
            if kind == INSERT:
                insert(key, priority)
            elif kind == EXTRACTMIN:
                got = extract_min()
                report.extractions.append(got)
                if check_answers and got != (key, priority):
                    raise DivergenceError(
                        f"op {idx} (leaf {None if leaf_id == NO_LEAF else leaf_id}): {queue.name} extracted "
                        f"({got[0]},{got[1]}), oracle transcript says ({key},{priority})"
                    )
            elif kind == DECREASE:
                decrease_key(key, priority)
            elif kind == DELETE:
                delete(key)
            else:
                raise ValueError(f"unknown op kind {kind}")
        finally:  # stamp the op's records, also when it raises
            if len(log) != stamped:
                probes[kind] += len(log) - stamped
                leaf = None if leaf_id == NO_LEAF else leaf_id
                log[stamped:] = [tuple.__new__(ProbeRecord, (idx, leaf) + rec[2:]) for rec in log[stamped:]]
                stamped = len(log)
    report.probes_insert, report.probes_delete = probes[INSERT], probes[DELETE]
    report.probes_extractmin, report.probes_decrease = probes[EXTRACTMIN], probes[DECREASE]
    report.probes_total = len(log) - start
    return report
