"""Buffered multiway heap for Insert/ExtractMin over a probe-counted device.

An f-ary tree of on-disk node buffers, f derived from M/B.  Each node keeps
two buffers: ``tops``, an authoritative prefix of its subtree's minima
(every entry below the node is >= the tops maximum), and ``pending`` (the
shared ``Node``'s ``buf``), entries in transit toward the leaves.  An
arriving entry joins ``tops`` only when it beats the current maximum or the
subtree holds nothing else; otherwise it rides ``pending``, which a flush
moves whole, sorted, to a round-robin child when it is full.  ExtractMin
pops the root's ``tops`` (held in the M-word memory) and refills it when
empty.  On-disk nodes hold up to ``cap`` entries in each buffer, the root
up to ``root_cap``: the most the M-word audit passes, never below ``cap``.
A root flush sends its ``root_cap + 1`` entries, sorted, in the fewest even
runs of at most ``cap + 1`` (a ``cap``-sized root's batch), one per child
in turn, and steps its round-robin by the least count >= the runs coprime
to the fan-out, so no child takes only the largest runs, to pile up in its
leaves.  The walks are ``base.BufferedTree``'s.  A
refill merges the node's own pending entries (``_Pending``) with its
children's tops instead of flushing them first: they are already in memory
(resident at the root, decoded with the node deeper down), so a flush
would only write them to a child for the merge to read back.  What the
merge leaves stays pending, so a refilled node may hold pending entries,
each >= its new tops maximum, and at most the node's capacity of them.
Entries move in half-buffer batches both ways, targeting
O((1/B) log_{M/B} N) probes per operation amortized; the constant is
asserted as a measured regression bound, not proved.

Node arena layout: block 0 opens with [n_tops, n_pending, round_robin,
tops_offset, bits, 0, 0, 0], where bit i of ``bits`` is set iff child i's
subtree holds an entry (the fan-out is at most 8); the sorted tops region
follows the header and the pending region sits at the fixed offset
``HEADER_WORDS + 2 * cap``, entries packed 2 words each as ``key, priority +
2^(w-1)`` by ``base.entry_words``.  In memory an entry is ``(priority +
2^(w-1), key)``, which orders as the entries do, since keys are unique
among live entries: ``insert`` adds the bias, ``extract_min`` removes it,
and the node codecs and the cursor heads only reorder words.  A leaf
absorbs every batch into its tops, so leaves never hold pending entries: a
leaf's arena holds the header and ``leaf_tops_cap`` entries, and the depth
is chosen from that capacity.  The arena, ``leaf_tops_cap`` and the depth
follow from ``cap`` alone, so ``root_cap`` moves no block address.  The
tree shape, arena addresses, audits and resident state live in
``base.BufferedTree``.  The root words, and so the image, are ``[live,
rr, n_tops, bits]`` followed by the root's tops and pending entries, at
most ``ROOT_HEADER + 4 * root_cap`` words, so ``root_cap = (M - 2B -
ROOT_HEADER) // 4`` where that exceeds ``cap``.  A node whose subtree
empties is read back, once its parent's bit is clear, as a fresh node, so
its round-robin restarts at child 0.  Merge scratch is host memory, not
charged.

A flushed batch that enters an internal node is sorted and split at the
tops maximum: the entries below it join tops, which never moves the
maximum, and the rest go to pending in order.  ``insert`` applies the same
rule to its one entry at the root.

A refill reads each child through a lazy ``_Cursor``: tops are consumed
front-first by bumping ``tops_offset``, so a refill reads only the blocks
it merges from and writes one header block per consumed child.  The merge
holds each decoded head until it is popped, and ``pop_next`` decodes the
next head in place when it follows in the same block.  A head is decoded
priority word first, so when an entry straddles two unread blocks (at odd
B) the later block is probed before the earlier.
"""

from __future__ import annotations

import bisect
import heapq
import math

from ..errors import ConfigError, EmptyQueueError
from .base import ENTRY_WORDS, BufferedTree, Loaded, Node, check_entry, entry_words, word_entries

HEADER_WORDS = 8
LEAF_TOPS_FACTOR = 4


class _Cursor:
    """Lazy front-consumption of one child's sorted tops region, as a refill source.

    The merge holds each head entry until it is popped, so each entry is
    decoded, and each of its blocks read, exactly once.  A child that runs
    dry with entries below is built whole from the blocks the cursor holds
    plus its pending span, and handed to a ``Loaded`` source (``full``),
    which refills it and serves the rest.
    """

    __slots__ = ("owner", "x", "B", "blocks", "n_tops", "n_pending", "off", "bits", "eaten", "full", "_blk", "_i")

    def __init__(self, owner: "BufferedHeap", x: int):
        self.owner = owner
        self.x = x
        self.B = owner.B
        self.blocks = owner._load(x, 0, HEADER_WORDS, {})
        words0 = self.blocks[0]
        self.n_tops, self.n_pending, _, self.off, self.bits = words0[:5]
        self.eaten = 0
        self.full: Loaded | None = None
        self._blk, self._i = words0, self.B  # the head's block and word index, if it lies in one

    def _block(self, b: int) -> tuple[int, ...]:
        blk = self.blocks.get(b)
        if blk is None:
            blk = self.owner._load(self.x, b * self.B, b * self.B + 1, self.blocks)[b]
        return blk

    def next_head(self) -> tuple[int, int] | None:
        """Decode the head entry; a child that ran dry with more below is first handed to a ``Loaded``."""
        if self.full is not None:
            return self.full.next_head()
        if self.eaten < self.n_tops:
            pos = HEADER_WORDS + ENTRY_WORDS * (self.off + self.eaten)
            B = self.B
            b, i = divmod(pos, B)
            if i + ENTRY_WORDS <= B:
                blk = self._blk = self._block(b)
                self._i = i
                return (blk[i + 1], blk[i])
            # The entry straddles two blocks (odd B); the priority word is
            # read first, so the later block may be probed before the earlier.
            prio = self._block(b + 1)[0]
            self._i = B
            return (prio, self._block(b)[i])
        if self.n_pending or self.bits:
            node = self.owner._read_node(self.x, blocks=self.blocks)
            del node.tops[: self.eaten]
            self.full = Loaded(self.owner, self.x, node)
            return self.full.next_head()
        return None

    def pop(self) -> None:
        """Consume the head entry, which the caller already holds."""
        if self.full is not None:
            self.full.pop()
        else:
            self.eaten += 1

    def pop_next(self) -> tuple[int, int] | None:
        """Consume the head entry and return the next one, as ``next_head`` would; an
        entry that follows it in the same block is decoded in place."""
        if self.full is not None:
            return self.full.pop_next()
        self.eaten += 1
        i = self._i + ENTRY_WORDS
        if i + ENTRY_WORDS <= self.B and self.eaten < self.n_tops:
            blk = self._blk
            self._i = i
            return (blk[i + 1], blk[i])
        return self.next_head()

    def writeback(self) -> bool:
        """Write the consumed header back; whether the child's subtree still holds anything."""
        if self.full is not None:
            return self.full.writeback()
        if self.eaten:
            words0 = list(self.blocks[0])
            words0[0] = self.n_tops - self.eaten
            words0[3] = self.off + self.eaten
            self.owner._store(self.x, words0, ((0, HEADER_WORDS),))
        return bool(self.eaten < self.n_tops or self.n_pending or self.bits)


class _Pending:
    """The refilled node's own pending entries as a refill source, sorted once.

    They are resident (the root's) or inside the ``Loaded`` node the refill
    holds, so no call probes; ``writeback`` leaves pending what the merge
    did not take, each entry >= the new tops maximum.
    """

    __slots__ = ("node", "taken")

    def __init__(self, node: Node):
        node.buf.sort()
        self.node, self.taken = node, 0

    def next_head(self) -> tuple[int, int] | None:
        buf = self.node.buf
        return buf[self.taken] if self.taken < len(buf) else None

    def pop(self) -> None:
        self.taken += 1

    def pop_next(self) -> tuple[int, int] | None:
        self.taken += 1
        return self.next_head()

    def writeback(self) -> bool:
        del self.node.buf[: self.taken]
        return bool(self.node.buf)


class BufferedHeap(BufferedTree):
    supports_decrease_key = False
    supports_delete = False
    name = "buffered_heap"
    ROOT = 0
    ROOT_HEADER = 4
    SOURCE = _Cursor
    BUF_SOURCE = _Pending

    def __init__(self, device, n_hint: int = 1 << 14):
        super().__init__(device)
        if self.B < HEADER_WORDS:
            raise ConfigError(f"buffered heap needs B >= {HEADER_WORDS}: a node header must fit its first block")
        self.cap = max(4, (self.M - 64) // 12)
        # The resident root's largest image, ROOT_HEADER + 4 * root_cap words, fits in M - 2B.
        self.root_cap = max(self.cap, (self.M - 2 * self.B - self.ROOT_HEADER) // (2 * ENTRY_WORDS))
        self.leaf_tops_cap = LEAF_TOPS_FACTOR * self.cap
        self.fanout = min(8, max(2, self.M // (2 * self.B)))

        depth = 1
        while self._capacity(depth) < 2 * n_hint + self.cap:
            depth += 1
        self.depth = depth
        self.first_leaf = (self.fanout**depth - 1) // (self.fanout - 1)
        self.n_nodes = (self.fanout ** (depth + 1) - 1) // (self.fanout - 1)

        self._pending_at = HEADER_WORDS + ENTRY_WORDS * self.cap  # leaves hold no pending entries
        self.node_blocks = self._blocks_for(HEADER_WORDS + ENTRY_WORDS * (2 * self.cap))
        self.leaf_blocks = self._blocks_for(HEADER_WORDS + ENTRY_WORDS * self.leaf_tops_cap)
        self._setup(self.ROOT_HEADER + 2 * ENTRY_WORDS * self.root_cap)

    # -- geometry -------------------------------------------------------------

    def _capacity(self, depth: int) -> int:
        internal = sum(self.fanout**i for i in range(depth))
        return 2 * self.cap * internal + self.leaf_tops_cap * self.fanout**depth

    # -- node I/O ---------------------------------------------------------------

    def _read_node(self, x: int, peek: bool = False, blocks: dict | None = None) -> Node:
        """Decode node x, loading the blocks of its header, tops and pending spans that ``blocks`` lacks."""
        blocks = self._load(x, 0, HEADER_WORDS, {} if blocks is None else blocks, peek)
        n_tops, n_pending, rr, off, bits = blocks[0][:5]
        lo = HEADER_WORDS + ENTRY_WORDS * off
        pb = self._pending_at
        self._load(x, lo, lo + ENTRY_WORDS * n_tops, blocks, peek)
        self._load(x, pb, pb + ENTRY_WORDS * n_pending, blocks, peek)
        B = self.B
        words = [0] * ((max(blocks) + 1) * B)
        for b, blk in blocks.items():
            words[b * B : (b + 1) * B] = blk
        return Node(word_entries(words, lo, n_tops), word_entries(words, pb, n_pending), rr, bits)

    def _write_node(self, x: int, node: Node) -> None:
        pb = self._pending_at
        t_end = HEADER_WORDS + ENTRY_WORDS * len(node.tops)
        p_end = pb + ENTRY_WORDS * len(node.buf)
        words = [0] * max(t_end, p_end)
        words[:5] = len(node.tops), len(node.buf), node.rr, 0, node.bits
        words[HEADER_WORDS:t_end] = entry_words(node.tops)
        words[pb:p_end] = entry_words(node.buf)
        self._store(x, words, ((0, t_end), (pb, p_end)))

    # -- arrival and flush ---------------------------------------------------------

    def _route(self, x: int, node: Node) -> list[tuple[int, list]]:
        """Node x's whole buffer, sorted, to its round-robin child; the root's in runs (module docstring)."""
        moved, n, rr, f = sorted(node.buf), len(node.buf), node.rr, self.fanout
        k = -(-n // (self.cap + 1)) if x == self.ROOT else 1
        node.buf, node.rr = [], (rr + next(s for s in range(k, k + f) if math.gcd(s, f) == 1)) % f
        return [((rr + j) % f, moved[j * n // k : (j + 1) * n // k]) for j in range(k)]

    def _apply(self, x: int, node: Node, batch: list[tuple[int, int]]) -> None:
        """Merge a sorted batch into a leaf's tops, or split it at an internal node's tops
        maximum into tops and pending (module docstring)."""
        tops = node.tops
        if self._is_leaf(x):
            node.tops = list(heapq.merge(tops, batch))
            self._check_leaf(x, len(node.tops), self.leaf_tops_cap)
            return
        if tops:
            cut = bisect.bisect_left(batch, tops[-1])
            for e in batch[:cut]:
                bisect.insort(tops, e)
            node.buf += batch[cut:]
        elif node.buf or node.bits:
            node.buf += batch
        else:
            node.tops = list(batch)
        self._spill(x, node)

    def _cap_of(self, x: int) -> int:
        return self.root_cap if x == self.ROOT else self.cap

    def _spill(self, x: int, node: Node) -> None:
        """Move internal node x's tops overflow to pending, and flush pending when full."""
        cap = self._cap_of(x)
        while len(node.tops) > cap:
            node.buf.append(node.tops.pop())
        if len(node.buf) > cap:
            self._flush(x, node)

    # -- operations ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._live

    def insert(self, key: int, priority: int) -> None:
        check_entry(key, priority, self.w)
        entry = (priority + self._prio_bias, key)
        root = self._root
        tops = root.tops
        # ``_apply``'s rule for one entry: below the tops maximum, or into a subtree holding nothing.
        if (tops and entry < tops[-1]) or not (tops or root.buf or root.bits):
            bisect.insort(tops, entry)
        else:
            root.buf.append(entry)
        self._spill(self.ROOT, root)
        self._live += 1

    def extract_min(self) -> tuple[int, int]:
        if self._live == 0:
            raise EmptyQueueError("extract from empty queue")
        root = self._root
        if not root.tops:
            self._refill(self.ROOT, root)
            if not root.tops:
                raise AssertionError("live count positive but no entries found")
        word, key = root.pop_min()
        self._live -= 1
        return key, word - self._prio_bias

    # -- memory image --------------------------------------------------------------

    def memory_image(self) -> list[int]:
        root = self._root
        return [self._live, root.rr, len(root.tops), root.bits] + entry_words(root.tops + root.buf)

    def load_memory_image(self, words: list[int]) -> None:
        self._live, rr, n_tops, bits = words[:4]
        entries = word_entries(words, 4, (len(words) - 4) // ENTRY_WORDS)
        self._root = Node(entries[:n_tops], entries[n_tops:], rr, bits)
