"""Buffered tournament tree supporting Insert/DecreaseKey/Delete/ExtractMin.

A static binary tree over the hashed key space.  Leaves store settled
entries for their hash interval; every internal node keeps two on-disk
structures, the fields of the shared ``Node``:

* ``tops`` -- an authoritative prefix of its subtree's minima: entries
  stored here are removed from everywhere else and precede, in (priority,
  key) order, every entry held anywhere below the node.
* ``buf`` -- a FIFO buffer of pending signals (insert, decrease, delete,
  erase, push) travelling toward the key's leaf.

Operations apply one signal at the root.  A buffer over ``cap`` signals
flushes one level down (``base.BufferedTree``'s flush walk): the buffer
splits by the next bit of each key's 64-bit hash, only the fuller half
goes to its child (a tie goes to child 0), and the other half stays
buffered in order.  The node flushes until its buffer fits, which takes at
most two rounds, since the second sends all that is left.  Each child
applies its batch in order in one ``_apply``.  A flush of a full buffer
moves at least ceil((cap + 1) / 2) signals to the one child it reads and
writes, so a signal still costs O(1/B) probes per level travelled, and a
child with only a few signals pending is not read and rewritten for them.
ExtractMin pops the root's ``tops`` and refills it with child minima when
empty.  Two rules keep the minima exact under lazy signals:

* an arriving signal is matched against a node's ``tops`` before it may be
  buffered, so a signal never sinks below the record it targets;
* a refill flushes the node's own buffer empty before pulling entries up,
  so a record never climbs past a signal aimed at it.

A child that a refill's flushes loaded, and that still holds anything, stays
in memory as the refill's source for that child: the merge reads it as it
stands and writes it once at the end, where storing it after the flush
would write it only to read it straight back.  A leaf raises
``StructureOverflowError`` as it applies a batch that takes it past
``leaf_cap`` entries, so the op that overfills it raises even when the
leaf is written later.

A subtree is bare while it holds nothing but its root's ``tops`` (empty
buffer, no child that may hold entries): an insert or push joins ``tops``
whatever its priority, and a decrease or delete that misses ``tops`` is
spurious.  A batch tests this once, since only buffering a signal or
evicting a push ends it.  A DecreaseKey that beats the local ``tops``
maximum adopts the decreased record in place and sends an ``erase`` after
the obsolete copy below.  Deletes annihilate at the leaf when the key is
absent (the workload model's tolerant Delete).  DecreaseKey on an absent
key is a contract violation the structure cannot detect: undefined.

Every node, leaves included, is stored as ``[n_tops, n_sigs << 2 | bits]
+ entries + sigs``: ``bits`` holds one bit per child, set iff that child's
subtree holds an entry or a signal (0 at a leaf), an entry is the two
words ``key, priority + 2^(w-1)`` of ``base.entry_words`` (the heap's
layout) and a signal the three words ``kind, key, priority + 2^(w-1)``.
Keys are unique among live entries and in a node's ``tops``, so (priority,
key) orders entries with no timestamp, and a signal needs no sequence
number: a buffer keeps its signals in arrival order.  Node sizes follow
from ``cap = (node_blocks * B - 2) // 5``.  The constructor requires ``4 *
cap + 3 < 2^w``, so the second word fits in w bits.  A leaf is a node with
no signals in a larger arena, so one pair of codecs reads and writes both,
and the resident nodes' words too.
In memory, entries ``(priority word, key)`` and signals ``(kind, key,
priority word)`` already hold the stored priority word, so the codecs only
reorder words; the bias 2^(w-1) is added in ``insert``/``decrease_key``
and removed in ``extract_min``, and delete and erase signals carry the word
2^(w-1) (priority 0).  A ``TNode`` also holds ``keys``, a dict from each
of its ``tops`` keys to its priority word (built from ``tops`` as a node
is decoded, then kept in step by ``pop_min``/``set_tops`` and ``_apply``), so a signal
that misses ``tops`` costs one lookup, and one that hits it finds its
record by bisection, not by a scan.  At a leaf, ``keys`` is the working
record set that a batch edits before ``tops`` is sorted from it.

Nodes 1..T stay in memory, where T is the largest whole-level count of
internal nodes, 2^L - 1 < K, whose largest words fit beside 2B words of
block buffers: ``T * (2 + 5 * cap) <= M - 2B``.  Reading or writing one of
them takes or replaces the resident ``TNode`` with no probe; nothing else
changes, so a run's probe log is the log of the same run at
T = 1 with the records at nodes 2..T's addresses removed.  No option sets
T: cap depends only on B and node_blocks, K only on B and n_hint, so M
moves T alone (3 at (B, M) = (64, 1024) and (16, 256), 1 at (16, 192)).
The memory image is nodes 1..T's words back to back, each in the node
layout above, unpadded.

A node written to disk also stays decoded until its next read, in host
memory that is not charged: ``_write_node`` keeps it beside the block
tuples ``_store`` handed the device.  ``_read_node`` still reads every
block, so no probe changes, and returns the kept node, once, only if each
block read *is* a block that write stored.  Any other block (a hand-off's
``poke_block``, a copied device under a fresh queue) is decoded, and so is
every peek, which leaves the kept node in place.  A reused node keeps its
``kept``/``kept_to``, which a decode resets to 0; both route alike.

The amortized cost target is O((1/B) log2 N) probes per operation, asserted
as a measured regression bound.  The tree shape (``fanout = 2``, leaves
from ``K``), arena addresses, audits and walks live in
``base.BufferedTree``.  Flush working sets are host memory, not charged.
"""

from __future__ import annotations

import bisect
from itertools import chain
from operator import is_

from ..errors import ConfigError, EmptyQueueError
from .base import ENTRY_WORDS, BufferedTree, Node, check_entry, entry_words, word_entries

SIG_WORDS = 3  # kind, key, priority word

S_INSERT = 1
S_DEC = 2
S_DEL = 3
S_ERASE = 4
S_PUSH = 5


M64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(v: int) -> int:
    v = (v + 0x9E3779B97F4A7C15) & M64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & M64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & M64
    return v ^ (v >> 31)


class TNode(Node):
    """A tournament node; ``keys`` maps each key in ``tops`` to its priority word, and
    ``buf[:kept]``, the half the last flush left, all route to child ``kept_to``."""
    __slots__ = ("keys", "kept", "kept_to")

    def __init__(self, tops=None, buf=None, bits=0):
        super().__init__(tops, buf, 0, bits)
        self.keys = {k: p for p, k in self.tops}
        self.kept = self.kept_to = 0

    def pop_min(self) -> tuple[int, int]:
        entry = self.tops.pop(0)
        del self.keys[entry[1]]
        return entry

    def set_tops(self, tops: list) -> None:
        self.tops, self.keys = tops, {k: p for p, k in tops}


class TournamentQueue(BufferedTree):
    supports_decrease_key = True
    supports_delete = True
    name = "tournament"
    fanout = 2
    ROOT = 1
    ROOT_HEADER = 2
    NODE = TNode

    def __init__(self, device, n_hint: int = 1 << 14, seed: int = 0, node_blocks: int = 4):
        super().__init__(device)
        if self.B < 8:
            raise ConfigError("tournament tree needs B >= 8")
        self._mult = _splitmix64(seed) | 1

        cap = (node_blocks * self.B - 2) // (ENTRY_WORDS + SIG_WORDS)
        if cap < 2:
            raise ConfigError("node_blocks * B too small for node buffers")
        self.cap = cap  # of both tops and the signal buffer
        self.node_blocks = node_blocks

        target_leaf_entries = max(4, (2 * self.B) // 3)  # K sizes leaves for about 2B/3 entries
        k = 2
        while k * target_leaf_entries < n_hint:
            k *= 2
        self.K = self.first_leaf = k
        self.n_nodes = 2 * k - 1
        expected = max(1, n_hint // k)
        self.leaf_cap = 8 * expected + 16
        self.leaf_blocks = self._blocks_for(2 + ENTRY_WORDS * self.leaf_cap)
        if 4 * cap + 3 >= device.config.word_limit:
            raise ConfigError("words too narrow for tournament node headers; increase w")
        # Nodes 1..T stay resident: the most whole levels of internal nodes whose largest words fit.
        node_words = self.ROOT_HEADER + (ENTRY_WORDS + SIG_WORDS) * cap
        t = 1
        while 2 * t + 1 < self.K and (2 * t + 1) * node_words <= self.M - 2 * self.B:
            t = 2 * t + 1
        self.T = t
        self._stored: dict[int, tuple[TNode, list]] = {}  # x > T -> (node, the blocks its last write stored)
        self._setup(t * node_words)

    # -- node I/O -----------------------------------------------------------------

    def _read_node(self, x: int, peek: bool = False) -> TNode:
        """Node x: resident, or read from the blocks its first block's header spans.  Unless
        ``peek``, the node its last write kept comes back, once, if each block read is the
        very block that write stored (module docstring); otherwise the blocks are decoded."""
        if x <= self.T:
            return self._resident[x]
        blocks = self._load(x, 0, 1, {}, peek)
        self._load(x, self.B, self._n_words(blocks[0]), blocks, peek)
        kept = None if peek else self._stored.pop(x, None)
        if kept is not None and all(map(is_, blocks.values(), kept[1])):
            return kept[0]
        return self._node_from_words(sum(blocks.values(), ()))

    def _write_node(self, x: int, node: Node) -> None:
        if x <= self.T:
            self._resident[x] = node
            return
        words = self._node_words(node)
        self._stored[x] = (node, self._store(x, words, ((0, len(words)),)))

    @staticmethod
    def _n_words(words: list[int], p: int = 0) -> int:
        """The length of the node whose words start at ``words[p]``."""
        return 2 + ENTRY_WORDS * words[p] + SIG_WORDS * (words[p + 1] >> 2)

    def _node_from_words(self, words: list[int]) -> TNode:
        """Decode the ``[n_tops, n_sigs << 2 | bits] + entries + sigs`` node layout."""
        p = 2 + ENTRY_WORDS * words[0]
        it = iter(words[p : p + SIG_WORDS * (words[1] >> 2)])
        return TNode(word_entries(words, 2, words[0]), list(zip(it, it, it)), words[1] & 3)

    def _node_words(self, node: Node) -> list[int]:
        words = [len(node.tops), len(node.buf) << 2 | node.bits] + entry_words(node.tops)
        words.extend(chain.from_iterable(node.buf))
        return words

    def memory_image(self) -> list[int]:
        return list(chain.from_iterable(map(self._node_words, self._resident[1:])))

    def load_memory_image(self, words: list[int]) -> None:
        resident, p = [None], 0
        for _ in range(self.T):
            end = p + self._n_words(words, p)
            resident.append(self._node_from_words(words[p:end]))
            p = end
        self._resident, self._root = resident, resident[1]

    # -- signal machinery -----------------------------------------------------------

    def _route(self, x: int, node: TNode) -> list[tuple[int, list]]:
        """The fuller half of node x's buffer, split by the next bit of each key's
        64-bit hash (a tie goes to child 0); the other half stays buffered, in order."""
        halves: tuple[list, list] = ([], [])
        halves[node.kept_to].extend(node.buf[: node.kept])
        mult, bit = self._mult, 1 << (64 - x.bit_length())  # a bit below 64: no M64 mask
        put0, put1 = halves[0].append, halves[1].append
        for sig in node.buf[node.kept :]:
            if sig[1] * mult & bit:
                put1(sig)
            else:
                put0(sig)
        i = int(len(halves[1]) > len(halves[0]))
        node.buf, node.kept, node.kept_to = halves[1 - i], len(halves[1 - i]), 1 - i
        return [(i, halves[i])] if halves[i] else []

    def _apply(self, x: int, node: TNode, sigs) -> None:
        """Apply signals, in order, to node x; an internal node then flushes until its buffer fits."""
        keys = node.keys
        if x >= self.first_leaf:
            for kind, key, prio in sigs:
                if kind == S_INSERT or kind == S_PUSH:
                    if key in keys:
                        raise AssertionError(f"duplicate settled key {key} at leaf {x}")
                    keys[key] = prio
                elif kind == S_DEC:
                    if prio < keys.get(key, prio):
                        keys[key] = prio
                elif kind == S_DEL:
                    keys.pop(key, None)
                elif kind == S_ERASE:
                    if key not in keys:
                        raise AssertionError(f"erase found no record for key {key} at leaf {x}")
                    del keys[key]
            node.tops = sorted((p, k) for k, p in keys.items())
            self._check_leaf(x, len(node.tops), self.leaf_cap)
            return
        tops, buf, insort, cap = node.tops, node.buf, bisect.insort, self.cap
        bare = not buf and not node.bits  # the subtree holds nothing but tops
        for sig in sigs:
            kind, key, prio = sig
            if kind == S_INSERT or kind == S_PUSH:
                # It joins tops if it provably belongs to the subtree minima: bare, or below the maximum.
                if not (bare or (tops and (prio, key) < tops[-1])):
                    buf.append(sig)
                    bare = False
                    continue
            elif key in keys:
                i = bisect.bisect_left(tops, (keys[key], key))
                if kind != S_DEC:  # S_DEL and S_ERASE remove the record and stop
                    del tops[i]
                    del keys[key]
                elif prio < tops[i][0]:
                    del tops[i]
                    insort(tops, (prio, key))
                    keys[key] = prio
                continue
            elif bare:  # the key is nowhere in this subtree: a spurious decrease or delete
                if kind == S_ERASE:
                    raise AssertionError(f"erase lost its target record for key {key}")
                continue
            elif kind == S_DEC and tops and (prio, key) < tops[-1]:
                # The key's record sits below with a larger priority; adopt the
                # decreased record here and chase the stale copy with an erase.
                buf.append((S_ERASE, key, self._prio_bias))
            else:
                buf.append(sig)
                continue
            insort(tops, (prio, key))  # only a signal that joined tops can take it past cap
            keys[key] = prio
            if len(tops) > cap:
                p, k = tops.pop()
                del keys[k]
                buf.append((S_PUSH, k, p))
                bare = False
        while len(node.buf) > cap:  # each flush takes the fuller half: at most two rounds
            self._flush(x, node)

    # -- operations -------------------------------------------------------------------

    def insert(self, key: int, priority: int) -> None:
        word, limit = priority + self._prio_bias, self.device.word_limit
        if not (0 <= key < limit and 0 <= word < limit):
            check_entry(key, priority, self.w)  # raises
        self._apply(self.ROOT, self._root, ((S_INSERT, key, word),))

    def decrease_key(self, key: int, priority: int) -> None:
        word, limit = priority + self._prio_bias, self.device.word_limit
        if not (0 <= key < limit and 0 <= word < limit):
            check_entry(key, priority, self.w)  # raises
        self._apply(self.ROOT, self._root, ((S_DEC, key, word),))

    def delete(self, key: int) -> None:
        if not 0 <= key < self.device.word_limit:
            check_entry(key, 0, self.w)  # raises
        self._apply(self.ROOT, self._root, ((S_DEL, key, self._prio_bias),))

    def extract_min(self) -> tuple[int, int]:
        root = self._root
        if not root.tops:
            self._refill(self.ROOT, root)
            if not root.tops:
                raise EmptyQueueError("extract from empty queue")
        word, key = root.pop_min()
        return key, word - self._prio_bias
