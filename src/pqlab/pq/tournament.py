"""Buffered tournament tree supporting Insert/DecreaseKey/Delete/ExtractMin.

A static binary tree over the hashed key space.  Leaves store settled
entries for their hash interval; every internal node keeps two on-disk
structures:

* ``tops`` -- an authoritative prefix of its subtree's minima: entries
  stored here are removed from everywhere else and precede, in (priority,
  key) order, every entry held anywhere below the node.
* ``sigs`` -- a FIFO buffer of pending signals (insert, decrease, delete,
  erase, push) travelling toward the key's leaf.

Operations append one signal at the root; buffers flush one level down when
full, so a signal costs O(1/B) probes per level travelled.  ExtractMin pops
the root's ``tops`` and refills it with child minima when empty.  Two rules
keep the minima exact under lazy signals:

* an arriving signal is matched against a node's ``tops`` before it may be
  buffered, so a signal never sinks below the record it targets;
* a refill flushes the node's own buffer before pulling entries up, so a
  record never climbs past a signal aimed at it.

A DecreaseKey that beats the local ``tops`` maximum adopts the decreased
record in place and sends an ``erase`` signal chasing the obsolete copy
below.  Deletes annihilate at the leaf when the key is absent, which gives
the workload model's tolerant Delete.  DecreaseKey on an absent key is a
contract violation the structure cannot detect; behavior is undefined.

The amortized cost target is O((1/B) log2 N) probes per operation, asserted
as a measured regression bound.  Resident state (root node, occupancy
bitmaps, counters) is audited against the M-word memory at construction;
transient flush working sets are simulated in host memory and not charged.
"""

from __future__ import annotations

import bisect

from ..errors import ConfigError, EmptyQueueError, EncodingError, StructureOverflowError
from .base import ENTRY_WORDS, PriorityQueueBase, check_entry, decode_entries, encode_entries, pack_ids, unpack_ids

SIG_WORDS = 5

S_INSERT = 1
S_DEC = 2
S_DEL = 3
S_ERASE = 4
S_PUSH = 5


def _splitmix64(v: int) -> int:
    v = (v + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return v ^ (v >> 31)


class _Node:
    __slots__ = ("tops", "sigs")

    def __init__(self, tops=None, sigs=None):
        self.tops = tops if tops is not None else []
        self.sigs = sigs if sigs is not None else []


class TournamentQueue(PriorityQueueBase):
    supports_decrease_key = True
    supports_delete = True
    name = "tournament"

    def __init__(self, device, n_hint: int = 1 << 14, seed: int = 0, node_blocks: int = 4):
        self.device = device
        cfg = device.config
        self.B, self.M, self.w = cfg.B, cfg.M, cfg.w
        if self.B < 8:
            raise ConfigError("tournament tree needs B >= 8")
        self._mult = _splitmix64(seed) | 1

        cap = (node_blocks * self.B - 2) // (ENTRY_WORDS + SIG_WORDS)
        if cap < 2:
            raise ConfigError("node_blocks * B too small for node buffers")
        self.top_cap = cap
        self.sig_cap = cap
        self.node_blocks = node_blocks

        target_leaf_entries = max(4, (2 * self.B) // ENTRY_WORDS)
        k = 2
        while k * target_leaf_entries < n_hint:
            k *= 2
        self.K = k
        self.levels = k.bit_length() - 1
        expected = max(1, n_hint // k)
        self.leaf_cap = 8 * expected + 16
        self.leaf_blocks = (2 + ENTRY_WORDS * self.leaf_cap + self.B - 1) // self.B

        self._leaf_base = (self.K - 1) * node_blocks
        total_blocks = self._leaf_base + self.K * self.leaf_blocks
        if total_blocks >= cfg.word_limit:
            raise ConfigError("address space too small for tournament arenas; increase w")

        self._prio_bias = 1 << (self.w - 1)
        self._seq = 0
        self._root = _Node()
        self._occupied: set[int] = set()  # node arenas with meaningful disk contents
        self._maybe: set[int] = set()     # subtree may hold entries

        bitmap_words = 2 * ((2 * self.K + 63) // 64)
        resident = ENTRY_WORDS * self.top_cap + SIG_WORDS * self.sig_cap + bitmap_words + 8
        if resident > self.M - 2 * self.B:
            raise ConfigError(
                f"M={self.M} words cannot hold root node plus bookkeeping ({resident} words)"
            )

    # -- geometry ---------------------------------------------------------------

    def _leaf_node(self, key: int) -> int:
        h = (key * self._mult) & 0xFFFFFFFFFFFFFFFF
        return self.K + (h >> (64 - self.levels))

    def _child_toward(self, x: int, key: int) -> int:
        return self._leaf_node(key) >> (self.levels - x.bit_length())

    def _is_leaf(self, x: int) -> bool:
        return x >= self.K

    def _below_maybe(self, x: int) -> bool:
        return (2 * x in self._maybe) or (2 * x + 1 in self._maybe)

    # -- word codecs --------------------------------------------------------------

    def _node_addr(self, x: int) -> int:
        return (x - 1) * self.node_blocks

    def _leaf_addr(self, x: int) -> int:
        return self._leaf_base + (x - self.K) * self.leaf_blocks

    def _read_words(self, base: int, need_words) -> list[int]:
        words = list(self.device.read_block(base))
        total = need_words(words)
        blocks = (total + self.B - 1) // self.B
        for i in range(1, blocks):
            words.extend(self.device.read_block(base + i))
        return words

    def _write_words(self, base: int, words: list[int]) -> None:
        pad = (-len(words)) % self.B
        words = words + [0] * pad
        for i in range(0, len(words), self.B):
            self.device.write_block(base + i // self.B, words[i : i + self.B])

    def _load_node(self, x: int) -> _Node:
        if x == 1:
            return self._root
        if x not in self._occupied:
            return _Node()
        words = self._read_words(self._node_addr(x), lambda w: 2 + ENTRY_WORDS * w[0] + SIG_WORDS * w[1])
        return self._node_from_words(words)

    def _node_from_words(self, words: list[int]) -> _Node:
        """Decode the ``[n_tops, n_sigs] + entries + sigs`` node layout."""
        nt, ns = words[0], words[1]
        bias = self._prio_bias
        pos = 2 + ENTRY_WORDS * nt
        sigs = [(sq, kd, k, pe - bias, ts) for sq, kd, k, pe, ts in
                (words[i : i + SIG_WORDS] for i in range(pos, pos + SIG_WORDS * ns, SIG_WORDS))]
        return _Node(decode_entries(words, 2, nt, bias), sigs)

    def _node_words(self, node: _Node) -> list[int]:
        bias = self._prio_bias
        sigs = [word for sq, kd, k, p, ts in node.sigs for word in (sq, kd, k, p + bias, ts)]
        return [len(node.tops), len(node.sigs)] + encode_entries(node.tops, bias) + sigs

    def _store_node(self, x: int, node: _Node) -> None:
        if x == 1:
            self._root = node
            self._refresh_maybe(x, node)
            return
        self._write_words(self._node_addr(x), self._node_words(node))
        self._occupied.add(x)
        self._refresh_maybe(x, node)

    def _refresh_maybe(self, x: int, node: _Node) -> None:
        if node.tops or node.sigs or self._below_maybe(x):
            self._maybe.add(x)
        else:
            self._maybe.discard(x)

    def _load_leaf(self, x: int) -> list[tuple[int, int, int]]:
        if x not in self._occupied:
            return []
        words = self._read_words(self._leaf_addr(x), lambda w: 2 + ENTRY_WORDS * w[0])
        return decode_entries(words, 2, words[0], self._prio_bias)

    def _store_leaf(self, x: int, entries: list[tuple[int, int, int]]) -> None:
        if len(entries) > self.leaf_cap:
            raise StructureOverflowError(
                f"leaf {x} overflow ({len(entries)} entries); construct with a larger n_hint"
            )
        words = [len(entries), 0] + encode_entries(entries, self._prio_bias)
        self._write_words(self._leaf_addr(x), words)
        self._occupied.add(x)
        if entries:
            self._maybe.add(x)
        else:
            self._maybe.discard(x)

    # -- signal machinery -----------------------------------------------------------

    def _bump(self) -> int:
        self._seq += 1
        if self._seq >= (1 << self.w):
            raise EncodingError("operation counter exceeded the word width")
        return self._seq

    def _evict_if_over(self, node: _Node) -> None:
        if len(node.tops) > self.top_cap:
            p, k, ts = node.tops.pop()
            node.sigs.append((self._bump(), S_PUSH, k, p, ts))

    def _apply_internal(self, x: int, node: _Node, sig) -> None:
        seq, kind, key, prio, ts = sig
        tops = node.tops
        if kind == S_INSERT or kind == S_PUSH:
            entry = (prio, key, ts)
            # Accept into tops when it provably belongs to the subtree minima:
            # either it beats the current maximum, or the subtree holds
            # nothing else at all.
            if (tops and entry < tops[-1]) or (not node.sigs and not self._below_maybe(x)):
                bisect.insort(tops, entry)
                self._evict_if_over(node)
            else:
                node.sigs.append(sig)
            return
        if kind == S_DEC:
            for i, (p, k, t0) in enumerate(tops):
                if k == key:
                    if prio < p:
                        del tops[i]
                        bisect.insort(tops, (prio, key, t0))
                    return
            if not node.sigs and not self._below_maybe(x):
                return  # key is nowhere in this subtree: spurious decrease
            cand = (prio, key, 0)
            if tops and cand < tops[-1]:
                # The key's record sits below with a larger priority; adopt the
                # decreased record here and chase the stale copy with an erase.
                bisect.insort(tops, cand)
                node.sigs.append((self._bump(), S_ERASE, key, 0, 0))
                self._evict_if_over(node)
            else:
                node.sigs.append(sig)
            return
        # S_DEL and S_ERASE remove the first matching record and stop.
        for i, (p, k, t0) in enumerate(tops):
            if k == key:
                del tops[i]
                return
        if not node.sigs and not self._below_maybe(x):
            if kind == S_ERASE:
                raise AssertionError(f"erase lost its target record for key {key}")
            return
        node.sigs.append(sig)

    def _apply_leaf_batch(self, x: int, sigs) -> None:
        entries = self._load_leaf(x)
        bykey = {k: (p, k, ts) for (p, k, ts) in entries}
        for seq, kind, key, prio, ts in sigs:
            if kind == S_INSERT or kind == S_PUSH:
                if key in bykey:
                    raise AssertionError(f"duplicate settled key {key} at leaf {x}")
                bykey[key] = (prio, key, ts)
            elif kind == S_DEC:
                cur = bykey.get(key)
                if cur is not None and prio < cur[0]:
                    bykey[key] = (prio, key, cur[2])
            elif kind == S_DEL:
                bykey.pop(key, None)
            elif kind == S_ERASE:
                if key not in bykey:
                    raise AssertionError(f"erase found no record for key {key} at leaf {x}")
                del bykey[key]
        self._store_leaf(x, sorted(bykey.values()))

    def _flush(self, x: int, node: _Node) -> None:
        sigs = node.sigs
        node.sigs = []
        lchild = 2 * x
        left: list = []
        right: list = []
        for sig in sigs:
            if self._child_toward(x, sig[2]) == lchild:
                left.append(sig)
            else:
                right.append(sig)
        for child, batch in ((lchild, left), (lchild + 1, right)):
            if not batch:
                continue
            if self._is_leaf(child):
                self._apply_leaf_batch(child, batch)
                continue
            cnode = self._load_node(child)
            for sig in batch:
                self._apply_internal(child, cnode, sig)
            if len(cnode.sigs) > self.sig_cap:
                self._flush(child, cnode)
            self._store_node(child, cnode)
        self._refresh_maybe(x, node)

    def _refill(self, x: int, node: _Node) -> None:
        """Fill node.tops with its subtree's minima; own buffer flushed first."""
        if node.sigs:
            self._flush(x, node)
        if node.tops:
            return
        sources = []  # [child_id, is_leaf, entries-list or _Node, dirty]
        for c in (2 * x, 2 * x + 1):
            if c not in self._maybe:
                continue
            if self._is_leaf(c):
                sources.append([c, True, self._load_leaf(c), False])
            else:
                sources.append([c, False, self._load_node(c), False])
        taken: list[tuple[int, int, int]] = []
        while len(taken) < self.top_cap:
            best = None
            best_heads = None
            for src in sources:
                c, leaf, st, _ = src
                heads = st if leaf else st.tops
                if not heads and not leaf:
                    if st.sigs or self._below_maybe(c):
                        self._refill(c, st)
                        src[3] = True
                        heads = st.tops
                if heads and (best_heads is None or heads[0] < best_heads[0]):
                    best = src
                    best_heads = heads
            if best is None:
                break
            taken.append(best_heads.pop(0))
            best[3] = True
        node.tops = taken
        for c, leaf, st, dirty in sources:
            if not dirty:
                continue
            if leaf:
                self._store_leaf(c, st)
            else:
                self._store_node(c, st)
        self._refresh_maybe(x, node)

    def _after_root_op(self) -> None:
        root = self._root
        if len(root.sigs) > self.sig_cap:
            self._flush(1, root)
        self._refresh_maybe(1, root)

    # -- operations -------------------------------------------------------------------

    def insert(self, key: int, priority: int) -> None:
        check_entry(key, priority, self.w)
        seq = self._bump()
        self._apply_internal(1, self._root, (seq, S_INSERT, key, priority, seq))
        self._after_root_op()

    def decrease_key(self, key: int, priority: int) -> None:
        check_entry(key, priority, self.w)
        seq = self._bump()
        self._apply_internal(1, self._root, (seq, S_DEC, key, priority, 0))
        self._after_root_op()

    def delete(self, key: int) -> None:
        seq = self._bump()
        self._apply_internal(1, self._root, (seq, S_DEL, key, 0, 0))
        self._after_root_op()

    def extract_min(self) -> tuple[int, int]:
        root = self._root
        if not root.tops:
            self._refill(1, root)
            if not root.tops:
                raise EmptyQueueError("extract from empty queue")
        priority, key, _ = root.tops.pop(0)
        self._refresh_maybe(1, root)
        return key, priority

    def clear(self) -> None:
        self._seq = 0
        self._root = _Node()
        self._occupied.clear()
        self._maybe.clear()

    # -- snapshot -----------------------------------------------------------------------

    def memory_image(self) -> list[int]:
        return (
            [self._seq] + pack_ids(self._occupied, 2 * self.K, self.w) + pack_ids(self._maybe, 2 * self.K, self.w)
            + self._node_words(self._root)
        )

    def load_memory_image(self, words: list[int]) -> None:
        nb = -(-2 * self.K // self.w)
        self._seq = words[0]
        self._occupied = unpack_ids(words[1 : 1 + nb], self.w)
        self._maybe = unpack_ids(words[1 + nb : 1 + 2 * nb], self.w)
        self._root = self._node_from_words(words[1 + 2 * nb :])
