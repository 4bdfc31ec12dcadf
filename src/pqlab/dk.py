"""DecreaseKey/Delete on top of any Insert/ExtractMin queue.

Every insertion into the base queue uses an augmented key (key << 32) | C,
where C is the wrapper's operation counter, so repeated DecreaseKeys of one
key coexist as distinct base entries.  One live-key table maps each live key
to the counter of its most recent insert.  ExtractMin filters what the base
returns: a popped pair is stale, and silently discarded, when its key is
not in the table (already extracted in its current lifetime, or never
inserted) or carries a counter older than the key's entry.  Extraction
drops the key from the table, so re-insertion after extraction is legal.

Delete is the two-step recipe: DecreaseKey to the minimal sentinel, then one
ExtractMin whose result is discarded; an absent key is a free-table no-op.
Global rebuilding keeps the base size proportional to the live count: after
N0 operations everything is drained, filtered, and re-inserted into a fresh
base, and N0 becomes max(|live|/2, N0_min).  The wrapper counts the stale
entries still in the base (one per DecreaseKey, less one per discard), so a
rebuild with none to purge leaves the base as it is and costs no probe: each
live key then has one entry, ordered among the others as its key is.

The table is internal-memory state charged zero probes; when the base is
an external-memory queue only base probes count.  This asymmetry is
inherent to the construction and is reported, not hidden.

The memory image is eight counter words (the op counter, ops since the last
rebuild, N0, rebuilds, stale discards, absent decreases, stale entries and
the live count n), then the live table in key order as n ``key, counter``
pairs written by ``entry_words``, then the base's image.
"""

from __future__ import annotations

from .errors import ConfigError, DuplicateKeyError, EmptyQueueError
from .ops import PRIORITY_DELETE
from .pq.base import ENTRY_WORDS, PriorityQueueBase, entry_words, word_entries

CTR_BITS = 32
CTR_MASK = (1 << CTR_BITS) - 1


def augmented_key_bits(universe: int) -> int:
    """Word width an augmented key over [0, universe) needs: key bits plus CTR_BITS."""
    return max(1, (universe - 1).bit_length()) + CTR_BITS


class ReducedQueue(PriorityQueueBase):
    supports_decrease_key = True
    supports_delete = True

    def __init__(self, base, n0_min: int = 16):
        self.base = base
        self.name = f"dk_{base.name}"
        self.n0_min = n0_min
        base_w = getattr(base, "w", None)
        self._key_limit = 1 << (base_w - CTR_BITS) if base_w is not None else float("inf")
        if self._key_limit < 2:
            raise ConfigError(f"base word width {base_w} leaves no room for {CTR_BITS} counter bits")
        self._delete_sentinel = -(1 << (base_w - 1)) if base_w is not None else PRIORITY_DELETE
        self._ctr = 0  # the next operation's counter value
        self._n0 = n0_min
        self._rebuild_at = n0_min - 1  # the counter value of the op that ends in a rebuild
        self._live: dict[int, int] = {}  # live key -> C of its most recent insert
        self.rebuilds = 0
        self.stale_discards = 0
        self.absent_decreases = 0
        self._stale = 0  # base entries not in the table: len(base) == len(_live) + _stale

    def __len__(self) -> int:
        return len(self._live)

    def is_live(self, key: int) -> bool:
        return key in self._live

    @property
    def _ops_since(self) -> int:  # operations since the last rebuild
        return self._ctr - self._rebuild_at + self._n0 - 1

    def _overflow(self, c: int, key: int | None) -> None:
        """Raise for a spent 32-bit counter, else for a key too wide for the base key word."""
        if c >= CTR_MASK:
            raise ConfigError("wrapper operation counter overflowed its 32-bit field")
        raise ConfigError(f"key {key} leaves no room for the counter in the base key word")

    # -- operations -----------------------------------------------------------
    # Each op takes counter value c in place and rebuilds once c reaches ``_rebuild_at``.

    def insert(self, key: int, priority: int) -> None:
        if key in self._live:
            raise DuplicateKeyError(f"key {key} is already live")
        c = self._ctr
        self._ctr = c + 1
        if c >= CTR_MASK or key >= self._key_limit:
            self._overflow(c, key)
        self.base.insert(key << CTR_BITS | c, priority)
        self._live[key] = c
        if c >= self._rebuild_at:
            self.rebuild()

    def decrease_key(self, key: int, priority: int) -> None:
        c = self._ctr
        self._ctr = c + 1
        if c >= CTR_MASK or key >= self._key_limit:
            self._overflow(c, key)
        if key not in self._live:
            self.absent_decreases += 1
        self.base.insert(key << CTR_BITS | c, priority)
        self._stale += 1  # the key's older entry, or this one if the key is absent
        if c >= self._rebuild_at:
            self.rebuild()

    def extract_min(self) -> tuple[int, int]:
        pair = self._pop_live()
        if pair is None:
            if self._live:
                raise AssertionError("live count positive but base queue exhausted")
            raise EmptyQueueError("no logically live element to extract")
        c = self._ctr
        self._ctr = c + 1
        if c >= CTR_MASK:
            self._overflow(c, None)
        if c >= self._rebuild_at:
            self.rebuild()
        return pair

    def _pop_live(self) -> tuple[int, int] | None:
        while True:
            try:
                aug, priority = self.base.extract_min()
            except EmptyQueueError:
                return None
            key, ck = aug >> CTR_BITS, aug & CTR_MASK
            last = self._live.get(key)
            if last is None or ck < last:
                self.stale_discards += 1
                self._stale -= 1
                continue
            del self._live[key]
            return key, priority

    def delete(self, key: int) -> None:
        if key in self._live:
            return self.delete_key(key)
        c = self._ctr
        self._ctr = c + 1
        if c >= CTR_MASK:
            self._overflow(c, None)
        if c >= self._rebuild_at:
            self.rebuild()

    def delete_key(self, key: int) -> None:
        if key not in self._live:
            raise KeyError(f"Delete on absent key {key}")
        self.decrease_key(key, self._delete_sentinel)
        key_out, _ = self.extract_min()
        if key_out != key:
            raise AssertionError(f"delete recipe extracted {key_out} instead of {key}")

    def rebuild(self) -> None:
        """Drain live elements, reset the base and re-insert them; skipped with no stale entry."""
        if self._stale:
            # Each live key's current entry is in the base, so the drain empties the table.
            drained: list[tuple[int, int]] = []
            while True:
                pair = self._pop_live()
                if pair is None:
                    break
                drained.append(pair)
            self.base.clear()
            self._stale = 0
            for key, priority in drained:  # each re-insert spends a counter value, as insert does
                c = self._ctr
                self._ctr = c + 1
                if c >= CTR_MASK or key >= self._key_limit:
                    self._overflow(c, key)
                self.base.insert(key << CTR_BITS | c, priority)
                self._live[key] = c
        self._n0 = max(len(self._live) // 2, self.n0_min)
        self._rebuild_at = self._ctr + self._n0 - 1
        self.rebuilds += 1

    def clear(self) -> None:
        self.base.clear()
        self._ctr = 0
        self._n0 = self.n0_min
        self._rebuild_at = self.n0_min - 1
        self._live.clear()
        self._stale = 0

    @property
    def n0(self) -> int:
        return self._n0

    def report_stats(self) -> dict[str, int]:
        return {
            "base": self.base.name,
            "ops": self._ctr,
            "rebuilds": self.rebuilds,
            "stale_discards": self.stale_discards,
            "absent_decreases": self.absent_decreases,
            "stale": self._stale,
            "live": len(self._live),
        }

    # -- snapshot ----------------------------------------------------------------

    def memory_image(self) -> list[int]:
        live = entry_words([(c, key) for key, c in sorted(self._live.items())])
        return ([self._ctr, self._ops_since, self._n0, self.rebuilds, self.stale_discards,
                 self.absent_decreases, self._stale, len(self._live)] + live + self.base.memory_image())

    def load_memory_image(self, words: list[int]) -> None:
        (self._ctr, ops_since, self._n0, self.rebuilds,
         self.stale_discards, self.absent_decreases, self._stale, n) = words[:8]
        self._rebuild_at = self._ctr - ops_since + self._n0 - 1
        self._live = {key: c for c, key in word_entries(words, 8, n)}
        self.base.load_memory_image(words[8 + ENTRY_WORDS * n:])
