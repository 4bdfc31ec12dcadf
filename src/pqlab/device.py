"""Block device with probe counting.

The machine model: an addressable array of blocks, each holding exactly B
words of w bits, plus M words of main memory that is free to examine.  Every
block read or write is one probe and is appended to the device log, untagged:
``run_workload`` stamps each op's records with its index and leaf.  The
device performs no caching; deciding what lives in the M-word memory is
the data structure's job; accesses to that memory never appear in the log.

Blocks are zero-initialized and the address space is stored sparsely as a
map from address to block tuple, so w may be large.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import AddressError, BlockSizeError, ConfigError

READ = "read"
WRITE = "write"


@dataclass(frozen=True)
class DeviceConfig:
    """B words per block, M words of memory, w bits per word; M >= 2B."""

    B: int
    M: int
    w: int

    def __post_init__(self) -> None:
        if self.B <= 0 or self.M <= 0 or self.w <= 0:
            raise ConfigError(f"parameters must be positive, got {self}")
        if self.M < 2 * self.B:
            raise ConfigError(f"memory must hold at least two blocks: M={self.M} < 2B={2 * self.B}")

    @property
    def word_limit(self) -> int:
        return 1 << self.w


class ProbeRecord(NamedTuple):
    op_index: int | None
    leaf_id: int | None
    addr: int
    access: str


class Device:
    """Probe-logging block store.

    A device instance is single-threaded; independent trials use independent
    devices.  ``peek_block``/``poke_block`` bypass the log and exist only for
    replication plumbing (state snapshots, protocol content transfer) and,
    ``peek_block`` alone, for the probe-free node walk
    ``BufferedTree.nodes(peek=True)``; they are not part of the cost model.
    """

    def __init__(self, config: DeviceConfig):
        self.config = config
        self.word_limit = config.word_limit
        self._blocks: dict[int, tuple[int, ...]] = {}
        self._zero = (0,) * config.B
        self.log: list[ProbeRecord] = []

    # -- probes -------------------------------------------------------------
    # Run once per probe: the address check is inlined and records are
    # built with ``tuple.__new__``, which still makes ``ProbeRecord``s.

    def _address_error(self, addr: int) -> AddressError:
        return AddressError(f"address {addr} outside [0, 2^{self.config.w})")

    def _checked(self, block: Iterable[int]) -> tuple[int, ...]:
        """The block as a tuple of exactly B words, each in [0, 2^w)."""
        blk = tuple(block)  # a tuple block is kept as is, not copied
        if len(blk) != self.config.B:
            raise BlockSizeError(f"block has {len(blk)} words, expected {self.config.B}")
        limit = self.word_limit
        if min(blk) < 0 or max(blk) >= limit:
            word = next(word for word in blk if not 0 <= word < limit)
            raise BlockSizeError(f"word {word} does not fit in {self.config.w} bits")
        return blk

    def read_block(self, addr: int) -> tuple[int, ...]:
        if not 0 <= addr < self.word_limit:
            raise self._address_error(addr)
        self.log.append(tuple.__new__(ProbeRecord, (None, None, addr, READ)))
        return self._blocks.get(addr, self._zero)

    def write_block(self, addr: int, block: Iterable[int]) -> None:
        if not 0 <= addr < self.word_limit:
            raise self._address_error(addr)
        self._blocks[addr] = self._checked(block)
        self.log.append(tuple.__new__(ProbeRecord, (None, None, addr, WRITE)))

    @property
    def probe_count(self) -> int:
        return len(self.log)

    # -- unlogged plumbing ----------------------------------------------------

    def peek_block(self, addr: int) -> tuple[int, ...]:
        if not 0 <= addr < self.word_limit:
            raise self._address_error(addr)
        return self._blocks.get(addr, self._zero)

    def poke_block(self, addr: int, block: Iterable[int]) -> None:
        if not 0 <= addr < self.word_limit:
            raise self._address_error(addr)
        self._blocks[addr] = self._checked(block)

    def copy(self) -> "Device":
        """Clone block contents into a fresh device with an empty log."""
        dup = Device(self.config)
        dup._blocks = dict(self._blocks)
        return dup
