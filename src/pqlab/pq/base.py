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
* ``delete_key(key)``: strict variant; raises on an absent key where the
  structure can tell, and is the DecreaseKey-then-ExtractMin recipe on
  DecreaseKey-capable queues.
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
words ``key, priority + 2^(w-1), timestamp``; ``check_entry``,
``encode_entries`` and ``decode_entries`` are that format's only definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from ..errors import CapabilityError, DivergenceError, EncodingError
from ..ops import DECREASE, DELETE, EXTRACTMIN, INSERT

ENTRY_WORDS = 3


def check_entry(key: int, priority: int, w: int) -> None:
    """Raise EncodingError unless the key and priority fit w-bit entry words."""
    if not 0 <= key < (1 << w):
        raise EncodingError(f"key {key} does not fit in {w}-bit words")
    bias = 1 << (w - 1)
    if not -bias <= priority < bias:
        raise EncodingError(f"priority {priority} does not fit in {w}-bit words")


def encode_entries(entries, bias: int) -> list[int]:
    """Pack (priority, key, timestamp) entries as key, priority + bias, timestamp."""
    return [word for p, k, ts in entries for word in (k, p + bias, ts)]


def decode_entries(words: list[int], lo: int, n: int, bias: int) -> list[tuple[int, int, int]]:
    """The n entries packed from word lo, as (priority, key, timestamp)."""
    span = words[lo : lo + ENTRY_WORDS * n]
    return [(p - bias, k, ts) for k, p, ts in zip(span[0::3], span[1::3], span[2::3])]


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

    def delete_key(self, key: int) -> None:
        self.delete(key)

    def clear(self) -> None:
        raise NotImplementedError


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

    The workload's recorded ExtractMin answers (when present) act as the
    oracle transcript; any divergence aborts with a diagnostic naming the
    absolute op index.  Probe counts are aggregated per operation class from
    the device log delta.
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
    start = device.probe_count
    for idx, op in enumerate(islice(ops, lo, hi), lo):
        device.set_context(idx, op.leaf_id)
        before = device.probe_count
        if op.kind == INSERT:
            queue.insert(op.key, op.priority)
            report.probes_insert += device.probe_count - before
        elif op.kind == DELETE:
            queue.delete(op.key)
            report.probes_delete += device.probe_count - before
        elif op.kind == DECREASE:
            queue.decrease_key(op.key, op.priority)
            report.probes_decrease += device.probe_count - before
        elif op.kind == EXTRACTMIN:
            key, priority = queue.extract_min()
            report.probes_extractmin += device.probe_count - before
            report.extractions.append((key, priority))
            if check_answers and op.key is not None:
                if (key, priority) != (op.key, op.priority):
                    raise DivergenceError(
                        f"op {idx} (leaf {op.leaf_id}): {queue.name} extracted "
                        f"({key},{priority}), oracle transcript says ({op.key},{op.priority})"
                    )
        else:
            raise ValueError(f"unknown op kind {op.kind}")
    device.set_context(None, None)
    report.probes_total = device.probe_count - start
    return report
