"""The benchmark's three workloads, built only through pqlab's public API.

A pass is one full generate -> replay -> verify/analyse cycle.  Every pass of
a run rebuilds the same inputs from the run's seed, so pass times are
repeated measurements of the same work and every pass must produce the same
digest.  Sizes were chosen from profiles of the package:

* ``tree_dk_heap``: the paper's adversarial tree, replayed on the DecreaseKey
  reduction over the buffered heap, then attributed.  The paper's own
  traffic and the largest probe log; dk rebuild drains and heap refills
  dominate.  It never touches the tournament tree, the random generator or
  ``comm``.
* ``random_tournament``: the mixed random generator (all four op kinds,
  about a quarter of the Deletes on absent keys) on the tournament tree.
  Generator-bound; it never touches the heap, dk, attribution or ``comm``.
* ``protocol_pair``: many small two-phase protocol runs, once with the
  tournament factory and once with the dk_heap factory.  Fixed per-instance
  costs dominate, and it is the only workload that exercises ``comm`` and
  the snapshot codecs.  It pins w=128 because, unlike ``pqlab run``,
  ``pqlab comm`` does not widen words for dk queues, and at w=64 the
  (2,6,2) dk_heap queue raises ``ConfigError``.

With a ``Tracer``, every object a pass builds is instrumented and the
public module functions the pass reaches are rebound for that pass only.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

import pqlab.comm.protocol as protocol
import pqlab.pq.base as pq_base
import pqlab.probe_stats as probe_stats
import pqlab.workload as wl
from pqlab.device import WRITE, Device, DeviceConfig
from pqlab.dk import ReducedQueue
from pqlab.ops import EXTRACTMIN
from pqlab.pq import BufferedHeap, OracleQueue, TournamentQueue

DEVICE_METHODS = ("read_block", "write_block")
HEAP_METHODS = ("insert", "extract_min", "clear", "memory_image", "load_memory_image")
TOURNAMENT_METHODS = ("insert", "delete", "decrease_key", "extract_min", "clear",
                      "memory_image", "load_memory_image")
DK_METHODS = ("insert", "delete", "decrease_key", "extract_min", "rebuild", "clear",
              "memory_image", "load_memory_image")
ORACLE_METHODS = ("insert", "delete", "delete_key", "decrease_key", "extract_min", "is_live")
SNAPSHOT_KEEP = {"memory_image": len}


class CheckError(Exception):
    """An output of the program failed one of the benchmark's checks."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class PassResult:
    units: int                 # attempted units: ops, or protocol runs
    failed: int
    ops: int = 0               # workload ops replayed
    replay_s: float = 0.0      # time inside the replaying call
    probes: int = 0            # probes behind probes_per_op
    digest: str = ""
    exact: dict = field(default_factory=dict)   # deterministic counts
    layer: dict = field(default_factory=dict)   # counts the traced metrics need
    log: list | None = None    # the main device's probe log


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _hash_log(h, log) -> None:
    h.update(repr([rec.addr for rec in log]).encode())
    h.update(bytes(rec.access == WRITE for rec in log))


def _span(tr, name: str):
    return tr.span(name) if tr is not None else nullcontext()


def _instrument_device(dev, tr):
    if tr is not None:
        tr.instrument(dev, "device", DEVICE_METHODS)
    return dev


def _dk_heap(dev, n_hint: int, n0_min: int, tr) -> ReducedQueue:
    heap = BufferedHeap(dev, n_hint=n_hint)
    queue = ReducedQueue(heap, n0_min=n0_min)
    if tr is not None:
        tr.instrument(heap, "pq.buffered_heap", HEAP_METHODS)
        tr.instrument(queue, "dk", DK_METHODS, keep=SNAPSHOT_KEEP)
    return queue


def _tournament(dev, n_hint: int, seed: int, tr) -> TournamentQueue:
    queue = TournamentQueue(dev, n_hint=n_hint, seed=seed)
    if tr is not None:
        tr.instrument(queue, "pq.tournament", TOURNAMENT_METHODS, keep=SNAPSHOT_KEEP)
    return queue


@contextmanager
def traced_api(tr):
    """Rebind the public functions a pass reaches, for one traced pass."""
    if tr is None:
        yield
        return

    def traced_oracle():
        q = OracleQueue()
        tr.instrument(q, "pq.oracle", ORACLE_METHODS)
        return q

    try:
        tr.patch(wl, "materialize", "workload.materialize")
        tr.patch(wl, "make_random_workload", "workload.make_random_workload")
        for mod in (wl, protocol):
            tr.patch(mod, "build_tree", "workload.build_tree")
            tr.patch(mod, "resolve_leaf_ops", "workload.resolve_leaf_ops")
            tr.patch(mod, "uniform_distinct", "workload.uniform_distinct")
        tr.replace(wl, "OracleQueue", traced_oracle)
        tr.patch(pq_base, "run_workload", "pq.base.run_workload", keep=lambda rep: rep)
        for mod in (probe_stats, protocol):
            tr.patch(mod, "attribute", "probe_stats.attribute", keep=lambda att: len(att.node_of))
            tr.patch(mod, "node_stats", "probe_stats.node_stats")
        tr.patch(protocol, "run_embedding_protocol", "comm.protocol.run_embedding_protocol")
        tr.patch(protocol, "sample_instance", "comm.samplers.sample_instance")
        tr.patch(protocol, "subset_np", "comm.samplers.subset_np")
        yield
    finally:
        tr.restore()


def _widened_w(universe: int) -> int:
    """The word width ``pqlab run`` picks for dk queues: key bits + 32 counter bits."""
    return max(64, max(1, (universe - 1).bit_length()) + 32)


class TreeDkHeap:
    name = "tree_dk_heap"
    BETA, H, M = 2, 10, 4
    B, MEM = 64, 1024
    N0_MIN = 16

    def __init__(self, seed: int):
        (tree_seed,) = _seeds(seed, 1)
        self.params = wl.TreeParams(self.BETA, self.H, self.M, tree_seed)
        self.tree = wl.build_tree(self.params)
        self.config = DeviceConfig(B=self.B, M=self.MEM, w=_widened_w(self.params.universe))
        self.planned_ops = 3 * self.params.n_updates

    def describe(self) -> dict:
        return {"tree": [self.BETA, self.H, self.M], "tree_seed": self.params.seed,
                "ops": self.planned_ops, "queue": "ReducedQueue(BufferedHeap)", "n0_min": self.N0_MIN,
                "B": self.B, "M": self.MEM, "w": self.config.w, "analysis": "attribute+node_stats"}

    def run_pass(self, tr=None) -> PassResult:
        try:
            work = wl.materialize(self.params)
            dev = _instrument_device(Device(self.config), tr)
            queue = _dk_heap(dev, max(1024, len(work.ops)), self.N0_MIN, tr)
            t0 = time.perf_counter()
            rep = pq_base.run_workload(queue, dev, work, check_answers=True)
            replay_s = time.perf_counter() - t0
            stats = probe_stats.node_stats(probe_stats.attribute(dev.log, self.tree))
            with _span(tr, "bench.verify"):
                _check_report(rep, dev)
                total_p = sum(st.p_count for st in stats.nodes)
                check(total_p == stats.total_probes == rep.probes_total,
                      f"attribution lost probes: sum P = {total_p}, probes = {rep.probes_total}")
                result = _replay_result(work, rep, dev, replay_s)
                result.layer.update(rebuilds=queue.rebuilds, stale_discards=queue.stale_discards)
            return result
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return PassResult(units=self.planned_ops, failed=self.planned_ops)


class RandomTournament:
    name = "random_tournament"
    N_OPS, UNIVERSE, PROFILE = 1 << 16, 1 << 20, "mixed"
    B, MEM, W = 64, 1024, 64

    def __init__(self, seed: int):
        self.gen_seed, self.hash_seed = _seeds(seed, 2)
        self.config = DeviceConfig(B=self.B, M=self.MEM, w=self.W)

    def describe(self) -> dict:
        return {"ops": self.N_OPS, "universe": self.UNIVERSE, "profile": self.PROFILE,
                "gen_seed": self.gen_seed, "hash_seed": self.hash_seed,
                "queue": "TournamentQueue", "n_hint": self.N_OPS, "B": self.B, "M": self.MEM, "w": self.W}

    def run_pass(self, tr=None) -> PassResult:
        try:
            work = wl.make_random_workload(self.N_OPS, self.gen_seed, universe=self.UNIVERSE,
                                           profile=self.PROFILE)
            dev = _instrument_device(Device(self.config), tr)
            queue = _tournament(dev, self.N_OPS, self.hash_seed, tr)
            t0 = time.perf_counter()
            rep = pq_base.run_workload(queue, dev, work, check_answers=True)
            replay_s = time.perf_counter() - t0
            with _span(tr, "bench.verify"):
                _check_report(rep, dev)
                return _replay_result(work, rep, dev, replay_s)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return PassResult(units=self.N_OPS, failed=self.N_OPS)


class ProtocolPair:
    name = "protocol_pair"
    BETA, H, M = 2, 6, 2
    NODE_HEIGHT, K = 3, 2
    B, MEM, W = 16, 256, 128
    N_HINT, N0_MIN = 4096, 16
    RUNS = 20  # instances per factory per pass
    FACTORIES = ("tournament", "dk_heap")

    def __init__(self, seed: int):
        tree_seed, self.hash_seed, *self.run_seeds = _seeds(seed, 2 + self.RUNS)
        self.params = wl.TreeParams(self.BETA, self.H, self.M, tree_seed)
        tree = wl.build_tree(self.params)
        self.v = next(n.id for n in tree.internal_nodes() if n.height == self.NODE_HEIGHT)
        self.config = DeviceConfig(B=self.B, M=self.MEM, w=self.W)

    def describe(self) -> dict:
        return {"tree": [self.BETA, self.H, self.M], "node": self.v, "node_height": self.NODE_HEIGHT,
                "k": self.K, "runs_per_factory": self.RUNS, "factories": list(self.FACTORIES),
                "n_hint": self.N_HINT, "n0_min": self.N0_MIN, "hash_seed": self.hash_seed,
                "B": self.B, "M": self.MEM, "w": self.W}

    def _factory(self, kind: str, devices: list, queues: list, tr):
        def factory(device):
            _instrument_device(device, tr)
            devices.append(device)
            if kind == "tournament":
                queue = _tournament(device, self.N_HINT, self.hash_seed, tr)
            else:
                queue = _dk_heap(device, self.N_HINT, self.N0_MIN, tr)
            queues.append(queue)
            return queue
        return factory

    def run_pass(self, tr=None) -> PassResult:
        out = PassResult(units=0, failed=0)
        h = hashlib.sha256()
        layer = {"reads": 0, "writes": 0, "rebuilds": 0, "stale_discards": 0,
                 "bits": [0, 0, 0, 0], "requests": 0, "messages": 0}
        costs = []
        for kind in self.FACTORIES:
            for run_seed in self.run_seeds:
                out.units += 1
                devices: list = []
                queues: list = []
                try:
                    inst = protocol.sample_instance(self.params, self.v, seed=run_seed)
                    t0 = time.perf_counter()
                    res = protocol.run_embedding_protocol(
                        self._factory(kind, devices, queues, tr), self.params, self.v, self.K,
                        inst, self.config, seed=run_seed)
                    out.replay_s += time.perf_counter() - t0
                    with _span(tr, "bench.verify"):
                        _check_protocol(res)
                        for dev in devices:
                            _hash_log(h, dev.log)
                        prefix = res.prefix_workload.ops
                        h.update(repr([(op.key, op.priority) for op in prefix if op.kind == EXTRACTMIN]).encode())
                        h.update(repr((sorted(res.bob_output), res.cost.as_tuple(),
                                       [(m.sender, m.phase, m.kind, m.bits, m.digest) for m in res.transcript])).encode())
                        out.ops += len(prefix)
                        out.probes += res.probes_reference
                        costs.append(res.cost.as_tuple())
                        for dev in devices:
                            reads = _reads(dev.log)
                            layer["reads"] += reads
                            layer["writes"] += dev.probe_count - reads
                        # The replicas load each other's images, counters included,
                        # so only the reference queue's counters are its own.
                        if isinstance(queues[0], ReducedQueue):
                            layer["rebuilds"] += queues[0].rebuilds
                            layer["stale_discards"] += queues[0].stale_discards
                        layer["bits"] = [a + b for a, b in zip(layer["bits"], res.cost.as_tuple())]
                        layer["requests"] += res.alice_requests + res.bob_requests
                        layer["messages"] += len(res.transcript)
                        out.log = devices[0].log
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    out.failed += 1
        out.digest = h.hexdigest()
        out.exact = {"probes_reference": out.probes, "prefix_ops": out.ops, "costs": costs}
        out.layer = layer
        return out


def _check_protocol(res) -> None:
    check(res.correct, f"protocol error at seed {res.seed}: outputs differ from X & Y")
    check(res.alice_requests == res.r_vk,
          f"alice requests {res.alice_requests} != R(v,k) {res.r_vk} at seed {res.seed}")
    check(res.bob_requests == res.l_vk,
          f"bob requests {res.bob_requests} != L(v,k) {res.l_vk} at seed {res.seed}")
    sums = {}
    for m in res.transcript:
        sums[(m.sender, m.phase)] = sums.get((m.sender, m.phase), 0) + m.bits
    ledger = (sums.get(("A", 1), 0), sums.get(("B", 1), 0), sums.get(("A", 2), 0), sums.get(("B", 2), 0))
    check(ledger == res.cost.as_tuple(), f"transcript bits {ledger} do not reconcile with cost {res.cost}")


def _reads(log) -> int:
    return sum(1 for rec in log if rec.access != WRITE)


def _check_report(rep, dev) -> None:
    by_class = (rep.probes_insert, rep.probes_delete, rep.probes_extractmin, rep.probes_decrease)
    check(sum(by_class) == rep.probes_total == dev.probe_count,
          f"per-class probes {by_class} do not sum to probes_total {rep.probes_total}")


def _replay_result(work, rep, dev, replay_s: float) -> PassResult:
    h = hashlib.sha256()
    _hash_log(h, dev.log)
    h.update(repr(rep.extractions).encode())
    reads = _reads(dev.log)
    return PassResult(
        units=len(work.ops), failed=0, ops=len(work.ops), replay_s=replay_s,
        probes=rep.probes_total, digest=h.hexdigest(), exact=_report_counts(rep), log=dev.log,
        layer={"reads": reads, "writes": dev.probe_count - reads},
    )


def _report_counts(rep) -> dict:
    return {"probes_total": rep.probes_total, "probes_insert": rep.probes_insert,
            "probes_delete": rep.probes_delete, "probes_extractmin": rep.probes_extractmin,
            "probes_decrease": rep.probes_decrease, "extractions": len(rep.extractions)}


WORKLOADS = {cls.name: cls for cls in (TreeDkHeap, RandomTournament, ProtocolPair)}
