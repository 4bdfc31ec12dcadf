"""Command-line front end for reproducible experiments.

Subcommands: gen (materialize tree workloads, or write a random one), run
(execute a workload on an instrumented queue; dk queues add their wrapper
counters), stats (probe attribution and embedding selection over trials),
comm (two-phase protocol runs), obs1 (singleton-bucket check), bench (probe
envelope regression).
All randomness descends from the single --seed via numpy SeedSequence
spawning; every CSV row carries the seed, the parameter set, and the
package version, except the rows of comm's --transcript dump (index,
sender, phase, kind, bits), whose bytes are pinned.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import __version__
from .device import Device, DeviceConfig
from .dk import ReducedQueue, augmented_key_bits
from .errors import PqlabError
from .pq import BufferedHeap, OracleQueue, TournamentQueue
from .pq.base import RunReport, run_workload
from .probe_stats import attribute, find_embedding, node_stats
from .comm.protocol import (
    ProtocolResult,
    run_embedding_protocol,
    sample_instance,
    write_transcript_csv,
)
from .comm.samplers import check_observation1
from .workload import (
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

QUEUES = ("oracle", "buffered_heap", "tournament", "dk_buffered_heap", "dk_tournament")


def make_queue(name: str, device: Device, n_hint: int, seed: int):
    if name == "oracle":
        return OracleQueue()
    if name == "buffered_heap":
        return BufferedHeap(device, n_hint=n_hint)
    if name == "tournament":
        return TournamentQueue(device, n_hint=n_hint, seed=seed)
    if name == "dk_buffered_heap":
        return ReducedQueue(BufferedHeap(device, n_hint=n_hint))
    if name == "dk_tournament":
        return ReducedQueue(TournamentQueue(device, n_hint=n_hint, seed=seed))
    raise PqlabError(f"unknown queue {name!r}")


def _tree_params(args) -> TreeParams:
    return TreeParams(args.beta, args.h, args.m, args.seed,
                      strict=args.strict, universe_override=args.universe)


def _device(args) -> Device:
    return Device(DeviceConfig(B=args.b, M=args.mem, w=args.w))


def _widen_for_dk(args, universe: int) -> None:
    """dk queues pack a counter beside each key; widen args.w so every key fits."""
    if not args.queue.startswith("dk_"):
        return
    need = augmented_key_bits(universe)
    if args.w < need:
        print(f"note: widening words to {need} bits so augmented keys fit", file=sys.stderr)
        args.w = need


def _write_rows(path, header, rows) -> None:
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header + ["version"])
        for row in rows:
            writer.writerow(list(row) + [__version__])
    finally:
        if path:
            out.close()


def cmd_gen(args) -> int:
    if args.variant == "random":
        if args.n is None:
            args.usage_error("--variant random needs --n")
        for flag, value in (("--trees", None if args.trees == 1 else args.trees),
                            ("--beta", args.beta), ("--h", args.h), ("--m", args.m)):
            if value is not None:
                args.usage_error(f"--variant random does not take {flag}")
        universe = 1 << 20 if args.universe is None else args.universe
        wl = make_random_workload(args.n, args.seed, universe=universe, profile=args.profile)
    else:
        if None in (args.beta, args.h, args.m):
            args.usage_error(f"--variant {args.variant} needs --beta, --h and --m")
        if args.trees < 1 or (args.variant == "basic" and args.trees != 1):
            args.usage_error(f"--variant {args.variant} takes --trees {'1' if args.variant == 'basic' else '>= 1'}")
        wl = _tree_workload(args)
    write_workload(wl, args.out)
    c = wl.counts()
    print(f"workload {args.out}: variant={wl.variant} trees={wl.trees} universe={wl.universe}")
    shape = f" (m*h*beta^h={wl.params.n_updates})" if wl.params else f" decreases={c['decrease']}"
    print(f"inserts={c['insert']} deletes={c['delete']} extractmins={c['extractmin']}{shape}")
    return 0


def _tree_workload(args) -> Workload:
    params = _tree_params(args)
    if not params.strict and params.h < 8:
        print(f"note: h={params.h} is below the h>=8 regime; fine for desk-scale runs", file=sys.stderr)
    if args.variant == "no_spurious" and params.universe > (1 << 22):
        raise PqlabError(
            f"pre-populating a universe of {params.universe} keys is impractical; "
            "pass --universe (at least 2*m*h*beta^h)"
        )
    if args.variant == "basic":
        return materialize(params)
    seeds = np.random.SeedSequence(args.seed).spawn(args.trees)
    parts = [
        materialize(TreeParams(args.beta, args.h, args.m, int(s.generate_state(1)[0]),
                               universe_override=args.universe))
        for s in seeds
    ]
    if args.variant == "no_spurious":
        return transform_no_spurious(parts)
    size = len(build_tree(parts[0].params))  # tree t's leaf ids are offset by t * size, as no_spurious's are
    ops = (op._replace(leaf_id=t * size + op.leaf_id) for t, part in enumerate(parts) for op in part.ops)
    return Workload(params, "multi_tree", params.universe, args.seed, ops, trees=args.trees)


DK_FIELDS = ("rebuilds", "stale_discards", "absent_decreases", "stale")


def cmd_run(args) -> int:
    wl = read_workload(args.workload)
    _widen_for_dk(args, wl.universe)
    dev = _device(args)
    queue = make_queue(args.queue, dev, n_hint=max(1024, len(wl.ops)), seed=args.seed)
    report = run_workload(queue, dev, wl)
    counts = wl.counts()
    # seed is the workload file's, hash_seed the --seed the queue hashed with;
    # dk wrapper counters are blank for queues without the DecreaseKey reduction
    stats = queue.report_stats() if isinstance(queue, ReducedQueue) else {}
    rows = [report.csv_row() + [args.seed] + [stats.get(f, "") for f in DK_FIELDS]]
    _write_rows(args.out, RunReport.CSV_HEADER + ["hash_seed", *DK_FIELDS], rows)
    for label, cls, probes in (
        ("I", "insert", report.probes_insert),
        ("D", "delete", report.probes_delete),
        ("E", "extractmin", report.probes_extractmin),
        ("DK", "decrease", report.probes_decrease),
    ):
        n = counts[cls]
        amort = probes / n if n else 0.0
        print(f"t_{label}: {probes} probes / {n} ops = {amort:.4f}")
    print(f"total: {report.probes_total} probes / {len(wl.ops)} ops")
    if stats:
        print("dk: " + " ".join(f"{f}={stats[f]}" for f in DK_FIELDS))
    return 0


def cmd_stats(args) -> int:
    params = _tree_params(args)
    _widen_for_dk(args, params.universe)
    tree = build_tree(params)
    seeds = np.random.SeedSequence(args.seed).spawn(args.trials)
    reports = []
    rows = []
    for i, s in enumerate(seeds):
        trial_seed = int(s.generate_state(1)[0])
        wl = materialize(TreeParams(args.beta, args.h, args.m, trial_seed,
                                    universe_override=args.universe))
        dev = _device(args)
        queue = make_queue(args.queue, dev, n_hint=max(1024, len(wl.ops)), seed=args.seed + i)
        run_workload(queue, dev, wl)
        att = attribute(dev.log, tree)
        rep = node_stats(att)
        total_p = sum(st.p_count for st in rep.nodes)
        if total_p != dev.probe_count:
            raise PqlabError(f"attribution lost probes: {total_p} != {dev.probe_count}")
        print(f"trial {i}: probes={dev.probe_count} sum P(v)={total_p} (conserved)")
        reports.append(rep)
        run = [args.seed, i, trial_seed, args.queue, args.beta, args.h, args.m, args.b, args.mem, args.w]
        rows += [run + [st.node_id, st.height, st.kind, st.p_count, st.c_count]
                 + st.l_counts[1:] + st.r_counts[1:] for st in rep.nodes]
    if args.out:
        children = range(1, args.beta + 3)
        header = ["seed", "trial", "trial_seed", "queue", "beta", "h", "m", "B", "M", "w",
                  "node_id", "height", "kind", "P", "C"]
        _write_rows(args.out, header + [f"L{k}" for k in children] + [f"R{k}" for k in children], rows)
    if args.h >= 2:
        choice = find_embedding(reports, args.h)
        print(
            f"embedding: h*={choice.h_star} v={choice.node_id} k={choice.k} "
            f"avg(L+R)={choice.avg_lr:.2f} avg C(v)={choice.avg_c:.2f}"
        )
    return 0


def cmd_comm(args) -> int:
    params = _tree_params(args)
    tree = build_tree(params)
    if args.node is not None:
        v = args.node
    else:
        height = args.hv if args.hv is not None else max(2, (params.h + 1) // 2)
        v = next((n.id for n in tree.internal_nodes() if n.height == height), None)
        if v is None:
            raise PqlabError(f"the tree has no internal node of height {height}")
    _widen_for_dk(args, params.universe)
    cfg = DeviceConfig(B=args.b, M=args.mem, w=args.w)

    def factory(device):
        return make_queue(args.queue, device, n_hint=4096, seed=args.seed)

    rows = []
    costs = []
    failures = image_words = 0
    for t in range(args.trials):
        run_seed = args.seed + t
        inst = sample_instance(params, v, seed=run_seed)
        res = run_embedding_protocol(factory, params, v, args.k, inst, cfg, seed=run_seed)
        rows.append(res.csv_row())
        costs.append(res.cost)
        image_words = max(image_words, res.image_words)
        if not res.correct or (res.alice_requests, res.bob_requests) != (res.r_vk, res.l_vk):
            failures += 1  # runs, not checks: a run failing both counts once
        if args.transcript and t == 0:
            write_transcript_csv(args.transcript, res.transcript)
    _write_rows(args.out, ProtocolResult.CSV_HEADER, rows)
    print(f"{args.trials} runs at v={v}, k={args.k}; failures={failures}")
    if image_words > args.mem:
        print(f"note: memory images reach {image_words} words, over M={args.mem}; "
              "the ledger still prices each at M*w bits", file=sys.stderr)
    # Asymmetry report: a requester pays w bits per exchange where the
    # responder pays B*w, so responder/requester ratios near B are expected.
    req1 = sum(c.a1 for c in costs)   # Alice asks
    resp1 = sum(c.b1 for c in costs)  # Bob answers
    req2 = sum(c.b2 for c in costs)   # Bob asks
    resp2 = sum(c.a2 for c in costs)  # Alice answers
    if req1 and req2:
        print(f"phase-1 responder/requester bits: {resp1 / req1:.1f}  "
              f"phase-2: {resp2 / req2:.1f}  (B = {args.b})")
    return 1 if failures else 0


def cmd_obs1(args) -> int:
    rep = check_observation1(args.universe, args.l, args.trials, args.seed)
    _write_rows(
        args.out,
        ["universe", "l", "trials", "seed", "mean_singleton_fraction", "p_at_least_third"],
        [[args.universe, args.l, args.trials, args.seed,
          f"{rep.mean_singleton_fraction:.6f}", f"{rep.p_at_least_third:.4f}"]],
    )
    print(f"mean singleton fraction: {rep.mean_singleton_fraction:.4f} (e^-1 = {math.exp(-1):.4f})")
    print(f"P[singletons >= l/3]:    {rep.p_at_least_third:.4f}")
    return 0


def cmd_bench(args) -> int:
    n = args.n
    cfg = DeviceConfig(B=args.b, M=args.mem, w=args.w)
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    rows = []
    status = 0
    if args.queue in ("buffered_heap", "all"):
        half = n // 2
        wl = insert_extract_workload(rng.permutation(half), rng.integers(0, 1 << 30, half),
                                     1 << 30, args.seed)
        dev = Device(cfg)
        rep = run_workload(BufferedHeap(dev, n_hint=half), dev, wl)
        bound = 20 * (n / cfg.B) * (1 + math.log(max(n, cfg.M) / cfg.M, cfg.M / cfg.B))
        ok = rep.probes_total <= bound
        status |= 0 if ok else 1
        rows.append(["buffered_heap", n, cfg.B, cfg.M, cfg.w, args.seed, rep.probes_total, f"{bound:.0f}", int(ok)])
        print(f"buffered_heap: {rep.probes_total} probes vs bound {bound:.0f} -> {'ok' if ok else 'EXCEEDED'}")
    if args.queue in ("tournament", "all"):
        wl = make_random_workload(n, args.seed + 1, universe=1 << 20, profile="mixed")
        dev = Device(cfg)
        rep = run_workload(TournamentQueue(dev, n_hint=n, seed=args.seed), dev, wl)
        bound = 20 * (n / cfg.B) * math.log2(n)
        ok = rep.probes_total <= bound
        status |= 0 if ok else 1
        rows.append(["tournament", n, cfg.B, cfg.M, cfg.w, args.seed, rep.probes_total, f"{bound:.0f}", int(ok)])
        print(f"tournament: {rep.probes_total} probes vs bound {bound:.0f} -> {'ok' if ok else 'EXCEEDED'}")
    _write_rows(args.out, ["structure", "N", "B", "M", "w", "seed", "probes", "bound", "ok"], rows)
    return status


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pqlab", description=__doc__)
    top.add_argument("--version", action="version", version=f"pqlab {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def tree_args(p, required=True):
        p.add_argument("--beta", type=int, required=required)
        p.add_argument("--h", type=int, required=required)
        p.add_argument("--m", type=int, required=required)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--strict", action="store_true")
        p.add_argument("--universe", type=int, default=None,
                       help="override the (m*h*beta^h)^4 key universe")

    def device_args(p):
        p.add_argument("--b", type=int, default=64, help="words per block")
        p.add_argument("--mem", type=int, default=1024, help="words of memory")
        p.add_argument("--w", type=int, default=64, help="bits per word")

    p = sub.add_parser("gen", help="materialize a workload file")
    tree_args(p, required=False)  # not for --variant random
    p.add_argument("--variant", choices=("basic", "no_spurious", "multi_tree", "random"), default="basic")
    p.add_argument("--trees", type=int, default=1)
    p.add_argument("--n", type=int, default=None, help="ops of a random workload")
    p.add_argument("--profile", default="mixed", help="op mix of a random workload")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen, usage_error=p.error)

    p = sub.add_parser("run", help="execute a workload on an instrumented queue")
    p.add_argument("--workload", required=True)
    p.add_argument("--queue", choices=QUEUES, default="tournament")
    p.add_argument("--seed", type=int, default=0)
    device_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("stats", help="probe attribution and embedding selection")
    tree_args(p)
    device_args(p)
    p.add_argument("--queue", choices=QUEUES, default="tournament")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("comm", help="two-phase protocol runs with bit accounting")
    tree_args(p)
    device_args(p)
    p.add_argument("--queue", choices=QUEUES, default="tournament")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--node", type=int, default=None, help="embedding node id")
    p.add_argument("--hv", type=int, default=None, help="embedding node height (first match)")
    p.add_argument("--k", type=int, default=2, help="middle-child index (2..beta+1)")
    p.add_argument("--out", default=None)
    p.add_argument("--transcript", default=None, help="CSV dump of the first run's transcript")
    p.set_defaults(func=cmd_comm)

    p = sub.add_parser("obs1", help="singleton-bucket fraction check")
    p.add_argument("--universe", type=int, default=10**6)
    p.add_argument("--l", type=int, default=10**3)
    p.add_argument("--trials", type=int, default=10**3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_obs1)

    p = sub.add_parser("bench", help="probe envelope regression")
    p.add_argument("--n", type=int, default=1 << 16)
    p.add_argument("--queue", choices=("buffered_heap", "tournament", "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    device_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PqlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
