"""Layered wall-time and probe benchmark for pqlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``tree_dk_heap``, ``random_tournament``, ``protocol_pair`` or
``all`` (each workload in turn, one process each).  The run builds its
inputs from the seed, repeats passes (generate -> replay -> verify/analyse)
for about S seconds in one process with no worker threads, checks every
output, and prints each metric by name and unit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` they are the per-layer ones, from a run
that alternates untraced and traced passes.  A record of each run (metrics,
parameters, pass times and the sha256 witness of probe logs, answers and
ledgers) is written to ``perfbench/out/``, and the spans of a traced run to
``perfbench/out/spans-NAME.npz``.

The package is imported from ``src/`` of the checkout this file sits in.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("tree_dk_heap", "random_tournament", "protocol_pair")
SETUP_SAMPLES = 5  # this process plus four fresh ones; setup_s is their median
CHILD_TIMEOUT_S = 170

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "replay_ops_per_s": "1/s", "peak_rss_mb": "MB",
             "probes_per_op": "probes/op"}


def import_program():
    """Import pqlab from this checkout's sources, and the benchmark's modules."""
    if not (SRC / "pqlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no pqlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pqlab

    if Path(pqlab.__file__).resolve().parent != SRC / "pqlab":
        raise SystemExit(f"error: pqlab was imported from {pqlab.__file__}, not from {SRC}")
    import workloads

    return workloads


def setup(name: str, seed: int):
    """Everything before the first pass: imports, configs, tree build."""
    workloads = import_program()
    wk = workloads.WORKLOADS[name](seed)
    return workloads, wk, time.perf_counter() - _T0


def setup_samples(name: str, seed: int, own: float) -> list[float]:
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_passes(workloads, wk, seconds: float, tracer):
    """Repeat passes for about ``seconds``; with a tracer, every other pass is traced.

    A pass starts only while the run's elapsed time plus the last duration of
    its kind stays within ``seconds``, so runs end close to their budget.
    """
    plain, traced = [], []
    t_start = time.perf_counter()
    while True:
        is_traced = tracer is not None and len(traced) < len(plain)
        done = traced if is_traced else plain
        over = done and time.perf_counter() - t_start + done[-1][0] > seconds
        if over and (tracer is None or traced):
            break
        if is_traced:
            tracer.current_pass = len(traced)
            with workloads.traced_api(tracer), tracer.span("pass"):
                t0 = time.perf_counter()
                res = wk.run_pass(tracer)
                dt = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            res = wk.run_pass()
            dt = time.perf_counter() - t0
        if not is_traced or done:
            res.log = None  # keep one traced log; peak memory must not grow with the pass count
        done.append((dt, res))
    return plain, traced


def tally(passes) -> dict:
    results = [res for _, res in passes]
    attempted = sum(r.units for r in results)
    failed = sum(r.failed for r in results)
    good = [r for r in results if r.failed == 0]
    digests = {r.digest for r in good}
    exact = [r.exact for r in good]
    repeatable = len(digests) <= 1 and all(e == exact[0] for e in exact)
    if not repeatable:
        print("error: passes of one seed disagree on digests or exact counts", file=sys.stderr)
        failed = attempted
    return {"attempted": attempted, "failed": failed, "correct": bool(good) and failed == 0 and repeatable,
            "digest": good[0].digest if good else "", "first": good[0] if good else results[0]}


def end_to_end(passes, setup_s: list[float], first) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "pass_s": statistics.median(dt for dt, _ in passes),
        "replay_ops_per_s": statistics.median([r.ops / r.replay_s for _, r in passes if r.replay_s > 0] or [0.0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "probes_per_op": first.probes / max(1, first.ops),
    }


def log_bytes(log) -> int:
    """Bytes held by a probe log: the list, each record, and each distinct field object."""
    seen: set[int] = set()
    total = sys.getsizeof(log)
    for rec in log:
        total += sys.getsizeof(rec)
        for v in rec:
            if id(v) not in seen:
                seen.add(id(v))
                total += sys.getsizeof(v)
    return total


def per_layer(tracer, plain, traced) -> dict:
    """Per-layer metrics, each the mean over the traced passes."""
    tab = tracer.table()
    results = [r for _, r in traced]
    n = len(results)
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def lay(key):
        return sum(r.layer.get(key, 0) for r in results) / n

    put("workload.gen_s", tab.top_incl_s("workload.") / n, "s")
    put("workload.resolve_s", tab.incl_s("workload.resolve_leaf_ops") / n, "s")
    put("pq.oracle.calls", tab.calls("pq.oracle.") / n, "count")
    put("pq.oracle.self_s", tab.self_s("pq.oracle.") / n, "s")

    reads, writes = lay("reads"), lay("writes")
    put("device.reads", reads, "count")
    put("device.writes", writes, "count")
    put("device.self_s", tab.self_s("device.") / n, "s")
    put("device.us_per_probe", 1e6 * tab.self_s("device.") / n / max(1, reads + writes), "us")
    log = next((r.log for r in results if r.log is not None), [])
    put("device.log_bytes_per_probe", log_bytes(log) / max(1, len(log)), "B")
    put("pq.base.replay_self_s", tab.self_s("pq.base.run_workload") / n, "s")

    for queue, ops in (("pq.buffered_heap", ("insert", "extract_min")),
                       ("pq.tournament", ("insert", "delete", "decrease_key", "extract_min"))):
        for op in ops:
            name = f"{queue}.{op}"
            put(f"{name}.calls", tab.calls(name) / n, "count")
            put(f"{name}.self_s", tab.self_s(name) / n, "s")
            put(f"{name}.p50_us", tab.quantile_us(name, 0.5), "us")
            put(f"{name}.p99_us", tab.quantile_us(name, 0.99), "us")
    heap_calls = tab.calls("pq.buffered_heap.insert") + tab.calls("pq.buffered_heap.extract_min")
    put("pq.buffered_heap.probes_per_call", tab.under("device.", "pq.buffered_heap.") / max(1, heap_calls),
        "probes/call")
    reports = [rep for rep in tracer.kept.get("pq.base.run_workload", []) if rep.structure == "tournament"]
    for cls in ("insert", "delete", "extractmin", "decrease"):
        put(f"pq.tournament.probes.{cls}", sum(getattr(rep, f"probes_{cls}") for rep in reports) / n, "count")

    # dk ops are the calls the wrapper gets from outside; the Delete recipe
    # calls decrease_key and extract_min on itself.
    dk_ops = sum(tab.calls(f"dk.{op}") - tab.under(f"dk.{op}", "dk.")
                 for op in ("insert", "delete", "decrease_key", "extract_min"))
    base_ins = tab.under("pq.buffered_heap.insert", "dk.")
    base_ext = tab.under("pq.buffered_heap.extract_min", "dk.")
    live = (tab.calls("dk.extract_min") - tracer.raised.get("dk.extract_min", 0)
            + tab.under("pq.buffered_heap.insert", "dk.rebuild"))
    put("dk.self_s", tab.self_s("dk.") / n, "s")
    put("dk.rebuild_s", tab.incl_s("dk.rebuild") / n, "s")
    put("dk.rebuilds", lay("rebuilds"), "count")
    put("dk.stale_discards", lay("stale_discards"), "count")
    put("dk.base_calls_per_op", (base_ins + base_ext) / max(1, dk_ops), "calls/op")
    put("dk.extract_yield", live / max(1, base_ext), "frac")

    attributed = sum(tracer.kept.get("probe_stats.attribute", []))
    analyse_s = tab.incl_s("probe_stats.attribute") + tab.incl_s("probe_stats.node_stats")
    put("probe_stats.attribute_s", tab.incl_s("probe_stats.attribute") / n, "s")
    put("probe_stats.node_stats_s", tab.incl_s("probe_stats.node_stats") / n, "s")
    put("probe_stats.us_per_probe", 1e6 * analyse_s / max(1, attributed), "us")

    snapshot_s = sum(tab.self_s(f"{q}.{op}") for q in ("dk", "pq.buffered_heap", "pq.tournament")
                     for op in ("memory_image", "load_memory_image"))
    images = tracer.kept.get("dk.memory_image", []) + tracer.kept.get("pq.tournament.memory_image", [])
    put("comm.protocol.run_s", tab.incl_s("comm.protocol.run_embedding_protocol") / n, "s")
    put("comm.protocol.self_s", tab.self_s("comm.protocol.") / n, "s")
    put("comm.protocol.snapshot_s", snapshot_s / n, "s")
    put("comm.protocol.snapshot_bytes", statistics.fmean(images) if images else 0.0, "B")
    for i, part in enumerate(("a1", "b1", "a2", "b2")):
        put(f"comm.protocol.bits.{part}", sum(r.layer.get("bits", [0] * 4)[i] for r in results) / n, "bit")
    put("comm.protocol.requests", lay("requests"), "count")
    put("comm.protocol.messages", lay("messages"), "count")
    put("comm.samplers.sample_s", tab.self_s("comm.samplers.") / n, "s")

    traced_s = statistics.median(dt for dt, _ in traced)
    put("trace.pass_s", traced_s, "s")
    put("trace.overhead_frac", traced_s / statistics.median(dt for dt, _ in plain) - 1, "frac")
    put("trace.accounted_frac", 1 - tab.self_s("pass") / tab.incl_s("pass"), "frac")
    put("trace.spans_per_pass", len(tab.dur) / n, "count")
    return m


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads, wk, own_setup = setup(name, seed)
    setup_s = setup_samples(name, seed, own_setup)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    plain, traced = run_passes(workloads, wk, seconds, tracer)
    t = tally(plain + traced)
    OUT.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "params": wk.describe(), "digest": t["digest"],
              "passes": len(plain), "pass_s": [dt for dt, _ in plain],
              "setup_samples_s": setup_s, "attempted": t["attempted"], "failed": t["failed"],
              "fail_frac": t["failed"] / t["attempted"], "exact": t["first"].exact}
    if trace:
        metrics = per_layer(tracer, plain, traced)
        record["traced_passes"] = len(traced)
        record["traced_pass_s"] = [dt for dt, _ in traced]
        tracer.write(OUT / f"spans-{name}.npz")
    else:
        metrics = {k: (v, E2E_UNITS[k]) for k, v in end_to_end(plain, setup_s, t["first"]).items()}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {name} seed={seed} params={json.dumps(record['params'])}")
    for k, (v, u) in metrics.items():
        print(f"  {k:<40} {v:>16.6g} {u}")
    unit = "protocol runs" if name == "protocol_pair" else "ops"
    print(f"  {'fail_frac':<40} {record['fail_frac']:>16.6g} ({t['failed']}/{t['attempted']} {unit})")
    print(f"  passes={len(plain)}" + (f" traced_passes={len(traced)}" if trace else ""))
    print(f"  digest sha256={t['digest']}")
    return {"correct": t["correct"], "attempted": t["attempted"], "failed": t["failed"],
            "metrics": record["metrics"]}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a process of its own, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + seconds,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    OUT.mkdir(exist_ok=True)
    (OUT / f"all-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(combined, indent=1) + "\n")
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.setup_only:
        print(setup(args.workload, args.seed)[2])
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
