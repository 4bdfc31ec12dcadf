"""Alternating parent/change benchmark pairs, written to one BENCH_<label>.json.

    python3 tools/bench_pairs.py --base REV --change REV --label NAME \\
        --seconds 30 --run protocol_pair:41:10 --run tree_dk_heap:41:1

Each ``--run WORKLOAD:SEED:PAIRS`` runs ``perfbench/run.py --workload
WORKLOAD --seed SEED --seconds S`` PAIRS times on each revision, each
revision from its own ``git archive`` checkout and with the same benchmark
code it commits.  Pair i runs the base first when i is even and the change
first when it is odd.  The file records every run's end-to-end metrics and
witness digest, whether all the digests of a ``--run`` agree
(``witness_equal``; the sides differ where a change declares a probe-cost
change), whether each side's own digests agree (``witness_stable``; a
warning goes to stderr for a side whose runs disagree), each side's median
and quartiles, how many pairs the change won under BENCHMARK.json's
``better`` direction, each side's failed and attempted totals, both commits,
the git tree of each side's ``src/``, its line count (``src_lines``, over
``src/pqlab/*.py`` and ``src/pqlab/*/*.py``) and the exact commands.  It
exits 1 after writing the file if any run failed an operation, so no win is
counted over a failing side.

    python3 tools/bench_pairs.py --diff --base REV --change REV [--declared]

``--diff`` replays a fixed grid of 296 cases on both checkouts instead,
through the public API only (``make_queue``, ``run_workload``,
``memory_image``, ``peek_block``).  At each (B, M) of ``DIFF_GEOMETRIES`` it
runs ``DIFF_SEEDS`` seeds of ``DIFF_OPS``-op random workloads over a
universe of ``DIFF_OPS`` on all four queues (``mixed`` traffic,
``insert_extract`` for the plain heap) and the ``DIFF_TREES`` trees on the
three queues that take Delete.  At ``DIFF_TIED_GEOMETRY`` alone, where
every queue's tied cases reach the disk, it adds ``DIFF_TIED_SEEDS`` seeds
of tied cases on all four queues, where most priorities tie: ``DIFF_OPS``-op
``mixed`` workloads over a universe of ``DIFF_TIED_UNIVERSE``, and for the
plain heap a fill and drain of ``DIFF_OPS // 2`` keys with priorities below
``DIFF_TIED_UNIVERSE``.  A random case's spec carries its universe.  It
prints one line per case: both probe counts, their delta and the first op
whose probes differ, then one probe-total line per queue, one line naming
each case that made no probe on either side (it compares only answers and
final images), and a summary line: the case, failure and no-probe counts,
the grand probe totals and each side's ``src_lines``.  A case fails when
either side raises or the answers differ, and, unless ``--declared``, when
the probe log, the final memory image or the written blocks differ; with
``--declared`` (a declared probe-cost change) a case fails only if the
change makes more probes.  It exits 1 if any case fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DIFF_SEEDS = 20
DIFF_OPS = 4000
DIFF_GEOMETRIES = ((8, 128), (16, 256), (64, 1024))
DIFF_TREES = ((2, 4, 2), (2, 6, 2), (3, 4, 2), (2, 8, 2))
DIFF_TIED_SEEDS = 5
DIFF_TIED_UNIVERSE = 64
DIFF_TIED_GEOMETRY = (8, 128)

# Run in each checkout with the grid as argv[1]; prints one JSON record per case.
DIFF_SCRIPT = """
import hashlib, json, random, sys
from pqlab import Device, DeviceConfig
from pqlab.cli import make_queue
from pqlab.device import WRITE
from pqlab.dk import augmented_key_bits
from pqlab.pq.base import run_workload
from pqlab.workload import TreeParams, insert_extract_workload, make_random_workload, materialize

def sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()

for queue, spec, B, M in json.loads(sys.argv[1]):
    if spec[0] == "tree":
        wl = materialize(TreeParams(*spec[1:]))
    elif spec[0] == "fill_drain":  # n distinct keys inserted, priorities below the universe, then extracted
        n, seed, universe = spec[1:]
        rng = random.Random(seed)
        wl = insert_extract_workload(rng.sample(range(n), n), [rng.randrange(universe) for _ in range(n)], n, seed)
    else:
        wl = make_random_workload(spec[2], spec[3], universe=spec[4], profile=spec[1])
    w = max(64, augmented_key_bits(wl.universe)) if queue.startswith("dk_") else 64
    dev = Device(DeviceConfig(B=B, M=M, w=w))
    q = make_queue(queue, dev, n_hint=max(1024, len(wl.ops)), seed=3)
    try:
        answers, image, error = run_workload(q, dev, wl).extractions, q.memory_image(), None
    except Exception as e:
        answers, image, error = None, None, f"{type(e).__name__}: {e}"
    ops = {}
    for r in dev.log:
        ops.setdefault(r.op_index, []).append((r.addr, r.access))
    written = sorted({r.addr for r in dev.log if r.access == WRITE})
    print(json.dumps({"probes": len(dev.log), "error": error, "answers": sha(answers), "image": sha(image),
                      "log": sha([(r.addr, r.access) for r in dev.log]),
                      "blocks": sha([(a, dev.peek_block(a)) for a in written]),
                      "ops": [[i, sha(v)[:16]] for i, v in ops.items()]}))
"""


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def checkout(rev: str, into: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(into)
    return into


def src_lines(tree: Path) -> int:
    """Newlines in ``src/pqlab/*.py`` and ``src/pqlab/*/*.py``, as ``wc -l`` counts them."""
    return sum(f.read_bytes().count(b"\n") for pattern in ("src/pqlab/*.py", "src/pqlab/*/*.py")
               for f in tree.glob(pattern))


def bench_command(workload: str, seed: int, seconds: float) -> list[str]:
    return ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}"]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(bench_command(workload, seed, seconds), cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} seed {seed} in {tree} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    record = json.loads((tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "failed": result["failed"], "attempted": result["attempted"], "digest": record["digest"]}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(pairs: list[dict], better: dict[str, str]) -> dict:
    out = {}
    for name, direction in better.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1 if direction == "lower" else -1
        base_s, change_s = summary(base), summary(change)
        out[name] = {
            "base": base_s, "change": change_s,
            "change_wins": sum(sign * (b - c) > 0 for b, c in zip(base, change)),
            "ties": sum(b == c for b, c in zip(base, change)),
            "pairs": len(pairs),
            "median_diff_over_base_iqr": (abs(change_s["median"] - base_s["median"])
                                          / (base_s["q3"] - base_s["q1"]) if base_s["q3"] > base_s["q1"] else None),
        }
    return out


def diff_grid() -> list:
    grid = []
    for B, M in DIFF_GEOMETRIES:
        for queue in ("tournament", "dk_tournament", "buffered_heap", "dk_buffered_heap"):
            profile = "insert_extract" if queue == "buffered_heap" else "mixed"
            grid += [[queue, ["random", profile, DIFF_OPS, seed, DIFF_OPS], B, M] for seed in range(DIFF_SEEDS)]
            if queue != "buffered_heap":
                grid += [[queue, ["tree", *shape, 1], B, M] for shape in DIFF_TREES]
            if (B, M) == DIFF_TIED_GEOMETRY:
                tied = (["fill_drain", DIFF_OPS // 2] if queue == "buffered_heap"
                        else ["random", "mixed", DIFF_OPS])
                grid += [[queue, [*tied, seed, DIFF_TIED_UNIVERSE], B, M] for seed in range(DIFF_TIED_SEEDS)]
    return grid


def first_diff_op(base: list, change: list) -> int | None:
    """The first op index whose probes differ, from each side's (op index, digest) pairs."""
    a, b = dict(base), dict(change)
    return min((i for i in a.keys() | b.keys() if a.get(i) != b.get(i)), default=None)


def diff(trees: dict[str, Path], declared: bool) -> int:
    grid = diff_grid()
    procs = {side: subprocess.Popen([sys.executable, "-c", DIFF_SCRIPT, json.dumps(grid)], cwd=tree, text=True,
                                    stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(tree / "src")})
             for side, tree in trees.items()}  # both sides at once, one process each
    results = {}
    for side, proc in procs.items():
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"error: the diff script exited with {proc.returncode} on {side}")
        results[side] = [json.loads(line) for line in out.splitlines()]
    failed, idle = 0, []
    per_queue: dict[str, list[int]] = {}  # queue -> [base probes, change probes, cases, cases with fewer]
    for (queue, spec, B, M), base, change in zip(grid, results["base"], results["change"]):
        name = f"{queue} {'_'.join(map(str, spec))} B={B} M={M}"
        bad = [f"{side} raised {r['error']}" for side, r in (("base", base), ("change", change)) if r["error"]]
        if base["answers"] != change["answers"]:
            bad.append("answers differ")
        if declared:
            if change["probes"] > base["probes"]:
                bad.append("more probes")
        else:
            bad += [f"{key} differs" for key in ("log", "image", "blocks") if base[key] != change[key]]
        delta = change["probes"] - base["probes"]
        q = per_queue.setdefault(queue, [0, 0, 0, 0])
        for i, n in enumerate((base["probes"], change["probes"], 1, delta < 0)):
            q[i] += n
        failed += bool(bad)
        if base["probes"] == change["probes"] == 0:
            idle.append(name)
        op = first_diff_op(base["ops"], change["ops"])
        print(f"{name}: {base['probes']} -> {change['probes']} ({delta:+d}), first differing op "
              f"{'-' if op is None else op}{'  FAIL: ' + '; '.join(bad) if bad else ''}")
    for queue, (b, c, n, f) in per_queue.items():
        print(f"{queue}: probes {b} -> {c} ({c - b:+d}), {f} of {n} cases with fewer probes")
    b, c, n, f = (sum(col) for col in zip(*per_queue.values()))
    for name in idle:
        print(f"no probe on either side: {name}")
    lines = {side: src_lines(tree) for side, tree in trees.items()}
    print(f"{n} cases, {failed} failed, {f} with fewer probes, {len(idle)} with no probe on either side; "
          f"probes {b} -> {c}{' (declared probe-cost change)' if declared else ''}; "
          f"src lines {lines['base']} -> {lines['change']} ({lines['change'] - lines['base']:+d})")
    return 1 if failed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="parent revision")
    ap.add_argument("--change", required=True, help="changed revision")
    ap.add_argument("--label", help="writes BENCH_<label>.json at the repo root")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--run", action="append", metavar="WORKLOAD:SEED:PAIRS")
    ap.add_argument("--diff", action="store_true", help="compare both sides' probes and answers on a fixed grid")
    ap.add_argument("--declared", action="store_true", help="with --diff: require only equal answers and no more probes")
    args = ap.parse_args()
    if args.diff:
        with tempfile.TemporaryDirectory() as tmp:
            trees = {side: checkout(git("rev-parse", f"{rev}^{{commit}}"), Path(tmp) / side)
                     for side, rev in (("base", args.base), ("change", args.change))}
            return diff(trees, args.declared)
    if not (args.label and args.run):
        ap.error("--label and --run are required without --diff")

    revs = {side: {"rev": rev, "commit": git("rev-parse", f"{rev}^{{commit}}"),
                   "src_tree": git("rev-parse", f"{rev}:src")}
            for side, rev in (("base", args.base), ("change", args.change))}
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: checkout(r["commit"], Path(tmp) / side) for side, r in revs.items()}
        for side, tree in trees.items():
            revs[side]["src_lines"] = src_lines(tree)
        for spec in args.run:
            workload, seed, n_pairs = spec.split(":")
            seed, n_pairs = int(seed), int(n_pairs)
            pairs = []
            for i in range(n_pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, args.seconds)
                    print(f"{workload} seed={seed} pair={i} {side}: pass_s="
                          f"{pair[side]['metrics']['pass_s']:.4f}", file=sys.stderr, flush=True)
                pairs.append(pair)
            witness_equal = len({p[side]["digest"] for p in pairs for side in revs}) == 1
            witness_stable = {side: len({p[side]["digest"] for p in pairs}) == 1 for side in revs}
            for side in revs:
                if not witness_stable[side]:
                    print(f"warning: {workload} seed={seed}: {side} witness digests differ between its runs",
                          file=sys.stderr, flush=True)
            run_summary = compare(pairs, better)
            for count in ("failed", "attempted"):
                run_summary[count] = {side: sum(p[side][count] for p in pairs) for side in revs}
            runs.append({"workload": workload, "seed": seed, "seconds": args.seconds,
                         "command": " ".join(bench_command(workload, seed, args.seconds)),
                         "witness_equal": witness_equal, "witness_stable": witness_stable, "pairs": pairs, "summary": run_summary})
    bench = {"label": args.label, "command": " ".join(["python3", "tools/bench_pairs.py", *sys.argv[1:]]),
             "revisions": revs, "runs": runs}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(out)
    failing = [f"{r['workload']} seed={r['seed']} {side}" for r in runs for side in revs
               if r["summary"]["failed"][side]]
    if failing:
        print(f"error: failed operations in {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
