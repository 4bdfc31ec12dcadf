"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Exact metrics and digests must repeat for one seed, per-class probes must
add up to the total, and a second seed must pass every correctness check.
The command-line tests hold the output to the metric names and units that
BENCHMARK.json declares.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

workloads = run.import_program()
from spans import SpanTable, Tracer  # noqa: E402

HERE = Path(run.__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED, OTHER_SEED = 1, 2


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def passes(request):
    """Two passes on one seed and one on another, for each workload."""
    cls = workloads.WORKLOADS[request.param]
    wk = cls(SEED)
    return request.param, wk.run_pass(), wk.run_pass(), cls(OTHER_SEED).run_pass()


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_exact_metrics_and_digests_repeat(passes):
    _, a, b, _ = passes
    assert a.failed == b.failed == 0
    assert a.digest == b.digest
    assert a.exact == b.exact
    assert (a.probes, a.ops, a.units) == (b.probes, b.ops, b.units)
    assert (a.layer["reads"], a.layer["writes"]) == (b.layer["reads"], b.layer["writes"])


def test_per_class_probes_sum_to_total(passes):
    name, a, _, _ = passes
    if name == "protocol_pair":
        assert a.probes == a.exact["probes_reference"] > 0
        assert a.layer["reads"] + a.layer["writes"] > a.probes  # replicas probe too
        return
    ex = a.exact
    assert ex["probes_insert"] + ex["probes_delete"] + ex["probes_extractmin"] + ex["probes_decrease"] \
        == ex["probes_total"] == a.probes == a.layer["reads"] + a.layer["writes"]


def test_second_seed_passes_every_check(passes):
    _, a, _, other = passes
    assert other.failed == 0 and other.units > 0
    assert other.digest != a.digest


def test_protocol_checks_reject_tampered_results():
    wk = workloads.ProtocolPair(SEED)
    res = workloads.protocol.run_embedding_protocol(
        wk._factory("tournament", [], [], None), wk.params, wk.v, wk.K,
        workloads.protocol.sample_instance(wk.params, wk.v, seed=wk.run_seeds[0]),
        wk.config, seed=wk.run_seeds[0])
    workloads._check_protocol(res)
    cost = dataclasses.replace(res.cost, b2=res.cost.b2 + 1)
    for bad in (dataclasses.replace(res, cost=cost),
                dataclasses.replace(res, alice_requests=res.r_vk + 1),
                dataclasses.replace(res, bob_output=res.expected | {-1})):
        with pytest.raises(workloads.CheckError):
            workloads._check_protocol(bad)


def test_self_time_subtracts_children():
    # pass [0, 10] holds a [1, 4] (which holds b [2, 3]) and b [5, 9].
    s = 10**9
    tab = SpanTable(["pass", "x.a", "x.b"], [0, 1, 2, 2], [0, 1 * s, 2 * s, 5 * s],
                    [10 * s, 4 * s, 3 * s, 9 * s], [-1, 0, 1, 0])
    assert list(tab.self_time) == [3, 2, 1, 4]
    assert tab.self_s("x.") == 7 and tab.incl_s("x.b") == 5
    assert tab.top_incl_s("x.") == 7  # the nested b is inside a
    assert tab.under("x.b", "x.a") == 1 and tab.calls("x.") == 3


def test_tracer_closes_spans_that_raise():
    tr = Tracer()

    def boom():
        raise KeyError("x")

    traced = tr.wrap("x.boom", boom)
    with tr.span("pass"):
        with pytest.raises(KeyError):
            traced()
    assert list(tr.parent) == [-1, 0] and tr.raised["x.boom"] == 1
    assert all(e >= s for s, e in zip(tr.start, tr.end)) and tr._stack == [-1]


def _cli(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_cli_prints_the_declared_metrics_and_repeats_the_digest():
    digests = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _cli("--workload", "protocol_pair", "--seed", "3", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
        assert all(np.isfinite(v["value"]) for v in out["metrics"].values())
        digests += re.findall(r"digest sha256=(\w+)", proc.stdout)
    # A second process, with tracing on, must reproduce probe logs, answers and ledgers.
    assert len(digests) == 2 and digests[0] == digests[1]
    # Self times along the replay path account for the traced pass.
    assert out["metrics"]["trace.accounted_frac"]["value"] > 0.95
    assert out["metrics"]["comm.protocol.requests"]["value"] > 0


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli("--workload", "random_tournament", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
