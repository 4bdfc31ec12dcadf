import csv

import pytest

from pqlab import Device, DeviceConfig
from pqlab.cli import DK_FIELDS, main, make_queue
from pqlab.ops import DECREASE, DELETE, EXTRACTMIN, INSERT, Op
from pqlab.pq.base import run_workload
from pqlab.workload import Workload, read_workload, write_workload


def test_gen_property1_counts(tmp_path, capsys):
    out = tmp_path / "wl.bin"
    rc = main(["gen", "--beta", "2", "--h", "8", "--m", "4", "--seed", "1", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "deletes=8192" in text and "extractmins=8192" in text
    wl = read_workload(out)
    assert wl.counts()["delete"] == 8192


def test_gen_rejects_h_zero(tmp_path):
    with pytest.raises(SystemExit):  # argparse has no h=0 guard; TreeParams does
        main(["gen", "--beta", "2", "--out", str(tmp_path / "x.bin")])
    rc = main(["gen", "--beta", "2", "--h", "0", "--m", "1", "--out", str(tmp_path / "x.bin")])
    assert rc == 2


def test_gen_regeneration_byte_identical(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    argv = ["gen", "--beta", "2", "--h", "3", "--m", "2", "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_oracle_zero_probes(tmp_path, capsys):
    wl = tmp_path / "wl.bin"
    main(["gen", "--beta", "2", "--h", "2", "--m", "1", "--seed", "3", "--out", str(wl)])
    rep = tmp_path / "rep.csv"
    rc = main(["run", "--workload", str(wl), "--queue", "oracle", "--out", str(rep)])
    assert rc == 0
    rows = list(csv.DictReader(open(rep)))
    assert rows[0]["probes_total"] == "0"


@pytest.mark.parametrize(
    "cut", [lambda b: b[:20], lambda b: b[:100], lambda b: b + b"\0", lambda b: b[:24] + b"\x09" + b[25:]],
    ids=["shorter_than_header", "truncated_records", "trailing_byte", "unknown_variant"],
)
def test_run_rejects_malformed_workload_file(tmp_path, capsys, cut):
    wl = tmp_path / "wl.bin"
    main(["gen", "--beta", "2", "--h", "2", "--m", "1", "--seed", "3", "--out", str(wl)])
    assert len(read_workload(wl).ops) == 24
    wl.write_bytes(cut(wl.read_bytes()))
    capsys.readouterr()
    assert main(["run", "--workload", str(wl), "--queue", "oracle", "--out", "/dev/null"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_reports_missing_workload_file(tmp_path, capsys):
    assert main(["run", "--workload", str(tmp_path / "absent.bin"), "--queue", "oracle"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_run_tournament_nonzero_and_deterministic(tmp_path):
    wl = tmp_path / "wl.bin"
    main(["gen", "--beta", "2", "--h", "3", "--m", "2", "--seed", "5", "--out", str(wl)])

    def run(path):
        return main([
            "run", "--workload", str(wl), "--queue", "tournament",
            "--b", "16", "--mem", "256", "--out", str(path),
        ])

    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run(r1) == 0 and run(r2) == 0
    rows1 = list(csv.DictReader(open(r1)))
    rows2 = list(csv.DictReader(open(r2)))
    assert rows1 == rows2
    assert int(rows1[0]["probes_total"]) > 0


def test_run_reports_decrease_probes(tmp_path, capsys):
    ops = [Op(INSERT, k, 100 + k, None) for k in range(40)]
    ops += [Op(DECREASE, k, k, None) for k in range(20, 40)]
    ops += [Op(EXTRACTMIN, k, k, None) for k in range(20, 40)]
    wl = tmp_path / "wl.bin"
    write_workload(Workload(None, "random", 1 << 10, 0, ops), wl)
    rep = tmp_path / "rep.csv"
    rc = main(["run", "--workload", str(wl), "--queue", "tournament",
               "--b", "16", "--mem", "256", "--out", str(rep)])
    assert rc == 0
    row = list(csv.DictReader(open(rep)))[0]
    by_class = [int(row[f"probes_{c}"]) for c in ("insert", "delete", "extractmin", "decrease")]
    assert int(row["probes_decrease"]) > 0
    assert sum(by_class) == int(row["probes_total"])
    assert f"t_DK: {row['probes_decrease']} probes / 20 ops" in capsys.readouterr().out

    # dk queues also print the wrapper's counters.
    dev = Device(DeviceConfig(B=16, M=256, w=64))
    queue = make_queue("dk_tournament", dev, n_hint=1024, seed=0)
    run_workload(queue, dev, read_workload(wl))
    stats = queue.report_stats()
    assert stats["rebuilds"] > 0 and stats["stale_discards"] > 0
    rc = main(["run", "--workload", str(wl), "--queue", "dk_tournament", "--b", "16", "--mem", "256"])
    assert rc == 0
    assert (f"dk: rebuilds={stats['rebuilds']} stale_discards={stats['stale_discards']} "
            f"absent_decreases={stats['absent_decreases']}") in capsys.readouterr().out


def test_run_csv_carries_dk_counters(tmp_path):
    ops = [Op(INSERT, k, 100 + k, None) for k in range(40)]
    ops += [Op(DECREASE, k, k, None) for k in range(20, 40)]
    ops += [Op(DELETE, k, 0, None) for k in range(0, 40, 3)]
    ops += [Op(EXTRACTMIN, k, k, None) for k in range(20, 40) if k % 3]
    wl = tmp_path / "wl.bin"
    write_workload(Workload(None, "random", 1 << 10, 0, ops), wl)
    dev = Device(DeviceConfig(B=16, M=256, w=64))
    queue = make_queue("dk_buffered_heap", dev, n_hint=1024, seed=0)
    run_workload(queue, dev, read_workload(wl))
    stats = queue.report_stats()
    assert stats["rebuilds"] > 0 and stats["stale_discards"] > 0 and stats["stale"] > 0

    for kind, want in (("dk_buffered_heap", {f: str(stats[f]) for f in DK_FIELDS}),
                       ("tournament", dict.fromkeys(DK_FIELDS, ""))):
        rep = tmp_path / f"{kind}.csv"
        assert main(["run", "--workload", str(wl), "--queue", kind,
                     "--b", "16", "--mem", "256", "--out", str(rep)]) == 0
        row = list(csv.DictReader(open(rep)))[0]
        assert {f: row[f] for f in DK_FIELDS} == want


def test_run_capability_mismatch(tmp_path, capsys):
    wl = tmp_path / "wl.bin"
    main(["gen", "--beta", "2", "--h", "2", "--m", "1", "--seed", "3", "--out", str(wl)])
    rc = main(["run", "--workload", str(wl), "--queue", "buffered_heap"])
    assert rc == 2
    assert "DecreaseKey reduction" in capsys.readouterr().err


def test_stats_conservation_line(capsys):
    rc = main([
        "stats", "--beta", "2", "--h", "4", "--m", "2", "--trials", "2",
        "--queue", "tournament", "--b", "16", "--mem", "256",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "(conserved)" in out and "embedding:" in out


def test_comm_rows_all_correct(tmp_path, capsys):
    out = tmp_path / "comm.csv"
    rc = main([
        "comm", "--beta", "2", "--h", "4", "--m", "2", "--trials", "4",
        "--queue", "tournament", "--b", "16", "--mem", "256", "--out", str(out),
    ])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 4
    assert all(r["correct"] == "1" for r in rows)
    assert "memory images reach" not in capsys.readouterr().err


@pytest.mark.parametrize("where", [["--hv", "9"], ["--node", "9999"], ["--node", "-1"]])
def test_comm_rejects_missing_node(capsys, where):
    argv = ["comm", "--beta", "2", "--h", "4", "--m", "2", "--trials", "1", "--out", "/dev/null"]
    assert main(argv + where) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_comm_widens_words_for_dk_queues(tmp_path, capsys):
    # (2,6,2) keys need 39 bits; with the 32 counter bits they exceed the default w=64.
    out = tmp_path / "comm.csv"
    rc = main([
        "comm", "--beta", "2", "--h", "6", "--m", "2", "--trials", "2",
        "--queue", "dk_buffered_heap", "--b", "16", "--mem", "256", "--out", str(out),
    ])
    assert rc == 0
    err = capsys.readouterr().err
    assert "widening words to 71 bits" in err
    # the dk tables push the images past M; the run says so instead of hiding it
    assert "memory images reach 567 words, over M=256" in err
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 2 and all(r["correct"] == "1" for r in rows)


def test_obs1_reproduces_reference_value(capsys):
    rc = main(["obs1", "--universe", "100000", "--l", "1000", "--trials", "60", "--out", "/dev/null"])
    assert rc == 0
    out = capsys.readouterr().out
    frac = float(out.split("mean singleton fraction:")[1].split()[0])
    assert abs(frac - 0.3679) <= 0.02


def test_bench_within_envelope(tmp_path, capsys):
    rc = main([
        "bench", "--n", "8192", "--b", "32", "--mem", "512",
        "--out", str(tmp_path / "bench.csv"),
    ])
    assert rc == 0
    rows = list(csv.DictReader(open(tmp_path / "bench.csv")))
    assert {r["structure"] for r in rows} == {"buffered_heap", "tournament"}
    assert all(r["ok"] == "1" for r in rows)


def test_rows_carry_seed_and_version(tmp_path):
    wl = tmp_path / "wl.bin"
    main(["gen", "--beta", "2", "--h", "2", "--m", "1", "--seed", "3", "--out", str(wl)])
    rep = tmp_path / "rep.csv"
    main(["run", "--workload", str(wl), "--queue", "oracle", "--seed", "3", "--out", str(rep)])
    rows = list(csv.DictReader(open(rep)))
    assert rows[0]["version"] == "0.1.0"
    assert rows[0]["seed"] == "3"
