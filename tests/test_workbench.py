"""Workload generation, bench reports, line protocol, CLI plumbing."""

import csv
import os
import socket
import threading
import time

import pytest

from cobble.bench import (
    CSV_COLUMNS,
    BenchReport,
    make_store,
    percentile,
    run_store_bench,
    write_csv,
)
from cobble.cli import build_parser, main, verify_seed
from cobble.effects import Effect
from cobble.engine import EngineConfig, LevelledStore, first_overlap
from cobble.memory import MapStore
from cobble.server import LineProtocolServer, handle_line
from cobble.store import TransactionDescriptor, TransactionError
from cobble.transactions import TransactionManager
from cobble.workload import (
    MIXES,
    ZipfianGenerator,
    next_txn_ops,
    thread_rng,
    workload_spec,
)


class TestZipf:
    def test_draws_stay_in_range_and_skew_to_the_front(self):
        zipf = ZipfianGenerator(100, theta=0.99)
        rng = thread_rng(42, 0)
        counts = [0] * 100
        for _ in range(100_000):
            rank = zipf.next(rng)
            assert 0 <= rank < 100
            counts[rank] += 1
        assert counts[0] > counts[9] > counts[50]
        assert counts[0] > 10_000  # the hot key carries real weight

    def test_single_item_space(self):
        zipf = ZipfianGenerator(1)
        rng = thread_rng(1, 0)
        assert all(zipf.next(rng) == 0 for _ in range(100))

    def test_rejects_empty_space(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)

    def test_deterministic_per_seed(self):
        zipf = ZipfianGenerator(50)
        a = [zipf.next(thread_rng(7, 3)) for _ in range(1)]
        draws1 = [zipf.next(thread_rng(7, 3)) for _ in range(1)]
        assert a == draws1
        r1, r2 = thread_rng(7, 3), thread_rng(7, 3)
        assert [zipf.next(r1) for _ in range(500)] == [
            zipf.next(r2) for _ in range(500)]
        r3 = thread_rng(7, 4)  # different thread, different stream
        assert [zipf.next(r1) for _ in range(500)] != [
            zipf.next(r3) for _ in range(500)]


EXPECTED_MIX = {
    "txn": {"lookup": 0.5, "assign": 0.5},
    "old_reads": {"old_read": 0.25, "lookup": 0.25, "assign": 0.5},
    "txn_increments": {"lookup": 0.5, "assign": 0.3, "incr": 0.2},
}


class TestWorkloadMixes:
    @pytest.mark.parametrize("name", sorted(MIXES))
    def test_mix_converges_within_one_percent(self, name):
        spec = workload_spec(name)
        zipf = ZipfianGenerator(spec.key_space, spec.zipf_theta)
        rng = thread_rng(0, 0)
        counts: dict[str, int] = {}
        total = 0
        while total < 100_000:
            for op in next_txn_ops(spec, rng, zipf):
                counts[op[0]] = counts.get(op[0], 0) + 1
                total += 1
        expected = EXPECTED_MIX[name]
        assert set(counts) == set(expected)
        for kind, share in expected.items():
            assert abs(counts[kind] / total - share) < 0.01, (kind, counts)

    def test_ops_shape(self):
        spec = workload_spec("txn_increments", key_space=10)
        zipf = ZipfianGenerator(10)
        rng = thread_rng(5, 0)
        for _ in range(200):
            ops = next_txn_ops(spec, rng, zipf)
            assert len(ops) == spec.ops_per_txn
            for op in ops:
                assert op[1].startswith("key")
                if op[0] == "assign":
                    assert 0 <= op[2] <= 1_000_000
                elif op[0] == "incr":
                    assert 1 <= op[2] <= 100
                else:
                    assert len(op) == 2

    def test_same_seed_same_stream(self):
        spec = workload_spec("txn")
        zipf = ZipfianGenerator(spec.key_space)
        a = [next_txn_ops(spec, thread_rng(9, 1), zipf) for _ in range(1)]
        b = [next_txn_ops(spec, thread_rng(9, 1), zipf) for _ in range(1)]
        assert a == b

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            workload_spec("hotspot")

    def test_key_space_override(self):
        assert workload_spec("txn", key_space=17).key_space == 17
        assert workload_spec("txn").key_space == 1000


class TestBenchReport:
    def test_percentile_edges(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0
        vals = sorted(float(i) for i in range(1, 101))
        assert percentile(vals, 0.50) == 50.0
        assert percentile(vals, 0.95) == 95.0
        assert percentile(vals, 0.99) == 99.0

    def test_csv_columns_are_pinned(self, tmp_path):
        report = BenchReport("txn", "map", 4, "tcc", 2.0, 1000, 3,
                             {"lookup": [5.0, 7.0], "assign": [11.0]})
        out = str(tmp_path / "report.csv")
        write_csv([report], out)
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(CSV_COLUMNS)
        assert rows[0] == ["workload", "store", "threads", "isolation", "ops",
                           "aborts", "p50_us", "p95_us", "p99_us",
                           "throughput_ops_s"]
        assert len(rows) == 2
        row = dict(zip(rows[0], rows[1]))
        assert row["workload"] == "txn" and row["store"] == "map"
        assert int(row["ops"]) == 1000 and int(row["aborts"]) == 3
        assert float(row["throughput_ops_s"]) == 500.0
        assert float(row["p50_us"]) == 7.0  # merged across kinds

    def test_tiny_map_bench_runs(self):
        report = run_store_bench("map", "txn", threads=2, seconds=0.2,
                                 seed=1, isolation="tcc")
        assert report.ops > 0
        assert report.aborts == 0  # nothing conflicts under tcc
        assert report.throughput_ops_s > 0
        assert set(report.latencies_us) <= {"lookup", "assign"}

    def test_tiny_engine_bench_reports_probes(self, tmp_path):
        report = run_store_bench("cobble", "txn_increments", threads=2,
                                 seconds=0.2, seed=2, isolation="tcc",
                                 data_dir=str(tmp_path / "db"))
        assert report.ops > 0
        assert report.probes is not None and -1 in report.probes
        assert report.commit_us and min(report.commit_us) > 0
        commit_line, = [ln.split() for ln in report.table().splitlines()
                        if ln.split()[0] == "commit"]
        assert commit_line[1] == f"n={len(report.commit_us)}"
        assert [f.split("=")[0] for f in commit_line[2:]] == ["p50", "p95", "p99"]

    def test_old_reads_workload_runs(self):
        report = run_store_bench("map", "old_reads", threads=1, seconds=0.2,
                                 seed=3, isolation="tcc")
        assert report.ops > 0

    def test_make_store_validation(self, tmp_path):
        with pytest.raises(ValueError):
            make_store("pjournal")
        with pytest.raises(ValueError):
            make_store("cobble")
        with pytest.raises(ValueError):
            make_store("lsm")
        store = make_store("pjournal", str(tmp_path / "d"))
        store.close()


def proto(manager, session, line):
    return handle_line(manager, session, line)


class TestLineProtocol:
    def test_full_transaction_walkthrough(self):
        mgr = TransactionManager(MapStore())
        session = {}
        reply = proto(mgr, session, "BEGIN")
        assert reply.startswith("OK ")
        _, txn_id, st = reply.split()
        assert int(st) >= 0
        assert proto(mgr, session, f"READ {txn_id} k") == "OK 0"
        assert proto(mgr, session, f"UPD {txn_id} k ASSIGN 5") == "OK"
        assert proto(mgr, session, f"READ {txn_id} k") == "OK 5"
        assert proto(mgr, session, f"UPD {txn_id} k INCR -2") == "OK"
        assert proto(mgr, session, f"READ {txn_id} k") == "OK 3"
        reply = proto(mgr, session, f"COMMIT {txn_id}")
        assert reply.startswith("OK ")
        ct = int(reply.split()[1])
        assert mgr.read_at("k", ct + 1) == 3
        # the txn is gone from the session once terminated
        assert proto(mgr, session, f"READ {txn_id} k").startswith("ERR")

    def test_abort_discards(self):
        mgr = TransactionManager(MapStore())
        session = {}
        _, txn_id, _ = proto(mgr, session, "BEGIN").split()
        proto(mgr, session, f"UPD {txn_id} k ASSIGN 9")
        assert proto(mgr, session, f"ABORT {txn_id}") == "OK"
        assert proto(mgr, session, f"ABORT {txn_id}").startswith("ERR")
        assert mgr.read_at("k", mgr.last_commit_ts + 1) == 0

    def test_conflict_answer_under_si(self):
        mgr = TransactionManager(MapStore(), isolation="si")
        s1, s2 = {}, {}
        _, t1, _ = proto(mgr, s1, "BEGIN").split()
        _, t2, _ = proto(mgr, s2, "BEGIN").split()
        assert proto(mgr, s1, f"UPD {t1} k INCR 1") == "OK"
        assert proto(mgr, s2, f"UPD {t2} k INCR 1") == "OK"
        assert proto(mgr, s1, f"COMMIT {t1}").startswith("OK ")
        assert proto(mgr, s2, f"COMMIT {t2}") == "CONFLICT"

    def test_malformed_lines_answer_err(self):
        mgr = TransactionManager(MapStore())
        session = {}
        cases = [
            "", "   ", "FROB", "BEGIN now", "READ t0", "READ nope k",
            "UPD nope k ASSIGN 1", "UPD t0 k REPLACE 1", "COMMIT",
            "COMMIT nope", "ABORT nope",
        ]
        for line in cases:
            assert proto(mgr, session, line).startswith("ERR"), line
        _, txn_id, _ = proto(mgr, session, "BEGIN").split()
        assert proto(mgr, session,
                     f"UPD {txn_id} k ASSIGN many").startswith("ERR")
        # the session survives all of that
        assert proto(mgr, session, f"UPD {txn_id} k ASSIGN 1") == "OK"
        assert proto(mgr, session, f"COMMIT {txn_id}").startswith("OK ")

    def test_case_insensitive_verbs(self):
        mgr = TransactionManager(MapStore())
        session = {}
        assert proto(mgr, session, "begin").startswith("OK ")

    def test_served_decisions_match_embedded(self):
        served = TransactionManager(MapStore(), isolation="si")
        embedded = TransactionManager(MapStore(), isolation="si")
        session = {}
        script = [("a", 3), ("b", 4), ("a", 5)]

        for key, val in script:
            _, tid, _ = proto(served, session, "BEGIN").split()
            assert proto(served, session, f"UPD {tid} {key} ASSIGN {val}") == "OK"
            assert proto(served, session, f"COMMIT {tid}").startswith("OK ")
            t = embedded.begin_txn()
            t.assign(key, val)
            assert t.commit().committed
        for key in ("a", "b"):
            assert (served.read_at(key, served.last_commit_ts + 1)
                    == embedded.read_at(key, embedded.last_commit_ts + 1))


class TestServerSocket:
    @pytest.fixture
    def server(self):
        manager = TransactionManager(MapStore())
        srv = LineProtocolServer(("127.0.0.1", 0), manager)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv
        srv.shutdown()
        srv.server_close()

    def _connect(self, server):
        sock = socket.create_connection(server.server_address, timeout=5)
        return sock, sock.makefile("rwb")

    def _ask(self, f, line):
        f.write(line.encode() + b"\n")
        f.flush()
        return f.readline().decode().rstrip("\n")

    def test_two_clients_share_committed_state(self, server):
        sock1, f1 = self._connect(server)
        _, t1, _ = self._ask(f1, "BEGIN").split()
        assert self._ask(f1, f"UPD {t1} counter INCR 41") == "OK"
        assert self._ask(f1, f"COMMIT {t1}").startswith("OK ")

        sock2, f2 = self._connect(server)
        _, t2, _ = self._ask(f2, "BEGIN").split()
        assert self._ask(f2, f"READ {t2} counter") == "OK 41"
        assert self._ask(f2, f"ABORT {t2}") == "OK"
        for s in (sock1, sock2):
            s.close()

    def test_disconnect_aborts_open_txn(self, server):
        sock, f = self._connect(server)
        _, tid, _ = self._ask(f, "BEGIN").split()
        assert self._ask(f, f"UPD {tid} k ASSIGN 7") == "OK"
        f.close()  # the file object holds its own fd; close both for EOF
        sock.close()
        manager = server.manager
        deadline = time.time() + 5
        while time.time() < deadline:
            try:
                manager.coordinator(tid)
            except TransactionError:
                break  # handler's cleanup aborted it
            time.sleep(0.01)
        else:
            pytest.fail("dangling txn survived disconnect")
        assert manager.read_at("k", manager.last_commit_ts + 1) == 0


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["bench", "--store", "map", "--seconds", "1"])
        assert args.command == "bench" and args.store == "map"
        args = parser.parse_args(["serve", "--addr", "0.0.0.0:7007",
                                  "--dir", "/tmp/x"])
        assert args.command == "serve"
        args = parser.parse_args(["verify", "--seeds", "3"])
        assert args.seeds == 3
        args = parser.parse_args(["recover", "--dir", "/tmp/x"])
        assert args.command == "recover"

    @pytest.mark.parametrize("argv", [
        [],
        ["bench", "--store", "lsm"],
        ["bench", "--workload", "hotspot"],
        ["serve", "--dir", "/tmp/x"],
        ["recover"],
        ["frobnicate"],
    ])
    def test_bad_usage_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_bench_command_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "r.csv")
        rc = main(["bench", "--store", "map", "--threads", "1",
                   "--seconds", "0.1", "--out", out])
        assert rc == 0
        assert "throughput" in capsys.readouterr().out
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(CSV_COLUMNS) and len(rows) == 2

    def test_recover_command_reports_layout(self, tmp_path, capsys):
        d = str(tmp_path / "db")
        engine = LevelledStore.create(d, EngineConfig())
        engine.close()
        size = os.path.getsize(os.path.join(d, "MANIFEST"))
        assert main(["recover", "--dir", d]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out and "live" in out
        # a fresh engine's one log took fid 0, and the reopen changed no file
        assert f"  MANIFEST  {size} B  next fid 1\n" in out
        assert os.path.getsize(os.path.join(d, "MANIFEST")) == size

    def test_recover_command_reports_checkpoint_sizes(self, tmp_path, capsys):
        d = str(tmp_path / "db")
        engine = LevelledStore.create(d, EngineConfig(live_capacity=1, wmp_rotate_effects=2))
        for i in range(6):
            txn = TransactionDescriptor(f"t{i}", st=i)
            engine.do_begin(txn)
            for key in (f"a{i}", f"b{i}"):
                txn.effect_buffer[key] = Effect.incr(1)
                engine.do_update(txn, key, Effect.incr(1))
            txn.ct = i  # at st i: each commit's pass moves the horizon to ct + 1
            engine.do_commit(txn)
        engine.close()
        assert main(["recover", "--dir", d]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines() if line.startswith("  L")]
        entries_seen = 0
        levels = {r[0] for r in rows if r[0] != "live"}
        assert "L1" in levels
        for level in levels - {"L0"}:  # one verdict line per level >= 1
            assert [r for r in rows if r[0] == level and r[1] == "disjoint"] == [
                [level, "disjoint"]]
        for level in levels:
            files = [r for r in rows if r[0] == level and r[1] not in ("total", "disjoint")]
            sizes = [os.path.getsize(os.path.join(d, r[1])) for r in files]
            counts = [int(r[r.index("entries") - 1]) for r in files]
            assert [int(r[r.index("B") - 1]) for r in files] == sizes
            total = next(r for r in rows if r[0] == level and r[1] == "total")
            assert total[2:] == [str(len(files)), "checkpoints", str(sum(counts)),
                                 "entries", str(sum(sizes)), "B"]
            entries_seen += sum(counts)
        assert entries_seen == 12  # twelve distinct keys, each in one checkpoint
        assert first_overlap([("x", ("a", "c")), ("y", ("d", "f"))]) is None
        assert first_overlap([("x", ("a", "c")), ("y", ("c", "f")), ("z", ("g", "h"))]) == (
            "x", "y")

    def test_recover_command_fails_cleanly(self, tmp_path, capsys):
        assert main(["recover", "--dir", str(tmp_path / "empty")]) == 1
        assert "recovery failed" in capsys.readouterr().err

    def test_verify_seed_clean(self, tmp_path):
        assert verify_seed(0, str(tmp_path)) == []

    def test_verify_command(self, capsys):
        assert main(["verify", "--seeds", "1"]) == 0
        assert "1 seeds ok" in capsys.readouterr().out
