"""Command-line front end: bench, serve, verify, recover."""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from . import codec
from .bench import STORE_NAMES, run_store_bench, write_csv
from .engine import (MANIFEST_NAME, EngineConfig, LevelledStore, first_overlap, open_engine,
                     recover_engine)
from .memory import JournalStore, MapStore
from .oracle import generate_trace, replay, validate_trace, valuation_effect
from .persistent import PersistentJournal
from .server import serve
from .store import StoreError, WindowError
from .transactions import TransactionManager
from .workload import WORKLOAD_NAMES


def _effect_at(store, key: str, read_st: int):
    eff = store.lookup(key, read_st)
    return None if eff is None else (eff.base, eff.delta)


def _compare(store, trace, keys, read_sts, label: str,
             floor: int = 0) -> list[str]:
    problems = []
    for rs in read_sts:
        if rs < floor:
            continue
        for key in keys:
            want = valuation_effect(trace, key, rs)
            try:
                got = _effect_at(store, key, rs)
            except WindowError:
                problems.append(f"{label}: ({key!r}, {rs}) raised below horizon")
                continue
            if got != want:
                problems.append(f"{label}: ({key!r}, {rs}) = {got}, oracle says {want}")
    return problems


def verify_seed(seed: int, work_dir: str, keys_n: int = 8,
                txn_count: int = 120, max_concurrency: int = 6) -> list[str]:
    """Replay one random trace into every store variant and diff against the
    oracle at every covered snapshot. Returns mismatch descriptions."""
    keys = [f"k{i}" for i in range(keys_n)]
    trace = generate_trace(seed, keys=keys, txn_count=txn_count,
                           max_concurrency=max_concurrency)
    validate_trace(trace)
    read_sts = range(0, trace.max_ct() + 2)
    problems: list[str] = []

    problems += _compare(replay(JournalStore(), trace), trace, keys, read_sts,
                         f"seed {seed} journal")
    problems += _compare(replay(MapStore(), trace), trace, keys, read_sts,
                         f"seed {seed} map")

    jpath = os.path.join(work_dir, f"verify-{seed}.log")
    pj = replay(PersistentJournal(jpath), trace)
    pj.close()
    recovered = PersistentJournal.recover(jpath)
    problems += _compare(recovered, trace, keys, read_sts,
                         f"seed {seed} pjournal")
    recovered.close()
    os.remove(jpath)

    eng_dir = os.path.join(work_dir, f"verify-eng-{seed}")
    config = EngineConfig(live_capacity=2, wmp_rotate_effects=1 << 30,
                          level_capacities=(2, 3, 4, 1 << 30))
    engine = LevelledStore.create(eng_dir, config)
    last_compact = [0]

    def quiesce(store, committed, strong):
        if strong and committed - last_compact[0] >= 25:
            last_compact[0] = committed
            store.compact(force=True)

    replay(engine, trace, quiesce=quiesce)
    problems += _compare(engine, trace, keys, read_sts,
                         f"seed {seed} cobble", floor=engine.horizon)
    engine.close()
    engine2, highest = recover_engine(eng_dir, config)
    if highest < trace.max_ct():
        problems.append(
            f"seed {seed}: recovery floor {highest} below max ct {trace.max_ct()}")
    problems += _compare(engine2, trace, keys, read_sts,
                         f"seed {seed} cobble-recovered", floor=engine2.horizon)
    engine2.close()
    return problems


def _cmd_bench(args) -> int:
    data_dir = args.dir
    if data_dir is None and args.store in ("pjournal", "cobble"):
        data_dir = tempfile.mkdtemp(prefix="cobble-bench-")
    report = run_store_bench(args.store, args.workload, args.threads,
                             args.seconds, args.seed, args.isolation,
                             data_dir, args.keys)
    print(report.table())
    if args.out:
        write_csv([report], args.out)
        print(f"csv written to {args.out}")
    return 0


def _cmd_serve(args) -> int:
    host, _, port = args.addr.rpartition(":")
    if not host or not port.isdigit():
        print(f"bad --addr {args.addr!r}, expected HOST:PORT", file=sys.stderr)
        return 2
    engine, floor = open_engine(args.dir)
    manager = TransactionManager(engine, isolation=args.isolation)
    if floor is not None:
        manager.recover_floor(floor)
        print(f"recovered {args.dir}, resuming above ts {floor}")
    print(f"serving {args.dir} on {host}:{port} ({args.isolation})")
    try:
        serve((host, int(port)), manager)
    except KeyboardInterrupt:
        pass
    finally:
        engine.close()
    return 0


def _cmd_verify(args) -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="cobble-verify-") as work:
        for seed in range(args.seeds):
            problems = verify_seed(seed, work)
            if problems:
                failures += 1
                for p in problems[:10]:
                    print(f"FAIL {p}")
            elif args.verbose:
                print(f"seed {seed}: ok")
    if failures:
        print(f"verify: {failures} of {args.seeds} seeds failed")
        return 1
    print(f"verify: {args.seeds} seeds ok")
    return 0


def _cmd_recover(args) -> int:
    try:
        engine, highest = recover_engine(args.dir)
    except (StoreError, OSError) as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    layout = engine.layout()
    print(f"recovered {args.dir}: highest ts {highest}, "
          f"horizon {layout['horizon']}")
    with open(os.path.join(args.dir, MANIFEST_NAME), "rb") as f:
        manifest = f.read()
    print(f"  MANIFEST  {len(manifest)} B  next fid {codec.decode_layout(manifest)[1]}")
    for rel, (lo, hi) in layout["live"]:
        print(f"  live  {rel}  window [{lo}, {'open' if hi is None else hi})")
    for lvl, (row, counts) in enumerate(zip(layout["levels"], layout["entries"])):
        total_bytes = 0
        for (path, (lo, hi), key_range), n in zip(row, counts):
            size = os.path.getsize(os.path.join(args.dir, path))
            total_bytes += size
            kr = "" if key_range is None else f"  keys [{key_range[0]}..{key_range[1]}]"
            print(f"  L{lvl}    {path}  window [{lo}, {hi})  {n} entries  {size} B{kr}")
        if row:
            print(f"  L{lvl}    total  {len(row)} checkpoints  {sum(counts)} entries  "
                  f"{total_bytes} B")
        if lvl and row:
            pair = first_overlap([(path, kr) for path, _, kr in row])
            print(f"  L{lvl}    " + ("disjoint" if pair is None else f"overlap  {pair[0]}  {pair[1]}"))
    engine.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cobble",
        description="transactional key-value engine workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run an embedded benchmark")
    b.add_argument("--store", choices=STORE_NAMES, default="cobble")
    b.add_argument("--workload", choices=WORKLOAD_NAMES, default="txn")
    b.add_argument("--threads", type=int, default=4)
    b.add_argument("--seconds", type=float, default=10.0)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--isolation", choices=("tcc", "si"), default="tcc")
    b.add_argument("--keys", type=int, default=1000)
    b.add_argument("--dir", default=None, help="data directory for durable stores")
    b.add_argument("--out", default=None, help="write a CSV report here")
    b.set_defaults(fn=_cmd_bench)

    s = sub.add_parser("serve", help="serve the line protocol over TCP")
    s.add_argument("--addr", required=True, help="HOST:PORT")
    s.add_argument("--dir", required=True, help="engine data directory")
    s.add_argument("--isolation", choices=("tcc", "si"), default="tcc")
    s.set_defaults(fn=_cmd_serve)

    v = sub.add_parser("verify", help="oracle equivalence suite")
    v.add_argument("--seeds", type=int, default=20)
    v.add_argument("--verbose", action="store_true")
    v.set_defaults(fn=_cmd_verify)

    r = sub.add_parser("recover", help="recover an engine directory and report")
    r.add_argument("--dir", required=True)
    r.set_defaults(fn=_cmd_recover)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
