"""Span tracing of the engine's layers, from outside the program.

A traced run replaces the public calls of each layer with a wrapper that
records one span per call: its name, start, end, parent span and the
request (transaction or `read_at`) it belongs to. Each wrapper is installed
where the caller looks the name up: a method on its class, a function on the
module that calls it. Spans stay in per-thread arrays in memory and are
written out once the run ends. Nothing in the program is edited; `remove()`
puts every original back.

`effects` is not wrapped: it is pure functions called inside every other
layer, and a wrapper would cost more than the call. `server` is not driven.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import os
import threading
import time
from array import array


class _Buffer:
    """One thread's spans, as parallel arrays indexed by span number."""

    __slots__ = ("thread", "name", "parent", "request", "start", "end",
                 "stack", "req", "counts")

    def __init__(self, thread: int):
        self.thread = thread
        self.name = array("i")
        self.parent = array("i")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.req = -1
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._names: dict[str, int] = {}
        self._requests = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        return self._names.setdefault(name, len(self._names))

    def _timed(self, fn, name: str, new_request: bool = False):
        nid = self._name_id(name)
        buffer = self._buffer
        requests = self._requests
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = buffer()
            if new_request:
                buf.req = next(requests)
            stack = buf.stack
            idx = len(buf.start)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.request.append(buf.req)
            buf.end.append(0)
            stack.append(idx)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                stack.pop()

        return wrapper

    def _closed_span(self, name: str, start: int, end: int, parent: int) -> None:
        """Record an already finished interval as a child of `parent`."""
        buf = self._buffer()
        buf.name.append(self._name_id(name))
        buf.parent.append(parent)
        buf.request.append(buf.req)
        buf.start.append(start)
        buf.end.append(end)

    def count(self, name: str, amount: int) -> None:
        counts = self._buffer().counts
        counts[name] = counts.get(name, 0) + amount

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls, attr: str, name: str, new_request: bool = False) -> None:
        raw = getattr(cls, attr)  # the inherited function when cls does not define it
        static = cls.__dict__.get(attr)
        if isinstance(static, classmethod):
            self._patch(cls, attr, classmethod(self._timed(static.__func__, name)))
        else:
            self._patch(cls, attr, self._timed(raw, name, new_request))

    def wrap_function(self, module, attr: str, name: str) -> None:
        self._patch(module, attr, self._timed(getattr(module, attr), name))

    def install(self) -> None:
        """Wrap the public call of every layer the per-layer metrics name."""
        from cobble import codec, composition, engine, memory, persistent
        from cobble import timestamps, transactions

        tm = transactions.TransactionManager
        tc = transactions.TransactionCoordinator
        self.wrap_method(tm, "begin_txn", "transactions.begin", new_request=True)
        self.wrap_method(tm, "read_at", "transactions.read_at", new_request=True)
        self.wrap_method(tc, "commit", "transactions.commit")
        self.wrap_method(timestamps.TimestampGenerator, "end_commit_notify",
                         "timestamps.notify")

        ls = engine.LevelledStore
        self.wrap_method(ls, "lookup", "engine.lookup")
        self.wrap_method(ls, "do_begin", "engine.begin")
        self.wrap_method(ls, "do_commit", "engine.commit")
        self._wrap_commit_wait(ls)

        ck = composition.Checkpoint
        wmp = composition.WALMemtablePair
        self.wrap_method(ck, "covers_key", "composition.covers_key")
        self.wrap_method(ck, "lookup", "composition.ckpt_lookup")
        self.wrap_method(ck, "persist", "composition.ckpt_persist")
        self._count_ckpt_bytes(ck)
        self.wrap_method(ck, "load", "composition.ckpt_load")
        self.wrap_method(wmp, "lookup", "composition.wmp_lookup")
        self.wrap_method(wmp, "do_update", "composition.wmp_update")
        self.wrap_method(wmp, "do_commit", "composition.wmp_commit")
        self.wrap_function(engine, "make_checkpoint", "composition.make_checkpoint")
        self.wrap_function(engine, "rebuild_wmp", "composition.rebuild_wmp")

        self.wrap_method(memory.MapStore, "lookup", "memory.map_lookup")
        self.wrap_method(memory.MapStore, "do_commit", "memory.map_commit")

        pj = persistent.PersistentJournal
        self.wrap_method(pj, "do_update", "persistent.append")
        self.wrap_method(pj, "do_commit", "persistent.commit")
        self.wrap_method(pj, "recover", "persistent.recover")

        self.wrap_function(codec, "encode_record", "codec.encode")
        self.wrap_function(codec, "scan_records", "codec.scan")
        self.wrap_function(codec, "write_map_file", "codec.write_map_file")
        self.wrap_function(codec, "read_map_file", "codec.read_map_file")

        self.wrap_function(os, "fsync", "os.fsync")

    def _wrap_commit_wait(self, store_cls) -> None:
        """`transactions.commit_wait`: from `commit()` entry to `do_commit`
        entry, the wait for the commit mutex plus the ct lease."""
        inner = store_cls.do_commit
        commit_id = self._name_id("transactions.commit")
        buffer = self._buffer
        closed_span = self._closed_span
        clock = time.perf_counter_ns

        @functools.wraps(inner)
        def do_commit(store, txn):
            now = clock()
            buf = buffer()
            if buf.stack and buf.name[buf.stack[-1]] == commit_id:
                parent = buf.stack[-1]
                closed_span("transactions.commit_wait", buf.start[parent], now, parent)
            return inner(store, txn)

        self._patch(store_cls, "do_commit", do_commit)

    def _count_ckpt_bytes(self, ck_cls) -> None:
        inner = ck_cls.persist
        count = self.count

        @functools.wraps(inner)
        def persist(ck, path, *args, **kwargs):
            inner(ck, path, *args, **kwargs)
            count("composition.ckpt_bytes", os.path.getsize(path))

        self._patch(ck_cls, "persist", persist)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading the spans back -----------------------------------------------

    def mark(self) -> dict:
        """Span and counter position of every thread, to delimit a phase."""
        return {id(b): (len(b.start), dict(b.counts)) for b in self._buffers}

    def summarize(self, phases: list[tuple[dict, dict]]) -> tuple[dict, dict]:
        """Per span name: (calls, inclusive ns, self ns), and counter deltas,
        over the spans that began between each (start, end) mark pair.

        Self time is a span's duration minus the time its child spans cover.
        """
        names = {v: k for k, v in self._names.items()}
        stats: dict[str, list[int]] = {}
        counts: dict[str, int] = {}
        for a, b in phases:
            for buf in self._buffers:
                lo, c0 = a.get(id(buf), (0, {}))
                hi, c1 = b.get(id(buf), (lo, c0))
                for k, v in c1.items():
                    counts[k] = counts.get(k, 0) + v - c0.get(k, 0)
                child = [0] * (hi - lo)
                for i in range(lo, hi):
                    p = buf.parent[i]
                    if p >= lo:
                        child[p - lo] += buf.end[i] - buf.start[i]
                for i in range(lo, hi):
                    dur = buf.end[i] - buf.start[i]
                    row = stats.setdefault(names[buf.name[i]], [0, 0, 0])
                    row[0] += 1
                    row[1] += dur
                    row[2] += dur - child[i - lo]
        return {k: tuple(v) for k, v in stats.items()}, counts

    def dump(self, path: str) -> int:
        """Write every span as tab-separated text, gzip-compressed."""
        names = {v: k for k, v in self._names.items()}
        n = 0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("thread\tspan\tname\trequest\tparent\tstart_ns\tend_ns\n")
            for buf in self._buffers:
                for i in range(len(buf.start)):
                    f.write(f"{buf.thread}\t{i}\t{names[buf.name[i]]}\t{buf.request[i]}\t"
                            f"{buf.parent[i]}\t{buf.start[i]}\t{buf.end[i]}\n")
                n += len(buf.start)
        return n


def layer_metrics(tracer: Tracer, phases, reopens, *, committed: int, rate: float,
                  probes, stats, levels, written, manifest_bytes: int) -> dict:
    """The per-layer metrics of a traced run.

    `_us` metrics are the mean inclusive time per call over the measured
    phases; `_s` metrics are totals over the phases, or per reopen for the
    recovery calls. Counts come from the engine's own `probes` and `stats`
    (their growth over the phases), its `layout()` after the last phase, and
    /proc/self/io (`written`); `rate` is the median phase's txn/s.
    """
    run, counts = tracer.summarize(phases)
    rec, _ = tracer.summarize(reopens)
    n_reopen = max(1, len(reopens))
    lookups = run.get("engine.lookup", (0, 0, 0))[0]

    def calls(name):
        return run.get(name, (0, 0, 0))[0]

    def mean_us(name):
        c, total, _ = run.get(name, (0, 0, 0))
        return total / c / 1e3 if c else 0.0

    def total_s(name, table=run, per=1):
        return table.get(name, (0, 0, 0))[1] / 1e9 / per

    def per_lookup(x):
        return x / lookups if lookups else 0.0

    def per_txn(x):
        return x / committed if committed else 0.0

    dp = probes
    m = {
        "transactions.begin_us": (mean_us("transactions.begin"), "us"),
        "transactions.commit_wait_us": (mean_us("transactions.commit_wait"), "us"),
        "timestamps.notify_us": (mean_us("timestamps.notify"), "us"),
        "engine.lookup_us": (mean_us("engine.lookup"), "us"),
        "engine.probes_per_lookup": (per_lookup(sum(dp.values())), "probes/lookup"),
        "engine.probes_live_per_lookup": (per_lookup(dp.get(-1, 0)), "probes/lookup"),
        "engine.probes_l0_per_lookup": (per_lookup(dp.get(0, 0)), "probes/lookup"),
        "engine.probes_l1plus_per_lookup": (
            per_lookup(sum(v for level, v in dp.items() if level >= 1)), "probes/lookup"),
        "engine.begin_us": (mean_us("engine.begin"), "us"),
        "engine.commit_self_s": (total_s("engine.commit") - total_s("composition.wmp_commit"), "s"),
        "engine.rotations": (stats["rotations"], "count"),
        "engine.live_checkpoints": (stats["live_checkpoints"], "count"),
        "engine.level_merges": (stats["level_merges"], "count"),
        "engine.checkpoints_l1plus": (sum(len(row) for row in levels[1:]), "count"),
        "composition.covers_key_us": (mean_us("composition.covers_key"), "us"),
        "composition.covers_key_per_lookup": (
            per_lookup(calls("composition.covers_key")), "calls/lookup"),
        "composition.ckpt_lookup_us": (mean_us("composition.ckpt_lookup"), "us"),
        "composition.wmp_lookup_us": (mean_us("composition.wmp_lookup"), "us"),
        "composition.wmp_update_us": (mean_us("composition.wmp_update"), "us"),
        "composition.wmp_commit_us": (mean_us("composition.wmp_commit"), "us"),
        "composition.make_checkpoint_s": (total_s("composition.make_checkpoint"), "s"),
        "composition.ckpt_persist_s": (total_s("composition.ckpt_persist"), "s"),
        "composition.ckpt_bytes": (counts.get("composition.ckpt_bytes", 0), "B"),
        "composition.ckpt_load_s": (total_s("composition.ckpt_load", rec, n_reopen), "s"),
        "composition.rebuild_wmp_s": (total_s("composition.rebuild_wmp", rec, n_reopen), "s"),
        "memory.map_lookup_us": (mean_us("memory.map_lookup"), "us"),
        "memory.map_commit_us": (mean_us("memory.map_commit"), "us"),
        "persistent.append_us": (mean_us("persistent.append"), "us"),
        "persistent.commit_us": (mean_us("persistent.commit"), "us"),
        "persistent.recover_s": (total_s("persistent.recover", rec, n_reopen), "s"),
        "persistent.manifest_bytes": (manifest_bytes, "B"),
        "codec.encode_us": (mean_us("codec.encode"), "us"),
        "codec.scan_s": (total_s("codec.scan", rec, n_reopen), "s"),
        "codec.write_map_file_s": (total_s("codec.write_map_file"), "s"),
        "codec.read_map_file_s": (total_s("codec.read_map_file", rec, n_reopen), "s"),
        "os.fsyncs_per_txn": (per_txn(calls("os.fsync")), "calls/txn"),
        "os.fsync_us": (mean_us("os.fsync"), "us"),
        "os.write_calls_per_txn": (per_txn(written["syscw"]), "calls/txn"),
        "os.write_bytes_per_txn": (per_txn(written["wchar"]), "B/txn"),
        "trace.txn_per_s": (rate, "1/s"),
    }
    return m
