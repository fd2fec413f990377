"""Reference valuation and trace tooling for checking stores against a
model that shares no consolidation code with them.

A trace is a flat list of steps over named transactions. The valuation
here recomputes key values from first principles: fold each committed
transaction's updates into one per-key effect, order versions by commit
timestamp, split them into concurrency groups, resolve each group
(last assignment wins, concurrent increments add up), and fold the groups.
Any store that disagrees with this at any snapshot is wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .effects import Effect, apply
from .store import TransactionDescriptor
from .timestamps import TimestampGenerator

_MOD = 1 << 64
_SIGN = 1 << 63


def _wrap(x: int) -> int:
    return (x + _SIGN) % _MOD - _SIGN


@dataclass(frozen=True)
class Step:
    op: str  # begin | update | commit | abort
    txn_id: str
    st: int | None = None
    ct: int | None = None
    key: str | None = None
    kind: str | None = None  # assign | incr
    amount: int | None = None


@dataclass
class Trace:
    steps: list[Step] = field(default_factory=list)

    def committed(self) -> dict[str, tuple[int, int, list[tuple[str, str, int]]]]:
        """txn_id -> (st, ct, updates in order). Aborted txns drop out."""
        open_txns: dict[str, tuple[int, list]] = {}
        out: dict[str, tuple[int, int, list]] = {}
        for s in self.steps:
            if s.op == "begin":
                open_txns[s.txn_id] = (s.st, [])
            elif s.op == "update":
                open_txns[s.txn_id][1].append((s.key, s.kind, s.amount))
            elif s.op == "commit":
                st, ups = open_txns.pop(s.txn_id)
                out[s.txn_id] = (st, s.ct, ups)
            elif s.op == "abort":
                open_txns.pop(s.txn_id)
        return out

    def keys(self) -> list[str]:
        return sorted({s.key for s in self.steps if s.key is not None})

    def max_ct(self) -> int:
        return max((s.ct for s in self.steps if s.ct is not None), default=-1)


def valuation_effect(trace: Trace, key: str,
                     read_st: int) -> tuple[int | None, int] | None:
    """Consolidated (base, delta) of key at snapshot read_st; None if no
    committed transaction visible at read_st wrote the key."""
    versions = []
    for st, ct, updates in trace.committed().values():
        if ct >= read_st:
            continue
        base = None
        delta = 0
        touched = False
        for k, kind, amount in updates:
            if k != key:
                continue
            touched = True
            if kind == "assign":
                base, delta = _wrap(amount), 0
            else:
                delta = _wrap(delta + amount)
        if touched:
            versions.append((ct, st, base, delta))
    versions.sort()

    groups: list[list[tuple[int, int, int | None, int]]] = []
    prev_ct = None
    for v in versions:
        # a version that began after the previous one committed starts a new
        # concurrency group; otherwise the two overlapped
        if prev_ct is None or v[1] >= prev_ct:
            groups.append([v])
        else:
            groups[-1].append(v)
        prev_ct = v[0]

    acc: tuple[int | None, int] | None = None
    for group in groups:
        winner = None  # base-bearing member with the largest ct
        extra = 0
        for ct, _st, base, delta in group:
            if base is None:
                extra = _wrap(extra + delta)
            elif winner is None or ct > winner[0]:
                winner = (ct, base, delta)
        if winner is None:
            collapsed: tuple[int | None, int] = (None, extra)
        else:
            collapsed = (winner[1], _wrap(winner[2] + extra))
        if acc is None:
            acc = collapsed
        elif collapsed[0] is not None:
            acc = collapsed
        else:
            acc = (acc[0], _wrap(acc[1] + collapsed[1]))
    return acc


def valuation(trace: Trace, key: str, read_st: int) -> int:
    """Value of key as seen by a snapshot at read_st. Absent keys read 0."""
    eff = valuation_effect(trace, key, read_st)
    if eff is None:
        return 0
    base, delta = eff
    return _wrap(delta if base is None else base + delta)


def validate_trace(trace: Trace) -> None:
    """Raise ValueError if the trace violates timestamp or lifecycle rules."""
    open_sts: dict[str, int] = {}
    done: set[str] = set()
    seen_cts: set[int] = set()
    last_ct = None
    last_st = None
    max_st_so_far = None
    for i, s in enumerate(trace.steps):
        if s.op == "begin":
            if s.txn_id in open_sts or s.txn_id in done:
                raise ValueError(f"step {i}: duplicate begin {s.txn_id}")
            if s.st is None or (last_st is not None and s.st < last_st):
                raise ValueError(f"step {i}: snapshot ts went backwards")
            open_sts[s.txn_id] = s.st
            last_st = s.st
            max_st_so_far = s.st if max_st_so_far is None else max(max_st_so_far, s.st)
        elif s.op == "update":
            if s.txn_id not in open_sts:
                raise ValueError(f"step {i}: update outside open txn {s.txn_id}")
            if s.kind not in ("assign", "incr") or s.amount is None:
                raise ValueError(f"step {i}: malformed update")
        elif s.op == "commit":
            if s.txn_id not in open_sts:
                raise ValueError(f"step {i}: commit of non-open txn {s.txn_id}")
            if s.ct is None or s.ct in seen_cts:
                raise ValueError(f"step {i}: missing or duplicate ct")
            if s.ct < open_sts[s.txn_id]:
                raise ValueError(f"step {i}: ct below own st")
            if max_st_so_far is not None and s.ct < max_st_so_far:
                raise ValueError(f"step {i}: ct below an already issued snapshot")
            if last_ct is not None and s.ct <= last_ct:
                raise ValueError(f"step {i}: commit ts not increasing")
            last_ct = s.ct
            seen_cts.add(s.ct)
            done.add(s.txn_id)
            del open_sts[s.txn_id]
        elif s.op == "abort":
            if s.txn_id not in open_sts:
                raise ValueError(f"step {i}: abort of non-open txn {s.txn_id}")
            done.add(s.txn_id)
            del open_sts[s.txn_id]
        else:
            raise ValueError(f"step {i}: unknown op {s.op!r}")
    if open_sts:
        raise ValueError(f"trace left transactions open: {sorted(open_sts)}")


def generate_trace(seed: int = 0, keys: list[str] | None = None,
                   txn_count: int = 100, max_concurrency: int = 4,
                   incr_ratio: float = 0.6, abort_ratio: float = 0.1,
                   max_updates: int = 4, eager_notify: bool = False) -> Trace:
    """Random trace driven through a real timestamp generator.

    Commit notifications are delivered late and out of order on purpose, so
    snapshots lag behind commits and concurrency groups actually form.
    Occasional full drains let snapshots catch up again. eager_notify turns
    that off: every commit is acknowledged at once, so snapshots never lag
    and (with max_concurrency=1) every begin covers all prior commits.
    """
    rng = random.Random(seed)
    keys = keys or [f"k{i}" for i in range(8)]
    gen = TimestampGenerator()
    steps: list[Step] = []
    open_txns: list[dict] = []
    pending: list[int] = []
    begun = 0
    serial = 0
    while begun < txn_count or open_txns:
        can_begin = begun < txn_count and len(open_txns) < max_concurrency
        if can_begin and (not open_txns or rng.random() < 0.5):
            txn_id = f"g{serial}"
            serial += 1
            begun += 1
            steps.append(Step("begin", txn_id, st=gen.peek_snapshot()))
            open_txns.append({"id": txn_id, "left": rng.randint(0, max_updates)})
            continue
        t = rng.choice(open_txns)
        if t["left"] > 0:
            t["left"] -= 1
            key = rng.choice(keys)
            if rng.random() < incr_ratio:
                steps.append(Step("update", t["id"], key=key, kind="incr",
                                  amount=rng.randint(-10, 10)))
            else:
                steps.append(Step("update", t["id"], key=key, kind="assign",
                                  amount=rng.randint(-100, 100)))
            continue
        open_txns.remove(t)
        if rng.random() < abort_ratio:
            steps.append(Step("abort", t["id"]))
            continue
        ct = gen.next()
        steps.append(Step("commit", t["id"], ct=ct))
        if eager_notify:
            gen.end_commit_notify(ct)
            continue
        pending.append(ct)
        if rng.random() < 0.35:
            while pending and rng.random() < 0.7:
                gen.end_commit_notify(pending.pop(rng.randrange(len(pending))))
        if rng.random() < 0.1:
            for c in pending:
                gen.end_commit_notify(c)
            pending.clear()
    for c in pending:
        gen.end_commit_notify(c)
    return Trace(steps)


def replay(store, trace: Trace, quiesce=None):
    """Apply a trace to a store verbatim, timestamps forced from the trace.

    quiesce(store, committed_so_far, strong), when given, runs at every point
    with no transaction open. strong is True when additionally every later
    snapshot in the trace covers all commits so far: only there may a window
    be sealed without splitting a concurrency group, so engine tests hook
    forced compaction on strong points.
    """
    # next_begin_st[i]: st of the first begin at step index >= i
    next_begin_st: list[int | None] = [None] * (len(trace.steps) + 1)
    for i in range(len(trace.steps) - 1, -1, -1):
        s = trace.steps[i]
        next_begin_st[i] = s.st if s.op == "begin" else next_begin_st[i + 1]

    open_txns: dict[str, TransactionDescriptor] = {}
    committed = 0
    last_ct = -1
    for i, s in enumerate(trace.steps):
        if s.op == "begin":
            txn = TransactionDescriptor(s.txn_id, st=s.st)
            open_txns[s.txn_id] = txn
            store.do_begin(txn)
        elif s.op == "update":
            txn = open_txns[s.txn_id]
            eff = Effect.assign(s.amount) if s.kind == "assign" else Effect.incr(s.amount)
            prior = txn.effect_buffer.get(s.key)
            txn.effect_buffer[s.key] = eff if prior is None else apply(prior, eff)
            store.do_update(txn, s.key, eff)
        elif s.op == "commit":
            txn = open_txns.pop(s.txn_id)
            txn.ct = s.ct
            store.do_commit(txn)
            committed += 1
            last_ct = max(last_ct, s.ct)
        elif s.op == "abort":
            store.do_abort(open_txns.pop(s.txn_id))
        if quiesce is not None and not open_txns:
            upcoming = next_begin_st[i + 1]
            strong = upcoming is None or upcoming >= last_ct
            quiesce(store, committed, strong)
    return store


def dump_trace(trace: Trace) -> str:
    """Text form, one step per line. Keys must not contain whitespace."""
    lines = []
    for s in trace.steps:
        if s.op == "begin":
            lines.append(f"BEGIN {s.txn_id} {s.st}")
        elif s.op == "update":
            kind = "ASSIGN" if s.kind == "assign" else "INCR"
            lines.append(f"UPD {s.txn_id} {s.key} {kind} {s.amount}")
        elif s.op == "commit":
            lines.append(f"COMMIT {s.txn_id} {s.ct}")
        else:
            lines.append(f"ABORT {s.txn_id}")
    return "\n".join(lines) + "\n"


def load_trace(text: str) -> Trace:
    steps: list[Step] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            op = parts[0]
            if op == "BEGIN":
                steps.append(Step("begin", parts[1], st=int(parts[2])))
            elif op == "UPD":
                kind = {"ASSIGN": "assign", "INCR": "incr"}[parts[3]]
                steps.append(Step("update", parts[1], key=parts[2], kind=kind,
                                  amount=int(parts[4])))
            elif op == "COMMIT":
                steps.append(Step("commit", parts[1], ct=int(parts[2])))
            elif op == "ABORT":
                steps.append(Step("abort", parts[1]))
            else:
                raise KeyError(op)
        except (IndexError, KeyError, ValueError) as exc:
            raise ValueError(f"line {ln}: cannot parse {raw!r}") from exc
    return Trace(steps)
