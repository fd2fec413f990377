"""Reopen a closed engine directory in a fresh interpreter and read keys.

    echo '["user000001", ...]' | python3 perfbench/reopen.py <directory>

Opens `<directory>` with `open_engine` (default `EngineConfig`), raises the
transaction manager's floor to the recovered one, reads each key of the JSON
list on standard input at the latest snapshot, and prints one JSON object:
`floor`, `snapshot`, `values` (a read that raised gives its error as a
string) and `maxrss_kb`, this process's peak resident set size. The
benchmark runs it to check recovery and to measure the recovered engine's
memory apart from its own.
"""

from __future__ import annotations

import json
import os
import resource
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from cobble import EngineConfig, StoreError, TransactionManager, open_engine  # noqa: E402


def main(directory: str) -> None:
    keys = json.load(sys.stdin)
    engine, floor = open_engine(directory, EngineConfig())
    try:
        mgr = TransactionManager(engine, isolation="tcc")
        mgr.recover_floor(floor)
        snap = mgr.gen.peek_snapshot()
        values = []
        for key in keys:
            try:
                values.append(mgr.read_at(key, snap))
            except StoreError as exc:
                values.append(f"raised {exc!r}")
    finally:
        engine.close()
    print(json.dumps({"floor": floor, "snapshot": snap, "values": values,
                      "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))


if __name__ == "__main__":
    main(sys.argv[1])
