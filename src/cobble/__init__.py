"""Transactional integer key-value store built on a composable effect
algebra: buffered writes commit atomically at a leased timestamp, reads run
against immutable snapshots, and persistence layers from a write-ahead
journal up to a levelled checkpoint engine all consolidate history through
the same few algebraic rules.
"""

from .effects import Effect, IDENTITY, apply, collapse, evaluate, wrap_i64
from .timestamps import TimestampError, TimestampGenerator
from .store import (
    IntegrityError,
    StoreError,
    TransactionDescriptor,
    TransactionError,
    Window,
    WindowError,
)
from .memory import JournalStore, MapStore
from .persistent import PersistentJournal
from .composition import Checkpoint, WALMemtablePair
from .engine import (
    EngineConfig,
    LevelledStore,
    StaleSnapshotError,
    open_engine,
    recover_engine,
)
from .transactions import CommitResult, TransactionCoordinator, TransactionManager
from . import oracle

__version__ = "0.1.0"

__all__ = [
    "Effect", "IDENTITY", "apply", "collapse", "evaluate", "wrap_i64",
    "TimestampError", "TimestampGenerator",
    "IntegrityError", "StoreError", "TransactionDescriptor",
    "TransactionError", "Window", "WindowError",
    "JournalStore", "MapStore", "PersistentJournal",
    "Checkpoint", "WALMemtablePair",
    "EngineConfig", "LevelledStore", "StaleSnapshotError",
    "open_engine", "recover_engine",
    "CommitResult", "TransactionCoordinator", "TransactionManager",
    "oracle",
]
