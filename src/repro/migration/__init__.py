"""Live VM migration: iterative pre-copy, multithreaded seeding."""

from .chunks import per_thread_dirty_pages
from .engine import (
    MigrationConfig,
    MigrationEngine,
    MigrationMode,
    state_payload_bytes,
)
from .precopy import PrecopyResult, iterative_precopy
from .stats import IterationRecord, MigrationStats
from .transfer import split_evenly, timed_bulk_copy, timed_page_send

__all__ = [
    "IterationRecord",
    "MigrationConfig",
    "MigrationEngine",
    "MigrationMode",
    "MigrationStats",
    "PrecopyResult",
    "iterative_precopy",
    "per_thread_dirty_pages",
    "split_evenly",
    "state_payload_bytes",
    "timed_bulk_copy",
    "timed_page_send",
]
