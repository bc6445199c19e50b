"""Content-addressed on-disk result cache and the sweep JSONL log.

Results are addressed purely by the trial spec's fingerprint:
``<cache_dir>/<fingerprint>.json``.  Re-running a sweep therefore only
executes trials whose spec (kind, params or seed) changed; everything
else is a cache hit.  Only successful trials are cached — failed,
crashed or timed-out trials re-run on the next sweep.

The store is deliberately forgiving: a corrupted or truncated cache
file is treated as a miss (and removed), never as a crash.  Writes go
through a temp file + ``os.replace`` so a killed process can't leave
a half-written entry behind.

``SweepLog`` appends one JSONL record per finished trial — status,
wall clock and metrics — giving the repo a machine-readable perf
trajectory across sweep invocations.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-results"


class ResultStore:
    """Content-addressed cache of trial results."""

    def __init__(self, root: str = DEFAULT_CACHE_DIR):
        self.root = root

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.root, f"{fingerprint}.json")

    def load(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The cached payload for ``fingerprint``, or None on a miss.

        A file that exists but does not parse, or that parses to
        something other than a completed trial payload, counts as a
        miss and is evicted so the slot heals on the next write.
        """
        path = self._path(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            self.evict(fingerprint)
            return None
        if not isinstance(payload, dict) or payload.get("status") != "ok":
            self.evict(fingerprint)
            return None
        return payload

    def save(self, fingerprint: str, payload: Dict[str, Any]) -> str:
        """Atomically persist ``payload`` under ``fingerprint``."""
        os.makedirs(self.root, exist_ok=True)
        path = self._path(fingerprint)
        scratch = f"{path}.tmp.{os.getpid()}"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")
        os.replace(scratch, path)
        return path

    def evict(self, fingerprint: str) -> None:
        try:
            os.remove(self._path(fingerprint))
        except OSError:
            pass

    def __contains__(self, fingerprint: str) -> bool:
        return self.load(fingerprint) is not None

    def __repr__(self) -> str:
        return f"<ResultStore root={self.root!r}>"


class SweepLog:
    """Append-only JSONL log of finished trials."""

    def __init__(self, path: str):
        self.path = path

    def append(self, record: Dict[str, Any]) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
