"""Content-addressed result store shared by the service and the farm.

A :class:`ResultStore` is the in-memory view of one JSONL record file: it
loads every completed record at construction, answers lookups by spec
content hash, and appends new records through the atomic
:class:`~repro.run.jsonl.JsonlSink` — so a service instance, a batch-runner
backfill worker, and any number of farm shards can all share one file (or a
merged copy of many shard files) without coordination.

With ``path=None`` the store is purely in-memory: useful for tests and for
throughput benchmarking without filesystem noise.
"""

from __future__ import annotations

import os
import threading

from repro.run.jsonl import JsonlSink, load_jsonl_records
from repro.run.plan import RunRecord

__all__ = ["ResultStore"]


class ResultStore:
    """JSONL-backed, content-hash-keyed store of completed run records."""

    def __init__(self, path: "str | os.PathLike | None" = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self._records: dict[str, dict] = (
            load_jsonl_records(self.path) if self.path else {}
        )
        self._sink = JsonlSink(self.path) if self.path else None
        self._lock = threading.Lock()

    # -- lookups -------------------------------------------------------

    def get(self, spec_hash: str) -> RunRecord | None:
        """The completed record for a content hash, marked ``cached``."""
        with self._lock:
            payload = self._records.get(spec_hash)
        if payload is None:
            return None
        return RunRecord.from_dict(payload, cached=True)

    def __contains__(self, spec_hash: str) -> bool:
        with self._lock:
            return spec_hash in self._records

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # -- writes --------------------------------------------------------

    def put(self, record: RunRecord) -> None:
        """Record one completed run (appended to the JSONL file, if any).

        The file append happens *outside* the lock: the sink's appends are
        single-``os.write`` atomic already, and keeping the lock to pure
        dict work means readers (``get``/``len``/``stats`` gauges — some on
        the service's event loop) never wait behind disk I/O.
        """
        payload = record.to_dict()
        with self._lock:
            self._records[record.spec_hash] = payload
            sink = self._sink
        if sink is not None:
            sink.append(payload)

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
