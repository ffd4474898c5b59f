"""The asyncio solve service: a long-lived front end over the result store.

:class:`SolveService` accepts :class:`~repro.run.plan.RunSpec`-shaped solve
requests and expectation-sweep requests, and answers them with four layers
of work avoidance before anything executes:

1. **Store hits** — a spec whose content hash is already in the
   :class:`~repro.service.store.ResultStore` is answered immediately, no
   solver call (the JSONL file doubles as the farm's shared result store).
2. **In-flight dedup** — identical specs submitted while one is executing
   all await the *same* future: N concurrent identical requests cost one
   execution.
3. **Solve grouping** — pending specs that differ only in seed ride one
   worker dispatch (see :mod:`repro.service.coalesce`).
4. **Sweep coalescing** — pending expectation sweeps on one ansatz collapse
   into a single ``batched_expectations`` broadcast pass.

Execution runs on a bounded worker pool (``max_workers`` concurrent tasks
over a thread executor); every completed record lands in the store before
its future resolves, so a crash loses at most the in-flight work.  Requests
honour a per-request timeout (:class:`~repro.exceptions.ServiceTimeoutError`
— the execution itself is *not* cancelled, so a retry hits the store), and
:meth:`SolveService.stop` drains in-flight work for a graceful shutdown.

:func:`serve_tcp` exposes a running service over a newline-delimited-JSON
TCP protocol for out-of-process clients (see
:class:`~repro.service.client.TCPServiceClient` and
``python -m repro.service``).
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import (
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.qcircuit.transpile import transpile_cache_info
from repro.run.plan import RunRecord, RunSpec, execute_spec
from repro.serialization import json_sanitize
from repro.service.coalesce import (
    SpecCompiler,
    SweepRequest,
    execute_group,
    execute_sweep,
    solve_group_key,
)
from repro.service.store import ResultStore
from repro.solvers.structure import structure_cache_info

__all__ = [
    "FRAME_LIMIT_BYTES",
    "ServiceStats",
    "SolveService",
    "serve_tcp",
    "surface_task_exception",
]

# Longest line either end of the TCP protocol reads: the server's requests
# and the client's responses.  asyncio's default 64 KiB is below one
# penalty-QAOA K2 record (~192 KB) and one 4000x2 sweep request.
FRAME_LIMIT_BYTES = 64 * 1024 * 1024

# Most seed-compatible pending specs that ride one worker dispatch.
MAX_GROUP_SIZE = 16


def surface_task_exception(task: asyncio.Task) -> None:
    """Done-callback surfacing a background task's otherwise-dropped error.

    The service's worker tasks and the TCP layer's per-message tasks are
    fire-and-forget by design — nothing awaits them — so without this
    callback a crash would sit silent until the task is garbage-collected
    ("Task exception was never retrieved", long after the useful context is
    gone).  Retrieving the exception here and routing it through the loop's
    exception handler reports the failure immediately, while it is still
    attributable.
    """
    if task.cancelled():
        return
    error = task.exception()
    if error is None:
        return
    task.get_loop().call_exception_handler(
        {
            "message": f"background task {task.get_name()!r} failed",
            "exception": error,
            "task": task,
        }
    )


@dataclass
class ServiceStats:
    """Monotonic request counters, exposed via :meth:`SolveService.stats`."""

    requests: int = 0
    store_hits: int = 0
    deduped: int = 0
    executed: int = 0
    solves_coalesced: int = 0
    sweep_requests: int = 0
    sweep_batches: int = 0
    sweeps_coalesced: int = 0
    failures: int = 0
    timeouts: int = 0

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "store_hits": self.store_hits,
            "deduped": self.deduped,
            "executed": self.executed,
            "solves_coalesced": self.solves_coalesced,
            "sweep_requests": self.sweep_requests,
            "sweep_batches": self.sweep_batches,
            "sweeps_coalesced": self.sweeps_coalesced,
            "failures": self.failures,
            "timeouts": self.timeouts,
        }


def _consume_exception(future: asyncio.Future) -> None:
    """Mark a future's exception retrieved (awaiters may have timed out)."""
    if not future.cancelled():
        future.exception()


@dataclass
class _PendingSweeps:
    """Per-key sweep batch accumulating until its flush callback fires."""

    batch: list = field(default_factory=list)
    scheduled: bool = False


class SolveService:
    """Async solve front end with store answers, dedup and coalescing.

    Args:
        store: a :class:`~repro.service.store.ResultStore`, a JSONL path to
            back one, or ``None`` for a purely in-memory store.
        max_workers: bound on concurrently executing worker tasks (and the
            size of the underlying thread executor).
        request_timeout: default per-request timeout in seconds (``None``
            waits forever); individual calls may override it.
        execute_fn: the per-spec execution function — defaults to
            :func:`~repro.run.plan.execute_spec`; tests inject counting
            spies here.
    """

    def __init__(
        self,
        store: "ResultStore | str | os.PathLike | None" = None,
        *,
        max_workers: int = 4,
        request_timeout: "float | None" = None,
        execute_fn: "Callable[[RunSpec], RunRecord] | None" = None,
    ) -> None:
        if max_workers < 1:
            raise ServiceError("max_workers must be at least 1")
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.max_workers = max_workers
        self.request_timeout = request_timeout
        self._execute_fn = execute_fn if execute_fn is not None else execute_spec
        self._compiler = SpecCompiler()
        self._stats = ServiceStats()
        self._running = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._slots: asyncio.Semaphore | None = None
        self._tasks: set[asyncio.Task] = set()
        #: content hash -> the future every requester of that spec awaits
        self._inflight: dict[str, asyncio.Future] = {}
        #: group key -> accepted-but-not-dispatched (hash, spec) queue
        self._queued: "dict[str, OrderedDict[str, RunSpec]]" = {}
        self._pending_sweeps: dict[str, _PendingSweeps] = {}

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "SolveService":
        if self._running:
            raise ServiceError("service is already running")
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-solve"
        )
        self._slots = asyncio.Semaphore(self.max_workers)
        self._running = True
        return self

    async def stop(self, *, drain: bool = True) -> None:
        """Stop accepting requests; drain (or cancel) in-flight work.

        With ``drain=True`` every accepted request completes and lands in
        the store before the executor shuts down — the graceful path.
        """
        if not self._running:
            return
        self._running = False
        tasks = list(self._tasks)
        if not drain:
            for task in tasks:
                task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        # Whatever never reached a worker task fails closed.
        for pending in self._pending_sweeps.values():
            for _request, future in pending.batch:
                if not future.done():
                    future.set_exception(ServiceClosedError("service stopped"))
        self._pending_sweeps.clear()
        self._queued.clear()
        for future in list(self._inflight.values()):
            if not future.done():
                future.set_exception(ServiceClosedError("service stopped"))
        self._inflight.clear()
        if self._executor is not None:
            executor = self._executor
            self._executor = None
            # shutdown(wait=True) joins worker threads — a stop() racing a
            # still-running solve would otherwise freeze the whole loop, not
            # just this coroutine.  Hop the join off the loop and await it.
            await asyncio.to_thread(executor.shutdown, True)

    async def __aenter__(self) -> "SolveService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def _require_running(self) -> None:
        if not self._running:
            raise ServiceClosedError("service is not running (call start())")

    # -- observability -------------------------------------------------

    def stats(self) -> dict:
        """Current counters plus store/queue gauges.

        ``transpile_cache_hits`` / ``transpile_cache_misses`` are the
        process-wide counts of the transpile memo, and
        ``structure_cache_hits`` / ``_misses`` / ``_entries`` those of the
        compiled-structure memo that solves and sweeps share: seed-only
        solve groups and hot sweep keys hit both after their first
        compile.
        """
        snapshot = self._stats.snapshot()
        snapshot["store_records"] = len(self.store)
        snapshot["inflight"] = len(self._inflight)
        transpile_cache = transpile_cache_info()
        snapshot["transpile_cache_hits"] = transpile_cache.hits
        snapshot["transpile_cache_misses"] = transpile_cache.misses
        structure_cache = structure_cache_info()
        snapshot["structure_cache_hits"] = structure_cache.hits
        snapshot["structure_cache_misses"] = structure_cache.misses
        snapshot["structure_cache_entries"] = structure_cache.entries
        return snapshot

    # -- solve path ----------------------------------------------------

    async def solve(
        self, spec: "RunSpec | dict", *, timeout: "float | None" = None
    ) -> RunRecord:
        """Answer one solve request (store hit, dedup join, or execution)."""
        self._require_running()
        if isinstance(spec, dict):
            spec = RunSpec.from_dict(spec)
        self._stats.requests += 1
        spec_hash = spec.content_hash()

        record = self.store.get(spec_hash)
        if record is not None:
            self._stats.store_hits += 1
            return record

        existing = self._inflight.get(spec_hash)
        if existing is not None:
            self._stats.deduped += 1
            return await self._await_result(existing, timeout)

        future: asyncio.Future = self._loop.create_future()
        future.add_done_callback(_consume_exception)
        self._inflight[spec_hash] = future
        group = solve_group_key(spec)
        self._queued.setdefault(group, OrderedDict())[spec_hash] = spec
        self._spawn(self._solve_worker(group))
        return await self._await_result(future, timeout)

    async def _solve_worker(self, group: str) -> None:
        async with self._slots:
            queue = self._queued.get(group)
            if not queue:
                return  # a sibling worker drained this group already
            batch: list[tuple[str, RunSpec]] = []
            while queue and len(batch) < MAX_GROUP_SIZE:
                batch.append(queue.popitem(last=False))
            if not self._queued.get(group):
                self._queued.pop(group, None)
            if len(batch) > 1:
                self._stats.solves_coalesced += len(batch) - 1
            specs = [spec for _spec_hash, spec in batch]
            try:
                outcomes = await self._loop.run_in_executor(
                    self._executor, execute_group, specs, self._execute_fn
                )
            except Exception as error:
                # execute_group isolates per-spec failures; reaching here
                # means the dispatch itself broke — fail the whole batch.
                outcomes = [(spec, None, error) for spec in specs]
            for (spec_hash, _spec), (_s, record, error) in zip(batch, outcomes):
                future = self._inflight.pop(spec_hash, None)
                if record is not None:
                    self._stats.executed += 1
                    # The store append is file I/O — hop it off the loop, and
                    # await the hop so the record is durable before the
                    # requester's future resolves (the crash-safety contract).
                    await self._loop.run_in_executor(
                        self._executor, self.store.put, record
                    )
                    if future is not None and not future.done():
                        future.set_result(record)
                else:
                    self._stats.failures += 1
                    if future is not None and not future.done():
                        future.set_exception(error)

    # -- sweep path ----------------------------------------------------

    async def sweep(
        self, request: "SweepRequest | dict", *, timeout: "float | None" = None
    ) -> list[float]:
        """Exact cost expectations for a batch of parameter vectors.

        Pending sweeps sharing a coalesce key collapse into one
        ``batched_expectations`` pass when the batch flushes on the next
        event-loop tick, which coalesces requests submitted in the same
        scheduling burst (e.g. one ``asyncio.gather``).
        """
        self._require_running()
        if isinstance(request, dict):
            request = SweepRequest.from_dict(request)
        self._stats.sweep_requests += 1
        future: asyncio.Future = self._loop.create_future()
        future.add_done_callback(_consume_exception)
        key = request.coalesce_key()
        pending = self._pending_sweeps.setdefault(key, _PendingSweeps())
        pending.batch.append((request, future))
        if not pending.scheduled:
            pending.scheduled = True
            self._loop.call_soon(self._flush_sweeps, key)
        return await self._await_result(future, timeout)

    def _flush_sweeps(self, key: str) -> None:
        pending = self._pending_sweeps.pop(key, None)
        if pending is None or not pending.batch:
            return
        if not self._running:
            for _request, future in pending.batch:
                if not future.done():
                    future.set_exception(ServiceClosedError("service stopped"))
            return
        self._spawn(self._sweep_worker(pending.batch))

    async def _sweep_worker(self, batch: list) -> None:
        async with self._slots:
            requests = [request for request, _future in batch]
            if len(batch) > 1:
                self._stats.sweeps_coalesced += len(batch) - 1
            try:
                results = await self._loop.run_in_executor(
                    self._executor, execute_sweep, self._compiler, requests
                )
            except Exception as error:
                self._stats.failures += len(batch)
                for _request, future in batch:
                    if not future.done():
                        future.set_exception(error)
                return
            self._stats.sweep_batches += 1
            for (_request, future), scores in zip(batch, results):
                if not future.done():
                    future.set_result(scores)

    # -- internals -----------------------------------------------------

    def _spawn(self, coroutine) -> asyncio.Task:
        task = self._loop.create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        task.add_done_callback(surface_task_exception)
        return task

    async def _await_result(
        self, future: asyncio.Future, timeout: "float | None"
    ):
        timeout = timeout if timeout is not None else self.request_timeout
        if timeout is None:
            return await asyncio.shield(future)
        try:
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            self._stats.timeouts += 1
            raise ServiceTimeoutError(
                f"request exceeded its {timeout}s timeout; the execution "
                "continues and its record will land in the store"
            ) from None


# ---------------------------------------------------------------------------
# TCP front end (newline-delimited JSON)
# ---------------------------------------------------------------------------
#
# Request:  {"id": <any>, "op": "solve"|"sweep"|"stats"|"ping", ...}
#   solve:  {"spec": <RunSpec.to_dict()>}
#   sweep:  {"request": <SweepRequest.to_dict()>}
# Response: {"id": <echoed>, "ok": true, ...payload}
#        or {"id": <echoed>, "ok": false,
#            "error": {"type": <exception class>, "message": <str>}}
#
# Each request is handled as its own task, so one connection can pipeline
# concurrent requests — which is what lets a remote client's burst of
# identical specs dedupe onto one execution.  A request line longer than
# FRAME_LIMIT_BYTES is discarded through its newline and answered with
# {"id": null, "ok": false, "error": ...}; the connection keeps reading.


async def _dispatch(service: SolveService, message: dict) -> dict:
    operation = message.get("op")
    if operation == "solve":
        record = await service.solve(message["spec"], timeout=message.get("timeout"))
        return {"record": record.to_dict(), "cached": bool(record.cached)}
    if operation == "sweep":
        scores = await service.sweep(message["request"], timeout=message.get("timeout"))
        return {"scores": scores}
    if operation == "stats":
        return {"stats": service.stats()}
    if operation == "ping":
        return {"pong": True}
    raise ServiceError(f"unknown op {operation!r}")


def _error_response(request_id, error: Exception) -> dict:
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": type(error).__name__, "message": str(error)},
    }


async def _handle_message(
    service: SolveService,
    line: bytes,
    writer: asyncio.StreamWriter,
    write_lock: asyncio.Lock,
) -> None:
    request_id = None
    try:
        message = json.loads(line)
        request_id = message.get("id")
        payload = await _dispatch(service, message)
        response = {"id": request_id, "ok": True, **payload}
    except Exception as error:
        response = _error_response(request_id, error)
    await _send(writer, write_lock, response)


async def _send(
    writer: asyncio.StreamWriter, write_lock: asyncio.Lock, response: dict
) -> None:
    data = (json.dumps(json_sanitize(response)) + "\n").encode("utf-8")
    async with write_lock:
        if not writer.is_closing():
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                # The peer vanished mid-response; drop the connection.
                writer.close()


async def _read_frame(reader: asyncio.StreamReader) -> "bytes | None":
    """The next request line: ``b""`` at EOF, ``None`` for an oversize line.

    A line longer than the reader's limit is consumed through its newline
    (or to EOF), so the frame after it starts clean.
    """
    oversize = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as error:
            line = error.partial
        except asyncio.LimitOverrunError as error:
            await reader.readexactly(error.consumed)
            oversize = True
            continue
        return None if oversize else line


async def _handle_connection(
    service: SolveService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    write_lock = asyncio.Lock()
    tasks: set[asyncio.Task] = set()
    try:
        while True:
            line = await _read_frame(reader)
            if line is None:
                error = ServiceError(
                    f"request line exceeds {FRAME_LIMIT_BYTES} bytes; discarded"
                )
                await _send(writer, write_lock, _error_response(None, error))
                continue
            if not line:
                break
            if not line.strip():
                continue
            task = asyncio.get_running_loop().create_task(
                _handle_message(service, line, writer, write_lock)
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            task.add_done_callback(surface_task_exception)
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
    except asyncio.CancelledError:
        # server.close() cancels connection handlers mid-read; fall through
        # to the cleanup below instead of bubbling noise into asyncio's
        # connection-made callback (the handler is ending either way).
        pass
    finally:
        for task in tasks:
            task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            # The peer (or our own cancellation) beat us to the close.
            writer.transport.abort()


async def serve_tcp(
    service: SolveService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Expose a started service over TCP; ``port=0`` picks a free port.

    Returns the :class:`asyncio.AbstractServer`; the bound address is
    ``server.sockets[0].getsockname()``.  Close with ``server.close()`` +
    ``await server.wait_closed()`` and then stop the service itself.
    """
    return await asyncio.start_server(
        functools.partial(_handle_connection, service),
        host=host,
        port=port,
        limit=FRAME_LIMIT_BYTES,
    )
