"""TCP client for the solve service.

In-process callers await :meth:`SolveService.solve
<repro.service.server.SolveService.solve>` directly.
:class:`TCPServiceClient` speaks the newline-delimited-JSON protocol of
:func:`~repro.service.server.serve_tcp`; it pipelines concurrent requests
over one connection and matches responses by id, so a remote burst of
identical specs still dedupes server-side onto one execution.
"""

from __future__ import annotations

import asyncio
import itertools
import json

from repro.exceptions import ServiceError
from repro.run.plan import RunRecord, RunSpec
from repro.serialization import json_sanitize
from repro.service.coalesce import SweepRequest
from repro.service.server import FRAME_LIMIT_BYTES, surface_task_exception

__all__ = ["TCPServiceClient"]


class TCPServiceClient:
    """Async TCP client for a :func:`~repro.service.server.serve_tcp` server."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._read_task = asyncio.get_running_loop().create_task(self._read_loop())
        # The read loop runs unawaited for the client's whole life; surface
        # a crash in it instead of letting the exception rot until GC.
        self._read_task.add_done_callback(surface_task_exception)

    @classmethod
    async def connect(cls, host: str, port: int) -> "TCPServiceClient":
        # Responses get the server's request limit: a longer line would kill
        # the read loop and fail every request pipelined on the connection.
        reader, writer = await asyncio.open_connection(
            host, port, limit=FRAME_LIMIT_BYTES
        )
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    message = json.loads(line)
                except json.JSONDecodeError:
                    continue
                future = self._pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        finally:
            self._fail_pending(ServiceError("connection closed by server"))

    def _fail_pending(self, error: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()

    async def _request(self, payload: dict) -> dict:
        if self._writer.is_closing():
            raise ServiceError("client connection is closed")
        request_id = next(self._ids)
        payload = {"id": request_id, **payload}
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(
            (json.dumps(json_sanitize(payload)) + "\n").encode("utf-8")
        )
        await self._writer.drain()
        message = await future
        if not message.get("ok"):
            error = message.get("error") or {}
            raise ServiceError(
                f"{error.get('type', 'ServiceError')}: "
                f"{error.get('message', 'request failed')}"
            )
        return message

    async def solve(
        self, spec: "RunSpec | dict", *, timeout: "float | None" = None
    ) -> RunRecord:
        payload: dict = {
            "op": "solve",
            "spec": spec.to_dict() if isinstance(spec, RunSpec) else dict(spec),
        }
        if timeout is not None:
            payload["timeout"] = timeout
        message = await self._request(payload)
        return RunRecord.from_dict(
            message["record"], cached=bool(message.get("cached"))
        )

    async def solve_many(
        self, specs, *, timeout: "float | None" = None
    ) -> list[RunRecord]:
        """Pipeline several specs over the one connection, results in order."""
        return list(
            await asyncio.gather(
                *(self.solve(spec, timeout=timeout) for spec in specs)
            )
        )

    async def sweep(
        self, request: "SweepRequest | dict", *, timeout: "float | None" = None
    ) -> list[float]:
        payload: dict = {
            "op": "sweep",
            "request": (
                request.to_dict() if isinstance(request, SweepRequest) else dict(request)
            ),
        }
        if timeout is not None:
            payload["timeout"] = timeout
        message = await self._request(payload)
        return [float(score) for score in message["scores"]]

    async def stats(self) -> dict:
        return (await self._request({"op": "stats"}))["stats"]

    async def ping(self) -> bool:
        return bool((await self._request({"op": "ping"})).get("pong"))

    async def close(self) -> None:
        self._read_task.cancel()
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            # The server side is already gone; the socket is dead either way.
            self._writer.transport.abort()
        self._fail_pending(ServiceError("client closed"))

    async def __aenter__(self) -> "TCPServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
