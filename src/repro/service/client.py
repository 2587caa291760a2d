"""The asyncio client and the caller API shared with the embedded service.

:class:`RequestAPI` is the surface every caller programs against —
typed requests through :meth:`~RequestAPI.send`, convenience wrappers
per operation, and the legacy ``request``/``call`` dict entry points —
implemented over a single abstract :meth:`~RequestAPI.request_message`
(one raw message dict in, one response envelope out).
:class:`ServiceClient` implements that primitive over a TCP connection;
:class:`~repro.service.server.EmbeddedService` implements it over an
in-process core.  Code written against the API runs unchanged on
either, which is what the differential oracles and the degradation
tests rely on.

The convenience wrappers construct typed v2 requests (see
:mod:`repro.service.protocol`), so ordinary callers are on the current
wire encoding without thinking about it; ``request(op, params)`` now
stamps the v2 version on its loose dicts too — the version-less (v1)
encoding is rejected by current servers.

The client multiplexes: requests are written as they are made, a
single reader task dispatches responses to per-id futures, so any
number of requests can be in flight on one connection and responses
may return in any order.  Server-side failures are re-raised under
their original :class:`~repro.errors.ServiceError` types.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Dict, List, Optional as Opt, Sequence, Tuple

from ..errors import ServiceError
from .protocol import (
    MAX_FRAME_BYTES,
    BatteryRequest,
    LogBatteryRequest,
    MutateRequest,
    PingRequest,
    QueryRequest,
    Request,
    RpqRequest,
    SparqlRequest,
    StatsRequest,
    ValidateRequest,
    encode_frame,
    error_from_response,
    parse_response,
    read_frame,
    request as wire_request,
)


class RequestAPI:
    """The operation surface of the service, over one abstract
    :meth:`request_message`."""

    async def request_message(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Send one raw message dict; return the full response
        envelope.  Implementations assign a correlation id when the
        message carries none."""
        raise NotImplementedError

    async def send(self, request: Request):
        """Send one typed request; return the typed response
        (:class:`~repro.service.protocol.Response` subclass on success,
        :class:`~repro.service.protocol.ErrorResponse` on failure)."""
        envelope = await self.request_message(request.to_wire())
        return parse_response(request.op, envelope)

    async def request(
        self,
        op: str,
        params: Opt[Dict[str, Any]] = None,
        *,
        deadline_ms: Opt[float] = None,
    ) -> Dict[str, Any]:
        """Send one loose-dict request (stamped with the current wire
        version — servers reject version-less v1 frames); return the
        full response envelope.  New code should construct typed
        requests and :meth:`send` them (the convenience wrappers below
        already do)."""
        return await self.request_message(
            wire_request(None, op, params, deadline_ms)
        )

    async def call(
        self,
        op: str,
        params: Opt[Dict[str, Any]] = None,
        *,
        deadline_ms: Opt[float] = None,
    ) -> Any:
        """Send one request; return its result payload, raising the
        typed :class:`~repro.errors.ServiceError` on failure."""
        response = await self.request(op, params, deadline_ms=deadline_ms)
        if not response.get("ok"):
            raise error_from_response(response)
        return response["result"]

    async def _result_of(self, request: Request) -> Any:
        """Typed-encoding send returning the raw result payload (what
        the wrappers have always returned), raising typed errors."""
        envelope = await self.request_message(request.to_wire())
        if not envelope.get("ok"):
            raise error_from_response(envelope)
        return envelope["result"]

    # -- typed wrappers ---------------------------------------------------------

    async def ping(self) -> Dict[str, Any]:
        return await self._result_of(PingRequest())

    async def stats(self) -> Dict[str, Any]:
        return await self._result_of(StatsRequest())

    async def rpq(
        self,
        store: str,
        expr: str,
        semantics: str = "walk",
        *,
        source: Opt[str] = None,
        target: Opt[str] = None,
        sources: Opt[Sequence[str]] = None,
        targets: Opt[Sequence[str]] = None,
        deadline_ms: Opt[float] = None,
    ) -> Dict[str, Any]:
        return await self._result_of(
            RpqRequest(
                store=store,
                expr=expr,
                semantics=semantics,
                source=source,
                target=target,
                sources=list(sources) if sources is not None else None,
                targets=list(targets) if targets is not None else None,
                deadline_ms=deadline_ms,
            )
        )

    async def sparql(
        self, query: str, *, deadline_ms: Opt[float] = None
    ) -> Dict[str, Any]:
        return await self._result_of(
            SparqlRequest(query=query, deadline_ms=deadline_ms)
        )

    async def query(
        self, store: str, query: str, *, deadline_ms: Opt[float] = None
    ) -> Dict[str, Any]:
        """Full SPARQL evaluation against a registered store (owners()-
        routed on sharded stores)."""
        return await self._result_of(
            QueryRequest(store=store, query=query, deadline_ms=deadline_ms)
        )

    async def log_battery(
        self, query: str, *, deadline_ms: Opt[float] = None
    ) -> Dict[str, Any]:
        return await self._result_of(
            LogBatteryRequest(query=query, deadline_ms=deadline_ms)
        )

    async def battery(
        self,
        queries: Sequence[str],
        *,
        source: str = "service",
        store: Opt[str] = None,
        deadline_ms: Opt[float] = None,
    ) -> Dict[str, Any]:
        return await self._result_of(
            BatteryRequest(
                queries=list(queries),
                source=source,
                store=store,
                deadline_ms=deadline_ms,
            )
        )

    async def validate(
        self,
        rules: Dict[str, str],
        *,
        schema_kind: str = "dtd",
        start: Opt[Sequence[str]] = None,
        mu: Opt[Dict[str, str]] = None,
        document: Opt[str] = None,
        format: str = "xml",
        events: Opt[Sequence[Sequence[str]]] = None,
        deadline_ms: Opt[float] = None,
    ) -> Dict[str, Any]:
        """Stream-validate one document (or event list) against a
        DTD/EDTD/BonXai schema shipped as textual rules."""
        return await self._result_of(
            ValidateRequest(
                schema_kind=schema_kind,
                rules=dict(rules),
                start=list(start) if start is not None else None,
                mu=dict(mu) if mu is not None else None,
                document=document,
                format=format,
                events=[list(e) for e in events] if events is not None else None,
                deadline_ms=deadline_ms,
            )
        )

    async def mutate(
        self,
        store: str,
        triples: Sequence[Tuple[str, str, str]],
        *,
        deadline_ms: Opt[float] = None,
    ) -> Dict[str, Any]:
        return await self._result_of(
            MutateRequest(
                store=store,
                triples=[list(t) for t in triples],
                deadline_ms=deadline_ms,
            )
        )


class ServiceClient(RequestAPI):
    """A multiplexing TCP client for one server connection."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ):
        self._reader = reader
        self._writer = writer
        self._max_frame_bytes = max_frame_bytes
        self._pending: Dict[str, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, max_frame_bytes)

    async def request_message(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        if self._closed:
            raise ConnectionError("client is closed")
        request_id = message.get("id")
        if request_id is None:
            request_id = f"c{next(self._ids)}"
            message = {**message, "id": request_id}
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(encode_frame(message))
            await self._writer.drain()
        except BaseException:
            self._pending.pop(request_id, None)
            raise
        return await future

    async def _read_loop(self) -> None:
        failure: BaseException = ConnectionError(
            "connection closed by the server"
        )
        try:
            while True:
                response = await read_frame(
                    self._reader, self._max_frame_bytes
                )
                if response is None:
                    break
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ServiceError, ConnectionError, OSError) as exc:
            failure = exc
        finally:
            self._closed = True
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(failure)
            self._pending.clear()

    async def close(self) -> None:
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


async def connect(
    host: str, port: int, max_frame_bytes: int = MAX_FRAME_BYTES
) -> ServiceClient:
    """Open one client connection (module-level convenience)."""
    return await ServiceClient.connect(host, port, max_frame_bytes)
