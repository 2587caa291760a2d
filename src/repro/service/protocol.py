"""The wire protocol: length-prefixed JSON frames and typed messages.

One frame is a 4-byte big-endian payload length followed by that many
bytes of UTF-8 JSON encoding a single object.  Length-prefixing (rather
than newline-delimited JSON) keeps the framing independent of payload
content, lets the reader allocate exactly once per message, and gives a
hard, checkable bound (:data:`MAX_FRAME_BYTES`) before any payload byte
is read — a malformed or hostile peer cannot make the server buffer an
unbounded line.

Wire version 2 (current) speaks *typed messages*: each operation has a
frozen request dataclass (:class:`RpqRequest`, :class:`SparqlRequest`,
:class:`QueryRequest`, :class:`LogBatteryRequest`,
:class:`BatteryRequest`, :class:`ValidateRequest`,
:class:`MutateRequest`, :class:`StatsRequest`, :class:`PingRequest`) and
a matching response type, all carrying ``to_wire()`` / ``from_wire()``.
On the wire a v2 request is::

    {"v": 2, "id": str, "op": str, "params": {...}, "deadline_ms"?: num}

The request dataclasses are the only request schema.  v2 decoding is
strict: :meth:`Request.from_wire` rejects unknown parameters, and checks
every parameter, and the envelope's ``deadline_ms``, against its field's
annotation — types and value domains alike (``semantics`` is a
``Literal``, a triple is a ``Tuple[str, str, str]``, a deadline a
positive number) — so the server reads attributes off a request that is
already well-typed.  Any mismatch is a typed
:class:`~repro.errors.BadRequest`.

and a v2 response is the version-stamped envelope of
:class:`OkResponse` / :class:`ErrorResponse`::

    {"v": 2, "id": str, "ok": true,  "result": {...}, "served_from"?: str}
    {"v": 2, "id": str, "ok": false, "error": {"code": str, "message": str}}

``served_from`` (``cache`` | ``engine``) is set for compute operations
so every answer is traceable to how it was produced; ``code`` is the
stable identifier of one of the typed
:class:`~repro.errors.ServiceError` subclasses.  A compute ``result``
leaves the server as the :class:`EncodedResult` text its worker
encoded once; the frame is the same JSON either way.

**Removed — version 1**: requests without a ``"v"`` field were the
pre-typed encoding, accepted alongside v2 for one deprecation release.
That window is over: the server now rejects a version-less request with
a typed :class:`~repro.errors.BadRequest` carrying an upgrade hint, and
counts the attempt in ``metrics.legacy_requests`` (the counter survives
as a rejected-v1 signal, so operators can see stragglers before they
page).  Construct typed requests (or use the
:class:`~.client.RequestAPI` wrappers, which do).

Responses may arrive in any order; the ``id`` is the correlation key
(the server handles requests of one connection concurrently, and the
client demultiplexes by id).
"""

from __future__ import annotations

import asyncio
import functools
import json
import reprlib
import struct
import sys
from dataclasses import dataclass, field, fields
from typing import (
    Any, Callable, ClassVar, Dict, List, Literal, Optional as Opt, Tuple, Type,
    Union, get_args, get_origin, get_type_hints,
)

from ..errors import (
    BadRequest,
    DeadlineExceeded,
    ProtocolError,
    ResponseTooLarge,
    ServiceError,
    ServiceOverloaded,
    ShardError,
    StoreFrozenError,
    StoreUnavailableError,
)

#: Hard bound on one frame's JSON payload (requests *and* responses).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Current wire encoding version.  Version 1 (no ``"v"`` field) was the
#: pre-typed dict encoding; its deprecation window has closed and the
#: server now rejects it — see the module docstring.
WIRE_VERSION = 2

_LENGTH = struct.Struct(">I")

#: ``code`` -> exception type, for reconstructing typed errors client-side.
ERROR_TYPES: Dict[str, type] = {
    cls.code: cls
    for cls in (
        ServiceError,
        ServiceOverloaded,
        DeadlineExceeded,
        BadRequest,
        ProtocolError,
        ResponseTooLarge,
        ShardError,
        StoreFrozenError,
        StoreUnavailableError,
    )
}


class EncodedResult(str):
    """A result payload already encoded as compact JSON text.

    Compute answers are encoded once, where they are computed; the
    result cache, single-flight followers and every response share this
    immutable text, and :func:`encode_frame` splices it into the frame
    without parsing or re-encoding it."""

    __slots__ = ()


def _compact(value: Any) -> str:
    return json.dumps(value, ensure_ascii=False, separators=(",", ":"))


#: bytes a compute result leaves free in its frame for the response
#: envelope (id, ok, served_from, version stamp)
RESULT_ENVELOPE_BYTES = 1024


def encode_result(value: Any) -> EncodedResult:
    """``value`` as the compact JSON text :func:`encode_frame` writes.

    Raises :class:`~repro.errors.ResponseTooLarge` for a text that
    cannot fit a response frame under the current
    :data:`MAX_FRAME_BYTES` — checked where the answer is made, so no
    caller caches or ships it."""
    result = EncodedResult(_compact(value))
    limit = MAX_FRAME_BYTES - RESULT_ENVELOPE_BYTES
    # UTF-8 spends at most 4 bytes per character: only a long text pays
    # for the exact count
    if len(result) * 4 > limit:
        size = len(result.encode("utf-8"))
        if size > limit:
            raise ResponseTooLarge(
                f"answer of {size} bytes leaves no room for its response "
                f"envelope under the {MAX_FRAME_BYTES}-byte frame bound"
            )
    return result


def encode_frame(message: Dict[str, Any]) -> bytes:
    """One message as wire bytes (length prefix + compact JSON).  An
    :class:`EncodedResult` ``result`` is spliced in as it is."""
    result = message.get("result")
    if isinstance(result, EncodedResult):
        head = _compact(
            {name: value for name, value in message.items() if name != "result"}
        )
        separator = "," if len(head) > 2 else ""
        text = f'{head[:-1]}{separator}"result":{result}}}'
    else:
        text = _compact(message)
    payload = text.encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    return _LENGTH.pack(len(payload)) + payload


async def read_frame(
    reader: asyncio.StreamReader,
    max_bytes: int = MAX_FRAME_BYTES,
) -> Opt[Dict[str, Any]]:
    """The next message from ``reader``, or ``None`` on a clean EOF
    (connection closed between frames).

    Raises :class:`~repro.errors.ProtocolError` for a declared length
    over ``max_bytes``, a connection cut mid-frame, or a payload that is
    not a JSON object — all cases where the stream can no longer be
    trusted and the connection should be dropped.
    """
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed inside a frame header")
    (length,) = _LENGTH.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"declared frame length {length} exceeds the {max_bytes}-byte bound"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed inside a frame payload")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError("frame payload is not a JSON object")
    return message


# -- typed messages (wire version 2) ----------------------------------------


#: one field's wire check: (accepts value?, the expected shape as text)
FieldCheck = Tuple[Callable[[Any], bool], str]

#: checks of the plain annotations; ``float`` is the deadline's type,
#: bounded so that an integer too large for a float is refused here
_PLAIN_CHECKS: Dict[Any, FieldCheck] = {
    str: (lambda value: isinstance(value, str), "string"),
    float: (
        lambda value: isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 < value <= sys.float_info.max,
        "positive number",
    ),
    list: (lambda value: isinstance(value, list), "list"),
}


def _checker(hint: Any) -> FieldCheck:
    """The wire check for one request-field annotation: a plain type,
    ``Opt``, ``Literal`` (of strings), ``List``, ``Dict`` or a
    fixed-length ``Tuple`` (which also accepts an in-process tuple)."""
    if hint in _PLAIN_CHECKS:
        return _PLAIN_CHECKS[hint]
    origin, args = get_origin(hint), get_args(hint)
    if origin is Literal:
        shape = " | ".join(f'"{arg}"' for arg in args)
        return (lambda value: isinstance(value, str) and value in args), shape
    checks = [_checker(arg) for arg in args if arg is not type(None)]
    shapes = [shape for _, shape in checks]
    if origin is Union:  # Opt[...]
        ((check, shape),) = checks
        return (lambda value: value is None or check(value)), f"{shape} | null"
    if origin is list:
        ((check, shape),) = checks
        return (
            lambda value: isinstance(value, list) and all(map(check, value))
        ), f"[{shape}]"
    if origin is dict:
        (key_check, _), (value_check, _) = checks
        return (
            lambda value: isinstance(value, dict)
            and all(key_check(k) and value_check(v) for k, v in value.items())
        ), "{%s: %s}" % tuple(shapes)
    if origin is tuple:
        return (
            lambda value: isinstance(value, (list, tuple))
            and len(value) == len(checks)
            and all(check(item) for (check, _), item in zip(checks, value))
        ), f"[{', '.join(shapes)}]"
    raise TypeError(f"no wire check for the annotation {hint!r}")


@functools.cache
def _field_checks(cls: type) -> Dict[str, FieldCheck]:
    """Every field of a request class but ``id``, with its wire check
    (built once per class, from its annotations)."""
    hints = get_type_hints(cls)
    return {
        spec.name: _checker(hints[spec.name])
        for spec in fields(cls)
        if spec.name != "id"
    }


@dataclass(frozen=True, kw_only=True)
class Request:
    """Base of the typed request types.

    Subclasses declare the operation name as the ``op`` class attribute
    and the operation's parameters as dataclass fields; ``id`` and
    ``deadline_ms`` live on the envelope, everything else goes into
    ``params``.  ``None``-valued optional fields are omitted from the
    wire form, so a round-trip through :meth:`to_wire` /
    :meth:`from_wire` is exact.
    """

    op: ClassVar[str] = ""
    id: Opt[str] = None
    deadline_ms: Opt[float] = None

    def params(self) -> Dict[str, Any]:
        """The operation parameters as the wire ``params`` object."""
        out: Dict[str, Any] = {}
        for spec in fields(self):
            if spec.name in ("id", "deadline_ms"):
                continue
            value = getattr(self, spec.name)
            if value is not None:
                out[spec.name] = value
        return out

    def to_wire(self) -> Dict[str, Any]:
        return request(self.id, self.op, self.params(), self.deadline_ms)

    @classmethod
    def from_wire(cls, message: Dict[str, Any]) -> "Request":
        """The typed request a v2 wire message encodes.  Strict: an
        unknown parameter, or a value that does not match its field's
        annotation (the envelope's ``deadline_ms`` included), is a
        :class:`~repro.errors.BadRequest`."""
        params = message.get("params") or {}
        if not isinstance(params, dict):
            raise BadRequest("'params' must be an object")
        checks = _field_checks(cls)
        unknown = sorted(
            str(name)
            for name in params
            if name not in checks or name == "deadline_ms"
        )
        if unknown:
            raise BadRequest(
                f"unknown parameter(s) for {cls.op!r}: {', '.join(unknown)}"
            )
        values = dict(params, deadline_ms=message.get("deadline_ms"))
        for name, value in values.items():
            check, shape = checks[name]
            if not check(value):
                raise BadRequest(
                    f"{name!r} of {cls.op!r} must be of type {shape}, "
                    f"got {reprlib.repr(value)}"
                )
        request_id = message.get("id")
        if request_id is not None and not isinstance(request_id, str):
            request_id = str(request_id)
        return cls(id=request_id, **values)

    @staticmethod
    def parse(message: Dict[str, Any]) -> "Request":
        """Dispatch a v2 wire message to its request type."""
        op = message.get("op")
        if not isinstance(op, str) or not op:
            raise BadRequest("request has no 'op' string")
        request_type = REQUEST_TYPES.get(op)
        if request_type is None:
            raise BadRequest(f"unknown operation {op!r}")
        return request_type.from_wire(message)


@dataclass(frozen=True, kw_only=True)
class PingRequest(Request):
    op: ClassVar[str] = "ping"


@dataclass(frozen=True, kw_only=True)
class StatsRequest(Request):
    op: ClassVar[str] = "stats"


@dataclass(frozen=True, kw_only=True)
class RpqRequest(Request):
    op: ClassVar[str] = "rpq"
    store: str = ""
    expr: str = ""
    semantics: Literal["walk", "simple", "trail"] = "walk"
    source: Opt[str] = None
    target: Opt[str] = None
    sources: Opt[List[str]] = None
    targets: Opt[List[str]] = None


@dataclass(frozen=True, kw_only=True)
class SparqlRequest(Request):
    op: ClassVar[str] = "sparql"
    query: str = ""


@dataclass(frozen=True, kw_only=True)
class QueryRequest(Request):
    """Evaluate a SPARQL query against a named store (operation
    ``query``) — full evaluation, unlike :class:`SparqlRequest` which
    only parses and analyzes the text.  On a sharded store the query
    evaluates on the coordinator's union of the predicates it reads."""

    op: ClassVar[str] = "query"
    store: str = ""
    query: str = ""


@dataclass(frozen=True, kw_only=True)
class LogBatteryRequest(Request):
    """One query through the full log battery (operation name ``log``)."""

    op: ClassVar[str] = "log"
    query: str = ""


@dataclass(frozen=True, kw_only=True)
class BatteryRequest(Request):
    """A whole list of query texts through the battery, merged into one
    corpus-level report (scattered over shard workers when the service
    is sharded)."""

    op: ClassVar[str] = "battery"
    queries: List[str] = field(default_factory=list)
    source: str = "service"
    #: a *sharded* store whose worker processes should run the analysis;
    #: None (or an unsharded store) computes on the coordinator
    store: Opt[str] = None


@dataclass(frozen=True, kw_only=True)
class ValidateRequest(Request):
    """Stream-validate a document against a tree schema (operation
    ``validate``).

    ``schema_kind`` selects the formalism (``dtd``, ``edtd`` or
    ``bonxai``); ``rules``/``start``/``mu`` are the textual schema in
    the same shape the ``from_rules`` constructors take.  The document
    is either ``document`` text in ``format`` (``xml`` or ``json``) or
    an explicit ``events`` list.  The server compiles the schema to an
    NFTA once (LRU-cached by schema fingerprint) and runs it in a
    single streaming pass — results are cached by (schema fingerprint,
    document digest), and the op is store-less so it serves identically
    on embedded and sharded deployments."""

    op: ClassVar[str] = "validate"
    schema_kind: Literal["dtd", "edtd", "bonxai"] = "dtd"
    rules: Dict[str, str] = field(default_factory=dict)
    start: Opt[List[str]] = None
    mu: Opt[Dict[str, str]] = None
    document: Opt[str] = None
    format: Literal["xml", "json"] = "xml"
    #: checked as a list only: a malformed event is a ``valid: false``
    #: verdict, like an unparseable document
    events: Opt[list] = None


@dataclass(frozen=True, kw_only=True)
class MutateRequest(Request):
    op: ClassVar[str] = "mutate"
    store: str = ""
    triples: List[Tuple[str, str, str]] = field(default_factory=list)


#: operation name -> typed request class (v2 parse dispatch)
REQUEST_TYPES: Dict[str, Type[Request]] = {
    cls.op: cls
    for cls in (
        PingRequest,
        StatsRequest,
        RpqRequest,
        SparqlRequest,
        QueryRequest,
        LogBatteryRequest,
        BatteryRequest,
        ValidateRequest,
        MutateRequest,
    )
}


@dataclass(frozen=True, kw_only=True)
class Response:
    """Base of the typed success responses: dataclass fields are the
    result payload, ``id``/``served_from`` are envelope metadata."""

    id: Opt[str] = None
    served_from: Opt[str] = None

    @property
    def ok(self) -> bool:
        return True

    def result(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for spec in fields(self):
            if spec.name in ("id", "served_from"):
                continue
            value = getattr(self, spec.name)
            if value is not None:
                out[spec.name] = value
        return out

    def to_wire(self) -> Dict[str, Any]:
        message: Dict[str, Any] = {
            "v": WIRE_VERSION,
            "id": self.id,
            "ok": True,
            "result": self.result(),
        }
        if self.served_from is not None:
            message["served_from"] = self.served_from
        return message

    @classmethod
    def from_wire(cls, message: Dict[str, Any]):
        """The typed response a wire envelope encodes; failure envelopes
        come back as :class:`ErrorResponse` whichever type parses them.
        Unknown result fields are ignored (responses are lenient where
        requests are strict: an older client must survive a newer
        server's additions)."""
        if not message.get("ok"):
            return ErrorResponse.from_wire(message)
        payload = message.get("result")
        payload = payload if isinstance(payload, dict) else {}
        known = {spec.name for spec in fields(cls)} - {"id", "served_from"}
        return cls(
            id=message.get("id"),
            served_from=message.get("served_from"),
            **{name: payload[name] for name in known if name in payload},
        )


@dataclass(frozen=True, kw_only=True)
class PingResponse(Response):
    pong: bool = True


@dataclass(frozen=True, kw_only=True)
class StatsResponse(Response):
    metrics: Opt[Dict[str, Any]] = None
    cache: Opt[Dict[str, Any]] = None
    scheduler: Opt[Dict[str, Any]] = None
    stores: Opt[Dict[str, Any]] = None
    shards: Opt[Dict[str, Any]] = None


@dataclass(frozen=True, kw_only=True)
class RpqResponse(Response):
    semantics: str = "walk"
    pairs: Opt[List[List[str]]] = None
    count: Opt[int] = None
    exists: Opt[bool] = None


@dataclass(frozen=True, kw_only=True)
class SparqlResponse(Response):
    valid: bool = False
    canonical: Opt[str] = None
    query_type: Opt[str] = None
    triples: Opt[int] = None
    features: Opt[List[str]] = None
    operators: Opt[List[str]] = None
    reason: Opt[str] = None


@dataclass(frozen=True, kw_only=True)
class QueryResponse(Response):
    """A full SPARQL evaluation: ``kind`` is ``select`` (``rows`` +
    ``count``), ``ask`` (``boolean``) or ``graph`` (``triples``); an
    unparseable or unsupported query answers ``valid=False`` with a
    ``reason`` instead of an error envelope (the query was understood
    well enough to be judged, like the ``sparql`` analysis op)."""

    valid: bool = False
    kind: Opt[str] = None
    rows: Opt[List[Dict[str, str]]] = None
    count: Opt[int] = None
    boolean: Opt[bool] = None
    triples: Opt[List[List[str]]] = None
    reason: Opt[str] = None


@dataclass(frozen=True, kw_only=True)
class LogBatteryResponse(Response):
    valid: bool = False
    record: Opt[Dict[str, Any]] = None
    reason: Opt[str] = None

    def result(self) -> Dict[str, Any]:
        # ``record`` is meaningful even when None (an invalid query has
        # no record) — keep the legacy payload shape exactly
        out = super().result()
        out.setdefault("record", None)
        return out


@dataclass(frozen=True, kw_only=True)
class BatteryResponse(Response):
    report: Opt[Dict[str, Any]] = None


@dataclass(frozen=True, kw_only=True)
class ValidateResponse(Response):
    """A streaming validation verdict: ``valid`` plus a ``reason`` when
    rejected; ``stack_depth`` is the validator's high-water frame count
    (the memory bound actually observed) and ``states`` the compiled
    automaton size.  An unparseable document answers ``valid=False``
    with a reason, like the ``sparql`` analysis op; only a broken
    *schema* is a ``bad_request`` error."""

    valid: bool = False
    reason: Opt[str] = None
    stack_depth: Opt[int] = None
    states: Opt[int] = None


@dataclass(frozen=True, kw_only=True)
class MutateResponse(Response):
    added: int = 0
    size: int = 0
    fingerprint: str = ""


@dataclass(frozen=True, kw_only=True)
class ErrorResponse:
    """A typed failure envelope; :meth:`to_exception` reconstructs the
    original :class:`~repro.errors.ServiceError` subclass."""

    id: Opt[str] = None
    code: str = ServiceError.code
    message: str = "service error"

    @property
    def ok(self) -> bool:
        return False

    def to_wire(self) -> Dict[str, Any]:
        return {
            "v": WIRE_VERSION,
            "id": self.id,
            "ok": False,
            "error": {"code": self.code, "message": self.message},
        }

    @classmethod
    def from_wire(cls, message: Dict[str, Any]) -> "ErrorResponse":
        error = message.get("error") or {}
        return cls(
            id=message.get("id"),
            code=error.get("code", ServiceError.code),
            message=error.get("message", "service error"),
        )

    def to_exception(self) -> ServiceError:
        return ERROR_TYPES.get(self.code, ServiceError)(self.message)


#: operation name -> typed response class
RESPONSE_TYPES: Dict[str, Type[Response]] = {
    "ping": PingResponse,
    "stats": StatsResponse,
    "rpq": RpqResponse,
    "sparql": SparqlResponse,
    "query": QueryResponse,
    "log": LogBatteryResponse,
    "battery": BatteryResponse,
    "validate": ValidateResponse,
    "mutate": MutateResponse,
}


def parse_response(op: str, message: Dict[str, Any]):
    """The typed response for an ``op`` request's reply envelope
    (success or :class:`ErrorResponse`)."""
    if not message.get("ok"):
        return ErrorResponse.from_wire(message)
    response_type = RESPONSE_TYPES.get(op)
    if response_type is None:
        raise ProtocolError(f"no response type for operation {op!r}")
    return response_type.from_wire(message)


# -- message constructors ---------------------------------------------------


def request(
    request_id: Opt[str],
    op: str,
    params: Opt[Dict[str, Any]] = None,
    deadline_ms: Opt[float] = None,
) -> Dict[str, Any]:
    """A v2 request envelope from its parts — the one envelope builder:
    :meth:`Request.to_wire` and the loose-dict
    :meth:`~repro.service.client.RequestAPI.request` both call it, so
    every request carries the version stamp."""
    message: Dict[str, Any] = {
        "v": WIRE_VERSION,
        "id": request_id,
        "op": op,
        "params": params or {},
    }
    if deadline_ms is not None:
        message["deadline_ms"] = deadline_ms
    return message


def ok_response(
    request_id: Opt[str],
    result: Any,
    served_from: Opt[str] = None,
) -> Dict[str, Any]:
    message: Dict[str, Any] = {"id": request_id, "ok": True, "result": result}
    if served_from is not None:
        message["served_from"] = served_from
    return message


def error_response(
    request_id: Opt[str], code: str, message: str
) -> Dict[str, Any]:
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def error_from_response(response: Dict[str, Any]) -> ServiceError:
    """The typed exception a failure response encodes (used by the
    client to re-raise server-side failures under their original
    types)."""
    return ErrorResponse.from_wire(response).to_exception()
