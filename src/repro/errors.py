"""Exception hierarchy for the :mod:`repro` toolkit.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing parse errors from semantic/validation errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro toolkit."""


class ParseError(ReproError):
    """Raised when a textual artifact (regex, XML, JSON, DTD, SPARQL query)
    cannot be parsed.

    Attributes
    ----------
    message:
        Human-readable description of the problem.
    position:
        Character offset in the input where the error was detected, or
        ``None`` when not applicable.
    category:
        Optional machine-readable error category (used by the XML
        well-formedness study, which classifies errors into a taxonomy).
    """

    def __init__(self, message, position=None, category=None):
        super().__init__(message)
        self.message = message
        self.position = position
        self.category = category

    def __str__(self):
        if self.position is None:
            return self.message
        return f"{self.message} (at position {self.position})"


class RegexParseError(ParseError):
    """Raised for malformed regular expressions."""


class XMLParseError(ParseError):
    """Raised for XML documents that are not well-formed."""


class JSONParseError(ParseError):
    """Raised for malformed JSON documents."""


class DTDParseError(ParseError):
    """Raised for malformed DTD rule sets."""


class SPARQLParseError(ParseError):
    """Raised for SPARQL queries outside the supported subset or malformed."""


class ValidationError(ReproError):
    """Raised when a document fails schema validation and the caller asked
    for an exception rather than a boolean result."""


class MalformedStreamError(ReproError):
    """Raised when a SAX-style event stream is structurally broken —
    unbalanced start/end events, a second root element, an unknown event
    kind — as opposed to a well-formed stream that merely violates the
    schema (which raises :class:`ValidationError`)."""


class SchemaError(ReproError):
    """Raised when a schema itself is ill-formed (e.g. an EDTD whose type map
    is inconsistent, or a DTD referencing undeclared labels in strict mode)."""


class FragmentError(ReproError):
    """Raised when an algorithm specialized to a fragment is applied to an
    expression outside that fragment (e.g. CHARE-only containment on a
    non-CHARE expression)."""


class UnsupportedFeatureError(ReproError):
    """Raised when a query or schema uses a feature the evaluator does not
    implement (analysis code never raises this; only evaluation does)."""


class StoreImageError(ReproError):
    """Raised when an on-disk triple-store image cannot be opened: bad
    magic, unsupported format version, foreign byte order, or a header
    that does not describe the file's actual contents."""


class ServiceError(ReproError):
    """Base class of the query-serving layer's typed failures.

    Every subclass carries a stable machine-readable ``code`` — the
    wire protocol transports the code, and the client reconstructs the
    matching exception type from it, so a caller of the remote service
    catches exactly the exceptions an in-process caller would.
    """

    code = "service_error"


class ServiceOverloaded(ServiceError):
    """Admission control shed this request: the scheduler's bounded
    queue was full when it arrived.  Load-shedding is deliberate —
    failing fast beats queueing into timeout collapse."""

    code = "overloaded"


class DeadlineExceeded(ServiceError):
    """The request's deadline expired before a result was produced.
    The response is structured and immediate; any already-running
    engine work completes in the background (and still populates the
    result cache) rather than poisoning a worker."""

    code = "deadline_exceeded"


class BadRequest(ServiceError):
    """The request was malformed: unknown operation, missing or
    ill-typed parameters, unknown store, or an unparseable RPQ
    expression."""

    code = "bad_request"


class ProtocolError(ServiceError):
    """A wire-level framing violation (oversized frame, truncated
    frame, or a frame that is not a JSON object)."""

    code = "protocol_error"


class ResponseTooLarge(ServiceError):
    """The answer was computed, but its frame would exceed the frame bound."""

    code = "response_too_large"


class StoreUnavailableError(ServiceError):
    """A registered store could not be opened: the image or shard
    manifest path is missing, unreadable, or corrupt.

    Raised instead of the bare ``FileNotFoundError`` /
    :class:`StoreImageError` the resolution would otherwise leak, so the
    wire protocol can transport a stable code and a remote client
    reconstructs the same typed exception an embedded caller sees."""

    code = "store_unavailable"


class ShardError(ServiceError):
    """A sharded deployment failed structurally: no live worker for a
    shard after failover and respawn, or a shard answered with a
    malformed partial.  Per-query engine errors are *not* shard errors —
    they propagate under their own types."""

    code = "shard_error"


class StoreFrozenError(ServiceError):
    """A mutation was attempted on a frozen (memory-mapped) store.

    Mapped images are immutable by construction — their pages are
    shared read-only across processes.  Subclassing
    :class:`ServiceError` gives the serving layer a stable wire code
    for free: a ``mutate`` against a frozen store comes back as a typed
    ``store_frozen`` error instead of an internal fault."""

    code = "store_frozen"
