"""Pull-based chunked character feeding for the tree-format lexers.

:class:`ChunkFeeder` turns any text source — a ``str``, ``bytes``, or a
file-like object whose ``read(n)`` returns either — into a buffered
character stream with *bounded* memory: the internal buffer holds at
most the unconsumed tail of one token plus one read chunk, and the
consumed prefix is compacted away as the caller advances.  Byte inputs
are decoded incrementally as UTF-8 (a leading byte-order mark is
dropped), so multi-byte characters split across chunk boundaries are
handled transparently.  A ``str`` source is the whole buffer from the
start: nothing is copied.

The XML tokenizer of :mod:`repro.trees.xml_parser` and the JSON scanner
of :mod:`repro.trees.json_parser` are the only readers of this class.
They scan ``buf`` with slices, ``find`` and compiled patterns, and call
:meth:`ChunkFeeder.refill` when a token runs past the buffered text.
Both the tree parsers and the event streams drive those lexers, so one
document is lexed the same way whichever entry point reads it.
"""

from __future__ import annotations

import codecs
from typing import Callable, Optional

__all__ = ["ChunkFeeder"]

DEFAULT_CHUNK_SIZE = 65536


class ChunkFeeder:
    """Buffered incremental reader over ``str`` / ``bytes`` / file-like.

    Readers scan ``buf`` from ``pos``; ``base`` is the absolute
    character offset of ``buf[0]`` in the whole input, and ``eof`` says
    that ``buf`` already ends where the input ends.

    ``error_factory`` builds the exception raised on a byte-decoding
    failure, so each parser surfaces its own typed error (XML's
    ``bad-encoding`` category, for instance) instead of a raw
    :class:`UnicodeDecodeError`.  Its position is the character offset
    of the first undecodable byte, whatever the chunk size.
    """

    def __init__(
        self,
        source,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        encoding: str = "utf-8-sig",
        error_factory: Optional[Callable[[str, int], Exception]] = None,
    ):
        self.chunk_size = max(1, int(chunk_size))
        self.encoding = encoding
        self.error_factory = error_factory
        self.buf = ""
        self.pos = 0
        self.base = 0  # absolute offset of buf[0] in the whole input
        self.eof = False
        self._decoder = None
        if isinstance(source, str):
            self.buf = source
            self.eof = True
            self._pull = None
        elif isinstance(source, (bytes, bytearray, memoryview)):
            data = bytes(source)
            offset = 0

            def pull_bytes() -> Optional[bytes]:
                nonlocal offset
                if offset >= len(data):
                    return None
                chunk = data[offset : offset + self.chunk_size]
                offset += len(chunk)
                return chunk

            self._pull = pull_bytes
        elif hasattr(source, "read"):

            def pull_read():
                chunk = source.read(self.chunk_size)
                return chunk if chunk else None

            self._pull = pull_read
        else:
            raise TypeError(
                f"cannot feed from {type(source).__name__}: "
                "expected str, bytes, or a file-like object"
            )

    @property
    def position(self) -> int:
        """Absolute character offset of the read head (for errors)."""
        return self.base + self.pos

    def _decode(self, chunk: bytes, final: bool = False) -> str:
        if self._decoder is None:
            self._decoder = codecs.getincrementaldecoder(self.encoding)()
        try:
            return self._decoder.decode(chunk, final)
        except UnicodeDecodeError as exc:
            if self.error_factory is None:
                raise
            # exc.object starts at a character boundary (any carried-over
            # partial sequence included), so its prefix decodes cleanly
            decoded = len(exc.object[: exc.start].decode("utf-8"))
            raise self.error_factory(
                str(exc), self.base + len(self.buf) + decoded
            ) from None

    def refill(self) -> bool:
        """Pull one more chunk into the buffer; False once at EOF.

        Indices into ``buf`` do not survive a refill: the consumed
        prefix (everything before ``pos``) may be compacted away.
        """
        if self.eof:
            return False
        # Compact the consumed prefix so memory stays bounded by the
        # largest single token, not by the document.
        if self.pos > self.chunk_size:
            self.base += self.pos
            self.buf = self.buf[self.pos :]
            self.pos = 0
        chunk = self._pull()
        if chunk is None:
            self.eof = True
            if self._decoder is not None:
                tail = self._decode(b"", final=True)
                self.buf += tail
                return bool(tail)
            return False
        self.buf += chunk if isinstance(chunk, str) else self._decode(chunk)
        return True
