"""The tokenizer's plain-tag match is a pure shortcut: wherever it
applies, :func:`_markup` gives the same token and end and records no
error, and the token stream is the same with and without it at every
chunk size."""

import io
import random
import re

import pytest

from repro.errors import XMLParseError
from repro.trees import xml_parser
from repro.trees.chunked import ChunkFeeder
from repro.trees.schema_corpus import random_dtd_corpus
from repro.trees.xml_corpus import (
    DEFAULT_ERROR_MIX,
    inject_error,
    random_tree,
    serialize,
)
from repro.trees.xml_parser import _PLAIN_TAG, _markup, _tokens

HAND_WRITTEN = {
    # text: does the plain-tag pattern match at offset 0?
    "<a/ >": False,
    "</a/>": False,
    "</a >": True,
    "<a\n>": True,
    "<a:b.c-d>": True,
    "<1/>": False,
    "<a  />": True,
    "</a:b.c-d\t>": True,
    "<a b='1'>": False,
    "<abcdefghij": False,
}


class _Feeder:
    """A buffer a refill must never be asked of."""

    def __init__(self, buf, pos, base, eof):
        self.buf, self.pos, self.base, self.eof = buf, pos, base, eof

    def refill(self):
        raise AssertionError("the plain-tag match asked for a refill")


def _documents():
    rng = random.Random(23)
    kinds = [kind for kind, _share in DEFAULT_ERROR_MIX]
    for dtd in random_dtd_corpus(12, seed=5):
        tree = random_tree(dtd, rng, max_nodes=40)
        text = serialize(tree, indent=rng.random() < 0.5)
        yield text
        for kind in kinds:
            corrupted = inject_error(text, kind, rng)
            if isinstance(corrupted, bytes):
                corrupted = corrupted.decode("utf-8", errors="replace")
            yield corrupted
    yield from HAND_WRITTEN


def _buffers(text):
    """(buf, p, eof) for every ``<`` of ``text``: the whole text, and
    buffers cut a few characters past the ``<`` with more input due."""
    for p, ch in enumerate(text):
        if ch != "<":
            continue
        yield text, p, True
        for cut in range(p + 1, min(len(text), p + 14) + 1):
            yield text[:cut], p, False


def _assert_shortcut_agrees(buf, p, eof, base=100):
    match = _PLAIN_TAG.match(buf, p)
    if match is None or not (eof or len(buf) - p >= 9):
        return False
    errors = []
    token, end = _markup(buf, p, eof, base, errors)
    assert errors == []
    assert end == match.end()
    assert next(_tokens(_Feeder(buf, p, base, eof))) == token
    return True


def test_the_shortcut_gives_the_markup_token_at_every_tag():
    taken = 0
    for text in _documents():
        for buf, p, eof in _buffers(text):
            taken += _assert_shortcut_agrees(buf, p, eof)
    assert taken > 1000


@pytest.mark.parametrize("text,plain", sorted(HAND_WRITTEN.items()))
def test_hand_written_tags(text, plain):
    assert (_PLAIN_TAG.match(text) is not None) == plain
    if plain:
        assert _assert_shortcut_agrees(text, 0, True)
        assert _assert_shortcut_agrees(text + " " * 9, 0, False)


def test_a_tag_cut_off_at_the_buffer_end_is_left_to_markup():
    buf = "<r><abcdefghij"
    assert _PLAIN_TAG.match(buf, 3) is None
    with pytest.raises(xml_parser._More):
        _markup(buf, 3, False, 0, [])
    # a short tail is never matched while more input may come
    assert not _assert_shortcut_agrees("<r><a/>", 3, False)


def _token_stream(text, chunk_size):
    tokens = []
    try:
        for token in _tokens(ChunkFeeder(io.StringIO(text), chunk_size)):
            tokens.append(
                ("error", token[1].category, token[1].position)
                if token[0] == "error"
                else token
            )
    except XMLParseError as exc:
        tokens.append(("raised", exc.category, exc.position))
    return tokens


def test_tokens_are_unchanged_without_the_shortcut(monkeypatch):
    texts = [text for index, text in enumerate(_documents()) if index % 3 == 0]
    expected = {
        (index, size): _token_stream(text, size)
        for index, text in enumerate(texts)
        for size in (1, 2, 5, 9, 10, 64)
    }
    monkeypatch.setattr(xml_parser, "_PLAIN_TAG", re.compile(r"(?!)"))
    for (index, size), tokens in expected.items():
        assert _token_stream(texts[index], size) == tokens, (index, size)
