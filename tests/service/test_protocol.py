"""Wire framing: round trips, bounds, and damage handling."""

import asyncio
import json
import struct

import pytest

from repro.errors import (
    BadRequest,
    DeadlineExceeded,
    ProtocolError,
    ResponseTooLarge,
    ServiceError,
    ServiceOverloaded,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    EncodedResult,
    encode_frame,
    encode_result,
    error_from_response,
    error_response,
    ok_response,
    read_frame,
    request,
)


def reader_of(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def read_all(data: bytes, **kwargs):
    async def scenario():
        reader = reader_of(data)
        frames = []
        while True:
            frame = await read_frame(reader, **kwargs)
            if frame is None:
                return frames
            frames.append(frame)

    return asyncio.run(scenario())


def test_round_trip_single_frame():
    message = request("r1", "rpq", {"store": "g", "expr": "p*"}, 250.0)
    assert read_all(encode_frame(message)) == [message]


def test_round_trip_many_frames_back_to_back():
    messages = [
        ok_response(f"id{i}", {"value": i}, served_from="engine")
        for i in range(20)
    ]
    data = b"".join(encode_frame(m) for m in messages)
    assert read_all(data) == messages


def test_unicode_payload_survives():
    message = ok_response("u", {"text": "café ≤ ∞ ☃"})
    assert read_all(encode_frame(message)) == [message]


RESULTS = [
    {"semantics": "walk", "pairs": [["a", "c"], ["b", "d"]], "count": 2},
    {"valid": True, "rows": [{"x": '"café ≤ ∞ ☃"'}], "count": 1},
    {"valid": False, "record": None, "reason": 'bad "quote" \\ \n'},
    {},
    [],
    "plain text",
    None,
]


@pytest.mark.parametrize("result", RESULTS)
def test_spliced_result_decodes_like_the_plain_encoding(result):
    envelopes = [
        {**ok_response("r1", None, served_from="cache"), "v": 2},
        ok_response("r2", None),
        {},
    ]
    for envelope in envelopes:
        plain = {**envelope, "result": result}
        spliced = {**envelope, "result": encode_result(result)}
        text = json.dumps(plain, ensure_ascii=False, separators=(",", ":"))
        old_frame = struct.pack(">I", len(text.encode())) + text.encode()
        assert read_all(encode_frame(spliced)) == read_all(old_frame)
        assert read_all(encode_frame(spliced)) == [plain]


def test_a_plain_string_result_is_still_a_json_string():
    message = ok_response("s", '{"not": "spliced"}')
    assert read_all(encode_frame(message)) == [message]


def test_spliced_result_past_the_frame_bound_is_rejected():
    # the text alone fits; the envelope around it does not
    result = EncodedResult(json.dumps("x" * (MAX_FRAME_BYTES - 2)))
    assert len(result.encode("utf-8")) == MAX_FRAME_BYTES
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_frame(ok_response("big", result, served_from="cache"))


def test_a_result_without_room_for_its_envelope_is_refused(monkeypatch):
    from repro.service import protocol

    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
    room = 4096 - protocol.RESULT_ENVELOPE_BYTES
    assert len(encode_result("é" * ((room - 2) // 2)).encode("utf-8")) <= room
    with pytest.raises(ResponseTooLarge):
        encode_result("é" * (room // 2))


def test_clean_eof_between_frames_is_none():
    assert read_all(b"") == []


def test_eof_inside_header_is_protocol_error():
    with pytest.raises(ProtocolError):
        read_all(b"\x00\x00")


def test_eof_inside_payload_is_protocol_error():
    data = encode_frame({"id": "x", "op": "ping", "params": {}})
    with pytest.raises(ProtocolError):
        read_all(data[:-3])


def test_oversized_declared_length_rejected_before_read():
    data = struct.pack(">I", 1 << 30) + b"x" * 16
    with pytest.raises(ProtocolError, match="exceeds"):
        read_all(data)


def test_max_bytes_parameter_enforced():
    message = {"id": "big", "op": "ping", "params": {"pad": "y" * 200}}
    with pytest.raises(ProtocolError):
        read_all(encode_frame(message), max_bytes=64)


def test_non_object_payload_rejected():
    payload = json.dumps([1, 2, 3]).encode()
    with pytest.raises(ProtocolError, match="JSON object"):
        read_all(struct.pack(">I", len(payload)) + payload)


def test_garbage_payload_rejected():
    payload = b"\xff\xfe not json"
    with pytest.raises(ProtocolError, match="JSON"):
        read_all(struct.pack(">I", len(payload)) + payload)


def test_error_response_reconstructs_typed_exceptions():
    for exc_type in (ServiceOverloaded, DeadlineExceeded, BadRequest):
        response = error_response("r", exc_type.code, "boom")
        rebuilt = error_from_response(response)
        assert type(rebuilt) is exc_type
        assert str(rebuilt) == "boom"


def test_unknown_error_code_falls_back_to_service_error():
    rebuilt = error_from_response(error_response("r", "internal", "bug"))
    assert type(rebuilt) is ServiceError


def test_deadline_is_optional_in_requests():
    assert "deadline_ms" not in request("r", "ping")
    assert request("r", "ping", deadline_ms=5.0)["deadline_ms"] == 5.0
