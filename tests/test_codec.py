"""Wire codec: framing, varint, strict/permissive decode, splicing."""

import dataclasses
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mqttprobe import codec
from mqttprobe.codec import (
    Connack,
    Connect,
    DecodeMode,
    IncompleteFrame,
    MalformedFrame,
    OutOfBounds,
    OutOfRange,
    Pingreq,
    Puback,
    Publish,
    Pubrel,
    Subscribe,
    Will,
    decode_packet,
    decode_remaining_length,
    encode_packet,
    encode_remaining_length,
    splice,
)
import reference_codec
from genpackets import random_valid_packet

# ---------------------------------------------------------------------------
# Remaining-length varint

VARINT_BOUNDARIES = [
    (0, b"\x00"),
    (127, b"\x7f"),
    (128, b"\x80\x01"),
    (16_383, b"\xff\x7f"),
    (16_384, b"\x80\x80\x01"),
    (2_097_151, b"\xff\xff\x7f"),
    (2_097_152, b"\x80\x80\x80\x01"),
    (268_435_455, b"\xff\xff\xff\x7f"),
]


@pytest.mark.parametrize("value,wire", VARINT_BOUNDARIES)
def test_varint_boundary_encodings(value, wire):
    assert encode_remaining_length(value) == wire
    assert decode_remaining_length(wire) == (value, len(wire))


def test_varint_known_example():
    assert encode_remaining_length(321) == b"\xc1\x02"
    assert decode_remaining_length(b"\xc1\x02\xaa") == (321, 2)


def test_varint_truncated_is_incomplete():
    with pytest.raises(IncompleteFrame):
        decode_remaining_length(b"\x80")
    with pytest.raises(IncompleteFrame):
        decode_remaining_length(b"")


def test_varint_five_bytes_is_malformed():
    with pytest.raises(MalformedFrame):
        decode_remaining_length(b"\xff\xff\xff\xff")


def test_varint_out_of_range():
    with pytest.raises(OutOfRange):
        encode_remaining_length(codec.MAX_REMAINING_LENGTH + 1)
    with pytest.raises(OutOfRange):
        encode_remaining_length(-1)


def test_varint_nonminimal_accepted_at_varint_level():
    # The raw varint reader tolerates padding; packet-level decode flags it.
    assert decode_remaining_length(b"\x80\x00") == (0, 2)


@given(st.integers(min_value=0, max_value=codec.MAX_REMAINING_LENGTH))
def test_varint_round_trip_and_minimality(value):
    wire = encode_remaining_length(value)
    assert decode_remaining_length(wire) == (value, len(wire))
    expected_len = 1 if value == 0 else -(-value.bit_length() // 7)
    assert len(wire) == expected_len


# ---------------------------------------------------------------------------
# Frozen frame examples

def test_pingreq_bytes():
    assert encode_packet(Pingreq()) == b"\xc0\x00"
    assert decode_packet(b"\xc0\x00") == (Pingreq(), [], 2)


def test_pubrel_fixed_flags():
    # Flag nibble must be 0b0010 for PUBREL.
    assert encode_packet(Pubrel(packet_id=1)) == bytes.fromhex("62020001")


def test_pubrel_wrong_flags_rejected_strict():
    frame = bytes.fromhex("60020001")
    with pytest.raises(MalformedFrame):
        decode_packet(frame, DecodeMode.STRICT)
    pkt, notes, used = decode_packet(frame, DecodeMode.PERMISSIVE)
    assert pkt == Pubrel(packet_id=1)
    assert codec.A_RESERVED_FLAGS in notes
    assert used == 4


def test_connect_round_trip_with_will_and_auth():
    original = Connect(
        client_id=b"probe-1",
        clean_session=False,
        keep_alive=30,
        will=Will(topic=b"gone", payload=b"bye", qos=1, retain=True),
        username=b"u",
        password=b"p",
    )
    frame = encode_packet(original)
    assert decode_packet(frame, DecodeMode.STRICT) == (original, [], len(frame))


def test_connect_non_utf8_client_id_annotated():
    frame = encode_packet(Connect(client_id=b"\xff\xfe"))
    with pytest.raises(MalformedFrame):
        decode_packet(frame, DecodeMode.STRICT)
    pkt, notes, used = decode_packet(frame, DecodeMode.PERMISSIVE)
    assert pkt.client_id == b"\xff\xfe"
    assert codec.A_CLIENT_ID_NOT_UTF8 in notes
    assert used == len(frame)


def test_packet_id_zero_annotated():
    frame = bytes.fromhex("62020000")
    with pytest.raises(MalformedFrame) as exc:
        decode_packet(frame, DecodeMode.STRICT)
    assert exc.value.frame_length == 4
    pkt, notes, _ = decode_packet(frame, DecodeMode.PERMISSIVE)
    assert pkt == Pubrel(packet_id=0)
    assert codec.A_PACKET_ID_ZERO in notes


def test_nonminimal_length_annotated():
    frame = b"\xc0\x80\x00"
    pkt, notes, used = decode_packet(frame, DecodeMode.PERMISSIVE)
    assert pkt == Pingreq()
    assert codec.A_LENGTH_NOT_MINIMAL in notes
    assert used == 3
    with pytest.raises(MalformedFrame):
        decode_packet(frame, DecodeMode.STRICT)


def test_publish_qos3_annotated():
    # Type 3, flags 0b0110 -> qos 3.
    frame = bytes.fromhex("3606000174000170")
    pkt, notes, _ = decode_packet(frame, DecodeMode.PERMISSIVE)
    assert codec.A_PUBLISH_QOS_3 in notes
    with pytest.raises(MalformedFrame):
        decode_packet(frame, DecodeMode.STRICT)


def test_truncated_body_is_incomplete():
    frame = encode_packet(Publish(topic=b"a/b", payload=b"x" * 10))
    for cut in range(len(frame)):
        with pytest.raises(IncompleteFrame):
            decode_packet(frame[:cut], DecodeMode.PERMISSIVE)


def test_malformed_reports_frame_length_for_resync():
    # A complete frame whose body is garbage must report its own span so a
    # stream reader can skip exactly that frame and keep going.
    frame = encode_packet(Connect(client_id=b"ok"))
    broken = splice(frame, len(frame) - 1, 1, b"", True)  # drop last byte
    with pytest.raises(MalformedFrame) as exc:
        decode_packet(broken, DecodeMode.PERMISSIVE)
    assert exc.value.frame_length == len(broken)


@st.composite
def _mixed_frames(draw):
    """Valid frames, some cut short by a byte (often malformed) or with flag bit 0 flipped."""
    frames = []
    for seed in draw(st.lists(st.integers(0, 2**32), max_size=12)):
        frame = encode_packet(random_valid_packet(random.Random(seed)))
        bent = draw(st.sampled_from(["valid", "truncated", "flagged"]))
        if bent == "truncated" and len(frame) > 2:
            frame = splice(frame, len(frame) - 1, 1, b"", True)
        elif bent == "flagged":
            frame = bytes([frame[0] ^ 1]) + frame[1:]
        frames.append(frame)
    return frames


def _read_stream(chunks):
    """(packet, annotations, frame bytes) per frame, read as chunks arrive the way the runner does."""
    buf, got = bytearray(), []
    for chunk in chunks:
        buf += chunk
        pos = 0
        with memoryview(buf) as view:
            while (read := codec.read_frame(view, pos)) is not None:
                packet, annotations, end = read
                got.append((packet, annotations, bytes(view[pos:end])))
                pos = end
        del buf[:pos]
    assert not buf
    return got


@given(_mixed_frames(), st.lists(st.integers(0, 1 << 16), max_size=8))
def test_read_frame_gives_the_same_frames_however_the_stream_is_split(frames, cuts):
    stream = b"".join(frames)
    whole = _read_stream([stream])
    # The malformed ones resync on their fixed header's length.
    assert [frame for _, _, frame in whole] == frames
    assert all(annotations[0] for packet, annotations, _ in whole if packet is None)
    bounds = [0, *sorted(cut % (len(stream) + 1) for cut in cuts), len(stream)]
    assert _read_stream(stream[a:b] for a, b in zip(bounds, bounds[1:])) == whole


def test_read_frame_reads_at_an_offset_and_resyncs_to_the_end_without_a_header():
    frame = encode_packet(Pingreq())
    assert codec.read_frame(frame * 2, 2) == (Pingreq(), [], 4)
    assert codec.read_frame(frame + b"\xc0", 2) is None
    assert codec.read_frame(frame + b"\x00\x05ab", 2) == (None, ["reserved packet type 0"], 6)


def test_decode_copies_a_large_payload_once():
    # Only the fields a packet returns are copied out of the caller's
    # buffer, so a large PUBLISH is held once more, not twice.
    payload_size = 8 * 1024 * 1024
    frame = encode_packet(Publish(topic=b"big", payload=bytes(payload_size), qos=1,
                                  packet_id=1))
    with memoryview(frame) as view:
        tracemalloc.start()
        try:
            packet, _, consumed = decode_packet(view, DecodeMode.STRICT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert consumed == len(frame) and len(packet.payload) == payload_size
    assert peak <= 1.25 * payload_size


# ---------------------------------------------------------------------------
# Splice

def test_splice_identity():
    frame = encode_packet(Connect(client_id=b"abc"))
    assert splice(frame, 0, 0, b"", True) == frame


def test_splice_lying_length_without_fixup():
    assert splice(b"\xc0\x00", 1, 1, b"\x05", False) == b"\xc0\x05"
    with pytest.raises(IncompleteFrame):
        decode_packet(b"\xc0\x05", DecodeMode.STRICT)


def test_splice_insert_with_fixup_keeps_frame_decodable():
    frame = encode_packet(Publish(topic=b"t", payload=b"xy"))
    grown = splice(frame, len(frame), 0, b"zz", True)
    pkt, notes, used = decode_packet(grown, DecodeMode.PERMISSIVE)
    assert used == len(grown)
    assert pkt.payload == b"xyzz"
    assert notes == []


def test_splice_remove_with_fixup():
    frame = encode_packet(Publish(topic=b"t", payload=b"abcd"))
    shrunk = splice(frame, len(frame) - 2, 2, b"", True)
    pkt, _, _ = decode_packet(shrunk, DecodeMode.PERMISSIVE)
    assert pkt.payload == b"ab"


def test_splice_out_of_bounds():
    with pytest.raises(OutOfBounds):
        splice(b"\xc0\x00", 5, 0, b"", True)
    with pytest.raises(OutOfBounds):
        splice(b"\xc0\x00", 1, 5, b"", True)


# ---------------------------------------------------------------------------
# Properties

@given(st.integers(min_value=0, max_value=2**64))
def test_random_seed_round_trip(seed):
    rng = random.Random(seed)
    pkt = random_valid_packet(rng)
    frame = encode_packet(pkt)
    assert decode_packet(frame, DecodeMode.STRICT) == (pkt, [], len(frame))


@given(st.binary(max_size=64))
@settings(max_examples=500)
def test_permissive_decode_is_total(blob):
    # Arbitrary bytes either decode, or raise a codec exception; nothing else.
    try:
        pkt, notes, used = decode_packet(blob, DecodeMode.PERMISSIVE)
    except (IncompleteFrame, MalformedFrame):
        return
    assert 0 < used <= len(blob)
    assert isinstance(notes, list)


@given(st.binary(max_size=64))
@settings(max_examples=500)
def test_strict_rejects_everything_permissive_annotates(blob):
    try:
        _, notes, _ = decode_packet(blob, DecodeMode.PERMISSIVE)
    except (IncompleteFrame, MalformedFrame):
        return
    if notes:
        with pytest.raises(MalformedFrame):
            decode_packet(blob, DecodeMode.STRICT)
    else:
        decode_packet(blob, DecodeMode.STRICT)


def test_dup_on_qos0_annotated():
    frame = encode_packet(Publish(topic=b"t", payload=b"", qos=0, dup=True))
    _, notes, _ = decode_packet(frame, DecodeMode.PERMISSIVE)
    assert codec.A_DUP_ON_QOS0 in notes


def test_subscribe_empty_annotated():
    frame = encode_packet(Subscribe(packet_id=1, entries=()))
    _, notes, _ = decode_packet(frame, DecodeMode.PERMISSIVE)
    assert codec.A_SUBSCRIBE_EMPTY in notes


def test_connack_bad_return_code_annotated():
    # The encoder refuses to build one, so splice the byte in directly.
    with pytest.raises(codec.InvariantViolation):
        encode_packet(Connack(return_code=200))
    frame = bytes.fromhex("200200c8")
    pkt, notes, _ = decode_packet(frame, DecodeMode.PERMISSIVE)
    assert pkt.return_code == 200
    assert codec.A_CONNACK_RETURN_CODE in notes


def test_puback_encodes_two_byte_id():
    assert encode_packet(Puback(packet_id=0xABCD)) == bytes.fromhex("4002abcd")


# ---------------------------------------------------------------------------
# Differential: the codec against the reference it replaced

# The ci profile (tests/conftest.py) raises the default, and with it these sweeps.
SWEEP = settings(max_examples=max(500, settings.default.max_examples))


def _varint(value, width):
    """``value`` as a varint of ``width`` bytes, zero-padded when that is more than it needs."""
    digits = [(value >> (7 * i)) & 0x7F for i in range(width)]
    return bytes(d | 0x80 for d in digits[:-1]) + bytes(digits[-1:])


@st.composite
def wire_inputs(draw):
    """A generated frame, bent by some of: packet id 0, reserved flags, a
    non-minimal or lying length, trailing bytes, truncation; or raw bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64))
    packet = random_valid_packet(random.Random(draw(st.integers(0, 2**32))))
    if getattr(packet, "packet_id", None) is not None and draw(st.booleans()):
        packet = dataclasses.replace(packet, packet_id=0)
    frame = reference_codec.encode_packet(packet)
    length, used = reference_codec.decode_remaining_length(frame[1:5])
    first, body = frame[0], frame[1 + used:]
    if draw(st.booleans()):
        first = first & 0xF0 | draw(st.integers(0, 15))
    if draw(st.booleans()):
        body += draw(st.binary(min_size=1, max_size=8))
    length = len(body)
    if draw(st.booleans()):
        length = max(0, length + draw(st.integers(-4, 4)))
    width = len(encode_remaining_length(length))
    frame = bytes([first]) + _varint(length, draw(st.integers(width, 4))) + body
    if draw(st.booleans()):
        frame = frame[:draw(st.integers(0, len(frame)))]
    return frame


def _decoded(decode, data, mode):
    try:
        return decode(data, mode)
    except MalformedFrame as exc:
        return MalformedFrame, exc.reason, exc.frame_length
    except IncompleteFrame as exc:
        return IncompleteFrame, str(exc)


@pytest.mark.parametrize("mode", list(DecodeMode))
@given(wire_inputs())
@SWEEP
@example(bytes.fromhex("3080808080"))
@example(bytes.fromhex("308080808001"))
@example(bytes.fromhex("30808080"))
@example(bytes.fromhex("308000"))
@example(b"\xf0\x00")
@example(b"\x30")
@example(b"")
def test_decode_matches_the_reference(mode, data):
    expected = _decoded(reference_codec.decode_packet, data, mode)
    assert _decoded(decode_packet, data, mode) == expected
    # As a stream reader passes it: a view into a larger buffer.
    with memoryview(bytearray(b"\xff" + data + b"\x00")) as view:
        assert _decoded(decode_packet, view[1:len(data) + 1], mode) == expected


def _encoded(encode, packet):
    try:
        return encode(packet)
    except codec.InvariantViolation as exc:
        return codec.InvariantViolation, exc.field, exc.reason


_IDS = st.sampled_from([None, -1, 0, 1, 0x7F, 0x80, 0xFFFF, 0x10000])
_TOPICS = st.binary(max_size=200) | st.sampled_from([b"t" * 65_535, b"t" * 65_536])
_ODD_PACKETS = st.one_of(
    st.builds(Publish, _TOPICS, st.binary(max_size=300), st.integers(-1, 3), _IDS,
              st.booleans(), st.booleans()),
    st.builds(Connack, st.booleans(), st.integers(-1, 6)),
    *(st.builds(cls, _IDS.filter(lambda i: i is not None))
      for cls in (Puback, codec.Pubrec, Pubrel, codec.Pubcomp, codec.Unsuback)),
    st.builds(Subscribe, _IDS.filter(lambda i: i is not None),
              st.lists(st.tuples(_TOPICS, st.integers(-1, 3)), max_size=3)),
    st.builds(codec.Suback, _IDS.filter(lambda i: i is not None),
              st.lists(st.sampled_from([0, 1, 2, 3, 0x80, 0xFF]), max_size=3)),
    st.builds(codec.Unsubscribe, _IDS.filter(lambda i: i is not None),
              st.lists(_TOPICS, max_size=3)),
    st.builds(Connect, st.binary(max_size=20), st.booleans(), st.integers(-1, 0x10000),
              st.sampled_from([b"MQTT", b"t" * 65_536]), st.integers(-1, 256),
              st.none() | st.builds(Will, _TOPICS, st.binary(max_size=20),
                                    st.integers(-1, 3), st.booleans()),
              st.none() | st.binary(max_size=8), st.none() | st.binary(max_size=8)),
    st.builds(codec.Raw, st.binary(max_size=20)),
)


@given(st.integers(0, 2**32) | _ODD_PACKETS)
@SWEEP
def test_encode_matches_the_reference(drawn):
    packet = random_valid_packet(random.Random(drawn)) if isinstance(drawn, int) else drawn
    assert _encoded(encode_packet, packet) == _encoded(reference_codec.encode_packet, packet)
