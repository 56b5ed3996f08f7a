"""MQTT 3.1.1 wire codec.

Packets are plain frozen dataclasses holding raw byte strings, so
deliberately nonconformant values (non-UTF-8 client ids, wildcard
publish topics, packet id 0) stay representable.  ``encode_packet``
refuses only what cannot be framed at all; ``decode_packet`` runs in
two modes: STRICT rejects any protocol violation, PERMISSIVE returns a
best-effort packet plus one annotation per violation.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum

MAX_REMAINING_LENGTH = 268_435_455
MAX_STRING = 65_535


class PacketType(IntEnum):
    CONNECT = 1
    CONNACK = 2
    PUBLISH = 3
    PUBACK = 4
    PUBREC = 5
    PUBREL = 6
    PUBCOMP = 7
    SUBSCRIBE = 8
    SUBACK = 9
    UNSUBSCRIBE = 10
    UNSUBACK = 11
    PINGREQ = 12
    PINGRESP = 13
    DISCONNECT = 14


class DecodeMode(Enum):
    STRICT = "strict"
    PERMISSIVE = "permissive"


# Annotation codes attached by permissive decoding.  Stable strings:
# the oracle and the reference broker key off them.
A_RESERVED_FLAGS = "reserved-flags"
A_LENGTH_NOT_MINIMAL = "length-not-minimal"
A_TRAILING_BYTES = "trailing-bytes"
A_PACKET_ID_ZERO = "packet-id-zero"
A_PUBLISH_QOS_3 = "publish-qos-3"
A_DUP_ON_QOS0 = "dup-on-qos0"
A_TOPIC_NOT_UTF8 = "topic-not-utf8"
A_FILTER_NOT_UTF8 = "filter-not-utf8"
A_CLIENT_ID_NOT_UTF8 = "client-id-not-utf8"
A_CONNECT_RESERVED_FLAG = "connect-reserved-flag"
A_WILL_QOS_INVALID = "will-qos-invalid"
A_WILL_FLAGS_WITHOUT_WILL = "will-flags-without-will"
A_PASSWORD_WITHOUT_USERNAME = "password-without-username"
A_CONNACK_FLAGS = "connack-flags"
A_CONNACK_RETURN_CODE = "connack-return-code"
A_SUBSCRIBE_EMPTY = "subscribe-empty"
A_SUBSCRIBE_QOS_INVALID = "subscribe-qos-invalid"
A_UNSUBSCRIBE_EMPTY = "unsubscribe-empty"
A_SUBACK_EMPTY = "suback-empty"
A_SUBACK_RETURN_CODE = "suback-return-code"


class CodecError(Exception):
    """Base class for codec failures."""


class IncompleteFrame(CodecError):
    """More bytes are required before the frame can be decoded."""


class MalformedFrame(CodecError):
    """The bytes cannot be parsed into a packet, even permissively.

    ``frame_length`` is set when the fixed header was readable, so a
    stream reader can discard exactly the offending frame and resync.
    """

    def __init__(self, reason: str, frame_length: int | None = None):
        super().__init__(reason)
        self.reason = reason
        self.frame_length = frame_length


class InvariantViolation(CodecError):
    """A packet field cannot be represented on the wire."""

    def __init__(self, field_name: str, reason: str):
        super().__init__(f"{field_name}: {reason}")
        self.field = field_name
        self.reason = reason


class OutOfRange(CodecError):
    """Value exceeds the four-byte remaining-length limit."""


class OutOfBounds(CodecError):
    """Splice range falls outside the frame."""


def encode_remaining_length(value: int) -> bytes:
    """Encode an int as an MQTT variable-length quantity (1-4 bytes)."""
    if value < 0 or value > MAX_REMAINING_LENGTH:
        raise OutOfRange(f"remaining length {value} outside 0..{MAX_REMAINING_LENGTH}")
    out = bytearray()
    while True:
        value, digit = divmod(value, 128)
        if value:
            out.append(digit | 0x80)
        else:
            out.append(digit)
            return bytes(out)


def decode_remaining_length(data: bytes) -> tuple[int, int]:
    """Decode a variable-length quantity, returning (value, consumed).

    Raises IncompleteFrame if the continuation bit runs past the buffer
    and MalformedFrame if a fourth continuation bit is set.
    """
    return _read_length(data, 0)


def _read_length(data: bytes | memoryview, pos: int) -> tuple[int, int]:
    """The varint of at most four bytes at ``data[pos]``: (value, offset after it)."""
    value = 0
    for shift in (0, 7, 14, 21):
        if pos >= len(data):
            raise IncompleteFrame("remaining length truncated")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
    raise MalformedFrame("remaining length exceeds four bytes")


def _encode_string(data: bytes, field_name: str) -> bytes:
    if len(data) > MAX_STRING:
        raise InvariantViolation(field_name, f"{len(data)} bytes exceeds {MAX_STRING}")
    return len(data).to_bytes(2, "big") + data


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        return False
    return True


@dataclass(frozen=True)
class Will:
    topic: bytes
    payload: bytes
    qos: int = 0
    retain: bool = False


@dataclass(frozen=True)
class Connect:
    client_id: bytes = b""
    clean_session: bool = True
    keep_alive: int = 60
    protocol_name: bytes = b"MQTT"
    protocol_level: int = 4
    will: Will | None = None
    username: bytes | None = None
    password: bytes | None = None


@dataclass(frozen=True)
class Connack:
    session_present: bool = False
    return_code: int = 0


@dataclass(frozen=True)
class Publish:
    topic: bytes
    payload: bytes = b""
    qos: int = 0
    packet_id: int | None = None
    retain: bool = False
    dup: bool = False


@dataclass(frozen=True)
class Puback:
    packet_id: int


@dataclass(frozen=True)
class Pubrec:
    packet_id: int


@dataclass(frozen=True)
class Pubrel:
    packet_id: int


@dataclass(frozen=True)
class Pubcomp:
    packet_id: int


@dataclass(frozen=True)
class Subscribe:
    packet_id: int
    # (topic filter, requested qos) pairs
    entries: tuple[tuple[bytes, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple((bytes(f), q) for f, q in self.entries))


@dataclass(frozen=True)
class Suback:
    packet_id: int
    return_codes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "return_codes", tuple(self.return_codes))


@dataclass(frozen=True)
class Unsubscribe:
    packet_id: int
    filters: tuple[bytes, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "filters", tuple(bytes(f) for f in self.filters))


@dataclass(frozen=True)
class Unsuback:
    packet_id: int


@dataclass(frozen=True)
class Pingreq:
    pass


@dataclass(frozen=True)
class Pingresp:
    pass


@dataclass(frozen=True)
class Disconnect:
    pass


@dataclass(frozen=True)
class Raw:
    """Pre-framed bytes, emitted verbatim; decode never produces one."""

    data: bytes = field(default=b"")


Packet = (
    Connect | Connack | Publish | Puback | Pubrec | Pubrel | Pubcomp
    | Subscribe | Suback | Unsubscribe | Unsuback
    | Pingreq | Pingresp | Disconnect | Raw
)

# Packet class -> (packet type, fixed-header flag nibble); PUBLISH sets
# its own flags.
_HEADERS = {
    Connect: (PacketType.CONNECT, 0),
    Connack: (PacketType.CONNACK, 0),
    Publish: (PacketType.PUBLISH, 0),
    Puback: (PacketType.PUBACK, 0),
    Pubrec: (PacketType.PUBREC, 0),
    Pubrel: (PacketType.PUBREL, 2),
    Pubcomp: (PacketType.PUBCOMP, 0),
    Subscribe: (PacketType.SUBSCRIBE, 2),
    Suback: (PacketType.SUBACK, 0),
    Unsubscribe: (PacketType.UNSUBSCRIBE, 2),
    Unsuback: (PacketType.UNSUBACK, 0),
    Pingreq: (PacketType.PINGREQ, 0),
    Pingresp: (PacketType.PINGRESP, 0),
    Disconnect: (PacketType.DISCONNECT, 0),
}
# Fixed-header byte and one-byte remaining length, then a big-endian u16.
_HEAD_U16 = struct.Struct(">BBH").pack
_U16 = struct.Struct(">H").pack


def _check_packet_id(value: int, field_name: str = "packet_id") -> None:
    if not 0 <= value <= 0xFFFF:
        raise InvariantViolation(field_name, f"{value} outside 0..65535")


def _frame(ptype: PacketType, flags: int, body: bytes) -> bytes:
    if len(body) > MAX_REMAINING_LENGTH:
        raise InvariantViolation("remaining_length", f"body of {len(body)} bytes exceeds {MAX_REMAINING_LENGTH}")
    return bytes([(ptype << 4) | flags]) + encode_remaining_length(len(body)) + body


def encode_packet(packet: Packet) -> bytes:
    """Serialize a packet to a complete frame.

    Raises InvariantViolation naming the offending field when the
    packet cannot be framed (qos out of range, overlong strings, a
    packet id where none belongs).  Deliberate protocol violations that
    are frameable (packet id 0, wildcard topics, non-UTF-8 strings) are
    encoded as-is; breaking frames beyond that is what Raw and splice
    are for.
    """
    encode = _ENCODERS.get(type(packet))
    if encode is None:
        raise InvariantViolation("packet", f"unsupported packet {packet!r}")
    return encode(packet)


def _encode_publish(packet: Publish) -> bytes:
    qos, packet_id = packet.qos, packet.packet_id
    if not 0 <= qos <= 2:
        raise InvariantViolation("qos", f"{qos} outside 0..2")
    if qos == 0 and packet_id is not None:
        raise InvariantViolation("packet_id", "present on a qos 0 publish")
    if qos > 0 and packet_id is None:
        raise InvariantViolation("packet_id", f"missing on a qos {qos} publish")
    topic, payload = packet.topic, packet.payload
    if len(topic) > MAX_STRING:
        raise InvariantViolation("topic", f"{len(topic)} bytes exceeds {MAX_STRING}")
    length = 2 + len(topic) + len(payload)
    if packet_id is None:
        packet_id_bytes = b""
    else:
        _check_packet_id(packet_id)
        packet_id_bytes = _U16(packet_id)
        length += 2
    if length > MAX_REMAINING_LENGTH:
        raise InvariantViolation("remaining_length", f"body of {length} bytes exceeds {MAX_REMAINING_LENGTH}")
    first = 0x30 | qos << 1 | (0x08 if packet.dup else 0) | (0x01 if packet.retain else 0)
    if length < 0x80:
        head = _HEAD_U16(first, length, len(topic))
    else:
        head = bytes((first,)) + encode_remaining_length(length) + _U16(len(topic))
    return b"".join((head, topic, packet_id_bytes, payload))


def _id_encoder(cls: type):
    """The encoder of a packet whose body is its packet id alone."""
    ptype, flags = _HEADERS[cls]
    first = ptype << 4 | flags

    def encode(packet) -> bytes:
        _check_packet_id(packet.packet_id)
        return _HEAD_U16(first, 2, packet.packet_id)
    return encode


def _encode_body(packet: Packet) -> bytes:
    """CONNACK, SUBSCRIBE, SUBACK, UNSUBSCRIBE and the packets without a body."""
    cls = type(packet)
    body = bytearray()
    if cls is Connack:
        if not 0 <= packet.return_code <= 5:
            raise InvariantViolation("return_code", f"{packet.return_code} outside 0..5")
        body += bytes([1 if packet.session_present else 0, packet.return_code])
    elif "packet_id" in cls.__dataclass_fields__:  # every other body starts with it
        _check_packet_id(packet.packet_id)
        body += _U16(packet.packet_id)
        if cls is Subscribe:
            for i, (topic_filter, qos) in enumerate(packet.entries):
                if not 0 <= qos <= 2:
                    raise InvariantViolation(f"entries[{i}].qos", f"{qos} outside 0..2")
                body += _encode_string(topic_filter, f"entries[{i}].filter")
                body.append(qos)
        elif cls is Suback:
            for i, code in enumerate(packet.return_codes):
                if code not in (0, 1, 2, 0x80):
                    raise InvariantViolation(f"return_codes[{i}]", f"{code} not in {{0, 1, 2, 0x80}}")
            body += bytes(packet.return_codes)
        else:
            for i, topic_filter in enumerate(packet.filters):
                body += _encode_string(topic_filter, f"filters[{i}]")
    return _frame(*_HEADERS[cls], bytes(body))


def _encode_connect(packet: Connect) -> bytes:
    if not 0 <= packet.keep_alive <= 0xFFFF:
        raise InvariantViolation("keep_alive", f"{packet.keep_alive} outside 0..65535")
    if not 0 <= packet.protocol_level <= 0xFF:
        raise InvariantViolation("protocol_level", f"{packet.protocol_level} outside 0..255")
    flags = 0
    if packet.clean_session:
        flags |= 0x02
    if packet.will is not None:
        if not 0 <= packet.will.qos <= 2:
            raise InvariantViolation("will.qos", f"{packet.will.qos} outside 0..2")
        flags |= 0x04 | (packet.will.qos << 3)
        if packet.will.retain:
            flags |= 0x20
    if packet.username is not None:
        flags |= 0x80
    if packet.password is not None:
        flags |= 0x40
    body = bytearray()
    body += _encode_string(packet.protocol_name, "protocol_name")
    body.append(packet.protocol_level)
    body.append(flags)
    body += packet.keep_alive.to_bytes(2, "big")
    body += _encode_string(packet.client_id, "client_id")
    if packet.will is not None:
        body += _encode_string(packet.will.topic, "will.topic")
        body += _encode_string(packet.will.payload, "will.payload")
    if packet.username is not None:
        body += _encode_string(packet.username, "username")
    if packet.password is not None:
        body += _encode_string(packet.password, "password")
    return _frame(PacketType.CONNECT, 0, bytes(body))


# Packet class -> its encoder.
_ENCODERS = {
    **dict.fromkeys(_HEADERS, _encode_body),
    **{cls: _id_encoder(cls) for cls in (Puback, Pubrec, Pubrel, Pubcomp, Unsuback)},
    Raw: operator.attrgetter("data"),
    Connect: _encode_connect,
    Publish: _encode_publish,
}


class _Body:
    """Cursor over one frame body in the caller's buffer.

    Reads between offsets instead of copying the body, so only the
    fields taken are copied out; overruns raise MalformedFrame.
    """

    def __init__(self, data: bytes | memoryview, start: int, end: int):
        self.data = data
        self.pos = start
        self.end = end

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > self.end:
            # The frame starts at offset 0, so its end is its length.
            raise MalformedFrame(f"{what} overruns the frame body", self.end)
        chunk = bytes(self.data[self.pos:self.pos + n])
        self.pos += n
        return chunk

    def take_u16(self, what: str) -> int:
        return int.from_bytes(self.take(2, what), "big")

    def take_string(self, what: str) -> bytes:
        return self.take(self.take_u16(f"{what} length"), what)

    @property
    def remaining(self) -> int:
        return self.end - self.pos


def decode_packet(data: bytes | memoryview,
                  mode: DecodeMode = DecodeMode.STRICT) -> tuple[Packet, list[str], int]:
    """Decode one frame from the start of ``data``.

    Returns (packet, annotations, consumed).  STRICT mode raises
    MalformedFrame whenever PERMISSIVE mode would have annotated;
    IncompleteFrame means the buffer ends mid-frame and more bytes may
    complete it.  Only the decoded fields are copied, so a stream reader
    can pass a memoryview of its buffer from an offset.
    """
    size = len(data)
    if not size:
        raise IncompleteFrame("empty buffer")
    first = data[0]
    entry = _DECODERS[first >> 4]
    if entry is None:
        raise MalformedFrame(f"reserved packet type {first >> 4}")
    if size < 2:
        raise IncompleteFrame("remaining length truncated")
    if data[1] < 0x80:
        length, start = data[1], 2
    else:
        length, start = _read_length(data, 1)
    end = start + length
    if size < end:
        raise IncompleteFrame(f"need {end} bytes, have {size}")

    annotations: list[str] = []
    # A longer varint than needed ends in a zero byte.
    if start > 2 and not data[start - 1]:
        annotations.append(A_LENGTH_NOT_MINIMAL)
    decode, cls, fixed_flags = entry
    if cls is not Publish and first & 0x0F != fixed_flags:
        annotations.append(A_RESERVED_FLAGS)
    packet = decode(cls, data, first, start, end, annotations)
    if mode is DecodeMode.STRICT and annotations:
        raise MalformedFrame("; ".join(annotations), end)
    return packet, annotations, end


# Each body decoder takes (class, buffer, fixed-header byte, body start,
# body end, annotations) and appends its annotations, trailing bytes last.
# The frame starts at offset 0, so the body's end is the frame's length.

def _decode_publish(cls, data, first, pos, end, annotations) -> Publish:
    qos = first >> 1 & 0x03
    if qos == 3:
        annotations.append(A_PUBLISH_QOS_3)
    if first & 0x08 and not qos:
        annotations.append(A_DUP_ON_QOS0)
    if end - pos < 2:
        raise MalformedFrame("topic length overruns the frame body", end)
    topic_end = pos + 2 + (data[pos] << 8 | data[pos + 1])
    if topic_end > end:
        raise MalformedFrame("topic overruns the frame body", end)
    topic = bytes(data[pos + 2:topic_end])
    if not topic.isascii() and not _is_utf8(topic):
        annotations.append(A_TOPIC_NOT_UTF8)
    packet_id = None
    if qos:
        if end - topic_end < 2:
            raise MalformedFrame("packet id overruns the frame body", end)
        packet_id = data[topic_end] << 8 | data[topic_end + 1]
        if not packet_id:
            annotations.append(A_PACKET_ID_ZERO)
        topic_end += 2
    return Publish(topic, bytes(data[topic_end:end]), qos, packet_id,
                   bool(first & 0x01), bool(first & 0x08))


def _decode_id_only(cls, data, first, pos, end, annotations) -> Packet:
    if end - pos < 2:
        raise MalformedFrame("packet id overruns the frame body", end)
    packet_id = data[pos] << 8 | data[pos + 1]
    if not packet_id:
        annotations.append(A_PACKET_ID_ZERO)
    if end - pos > 2:
        annotations.append(A_TRAILING_BYTES)
    return cls(packet_id)


def _decode_empty(cls, data, first, pos, end, annotations) -> Packet:
    if end > pos:
        annotations.append(A_TRAILING_BYTES)
    return cls()


def _decode_body(cls, data, first, pos, end, annotations) -> Packet:
    """CONNECT, CONNACK, SUBSCRIBE, SUBACK or UNSUBSCRIBE, through a cursor."""
    body = _Body(data, pos, end)
    if cls is Connect:
        packet = _decode_connect(body, annotations)
    elif cls is Connack:
        ack_flags = body.take(1, "connack flags")[0]
        return_code = body.take(1, "connack return code")[0]
        if ack_flags & 0xFE:
            annotations.append(A_CONNACK_FLAGS)
        if return_code > 5:
            annotations.append(A_CONNACK_RETURN_CODE)
        packet = Connack(bool(ack_flags & 1), return_code)
    else:
        packet_id = body.take_u16("packet id")
        if packet_id == 0:
            annotations.append(A_PACKET_ID_ZERO)
        if cls is Subscribe:
            packet = _decode_subscribe(packet_id, body, annotations)
        elif cls is Suback:
            codes = tuple(body.take(body.remaining, "return codes"))
            if not codes:
                annotations.append(A_SUBACK_EMPTY)
            if any(code not in (0, 1, 2, 0x80) for code in codes):
                annotations.append(A_SUBACK_RETURN_CODE)
            packet = Suback(packet_id, codes)
        else:
            filters = []
            while body.remaining:
                filters.append(body.take_string("filter"))
            if not filters:
                annotations.append(A_UNSUBSCRIBE_EMPTY)
            packet = Unsubscribe(packet_id, tuple(filters))
    if body.remaining:
        annotations.append(A_TRAILING_BYTES)
    return packet


def _decode_connect(body: _Body, annotations: list[str]) -> Connect:
    protocol_name = body.take_string("protocol name")
    protocol_level = body.take(1, "protocol level")[0]
    flags = body.take(1, "connect flags")[0]
    keep_alive = body.take_u16("keep alive")
    if flags & 0x01:
        annotations.append(A_CONNECT_RESERVED_FLAG)
    has_will = bool(flags & 0x04)
    will_qos = (flags >> 3) & 0x03
    will_retain = bool(flags & 0x20)
    has_username = bool(flags & 0x80)
    has_password = bool(flags & 0x40)
    if not has_will and (will_qos or will_retain):
        annotations.append(A_WILL_FLAGS_WITHOUT_WILL)
    if has_will and will_qos == 3:
        annotations.append(A_WILL_QOS_INVALID)
    if has_password and not has_username:
        annotations.append(A_PASSWORD_WITHOUT_USERNAME)
    client_id = body.take_string("client id")
    if not _is_utf8(client_id):
        annotations.append(A_CLIENT_ID_NOT_UTF8)
    will = None
    if has_will:
        will_topic = body.take_string("will topic")
        will_payload = body.take_string("will payload")
        will = Will(will_topic, will_payload, min(will_qos, 2), will_retain)
    username = body.take_string("username") if has_username else None
    password = body.take_string("password") if has_password else None
    return Connect(client_id, bool(flags & 0x02), keep_alive, protocol_name,
                   protocol_level, will, username, password)


def _decode_subscribe(packet_id: int, body: _Body, annotations: list[str]) -> Subscribe:
    entries = []
    while body.remaining:
        topic_filter = body.take_string("filter")
        qos = body.take(1, "requested qos")[0]
        if qos > 2:
            if A_SUBSCRIBE_QOS_INVALID not in annotations:
                annotations.append(A_SUBSCRIBE_QOS_INVALID)
        if not _is_utf8(topic_filter):
            if A_FILTER_NOT_UTF8 not in annotations:
                annotations.append(A_FILTER_NOT_UTF8)
        entries.append((topic_filter, qos))
    if not entries:
        annotations.append(A_SUBSCRIBE_EMPTY)
    return Subscribe(packet_id, tuple(entries))


_BODY_DECODERS = {
    **dict.fromkeys((Connect, Connack, Subscribe, Suback, Unsubscribe), _decode_body),
    **dict.fromkeys((Puback, Pubrec, Pubrel, Pubcomp, Unsuback), _decode_id_only),
    **dict.fromkeys((Pingreq, Pingresp, Disconnect), _decode_empty),
    Publish: _decode_publish,
}
# Packet type nibble -> (body decoder, class, fixed-header flags); None
# at the reserved types 0 and 15.
_DECODERS: list = [None] * 16
for _cls, (_ptype, _flags) in _HEADERS.items():
    _DECODERS[_ptype] = (_BODY_DECODERS[_cls], _cls, _flags)


def splice(frame: bytes, at: int, remove: int, insert: bytes, fixup_length: bool) -> bytes:
    """Replace ``remove`` bytes at offset ``at`` with ``insert``.

    With ``fixup_length`` the remaining-length varint of the patched
    frame is recomputed to match the new body, letting callers mutate a
    body without the frame length giving the edit away.  Raises
    OutOfBounds when the range falls outside the frame.
    """
    if at < 0 or remove < 0 or at + remove > len(frame):
        raise OutOfBounds(f"splice {at}+{remove} outside frame of {len(frame)} bytes")
    patched = frame[:at] + insert + frame[at + remove:]
    if not fixup_length:
        return patched
    if not patched:
        raise OutOfBounds("cannot fix up the length of an empty frame")
    try:
        _, length_consumed = decode_remaining_length(patched[1:5])
    except CodecError as exc:
        raise OutOfBounds(f"cannot locate remaining length after splice: {exc}") from exc
    body = patched[1 + length_consumed:]
    return patched[:1] + encode_remaining_length(len(body)) + body
