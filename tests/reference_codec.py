"""Reference codec: ``decode_packet`` and ``encode_packet`` as they were before the one-pass rewrite.

Kept verbatim so the differential tests can check that ``codec`` decodes
every input to the same ``(packet, annotations, consumed)``, or raises
the same error with the same reason and frame length, and encodes every
packet to the same bytes.
"""

from __future__ import annotations

from mqttprobe.codec import (
    A_CLIENT_ID_NOT_UTF8,
    A_CONNACK_FLAGS,
    A_CONNACK_RETURN_CODE,
    A_CONNECT_RESERVED_FLAG,
    A_DUP_ON_QOS0,
    A_FILTER_NOT_UTF8,
    A_LENGTH_NOT_MINIMAL,
    A_PACKET_ID_ZERO,
    A_PASSWORD_WITHOUT_USERNAME,
    A_PUBLISH_QOS_3,
    A_RESERVED_FLAGS,
    A_SUBACK_EMPTY,
    A_SUBACK_RETURN_CODE,
    A_SUBSCRIBE_EMPTY,
    A_SUBSCRIBE_QOS_INVALID,
    A_TOPIC_NOT_UTF8,
    A_TRAILING_BYTES,
    A_UNSUBSCRIBE_EMPTY,
    A_WILL_FLAGS_WITHOUT_WILL,
    A_WILL_QOS_INVALID,
    MAX_REMAINING_LENGTH,
    MAX_STRING,
    Connack,
    Connect,
    DecodeMode,
    Disconnect,
    IncompleteFrame,
    InvariantViolation,
    MalformedFrame,
    OutOfRange,
    Packet,
    PacketType,
    Pingreq,
    Pingresp,
    Puback,
    Pubcomp,
    Publish,
    Pubrec,
    Pubrel,
    Raw,
    Suback,
    Subscribe,
    Unsuback,
    Unsubscribe,
    Will,
)


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
    value = 0
    for i in range(4):
        if i >= len(data):
            raise IncompleteFrame("remaining length truncated")
        byte = data[i]
        value |= (byte & 0x7F) << (7 * i)
        if not byte & 0x80:
            return value, i + 1
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


# Packet class -> (packet type, fixed-header flag nibble); PUBLISH sets
# its own flags.  decode_packet reads the table inverted.
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
_CLASSES = {ptype: (cls, flags) for cls, (ptype, flags) in _HEADERS.items()}


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
    cls = type(packet)
    if cls is Raw:
        return packet.data
    if cls is Connect:
        return _encode_connect(packet)
    if cls is Publish:
        return _encode_publish(packet)
    if cls not in _HEADERS:
        raise InvariantViolation("packet", f"unsupported packet {packet!r}")
    ptype, flags = _HEADERS[cls]
    body = bytearray()
    if cls is Connack:
        if not 0 <= packet.return_code <= 5:
            raise InvariantViolation("return_code", f"{packet.return_code} outside 0..5")
        body += bytes([1 if packet.session_present else 0, packet.return_code])
    elif "packet_id" in cls.__dataclass_fields__:  # every other body starts with it
        _check_packet_id(packet.packet_id)
        body += packet.packet_id.to_bytes(2, "big")
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
        elif cls is Unsubscribe:
            for i, topic_filter in enumerate(packet.filters):
                body += _encode_string(topic_filter, f"filters[{i}]")
    return _frame(ptype, flags, bytes(body))


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


def _encode_publish(packet: Publish) -> bytes:
    if not 0 <= packet.qos <= 2:
        raise InvariantViolation("qos", f"{packet.qos} outside 0..2")
    if packet.qos == 0 and packet.packet_id is not None:
        raise InvariantViolation("packet_id", "present on a qos 0 publish")
    if packet.qos > 0 and packet.packet_id is None:
        raise InvariantViolation("packet_id", f"missing on a qos {packet.qos} publish")
    flags = packet.qos << 1
    if packet.dup:
        flags |= 0x08
    if packet.retain:
        flags |= 0x01
    body = bytearray(_encode_string(packet.topic, "topic"))
    if packet.packet_id is not None:
        _check_packet_id(packet.packet_id)
        body += packet.packet_id.to_bytes(2, "big")
    body += packet.payload
    return _frame(PacketType.PUBLISH, flags, bytes(body))


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
    if not data:
        raise IncompleteFrame("empty buffer")
    type_value = data[0] >> 4
    flags = data[0] & 0x0F
    try:
        cls, fixed_flags = _CLASSES[PacketType(type_value)]
    except ValueError:
        raise MalformedFrame(f"reserved packet type {type_value}") from None
    length, length_consumed = decode_remaining_length(data[1:5])
    frame_length = 1 + length_consumed + length
    if len(data) < frame_length:
        raise IncompleteFrame(f"need {frame_length} bytes, have {len(data)}")

    annotations: list[str] = []
    if length_consumed > len(encode_remaining_length(length)):
        annotations.append(A_LENGTH_NOT_MINIMAL)
    body = _Body(data, 1 + length_consumed, frame_length)

    if cls is Publish:
        packet = _decode_publish(flags, body, annotations)
    else:
        if flags != fixed_flags:
            annotations.append(A_RESERVED_FLAGS)
        if cls is Connect:
            packet = _decode_connect(body, annotations)
        elif cls is Connack:
            ack_flags = body.take(1, "connack flags")[0]
            return_code = body.take(1, "connack return code")[0]
            if ack_flags & 0xFE:
                annotations.append(A_CONNACK_FLAGS)
            if return_code > 5:
                annotations.append(A_CONNACK_RETURN_CODE)
            packet = Connack(session_present=bool(ack_flags & 1), return_code=return_code)
        elif "packet_id" in cls.__dataclass_fields__:  # every other body starts with it
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
                packet = Suback(packet_id=packet_id, return_codes=codes)
            elif cls is Unsubscribe:
                filters = []
                while body.remaining:
                    filters.append(body.take_string("filter"))
                if not filters:
                    annotations.append(A_UNSUBSCRIBE_EMPTY)
                packet = Unsubscribe(packet_id=packet_id, filters=tuple(filters))
            else:
                packet = cls(packet_id=packet_id)
        else:
            packet = cls()

    if body.remaining:
        annotations.append(A_TRAILING_BYTES)
    if mode is DecodeMode.STRICT and annotations:
        raise MalformedFrame("; ".join(annotations), frame_length)
    return packet, annotations, frame_length


def _decode_publish(flags: int, body: _Body, annotations: list[str]) -> Publish:
    qos = (flags >> 1) & 0x03
    dup = bool(flags & 0x08)
    retain = bool(flags & 0x01)
    if qos == 3:
        annotations.append(A_PUBLISH_QOS_3)
    if dup and qos == 0:
        annotations.append(A_DUP_ON_QOS0)
    topic = body.take_string("topic")
    if not _is_utf8(topic):
        annotations.append(A_TOPIC_NOT_UTF8)
    packet_id = None
    if qos > 0:
        packet_id = body.take_u16("packet id")
        if packet_id == 0:
            annotations.append(A_PACKET_ID_ZERO)
    payload = body.take(body.remaining, "payload")
    return Publish(topic=topic, payload=payload, qos=qos, packet_id=packet_id,
                   retain=retain, dup=dup)


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
        will = Will(topic=will_topic, payload=will_payload,
                    qos=min(will_qos, 2), retain=will_retain)
    username = body.take_string("username") if has_username else None
    password = body.take_string("password") if has_password else None
    return Connect(client_id=client_id, clean_session=bool(flags & 0x02),
                   keep_alive=keep_alive, protocol_name=protocol_name,
                   protocol_level=protocol_level, will=will,
                   username=username, password=password)


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
    return Subscribe(packet_id=packet_id, entries=tuple(entries))
