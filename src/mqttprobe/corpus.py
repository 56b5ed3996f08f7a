"""Built-in experiment corpus.

Eighteen named scenarios covering packet-id reuse across QoS levels,
oversized and structurally hostile topics, malformed CONNECT variants,
encoded payloads, and an orphan PUBREL.  Encoded payloads are literal
byte strings produced offline and embedded as hex: the tool does not
ship compressors.

Every scenario scripts a single session; sessions connect lazily, so
only the scenarios that splice or watch the CONNECT itself carry an
explicit connect step.
"""

from __future__ import annotations

import hashlib

from .codec import Publish, Pubrel
from .experiment import (
    ConnectStep,
    Experiment,
    RepeatStep,
    SendStep,
    SessionDecl,
    SpliceNextStep,
    SubscribeStep,
    WaitStep,
    render_experiment,
)

# Shared scenario constants; the documented broker profiles and the
# transcription tests key off these exact byte values.
QOS21_TOPIC = b"fuzz/qos21"
QOS20_TOPIC = b"fuzz/qos20"
DOUBLE_TOPIC = b"fuzz/double"
PAYLOAD_FIRST_QOS2 = b"first-qos2"
PAYLOAD_SECOND_QOS1 = b"second-qos1"
PAYLOAD_SECOND_QOS0 = b"second-qos0"
PAYLOAD_SECOND_QOS2 = b"second-qos2"

LONG_TOPIC_5000 = b"x" * 5000
LONG_TOPIC_65535 = b"x" * 65_535
LONG_PAYLOAD = b"long-topic-probe"

MANY_SLASHES_TOPIC = b"fuzz" + b"/" * 40 + b"slashes"

FLOOD_TOPIC = b"fuzz/flood"
FLOOD_PAYLOAD = b"flood"
FLOOD_COUNT = 10_000

ORPHAN_PUBREL_ID = 77

# "fuzz/#" and "fuzz/utf16" encoded as UTF-16-LE: not valid UTF-8.
UTF16_FILTER = bytes.fromhex("660075007a007a002f002300")

# zlib/bz2/base64 encodings of b"mqttprobe encoded payload".
ZLIB_PAYLOAD = bytes.fromhex(
    "789ccb2d2c292928ca4f4a5548cd4bce4f494d512848acccc94f4c0100826a09db")
BZ2_PAYLOAD = bytes.fromhex(
    "425a683931415926535982646ea7000006918040003e07f4202000228f51b48d"
    "1e50a6000223958ad03265834ba5a41fbe2ee48a70a12104c8dd4e")
BASE64_PAYLOAD = bytes.fromhex(
    "625846306448427962324a6c494756755932396b5a57516763474635624739685a413d3d")

# Offset of the two keep-alive bytes in a CONNECT frame whose body is
# shorter than 128 bytes: type byte, 1-byte length, "MQTT" string (6),
# level (1), flags (1).
CONNECT_KEEPALIVE_OFFSET = 10


def _session(session_id: str = "f", **kwargs: object) -> tuple[SessionDecl, ...]:
    return (SessionDecl(id=session_id, **kwargs),)  # type: ignore[arg-type]


def _qos_scenario(name: str, description: str, topic: bytes,
                  second: SendStep, extra: tuple = ()) -> Experiment:
    return Experiment(
        name=name,
        description=description,
        sessions=_session(),
        steps=(
            SubscribeStep("f", filter=topic, qos=2),
            SendStep("f", Publish(topic, PAYLOAD_FIRST_QOS2, qos=2, packet_id=1)),
            second,
            SendStep("f", Pubrel(1)),
        ) + extra,
    )


def builtin_corpus() -> list[Experiment]:
    """The named experiments, in a stable order."""
    experiments = [
        _qos_scenario(
            "qos2_then_qos1_same_id",
            "Publish qos 2 then qos 1 reusing packet id 1, then release the qos 2 flow.",
            QOS21_TOPIC,
            SendStep("f", Publish(QOS21_TOPIC, PAYLOAD_SECOND_QOS1, qos=1, packet_id=1)),
        ),
        _qos_scenario(
            "qos2_then_qos0_same_id",
            "Publish qos 2 with packet id 1 then qos 0 on the same topic, then release.",
            QOS20_TOPIC,
            SendStep("f", Publish(QOS20_TOPIC, PAYLOAD_SECOND_QOS0, qos=0)),
        ),
        _qos_scenario(
            "double_qos2_same_id",
            "Two distinct qos 2 publishes sharing packet id 1, then two releases.",
            DOUBLE_TOPIC,
            SendStep("f", Publish(DOUBLE_TOPIC, PAYLOAD_SECOND_QOS2, qos=2, packet_id=1)),
            extra=(SendStep("f", Pubrel(1)),),
        ),
        Experiment(
            name="long_topic_5000",
            description="Subscribe to a valid 5000-byte topic and publish to it.",
            sessions=_session(),
            steps=(
                SubscribeStep("f", filter=LONG_TOPIC_5000, qos=0),
                SendStep("f", Publish(LONG_TOPIC_5000, LONG_PAYLOAD, qos=0)),
            ),
        ),
        Experiment(
            name="long_topic_65535",
            description="Subscribe to a topic at the 65535-byte string limit and publish to it.",
            sessions=_session(),
            steps=(
                SubscribeStep("f", filter=LONG_TOPIC_65535, qos=0),
                SendStep("f", Publish(LONG_TOPIC_65535, LONG_PAYLOAD, qos=0)),
            ),
        ),
        Experiment(
            name="non_utf8_client_id",
            description="Connect with a client id that is not valid UTF-8.",
            sessions=(SessionDecl(id="f", client_id=b"\xff\xfe"),),
            steps=(
                ConnectStep("f"),
                WaitStep("f", ms=200),
            ),
        ),
        Experiment(
            name="keepalive_as_string",
            description="Splice the CONNECT keep-alive integer into a length-prefixed "
                        "string, shifting every later field.",
            sessions=_session(),
            steps=(
                SpliceNextStep("f", offset=CONNECT_KEEPALIVE_OFFSET, remove=2,
                               insert=bytes.fromhex("00023630"), fixup_length=True),
                ConnectStep("f"),
                WaitStep("f", ms=200),
            ),
        ),
        Experiment(
            name="invalid_wildcard_subscribe",
            description="Subscribe with '#' in a non-final level.",
            sessions=_session(),
            steps=(
                SubscribeStep("f", filter=b"fuzz/#/invalid", qos=0),
                WaitStep("f", ms=200),
            ),
        ),
        Experiment(
            name="invalid_wildcard_publish",
            description="Publish to a topic containing a wildcard.",
            sessions=_session(),
            steps=(
                SendStep("f", Publish(b"fuzz/inv/#", b"wild", qos=0)),
                WaitStep("f", ms=200),
            ),
        ),
        Experiment(
            name="topic_utf16",
            description="Subscribe with a filter encoded as UTF-16 instead of UTF-8.",
            sessions=_session(),
            steps=(
                SubscribeStep("f", filter=UTF16_FILTER, qos=0),
                WaitStep("f", ms=200),
            ),
        ),
        _encoded_payload("payload_zlib", "zlib", ZLIB_PAYLOAD),
        _encoded_payload("payload_bz2", "bz2", BZ2_PAYLOAD),
        _encoded_payload("payload_base64", "base64", BASE64_PAYLOAD),
        Experiment(
            name="many_slashes_topic",
            description="Subscribe and publish on a topic made of many empty levels.",
            sessions=_session(),
            steps=(
                SubscribeStep("f", filter=MANY_SLASHES_TOPIC, qos=0),
                SendStep("f", Publish(MANY_SLASHES_TOPIC, b"slashes", qos=0)),
            ),
        ),
        Experiment(
            name="qos0_flood",
            description=f"Publish {FLOOD_COUNT} qos 0 messages back-to-back to a "
                        "subscribed topic.",
            sessions=_session(),
            settle_ms=3000,
            steps=(
                SubscribeStep("f", filter=FLOOD_TOPIC, qos=0),
                RepeatStep("f", count=FLOOD_COUNT, steps=(
                    SendStep("f", Publish(FLOOD_TOPIC, FLOOD_PAYLOAD, qos=0)),
                )),
            ),
        ),
        Experiment(
            name="bad_protocol_name",
            description="Connect declaring protocol name MQQT.",
            sessions=(SessionDecl(id="f", protocol_name=b"MQQT"),),
            steps=(
                ConnectStep("f"),
                WaitStep("f", ms=200),
            ),
        ),
        Experiment(
            name="bad_protocol_level",
            description="Connect declaring protocol level 3 under an MQTT name.",
            sessions=(SessionDecl(id="f", protocol_level=3),),
            steps=(
                ConnectStep("f"),
                WaitStep("f", ms=200),
            ),
        ),
        Experiment(
            name="orphan_pubrel",
            description="Send PUBREL for a packet id that never had a qos 2 publish.",
            sessions=_session(),
            steps=(
                SendStep("f", Pubrel(ORPHAN_PUBREL_ID)),
                WaitStep("f", ms=200),
            ),
        ),
    ]
    return experiments


def _encoded_payload(name: str, encoding: str, payload: bytes) -> Experiment:
    topic = f"fuzz/enc/{encoding}".encode()
    return Experiment(
        name=name,
        description=f"Publish a {encoding}-encoded payload to a subscribed topic.",
        sessions=_session(),
        steps=(
            SubscribeStep("f", filter=topic, qos=0),
            SendStep("f", Publish(topic, payload, qos=0)),
        ),
    )


def corpus_by_name() -> dict[str, Experiment]:
    return {e.name: e for e in builtin_corpus()}


def corpus_hash() -> str:
    """SHA-256 over the rendered corpus; embedded in reports."""
    digest = hashlib.sha256()
    for exp in builtin_corpus():
        digest.update(render_experiment(exp).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()
