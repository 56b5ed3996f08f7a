"""Hand-built traces reproducing each documented broker behavior.

Each entry is the event order a client would observe against that broker
for one probe scenario.  The anomaly detector must reproduce the
documented finding sets from these traces alone.
"""

from mqttprobe import corpus
from mqttprobe.codec import (
    Connack,
    Connect,
    Packet,
    Publish,
    Pubcomp,
    Pubrec,
    Puback,
    Pubrel,
    Suback,
    Subscribe,
    encode_packet,
)
from mqttprobe.corpus import (
    LONG_PAYLOAD,
    LONG_TOPIC_5000,
    PAYLOAD_FIRST_QOS2,
    PAYLOAD_SECOND_QOS0,
    PAYLOAD_SECOND_QOS1,
    PAYLOAD_SECOND_QOS2,
    DOUBLE_TOPIC,
    ORPHAN_PUBREL_ID,
    QOS20_TOPIC,
    QOS21_TOPIC,
)
from mqttprobe.oracle import evaluate_trace
from mqttprobe.profiles import DOUBLE, LONG, ORPHAN, QOS20, QOS21
from mqttprobe.runner import (
    CorpusResult,
    Endpoint,
    K_CLOSED_BY_PEER,
    K_CONNECTED,
    K_RECEIVED,
    K_SENT,
    Liveness,
    OUTCOME_ABORTED_BY_PEER,
    OUTCOME_COMPLETED,
    Trace,
    TraceEvent,
)

_BY_NAME = corpus.corpus_by_name()
_ENDPOINT = "synthetic:1883"


def build_trace(name, entries, outcome=OUTCOME_COMPLETED):
    """entries: ('connected',) | ('sent'|'auto'|'recv', packet) | ('closed',)."""
    events = []
    for i, entry in enumerate(entries):
        kind = entry[0]
        if kind == "connected":
            events.append(TraceEvent(seq=i, t_ms=float(i), session="f",
                                     kind=K_CONNECTED))
        elif kind == "closed":
            events.append(TraceEvent(seq=i, t_ms=float(i), session="f",
                                     kind=K_CLOSED_BY_PEER))
        elif kind in ("sent", "auto"):
            packet = entry[1]
            events.append(TraceEvent(seq=i, t_ms=float(i), session="f",
                                     kind=K_SENT, packet=packet,
                                     raw=encode_packet(packet),
                                     auto=kind == "auto"))
        elif kind == "recv":
            packet = entry[1]
            events.append(TraceEvent(seq=i, t_ms=float(i), session="f",
                                     kind=K_RECEIVED, packet=packet,
                                     raw=encode_packet(packet)))
        else:
            raise ValueError(f"unknown entry kind {kind!r}")
    return Trace(experiment_name=name, endpoint=_ENDPOINT, started_at=0.0,
                 events=tuple(events), outcome=outcome)


def _prologue(client_id=b"f"):
    return [
        ("connected",),
        ("auto", Connect(client_id=client_id)),
        ("recv", Connack(session_present=False, return_code=0)),
    ]


def _fwd(topic, payload):
    return ("recv", Publish(topic=topic, payload=payload, qos=0))


# Scripted sends, shared by every broker variant of a scenario.
_SUB_21 = ("sent", Subscribe(packet_id=1, entries=((QOS21_TOPIC, 2),)))
_PUB1_21 = ("sent", Publish(topic=QOS21_TOPIC, payload=PAYLOAD_FIRST_QOS2,
                            qos=2, packet_id=1))
_PUB2_21 = ("sent", Publish(topic=QOS21_TOPIC, payload=PAYLOAD_SECOND_QOS1,
                            qos=1, packet_id=1))
_SUB_20 = ("sent", Subscribe(packet_id=1, entries=((QOS20_TOPIC, 2),)))
_PUB1_20 = ("sent", Publish(topic=QOS20_TOPIC, payload=PAYLOAD_FIRST_QOS2,
                            qos=2, packet_id=1))
_PUB2_20 = ("sent", Publish(topic=QOS20_TOPIC, payload=PAYLOAD_SECOND_QOS0,
                            qos=0))
_SUB_D = ("sent", Subscribe(packet_id=1, entries=((DOUBLE_TOPIC, 2),)))
_PUB1_D = ("sent", Publish(topic=DOUBLE_TOPIC, payload=PAYLOAD_FIRST_QOS2,
                           qos=2, packet_id=1))
_PUB2_D = ("sent", Publish(topic=DOUBLE_TOPIC, payload=PAYLOAD_SECOND_QOS2,
                           qos=2, packet_id=1))
_SUB_L = ("sent", Subscribe(packet_id=1, entries=((LONG_TOPIC_5000, 0),)))
_PUB_L = ("sent", Publish(topic=LONG_TOPIC_5000, payload=LONG_PAYLOAD, qos=0))
_REL = ("sent", Pubrel(packet_id=1))
_REL_ORPHAN = ("sent", Pubrel(packet_id=ORPHAN_PUBREL_ID))

_SUBACK2 = ("recv", Suback(packet_id=1, return_codes=(2,)))
_SUBACK0 = ("recv", Suback(packet_id=1, return_codes=(0,)))
_PUBREC = ("recv", Pubrec(packet_id=1))
_PUBACK = ("recv", Puback(packet_id=1))
_PUBCOMP = ("recv", Pubcomp(packet_id=1))


def _scenarios_mosquitto():
    return {
        # First packet delivered after release; the follow-up is dropped.
        QOS21: (_prologue() + [
            _SUB_21, _SUBACK2, _PUB1_21, _PUBREC, _PUB2_21, _REL,
            _PUBCOMP, _fwd(QOS21_TOPIC, PAYLOAD_FIRST_QOS2),
        ], OUTCOME_COMPLETED, True),
        # Both delivered, in reverse order; completion is timely.
        QOS20: (_prologue() + [
            _SUB_20, _SUBACK2, _PUB1_20, _PUBREC, _PUB2_20,
            _fwd(QOS20_TOPIC, PAYLOAD_SECOND_QOS0), _REL, _PUBCOMP,
            _fwd(QOS20_TOPIC, PAYLOAD_FIRST_QOS2),
        ], OUTCOME_COMPLETED, True),
        # Second publish with the busy id is suppressed: a single delivery.
        DOUBLE: (_prologue() + [
            _SUB_D, _SUBACK2, _PUB1_D, _fwd(DOUBLE_TOPIC, PAYLOAD_FIRST_QOS2),
            _PUBREC, _PUB2_D, _PUBREC, _REL, _PUBCOMP, _REL, _PUBCOMP,
        ], OUTCOME_COMPLETED, True),
        LONG: (_prologue() + [
            _SUB_L, _SUBACK0, _PUB_L, _fwd(LONG_TOPIC_5000, LONG_PAYLOAD),
        ], OUTCOME_COMPLETED, True),
        ORPHAN: (_prologue() + [
            _REL_ORPHAN, ("recv", Pubcomp(packet_id=ORPHAN_PUBREL_ID)),
        ], OUTCOME_COMPLETED, True),
    }


def _scenarios_emqx():
    return {
        QOS21: (_prologue() + [
            _SUB_21, _SUBACK2, _PUB1_21, _fwd(QOS21_TOPIC, PAYLOAD_FIRST_QOS2),
            _PUBREC, _PUB2_21, _fwd(QOS21_TOPIC, PAYLOAD_SECOND_QOS1),
            _PUBACK, _REL, _PUBCOMP,
        ], OUTCOME_COMPLETED, True),
        QOS20: (_prologue() + [
            _SUB_20, _SUBACK2, _PUB1_20, _fwd(QOS20_TOPIC, PAYLOAD_FIRST_QOS2),
            _PUBREC, _PUB2_20, _fwd(QOS20_TOPIC, PAYLOAD_SECOND_QOS0),
            _REL, _PUBCOMP,
        ], OUTCOME_COMPLETED, True),
        DOUBLE: (_prologue() + [
            _SUB_D, _SUBACK2, _PUB1_D, _fwd(DOUBLE_TOPIC, PAYLOAD_FIRST_QOS2),
            _PUBREC, _PUB2_D, _PUBREC, _REL, _PUBCOMP, _REL, _PUBCOMP,
        ], OUTCOME_COMPLETED, True),
        # Oversized topic kills the client connection mid-scenario.
        LONG: (_prologue() + [
            _SUB_L, _SUBACK0, _PUB_L, ("closed",),
        ], OUTCOME_ABORTED_BY_PEER, True),
        ORPHAN: (_prologue() + [
            _REL_ORPHAN, ("recv", Pubcomp(packet_id=ORPHAN_PUBREL_ID)),
        ], OUTCOME_COMPLETED, True),
    }


def _scenarios_hivemq():
    return {
        # Handshake completion arrives before its own prerequisite.
        QOS21: (_prologue() + [
            _SUB_21, _SUBACK2, _PUB1_21, _fwd(QOS21_TOPIC, PAYLOAD_FIRST_QOS2),
            _PUB2_21, _fwd(QOS21_TOPIC, PAYLOAD_SECOND_QOS1), _PUBACK,
            _REL, _PUBCOMP, _PUBREC,
        ], OUTCOME_COMPLETED, True),
        QOS20: (_prologue() + [
            _SUB_20, _SUBACK2, _PUB1_20, _fwd(QOS20_TOPIC, PAYLOAD_FIRST_QOS2),
            _PUB2_20, _fwd(QOS20_TOPIC, PAYLOAD_SECOND_QOS0),
            _REL, _PUBCOMP, _PUBREC,
        ], OUTCOME_COMPLETED, True),
        # The in-flight id is reused and both publications go out.
        DOUBLE: (_prologue() + [
            _SUB_D, _SUBACK2, _PUB1_D, _fwd(DOUBLE_TOPIC, PAYLOAD_FIRST_QOS2),
            _PUBREC, _PUB2_D, _fwd(DOUBLE_TOPIC, PAYLOAD_SECOND_QOS2),
            _PUBREC, _REL, _PUBCOMP, _REL, _PUBCOMP,
        ], OUTCOME_COMPLETED, True),
        # Grant accepted, then silence: the matching delivery never comes.
        LONG: (_prologue() + [
            _SUB_L, _SUBACK0, _PUB_L,
        ], OUTCOME_COMPLETED, True),
        ORPHAN: (_prologue() + [
            _REL_ORPHAN, ("recv", Pubcomp(packet_id=ORPHAN_PUBREL_ID)),
        ], OUTCOME_COMPLETED, True),
    }


def _scenarios_moquette():
    return {
        QOS21: (_prologue() + [
            _SUB_21, _SUBACK2, _PUB1_21, _fwd(QOS21_TOPIC, PAYLOAD_FIRST_QOS2),
            _PUBREC, _PUB2_21, _fwd(QOS21_TOPIC, PAYLOAD_SECOND_QOS1),
            _PUBACK, _REL, _PUBCOMP,
        ], OUTCOME_COMPLETED, True),
        QOS20: (_prologue() + [
            _SUB_20, _SUBACK2, _PUB1_20, _fwd(QOS20_TOPIC, PAYLOAD_FIRST_QOS2),
            _PUBREC, _PUB2_20, _fwd(QOS20_TOPIC, PAYLOAD_SECOND_QOS0),
            _REL, _PUBCOMP,
        ], OUTCOME_COMPLETED, True),
        DOUBLE: (_prologue() + [
            _SUB_D, _SUBACK2, _PUB1_D, _fwd(DOUBLE_TOPIC, PAYLOAD_FIRST_QOS2),
            _PUBREC, _PUB2_D, _fwd(DOUBLE_TOPIC, PAYLOAD_SECOND_QOS2),
            _PUBREC, _REL, _PUBCOMP, _REL, _PUBCOMP,
        ], OUTCOME_COMPLETED, True),
        LONG: (_prologue() + [
            _SUB_L, _SUBACK0, _PUB_L, ("closed",),
        ], OUTCOME_ABORTED_BY_PEER, True),
        ORPHAN: (_prologue() + [
            _REL_ORPHAN, ("recv", Pubcomp(packet_id=ORPHAN_PUBREL_ID)),
        ], OUTCOME_COMPLETED, True),
    }


def _scenarios_aedes():
    return {
        # Everything is forwarded in one burst only after the release.
        QOS21: (_prologue() + [
            _SUB_21, _SUBACK2, _PUB1_21, _PUBREC, _PUB2_21, _PUBACK, _REL,
            _fwd(QOS21_TOPIC, PAYLOAD_FIRST_QOS2),
            _fwd(QOS21_TOPIC, PAYLOAD_SECOND_QOS1), _PUBCOMP,
        ], OUTCOME_COMPLETED, True),
        QOS20: (_prologue() + [
            _SUB_20, _SUBACK2, _PUB1_20, _PUBREC, _PUB2_20, _REL,
            _fwd(QOS20_TOPIC, PAYLOAD_SECOND_QOS0),
            _fwd(QOS20_TOPIC, PAYLOAD_FIRST_QOS2), _PUBCOMP,
        ], OUTCOME_COMPLETED, True),
        # The same payload is delivered twice.
        DOUBLE: (_prologue() + [
            _SUB_D, _SUBACK2, _PUB1_D, _PUBREC, _PUB2_D, _PUBREC, _REL,
            _fwd(DOUBLE_TOPIC, PAYLOAD_FIRST_QOS2),
            _fwd(DOUBLE_TOPIC, PAYLOAD_FIRST_QOS2), _PUBCOMP, _REL, _PUBCOMP,
        ], OUTCOME_COMPLETED, True),
        # The process goes down entirely: dead on the follow-up probe.
        LONG: (_prologue() + [
            _SUB_L, _SUBACK0, _PUB_L, ("closed",),
        ], OUTCOME_ABORTED_BY_PEER, False),
        # A release without its publish is answered with a hangup.
        ORPHAN: (_prologue() + [
            _REL_ORPHAN, ("closed",),
        ], OUTCOME_ABORTED_BY_PEER, True),
    }


_SCENARIO_BUILDERS = {
    "Mosquitto": _scenarios_mosquitto,
    "EMQX": _scenarios_emqx,
    "HiveMQ": _scenarios_hivemq,
    "Moquette": _scenarios_moquette,
    "Aedes": _scenarios_aedes,
}


def synthetic_results(broker_label):
    """CorpusResult list for the five profiled scenarios of one broker, each judged."""
    table = _SCENARIO_BUILDERS[broker_label]()
    results = []
    for name, (entries, outcome, alive) in table.items():
        trace = build_trace(name, entries, outcome=outcome)
        liveness = Liveness(alive, "synthetic" if alive else "no CONNACK before timeout")
        results.append(CorpusResult(_BY_NAME[name], trace, liveness,
                                    outcome=evaluate_trace(_BY_NAME[name], trace)))
    return results


def broker_labels():
    return list(_SCENARIO_BUILDERS)
