"""Reference oracle: the batch ``evaluate_trace`` the one-pass judge replaced.

Kept verbatim so the differential tests can check that ``oracle.Judge``
gives every trace the same ``ScenarioOutcome``, field for field,
evidence tuples and explanations included.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from mqttprobe.codec import Disconnect, Puback, Pubcomp, Publish, Pubrec, Pubrel, Suback
from mqttprobe.experiment import Experiment, Identity
from mqttprobe.oracle import (
    ACK_BEFORE_PREREQUISITE,
    DUPLICATE_DELIVERY,
    ID_REUSE_MISHANDLED,
    LATE_COMPLETION,
    LOST_MESSAGE,
    ORPHAN_PUBREL_REJECTED,
    PROTOCOL_VIOLATION_TOLERATED,
    REORDERED_DELIVERY,
    TOPIC_TRUNCATION,
    UNEXPECTED_DISCONNECT,
    Anomaly,
    ScenarioOutcome,
    TraceMismatchError,
    _payload_text,
    make_anomaly,
)
from mqttprobe.trace import (K_CLOSED_BY_PEER, K_RECEIVED, K_SENT, OUTCOME_COMPLETED, Trace,
                             TraceEvent)


def peer_closes(events: Iterable[TraceEvent]) -> list[TraceEvent]:
    """Peer closes of a session before its first scripted DISCONNECT.

    A close after one is the normal end of the conversation.
    """
    said_bye: set[str] = set()
    closes = []
    for e in events:
        if e.kind == K_SENT and not e.auto and isinstance(e.packet, Disconnect):
            said_bye.add(e.session)
        elif e.kind == K_CLOSED_BY_PEER and e.session not in said_bye:
            closes.append(e)
    return closes


def _deliveries(received: list[TraceEvent], subscriber_sessions: set[str]) -> list[TraceEvent]:
    """Received publishes on subscriber sessions, retransmissions collapsed."""
    out: list[TraceEvent] = []
    seen: set[tuple[str, int, bytes, bytes]] = set()
    for event in received:
        packet = event.packet
        if not isinstance(packet, Publish) or event.session not in subscriber_sessions:
            continue
        if packet.dup and packet.packet_id is not None:
            key = (event.session, packet.packet_id, packet.topic, packet.payload)
            if key in seen:
                continue
            seen.add(key)
        elif packet.packet_id is not None:
            seen.add((event.session, packet.packet_id, packet.topic, packet.payload))
        out.append(event)
    return out


def evaluate_trace(experiment: Experiment, trace: Trace) -> ScenarioOutcome:
    """Classify one trace against its script."""
    if trace.experiment_name != experiment.name:
        raise TraceMismatchError(
            f"trace is for {trace.experiment_name!r}, not {experiment.name!r}")
    model = experiment.model
    received = [e for e in trace.events if e.kind == K_RECEIVED]
    delivery_events = _deliveries(received, model.subscriber_sessions)
    delivered = [(e.packet.topic, e.packet.payload) for e in delivery_events]  # type: ignore[union-attr]
    closes = peer_closes(trace.events)
    conformant = experiment.input_conformant
    anomalies: list[Anomaly] = []

    ack_flow: list[tuple[str, int]] = []
    for event in received:
        packet = event.packet
        if isinstance(packet, (Puback, Pubrec, Pubrel, Pubcomp, Suback)):
            ack_flow.append((type(packet).__name__.lower(), packet.packet_id))

    # R1: per-identity delivery counts against the conformant model.
    expected_counts = Counter(model.expected)
    suppressed_counts = Counter(model.suppressed)
    delivery_seqs: dict[Identity, list[int]] = {}
    for event, identity in zip(delivery_events, delivered):
        delivery_seqs.setdefault(identity, []).append(event.seq)
    sent_seqs: dict[Identity, list[int]] = {}
    for event in trace.events:
        if event.kind == K_SENT and not event.auto and isinstance(event.packet, Publish):
            sent_seqs.setdefault((event.packet.topic, event.packet.payload),
                                 []).append(event.seq)
    for identity in sorted(set(expected_counts) | set(delivery_seqs),
                           key=lambda i: (i[0], i[1])):
        want = expected_counts.get(identity, 0)
        got = len(delivery_seqs.get(identity, ()))
        if got < want and identity not in model.qos0_identities:
            anomalies.append(make_anomaly(
                LOST_MESSAGE, tuple(sent_seqs.get(identity, (0,))),
                f"payload {_payload_text(identity[1])} was published {want} time(s) with qos>0 "
                f"but delivered {got} time(s)"))
        elif got > want:
            label = _payload_text(identity[1])
            excess_seqs = tuple(delivery_seqs[identity][want:])
            if suppressed_counts.get(identity, 0) > 0:
                anomalies.append(make_anomaly(
                    ID_REUSE_MISHANDLED, excess_seqs,
                    f"payload {label} reused an open qos 2 packet id; a "
                    f"conformant broker treats it as a retransmission, yet "
                    f"it was delivered"))
            else:
                anomalies.append(make_anomaly(
                    DUPLICATE_DELIVERY, excess_seqs,
                    f"payload {label} was delivered {got} time(s) but "
                    f"published {want} time(s)"))

    # R2: first-occurrence order of commonly-known identities.
    observed_first = list(dict.fromkeys(
        identity for identity in delivered if identity in expected_counts))
    expected_first = list(dict.fromkeys(
        identity for identity in model.expected if identity in delivery_seqs))
    if observed_first != expected_first:
        evidence = tuple(e.seq for e in delivery_events)
        order = ", ".join(_payload_text(p) for _, p in observed_first)
        want_order = ", ".join(_payload_text(p) for _, p in expected_first)
        anomalies.append(make_anomaly(
            REORDERED_DELIVERY, evidence,
            f"delivered order [{order}] differs from publish order [{want_order}]"))

    # R3: PUBCOMP received before PUBREC for the same packet id.
    first_pubrec: dict[tuple[str, int], int] = {}
    first_pubcomp: dict[tuple[str, int], int] = {}
    for event in received:
        packet = event.packet
        if isinstance(packet, Pubrec):
            first_pubrec.setdefault((event.session, packet.packet_id), event.seq)
        elif isinstance(packet, Pubcomp):
            first_pubcomp.setdefault((event.session, packet.packet_id), event.seq)
    for key, comp_seq in sorted(first_pubcomp.items(), key=lambda kv: kv[1]):
        rec_seq = first_pubrec.get(key)
        if rec_seq is not None and comp_seq < rec_seq:
            anomalies.append(make_anomaly(
                ACK_BEFORE_PREREQUISITE, (comp_seq, rec_seq),
                f"PUBCOMP for id {key[1]} arrived before its PUBREC"))

    # R4: all forwards deferred past the acks, then completed.
    if delivery_events:
        first_forward = delivery_events[0].seq
        ack_seqs = [e.seq for e in received
                    if isinstance(e.packet, (Puback, Pubrec))]
        comp_seqs = [e.seq for e in received if isinstance(e.packet, Pubcomp)]
        last_forward = delivery_events[-1].seq
        late_comps = [s for s in comp_seqs if s > last_forward]
        if ack_seqs and late_comps and first_forward > max(ack_seqs):
            anomalies.append(make_anomaly(
                LATE_COMPLETION, (first_forward, max(ack_seqs), late_comps[0]),
                "every forwarded publication arrived after the handshake "
                "acks, and PUBCOMP arrived after the forwards: completion "
                "outran delivery, leaving a replay window"))

    # R5: granted exact-topic subscription that never produced a delivery.
    closed_sessions = {e.session for e in closes}
    suback_ids = {(e.session, e.packet.packet_id)  # type: ignore[union-attr]
                  for e in received
                  if isinstance(e.packet, Suback)
                  and any(rc != 0x80 for rc in e.packet.return_codes)}
    for session, filters in sorted(model.exact_filters.items()):
        if session in closed_sessions:
            continue
        for topic_filter, sub_packet_id in filters:
            if (session, sub_packet_id) not in suback_ids:
                continue
            matching = [i for i in model.expected if i[0] == topic_filter]
            if matching and not any(i[0] == topic_filter for i in delivered):
                suback_seq = next(e.seq for e in received
                                  if isinstance(e.packet, Suback)
                                  and e.session == session
                                  and e.packet.packet_id == sub_packet_id)
                anomalies.append(make_anomaly(
                    TOPIC_TRUNCATION, (suback_seq,),
                    f"subscription to a {len(topic_filter)}-byte topic was "
                    f"granted but an exact-topic publish was never "
                    f"delivered: the stored filter no longer matches"))

    # R7 before R6: a rejected orphan release claims the close.
    orphan_rejected = False
    for session, packet_id in model.orphan_pubrels:
        got_pubcomp = any(isinstance(e.packet, Pubcomp)
                          and e.packet.packet_id == packet_id
                          and e.session == session
                          for e in received)
        if got_pubcomp:
            continue
        orphan_rejected = True
        evidence = tuple(e.seq for e in trace.events
                         if e.kind == K_SENT and not e.auto
                         and isinstance(e.packet, Pubrel)
                         and e.packet.packet_id == packet_id)
        evidence += tuple(e.seq for e in closes if e.session == session)
        anomalies.append(make_anomaly(
            ORPHAN_PUBREL_REJECTED, evidence or (0,),
            f"PUBREL for never-published id {packet_id} was not answered "
            f"with PUBCOMP"))

    # R6: unexpected close, or tolerated violation.
    if conformant:
        if closes and not orphan_rejected:
            anomalies.append(make_anomaly(
                UNEXPECTED_DISCONNECT, tuple(e.seq for e in closes),
                "the broker closed the connection during a conformant script"))
    elif not closes:
        evidence = tuple(e.seq for e in trace.events if e.kind == K_SENT)[:1]
        anomalies.append(make_anomaly(
            PROTOCOL_VIOLATION_TOLERATED, evidence or (0,),
            "the script violated the protocol but the broker kept the "
            "connection open"))

    return ScenarioOutcome(
        experiment_name=experiment.name,
        delivered=tuple(delivered),
        ack_flow=tuple(ack_flow),
        anomalies=tuple(anomalies),
        aborted=trace.outcome != OUTCOME_COMPLETED)
