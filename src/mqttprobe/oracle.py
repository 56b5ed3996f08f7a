"""Trace classification: conformance anomalies, fingerprints, diffs.

The oracle never trusts the broker: expected deliveries are recomputed
from the experiment script by a small conformant-broker model, then
compared with what the trace actually witnessed.  Rules:

R1  every matched publish routes exactly once: missing qos>0 payloads
    are lost-message, excess copies are duplicate-delivery, and copies
    of a same-id qos 2 retransmission (which a conformant broker must
    suppress) are id-reuse-mishandled.
R2  first-occurrence delivery order must follow publish order.
R3  a qos 2 publisher must see PUBREC before PUBCOMP for the same id.
R4  bulk-deferred forwarding: if the first forwarded publication
    arrives only after the last PUBACK/PUBREC and a PUBCOMP follows
    the forwards, completion outran delivery (late-completion).
R5  a granted wildcard-free subscription whose exact topic is published
    but never delivered, without a disconnect, marks the filter as
    stored truncated (topic-truncation).
R6  a peer close during a conformant-input script is
    unexpected-disconnect; for nonconformant input the close is the
    expected response and its absence is protocol-violation-tolerated.
R7  an orphan PUBREL must still be answered with PUBCOMP; a close or
    silence instead is orphan-pubrel-rejected (which claims the close,
    suppressing R6).

All rules compare received events against received events on one
session, whose order is TCP-FIFO, never a sent event against a
received one, so classifications are robust to scheduling jitter.

The rules are checked in one pass: a ``Judge`` takes each event in seq
order, as the runner records it or as ``evaluate_trace`` reads it from a
finished trace, keeps only the indexes the rules read, and builds the
anomalies once, at the end.  ``runner.run_corpus`` feeds one judge per
run and carries its verdict on the result, and ``fingerprint`` summarizes
those verdicts: ``mqttprobe run`` and a live ``mqttprobe diff`` source
both go through these two.
"""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from .codec import (
    Disconnect,
    Packet,
    Puback,
    Pubcomp,
    Publish,
    Pubrec,
    Pubrel,
    Suback,
)
from .experiment import Experiment, Identity, scripted_input_conformant  # noqa: F401 (re-export)
from .trace import (
    K_CLOSED_BY_PEER,
    K_RECEIVED,
    K_SENT,
    OUTCOME_COMPLETED,
    CorpusResult,
    Trace,
    TraceEvent,
)


class Severity(enum.IntEnum):
    INFO = 0
    WARNING = 1
    DOS = 2
    CRITICAL = 3

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> Severity:
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {label!r}") from None


LOST_MESSAGE = "lost-message"
DUPLICATE_DELIVERY = "duplicate-delivery"
REORDERED_DELIVERY = "reordered-delivery"
ACK_BEFORE_PREREQUISITE = "ack-before-prerequisite"
LATE_COMPLETION = "late-completion"
TOPIC_TRUNCATION = "topic-truncation"
UNEXPECTED_DISCONNECT = "unexpected-disconnect"
BROKER_CRASH = "broker-crash"
ORPHAN_PUBREL_REJECTED = "orphan-pubrel-rejected"
ID_REUSE_MISHANDLED = "id-reuse-mishandled"
PROTOCOL_VIOLATION_TOLERATED = "protocol-violation-tolerated"

SEVERITY_BY_CODE: dict[str, Severity] = {
    LOST_MESSAGE: Severity.WARNING,
    DUPLICATE_DELIVERY: Severity.WARNING,
    REORDERED_DELIVERY: Severity.WARNING,
    ACK_BEFORE_PREREQUISITE: Severity.WARNING,
    LATE_COMPLETION: Severity.WARNING,
    TOPIC_TRUNCATION: Severity.WARNING,
    UNEXPECTED_DISCONNECT: Severity.DOS,
    BROKER_CRASH: Severity.DOS,
    ORPHAN_PUBREL_REJECTED: Severity.WARNING,
    ID_REUSE_MISHANDLED: Severity.WARNING,
    PROTOCOL_VIOLATION_TOLERATED: Severity.INFO,
}


class OracleError(Exception):
    pass


class TraceMismatchError(OracleError):
    """The trace was not produced by the given experiment."""


class NoOverlapError(OracleError):
    """Profiles share no experiment names."""


@dataclass(frozen=True)
class Anomaly:
    code: str
    severity: Severity
    evidence: tuple[int, ...]
    explanation: str


@dataclass(frozen=True)
class ScenarioOutcome:
    experiment_name: str
    delivered: tuple[Identity, ...]
    ack_flow: tuple[tuple[str, int], ...]
    anomalies: tuple[Anomaly, ...]
    aborted: bool


@dataclass(frozen=True)
class ScenarioSummary:
    delivered: tuple[tuple[str, str], ...]  # hex pairs
    anomalies: tuple[str, ...]  # sorted codes
    aborted: bool = False
    skipped: str | None = None


@dataclass(frozen=True)
class BehaviorProfile:
    broker_label: str
    version: str
    outcomes: dict[str, ScenarioSummary] = field(default_factory=dict)


def make_anomaly(code: str, evidence: tuple[int, ...], explanation: str) -> Anomaly:
    return Anomaly(code=code, severity=SEVERITY_BY_CODE[code],
                   evidence=evidence, explanation=explanation)


def _payload_text(payload: bytes, limit: int = 24) -> str:
    if payload and all(0x20 <= b < 0x7F for b in payload) and len(payload) <= limit:
        return payload.decode("ascii")
    text = payload.hex()
    return text[:limit] + ("..." if len(text) > limit else "")


# --- the judge -------------------------------------------------------------

_ACK_NAMES = {cls: cls.__name__.lower() for cls in (Puback, Pubrec, Pubrel, Pubcomp, Suback)}


class Judge:
    """R1-R7 in one pass over a run's events, fed in seq order as they are recorded.

    It keeps the indexes the rules read, never the events, and builds the
    anomalies once, in ``outcome``.  A delivery is a received PUBLISH on a
    subscriber session; a DUP copy of a qos>0 one already seen (same
    session, id, topic and payload) is a retransmission and collapses.
    Each delivery is kept as the model's own identity tuple, or the first
    copy of one the model does not expect, never as the received bytes.
    """

    def __init__(self, experiment: Experiment):
        self.experiment = experiment
        model = experiment.model
        self.subscribers = model.subscriber_sessions
        self.orphan_ids = {packet_id for _, packet_id in model.orphan_pubrels}
        self.identities: dict[Identity, Identity] = {i: i for i in model.expected}
        self.delivered: list[Identity] = []
        self.delivery_seqs: list[int] = []
        self.seen: set[tuple[str, int, Identity]] = set()  # the dup-collapse keys
        self.sent_seqs: dict[Identity, list[int]] = {}   # scripted publishes
        # Per session, declared ones first, each in arrival order: the order
        # across sessions is the scheduler's, and would differ run to run.
        self.ack_flows: dict[str, list[tuple[str, int]]] = {
            decl.id: [] for decl in experiment.sessions}
        self.first_pubrec: dict[tuple[str, int], int] = {}
        self.first_pubcomp: dict[tuple[str, int], int] = {}
        self.last_ack_seq: int | None = None              # of a PUBACK or PUBREC
        self.comp_after_delivery: int | None = None       # first PUBCOMP since the last one
        self.first_suback: dict[tuple[str, int], int] = {}
        self.granted: set[tuple[str, int]] = set()        # a SUBACK granted some filter
        self.orphan_pubrels: dict[int, list[int]] = {}    # scripted PUBRELs of orphan ids
        self.said_bye: set[str] = set()
        self.closes: list[tuple[int, str]] = []           # peer closes before a DISCONNECT
        self.first_sent: int | None = None

    def __call__(self, event: TraceEvent) -> None:
        kind = event.kind
        if kind == K_RECEIVED:
            cls = type(event.packet)
            if cls is Publish:
                self._publish(event.seq, event.session, event.packet)
            elif cls in _ACK_NAMES:
                self._ack(event.seq, event.session, event.packet)
        elif kind == K_SENT:
            if self.first_sent is None:
                self.first_sent = event.seq
            if not event.auto:
                self._scripted(event.seq, event.session, event.packet)
        elif kind == K_CLOSED_BY_PEER and event.session not in self.said_bye:
            self.closes.append((event.seq, event.session))

    def _scripted(self, seq: int, session: str, packet: Packet | None) -> None:
        cls = type(packet)
        if cls is Publish:
            self.sent_seqs.setdefault((packet.topic, packet.payload), []).append(seq)
        elif cls is Pubrel and packet.packet_id in self.orphan_ids:
            self.orphan_pubrels.setdefault(packet.packet_id, []).append(seq)
        elif cls is Disconnect:
            self.said_bye.add(session)

    def _publish(self, seq: int, session: str, packet: Publish) -> None:
        if session not in self.subscribers:
            return
        identity = (packet.topic, packet.payload)
        identity = self.identities.setdefault(identity, identity)
        if packet.packet_id is not None:
            key = (session, packet.packet_id, identity)
            if packet.dup and key in self.seen:
                return
            self.seen.add(key)
        self.delivered.append(identity)
        self.delivery_seqs.append(seq)
        self.comp_after_delivery = None

    def _ack(self, seq: int, session: str, packet: Packet) -> None:
        cls, key = type(packet), (session, packet.packet_id)  # type: ignore[union-attr]
        self.ack_flows.setdefault(session, []).append((_ACK_NAMES[cls], key[1]))
        if cls is Puback or cls is Pubrec:
            self.last_ack_seq = seq
            if cls is Pubrec:
                self.first_pubrec.setdefault(key, seq)
        elif cls is Pubcomp:
            self.first_pubcomp.setdefault(key, seq)
            if self.comp_after_delivery is None:
                self.comp_after_delivery = seq
        elif cls is Suback:
            self.first_suback.setdefault(key, seq)
            if any(rc != 0x80 for rc in packet.return_codes):  # type: ignore[union-attr]
                self.granted.add(key)

    def outcome(self, aborted: bool) -> ScenarioOutcome:
        """The verdict on the events fed so far."""
        experiment, model = self.experiment, self.experiment.model
        delivered, delivery_order = self.delivered, self.delivery_seqs
        anomalies: list[Anomaly] = []

        # R1: per-identity delivery counts against the conformant model.
        expected_counts = Counter(model.expected)
        suppressed_counts = Counter(model.suppressed)
        delivery_seqs: dict[Identity, list[int]] = {}
        for seq, identity in zip(delivery_order, delivered):
            delivery_seqs.setdefault(identity, []).append(seq)
        for identity in sorted(set(expected_counts) | set(delivery_seqs),
                               key=lambda i: (i[0], i[1])):
            want = expected_counts.get(identity, 0)
            got = len(delivery_seqs.get(identity, ()))
            if got < want and identity not in model.qos0_identities:
                anomalies.append(make_anomaly(
                    LOST_MESSAGE, tuple(self.sent_seqs.get(identity, (0,))),
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
            order = ", ".join(_payload_text(p) for _, p in observed_first)
            want_order = ", ".join(_payload_text(p) for _, p in expected_first)
            anomalies.append(make_anomaly(
                REORDERED_DELIVERY, tuple(delivery_order),
                f"delivered order [{order}] differs from publish order [{want_order}]"))

        # R3: PUBCOMP received before PUBREC for the same packet id.
        for key, comp_seq in sorted(self.first_pubcomp.items(), key=lambda kv: kv[1]):
            rec_seq = self.first_pubrec.get(key)
            if rec_seq is not None and comp_seq < rec_seq:
                anomalies.append(make_anomaly(
                    ACK_BEFORE_PREREQUISITE, (comp_seq, rec_seq),
                    f"PUBCOMP for id {key[1]} arrived before its PUBREC"))

        # R4: all forwards deferred past the acks, then completed.
        if delivery_order and self.last_ack_seq is not None \
                and self.comp_after_delivery is not None \
                and delivery_order[0] > self.last_ack_seq:
            anomalies.append(make_anomaly(
                LATE_COMPLETION,
                (delivery_order[0], self.last_ack_seq, self.comp_after_delivery),
                "every forwarded publication arrived after the handshake "
                "acks, and PUBCOMP arrived after the forwards: completion "
                "outran delivery, leaving a replay window"))

        # R5: granted exact-topic subscription that never produced a delivery.
        closed_sessions = {session for _, session in self.closes}
        expected_topics = {topic for topic, _ in model.expected}
        delivered_topics = {topic for topic, _ in delivered}
        for session, filters in sorted(model.exact_filters.items()):
            if session in closed_sessions:
                continue
            for topic_filter, sub_packet_id in filters:
                if (session, sub_packet_id) in self.granted \
                        and topic_filter in expected_topics \
                        and topic_filter not in delivered_topics:
                    anomalies.append(make_anomaly(
                        TOPIC_TRUNCATION, (self.first_suback[session, sub_packet_id],),
                        f"subscription to a {len(topic_filter)}-byte topic was "
                        f"granted but an exact-topic publish was never "
                        f"delivered: the stored filter no longer matches"))

        # R7 before R6: a rejected orphan release claims the close.
        orphan_rejected = False
        for session, packet_id in model.orphan_pubrels:
            if (session, packet_id) in self.first_pubcomp:
                continue
            orphan_rejected = True
            evidence = tuple(self.orphan_pubrels.get(packet_id, ()))
            evidence += tuple(seq for seq, closed in self.closes if closed == session)
            anomalies.append(make_anomaly(
                ORPHAN_PUBREL_REJECTED, evidence or (0,),
                f"PUBREL for never-published id {packet_id} was not answered "
                f"with PUBCOMP"))

        # R6: unexpected close, or tolerated violation.
        if experiment.input_conformant:
            if self.closes and not orphan_rejected:
                anomalies.append(make_anomaly(
                    UNEXPECTED_DISCONNECT, tuple(seq for seq, _ in self.closes),
                    "the broker closed the connection during a conformant script"))
        elif not self.closes:
            anomalies.append(make_anomaly(
                PROTOCOL_VIOLATION_TOLERATED,
                (0,) if self.first_sent is None else (self.first_sent,),
                "the script violated the protocol but the broker kept the "
                "connection open"))

        return ScenarioOutcome(
            experiment_name=experiment.name,
            delivered=tuple(delivered),
            ack_flow=tuple(ack for flow in self.ack_flows.values() for ack in flow),
            anomalies=tuple(anomalies),
            aborted=aborted)


def evaluate_trace(experiment: Experiment, trace: Trace,
                   judge: Judge | None = None) -> ScenarioOutcome:
    """Classify one trace against its script: feed a judge its events, then ask the verdict.

    A ``judge`` the runner already fed while recording is given only the
    events the trace still holds, none when the runner kept none.
    """
    if trace.experiment_name != experiment.name:
        raise TraceMismatchError(
            f"trace is for {trace.experiment_name!r}, not {experiment.name!r}")
    judge = judge or Judge(experiment)
    for event in trace.events:
        judge(event)
    return judge.outcome(aborted=trace.outcome != OUTCOME_COMPLETED)


# --- fingerprints ----------------------------------------------------------

def summarize_outcome(outcome: ScenarioOutcome) -> ScenarioSummary:
    """Each distinct identity is hex-encoded once; its deliveries share the pair."""
    pairs = {identity: (identity[0].hex(), identity[1].hex())
             for identity in set(outcome.delivered)}
    return ScenarioSummary(
        delivered=tuple(map(pairs.__getitem__, outcome.delivered)),
        anomalies=tuple(sorted({a.code for a in outcome.anomalies})),
        aborted=outcome.aborted)


def fingerprint(results: Iterable[CorpusResult], broker_label: str,
                version: str = "") -> BehaviorProfile:
    """Canonical per-scenario summary of one corpus run, from each result's ``outcome``.

    A dead liveness probe after a scenario rewrites that scenario's
    unexpected-disconnect (if any) into broker-crash: the close was the
    process dying, not a policy decision.
    """
    summaries: dict[str, ScenarioSummary] = {}
    for result in results:
        name = result.experiment.name
        if result.skipped is not None or result.trace is None:
            summaries[name] = ScenarioSummary((), (), skipped=result.skipped or "no trace")
            continue
        if result.outcome is None:
            summary = ScenarioSummary((), (), aborted=True,
                                      skipped=f"runner error: {result.trace.outcome_detail}")
        else:
            summary = summarize_outcome(result.outcome)
        if not result.liveness.alive:
            summary = replace(summary, anomalies=tuple(sorted(
                {c for c in summary.anomalies if c != UNEXPECTED_DISCONNECT} | {BROKER_CRASH})))
        summaries[name] = summary
    return BehaviorProfile(broker_label=broker_label, version=version,
                           outcomes=summaries)


def diff_profiles(a: BehaviorProfile, b: BehaviorProfile) -> list[tuple[str, str]]:
    """Per-scenario divergences on the shared experiment set."""
    shared = sorted(set(a.outcomes) & set(b.outcomes))
    if not shared:
        raise NoOverlapError(
            f"profiles {a.broker_label!r} and {b.broker_label!r} share no "
            f"experiments")
    divergences: list[tuple[str, str]] = []
    for name in shared:
        sa, sb = a.outcomes[name], b.outcomes[name]
        parts: list[str] = []
        if sa.delivered != sb.delivered:
            parts.append(f"delivered [{_delivered_text(sa)}] vs "
                         f"[{_delivered_text(sb)}]")
        if sa.anomalies != sb.anomalies:
            parts.append(f"anomalies {{{', '.join(sa.anomalies)}}} vs "
                         f"{{{', '.join(sb.anomalies)}}}")
        if sa.aborted != sb.aborted:
            parts.append(f"aborted {str(sa.aborted).lower()} vs "
                         f"{str(sb.aborted).lower()}")
        if (sa.skipped is None) != (sb.skipped is None):
            parts.append(f"skipped {sa.skipped!r} vs {sb.skipped!r}")
        if parts:
            divergences.append((name, "; ".join(parts)))
    return divergences


def _delivered_text(summary: ScenarioSummary) -> str:
    return ", ".join(_payload_text(bytes.fromhex(p)) for _, p in summary.delivered)


# --- serialization ---------------------------------------------------------

def anomaly_to_obj(anomaly: Anomaly) -> dict:
    return {"code": anomaly.code, "severity": anomaly.severity.label,
            "evidence": anomaly.evidence, "explanation": anomaly.explanation}


def outcome_to_obj(outcome: ScenarioOutcome, summary: ScenarioSummary) -> dict:
    """Shares the outcome's tuples, and its ``summary``'s hex pairs as the deliveries."""
    return {"experiment": outcome.experiment_name,
            "delivered": summary.delivered,
            "ack_flow": outcome.ack_flow,
            "anomalies": [anomaly_to_obj(a) for a in outcome.anomalies],
            "aborted": outcome.aborted}


def summary_to_obj(summary: ScenarioSummary) -> dict:
    return {"delivered": summary.delivered,
            "anomalies": summary.anomalies,
            "aborted": summary.aborted,
            "skipped": summary.skipped}


def profile_to_obj(profile: BehaviorProfile) -> dict:
    return {"broker_label": profile.broker_label,
            "version": profile.version,
            "outcomes": {name: summary_to_obj(summary)
                         for name, summary in sorted(profile.outcomes.items())}}
