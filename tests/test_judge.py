"""The one-pass judge gives every trace the reference oracle's outcome.

``reference_oracle.evaluate_trace`` is the batch oracle the judge
replaced, kept verbatim but for the ack flow, which both now group by
session.  Outcomes are compared field for field:
deliveries, ack flow, anomalies with their evidence tuples and
explanations, and the aborted flag.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_oracle
import synthetic
from mqttprobe import corpus
from mqttprobe.codec import (
    Connack,
    Connect,
    Disconnect,
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
)
from mqttprobe.experiment import (
    Experiment,
    SendStep,
    SessionDecl,
    SubscribeStep,
    UnsubscribeStep,
)
from mqttprobe.oracle import Judge, evaluate_trace, summarize_outcome
from mqttprobe.runner import run_experiment
from mqttprobe.trace import (
    K_CLOSED_BY_PEER,
    K_CONNECTED,
    K_RECEIVED,
    K_SENT,
    K_TCP_ERROR,
    OUTCOME_ABORTED_BY_PEER,
    OUTCOME_COMPLETED,
    Trace,
    TraceEvent,
)


def test_judge_equals_the_reference_on_every_synthetic_trace():
    compared = 0
    for label in synthetic.broker_labels():
        for result in synthetic.synthetic_results(label):
            assert evaluate_trace(result.experiment, result.trace) == \
                reference_oracle.evaluate_trace(result.experiment, result.trace), \
                (label, result.experiment.name)
            compared += 1
    assert compared == 25


def test_live_judge_equals_the_reference_on_the_corpus(endpoint):
    # Fed while the runner records, then finished on the event-less trace.
    codes = set()
    for experiment in corpus.builtin_corpus():
        judge, events = Judge(experiment), []
        trace = run_experiment(experiment, endpoint,
                               consumer=lambda event: (events.append(event), judge(event)))
        assert trace.events == ()
        live = evaluate_trace(experiment, trace, judge)
        full = dataclasses.replace(trace, events=tuple(events))
        assert live == reference_oracle.evaluate_trace(experiment, full), experiment.name
        codes.update(a.code for a in live.anomalies)
    assert codes  # the refbroker's known findings


def test_repeated_deliveries_share_the_models_identities():
    # Every received copy is fresh bytes; the judge keeps the model's tuples.
    payloads = [bytes([i]) * 8 for i in range(4)]
    steps = [SubscribeStep("s", b"t/#", 1)]
    steps += [SendStep("p", Publish(b"t/a", payloads[i % 4], 1, i + 1)) for i in range(12)]
    experiment = Experiment(name="repeats", steps=tuple(steps),
                            sessions=(SessionDecl(id="s"), SessionDecl(id="p")))
    events = [(K_SENT, "s", Subscribe(1, ((b"t/#", 1),))),
              (K_RECEIVED, "s", Suback(1, (1,)))]
    def fresh(data):  # an equal but new object, as the decoder makes
        return bytes(bytearray(data))

    for i in range(12):
        payload = payloads[i % 4]
        events.append((K_SENT, "p", Publish(b"t/a", payload, 1, i + 1)))
        events.append((K_RECEIVED, "s", Publish(fresh(b"t/a"), fresh(payload), 1, i + 1)))
        if i == 5:  # a retransmission, and an identity the script never published
            events.append((K_RECEIVED, "s", Publish(fresh(b"t/a"), fresh(payload), 1, i + 1,
                                                   dup=True)))
            events.append((K_RECEIVED, "s", Publish(fresh(b"t/z"), fresh(payload), 1, 99)))
            events.append((K_RECEIVED, "s", Publish(fresh(b"t/z"), fresh(payload), 1, 98)))
    trace = Trace(experiment_name="repeats", endpoint="random:1883", started_at=0.0,
                  outcome=OUTCOME_COMPLETED, events=tuple(
                      TraceEvent(seq=seq, t_ms=float(seq), session=sid, kind=kind,
                                 packet=packet, raw=b"")
                      for seq, (kind, sid, packet) in enumerate(events)))
    outcome = evaluate_trace(experiment, trace)
    assert outcome == reference_oracle.evaluate_trace(experiment, trace)
    model = {id(identity) for identity in experiment.model.expected}
    assert len(model) == 4
    assert len(outcome.delivered) == 14
    assert {id(identity) for identity in outcome.delivered} - model == {id(outcome.delivered[6])}
    assert outcome.delivered[6] is outcome.delivered[7] == (b"t/z", payloads[1])
    assert {a.code for a in outcome.anomalies} == {"duplicate-delivery"}
    # The summary hex-encodes each identity once.
    summary = summarize_outcome(outcome)
    assert summary.delivered[6] is summary.delivered[7] == (b"t/z".hex(), payloads[1].hex())
    assert summary.delivered[1] is summary.delivered[5]


def test_ack_flow_lists_sessions_in_declaration_order():
    # Two sessions reuse packet ids, and the broker interleaves their acks
    # as it schedules them: every interleaving gives one outcome.
    steps = tuple(SendStep(sid, Publish(b"t", sid.encode(), 1, i))
                  for sid in "ba" for i in (1, 2))
    experiment = Experiment(name="acks", steps=steps,
                            sessions=(SessionDecl(id="b"), SessionDecl(id="a")))
    acks = {"a": [Puback(1), Puback(2)], "b": [Puback(2), Puback(1)]}
    outcomes = set()
    for order in ("abab", "bbaa", "aabb", "baab"):
        arrivals = {sid: iter(packets) for sid, packets in acks.items()}
        events = [(K_SENT, step.session, step.packet) for step in steps]
        events += [(K_RECEIVED, sid, next(arrivals[sid])) for sid in order]
        trace = Trace(experiment_name="acks", endpoint="random:1883", started_at=0.0,
                      outcome=OUTCOME_COMPLETED, events=tuple(
                          TraceEvent(seq=seq, t_ms=float(seq), session=sid, kind=kind,
                                     packet=packet, raw=b"")
                          for seq, (kind, sid, packet) in enumerate(events)))
        outcome = evaluate_trace(experiment, trace)
        assert outcome == reference_oracle.evaluate_trace(experiment, trace), order
        outcomes.add(outcome)
    [outcome] = outcomes
    assert outcome.ack_flow == (("puback", 2), ("puback", 1), ("puback", 1), ("puback", 2))


# --- random event streams ----------------------------------------------------

_SESSIONS = ("a", "b", "c")
_TOPICS = (b"t/a", b"x")
_FILTERS = (b"t/a", b"x", b"t/a", b"x", b"t/#", b"t/+", b"#", b"t/#/bad")
_PAYLOADS = (b"p0", b"p1", b"\x00\xff")
_IDS = st.sampled_from((1, 2, 3, 1, 2, 3, 0))  # reused ids, and now and then 0


def _publish(identities=st.tuples(st.sampled_from(_TOPICS), st.sampled_from(_PAYLOADS)),
             qos_min=0):
    return st.builds(
        lambda identity, qos, packet_id, dup: Publish(
            topic=identity[0], payload=identity[1], qos=qos,
            packet_id=packet_id if qos else None, dup=dup),
        identities, st.integers(qos_min, 2), _IDS, st.booleans())


@st.composite
def _experiments(draw):
    """Subscriptions, then publishes, then anything: 1-3 sessions."""
    sessions = _SESSIONS[:draw(st.integers(1, 3))]
    session = st.sampled_from(sessions)
    subscribe = st.builds(SubscribeStep, session, st.sampled_from(_FILTERS),
                          st.integers(0, 2), _IDS)
    publish = st.builds(lambda s, p: SendStep(s, Publish(p.topic, p.payload, p.qos, p.packet_id)),
                        session, _publish())
    other = st.one_of(
        subscribe, publish,
        st.builds(UnsubscribeStep, session, st.sampled_from(_FILTERS), _IDS),
        st.builds(lambda s, i: SendStep(s, Pubrel(i)), session, _IDS),
        st.builds(SendStep, session, st.just(Disconnect())),
        st.builds(SendStep, session, st.just(Pingreq())),
    )
    steps = (draw(st.lists(subscribe, max_size=3)) + draw(st.lists(publish, max_size=6))
             + draw(st.lists(other, max_size=4)))
    return Experiment(name="random", sessions=tuple(SessionDecl(id=s) for s in sessions),
                      steps=tuple(steps))


_ACKS = st.one_of(
    st.builds(Puback, _IDS), st.builds(Pubrec, _IDS), st.builds(Pubrel, _IDS),
    st.builds(Pubcomp, _IDS),
    st.builds(Suback, _IDS, st.lists(st.sampled_from((0, 1, 2, 0x80)), min_size=1,
                                     max_size=2)),
)
_RECEIVED = st.one_of(
    _publish(), _publish(qos_min=1), st.just(Connack()), st.just(Pingresp()),
    st.builds(Unsuback, _IDS), st.just(Raw(b"\xf0\x00")),
)
_SENT = st.one_of(
    _publish(), st.builds(Pubrel, _IDS), st.just(Disconnect()), st.just(Connect()),
    st.builds(Puback, _IDS), st.builds(Pubcomp, _IDS),
    st.builds(lambda f: Subscribe(1, ((f, 1),)), st.sampled_from(_FILTERS)),
    st.none(),  # a spliced frame
)


@st.composite
def _traces(draw, experiment):
    session = st.sampled_from([decl.id for decl in experiment.sessions])
    # Mostly copies of what the script publishes, and acks, so the rules have work.
    published = [(step.packet.topic, step.packet.payload) for step in experiment.steps
                 if isinstance(step, SendStep) and isinstance(step.packet, Publish)]
    delivery = _publish(st.sampled_from(published)) if published else _publish()
    delivered = st.tuples(st.just(K_RECEIVED), session, delivery, st.just(False))
    acked = st.tuples(st.just(K_RECEIVED), session, _ACKS, st.just(False))
    # A SUBACK that answers one of the script's subscriptions.
    subscribed = [(step.session, step.packet_id) for step in experiment.steps
                  if isinstance(step, SubscribeStep)] or [("a", 1)]
    granted = st.builds(lambda sub, rc: (K_RECEIVED, sub[0], Suback(sub[1], (rc,)), False),
                        st.sampled_from(subscribed), st.sampled_from((0, 1, 2, 0x80)))
    # A qos 2 handshake's PUBREC and PUBCOMP, in either order.
    handshake = st.builds(
        lambda sid, packet_id, order: [(K_RECEIVED, sid, cls(packet_id), False) for cls in order],
        session, _IDS, st.sampled_from(((Pubrec, Pubcomp), (Pubcomp, Pubrec))))
    entry = st.one_of(
        delivered, delivered, delivered, acked, acked, granted, handshake,
        st.tuples(st.just(K_RECEIVED), session, _RECEIVED, st.just(False)),
        st.tuples(st.just(K_SENT), session, _SENT, st.booleans()),
        st.tuples(st.sampled_from((K_CLOSED_BY_PEER, K_CONNECTED, K_TCP_ERROR)), session,
                  st.none(), st.just(False)),
    )
    entries = [e for drawn in draw(st.lists(entry, max_size=30))
               for e in (drawn if isinstance(drawn, list) else [drawn])]
    # The script's own sends, in script order, among the rest.
    scripted = [(K_SENT, step.session, step.packet, False) for step in experiment.steps]
    at = sorted(draw(st.lists(st.integers(0, len(entries)), min_size=len(scripted),
                              max_size=len(scripted))))
    for offset, (index, sent) in enumerate(zip(at, scripted)):
        entries.insert(index + offset, sent)
    # A retransmission of a forwarded publish; a hang-up after a DISCONNECT.
    forwarded = [i for i, (kind, _, packet, _) in enumerate(entries)
                 if kind == K_RECEIVED and isinstance(packet, Publish) and packet.qos]
    if forwarded and draw(st.booleans()):
        i = draw(st.sampled_from(forwarded))
        kind, sid, packet, auto = entries[i]
        entries.insert(draw(st.integers(i + 1, len(entries))),
                       (kind, sid, dataclasses.replace(packet, dup=True), auto))
    byes = [i for i, (kind, _, packet, auto) in enumerate(entries)
            if kind == K_SENT and isinstance(packet, Disconnect) and not auto]
    if byes and draw(st.booleans()):
        i = draw(st.sampled_from(byes))
        entries.insert(draw(st.integers(i + 1, len(entries))),
                       (K_CLOSED_BY_PEER, entries[i][1], None, False))
    # A broker that never forwards one topic, defers every forward past the
    # handshake acks, or completes before it receives.
    lost = draw(st.sets(st.sampled_from(_TOPICS), max_size=1))
    entries = [e for e in entries
               if not (e[0] == K_RECEIVED and isinstance(e[2], Publish) and e[2].topic in lost)]
    order = draw(st.sampled_from(("as drawn", "deferred", "completions first")))
    if order == "deferred":
        entries.sort(key=lambda e: 0 if isinstance(e[2], (Puback, Pubrec))
                     else 1 if e[0] == K_RECEIVED and isinstance(e[2], Publish) else 2)
    elif order == "completions first":
        entries.sort(key=lambda e: not isinstance(e[2], Pubcomp))
    events = tuple(
        TraceEvent(seq=seq, t_ms=float(seq), session=sid, kind=kind, packet=packet,
                   raw=b"" if packet is not None else None, auto=auto)
        for seq, (kind, sid, packet, auto) in enumerate(entries))
    outcome = draw(st.sampled_from((OUTCOME_COMPLETED, OUTCOME_ABORTED_BY_PEER)))
    return Trace(experiment_name=experiment.name, endpoint="random:1883",
                 started_at=0.0, events=events, outcome=outcome)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_judge_equals_the_reference_on_random_event_streams(data):
    experiment = data.draw(_experiments())
    trace = data.draw(_traces(experiment))
    assert evaluate_trace(experiment, trace) == reference_oracle.evaluate_trace(experiment, trace)
