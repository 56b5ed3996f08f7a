"""Trace runner: sequencing invariants, failure paths, serialization."""

import dataclasses
import gc
import io
import json
import math
import socket
import statistics
import struct
import threading
import time
import weakref

import pytest

from mqttprobe import corpus, runner
from mqttprobe.codec import (Connack, Connect, DecodeMode, Disconnect, IncompleteFrame, Pingresp,
                             Puback, Publish, Raw, Suback, Subscribe, decode_packet,
                             encode_packet)
from mqttprobe.experiment import (Experiment, SendStep, SessionDecl, SpliceNextStep,
                                  parse_experiment)
from mqttprobe.oracle import Judge, evaluate_trace
from mqttprobe.runner import (
    Endpoint,
    TraceEvent,
    K_CLOSED_BY_PEER,
    K_CONNECTED,
    K_RECEIVED,
    K_SENT,
    OUTCOME_ABORTED_BY_PEER,
    OUTCOME_COMPLETED,
    RunnerError,
    probe_liveness,
    run_corpus,
    run_experiment,
    trace_from_jsonl,
    trace_to_jsonl,
)
from mqttprobe.trace import event_line


def _free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def _exp(doc_dict):
    return parse_experiment(json.dumps(doc_dict))


QOS21 = corpus.corpus_by_name()["qos2_then_qos1_same_id"]


# ---------------------------------------------------------------------------
# Endpoint parsing

def test_endpoint_parse():
    ep = Endpoint.parse("broker.example:1884")
    assert (ep.host, ep.port) == ("broker.example", 1884)
    assert Endpoint.parse("localhost").port == 1883
    assert Endpoint.parse("[::1]:2000").port == 2000


@pytest.mark.parametrize("bad", ["host:0", "host:65536", "host:abc", "", ":",
                                 "[::1", "[::1]x", "::1"])
def test_endpoint_parse_rejects(bad):
    with pytest.raises(RunnerError):
        Endpoint.parse(bad)


def test_endpoint_label_round_trips():
    for target in ("h:1900", "[::1]:2000", "[::1]"):
        ep = Endpoint.parse(target)
        assert Endpoint.parse(ep.label) == ep


# ---------------------------------------------------------------------------
# Trace shape invariants on a live run

def test_trace_shape_invariants(endpoint):
    trace = run_experiment(QOS21, endpoint)
    assert trace.outcome == OUTCOME_COMPLETED
    seqs = [e.seq for e in trace.events]
    assert seqs == list(range(len(trace.events)))
    times = [e.t_ms for e in trace.events]
    assert times == sorted(times)
    assert all(t >= 0 for t in times)
    # Round-trip count: every scripted wire step appears as a non-auto Sent.
    scripted = [e for e in trace.events if e.kind == K_SENT and not e.auto]
    # connect is lazy (auto), so scripted sends == wire steps in the script.
    assert len(scripted) == len(QOS21.steps)
    # The reply to a send can never sequence ahead of the send itself.
    connack_seq = next(e.seq for e in trace.events
                       if e.kind == K_RECEIVED and isinstance(e.packet, Connack))
    connect_seq = next(e.seq for e in trace.events
                       if e.kind == K_SENT and isinstance(e.packet, Connect))
    assert connect_seq < connack_seq


def test_connected_event_precedes_all_io(endpoint):
    trace = run_experiment(QOS21, endpoint)
    first_io = next(e.seq for e in trace.events if e.kind in (K_SENT, K_RECEIVED))
    connected = next(e.seq for e in trace.events if e.kind == K_CONNECTED)
    assert connected < first_io


def test_received_events_carry_raw_bytes(endpoint):
    trace = run_experiment(QOS21, endpoint)
    for event in trace.events:
        if event.kind == K_RECEIVED:
            assert event.raw, "received event lost its wire bytes"


# ---------------------------------------------------------------------------
# Byte-count tap: every byte the peer sends lands in exactly one event

class TapPeer:
    """Single-shot fake broker that sends a fixed byte script, then closes."""

    def __init__(self, script: bytes, chunk: int = 3):
        self.script = script
        self.chunk = chunk
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.port = self.listener.getsockname()[1]
        self.sent = 0
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        try:
            while True:
                conn, _ = self.listener.accept()
                conn.settimeout(5)
                try:
                    first = conn.recv(4096)
                except OSError:
                    conn.close()
                    continue
                if not first:
                    # Bare reachability probe: opened and closed, no bytes.
                    conn.close()
                    continue
                try:
                    view = memoryview(self.script)
                    # Dribble tiny chunks to exercise frame reassembly.
                    for at in range(0, len(view), self.chunk):
                        conn.sendall(view[at:at + self.chunk])
                        self.sent += len(view[at:at + self.chunk])
                        time.sleep(0.002)
                    time.sleep(0.3)
                finally:
                    conn.close()
                return
        finally:
            self.listener.close()


def test_byte_count_tap_valid_and_malformed():
    script = (
        encode_packet(Connack(session_present=False, return_code=0))
        + encode_packet(Publish(topic=b"t", payload=b"x" * 50))
        + b"\x62\x02\x00\x00"       # pubrel with id 0: complete but annotated
        + b"\x00\x05ohno!"          # reserved type 0: malformed, framed length
        + encode_packet(Disconnect())
    )
    peer = TapPeer(script)
    exp = _exp({
        "name": "tap", "sessions": [{"id": "f", "auto_ack": False}],
        "settle_ms": 1500,
        "steps": [{"action": "pingreq", "session": "f"}],
    })
    trace = run_experiment(exp, Endpoint(host="127.0.0.1", port=peer.port))
    peer.thread.join(5)
    received = sum(len(e.raw) for e in trace.events
                   if e.kind == K_RECEIVED and e.raw)
    assert received == peer.sent == len(script)


def test_received_events_keep_each_frame_across_chunk_boundaries():
    frames = [
        encode_packet(Connack(session_present=False, return_code=0)),
        encode_packet(Publish(topic=b"t", payload=b"x" * 300)),
        b"\x62\x02\x00\x00",          # pubrel with id 0: complete but annotated
        b"\x20\x01\x00",              # connack body too short: malformed, framed
        encode_packet(Disconnect()),
    ]
    tail = encode_packet(Publish(topic=b"t", payload=b"cut"))[:-2]
    peer = TapPeer(b"".join(frames) + tail, chunk=7)
    exp = _exp({
        "name": "frames", "sessions": [{"id": "f", "auto_ack": False}],
        "settle_ms": 1500,
        "steps": [{"action": "pingreq", "session": "f"}],
    })
    trace = run_experiment(exp, Endpoint(host="127.0.0.1", port=peer.port))
    peer.thread.join(5)
    received = [e for e in trace.events if e.kind == K_RECEIVED]
    assert [e.raw for e in received] == frames + [tail]
    assert all(type(e.raw) is bytes for e in received)
    assert received[3].packet == Raw(frames[3])
    assert received[3].annotations[0].startswith("malformed: ")
    assert received[5].packet == Raw(tail)
    assert received[5].annotations == ("unparsed-at-close",)


def test_hostile_peer_random_bytes_never_crashes_runner():
    import random
    rng = random.Random(1234)
    script = rng.randbytes(4096)
    peer = TapPeer(script, chunk=128)
    exp = _exp({
        "name": "hostile", "sessions": [{"id": "f"}], "settle_ms": 800,
        "steps": [{"action": "pingreq", "session": "f"}],
    })
    trace = run_experiment(exp, Endpoint(host="127.0.0.1", port=peer.port))
    assert trace.outcome in (OUTCOME_COMPLETED, OUTCOME_ABORTED_BY_PEER)


# ---------------------------------------------------------------------------
# Failure paths

def test_wait_only_experiment_against_closed_port():
    exp = _exp({
        "name": "idle", "sessions": [{"id": "f"}],
        "steps": [{"action": "wait", "session": "f", "ms": 1}],
    })
    ep = Endpoint(host="127.0.0.1", port=_free_port(), connect_timeout_ms=500)
    with pytest.raises(RunnerError) as exc:
        run_experiment(exp, ep)
    assert "refused" in str(exc.value).lower() or "reach" in str(exc.value).lower()


def test_spliced_connect_aborts_by_peer(endpoint):
    keepalive = corpus.corpus_by_name()["keepalive_as_string"]
    trace = run_experiment(keepalive, endpoint)
    assert trace.outcome == OUTCOME_ABORTED_BY_PEER
    # No CONNACK: the broker must hang up without answering.
    assert not any(isinstance(e.packet, Connack) for e in trace.events
                   if e.kind == K_RECEIVED)
    assert any(e.kind == K_CLOSED_BY_PEER for e in trace.events)
    spliced = [e for e in trace.events if e.kind == K_SENT and e.note == "spliced"]
    assert len(spliced) == 1 and spliced[0].packet is None and spliced[0].raw


def test_a_close_after_a_scripted_disconnect_does_not_abort(endpoint):
    # As in the oracle's peer closes, a session that sent its DISCONNECT
    # has said goodbye, also on a later connection: the broker's hang-up
    # on the garbage below, during the wait, is no abort.
    exp = _exp({
        "name": "bye", "sessions": [{"id": "f"}], "settle_ms": 100,
        "steps": [{"action": "pingreq", "session": "f"},
                  {"action": "disconnect", "session": "f"},
                  {"action": "connect", "session": "f"},
                  {"action": "send_raw", "session": "f", "data_hex": "f000"},
                  {"action": "wait", "session": "f", "ms": 200}],
    })
    trace = run_experiment(exp, endpoint)
    assert [e.kind for e in trace.events].count(K_CLOSED_BY_PEER) == 1
    assert trace.outcome == OUTCOME_COMPLETED


def test_a_close_during_settle_completes_with_an_unexpected_disconnect():
    # The peer hangs up 200 ms after its CONNACK, while settle waits for
    # the PINGRESP: every step is done, so the run completes, and the
    # verdict names the close.
    def connack_then_close(conn, first):
        conn.sendall(encode_packet(Connack(session_present=False, return_code=0)))
        time.sleep(0.2)

    peer = OnePeer(connack_then_close)
    exp = _exp({
        "name": "settle-close", "sessions": [{"id": "f"}], "settle_ms": 5000,
        "steps": [{"action": "pingreq", "session": "f"}],
    })
    trace = run_experiment(exp, peer.endpoint())
    closed = trace.events[-1]
    assert closed.kind == K_CLOSED_BY_PEER and closed.t_ms >= 200
    assert trace.settled_by == runner.SETTLED_CLOSED
    assert trace.outcome == OUTCOME_COMPLETED
    assert [a.code for a in evaluate_trace(exp, trace).anomalies] == ["unexpected-disconnect"]


def test_a_run_releases_its_consumer_when_it_returns(endpoint):
    # The sessions' links back to the run are cut when it closes, so the
    # run, and the judge it fed, go without waiting for the cycle collector.
    judge = Judge(QOS21)
    released = weakref.ref(judge)
    gc.disable()
    try:
        run_experiment(QOS21, endpoint, judge=judge)
        del judge
        assert released() is None
    finally:
        gc.enable()


def test_run_corpus_drops_the_experiment_before_its_verdict(endpoint, monkeypatch):
    # The judge keeps the model; the steps go before the probe and the verdict.
    pending = [_exp({"name": "steps", "sessions": [{"id": "s"}, {"id": "p"}], "steps": [
        {"session": "s", "action": "subscribe", "filter": "t", "qos": 1, "packet_id": 1},
        {"session": "p", "action": "publish", "topic": "t", "payload": "x", "qos": 1,
         "packet_id": 1}]})]
    experiment = weakref.ref(pending[0])
    alive_at_verdict = []
    outcome = Judge.outcome

    def checked_outcome(judge, aborted):
        alive_at_verdict.append(experiment() is not None)
        return outcome(judge, aborted)

    def handed_over():
        while pending:
            yield pending.pop()

    monkeypatch.setattr(Judge, "outcome", checked_outcome)
    gc.disable()
    try:
        (result,) = run_corpus(handed_over(), endpoint)
    finally:
        gc.enable()
    assert alive_at_verdict == [False]
    assert result.experiment.name == "steps"
    assert result.outcome.delivered == ((b"t", b"x"),) and result.outcome.anomalies == ()


def test_probe_liveness_against_live_and_dead(endpoint):
    live = probe_liveness(endpoint)
    assert live.alive and "rc=0" in live.detail
    dead = probe_liveness(Endpoint(host="127.0.0.1", port=_free_port(),
                                   connect_timeout_ms=500))
    assert not dead.alive


def test_probe_liveness_reports_a_reset_before_its_connect(monkeypatch):
    # The listener accepts and resets at once; the probe's CONNECT goes out after.
    listener = socket.create_server(("127.0.0.1", 0))

    def accept_and_reset():
        conn, _ = listener.accept()
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        conn.close()

    resetter = threading.Thread(target=accept_and_reset)
    resetter.start()
    create_connection = socket.create_connection

    def connect_then_wait(*args, **kwargs):
        sock = create_connection(*args, **kwargs)
        resetter.join(5)
        time.sleep(0.05)
        return sock

    monkeypatch.setattr(socket, "create_connection", connect_then_wait)
    try:
        live = probe_liveness(Endpoint(host="127.0.0.1", port=listener.getsockname()[1]))
    finally:
        listener.close()
    assert not live.alive and live.detail.startswith("send failed: "), live.detail


@pytest.mark.parametrize("reply,detail", [
    (None, "closed before CONNACK"),
    (b"\x00\x00", "malformed reply: reserved packet type 0"),
    (encode_packet(Pingresp()), "unexpected reply Pingresp"),
    (b"", "no CONNACK before timeout"),
    (b"\x20", "no CONNACK before timeout"),
], ids=["close", "reserved-type", "pingresp", "silence", "half-connack"])
def test_probe_liveness_failure_verdicts(reply, detail):
    def answer(conn, first):
        if reply is not None:  # else close at once
            conn.sendall(reply)
            _read_to_eof(conn)

    peer = OnePeer(answer)
    live = probe_liveness(dataclasses.replace(peer.endpoint(), io_timeout_ms=300))
    peer.thread.join(5)
    assert (live.alive, live.detail) == (False, detail)


def test_probe_liveness_gives_up_on_a_trickled_connack():
    # A CONNACK header announcing 127 bytes, then a byte every 100 ms: no
    # recv waits out the 300 ms socket timeout, so the probe's own deadline
    # ends the wait.
    def trickle(conn, first):
        conn.sendall(b"\x20\x7f")
        try:
            for _ in range(30):
                time.sleep(0.1)
                conn.sendall(b"\x00")
        except OSError:
            pass

    peer = OnePeer(trickle)
    started = time.monotonic()
    live = probe_liveness(dataclasses.replace(peer.endpoint(), io_timeout_ms=300))
    elapsed = time.monotonic() - started
    peer.thread.join(5)
    assert (live.alive, live.detail) == (False, "no CONNACK before timeout")
    assert 0.3 <= elapsed < 2, elapsed


def test_run_corpus_skips_after_death():
    ep = Endpoint(host="127.0.0.1", port=_free_port(), connect_timeout_ms=300)
    exps = [
        _exp({"name": "one", "sessions": [{"id": "f"}],
              "steps": [{"action": "pingreq", "session": "f"}]}),
        _exp({"name": "two", "sessions": [{"id": "f"}],
              "steps": [{"action": "pingreq", "session": "f"}]}),
        _exp({"name": "three", "sessions": [{"id": "f"}], "steps": []}),
    ]
    results = list(run_corpus(exps, ep))
    assert results[0].trace.outcome == runner.OUTCOME_RUNNER_ERROR
    assert results[0].skipped is None and results[0].outcome is None
    assert results[1].skipped and "dead" in results[1].skipped
    assert results[1].trace is None
    assert results[2].skipped


def test_disconnect_step_closes_cleanly(endpoint):
    exp = _exp({
        "name": "clean-bye", "sessions": [{"id": "f"}], "settle_ms": 200,
        "steps": [{"action": "pingreq", "session": "f"},
                  {"action": "disconnect", "session": "f"}],
    })
    trace = run_experiment(exp, endpoint)
    assert trace.outcome == OUTCOME_COMPLETED
    assert any(isinstance(e.packet, Disconnect) for e in trace.events
               if e.kind == K_SENT)


def test_disconnect_on_a_closed_session_is_a_tcp_error(endpoint):
    exp = _exp({
        "name": "bye-twice", "sessions": [{"id": "f"}], "settle_ms": 200,
        "steps": [{"action": "pingreq", "session": "f"},
                  {"action": "disconnect", "session": "f"},
                  {"action": "disconnect", "session": "f"}],
    })
    trace = run_experiment(exp, endpoint)
    errors = [e for e in trace.events if e.kind == runner.K_TCP_ERROR]
    assert errors == [trace.events[-1]]
    assert (errors[0].session, errors[0].note, errors[0].auto) == \
        ("f", "disconnect on closed session", False)
    assert trace.outcome == OUTCOME_COMPLETED
    assert trace.settled_by == runner.SETTLED_CLOSED


def test_auto_ack_disabled_sends_nothing_by_itself(endpoint):
    exp = _exp({
        "name": "mute", "settle_ms": 600,
        "sessions": [{"id": "sub", "auto_ack": False}, {"id": "pub"}],
        "steps": [
            {"action": "subscribe", "session": "sub", "filter": "m/t",
             "qos": 1, "packet_id": 1},
            {"action": "publish", "session": "pub", "topic": "m/t",
             "payload": "x", "qos": 1, "packet_id": 5},
        ],
    })
    trace = run_experiment(exp, endpoint)
    auto_acks = [e for e in trace.events
                 if e.kind == K_SENT and e.auto and e.session == "sub"
                 and not isinstance(e.packet, Connect)]
    assert auto_acks == []
    # The subscriber still received the forwarded publish.
    assert any(e.session == "sub" and e.kind == K_RECEIVED
               and isinstance(e.packet, Publish) for e in trace.events)


def test_auto_ack_enabled_answers_qos1(endpoint):
    exp = _exp({
        "name": "acked", "settle_ms": 600,
        "sessions": [{"id": "sub"}, {"id": "pub"}],
        "steps": [
            {"action": "subscribe", "session": "sub", "filter": "m/t",
             "qos": 1, "packet_id": 1},
            {"action": "publish", "session": "pub", "topic": "m/t",
             "payload": "x", "qos": 1, "packet_id": 5},
        ],
    })
    trace = run_experiment(exp, endpoint)
    from mqttprobe.codec import Puback
    acks = [e for e in trace.events
            if e.kind == K_SENT and e.auto and isinstance(e.packet, Puback)]
    assert len(acks) == 1
    assert acks[0].session == "sub"


# ---------------------------------------------------------------------------
# Serialization

def test_trace_jsonl_round_trip(endpoint):
    trace = run_experiment(QOS21, endpoint)
    text = trace_to_jsonl(trace)
    back = trace_from_jsonl(text)
    assert back == trace
    # Every line is standalone JSON with a record tag.
    for line in text.strip().splitlines():
        obj = json.loads(line)
        assert obj["record"] in ("trace-header", "event", "trace-outcome")


def test_trace_jsonl_round_trip_with_abort(endpoint):
    keepalive = corpus.corpus_by_name()["keepalive_as_string"]
    trace = run_experiment(keepalive, endpoint)
    assert trace_from_jsonl(trace_to_jsonl(trace)) == trace


# ---------------------------------------------------------------------------
# One selector loop: backpressure, and a settle window that ends on quiet

class OnePeer:
    """Fake broker that hands its first MQTT connection to ``handle``.

    Bare reachability probes (opened and closed with no bytes) are
    skipped.  ``handle(conn, first_bytes)`` returns the peer's result.
    """

    def __init__(self, handle, rcvbuf=None):
        self.listener = socket.socket()
        if rcvbuf is not None:
            # Accepted sockets inherit it: a small window makes the
            # runner's sends block while the peer is not reading.
            self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.port = self.listener.getsockname()[1]
        self.result = None
        self.thread = threading.Thread(target=self._serve, args=(handle,), daemon=True)
        self.thread.start()

    def _serve(self, handle):
        try:
            while True:
                conn, _ = self.listener.accept()
                with conn:
                    conn.settimeout(10)
                    first = conn.recv(4096)
                    if first:
                        self.result = handle(conn, first)
                        return
        finally:
            self.listener.close()

    def endpoint(self):
        return Endpoint(host="127.0.0.1", port=self.port)


def _read_to_eof(conn, first=b""):
    total = len(first)
    while True:
        chunk = conn.recv(65536)
        if not chunk:
            return total
        total += len(chunk)


def test_slow_reading_peer_does_not_fail_a_burst():
    # 6 MiB outgrows the default 4 MiB ceiling of a Linux send buffer, so
    # sends block while the peer sleeps; a stall shorter than
    # io_timeout_ms must cost time, not the session.
    def stall_then_drain(conn, first):
        conn.sendall(encode_packet(Connack(session_present=False, return_code=0)))
        time.sleep(1.0)
        return _read_to_eof(conn, first)

    peer = OnePeer(stall_then_drain, rcvbuf=16_384)
    exp = _exp({
        "name": "burst", "sessions": [{"id": "f"}], "settle_ms": 2000,
        "steps": [{"action": "repeat", "session": "f", "count": 1536, "steps": [
            {"action": "publish", "session": "f", "topic": "burst/t",
             "payload": "p" * 4096}]}],
    })
    trace = run_experiment(exp, peer.endpoint())
    peer.thread.join(10)
    assert trace.outcome == OUTCOME_COMPLETED
    assert not [e for e in trace.events if e.kind == runner.K_TCP_ERROR]
    scripted = [e.raw for e in trace.events if e.kind == K_SENT and not e.auto]
    want = encode_packet(Publish(topic=b"burst/t", payload=b"p" * 4096))
    assert scripted == [want] * 1536
    sent = sum(len(e.raw) for e in trace.events if e.kind == K_SENT)
    assert peer.result == sent


def test_a_peer_that_stops_reading_costs_one_send_timeout():
    # The peer never reads, so its socket stays full after the first send
    # stalls out: each later send must fail at once, not wait out the
    # timeout again, or 1,200 steps would take about a minute.
    io_timeout_ms = 300
    release = threading.Event()

    def connack_then_stall(conn, first):
        conn.sendall(encode_packet(Connack(session_present=False, return_code=0)))
        release.wait(10)

    peer = OnePeer(connack_then_stall, rcvbuf=16_384)
    exp = _exp({
        "name": "stall", "sessions": [{"id": "f"}], "settle_ms": 500,
        "steps": [{"action": "repeat", "session": "f", "count": 1200, "steps": [
            {"action": "publish", "session": "f", "topic": "stall/t",
             "payload": "p" * 4096}]}],
    })
    started = time.monotonic()
    try:
        trace = run_experiment(exp, dataclasses.replace(peer.endpoint(),
                                                        io_timeout_ms=io_timeout_ms))
    finally:
        release.set()
        peer.thread.join(5)
    assert time.monotonic() - started < 5 * io_timeout_ms / 1000
    assert trace.outcome == OUTCOME_ABORTED_BY_PEER
    notes = [e.note for e in trace.events if e.kind == runner.K_TCP_ERROR]
    assert notes.count(f"send failed: no progress for {io_timeout_ms} ms") == 1
    assert len(notes) > 1


def test_settle_ends_on_quiet_once_replies_and_deliveries_arrive(endpoint):
    exp = _exp({
        "name": "quiet", "settle_ms": 5000,
        "sessions": [{"id": "sub"}, {"id": "pub"}],
        "steps": [
            {"action": "subscribe", "session": "sub", "filter": "q/#",
             "qos": 2, "packet_id": 1},
            {"action": "publish", "session": "pub", "topic": "q/a",
             "payload": "one", "qos": 1, "packet_id": 2},
            {"action": "publish", "session": "pub", "topic": "q/b",
             "payload": "two", "qos": 2, "packet_id": 3},
            {"action": "pubrel", "session": "pub", "packet_id": 3},
            {"action": "pingreq", "session": "sub"},
        ],
    })
    started = time.monotonic()
    trace = run_experiment(exp, endpoint)
    assert time.monotonic() - started < 1.0
    assert trace.settled_by == runner.SETTLED_QUIET
    assert trace.settle_gap_ms == runner.SETTLE_GAP_MS
    received = [type(e.packet).__name__ for e in trace.events if e.kind == K_RECEIVED]
    assert received.count("Publish") == 2
    for reply in ("Connack", "Suback", "Puback", "Pubrec", "Pubcomp", "Pingresp"):
        assert reply in received, reply


def test_settle_runs_to_cap_against_a_silent_peer():
    peer = OnePeer(_read_to_eof)
    exp = _exp({
        "name": "silent", "sessions": [{"id": "f"}], "settle_ms": 400,
        "steps": [{"action": "pingreq", "session": "f"}],
    })
    started = time.monotonic()
    trace = run_experiment(exp, peer.endpoint())
    assert time.monotonic() - started >= 0.4
    assert trace.settled_by == runner.SETTLED_CAP
    assert trace.outcome == OUTCOME_COMPLETED


def test_settle_ends_at_once_when_the_peer_closes():
    peer = OnePeer(lambda conn, first: None)
    exp = _exp({
        "name": "hangup", "sessions": [{"id": "f"}], "settle_ms": 5000,
        "steps": [{"action": "connect", "session": "f"},
                  {"action": "wait", "session": "f", "ms": 100}],
    })
    started = time.monotonic()
    trace = run_experiment(exp, peer.endpoint())
    assert time.monotonic() - started < 1.0
    assert trace.settled_by == runner.SETTLED_CLOSED
    assert any(e.kind == K_CLOSED_BY_PEER for e in trace.events)


def test_settle_waits_for_a_delivery_a_dup_copy_does_not_stand_for():
    # Two qos 1 publishes of one identity: delivery 7, its DUP copy, and
    # 300 ms later delivery 8.  The copy is a retransmission, so settle
    # still owes one delivery and waits for 8 instead of ending quiet.
    def dup_then_late_delivery(conn, first):
        inbound, frames = bytearray(first), 0
        while frames < 4:  # CONNECT, SUBSCRIBE and the two publishes
            try:
                _, _, used = decode_packet(bytes(inbound), DecodeMode.PERMISSIVE)
            except IncompleteFrame:
                chunk = conn.recv(4096)
                if not chunk:
                    return None
                inbound += chunk
                continue
            del inbound[:used]
            frames += 1
        delivery = Publish(b"t", b"x", 1, 7)
        conn.sendall(b"".join(map(encode_packet, (
            Connack(session_present=False, return_code=0), Suback(1, (1,)),
            Puback(1), Puback(2), delivery, dataclasses.replace(delivery, dup=True)))))
        time.sleep(0.3)
        conn.sendall(encode_packet(Publish(b"t", b"x", 1, 8)))
        return _read_to_eof(conn)

    peer = OnePeer(dup_then_late_delivery)
    exp = _exp({
        "name": "dup-then-late", "sessions": [{"id": "f"}], "settle_ms": 2000,
        "steps": [{"action": "subscribe", "session": "f", "filter": "t", "qos": 1,
                   "packet_id": 1},
                  {"action": "publish", "session": "f", "topic": "t", "payload": "x",
                   "qos": 1, "packet_id": 1},
                  {"action": "publish", "session": "f", "topic": "t", "payload": "x",
                   "qos": 1, "packet_id": 2}],
    })
    started = time.monotonic()
    trace = run_experiment(exp, peer.endpoint())
    assert time.monotonic() - started < 2.0
    assert trace.settled_by == runner.SETTLED_QUIET
    received = [e.packet for e in trace.events
                if e.kind == K_RECEIVED and type(e.packet) is Publish]
    assert [(p.packet_id, p.dup) for p in received] == [(7, False), (7, True), (8, False)]
    assert evaluate_trace(exp, trace).anomalies == ()


# ---------------------------------------------------------------------------
# A trailing wait ends once no session can read or send

def test_trailing_wait_ends_when_the_peer_hangs_up_after_connect():
    peer = OnePeer(lambda conn, first: None)
    exp = _exp({
        "name": "hangup", "sessions": [{"id": "f"}], "settle_ms": 5000,
        "steps": [{"action": "connect", "session": "f"},
                  {"action": "wait", "session": "f", "ms": 5000}],
    })
    started = time.monotonic()
    trace = run_experiment(exp, peer.endpoint())
    assert time.monotonic() - started < 1.0
    assert trace.settled_by == runner.SETTLED_CLOSED
    assert trace.events[-1].kind == K_CLOSED_BY_PEER


@pytest.mark.parametrize("delay_ms", [50, 150])
def test_trailing_wait_ends_at_a_late_close(delay_ms):
    def connack_then_close(conn, first):
        conn.sendall(encode_packet(Connack(session_present=False, return_code=0)))
        time.sleep(delay_ms / 1000)

    peer = OnePeer(connack_then_close)
    exp = _exp({
        "name": "late-close", "sessions": [{"id": "f"}], "settle_ms": 5000,
        "steps": [{"action": "connect", "session": "f"},
                  {"action": "wait", "session": "f", "ms": 300}],
    })
    started = time.monotonic()
    trace = run_experiment(exp, peer.endpoint())
    elapsed = time.monotonic() - started
    received = [e.packet for e in trace.events if e.kind == K_RECEIVED]
    assert received == [Connack(session_present=False, return_code=0)]
    closed = trace.events[-1]
    assert closed.kind == K_CLOSED_BY_PEER and closed.t_ms >= delay_ms
    # The run ends shortly after the close, not when the 300 ms run out.
    assert elapsed - closed.t_ms / 1000 < 0.1
    assert elapsed < 0.3
    assert trace.settled_by == runner.SETTLED_CLOSED


def test_trailing_wait_is_literal_while_a_session_is_open(endpoint):
    # The refbroker hangs up on "bad" for its invalid filter; "ok" stays open.
    exp = _exp({
        "name": "one-open", "sessions": [{"id": "ok"}, {"id": "bad"}],
        "settle_ms": 100,
        "steps": [{"action": "connect", "session": "ok"},
                  {"action": "subscribe", "session": "bad",
                   "filter": "fuzz/#/invalid", "qos": 0},
                  {"action": "wait", "session": "ok", "ms": 300}],
    })
    started = time.monotonic()
    trace = run_experiment(exp, endpoint)
    assert time.monotonic() - started >= 0.3
    assert [e.session for e in trace.events if e.kind == K_CLOSED_BY_PEER] == ["bad"]
    # The invalid filter steps outside the protocol: only a close settles.
    assert trace.settled_by == runner.SETTLED_CAP


def test_wait_before_a_later_connect_is_literal(endpoint):
    exp = _exp({
        "name": "reopen", "sessions": [{"id": "f"}], "settle_ms": 100,
        "steps": [{"action": "subscribe", "session": "f",
                   "filter": "fuzz/#/invalid", "qos": 0},
                  {"action": "wait", "session": "f", "ms": 300},
                  {"action": "connect", "session": "f"}],
    })
    trace = run_experiment(exp, endpoint)
    scripted = [e for e in trace.events if e.kind == K_SENT and not e.auto]
    assert [type(e.packet) for e in scripted] == [Subscribe, Connect]
    closed = [e for e in trace.events if e.kind == K_CLOSED_BY_PEER]
    assert len(closed) == 1 and closed[0].t_ms < scripted[1].t_ms
    assert scripted[1].t_ms - scripted[0].t_ms >= 300
    # The invalid filter steps outside the protocol: only a close settles.
    assert trace.settled_by == runner.SETTLED_CAP


def test_corpus_settles_as_pinned(endpoint):
    # A quiet settle silently turned into a cap would cost each scenario
    # its full settle_ms; a closed one would hide a broker that stays open.
    closed = {"keepalive_as_string", "invalid_wildcard_subscribe",
              "invalid_wildcard_publish", "topic_utf16", "bad_protocol_name",
              "bad_protocol_level"}
    settled = {r.experiment.name: r.trace.settled_by
               for r in run_corpus(corpus.builtin_corpus(), endpoint)}
    want = {name: runner.SETTLED_CLOSED if name in closed else runner.SETTLED_QUIET
            for name in corpus.corpus_by_name()}
    want["non_utf8_client_id"] = runner.SETTLED_CAP
    assert settled == want


def test_trace_jsonl_without_settle_fields_still_loads():
    text = "\n".join([
        json.dumps({"record": "trace-header", "experiment": "old",
                    "endpoint": "h:1883", "started_at": 1.0}),
        json.dumps({"record": "event", "seq": 0, "t_ms": 0.5, "session": "f",
                    "kind": "connected", "packet": None, "raw": None,
                    "annotations": [], "auto": False, "note": "h:1883"}),
        json.dumps({"record": "trace-outcome", "outcome": "completed", "detail": ""}),
    ])
    trace = trace_from_jsonl(text)
    assert trace.settle_gap_ms is None and trace.settled_by is None
    assert trace_from_jsonl(trace_to_jsonl(trace)) == trace
    assert "settled_by" not in trace_to_jsonl(trace)


# ---------------------------------------------------------------------------
# Trace lines written while the runner waits

class _CountingSink(io.StringIO):
    def __init__(self):
        super().__init__()
        self.batches = 0

    def writelines(self, lines):
        self.batches += 1
        super().writelines(lines)


def test_trace_written_during_a_multi_wait_run_equals_the_trace(endpoint):
    exp = _exp({
        "name": "waits", "settle_ms": 300,
        "sessions": [{"id": "sub"}, {"id": "pub"}],
        "steps": [
            {"action": "subscribe", "session": "sub", "filter": "w/#", "qos": 2,
             "packet_id": 1},
            {"action": "publish", "session": "pub", "topic": "w/a", "payload": "a",
             "qos": 1, "packet_id": 2},
            {"action": "wait", "session": "pub", "ms": 30},
            {"action": "publish", "session": "pub", "topic": "w/b", "payload": "b",
             "qos": 2, "packet_id": 3},
            {"action": "publish", "session": "pub", "topic": "w/c", "payload": "c"},
            {"action": "wait", "session": "pub", "ms": 30},
            {"action": "pingreq", "session": "sub"},
            {"action": "wait", "session": "sub", "ms": 30},
            {"action": "publish", "session": "pub", "topic": "w/d", "payload": "d",
             "qos": 1, "packet_id": 4},
            {"action": "wait", "session": "pub", "ms": 30},
            # Settle then ends at once, so the DISCONNECTs are written after it.
            {"action": "disconnect", "session": "sub"},
            {"action": "disconnect", "session": "pub"},
        ],
    })
    sink = _CountingSink()
    trace = run_experiment(exp, endpoint, sink=sink)
    assert trace.outcome == OUTCOME_COMPLETED
    assert trace.settled_by == runner.SETTLED_CLOSED
    assert len(trace.events) > 20
    assert sink.getvalue() == trace_to_jsonl(trace)
    # Each wait follows a new sent event, so each writes before it polls.
    assert sink.batches >= 4


def _flood(publishes, *tail):
    """QoS 0 publishes back to back, with no wait, then ``tail``."""
    steps = [SendStep("p", Publish(b"flood/t", b"%d" % i)) for i in range(publishes)]
    return Experiment(name="flood", sessions=(SessionDecl(id="p"),), settle_ms=300,
                      steps=(*steps, *tail))


def _backlogs(monkeypatch):
    """The unwritten events at each spill, as ``runner._Run.spill`` starts."""
    seen = []
    spill = runner._Run.spill

    def counted(run, deadline):
        seen.append(len(run.pending) - run.written)
        spill(run, deadline)

    monkeypatch.setattr(runner._Run, "spill", counted)
    return seen


def test_a_run_without_waits_holds_a_bounded_backlog(endpoint, monkeypatch):
    backlogs = _backlogs(monkeypatch)
    sink = io.StringIO()
    trace = run_experiment(_flood(3 * runner.SPILL_BOUND), endpoint, sink=sink)
    assert trace.outcome == OUTCOME_COMPLETED
    assert sink.getvalue() == trace_to_jsonl(trace)
    # A step's events are its scripted frame and what the reads after it saw.
    scripted = [e.seq for e in trace.events if e.kind == K_SENT and not e.auto]
    step = max(b - a for a, b in zip([-1] + scripted, scripted + [len(trace.events) - 1]))
    assert len(trace.events) > 3 * runner.SPILL_BOUND
    assert sum(b >= runner.SPILL_BOUND for b in backlogs) >= 3
    assert max(backlogs) < runner.SPILL_BOUND + step, (max(backlogs), step)


def test_a_runner_error_after_a_spill_leaves_only_its_own_trace(endpoint, tmp_path,
                                                                monkeypatch):
    backlogs = _backlogs(monkeypatch)
    # The splice reaches past the next frame, so its step raises a RunnerError.
    exp = _flood(runner.SPILL_BOUND + 10, SpliceNextStep("p", offset=1000, remove=1),
                 SendStep("p", Publish(b"flood/t", b"spliced")))
    [result] = run_corpus([exp], endpoint, trace_dir=str(tmp_path))
    assert result.trace.outcome == runner.OUTCOME_RUNNER_ERROR
    assert "splice failed" in result.trace.outcome_detail
    assert backlogs and backlogs[0] >= runner.SPILL_BOUND  # written before the error
    text = (tmp_path / "flood.jsonl").read_text(encoding="utf-8")
    assert text == trace_to_jsonl(result.trace)
    assert trace_from_jsonl(text).events == ()


def test_spill_leaves_a_short_wait_on_time(tmp_path):
    publish = Publish(topic=b"spill/t", payload=bytes(64), qos=1, packet_id=1)
    frame = encode_packet(publish)
    large = Publish(topic=b"spill/t", payload=bytes(1 << 20), qos=1, packet_id=2)
    large_frame = encode_packet(large)
    # A 1 MiB frame writes in several ms: it must wait for a longer wait,
    # or for the end of the run, not stretch this one.
    events = [TraceEvent(seq=i, t_ms=i / 100, session="f", kind=K_RECEIVED,
                         packet=large, raw=large_frame) if i % 64 == 1 and i < 384 else
              TraceEvent(seq=i, t_ms=i / 100, session="f", kind=K_RECEIVED,
                         packet=publish, raw=frame) for i in range(100_000)]
    path = tmp_path / "spill.jsonl"
    with path.open("w", encoding="utf-8") as sink:
        run = runner._Run(QOS21, Endpoint(host="127.0.0.1", port=1), sink, Judge(QOS21))
        try:
            run.pending.extend(events)
            started = time.monotonic()
            run.pump(started + 0.005)
            elapsed = time.monotonic() - started
            assert run.written < len(events)
            assert all(e.raw is not large_frame for e in run.pending[:run.written])
            run.spill(math.inf)  # after the loop, as run_experiment does
            assert run.pending == []
        finally:
            run.close()
    assert elapsed < 0.025, f"a 5 ms wait took {elapsed * 1000:.1f} ms"
    with path.open(encoding="utf-8") as written:
        for line, event in zip(written, events, strict=True):
            assert line == event_line(event)


def test_waits_end_on_their_deadline(endpoint, monkeypatch):
    # Each wait wakes for the PUBACK and the delivery, then polls again with
    # a fraction of a millisecond it must not round up to a whole one.
    ends = []
    pump = runner._Run.pump

    def timed(run, until, trailing=False):
        pump(run, until, trailing)
        ends.append(time.monotonic() - until)

    monkeypatch.setattr(runner._Run, "pump", timed)
    steps = [{"action": "subscribe", "session": "s", "filter": "wait/#", "qos": 1}]
    for i in range(60):
        steps += [{"action": "publish", "session": "p", "topic": "wait/t",
                   "payload": str(i), "qos": 1, "packet_id": i + 1},
                  {"action": "wait", "session": "p", "ms": 2 + i % 4}]
    steps.append({"action": "pingreq", "session": "p"})
    exp = _exp({"name": "waits", "sessions": [{"id": "s"}, {"id": "p"}],
                "settle_ms": 200, "steps": steps})
    trace = run_experiment(exp, endpoint)
    assert trace.outcome == OUTCOME_COMPLETED
    assert sum(e.kind == K_RECEIVED and isinstance(e.packet, Publish)
               for e in trace.events) == 60
    assert len(ends) == 60
    assert min(ends) >= 0, f"a wait ended {-min(ends) * 1000:.3f} ms early"
    overshoot = statistics.median(ends)
    assert overshoot < 0.0002, f"median overshoot {overshoot * 1000:.3f} ms"
