"""Experiment execution against a live broker endpoint.

One selector loop on the calling thread runs the steps and drains every
session socket.  A session is a ``codec.Connection``, the socket half
the refbroker's connections share; framing, auto-acks and what a stall
or a close means stay here.  A step's ``packet``, the codec packet it
carries, is encoded, recorded as a Sent event and appended to its
session's outbound buffer, which must empty before the next step
starts.  The loop reads every socket whenever the runner waits (a send
the socket cannot take yet, a ``wait`` step, settle) and at least every
READ_INTERVAL_S between steps, so a broker that stops reading one
session until it can write to another cannot wedge the run.  A send
that makes no progress for ``Endpoint.io_timeout_ms`` is a tcp-error,
and so, at once, is every later send on that connection.
Every event (sent and received, all sessions) takes a gap-free seq and
a millisecond timestamp on that one thread, so cross-session order is
total, and a Sent event is recorded before its bytes leave, so a reply
never sequences ahead of the frame that caused it.  All inbound bytes
become Received events via permissive decoding: frames that cannot be
parsed are preserved as Raw events, never dropped.

After the last step the runner settles: it keeps listening for at most
the experiment's ``settle_ms``.  The window ends at once when every
session is closed, and SETTLE_GAP_MS after the last event once every
session is settled: closed, or holding every reply its packets call for
(CONNACK, SUBACK, UNSUBACK, PUBACK/PUBREC, PUBCOMP, PINGRESP, and
PUBREL for a PUBREC it sent) while the judge owes no delivery: every
one the script model expects has arrived on a subscriber session, a DUP
copy not counted twice.  In a script that steps outside the protocol only
a close settles a session: the broker's answer to the violation is the
question.  The trace records the gap and which of ``closed``, ``quiet``
or ``cap`` ended the window.  A ``wait`` step is literal, except that
one followed only by other waits ends by the same rule as settle's
``closed``: once no session is open and none holds unsent bytes.

The runner never sends anything the script didn't ask for, with two
marked exceptions (``auto=True`` on the Sent event): the lazy CONNECT
that opens a session before its first wire-touching step, and the
auto-acks for broker-initiated QoS handshakes (PUBACK/PUBREC for
inbound publishes, PUBCOMP for inbound PUBREL) unless the session
declares ``auto_ack: false``.  In particular the runner never answers
a PUBREC: releasing a qos 2 publish is always a scripted decision.

The runner hands each event, as it is recorded, to the run's
``oracle.Judge`` at once, and to the trace sink, if any, once written.
Given the caller's judge (``run_corpus`` gives one) it then drops the
event; otherwise the trace keeps it.  The sink gets the header
first; before each poll of a ``wait`` step or settle, the pending events,
a chunk at a time while the chunk's writing ends SPILL_MARGIN_S before
the poll is due; after any step that leaves SPILL_BOUND events pending,
all of them, so a script without waits holds a bounded number; after the
last poll, the rest and the outcome.  A run is aborted by a lost
scripted frame, or by a peer close in ``Judge.closes`` before its
session's last step.

RunnerError is reserved for local faults (refused connection, DNS,
unencodable script); peer disconnects and silence are trace outcomes,
not errors.
"""

from __future__ import annotations

import contextlib
import math
import os
import selectors
import socket
import time
import uuid
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TextIO

from . import codec
from .codec import (Connack, Connect, Disconnect, Packet, Pingreq, Puback, Pubcomp, Publish,
                    Pubrec, Pubrel, Raw, Subscribe, Unsubscribe)
from .experiment import ConnectStep, Experiment, SendStep, SpliceNextStep, WaitStep, expand_steps
from .oracle import Judge, evaluate_trace
# trace_from_jsonl and trace_to_jsonl stay importable from here for bench/.
from .trace import (K_CLOSED_BY_PEER, K_CONNECTED, K_RECEIVED, K_SENT,  # noqa: F401
                    K_TCP_ERROR, OUTCOME_ABORTED_BY_PEER, OUTCOME_COMPLETED,
                    OUTCOME_RUNNER_ERROR, CorpusResult, Liveness, Trace, TraceEvent,
                    event_line, header_line, outcome_line, trace_from_jsonl, trace_lines,
                    trace_to_jsonl)

SETTLED_CLOSED = "closed"
SETTLED_QUIET = "quiet"
SETTLED_CAP = "cap"
# Steps run back to back without reading for at most this long.  Longer,
# and a broker writing to one of the sessions stalls on a full socket
# while the runner keeps sending; reading after every step instead would
# cost a paced script the time its ``wait`` steps could have spent
# reading.
READ_INTERVAL_S = 0.01
# How long the traffic must stay idle, once everything the script calls
# for has arrived, before settle ends: it catches frames the model does
# not predict (a duplicate, a late retransmission) trailing the last
# expected one.
SETTLE_GAP_MS = 100
# 64 publish events encode in about 0.2 ms, or 0.8 ms at 4 KiB each.  A
# chunk is written only if SPILL_S_PER_BYTE of its frame bytes still
# leaves SPILL_MARGIN_S, so a large frame waits for a longer wait, or for
# the end of the run.  A publish event's line hex-encodes its frame and
# its payload again: 2 ns a frame byte at 16 KiB, 8 ns at 1 MiB.  A step
# that leaves SPILL_BOUND events unwritten writes them all, with no
# deadline, so a script without waits, or with waits too short for a
# chunk, holds at most that many plus one step's.  1024 bench stream
# events write in about 3 ms; a traced corpus run peaks no lower at 256
# and about 1 MiB higher at 4096.
SPILL_CHUNK = 64
SPILL_BOUND = 1024
SPILL_S_PER_BYTE = 1e-8
SPILL_MARGIN_S = 0.002
# poll(2) waits whole milliseconds, rounding up, and the kernel may wake
# it a thousandth of its timeout late (timer slack).  A poll asks it for
# all but this and that thousandth, then sleeps the rest: ``time.sleep``
# wakes about 0.05 ms late.
WAKE_MARGIN_S = 0.001


class RunnerError(Exception):
    """Local failure: the target is unreachable or the script unencodable."""


@dataclass(frozen=True)
class Endpoint:
    host: str
    port: int = 1883
    connect_timeout_ms: int = 3000
    io_timeout_ms: int = 5000

    @classmethod
    def parse(cls, target: str, **kwargs: int) -> Endpoint:
        """Build from 'host', 'host:port', or '[v6addr]:port'."""
        if not target:
            raise RunnerError("empty target")
        if target.startswith("["):
            body, closed, rest = target.partition("]")
            host = body[1:]
            if not closed or not host:
                raise RunnerError(f"target {target!r} has unbalanced brackets")
            if not rest:
                return cls(host=host, **kwargs)
            if not rest.startswith(":"):
                raise RunnerError(f"target {target!r}: junk after ']'")
            return cls(host=host, port=cls._parse_port(target, rest[1:]), **kwargs)
        if ":" not in target:
            return cls(host=target, **kwargs)
        host, _, port_text = target.rpartition(":")
        if not host:
            raise RunnerError(f"target {target!r} is missing a host")
        if ":" in host:
            raise RunnerError(
                f"target {target!r}: bracket a literal v6 address as [addr]:port")
        return cls(host=host, port=cls._parse_port(target, port_text), **kwargs)

    @staticmethod
    def _parse_port(target: str, text: str) -> int:
        try:
            port = int(text)
        except ValueError:
            raise RunnerError(f"target {target!r} has a non-numeric port") from None
        if not 0 < port < 65_536:
            raise RunnerError(f"target {target!r} port outside 1..65535")
        return port

    @property
    def label(self) -> str:
        """'host:port', the host bracketed if it holds a colon, as ``parse`` reads it."""
        host = f"[{self.host}]" if ":" in self.host else self.host
        return f"{host}:{self.port}"

    def connect(self) -> socket.socket:
        """A TCP connection to the endpoint; ``connect_timeout_ms`` is its socket timeout."""
        return socket.create_connection((self.host, self.port),
                                        timeout=self.connect_timeout_ms / 1000)


_REPLIES: dict[type, type] = {
    Connect: Connack, Subscribe: codec.Suback, Unsubscribe: codec.Unsuback,
    Pubrec: Pubrel, Pubrel: Pubcomp, Pingreq: codec.Pingresp,
}
_PUBLISH_REPLIES = {1: Puback, 2: Pubrec}  # by qos


def _reply_owed(packet: Packet | None) -> type | None:
    """The packet type a conformant peer answers ``packet`` with."""
    if type(packet) is Publish:
        return _PUBLISH_REPLIES.get(packet.qos)
    return _REPLIES.get(type(packet))


class _Run:
    """The selector loop and event sequence one experiment shares across sessions."""

    def __init__(self, experiment: Experiment, endpoint: Endpoint, sink: TextIO | None,
                 judge: Judge, collected: list[TraceEvent] | None = None):
        self.endpoint = endpoint
        self.sink = sink
        self.judge = judge
        self.collected = collected   # every event, when the trace keeps them
        self.seq = 0                 # of the next event
        self.pending: list[TraceEvent] = []  # recorded, for ``sink``
        self.written = 0             # of ``pending``, already in ``sink``
        # Not epoll: ``EpollSelector`` passes whole milliseconds as float
        # seconds, and for about one timeout in eight epoll rounds that up
        # to one millisecond more.
        self.selector = getattr(selectors, "PollSelector", selectors.DefaultSelector)()
        self.t0 = time.monotonic()
        self.last_event_at = self.t0
        self.polled_at = self.t0
        self.sessions = {decl.id: _Session(decl, self) for decl in experiment.sessions}

    def record(self, session: str, kind: str, packet: Packet | None = None,
               raw: bytes | None = None, annotations: tuple[str, ...] = (),
               auto: bool = False, note: str = "") -> None:
        self.last_event_at = now = time.monotonic()
        event = TraceEvent(self.seq, round((now - self.t0) * 1000, 3), session, kind,
                           packet, raw, annotations, auto, note)
        self.seq += 1
        self.judge(event)
        if self.collected is not None:
            self.collected.append(event)
        if self.sink is not None:
            self.pending.append(event)

    def poll(self, timeout: float) -> None:
        """One round of the loop: wait up to ``timeout`` s, serve what is ready.

        A wait with nothing to serve ends on its deadline, never before it.
        """
        now = time.monotonic()
        stall_at = min((s.progress_at + self.endpoint.io_timeout_ms / 1000
                        for s in self.sessions.values() if s.out), default=math.inf)
        deadline = min(now + timeout, stall_at)
        rest = deadline - now
        ready = self.selector.select(rest - rest / 1000 - WAKE_MARGIN_S)
        if not ready and (rest := deadline - time.monotonic()) > 0:
            time.sleep(rest)
            ready = self.selector.select(0)
        self.polled_at = time.monotonic()
        for key, mask in ready:
            session = key.data
            # A hang-up reports both events, also on a socket no longer read.
            if mask & selectors.EVENT_READ and session.reading:
                session.read()
            if mask & selectors.EVENT_WRITE and session.out:
                session.flush()
        now = time.monotonic()
        for session in self.sessions.values():
            if session.out and now - session.progress_at >= self.endpoint.io_timeout_ms / 1000:
                session.send_failed(
                    f"send failed: no progress for {self.endpoint.io_timeout_ms} ms")
                # The socket stays full, so a later send would wait out the
                # timeout again: fail it at once instead, and keep reading.
                with contextlib.suppress(OSError):
                    session.sock.shutdown(socket.SHUT_WR)  # type: ignore[union-attr]

    def spill(self, deadline: float) -> None:
        """Write pending events a chunk at a time, each done SPILL_MARGIN_S before ``deadline``."""
        pending = self.pending
        while self.written < len(pending):
            chunk = pending[self.written:self.written + SPILL_CHUNK]
            size = sum(len(e.raw) for e in chunk if e.raw is not None)
            if time.monotonic() + size * SPILL_S_PER_BYTE >= deadline - SPILL_MARGIN_S:
                break
            self.sink.writelines(map(event_line, chunk))
            self.written += len(chunk)
        if self.written == len(pending):
            pending.clear()
            self.written = 0

    def pump(self, until: float, trailing: bool = False) -> None:
        """Serve every socket until the monotonic ``until``.

        A ``trailing`` pump, one no wire step follows, ends once no session
        can read or send: nothing can happen after that.
        """
        sessions = self.sessions.values()
        while not trailing or any(s.reading or s.out for s in sessions):
            self.spill(until)
            self.poll(until - time.monotonic())
            if time.monotonic() >= until:
                return

    def settle(self, settle_ms: int) -> str:
        """Listen for at most ``settle_ms`` after the last step; say what ended it."""
        judge = self.judge
        conformant = judge.model.input_conformant
        subscribers = [self.sessions[sid] for sid in judge.model.subscriber_sessions]
        start = time.monotonic()
        cap = start + settle_ms / 1000
        while True:
            sessions = self.sessions.values()
            if not any(s.reading for s in sessions):
                return SETTLED_CLOSED
            deadline, reason = cap, SETTLED_CAP
            if conformant and all(s.settled for s in sessions) \
                    and (not judge.owed or not any(s.reading for s in subscribers)):
                quiet_at = max(start, self.last_event_at) + SETTLE_GAP_MS / 1000
                if quiet_at < cap:
                    deadline, reason = quiet_at, SETTLED_QUIET
            if time.monotonic() >= deadline:
                return reason
            self.spill(deadline)
            self.poll(deadline - time.monotonic())

    def close(self) -> None:
        """Close every session, and cut their links back to the run.

        A link is a reference cycle: cut, the run and what it holds (the
        judge) go as soon as the caller drops it.
        """
        for session in self.sessions.values():
            session.local_close()
            session.run = None  # type: ignore[assignment]
        self.selector.close()

    @property
    def aborted(self) -> bool:
        """A scripted frame was lost, or the peer closed a session mid-script."""
        sessions = self.sessions
        return any(s.step_send_failed for s in sessions.values()) \
            or any(seq <= sessions[sid].steps_done_seq for seq, sid in self.judge.closes)


class _Session(codec.Connection):
    def __init__(self, decl, run: _Run):
        super().__init__()
        self.decl = decl
        self.run = run
        self.reading = False         # open, and the peer has not closed its side
        self.out_scripted = False    # ``out`` still holds a scripted frame
        self.unanswered: Counter = Counter()  # reply type -> still owed
        self.pending_splice: SpliceNextStep | None = None
        self.steps_done_seq = -1
        self.step_send_failed = False

    @property
    def settled(self) -> bool:
        return not (self.reading and (self.out or any(self.unanswered.values())))

    def connect(self, auto: bool) -> None:
        """Open TCP and send CONNECT; used lazily and by connect steps."""
        self.local_close()
        endpoint = self.run.endpoint
        try:
            sock = endpoint.connect()
        except OSError as exc:
            raise RunnerError(f"cannot connect to {endpoint.label}: {exc}") from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self.sock = sock
        self.reading = True
        self.unanswered.clear()
        self.watch(self.run.selector, True)
        self.run.record(self.decl.id, K_CONNECTED, note=endpoint.label)
        note = "auto-connect" if auto else ""
        self.send_packet(self.decl.to_connect(), auto=auto, note=note)

    def send_packet(self, packet: Packet, auto: bool, note: str = "") -> None:
        try:
            frame = codec.encode_packet(packet)
        except codec.CodecError as exc:
            raise RunnerError(f"cannot encode {type(packet).__name__}: {exc}") from exc
        spliced = False
        if not auto and self.pending_splice is not None:
            step = self.pending_splice
            self.pending_splice = None
            try:
                frame = codec.splice(frame, step.offset, step.remove,
                                     step.insert, step.fixup_length)
            except codec.CodecError as exc:
                raise RunnerError(f"splice failed: {exc}") from exc
            spliced = True
        self._send_frame(frame,
                         packet=None if spliced else packet,
                         auto=auto,
                         note="spliced" if spliced else note)

    def _send_frame(self, frame: bytes, packet: Packet | None,
                    auto: bool, note: str = "") -> None:
        self.run.record(self.decl.id, K_SENT, packet, frame, (), auto, note)
        reply = _reply_owed(packet)
        if reply is not None:
            self.unanswered[reply] += 1
        if not self.out:
            self.progress_at = time.monotonic()
        self.out += frame
        self.out_scripted = self.out_scripted or not auto
        self.flush()

    def wait_sent(self) -> None:
        """Serve every socket until ``out`` is written or given up."""
        while self.out:
            self.run.poll(math.inf)

    def flush(self) -> None:
        try:
            self.send(time.monotonic())
        except OSError as exc:
            self.send_failed(f"send failed: {exc}")
            return
        if not self.out:
            self.out_scripted = False
        self.watch(self.run.selector, self.reading)

    def send_failed(self, note: str) -> None:
        """Drop the unsent bytes; a lost scripted frame fails the step."""
        self.run.record(self.decl.id, K_TCP_ERROR, note=note,
                        auto=not self.out_scripted)
        if self.out_scripted:
            self.step_send_failed = True
        self.out.clear()
        self.out_scripted = False
        self.watch(self.run.selector, self.reading)

    def read(self) -> None:
        try:
            chunk = self.sock.recv(codec.RECV_BYTES)  # type: ignore[union-attr]
        except BlockingIOError:
            return
        except ConnectionResetError:
            self._peer_closed(K_CLOSED_BY_PEER, "connection reset")
        except OSError as exc:
            self._peer_closed(K_TCP_ERROR, f"recv failed: {exc}")
        else:
            if chunk:
                self.inbuf += chunk
                self._drain()
            else:
                self._peer_closed(K_CLOSED_BY_PEER, "")

    def _flush_unparsed(self) -> None:
        # Bytes that never completed a frame still count: record them
        # before the close so the trace accounts for every byte received.
        if self.inbuf:
            data = bytes(self.inbuf)
            self.run.record(self.decl.id, K_RECEIVED, packet=Raw(data=data),
                            raw=data, annotations=("unparsed-at-close",))
            self.inbuf = bytearray()

    def _peer_closed(self, kind: str, note: str) -> None:
        self._flush_unparsed()
        self.run.record(self.decl.id, kind, note=note)
        self.reading = False
        self.watch(self.run.selector, False)

    def _drain(self) -> None:
        """Record every whole frame in ``inbuf`` and keep the incomplete tail.

        Frames are decoded at an offset through a memoryview, so each frame
        is copied once instead of the buffer tail once per frame.
        """
        pos = 0
        run, session, unanswered = self.run, self.decl.id, self.unanswered
        with memoryview(self.inbuf) as view:
            while (read := codec.read_frame(view, pos)) is not None:
                packet, annotations, end = read
                frame = bytes(view[pos:end])
                pos = end
                if packet is None:
                    run.record(session, K_RECEIVED, Raw(frame), frame,
                               (f"malformed: {annotations[0]}",))
                    continue
                run.record(session, K_RECEIVED, packet, frame, tuple(annotations))
                cls = type(packet)
                if unanswered.get(cls):
                    unanswered[cls] -= 1
                # The auto-acks: what this client owes the broker for a
                # publish of qos 1 or 2, or for a PUBREL.
                if self.decl.auto_ack and (cls is Publish or cls is Pubrel) \
                        and (reply := _reply_owed(packet)) is not None:
                    ack = reply(packet.packet_id)
                    self._send_frame(codec.encode_packet(ack), ack, auto=True, note="auto-ack")
        del self.inbuf[:pos]

    def local_close(self) -> None:
        if self.sock is None:
            return
        self._flush_unparsed()
        self.reading = False
        self.out_scripted = False
        self.close(self.run.selector)
        self.sock = None


def check_reachable(endpoint: Endpoint) -> None:
    """Open and close a TCP connection to prove the endpoint accepts at all.

    Raises RunnerError on refusal or timeout.  No MQTT bytes are sent, so
    the probe is invisible above the transport layer.
    """
    try:
        endpoint.connect().close()
    except OSError as exc:
        raise RunnerError(
            f"cannot reach {endpoint.label}: {exc}") from exc


def run_experiment(experiment: Experiment, endpoint: Endpoint, sink: TextIO | None = None,
                   judge: Judge | None = None) -> Trace:
    """Execute one experiment and return its trace.

    The endpoint is checked for plain TCP reachability first, so even an
    experiment that never touches the wire fails loudly against a dead
    target instead of reporting a vacuous success.  A ``sink`` gets its
    JSONL.  A ``judge`` of the experiment gets each event as it is
    recorded, and the trace then holds none; without one, the run makes
    its own and the trace collects them all.  Settle reads the judge's
    count of the deliveries still owed.
    """
    check_reachable(endpoint)
    started_at = time.time()
    collected: list[TraceEvent] | None = None
    if judge is None:
        judge, collected = Judge(experiment), []
    run = _Run(experiment, endpoint, sink, judge, collected)
    if sink is not None:
        sink.write(header_line(experiment.name, endpoint.label, started_at, SETTLE_GAP_MS))
    sessions = run.sessions
    steps = expand_steps(experiment)
    tail = len(steps)  # steps[tail:] are all waits
    while tail and type(steps[tail - 1]) is WaitStep:
        tail -= 1
    try:
        for index, step in enumerate(steps):
            session = sessions[step.session]
            cls = type(step)
            if cls is WaitStep:
                run.pump(time.monotonic() + step.ms / 1000, trailing=index >= tail)
            elif cls is SpliceNextStep:
                session.pending_splice = step
            elif cls is ConnectStep:
                session.connect(auto=False)
            elif cls is SendStep and type(step.packet) is Disconnect:
                if session.sock is not None:
                    session.send_packet(step.packet, auto=False)
                    session.wait_sent()
                    session.local_close()
                else:
                    run.record(step.session, K_TCP_ERROR,
                               note="disconnect on closed session")
            else:
                if session.sock is None:
                    session.connect(auto=True)
                session.send_packet(step.packet, auto=False)
            session.wait_sent()
            if time.monotonic() - run.polled_at >= READ_INTERVAL_S:
                run.poll(0.0)
            if len(run.pending) - run.written >= SPILL_BOUND:
                run.spill(math.inf)
            session.steps_done_seq = run.seq - 1
        settled_by = run.settle(experiment.settle_ms)
    finally:
        run.close()

    outcome = OUTCOME_ABORTED_BY_PEER if run.aborted else OUTCOME_COMPLETED
    if sink is not None:
        run.spill(math.inf)
        sink.write(outcome_line(outcome, "", settled_by))
    return Trace(experiment_name=experiment.name, endpoint=endpoint.label,
                 started_at=started_at, events=tuple(collected or ()), outcome=outcome,
                 settle_gap_ms=SETTLE_GAP_MS, settled_by=settled_by)


def probe_liveness(endpoint: Endpoint) -> Liveness:
    """Fresh connection + CONNECT/CONNACK round trip."""
    client_id = f"probe-{uuid.uuid4().hex[:8]}".encode()
    try:
        sock = endpoint.connect()
    except OSError as exc:
        return Liveness(False, f"connect failed: {exc}")
    with sock:
        sock.settimeout(endpoint.io_timeout_ms / 1000)
        try:
            sock.sendall(codec.encode_packet(Connect(client_id=client_id)))
        except OSError as exc:
            return Liveness(False, f"send failed: {exc}")
        buffer = b""
        deadline = time.monotonic() + endpoint.io_timeout_ms / 1000
        while time.monotonic() < deadline:
            try:
                chunk = sock.recv(4096)
            except socket.timeout:
                return Liveness(False, "no CONNACK before timeout")
            except OSError as exc:
                return Liveness(False, f"recv failed: {exc}")
            if not chunk:
                return Liveness(False, "closed before CONNACK")
            buffer += chunk
            if (read := codec.read_frame(buffer, 0)) is None:
                continue
            packet, annotations, _ = read
            if packet is None:
                return Liveness(False, f"malformed reply: {annotations[0]}")
            if isinstance(packet, Connack):
                try:
                    sock.sendall(codec.encode_packet(Disconnect()))
                except OSError:
                    pass
                return Liveness(True, f"connack rc={packet.return_code}")
            return Liveness(False, f"unexpected reply {type(packet).__name__}")
        return Liveness(False, "no CONNACK before timeout")


def run_corpus(experiments: Iterable[Experiment], endpoint: Endpoint,
               trace_dir: str | None = None) -> Iterator[CorpusResult]:
    """Run and judge experiments in order, probing liveness after each.

    Each run feeds a new ``oracle.Judge`` as it records, and its result is
    yielded with the verdict (None after a runner error) and only the
    experiment's name, before the next experiment starts.  The experiment
    itself is dropped once it has run: the judge keeps its model, and the
    probe and the verdict need none of its steps.  After a dead probe the
    rest are skipped, not run into a corpse.  With a ``trace_dir``, each
    run writes its trace to ``<name>.jsonl`` there.
    """
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    liveness = Liveness(True)
    for experiment in experiments:
        named = Experiment(experiment.name)
        if not liveness.alive:
            yield CorpusResult(named, None, liveness, skipped=f"broker dead: {liveness.detail}")
            continue
        judge = Judge(experiment)
        trace = _trace_or_error(experiment, endpoint, trace_dir, judge)
        del experiment
        liveness = probe_liveness(endpoint)
        yield CorpusResult(named, trace, liveness,
                           outcome=None if trace.outcome == OUTCOME_RUNNER_ERROR
                           else evaluate_trace(named, trace, judge))


def _trace_or_error(experiment: Experiment, endpoint: Endpoint, trace_dir: str | None,
                    judge: Judge) -> Trace:
    with (contextlib.nullcontext() if trace_dir is None else
          open(os.path.join(trace_dir, f"{experiment.name}.jsonl"), "w", encoding="utf-8")) as sink:
        try:
            return run_experiment(experiment, endpoint, sink=sink, judge=judge)
        except RunnerError as exc:
            trace = Trace(experiment_name=experiment.name, endpoint=endpoint.label,
                          started_at=time.time(), events=(),
                          outcome=OUTCOME_RUNNER_ERROR, outcome_detail=str(exc))
            if sink is not None:  # replace what the run wrote before it failed
                sink.seek(0)
                sink.truncate()
                sink.writelines(trace_lines(trace))
            return trace
