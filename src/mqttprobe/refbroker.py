"""Minimal standard-conformant MQTT 3.1.1 broker for loopback runs.

The broker exists as a known-good baseline: experiments executed
against it must come out anomaly-free, so its QoS semantics are the
conformance argument.

One thread runs one selector loop over the listener and every
connection, and all routing passes through one single-threaded Router
called from that loop, giving every delivery a total order.  Each
connection is a ``codec.Connection``, the socket half the runner's
sessions share; its framing, turns and flow control stay here.

Frames are routed in the order their bytes were read.  Each read puts
its connection at the tail of one FIFO; between two polls the loop
dispatches at most TURN_FRAMES whole frames, from the FIFO's head on,
and while the FIFO is not empty it polls without waiting.  So one
client's backlog holds up the loop, and a new client, for one turn at
most.  A connection in the FIFO is not read again until its whole
frames are dispatched, so its inbound buffer holds at most one read
plus a partial frame.  A new connection's first frame is dispatched
and answered as soon as it is read, since a CONNECT routes nothing.  A
CONNECT that would take over a client id still in use is dispatched
only at the FIFO's head, so it waits behind every frame read before
it, the holder's among them.

What the Router sends is appended to the target connection's outbound
buffer, which drains whenever its socket is writable, so routing never
waits on a peer.  Memory is bounded by backpressure, not by dropping
subscribers that are behind: the loop stops reading from a connection
whose frame left any outbound buffer above HIGH_WATER, until every such
buffer drains to the mark or its connection closes.  A paused
connection leaves the FIFO and rejoins it at the tail when released.
So an outbound buffer holds at most HIGH_WATER plus one frame from each
connection sending to it.  A connection whose pending output makes no
progress for SEND_DEADLINE_S is closed as a slow consumer, so a client
that never reads cannot hold up anyone else for longer than that; so
is a subscriber whose 65,535 outbound packet ids are all unacknowledged.

Scope: clean sessions only, no retained messages, no will delivery, no
keep-alive eviction, no auth.  A protocol violation on a connection
closes that connection and nothing else; no input may take the process
down.  An invalid PUBLISH topic is a violation, and so is an invalid
filter in a SUBSCRIBE or an UNSUBSCRIBE.

The Router is transport-agnostic (sessions are keyed by opaque
hashables and replies come back as values), which lets tests enumerate
packet interleavings against the real routing logic without sockets.
"""

from __future__ import annotations

import json
import logging
import selectors
import socket
import threading
import time
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from . import codec, topics
from .codec import (
    Connack,
    Connect,
    Disconnect,
    Packet,
    Pingreq,
    Pingresp,
    Puback,
    Pubcomp,
    Publish,
    Pubrec,
    Pubrel,
    Suback,
    Subscribe,
    Unsuback,
    Unsubscribe,
)

log = logging.getLogger("mqttprobe.refbroker")

RETURN_CODE_ACCEPTED = 0
RETURN_CODE_BAD_PROTOCOL = 1

# Annotations a conformant broker can let pass: the standard lets a
# server accept a client id it cannot read as text.  Everything else
# annotated by permissive decoding closes the connection.
TOLERATED_ANNOTATIONS = frozenset({codec.A_CLIENT_ID_NOT_UTF8})

# Outbound bytes a connection may hold before the loop stops reading
# from the connections that send to it.
HIGH_WATER = 1 << 20
# Pending output that moves no byte for this long closes its connection.
SEND_DEADLINE_S = 5.0
# Whole frames dispatched between two polls.  A frame costs about 22 us
# (Python 3.11, 2 cores, loopback), so a turn lasts about 0.7 ms.  Under
# the stalled_subscriber flood the probe p95 read 2.7-2.8 ms at 16,
# 2.8-3.1 ms at 32 and 3.8-4.0 ms at 64 frames a turn, against about 2 ms
# with no flood and 14-18 ms when a whole 64 KiB read is dispatched at
# once; fewer frames a turn gain little and poll and flush more often.
TURN_FRAMES = 32

# Why a connection ended, as counted by RefBroker.stats().  The first
# eight are the broker's own verdicts and a peer hang-up: ``peer`` after
# the client sent something, ``silent`` before its first byte (a bare
# reachability check); ``disconnect`` is a client DISCONNECT, ``refused``
# a CONNACK refusal, ``error`` a broker fault confined to one connection,
# ``stopped`` the broker's stop.
CLOSE_REASONS = ("malformed", "annotations", "violation", "first-packet-not-connect",
                 "peer", "silent", "slow-consumer", "evicted", "disconnect", "refused",
                 "error", "stopped")


class BrokerBindError(OSError):
    """The listener socket could not be bound."""


class ProtocolViolation(Exception):
    """Connection-fatal peer behavior; the transport closes the socket."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _check_filters(filters: Iterable[bytes]) -> None:
    """Refuse a SUBSCRIBE or UNSUBSCRIBE naming an invalid filter (MQTT-4.7.1-2)."""
    for topic_filter in filters:
        violations = topics.validate_filter(topic_filter)
        if violations:
            raise ProtocolViolation(f"invalid topic filter: {', '.join(violations)}")


@dataclass
class _Session:
    key: object
    client_id: bytes
    subscriptions: dict[bytes, int] = field(default_factory=dict)  # filter -> granted qos
    inbound_qos2: set[int] = field(default_factory=set)
    outbound: dict[int, type] = field(default_factory=dict)  # packet id -> ack awaited
    next_packet_id: int = 1

    def allocate_packet_id(self) -> int | None:
        """A free outbound packet id; None once all 65,535 are in flight."""
        for _ in range(0xFFFF):
            packet_id = self.next_packet_id
            self.next_packet_id = packet_id % 0xFFFF + 1
            if packet_id not in self.outbound:
                return packet_id
        return None


@dataclass
class HandleResult:
    # (session key, packet) pairs in delivery order; replies to the
    # handling session are interleaved where the broker emits them.
    sends: list[tuple[object, Packet]] = field(default_factory=list)
    close: bool = False
    evicted: object | None = None
    # Subscribers detached with every outbound packet id in flight.
    stalled: tuple[object, ...] = ()


class Router:
    """Session registry and routing core.

    Not thread-safe: the broker calls it from its loop thread only, and
    tests and the benchmark drive it directly.
    """

    def __init__(self) -> None:
        self._sessions: dict[object, _Session] = {}
        self._by_client_id: dict[bytes, object] = {}

    def in_use(self, client_id: bytes) -> bool:
        """Whether a CONNECT with this client id would take over a session."""
        return client_id in self._by_client_id

    def connect(self, key: object, packet: Connect) -> HandleResult:
        """Attach a new session; the first packet of every connection."""
        result = HandleResult()
        if key in self._sessions:
            raise ProtocolViolation("second CONNECT on one connection")
        if packet.protocol_name != b"MQTT" or packet.protocol_level != 4:
            result.sends.append((key, Connack(return_code=RETURN_CODE_BAD_PROTOCOL)))
            result.close = True
            return result
        old_key = self._by_client_id.get(packet.client_id)
        if old_key is not None:
            # Takeover: the standard requires disconnecting the holder.
            self._sessions.pop(old_key, None)
            result.evicted = old_key
        session = _Session(key=key, client_id=packet.client_id)
        self._sessions[key] = session
        self._by_client_id[packet.client_id] = key
        result.sends.append((key, Connack(session_present=False,
                                          return_code=RETURN_CODE_ACCEPTED)))
        return result

    def detach(self, key: object) -> None:
        session = self._sessions.pop(key, None)
        if session is not None and self._by_client_id.get(session.client_id) is key:
            del self._by_client_id[session.client_id]

    def handle(self, key: object, packet: Packet) -> HandleResult:
        """Dispatch one post-CONNECT inbound packet."""
        session = self._sessions.get(key)
        if session is None:
            raise ProtocolViolation("packet before CONNECT")
        if isinstance(packet, Connect):
            raise ProtocolViolation("second CONNECT on one connection")
        if isinstance(packet, (Connack, Suback, Unsuback, Pingresp)):
            raise ProtocolViolation(f"server-only packet {type(packet).__name__} from client")
        if isinstance(packet, Publish):
            return self._publish(session, packet)
        if isinstance(packet, Pubrel):
            # An orphan release still gets its completion: PUBCOMP is
            # the response whether or not the id is known.
            session.inbound_qos2.discard(packet.packet_id)
            return HandleResult(sends=[(key, Pubcomp(packet.packet_id))])
        if isinstance(packet, (Puback, Pubrec, Pubcomp)):
            # Only the ack a delivery awaits moves it on; others are ignored.
            if session.outbound.get(packet.packet_id) is type(packet):
                if type(packet) is Pubrec:
                    session.outbound[packet.packet_id] = Pubcomp
                    return HandleResult(sends=[(key, Pubrel(packet.packet_id))])
                del session.outbound[packet.packet_id]
            return HandleResult()
        if isinstance(packet, Subscribe):
            return self._subscribe(session, packet)
        if isinstance(packet, Unsubscribe):
            _check_filters(packet.filters)
            for topic_filter in packet.filters:
                session.subscriptions.pop(topic_filter, None)
            return HandleResult(sends=[(key, Unsuback(packet.packet_id))])
        if isinstance(packet, Pingreq):
            return HandleResult(sends=[(key, Pingresp())])
        if isinstance(packet, Disconnect):
            return HandleResult(close=True)
        raise ProtocolViolation(f"unroutable packet {type(packet).__name__}")

    def _subscribe(self, session: _Session, packet: Subscribe) -> HandleResult:
        if not packet.entries:
            raise ProtocolViolation("SUBSCRIBE with no entries")
        _check_filters(topic_filter for topic_filter, _ in packet.entries)
        granted = []
        for topic_filter, qos in packet.entries:
            # Re-subscribing to a filter replaces its granted qos and
            # moves it last.
            session.subscriptions.pop(topic_filter, None)
            session.subscriptions[topic_filter] = qos
            granted.append(qos)
        return HandleResult(sends=[(session.key,
                                    Suback(packet.packet_id, tuple(granted)))])

    def _publish(self, session: _Session, packet: Publish) -> HandleResult:
        violations = topics.validate_topic(packet.topic)
        if violations:
            raise ProtocolViolation(f"invalid publish topic: {', '.join(violations)}")
        result = HandleResult()
        if packet.qos == 2:
            assert packet.packet_id is not None
            if packet.packet_id in session.inbound_qos2:
                # Retransmission of an open handshake: acknowledge
                # again, do not route again.
                result.sends.append((session.key, Pubrec(packet.packet_id)))
                return result
            session.inbound_qos2.add(packet.packet_id)
            self._route(packet, result)
            result.sends.append((session.key, Pubrec(packet.packet_id)))
        elif packet.qos == 1:
            self._route(packet, result)
            result.sends.append((session.key, Puback(packet.packet_id)))
        else:
            self._route(packet, result)
        return result

    def _route(self, packet: Publish, result: HandleResult) -> None:
        """Add ``packet``'s deliveries to ``result``; a subscriber out of ids is stalled."""
        for session in self._sessions.values():
            for topic_filter, granted_qos in session.subscriptions.items():
                if not topics.match_filter(topic_filter, packet.topic):
                    continue
                out_qos = min(packet.qos, granted_qos)
                if out_qos == 0:
                    out = Publish(topic=packet.topic, payload=packet.payload, qos=0,
                                  retain=False)
                else:
                    packet_id = session.allocate_packet_id()
                    if packet_id is None:
                        result.stalled += (session.key,)
                        break
                    out = Publish(topic=packet.topic, payload=packet.payload,
                                  qos=out_qos, packet_id=packet_id, retain=False)
                    session.outbound[packet_id] = Puback if out_qos == 1 else Pubrec
                result.sends.append((session.key, out))
        for key in result.stalled:
            self.detach(key)


class _Conn(codec.Connection):
    """One accepted connection: its socket half, and its flow state."""

    def __init__(self, sock: socket.socket, peer: str):
        super().__init__(sock)
        self.peer = peer
        self.connected = False
        self.closed = False
        # Reading is paused while any of these is above HIGH_WATER.
        self.blocked_on: dict[_Conn, None] = {}
        self.waiters: dict[_Conn, None] = {}  # connections paused on this one


class RefBroker:
    """TCP front end around a Router; start() binds, stop() tears down.

    Everything after start() runs on one loop thread; stats() may be
    read from any thread.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.requested_port = port
        self.router = Router()
        self.stopped = False
        self._port: int | None = None
        self._thread: threading.Thread | None = None
        self._wake: socket.socket | None = None
        self._selector: selectors.BaseSelector | None = None
        self._conns: set[_Conn] = set()
        self._dirty: set[_Conn] = set()    # output appended since the last flush
        # Connections with pending output, oldest progress first.
        self._pending: dict[_Conn, None] = {}
        # Unpaused connections with read frames to dispatch, in read order.
        self._fifo: dict[_Conn, None] = {}
        self._now = 0.0
        self._accepted = 0
        self._frames_in: Counter[str] = Counter()
        self._frames_out = 0
        self._routed = 0
        self._turns_cut = 0
        self._closes = dict.fromkeys(CLOSE_REASONS, 0)

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("broker not started")
        return self._port

    def stats(self) -> dict:
        """Counters since start().

        accepted connections, frames_in by packet type, frames_out
        queued for sending, routed deliveries (PUBLISH frames queued to
        subscribers), turns_cut at TURN_FRAMES with whole frames left,
        and closes by reason (CLOSE_REASONS).
        """
        return {"accepted": self._accepted,
                "frames_in": dict(self._frames_in),
                "frames_out": self._frames_out,
                "routed": self._routed,
                "turns_cut": self._turns_cut,
                "closes": dict(self._closes)}

    def start(self) -> RefBroker:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.host, self.requested_port))
        except OSError as exc:
            listener.close()
            raise BrokerBindError(
                f"cannot bind {self.host}:{self.requested_port}: {exc}") from exc
        listener.listen(64)
        listener.setblocking(False)
        self._port = listener.getsockname()[1]
        wake, self._wake = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ)
        self._selector.register(wake, selectors.EVENT_READ)
        self._thread = threading.Thread(target=self._loop, args=(listener, wake),
                                        name="refbroker-loop", daemon=True)
        self._thread.start()
        log.info("event=listening host=%s port=%d", self.host, self.port)
        return self

    def stop(self) -> None:
        if self.stopped:
            return
        self.stopped = True
        if self._thread is not None:
            assert self._wake is not None
            try:
                self._wake.send(b"\0")
            except OSError:
                pass  # the loop already ended
            self._thread.join(timeout=5)
            if self._thread.is_alive():
                log.error("event=stop-timeout")
            self._wake.close()
        log.info("event=stats %s", json.dumps(self.stats(), sort_keys=True))
        log.info("event=stopped")

    def join(self) -> None:
        """Block until the loop thread ends: after stop(), or when it crashes."""
        if self._thread is not None:
            self._thread.join()

    def __enter__(self) -> RefBroker:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # --- the loop thread ----------------------------------------------------

    def _loop(self, listener: socket.socket, wake: socket.socket) -> None:
        assert self._selector is not None
        try:
            while True:
                events = self._selector.select(self._timeout())
                self._now = time.monotonic()
                for key, mask in events:
                    if key.fileobj is wake:
                        return
                    if key.fileobj is listener:
                        self._accept(listener)
                        continue
                    conn = key.data
                    if mask & selectors.EVENT_WRITE and not conn.closed:
                        self._flush(conn)
                    if (mask & selectors.EVENT_READ and not conn.closed
                            and not conn.blocked_on and conn not in self._fifo):
                        self._read(conn)
                while self._pending:
                    conn = next(iter(self._pending))
                    if self._now - conn.progress_at < SEND_DEADLINE_S:
                        break
                    self._close(conn, "slow-consumer", f"{len(conn.out)} bytes unsent")
                self._turn()
                dirty, self._dirty = self._dirty, set()
                for conn in dirty:
                    if not conn.closed:
                        self._flush(conn)
        except Exception:
            log.exception("event=loop-crash")
        finally:
            for conn in list(self._conns):
                self._close(conn, "stopped")
            self._selector.close()
            listener.close()
            wake.close()

    def _timeout(self) -> float | None:
        """0 while frames wait in the FIFO, else seconds until the earliest
        slow-consumer deadline; None if no output is pending either."""
        if self._fifo:
            return 0.0
        if not self._pending:
            return None
        oldest = next(iter(self._pending))
        return max(0.0, oldest.progress_at + SEND_DEADLINE_S - time.monotonic())

    def _turn(self) -> None:
        """Dispatch up to TURN_FRAMES whole frames, taken from the FIFO's head on."""
        budget = TURN_FRAMES
        while self._fifo:
            conn = next(iter(self._fifo))
            budget = self._dispatch_buffered(conn, budget)
            if conn in self._fifo:  # the budget ended before its whole frames
                self._turns_cut += 1
                return

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, addr = listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:
                log.warning("event=accept-failed detail=%s", exc)
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass  # a peer that already reset is seen on the first read
            conn = _Conn(sock, f"{addr[0]}:{addr[1]}")
            self._conns.add(conn)
            self._accepted += 1
            conn.watch(self._selector, not conn.blocked_on)

    def _read(self, conn: _Conn) -> None:
        try:
            chunk = conn.sock.recv(codec.RECV_BYTES)
        except BlockingIOError:
            return
        except OSError as exc:
            self._close(conn, self._hang_up(conn), str(exc))
            return
        if not chunk:
            self._close(conn, self._hang_up(conn))
            return
        conn.inbuf += chunk
        self._fifo[conn] = None
        if not conn.connected:
            # A CONNECT routes nothing, so it is answered as soon as it is read.
            self._dispatch_buffered(conn, 1)
            if not conn.closed:
                self._flush(conn)

    @staticmethod
    def _hang_up(conn: _Conn) -> str:
        """A peer's close: ``silent`` if it never sent a byte, else ``peer``."""
        return "peer" if conn.connected or conn.inbuf else "silent"

    def _flush(self, conn: _Conn) -> None:
        if conn.out:
            try:
                sent = conn.send(self._now)
            except OSError as exc:
                self._close(conn, "peer", str(exc))
                return
            if sent:
                del self._pending[conn]
                if conn.out:
                    self._pending[conn] = None  # now the latest progress
        if conn.waiters and len(conn.out) <= HIGH_WATER:
            self._release(conn)
        conn.watch(self._selector, not conn.blocked_on)

    def _dispatch_buffered(self, conn: _Conn, budget: int) -> int:
        """Dispatch up to ``budget`` whole buffered frames; return the budget left.

        The connection leaves the FIFO once no whole frame is left or it
        pauses.  It keeps its place when the budget ends first, or when its
        next frame is a CONNECT that takes over a client id in use and it
        is not at the FIFO's head: that CONNECT waits behind every frame
        read before it.
        """
        pos, stay = 0, False
        # The view must be released before the consumed prefix is deleted:
        # a bytearray with a live export cannot be resized.
        with memoryview(conn.inbuf) as view:
            while not conn.blocked_on and (read := codec.read_frame(view, pos)) is not None:
                packet, annotations, end = read
                if packet is None:
                    self._close(conn, "malformed", annotations[0])
                    return budget
                if not budget or (isinstance(packet, Connect)
                                  and self.router.in_use(packet.client_id)
                                  and next(iter(self._fifo)) is not conn):
                    stay = True
                    break
                budget -= 1
                pos = end
                self._dispatch(conn, packet, annotations)
                if conn.closed:
                    return budget
        del conn.inbuf[:pos]
        if not stay:
            del self._fifo[conn]
            conn.watch(self._selector, not conn.blocked_on)
        return budget

    def _dispatch(self, conn: _Conn, packet: Packet, annotations: list[str]) -> None:
        """Count one inbound frame, run it through the router and queue what it sends."""
        self._frames_in[type(packet).__name__.lower()] += 1
        fatal = [a for a in annotations if a not in TOLERATED_ANNOTATIONS]
        if fatal:
            self._close(conn, "annotations", ",".join(fatal))
            return
        if not conn.connected and not isinstance(packet, Connect):
            self._close(conn, "first-packet-not-connect")
            return
        try:
            if conn.connected:
                result = self.router.handle(conn, packet)
            else:
                result = self.router.connect(conn, packet)  # type: ignore[arg-type]
                conn.connected = True
                log.info("event=connect peer=%s client_id=%s",
                         conn.peer, packet.client_id.hex())
            for target, out in result.sends:
                assert isinstance(target, _Conn)
                self._queue(conn, target, out)
        except ProtocolViolation as exc:
            self._close(conn, "violation", exc.reason)
            return
        except Exception:
            # A broker fault costs the connection that hit it, not the loop.
            log.exception("event=dispatch-crash peer=%s", conn.peer)
            self._close(conn, "error")
            return
        if isinstance(result.evicted, _Conn):
            self._close(result.evicted, "evicted")
        for stalled in result.stalled:
            self._close(stalled, "slow-consumer", "no free outbound packet id")
        if result.close:
            self._close(conn, "disconnect" if isinstance(packet, Disconnect) else "refused")

    def _queue(self, source: _Conn, target: _Conn, packet: Packet) -> None:
        """Append a frame to the target's output; pause ``source`` above HIGH_WATER."""
        if target.closed:
            return
        if not target.out:
            target.progress_at = self._now
            self._pending[target] = None
        target.out += codec.encode_packet(packet)
        self._frames_out += 1
        if isinstance(packet, Publish):
            self._routed += 1
        self._dirty.add(target)
        if len(target.out) > HIGH_WATER:
            source.blocked_on[target] = None
            target.waiters[source] = None

    def _release(self, conn: _Conn) -> None:
        """Unpause on ``conn`` every waiter; those paused on nothing else resume."""
        for waiter in conn.waiters:
            del waiter.blocked_on[conn]
            if not waiter.blocked_on:
                self._fifo[waiter] = None
        conn.waiters = {}

    def _close(self, conn: _Conn, reason: str, detail: str = "") -> None:
        """The one way a connection ends: count it, detach it, send what fits, close."""
        if conn.closed:
            return
        conn.closed = True
        self._closes[reason] += 1
        log.log(logging.DEBUG if reason in ("peer", "silent", "stopped") else logging.INFO,
                "event=close peer=%s reason=%s detail=%s", conn.peer, reason, detail)
        self.router.detach(conn)
        if conn.out:
            try:
                conn.send(self._now)
            except OSError:
                pass
        conn.inbuf = bytearray()
        self._pending.pop(conn, None)
        self._fifo.pop(conn, None)
        for target in conn.blocked_on:
            del target.waiters[conn]
        conn.blocked_on = {}
        conn.close(self._selector)
        self._conns.discard(conn)
        self._release(conn)


def serve(host: str = "127.0.0.1", port: int = 0) -> RefBroker:
    """Start a broker and return it; raises BrokerBindError on failure."""
    return RefBroker(host=host, port=port).start()
