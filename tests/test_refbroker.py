"""Reference broker: routing rules (in process) and transport behavior."""

import socket
import statistics
import threading
import time

import pytest

from mqttprobe import refbroker
from mqttprobe.codec import (
    Connack,
    Connect,
    DecodeMode,
    Disconnect,
    IncompleteFrame,
    MalformedFrame,
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
    decode_packet,
    encode_packet,
    encode_remaining_length,
)
from mqttprobe.refbroker import Router
from mqttprobe.runner import Endpoint, probe_liveness

# ---------------------------------------------------------------------------
# Router driven directly (no sockets)


def _connected(router, key, client_id):
    res = router.connect(key, Connect(client_id=client_id))
    assert res.sends == [(key, Connack(session_present=False, return_code=0))]
    assert not res.close
    return router


def _sent_to(res, key):
    return [pkt for dest, pkt in res.sends if dest == key]


def test_connect_gets_connack():
    _connected(Router(), "a", b"alpha")


def test_subscribe_grants_requested_qos():
    r = _connected(Router(), "a", b"alpha")
    res = r.handle("a", Subscribe(packet_id=9, entries=((b"x/#", 2), (b"y", 0))))
    assert res.sends == [("a", Suback(packet_id=9, return_codes=(2, 0)))]


def test_invalid_filter_is_fatal():
    r = _connected(Router(), "a", b"alpha")
    with pytest.raises(refbroker.ProtocolViolation):
        r.handle("a", Subscribe(packet_id=1, entries=((b"bad/#/mid", 1),)))


def test_qos1_routes_before_ack():
    r = Router()
    _connected(r, "sub", b"s")
    _connected(r, "pub", b"p")
    r.handle("sub", Subscribe(packet_id=1, entries=((b"t", 1),)))
    res = r.handle("pub", Publish(topic=b"t", payload=b"m", qos=1, packet_id=7))
    kinds = [type(p).__name__ for _, p in res.sends]
    assert kinds.index("Publish") < kinds.index("Puback")
    assert _sent_to(res, "pub") == [Puback(packet_id=7)]
    fwd = _sent_to(res, "sub")[0]
    assert (fwd.topic, fwd.payload, fwd.qos) == (b"t", b"m", 1)


def test_forward_qos_is_min_of_publish_and_grant():
    r = Router()
    _connected(r, "sub", b"s")
    _connected(r, "pub", b"p")
    r.handle("sub", Subscribe(packet_id=1, entries=((b"t", 0),)))
    res = r.handle("pub", Publish(topic=b"t", payload=b"m", qos=2, packet_id=3))
    fwd = _sent_to(res, "sub")[0]
    assert fwd.qos == 0 and fwd.packet_id is None


def test_qos2_flow_and_duplicate_suppression():
    r = Router()
    _connected(r, "sub", b"s")
    _connected(r, "pub", b"p")
    r.handle("sub", Subscribe(packet_id=1, entries=((b"t", 2),)))
    first = r.handle("pub", Publish(topic=b"t", payload=b"m", qos=2, packet_id=5))
    assert len(_sent_to(first, "sub")) == 1
    assert _sent_to(first, "pub") == [Pubrec(packet_id=5)]
    # Same id again before release: acknowledged again, routed zero times.
    dup = r.handle("pub", Publish(topic=b"t", payload=b"m", qos=2, packet_id=5))
    assert _sent_to(dup, "sub") == []
    assert _sent_to(dup, "pub") == [Pubrec(packet_id=5)]
    rel = r.handle("pub", Pubrel(packet_id=5))
    assert _sent_to(rel, "pub") == [Pubcomp(packet_id=5)]
    # Released: the id is fresh again and routes a second delivery.
    again = r.handle("pub", Publish(topic=b"t", payload=b"m2", qos=2, packet_id=5))
    assert len(_sent_to(again, "sub")) == 1


def test_orphan_pubrel_still_completed():
    r = _connected(Router(), "a", b"alpha")
    res = r.handle("a", Pubrel(packet_id=77))
    assert res.sends == [("a", Pubcomp(packet_id=77))]
    assert not res.close


def test_pingreq_pingresp():
    r = _connected(Router(), "a", b"alpha")
    assert r.handle("a", Pingreq()).sends == [("a", Pingresp())]


def test_unsubscribe_stops_delivery():
    r = Router()
    _connected(r, "sub", b"s")
    _connected(r, "pub", b"p")
    r.handle("sub", Subscribe(packet_id=1, entries=((b"t", 0),)))
    res = r.handle("sub", Unsubscribe(packet_id=2, filters=(b"t",)))
    assert res.sends == [("sub", Unsuback(packet_id=2))]
    gone = r.handle("pub", Publish(topic=b"t", payload=b"m"))
    assert _sent_to(gone, "sub") == []


def test_client_id_takeover_evicts_older_session():
    r = Router()
    _connected(r, "old", b"same")
    res = r.connect("new", Connect(client_id=b"same"))
    assert res.evicted == "old"
    assert ("new", Connack(session_present=False, return_code=0)) in res.sends


def test_bad_protocol_name_refused():
    r = Router()
    res = r.connect("a", Connect(client_id=b"x", protocol_name=b"MQTU"))
    assert res.close
    assert res.sends == [("a", Connack(session_present=False,
                                       return_code=refbroker.RETURN_CODE_BAD_PROTOCOL))]


def test_bad_protocol_level_refused():
    r = Router()
    res = r.connect("a", Connect(client_id=b"x", protocol_level=3))
    assert res.close
    codes = [p.return_code for _, p in res.sends]
    assert codes == [refbroker.RETURN_CODE_BAD_PROTOCOL]


def test_second_connect_on_live_session_is_fatal():
    r = _connected(Router(), "a", b"alpha")
    with pytest.raises(refbroker.ProtocolViolation):
        r.handle("a", Connect(client_id=b"alpha"))


def test_publish_to_wildcard_topic_is_fatal():
    r = _connected(Router(), "a", b"alpha")
    with pytest.raises(refbroker.ProtocolViolation):
        r.handle("a", Publish(topic=b"bad/+/topic", payload=b""))


def test_packet_before_connect_is_fatal():
    r = Router()
    with pytest.raises(refbroker.ProtocolViolation):
        r.handle("a", Pingreq())


def test_retained_message_not_implemented_but_flag_tolerated():
    # retain is accepted on the wire; delivery semantics are fire-and-forget.
    r = Router()
    _connected(r, "sub", b"s")
    _connected(r, "pub", b"p")
    r.handle("sub", Subscribe(packet_id=1, entries=((b"t", 0),)))
    res = r.handle("pub", Publish(topic=b"t", payload=b"m", retain=True))
    assert len(_sent_to(res, "sub")) == 1


# ---------------------------------------------------------------------------
# Socket-level behavior


class MiniClient:
    """Tiny blocking MQTT client for poking the broker over TCP."""

    def __init__(self, port, host="127.0.0.1"):
        self.sock = socket.create_connection((host, port), timeout=5)
        self.buf = b""

    def send(self, packet):
        self.sock.sendall(encode_packet(packet))

    def send_raw(self, data):
        self.sock.sendall(data)

    def recv_packet(self, timeout=5.0):
        deadline = time.monotonic() + timeout
        while True:
            try:
                pkt, _, used = decode_packet(self.buf, DecodeMode.PERMISSIVE)
                self.buf = self.buf[used:]
                return pkt
            except IncompleteFrame:
                pass
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("no packet before deadline")
            self.sock.settimeout(remaining)
            chunk = self.sock.recv(4096)
            if not chunk:
                raise ConnectionError("peer closed")
            self.buf += chunk

    def expect_close(self, timeout=5.0):
        self.sock.settimeout(timeout)
        leftover = b""
        while True:
            try:
                chunk = self.sock.recv(4096)
            except socket.timeout:
                raise AssertionError("connection stayed open")
            if not chunk:
                return leftover
            leftover += chunk

    def close(self):
        self.sock.close()


def test_tcp_connect_connack(broker):
    c = MiniClient(broker.port)
    try:
        c.send(Connect(client_id=b"tcp-1"))
        assert c.recv_packet() == Connack(session_present=False, return_code=0)
    finally:
        c.close()


def test_tcp_route_between_two_clients(broker):
    sub = MiniClient(broker.port)
    pub = MiniClient(broker.port)
    try:
        sub.send(Connect(client_id=b"sub"))
        sub.recv_packet()
        sub.send(Subscribe(packet_id=1, entries=((b"room/+", 1),)))
        assert sub.recv_packet() == Suback(packet_id=1, return_codes=(1,))
        pub.send(Connect(client_id=b"pub"))
        pub.recv_packet()
        pub.send(Publish(topic=b"room/a", payload=b"hi", qos=1, packet_id=4))
        fwd = sub.recv_packet()
        assert isinstance(fwd, Publish)
        assert (fwd.topic, fwd.payload) == (b"room/a", b"hi")
        assert pub.recv_packet() == Puback(packet_id=4)
    finally:
        sub.close()
        pub.close()


def test_first_packet_not_connect_closes(broker):
    c = MiniClient(broker.port)
    try:
        c.send(Pingreq())
        c.expect_close()
    finally:
        c.close()


def test_raw_garbage_closes_but_broker_survives(broker):
    c = MiniClient(broker.port)
    try:
        c.send_raw(b"\x00\xff\x13\x37 garbage")
        c.expect_close()
    finally:
        c.close()
    # Broker still serves fresh connections afterwards.
    c2 = MiniClient(broker.port)
    try:
        c2.send(Connect(client_id=b"after"))
        assert isinstance(c2.recv_packet(), Connack)
    finally:
        c2.close()


def test_malformed_connect_closes_without_connack(broker):
    # Keep-alive integer swapped for a length-prefixed string: the fixed-up
    # frame is well-framed but its CONNECT body no longer parses.
    from mqttprobe.codec import splice
    from mqttprobe.corpus import CONNECT_KEEPALIVE_OFFSET
    frame = encode_packet(Connect(client_id=b"k", keep_alive=60))
    bent = splice(frame, CONNECT_KEEPALIVE_OFFSET, 2, b"\x00\x0260", True)
    with pytest.raises(MalformedFrame):
        decode_packet(bent, DecodeMode.PERMISSIVE)
    c = MiniClient(broker.port)
    try:
        c.send_raw(bent)
        leftover = c.expect_close()
        assert leftover == b""  # no CONNACK slipped out first
    finally:
        c.close()


def test_non_utf8_client_id_tolerated_on_wire(broker):
    c = MiniClient(broker.port)
    try:
        c.send(Connect(client_id=b"\xff\xfe"))
        assert c.recv_packet() == Connack(session_present=False, return_code=0)
    finally:
        c.close()


def test_takeover_closes_old_tcp_connection(broker):
    old = MiniClient(broker.port)
    new = MiniClient(broker.port)
    try:
        old.send(Connect(client_id=b"dup"))
        old.recv_packet()
        new.send(Connect(client_id=b"dup"))
        new.recv_packet()
        old.expect_close()
    finally:
        old.close()
        new.close()


def test_broker_port_is_ephemeral_and_reported():
    with refbroker.serve(host="127.0.0.1", port=0) as srv:
        assert srv.port > 0
        c = MiniClient(srv.port)
        c.send(Connect(client_id=b"e"))
        assert isinstance(c.recv_packet(), Connack)
        c.close()


def test_bind_conflict_raises(broker):
    with pytest.raises(refbroker.BrokerBindError):
        refbroker.serve(host="127.0.0.1", port=broker.port)


# ---------------------------------------------------------------------------
# A client that stops reading, backpressure, and stats()


class _StallClient(threading.Thread):
    """Subscribes to its own topic and publishes to it, never reading.

    Stops at ``stop`` or once the broker closes the connection; ``blocked``
    is set when a send first times out, i.e. the broker stopped reading.
    """

    def __init__(self, port):
        super().__init__(daemon=True)
        self.client = MiniClient(port)
        self.client.send(Connect(client_id=b"stall"))
        assert isinstance(self.client.recv_packet(), Connack)
        self.client.send(Subscribe(packet_id=1, entries=((b"stall/t", 0),)))
        assert isinstance(self.client.recv_packet(), Suback)
        self.frame = encode_packet(Publish(topic=b"stall/t", payload=b"x" * 1024))
        self.blocked = threading.Event()
        self.stop = threading.Event()
        self.closed_by_broker = threading.Event()

    def run(self):
        sock = self.client.sock
        sock.settimeout(0.05)
        try:
            while not self.stop.is_set():
                view = memoryview(self.frame)
                while view and not self.stop.is_set():
                    try:
                        view = view[sock.send(view):]
                    except socket.timeout:
                        self.blocked.set()
        except OSError:
            self.closed_by_broker.set()
        finally:
            self.client.close()


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def test_client_that_never_reads_does_not_stall_others(broker, monkeypatch):
    # Far beyond the test's run time: only probe latency is checked here.
    monkeypatch.setattr(refbroker, "SEND_DEADLINE_S", 60.0)
    stall = _StallClient(broker.port)
    stall.start()
    try:
        assert stall.blocked.wait(3), "the stall client's sends never blocked"
        endpoint = Endpoint(host="127.0.0.1", port=broker.port)
        latencies = []
        for _ in range(20):
            started = time.monotonic()
            live = probe_liveness(endpoint)
            latencies.append(time.monotonic() - started)
            assert live.alive, live.detail
            time.sleep(0.1)
        assert statistics.median(latencies) < 0.05, latencies
        assert max(latencies) < 1.0, latencies
        assert not stall.closed_by_broker.is_set()
    finally:
        stall.stop.set()
        stall.join(timeout=10)
    assert not stall.is_alive()


def test_client_that_never_reads_is_closed_as_slow_consumer(broker, monkeypatch):
    monkeypatch.setattr(refbroker, "SEND_DEADLINE_S", 0.5)
    stall = _StallClient(broker.port)
    stall.start()
    try:
        assert stall.closed_by_broker.wait(5), "broker never closed the stalled client"
    finally:
        stall.stop.set()
        stall.join(timeout=10)
    assert not stall.is_alive()
    assert _wait_for(lambda: broker.stats()["closes"]["slow-consumer"] == 1)


def test_paused_subscriber_gets_every_publish_after_backpressure(broker, monkeypatch):
    # A small mark so the flood reaches it once the kernel buffers are full.
    monkeypatch.setattr(refbroker, "HIGH_WATER", 64 * 1024)
    count, payload_size = 8000, 2048
    sub = MiniClient(broker.port)
    sub.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
    sub.send(Connect(client_id=b"slow-sub"))
    sub.recv_packet()
    sub.send(Subscribe(packet_id=1, entries=((b"flood", 1),)))
    sub.recv_packet()
    pub = MiniClient(broker.port)
    pub.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 64 * 1024)
    pub.send(Connect(client_id=b"flooder"))
    pub.recv_packet()
    flood = b"".join(encode_packet(Publish(topic=b"flood",
                                           payload=i.to_bytes(4, "big") * (payload_size // 4)))
                     for i in range(count))
    sender = threading.Thread(target=pub.send_raw, args=(flood,), daemon=True)
    try:
        sender.start()
        time.sleep(1.0)  # the subscriber does not read for a second
        assert sender.is_alive(), "the flood never met backpressure"
        got = [sub.recv_packet().payload[:4] for _ in range(count)]
        sender.join(timeout=10)
        assert not sender.is_alive()
    finally:
        sub.close()
        pub.close()
    assert got == [i.to_bytes(4, "big") for i in range(count)]
    assert broker.stats()["closes"]["slow-consumer"] == 0


def test_publisher_waits_for_every_subscriber_over_the_mark(broker, monkeypatch):
    # Frames larger than the mark take the reading subscriber, which
    # subscribed first, over it on every publish; the publisher must still
    # wait for the subscriber that does not read.
    mark, count, payload_size = 16 * 1024, 768, 32 * 1024
    monkeypatch.setattr(refbroker, "HIGH_WATER", mark)
    monkeypatch.setattr(refbroker, "SEND_DEADLINE_S", 60.0)
    peak = {}
    queue = refbroker.RefBroker._queue

    def queue_and_record(self, source, target, packet):
        queue(self, source, target, packet)
        peak[target.peer] = max(peak.get(target.peer, 0), len(target.out))

    monkeypatch.setattr(refbroker.RefBroker, "_queue", queue_and_record)
    subs = []
    for client_id in (b"reader", b"stalled"):
        sub = MiniClient(broker.port)
        sub.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 64 * 1024)
        sub.send(Connect(client_id=client_id))
        sub.recv_packet()
        sub.send(Subscribe(packet_id=1, entries=((b"flood", 0),)))
        sub.recv_packet()
        subs.append(sub)
    reader, stalled = subs
    pub = MiniClient(broker.port)
    pub.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 64 * 1024)
    pub.send(Connect(client_id=b"flooder"))
    pub.recv_packet()
    frames = [encode_packet(Publish(topic=b"flood",
                                    payload=i.to_bytes(4, "big") * (payload_size // 4)))
              for i in range(count)]
    expected = [i.to_bytes(4, "big") for i in range(count)]
    read = []
    sender = threading.Thread(target=pub.send_raw, args=(b"".join(frames),), daemon=True)
    drainer = threading.Thread(
        target=lambda: read.extend(reader.recv_packet().payload[:4] for _ in range(count)),
        daemon=True)
    try:
        sender.start()
        drainer.start()
        time.sleep(1.0)  # the second subscriber does not read for a second
        assert sender.is_alive(), "the flood never met backpressure"
        host, port = stalled.sock.getsockname()[:2]
        assert peak[f"{host}:{port}"] <= mark + len(frames[0]), peak
        got = [stalled.recv_packet().payload[:4] for _ in range(count)]
        sender.join(timeout=10)
        drainer.join(timeout=10)
        assert not sender.is_alive() and not drainer.is_alive()
    finally:
        for client in (reader, stalled, pub):
            client.close()
    assert got == expected
    assert read == expected


def test_stats_count_a_scripted_session():
    with refbroker.serve(host="127.0.0.1", port=0) as srv:
        sub = MiniClient(srv.port)
        sub.send(Connect(client_id=b"sub"))
        sub.recv_packet()
        sub.send(Subscribe(packet_id=1, entries=((b"t", 2),)))
        sub.recv_packet()
        pub = MiniClient(srv.port)
        pub.send(Connect(client_id=b"pub"))
        pub.recv_packet()
        pub.send(Publish(topic=b"t", payload=b"0"))
        pub.send(Publish(topic=b"t", payload=b"1", qos=1, packet_id=1))
        assert pub.recv_packet() == Puback(packet_id=1)
        pub.send(Publish(topic=b"t", payload=b"2", qos=2, packet_id=2))
        assert pub.recv_packet() == Pubrec(packet_id=2)
        pub.send(Pubrel(packet_id=2))
        assert pub.recv_packet() == Pubcomp(packet_id=2)
        pub.send(Pingreq())
        assert pub.recv_packet() == Pingresp()
        assert [sub.recv_packet().payload for _ in range(3)] == [b"0", b"1", b"2"]
        pub.send(Disconnect())
        pub.expect_close()

        garbage = MiniClient(srv.port)
        garbage.send_raw(b"\x00garbage")
        garbage.expect_close()
        early = MiniClient(srv.port)
        early.send(Pingreq())
        early.expect_close()
        bad = MiniClient(srv.port)
        bad.send(Connect(client_id=b"bad"))
        bad.recv_packet()
        bad.send(Subscribe(packet_id=1, entries=((b"a/#/b", 0),)))
        bad.expect_close()
        taken = MiniClient(srv.port)
        taken.send(Connect(client_id=b"sub"))
        taken.recv_packet()
        sub.expect_close()
        taken.close()
        assert _wait_for(lambda: srv.stats()["closes"]["peer"] == 1)
        for client in (sub, pub, garbage, early, bad):
            client.close()
    stats = srv.stats()
    assert stats["accepted"] == 6
    assert stats["frames_in"] == {"connect": 4, "subscribe": 2, "publish": 3,
                                  "pubrel": 1, "pingreq": 2, "disconnect": 1}
    assert stats["routed"] == 3
    assert stats["turns_cut"] == 0
    # CONNACK x4, SUBACK, 3 deliveries, PUBACK, PUBREC, PUBCOMP, PINGRESP
    assert stats["frames_out"] == 12
    assert stats["closes"] == dict.fromkeys(refbroker.CLOSE_REASONS, 0) | {
        "malformed": 1, "first-packet-not-connect": 1, "violation": 1,
        "disconnect": 1, "evicted": 1, "peer": 1}


def test_large_publish_is_buffered_in_linear_time(broker):
    # A frame arrives in RECV_BYTES pieces.  Rebuilding the inbound buffer
    # on every recv copied it once per piece, quadratic in the frame size:
    # this PUBLISH then took 7 to 15 s to reach the PINGREQ behind it.
    size, piece = 48 << 20, bytes(1 << 20)
    header = encode_packet(Publish(topic=b"big", payload=b""))
    header = bytes([header[0]]) + encode_remaining_length(len(header) - 2 + size) + header[2:]
    c = MiniClient(broker.port)
    try:
        c.send(Connect(client_id=b"big"))
        c.recv_packet()
        t0 = time.perf_counter()
        c.send_raw(header)
        for _ in range(size // len(piece)):
            c.send_raw(piece)
        c.send(Pingreq())
        assert c.recv_packet(timeout=60) == Pingresp()
        elapsed = time.perf_counter() - t0
    finally:
        c.close()
    assert elapsed < 1.0, f"{size >> 20} MiB PUBLISH took {elapsed:.2f} s"
    assert broker.stats()["frames_in"]["publish"] == 1


# ---------------------------------------------------------------------------
# Bounded turns: read order kept, a new client answered inside a backlog


def _connect(port, client_id):
    client = MiniClient(port)
    client.send(Connect(client_id=client_id))
    assert isinstance(client.recv_packet(), Connack)
    return client


def _hold_dispatch(monkeypatch, kind):
    """Record each dispatched packet's type; hold the first ``kind`` until released.

    Returns (kinds, held, release): ``held`` is set when the loop reaches
    that packet, and the loop waits for ``release`` before dispatching it.
    """
    kinds, held, release = [], threading.Event(), threading.Event()
    dispatch = refbroker.RefBroker._dispatch

    def hold_and_record(self, conn, packet, *rest):
        if isinstance(packet, kind) and not held.is_set():
            held.set()
            release.wait(5)
        kinds.append(type(packet).__name__)
        dispatch(self, conn, packet, *rest)

    monkeypatch.setattr(refbroker.RefBroker, "_dispatch", hold_and_record)
    return kinds, held, release


def test_a_burst_routes_ahead_of_a_publish_read_after_it(broker):
    # A's burst arrives in one read; B's publish is read while it is still
    # being dispatched, over many turns, and must not pass it.
    count = 64 * refbroker.TURN_FRAMES
    sub = _connect(broker.port, b"s")
    sub.send(Subscribe(packet_id=1, entries=((b"t", 0),)))
    sub.recv_packet()
    a, b = _connect(broker.port, b"a"), _connect(broker.port, b"b")
    try:
        a.send_raw(b"".join(encode_packet(Publish(topic=b"t", payload=b"a%d" % i))
                            for i in range(count)))
        got = [sub.recv_packet().payload]
        b.send(Publish(topic=b"t", payload=b"b"))
        got += [sub.recv_packet().payload for _ in range(count)]
    finally:
        for client in (sub, a, b):
            client.close()
    assert got == [b"a%d" % i for i in range(count)] + [b"b"]


def test_new_client_is_answered_inside_another_connections_backlog(broker, monkeypatch):
    count = 4 * refbroker.TURN_FRAMES
    kinds, held, release = _hold_dispatch(monkeypatch, Pingreq)
    busy = _connect(broker.port, b"busy")
    fresh = MiniClient(broker.port)
    try:
        assert _wait_for(lambda: broker.stats()["accepted"] == 2)
        busy.send_raw(encode_packet(Pingreq()) * count)
        assert held.wait(5)
        # The backlog is read and its first frame in dispatch: the new
        # client's CONNECT is read at the next poll, one turn later at most.
        fresh.send(Connect(client_id=b"fresh"))
        release.set()
        assert isinstance(fresh.recv_packet(), Connack)
        assert [busy.recv_packet() for _ in range(count)] == [Pingresp()] * count
    finally:
        release.set()
        busy.close()
        fresh.close()
    backlog = kinds[1:]  # after the busy client's own CONNECT
    assert backlog.count("Pingreq") == count
    assert backlog.index("Connect") < len(backlog) - refbroker.TURN_FRAMES, backlog
    assert broker.stats()["turns_cut"] > 0


def test_a_flood_across_turns_and_a_split_frame_get_every_reply_in_order(broker):
    # Groups of PINGREQs, each closed by a QoS 1 PUBLISH whose PUBACK marks
    # its place in the replies; the stream is cut inside one PUBLISH.
    groups, run = 8, refbroker.TURN_FRAMES + 3
    stream, expected, marks = bytearray(), [], []
    for i in range(1, groups + 1):
        stream += encode_packet(Pingreq()) * run
        expected += [Pingresp()] * run
        marks.append(len(stream))
        stream += encode_packet(Publish(topic=b"nobody", payload=b"x" * 40, qos=1,
                                        packet_id=i))
        expected.append(Puback(packet_id=i))
    split = marks[3] + 5  # inside the fourth PUBLISH
    before = 4 * run + 3  # replies to every frame ahead of it
    c = _connect(broker.port, b"flood")
    try:
        c.send_raw(bytes(stream[:split]))
        got = [c.recv_packet() for _ in range(before)]
        c.send_raw(bytes(stream[split:]))
        got += [c.recv_packet() for _ in range(len(expected) - before)]
    finally:
        c.close()
    assert got == expected
    assert broker.stats()["turns_cut"] > 0


def test_takeover_connect_waits_behind_the_holders_backlog(broker, monkeypatch):
    # The holder's burst was read before the taking-over CONNECT, so all of
    # it is routed before the holder is evicted.
    count = 4 * refbroker.TURN_FRAMES
    kinds, held, release = _hold_dispatch(monkeypatch, Publish)
    sub = _connect(broker.port, b"s")
    sub.send(Subscribe(packet_id=1, entries=((b"t", 0),)))
    sub.recv_packet()
    holder = _connect(broker.port, b"dup")
    taker = MiniClient(broker.port)
    try:
        assert _wait_for(lambda: broker.stats()["accepted"] == 3)
        holder.send_raw(b"".join(encode_packet(Publish(topic=b"t", payload=b"%d" % i))
                                 for i in range(count)))
        assert held.wait(5)
        taker.send(Connect(client_id=b"dup"))
        release.set()
        assert isinstance(taker.recv_packet(), Connack)
        holder.expect_close()
        got = [sub.recv_packet().payload for _ in range(count)]
    finally:
        release.set()
        for client in (sub, holder, taker):
            client.close()
    assert got == [b"%d" % i for i in range(count)]
    assert kinds[-1] == "Connect" and kinds.count("Publish") == count
