"""``codec.Connection``, the socket half of a runner session and a refbroker connection."""

import selectors
import socket

import pytest

from mqttprobe.codec import Connection


@pytest.fixture()
def pair():
    """A connected, non-blocking socket pair with small buffers, closed after the test."""
    ours, theirs = socket.socketpair()
    for sock in (ours, theirs):
        sock.setblocking(False)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    yield ours, theirs
    ours.close()
    theirs.close()


@pytest.fixture()
def selector():
    with selectors.DefaultSelector() as selector:
        yield selector


def _fill(sock):
    """Send into ``sock`` until it takes no more."""
    try:
        while True:
            sock.send(bytes(4096))
    except BlockingIOError:
        pass


def _drain(sock):
    """Read ``sock`` until it holds nothing."""
    try:
        while sock.recv(65536):
            pass
    except BlockingIOError:
        pass


def test_watch_registers_modifies_and_unregisters_as_its_events_change(pair, selector):
    conn = Connection(pair[0])
    conn.watch(selector, reading=True)
    key = selector.get_key(pair[0])
    assert conn.events == key.events == selectors.EVENT_READ and key.data is conn
    conn.out += b"x"
    conn.watch(selector, reading=True)
    assert conn.events == selector.get_key(pair[0]).events \
        == selectors.EVENT_READ | selectors.EVENT_WRITE
    conn.watch(selector, reading=False)
    assert conn.events == selector.get_key(pair[0]).events == selectors.EVENT_WRITE
    conn.out.clear()
    conn.watch(selector, reading=False)
    assert conn.events == 0 and not selector.get_map()


def test_send_into_a_full_socket_leaves_out_and_progress_alone(pair):
    conn = Connection(pair[0])
    _fill(pair[0])
    conn.out += b"frame" * 100
    conn.progress_at = 1.0
    assert conn.send(2.0) == 0
    assert conn.out == b"frame" * 100 and conn.progress_at == 1.0


def test_send_trims_out_and_marks_progress_once_the_peer_drains(pair):
    conn = Connection(pair[0])
    _fill(pair[0])
    conn.out += b"frame" * 100
    conn.progress_at = 1.0
    _drain(pair[1])
    sent = conn.send(3.0)
    assert sent > 0
    assert conn.out == (b"frame" * 100)[sent:] and conn.progress_at == 3.0


def test_send_to_a_closed_peer_raises(pair):
    conn = Connection(pair[0])
    pair[1].close()
    conn.out += b"frame"
    with pytest.raises(OSError):
        conn.send(1.0)
    assert conn.out == b"frame"


def test_close_drops_out_unregisters_a_registered_socket_and_closes_it(pair, selector):
    conn = Connection(pair[0])
    conn.out += b"unsent"
    conn.watch(selector, reading=True)
    conn.close(selector)
    assert not conn.out and conn.events == 0 and not selector.get_map()
    assert pair[0].fileno() == -1


def test_close_of_an_unregistered_socket_only_closes_it(pair, selector):
    conn = Connection(pair[0])
    conn.close(selector)
    assert pair[0].fileno() == -1
