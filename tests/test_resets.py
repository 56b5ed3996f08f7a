"""The runner's two recv-error branches: the probe meets a reset, a session a failing recv."""

import errno
import socket
import struct
import threading

from mqttprobe import codec, runner
from mqttprobe.codec import Connect
from mqttprobe.experiment import Experiment, SessionDecl
from mqttprobe.oracle import Judge
from mqttprobe.runner import K_TCP_ERROR, Endpoint, probe_liveness

RESET = struct.pack("ii", 1, 0)  # SO_LINGER on with no linger: close sends a reset


def _recv_frame(sock):
    """Block until one whole frame has arrived on ``sock``; decode it."""
    buffer = b""
    while (read := codec.read_frame(buffer, 0)) is None:
        chunk = sock.recv(4096)
        assert chunk, "closed before a whole frame"
        buffer += chunk
    return read[0]


def test_probe_liveness_reports_a_reset_after_its_connect():
    listener = socket.create_server(("127.0.0.1", 0))

    def read_connect_and_reset():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5)
            assert isinstance(_recv_frame(conn), Connect)
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, RESET)

    resetter = threading.Thread(target=read_connect_and_reset, daemon=True)
    resetter.start()
    try:
        live = probe_liveness(Endpoint(host="127.0.0.1", port=listener.getsockname()[1]))
    finally:
        resetter.join(5)
        listener.close()
    assert not live.alive and live.detail.startswith("recv failed: "), live.detail


class _FailingRecv:
    """A socket whose recv fails with an error that is no reset."""

    def recv(self, size):
        raise OSError(errno.EIO, "Input/output error")


def test_a_session_recv_error_other_than_a_reset_is_a_tcp_error():
    experiment = Experiment("recv-error", sessions=(SessionDecl("s"),))
    run = runner._Run(experiment, Endpoint("127.0.0.1"), None, Judge(experiment), [])
    session = run.sessions["s"]
    session.sock, session.reading = _FailingRecv(), True
    try:
        session.read()
    finally:
        run.selector.close()
    assert not session.reading
    assert [(e.kind, e.note) for e in run.collected] == [
        (K_TCP_ERROR, "recv failed: [Errno 5] Input/output error")]
