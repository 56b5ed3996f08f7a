"""Seeded inputs and load generators for the three workloads.

corpus              the 18 built-in scenarios through `mqttprobe run --corpus`.
qos_stream          one generated two-session experiment, mixed QoS 0/1/2.
stalled_subscriber  a client that never reads, plus open-loop liveness probes.

Everything here is a function of the seed: the same seed gives a
byte-identical experiment document and the same stall traffic.
"""

from __future__ import annotations

import json
import random
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field

from mqttprobe import codec, runner

# The corpus identity the acceptance gate and the ROADMAP baseline pin.
CORPUS_HASH = "be16e513dd19d419e026a21811943d068ec398c7190f4932066c7fc1ff8e1a11"
FLOOD_SCENARIO = "qos0_flood"
FLOOD_COUNT = 10_000
# The refbroker accepts a client id that is not UTF-8; the README
# documents this one informational finding as the expected result.
ALLOWED_FINDINGS = {("non_utf8_client_id", "protocol-violation-tolerated")}

# qos_stream shape.  Oracle cost grows with deliveries times distinct
# identities, so the pool size keeps the oracle a large share of wall_s;
# the publish count keeps the traffic phase several seconds long.
STREAM_PUBLISHES = 32_000
STREAM_IDENTITIES = 1_600
STREAM_TOPICS = 16
STREAM_SETTLE_MS = 1_000
# A 5 ms `wait` after every STREAM_PACE publishes holds the offered rate
# near 6k/s, below what broker and subscriber drain, so no backlog
# builds.  Sent back to back (pace 0), the backlog makes about 1 in 20
# `run` children abort: the runner's 0.1 s socket timeout fails a
# publisher `sendall` (bench/README.md, "Known failure").
STREAM_PACE = 50
STREAM_PACE_MS = 5
STREAM_LARGE_SHARE = 0.01
_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"

PROBE_INTERVAL_S = 0.05
STALL_CLIENT_ID = b"bench-stall"
STALL_FILTER = b"stall/#"
STALL_FRAMES = 4_096


def _payloads(rng: random.Random, count: int) -> list[str]:
    """Mostly 8-255 B; exactly 1% between 4 and 16 KiB, sizes stratified.

    Fixed shares keep every seed's byte volume the same, so a seed
    changes the content and order of the traffic, not its amount.
    """
    large = round(count * STREAM_LARGE_SHARE)
    sizes = [4096 + int((j + rng.random()) * 12288 / large) for j in range(large)]
    sizes += [8 + int((j + rng.random()) * 248 / (count - large))
              for j in range(count - large)]
    rng.shuffle(sizes)
    payloads = []
    for k, size in enumerate(sizes):
        prefix = f"{k:05d}-"
        payloads.append(prefix + "".join(rng.choices(_ALPHABET, k=max(0, size - len(prefix)))))
    return payloads


@dataclass(frozen=True)
class Stream:
    """The generated qos_stream document and what it publishes."""

    document: str
    published: tuple[tuple[str, str], ...]  # (topic, payload) in publish order


def qos_stream(seed: int, pace: int = STREAM_PACE) -> Stream:
    """Subscriber `s` holds QoS 2 on bench/#; publisher `p` streams to it.

    Every QoS 2 publish is followed by its scripted PUBREL, so no packet
    id is ever reused while open.  Every ``pace`` publishes the publisher
    waits STREAM_PACE_MS; 0 sends them back to back.
    """
    rng = random.Random(seed)
    identities = [(f"bench/{k % STREAM_TOPICS}", payload)
                  for k, payload in enumerate(_payloads(rng, STREAM_IDENTITIES))]
    # Every identity is published equally often and each QoS takes a
    # third of the publishes; the seed shuffles the order.
    picks = [k % STREAM_IDENTITIES for k in range(STREAM_PUBLISHES)]
    qoses = [k % 3 for k in range(STREAM_PUBLISHES)]
    rng.shuffle(picks)
    rng.shuffle(qoses)
    steps: list[dict] = [
        {"session": "s", "action": "subscribe", "filter": "bench/#", "qos": 2,
         "packet_id": 1},
        # Lets the SUBSCRIBE reach the router before the first publish.
        {"session": "s", "action": "wait", "ms": 200},
    ]
    published = []
    for i, (k, qos) in enumerate(zip(picks, qoses)):
        topic, payload = identities[k]
        step = {"session": "p", "action": "publish", "topic": topic,
                "payload": payload, "qos": qos}
        if qos:
            step["packet_id"] = i % 65_535 + 1
        steps.append(step)
        if qos == 2:
            steps.append({"session": "p", "action": "pubrel",
                          "packet_id": step["packet_id"]})
        if pace and (i + 1) % pace == 0:
            steps.append({"session": "p", "action": "wait", "ms": STREAM_PACE_MS})
        published.append((topic, payload))
    document = json.dumps({
        "name": "qos_stream",
        "description": f"bench qos_stream, seed {seed}",
        "settle_ms": STREAM_SETTLE_MS,
        "sessions": [{"id": "s"}, {"id": "p"}],
        "steps": steps,
    }, separators=(",", ":")) + "\n"
    return Stream(document=document, published=tuple(published))


def stall_frames(seed: int) -> list[bytes]:
    """QoS 0 PUBLISH frames the stalled client cycles through."""
    rng = random.Random(seed)
    return [codec.encode_packet(codec.Publish(topic=f"stall/{k % 16}".encode(),
                                              payload=payload.encode(), qos=0))
            for k, payload in enumerate(_payloads(rng, STALL_FRAMES))]


def stall_hello() -> tuple[codec.Packet, ...]:
    """What the stall client sends on every connection before publishing."""
    return (codec.Connect(client_id=STALL_CLIENT_ID),
            codec.Subscribe(1, ((STALL_FILTER, 0),)))


# --- open-loop liveness probes ---------------------------------------------

@dataclass
class ProbeLog:
    latency_ms: list[float] = field(default_factory=list)  # due -> CONNACK
    late_ms: list[float] = field(default_factory=list)     # due -> sent
    failed: int = 0
    bad_reply: int = 0


def probe_open_loop(endpoint: runner.Endpoint, window_s: float, log: ProbeLog,
                    probe) -> None:
    """Probe every PROBE_INTERVAL_S for ``window_s``, one probe at a time.

    Each probe is timed from when it was due, so a stall also counts
    against the probes queued behind it; ``late_ms`` records how far
    behind schedule the generator ran.  ``probe`` is
    runner.probe_liveness, or a traced wrapper of it.
    """
    start = time.monotonic()
    for i in range(int(window_s / PROBE_INTERVAL_S)):
        due = start + i * PROBE_INTERVAL_S
        now = time.monotonic()
        if now < due:
            time.sleep(due - now)
        sent = time.monotonic()
        result = probe(endpoint)
        done = time.monotonic()
        log.late_ms.append((sent - due) * 1000)
        log.latency_ms.append((done - due) * 1000)
        if not result.alive:
            log.failed += 1
        elif not result.detail.startswith("connack rc=0"):
            log.bad_reply += 1


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# --- the client that never reads ---------------------------------------------

@dataclass
class StallLog:
    drop_bytes: list[int] = field(default_factory=list)  # accepted before each drop
    connects: int = 0


class Stall(threading.Thread):
    """Subscribes to stall/# and publishes to itself, never reading.

    The broker routes every publish back to this connection, whose
    receive side nobody drains, so the broker's sends back up until it
    drops the connection.  The client then reconnects and starts over.
    """

    def __init__(self, endpoint: runner.Endpoint, frames: list[bytes]):
        super().__init__(name="bench-stall", daemon=True)
        self.endpoint = endpoint
        self.frames = frames
        self.stop_event = threading.Event()
        self.log = StallLog()
        self.error: str | None = None

    def run(self) -> None:
        hello = b"".join(codec.encode_packet(p) for p in stall_hello())
        k = 0
        while not self.stop_event.is_set():
            try:
                sock = socket.create_connection((self.endpoint.host, self.endpoint.port),
                                                timeout=2.0)
            except OSError as exc:
                self.error = f"connect failed: {exc}"
                self.stop_event.wait(0.05)
                continue
            self.log.connects += 1
            accepted = 0
            try:
                sock.settimeout(0.2)
                frame = hello
                while True:
                    # send() rather than sendall(): a timeout must never
                    # leave half a frame behind.
                    view = memoryview(frame)
                    while view:
                        if self.stop_event.is_set():
                            return
                        try:
                            sent = sock.send(view)
                        except socket.timeout:
                            continue
                        view = view[sent:]
                        accepted += sent
                    frame = self.frames[k]
                    k = (k + 1) % len(self.frames)
            except OSError:
                self.log.drop_bytes.append(accepted)
            finally:
                sock.close()

    def stop(self) -> None:
        self.stop_event.set()
        self.join(timeout=5)
        if self.is_alive():
            raise RuntimeError("stall client did not stop")
