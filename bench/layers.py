"""Per-layer measurements taken from outside the program.

Spans from bench/traced_cli.py give the runner, oracle, experiment,
corpus and cli figures.  Codec, topics and the refbroker Router run per
frame on reader threads, where wrapping them would distort what is
measured, so the workload's own recorded frames are replayed through
their public functions instead.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import workloads
from mqttprobe import codec, refbroker, runner, topics
from mqttprobe.experiment import Experiment, WaitStep, expand_steps

LARGE_FRAME = 4096
STREAM_CHUNK = 64 * 1024
SAMPLE_PER_TYPE = 2000
MAX_STREAM_BYTES = 8 * 1024 * 1024
MAX_PAIRS = 20_000
MAX_ROUTED = 60_000
MIN_TIMED_S = 0.05


# --- trace files --------------------------------------------------------------

@dataclass
class TraceScan:
    """What the benchmark recounts from one written trace JSONL file."""

    name: str = ""
    deliveries: list[tuple[str, str]] = field(default_factory=list)  # (topic, payload) hex
    first_publish_ms: float | None = None
    last_delivery_ms: float | None = None

    @property
    def delivery_window_s(self) -> float:
        if self.first_publish_ms is None or self.last_delivery_ms is None:
            return 0.0
        return (self.last_delivery_ms - self.first_publish_ms) / 1000


def scan_trace(path: str) -> TraceScan:
    """Deliveries are PUBLISH receptions on sessions that sent a SUBSCRIBE.

    Only records that mention a publish or a subscribe are parsed.
    """
    scan = TraceScan()
    subscribers: set[str] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if "publish" not in line and "subscribe" not in line \
                    and "trace-header" not in line:
                continue
            record = json.loads(line)
            if record["record"] == "trace-header":
                scan.name = record["experiment"]
                continue
            if record["record"] != "event":
                continue
            packet = record.get("packet") or {}
            ptype = packet.get("type")
            if record["kind"] == runner.K_SENT:
                if ptype == "subscribe":
                    subscribers.add(record["session"])
                elif ptype == "publish" and not record["auto"] \
                        and scan.first_publish_ms is None:
                    scan.first_publish_ms = record["t_ms"]
            elif record["kind"] == runner.K_RECEIVED and ptype == "publish" \
                    and record["session"] in subscribers:
                scan.deliveries.append((packet["topic"], packet["payload"]))
                scan.last_delivery_ms = record["t_ms"]
    return scan


def frame_rate(traces: list[runner.Trace], kind: str) -> float:
    """Frames per second of ``kind`` events, first to last, summed over traces."""
    frames = 0
    seconds = 0.0
    for trace in traces:
        times = [e.t_ms for e in trace.events if e.kind == kind and e.raw is not None]
        if len(times) >= 2 and times[-1] > times[0]:
            frames += len(times)
            seconds += (times[-1] - times[0]) / 1000
    return frames / seconds if seconds else 0.0


def scripted_sleep_s(experiments: list[Experiment]) -> float:
    """Settle windows plus `wait` steps: time the runner spends asleep."""
    total_ms = 0
    for experiment in experiments:
        total_ms += experiment.settle_ms
        total_ms += sum(step.ms for step in expand_steps(experiment)
                        if isinstance(step, WaitStep))
    return total_ms / 1000


# --- spans --------------------------------------------------------------------

def span_metrics(spans: list[list], traces: int, deliveries: int) -> dict[str, float]:
    durations: dict[str, list[float]] = defaultdict(list)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        durations[name].append(end - start)
        if parent >= 0:
            child_time[parent] += end - start
    roots = [i for i, span in enumerate(spans) if span[0] == "cmd_run"]
    cli_self = sum(spans[i][2] - spans[i][1] - child_time[i] for i in roots)
    evaluate_s = sum(durations["evaluate_trace"])
    calls = len(durations["evaluate_trace"])
    probes = durations["probe_liveness"]
    return {
        "runner.experiment_s": sum(durations["run_experiment"]),
        "runner.probe_ms": statistics.median(probes) * 1000 if probes else 0.0,
        "runner.trace_write_s": sum(durations["trace_to_jsonl"]),
        "oracle.evaluate_s": evaluate_s,
        "oracle.evaluate_calls": calls / traces if traces else 0.0,
        "oracle.us_per_delivery": evaluate_s * 1e6 / (deliveries * calls / traces)
        if deliveries and calls and traces else 0.0,
        "oracle.fingerprint_s": sum(durations["fingerprint"]),
        "experiment.parse_s": sum(durations["parse_experiment"]),
        "experiment.expand_s": sum(durations["expand_steps"]),
        "experiment.expand_calls": float(len(durations["expand_steps"])),
        "corpus.hash_ms": statistics.mean(durations["corpus_hash"]) * 1000
        if durations["corpus_hash"] else 0.0,
        "cli.self_s": cli_self,
    }


# --- replays ------------------------------------------------------------------

@dataclass
class Recording:
    """Frames a workload put on the wire, grouped the way replays need them."""

    by_type: dict[str, list[bytes]] = field(default_factory=lambda: defaultdict(list))
    large_publish: list[bytes] = field(default_factory=list)
    streams: list[bytes] = field(default_factory=list)   # one per connection
    filters: list[bytes] = field(default_factory=list)
    topics: list[bytes] = field(default_factory=list)
    # (connection key, frame) in arrival order at the broker; None closes.
    broker_inbound: list[tuple[object, bytes | None]] = field(default_factory=list)

    def add_frame(self, frame: bytes, packet: codec.Packet | None) -> None:
        if packet is None or isinstance(packet, codec.Raw):
            return
        kind = type(packet).__name__.lower()
        self.by_type[kind].append(frame)
        if isinstance(packet, codec.Publish):
            if len(frame) >= LARGE_FRAME:
                self.large_publish.append(frame)
            if not topics.validate_topic(packet.topic):
                self.topics.append(packet.topic)
        elif isinstance(packet, codec.Subscribe):
            self.filters.extend(f for f, _ in packet.entries
                                if not topics.validate_filter(f))


def record_trace(recording: Recording, trace: runner.Trace) -> None:
    inbound: dict[tuple[str, str, int], bytearray] = {}
    connection: dict[str, int] = defaultdict(int)
    keys: dict[tuple[str, str, int], None] = {}
    for event in trace.events:
        if event.kind == runner.K_CONNECTED:
            connection[event.session] += 1
        key = (trace.experiment_name, event.session, connection[event.session])
        if event.kind == runner.K_SENT and event.raw is not None:
            recording.add_frame(event.raw, event.packet)
            recording.broker_inbound.append((key, event.raw))
            keys[key] = None
        elif event.kind == runner.K_RECEIVED and event.raw is not None:
            recording.add_frame(event.raw, event.packet)
            inbound.setdefault(key, bytearray()).extend(event.raw)
        elif event.kind in (runner.K_CLOSED_BY_PEER, runner.K_TCP_ERROR):
            recording.broker_inbound.append((key, None))
    # The runner closes every session when the experiment ends.
    recording.broker_inbound.extend((key, None) for key in keys)
    recording.streams.extend(bytes(stream) for stream in inbound.values())


def record_stall(frames: list[bytes]) -> Recording:
    """The stalled_subscriber workload's frames, as the refbroker receives them.

    The stall client sends CONNECT, SUBSCRIBE and then ``frames`` in a
    loop; each probe sends CONNECT and DISCONNECT and receives CONNACK.
    """
    recording = Recording()
    hello = [codec.encode_packet(packet) for packet in workloads.stall_hello()]
    probe = codec.Connect(client_id=b"probe-0123abcd")
    bye = codec.Disconnect()
    for packet in (*workloads.stall_hello(), probe, codec.Connack(), bye):
        recording.add_frame(codec.encode_packet(packet), packet)
    stream = bytearray()
    for frame in hello + frames:
        stream += frame
        recording.broker_inbound.append(("stall", frame))
    for frame in frames:
        recording.add_frame(frame, codec.decode_packet(frame)[0])
    for i in range(len(frames) // 100):
        recording.broker_inbound += [(("probe", i), codec.encode_packet(probe)),
                                     (("probe", i), codec.encode_packet(bye))]
    recording.streams.append(bytes(stream))
    return recording


def replay_metrics(recording: Recording) -> dict[str, float]:
    """Codec, topics and Router costs over a workload's recorded frames."""
    out = codec_metrics(recording)
    out.update(topics_metrics(recording))
    out["refbroker.route_us"] = route_us(recording)
    return out


def _sample(frames: list[bytes], limit: int) -> list[bytes]:
    if len(frames) <= limit:
        return frames
    step = len(frames) / limit
    return [frames[int(i * step)] for i in range(limit)]


def _per_call_us(fn, items: list) -> float:
    """Mean µs per call over ``items``, repeated to at least MIN_TIMED_S."""
    if not items:
        return 0.0
    calls = 0
    start = time.perf_counter()
    while True:
        for item in items:
            fn(item)
        calls += len(items)
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_TIMED_S:
            return elapsed * 1e6 / calls


def codec_metrics(recording: Recording) -> dict[str, float]:
    permissive = codec.DecodeMode.PERMISSIVE
    out: dict[str, float] = {}
    groups = dict(recording.by_type)
    groups["publish_large"] = recording.large_publish
    for kind, frames in sorted(groups.items()):
        sample = _sample(frames, SAMPLE_PER_TYPE)
        out[f"codec.decode_us.{kind}"] = _per_call_us(
            lambda frame: codec.decode_packet(frame, permissive), sample)
        if kind == "publish_large":
            continue
        packets = []
        for frame in sample:
            packet, _, _ = codec.decode_packet(frame, permissive)
            try:
                codec.encode_packet(packet)
            except codec.CodecError:
                continue  # a deliberately invalid frame has no encoding
            packets.append(packet)
        out[f"codec.encode_us.{kind}"] = _per_call_us(codec.encode_packet, packets)
    out["codec.stream_decode_frames_per_s"] = stream_decode_rate(recording.streams)
    return out


def stream_decode_rate(streams: list[bytes]) -> float:
    """Frames per second through decode_packet, fed 64 KiB at a time."""
    budget = MAX_STREAM_BYTES
    chunked = []
    for stream in sorted(streams, key=len, reverse=True):
        stream = stream[:budget]
        budget -= len(stream)
        chunked.append([stream[i:i + STREAM_CHUNK]
                        for i in range(0, len(stream), STREAM_CHUNK)])
        if budget <= 0:
            break
    frames = 0
    start = time.perf_counter()
    for chunks in chunked:
        buffer = b""
        for chunk in chunks:
            buffer += chunk
            while buffer:
                try:
                    _, _, consumed = codec.decode_packet(buffer, codec.DecodeMode.PERMISSIVE)
                except codec.IncompleteFrame:
                    break
                except codec.MalformedFrame as exc:
                    consumed = exc.frame_length or len(buffer)
                buffer = buffer[consumed:]
                frames += 1
    elapsed = time.perf_counter() - start
    return frames / elapsed if elapsed > 0 else 0.0


def topics_metrics(recording: Recording) -> dict[str, float]:
    filters = sorted(set(recording.filters))
    pairs = [(f, t) for t in recording.topics for f in filters][:MAX_PAIRS]
    names = recording.topics[:MAX_PAIRS]
    return {
        "topics.match_us": _per_call_us(lambda pair: topics.match_filter(*pair), pairs),
        "topics.validate_us": _per_call_us(topics.validate_topic, names),
    }


def route_us(recording: Recording) -> float:
    """µs per packet through Router.connect/handle, replaying broker input.

    Frames are decoded the way the refbroker's connection handler does
    before the clock starts; only the Router calls are timed.
    """
    ops: list[tuple[object, codec.Packet | None]] = []
    for key, frame in recording.broker_inbound[:MAX_ROUTED]:
        if frame is None:
            ops.append((key, None))
            continue
        try:
            packet, annotations, _ = codec.decode_packet(frame, codec.DecodeMode.PERMISSIVE)
        except codec.CodecError:
            ops.append((key, None))
            continue
        if [a for a in annotations if a not in refbroker.TOLERATED_ANNOTATIONS]:
            ops.append((key, None))
        else:
            ops.append((key, packet))
    router = refbroker.Router()
    connected: set[object] = set()
    closed: set[object] = set()
    routed = 0
    elapsed = 0.0
    for key, packet in ops:
        if key in closed:
            continue
        if packet is None:
            router.detach(key)
            closed.add(key)
            continue
        start = time.perf_counter()
        try:
            if key not in connected and isinstance(packet, codec.Connect):
                result = router.connect(key, packet)
                connected.add(key)
            else:
                result = router.handle(key, packet)
        except refbroker.ProtocolViolation:
            router.detach(key)
            result = refbroker.HandleResult(close=True)
        elapsed += time.perf_counter() - start
        routed += 1
        if result.close:
            router.detach(key)
            closed.add(key)
        if result.evicted is not None:
            router.detach(result.evicted)
            closed.add(result.evicted)
    return elapsed * 1e6 / routed if routed else 0.0
