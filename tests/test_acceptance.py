"""Acceptance gate: nine end-to-end criteria, one printed verdict each.

Budgets are pinned here on purpose; loosening them is a behavior change,
not a test tweak.
"""

import itertools
import json
import os
import random
import socket
import threading
import time

import pytest

from mqttprobe import codec, corpus, refbroker
from mqttprobe.codec import (
    Connack,
    Connect,
    DecodeMode,
    IncompleteFrame,
    MalformedFrame,
    Publish,
    Pubrec,
    Pubcomp,
    Pubrel,
    Subscribe,
    decode_packet,
    decode_remaining_length,
    encode_packet,
    encode_remaining_length,
)
from mqttprobe.experiment import parse_experiment, render_experiment
from mqttprobe.oracle import (
    Severity,
    evaluate_trace,
    fingerprint,
)
from mqttprobe.profiles import PROFILED_SCENARIOS, documented_profiles
from mqttprobe.runner import (
    Endpoint,
    K_RECEIVED,
    OUTCOME_ABORTED_BY_PEER,
    OUTCOME_COMPLETED,
    probe_liveness,
    run_corpus,
    run_experiment,
    trace_from_jsonl,
)
from mqttprobe.topics import match_filter
from genpackets import random_valid_packet
import synthetic
from test_topics import brute_match

_BY_NAME = corpus.corpus_by_name()


@pytest.fixture(scope="module")
def verdict(pytestconfig):
    """Emit one ACCEPTANCE line per criterion past output capture."""
    cap = pytestconfig.pluginmanager.getplugin("capturemanager")

    def emit(number, label, status="PASS"):
        with cap.global_and_fixture_disabled():
            print(f"\nACCEPTANCE {number} {label}: {status}", flush=True)

    return emit


# ---------------------------------------------------------------------------

def test_criterion_1_codec_round_trip_and_decode_throughput(verdict):
    started = time.monotonic()
    rng = random.Random(0xC0DEC)

    round_trips = 12_000
    for _ in range(round_trips):
        packet = random_valid_packet(rng)
        frame = encode_packet(packet)
        decoded, notes, used = decode_packet(frame, DecodeMode.STRICT)
        assert decoded == packet and notes == [] and used == len(frame)

    # Adversarial decode pool: raw noise, mutated valid frames, truncations.
    pool = []
    for _ in range(1500):
        pool.append(rng.randbytes(rng.randint(0, 32)))
    for _ in range(1500):
        frame = bytearray(encode_packet(random_valid_packet(rng)))
        for _ in range(rng.randint(1, 3)):
            frame[rng.randrange(len(frame))] = rng.randrange(256)
        pool.append(bytes(frame))
    for _ in range(1000):
        frame = encode_packet(random_valid_packet(rng))
        pool.append(frame[:rng.randint(0, len(frame))])

    decodes = 1_000_000
    pool_len = len(pool)
    for i in range(decodes):
        blob = pool[i % pool_len]
        try:
            decode_packet(blob, DecodeMode.PERMISSIVE)
        except (IncompleteFrame, MalformedFrame):
            pass

    elapsed = time.monotonic() - started
    assert elapsed < 60, f"codec criterion took {elapsed:.1f}s"
    verdict(1, f"{round_trips} round-trips + {decodes} permissive decodes "
                f"in {elapsed:.1f}s")


def test_criterion_2_varint_boundaries_and_minimality(verdict):
    boundaries = {
        0: b"\x00",
        127: b"\x7f",
        128: b"\x80\x01",
        16_383: b"\xff\x7f",
        16_384: b"\x80\x80\x01",
        2_097_151: b"\xff\xff\x7f",
        2_097_152: b"\x80\x80\x80\x01",
        268_435_455: b"\xff\xff\xff\x7f",
    }
    for value, wire in boundaries.items():
        assert encode_remaining_length(value) == wire
        assert decode_remaining_length(wire) == (value, len(wire))

    rng = random.Random(0x7A21)
    for _ in range(10_000):
        value = rng.randint(0, codec.MAX_REMAINING_LENGTH)
        wire = encode_remaining_length(value)
        assert decode_remaining_length(wire) == (value, len(wire))
        minimal = 1 if value == 0 else -(-value.bit_length() // 7)
        assert len(wire) == minimal, f"non-minimal encoding for {value}"
    verdict(2, "varint boundaries, 10000 random round-trips, minimality")


def test_criterion_3_matcher_against_brute_force(verdict):
    assert match_filter(b"/home/basement/#",
                        b"/home/basement/kitchen/temperature/") is True

    rng = random.Random(0x70B1C)
    levels = ["", "a", "b", "ab", "ba", "+"]
    disagreements = 0
    pairs = 100_000
    for _ in range(pairs):
        f_parts = [rng.choice(levels) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.4:
            f_parts.append("#")
        topic_filter = "/".join(f_parts).encode()
        t_parts = [rng.choice(["", "a", "b", "ab", "ba"])
                   for _ in range(rng.randint(1, 5))]
        topic = "/".join(t_parts).encode()
        if match_filter(topic_filter, topic) != brute_match(topic_filter, topic):
            disagreements += 1
    assert disagreements == 0
    verdict(3, f"deep-hierarchy case + {pairs} matcher pairs, "
                f"0 disagreements")


def test_criterion_4_corpus_parses_renders_reparses(verdict):
    entries = corpus.builtin_corpus()
    assert len(entries) >= 17
    for experiment in entries:
        rendered = render_experiment(experiment)
        reparsed = parse_experiment(rendered)
        assert reparsed == experiment
        assert render_experiment(reparsed) == rendered
    verdict(4, f"{len(entries)} corpus experiments round-trip")


def test_criterion_5_self_contained_corpus_run(verdict, tmp_path):
    with refbroker.serve(host="127.0.0.1", port=0) as broker:
        endpoint = Endpoint(host="127.0.0.1", port=broker.port)
        started = time.monotonic()
        results = list(run_corpus(list(corpus.builtin_corpus()), endpoint, str(tmp_path)))
        elapsed = time.monotonic() - started

        assert len(results) == len(corpus.builtin_corpus())
        flood_delivered = 0
        for result in results:
            assert result.skipped is None, result.experiment.name
            assert result.liveness.alive, result.experiment.name
            noisy = [a for a in result.outcome.anomalies
                     if a.severity >= Severity.WARNING]
            assert noisy == [], (result.experiment.name,
                                 [a.code for a in noisy])
            if result.experiment.name == "qos0_flood":
                flood_trace = trace_from_jsonl(
                    (tmp_path / "qos0_flood.jsonl").read_text(encoding="utf-8"))
                flood_delivered = sum(
                    1 for e in flood_trace.events
                    if e.kind == K_RECEIVED and isinstance(e.packet, Publish)
                    and e.packet.topic == corpus.FLOOD_TOPIC)
        assert flood_delivered == corpus.FLOOD_COUNT
        assert elapsed < 60, f"corpus run took {elapsed:.1f}s"
    verdict(5, f"full corpus clean on loopback, flood {flood_delivered} "
                f"delivered, {elapsed:.1f}s")


def test_criterion_6_transcription_oracle_and_false_positive_floor(verdict):
    documented = documented_profiles()
    for label in synthetic.broker_labels():
        expected = documented[label]
        profile = fingerprint(synthetic.synthetic_results(label),
                              label, expected.version)
        for scenario in PROFILED_SCENARIOS:
            got = profile.outcomes[scenario]
            want = expected.outcomes[scenario]
            assert got.anomalies == want.anomalies, (label, scenario)
            assert got.delivered == want.delivered, (label, scenario)
            assert got.aborted == want.aborted, (label, scenario)

    # The standard-conformant broker must trigger none of those findings.
    with refbroker.serve(host="127.0.0.1", port=0) as broker:
        endpoint = Endpoint(host="127.0.0.1", port=broker.port)
        for name in PROFILED_SCENARIOS:
            trace = run_experiment(_BY_NAME[name], endpoint)
            outcome = evaluate_trace(_BY_NAME[name], trace)
            noisy = [a.code for a in outcome.anomalies
                     if a.severity >= Severity.WARNING]
            assert noisy == [], (name, noisy)
    verdict(6, "5 documented profiles reproduced exactly, "
                "0 false positives on the reference broker")


def test_criterion_7_qos2_release_cycle_model_check(verdict):
    TOPIC = b"model/t"
    PUB_A = Publish(topic=TOPIC, payload=b"a", qos=2, packet_id=1)
    PUB_B = Publish(topic=TOPIC, payload=b"b", qos=2, packet_id=1)
    REL = Pubrel(packet_id=1)
    ORPHAN = Pubrel(packet_id=77)
    INPUTS = {"pub": PUB_A, "dup": PUB_B, "rel": REL, "orphan": ORPHAN}

    checked = 0
    for length in range(1, 7):
        for seq in itertools.product(INPUTS, repeat=length):
            router = refbroker.Router()
            router.connect("sub", Connect(client_id=b"s"))
            router.connect("pub", Connect(client_id=b"p"))
            router.handle("sub", Subscribe(packet_id=9,
                                           entries=((TOPIC, 0),)))
            delivered = []
            pubrecs = 0
            pubcomps = 0
            for word in seq:
                result = router.handle("pub", INPUTS[word])
                assert not result.close
                for dest, pkt in result.sends:
                    if dest == "sub" and isinstance(pkt, Publish):
                        delivered.append(pkt.payload)
                    elif dest == "pub" and isinstance(pkt, Pubrec):
                        pubrecs += 1
                    elif dest == "pub" and isinstance(pkt, Pubcomp):
                        pubcomps += 1

            # Independent model: one delivery per publish arriving while
            # its id is unreleased; every publish acked; every release
            # (orphan or not) completed.
            model_delivered = []
            open_id = False
            model_pubrecs = 0
            model_pubcomps = 0
            for word in seq:
                if word in ("pub", "dup"):
                    model_pubrecs += 1
                    if not open_id:
                        model_delivered.append(INPUTS[word].payload)
                        open_id = True
                elif word == "rel":
                    model_pubcomps += 1
                    open_id = False
                else:
                    model_pubcomps += 1

            assert delivered == model_delivered, seq
            assert pubrecs == model_pubrecs, seq
            assert pubcomps == model_pubcomps, seq
            checked += 1
    verdict(7, f"{checked} interleavings match the release-cycle model")


class _NoiseBroker:
    """Accepts anything and answers with random bytes and random hangups."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(16)
        self.port = self.listener.getsockname()[1]
        self.stopping = False
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self.stopping:
            try:
                self.listener.settimeout(0.2)
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self._client, args=(conn,),
                             daemon=True).start()

    def _client(self, conn):
        rng = random.Random(self.rng.random())
        conn.settimeout(0.05)
        try:
            deadline = time.monotonic() + rng.uniform(0.05, 1.0)
            while time.monotonic() < deadline:
                try:
                    conn.recv(4096)
                except socket.timeout:
                    pass
                except OSError:
                    return
                try:
                    conn.sendall(rng.randbytes(rng.randint(1, 512)))
                except OSError:
                    return
                time.sleep(rng.uniform(0.0, 0.05))
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def stop(self):
        self.stopping = True
        try:
            self.listener.close()
        except OSError:
            pass
        self.thread.join(2)


def test_criterion_8_hostile_peer_robustness(verdict):
    window_s = 60

    # Half one: the runner against a broker that talks pure noise.
    noise = _NoiseBroker(seed=0xF422)
    endpoint = Endpoint(host="127.0.0.1", port=noise.port,
                        connect_timeout_ms=1000, io_timeout_ms=1000)
    scripts = [
        _BY_NAME["qos2_then_qos1_same_id"],
        _BY_NAME["orphan_pubrel"],
        _BY_NAME["double_qos2_same_id"],
    ]
    runs = 0
    deadline = time.monotonic() + window_s
    try:
        while time.monotonic() < deadline:
            experiment = scripts[runs % len(scripts)]
            trace = run_experiment(experiment, endpoint)
            assert trace.outcome in (OUTCOME_COMPLETED,
                                     OUTCOME_ABORTED_BY_PEER), trace.outcome
            runs += 1
    finally:
        noise.stop()
    assert runs > 0

    # Half two: the reference broker under random client bytes.
    rng = random.Random(0xB10B)
    with refbroker.serve(host="127.0.0.1", port=0) as broker:
        deadline = time.monotonic() + window_s
        hammered = 0
        while time.monotonic() < deadline:
            try:
                sock = socket.create_connection(("127.0.0.1", broker.port),
                                                timeout=1)
            except OSError:
                pytest.fail("reference broker stopped accepting")
            try:
                if rng.random() < 0.3:
                    sock.sendall(encode_packet(
                        Connect(client_id=rng.randbytes(4))))
                for _ in range(rng.randint(1, 4)):
                    sock.sendall(rng.randbytes(rng.randint(1, 256)))
                    time.sleep(rng.uniform(0, 0.002))
            except OSError:
                pass  # broker hung up on garbage, as it may
            finally:
                sock.close()
            hammered += 1
        # Still speaking MQTT afterwards.
        live = probe_liveness(Endpoint(host="127.0.0.1", port=broker.port))
        assert live.alive, live.detail
    assert hammered > 0
    verdict(8, f"{runs} hostile-peer runs, {hammered} garbage connections, "
                f"both sides stayed up")


def test_criterion_9_real_broker_integration(verdict):
    target = os.environ.get("MQTTPROBE_IT_TARGET", "127.0.0.1:1883")
    endpoint = Endpoint.parse(target, connect_timeout_ms=1000,
                              io_timeout_ms=2000)
    live = probe_liveness(endpoint)
    if not live.alive:
        verdict(9, f"no broker at {target} ({live.detail})", "SKIP")
        pytest.skip(f"no reachable broker at {target}: {live.detail}")
    scenario_set = [_BY_NAME[name] for name in PROFILED_SCENARIOS]
    profile = fingerprint(run_corpus(scenario_set, endpoint), broker_label=target)
    assert set(PROFILED_SCENARIOS) <= set(profile.outcomes)
    findings = {name: list(profile.outcomes[name].anomalies)
                for name in PROFILED_SCENARIOS}
    verdict(9, f"fingerprinted {target}: {json.dumps(findings)}")
