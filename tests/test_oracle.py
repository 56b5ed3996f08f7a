"""Anomaly detection rules, fingerprinting, and profile diffing."""

import pytest

from mqttprobe import corpus, oracle
from mqttprobe.oracle import (
    ACK_BEFORE_PREREQUISITE,
    BROKER_CRASH,
    DUPLICATE_DELIVERY,
    ID_REUSE_MISHANDLED,
    LATE_COMPLETION,
    LOST_MESSAGE,
    NoOverlapError,
    ORPHAN_PUBREL_REJECTED,
    PROTOCOL_VIOLATION_TOLERATED,
    REORDERED_DELIVERY,
    SEVERITY_BY_CODE,
    Severity,
    TOPIC_TRUNCATION,
    TraceMismatchError,
    UNEXPECTED_DISCONNECT,
    diff_profiles,
    evaluate_trace,
    fingerprint,
    profile_from_json,
    profile_to_json,
    scripted_input_conformant,
    summarize_outcome,
)
from mqttprobe.profiles import (
    DOUBLE,
    LONG,
    ORPHAN,
    PROFILED_SCENARIOS,
    QOS20,
    QOS21,
    documented_profiles,
)
from mqttprobe.runner import run_experiment
import synthetic

_BY_NAME = corpus.corpus_by_name()


def _codes(experiment_name, broker_label):
    table = synthetic._SCENARIO_BUILDERS[broker_label]()
    entries, outcome, _alive = table[experiment_name]
    trace = synthetic.build_trace(experiment_name, entries, outcome=outcome)
    result = evaluate_trace(_BY_NAME[experiment_name], trace)
    return sorted({a.code for a in result.anomalies}), result


# ---------------------------------------------------------------------------
# One test per detection rule, each driven by a synthetic trace

def test_lost_message_detected():
    codes, _ = _codes(QOS21, "Mosquitto")
    assert codes == [LOST_MESSAGE]


def test_reordered_delivery_detected():
    codes, result = _codes(QOS20, "Mosquitto")
    assert codes == [REORDERED_DELIVERY]
    assert not result.aborted


def test_reordered_delivery_evidence_is_every_delivery_seq():
    import json
    from mqttprobe.codec import Connack, Connect, Publish, Suback, Subscribe
    from mqttprobe.experiment import parse_experiment
    experiment = parse_experiment(json.dumps({
        "name": "order", "sessions": [{"id": "f"}],
        "steps": [{"action": "subscribe", "session": "f", "filter": "o/t",
                   "qos": 1, "packet_id": 1}] + [
            {"action": "publish", "session": "f", "topic": "o/t",
             "payload": payload, "qos": 1, "packet_id": pid}
            for pid, payload in ((2, "a"), (3, "b"), (4, "a"), (5, "c"))],
    }))
    entries = [("connected",), ("sent", Connect(client_id=b"f")),
               ("recv", Connack(session_present=False, return_code=0)),
               ("sent", Subscribe(1, ((b"o/t", 1),))),
               ("recv", Suback(1, (1,)))]
    entries += [("recv", Publish(topic=b"o/t", payload=payload, qos=1, packet_id=pid))
                for pid, payload in ((3, b"b"), (2, b"a"), (5, b"c"), (4, b"a"))]
    result = evaluate_trace(experiment, synthetic.build_trace("order", entries))
    assert [a.code for a in result.anomalies] == [REORDERED_DELIVERY]
    anomaly = result.anomalies[0]
    assert anomaly.evidence == (5, 6, 7, 8)
    assert anomaly.explanation == ("delivered order [b, a, c] differs from "
                                   "publish order [a, b, c]")


def test_conformant_flow_is_clean():
    for scenario in (QOS21, QOS20, DOUBLE, ORPHAN):
        codes, _ = _codes(scenario, "EMQX")
        assert codes == [], scenario


def test_ack_before_prerequisite_detected():
    for scenario in (QOS21, QOS20):
        codes, _ = _codes(scenario, "HiveMQ")
        assert codes == [ACK_BEFORE_PREREQUISITE], scenario


def test_id_reuse_mishandled_detected():
    codes, _ = _codes(DOUBLE, "HiveMQ")
    assert codes == [ID_REUSE_MISHANDLED]


def test_duplicate_delivery_and_late_completion_detected():
    codes, _ = _codes(DOUBLE, "Aedes")
    assert codes == sorted([DUPLICATE_DELIVERY, LATE_COMPLETION])


def test_late_completion_alone():
    codes, _ = _codes(QOS21, "Aedes")
    assert codes == [LATE_COMPLETION]


def test_topic_truncation_detected():
    codes, _ = _codes(LONG, "HiveMQ")
    assert codes == [TOPIC_TRUNCATION]


def test_unexpected_disconnect_detected():
    codes, result = _codes(LONG, "EMQX")
    assert codes == [UNEXPECTED_DISCONNECT]
    assert result.aborted


def test_orphan_pubrel_rejection_detected():
    codes, result = _codes(ORPHAN, "Aedes")
    # The rejection claims the close: no separate disconnect finding.
    assert codes == [ORPHAN_PUBREL_REJECTED]
    assert result.aborted


def test_orphan_pubrel_completed_is_clean():
    codes, _ = _codes(ORPHAN, "Mosquitto")
    assert codes == []


def test_evaluation_is_deterministic():
    a, _ = _codes(DOUBLE, "Aedes")
    b, _ = _codes(DOUBLE, "Aedes")
    assert a == b


def test_anomalies_carry_evidence_and_explanation():
    _, result = _codes(QOS21, "Mosquitto")
    for anomaly in result.anomalies:
        assert anomaly.evidence, anomaly.code
        assert anomaly.explanation
        assert anomaly.severity == SEVERITY_BY_CODE[anomaly.code]


def test_trace_mismatch_rejected():
    table = synthetic._SCENARIO_BUILDERS["EMQX"]()
    entries, outcome, _ = table[QOS21]
    trace = synthetic.build_trace(QOS21, entries, outcome=outcome)
    with pytest.raises(TraceMismatchError):
        evaluate_trace(_BY_NAME[QOS20], trace)


# ---------------------------------------------------------------------------
# Severity model

def test_severity_order():
    assert Severity.INFO < Severity.WARNING < Severity.DOS < Severity.CRITICAL


def test_severity_assignments():
    assert SEVERITY_BY_CODE[UNEXPECTED_DISCONNECT] == Severity.DOS
    assert SEVERITY_BY_CODE[BROKER_CRASH] == Severity.DOS
    assert SEVERITY_BY_CODE[PROTOCOL_VIOLATION_TOLERATED] == Severity.INFO
    for code in (LOST_MESSAGE, DUPLICATE_DELIVERY, REORDERED_DELIVERY,
                 ACK_BEFORE_PREREQUISITE, LATE_COMPLETION, TOPIC_TRUNCATION,
                 ORPHAN_PUBREL_REJECTED, ID_REUSE_MISHANDLED):
        assert SEVERITY_BY_CODE[code] == Severity.WARNING


def test_severity_labels_round_trip():
    for sev in Severity:
        assert Severity.from_label(sev.label) == sev


# ---------------------------------------------------------------------------
# Scripted-input conformance classification

CONFORMANT = {
    "qos2_then_qos1_same_id", "qos2_then_qos0_same_id", "double_qos2_same_id",
    "long_topic_5000", "long_topic_65535", "many_slashes_topic", "qos0_flood",
    "payload_zlib", "payload_bz2", "payload_base64", "orphan_pubrel",
}
NONCONFORMANT = {
    "non_utf8_client_id", "keepalive_as_string", "invalid_wildcard_subscribe",
    "invalid_wildcard_publish", "topic_utf16", "bad_protocol_name",
    "bad_protocol_level",
}


def test_scripted_input_classification_covers_corpus():
    assert CONFORMANT | NONCONFORMANT == set(_BY_NAME)
    for name in CONFORMANT:
        assert scripted_input_conformant(_BY_NAME[name]), name
    for name in NONCONFORMANT:
        assert not scripted_input_conformant(_BY_NAME[name]), name


def test_tolerated_violation_reported_as_info():
    # A broker that accepts a non-UTF-8 client id without closing gets an
    # informational finding, not a warning.
    from mqttprobe.codec import Connack, Connect
    entries = [
        ("connected",),
        ("sent", Connect(client_id=b"\xff\xfe")),
        ("recv", Connack(session_present=False, return_code=0)),
    ]
    trace = synthetic.build_trace("non_utf8_client_id", entries)
    result = evaluate_trace(_BY_NAME["non_utf8_client_id"], trace)
    codes = {a.code for a in result.anomalies}
    assert codes == {PROTOCOL_VIOLATION_TOLERATED}
    assert all(a.severity == Severity.INFO for a in result.anomalies)


def test_nonconformant_input_close_is_not_disconnect_anomaly():
    from mqttprobe.codec import Connect
    entries = [
        ("connected",),
        ("sent", Connect(client_id=b"\xff\xfe")),
        ("closed",),
    ]
    trace = synthetic.build_trace(
        "non_utf8_client_id", entries,
        outcome=synthetic.OUTCOME_ABORTED_BY_PEER)
    result = evaluate_trace(_BY_NAME["non_utf8_client_id"], trace)
    assert {a.code for a in result.anomalies} == set()
    assert result.aborted


# ---------------------------------------------------------------------------
# Transcribed profiles: the detector must reproduce every documented set

@pytest.mark.parametrize("label", synthetic.broker_labels())
def test_fingerprint_matches_documented_profile(label):
    documented = documented_profiles()[label]
    profile = fingerprint(synthetic.synthetic_results(label),
                          label, documented.version)
    assert profile.broker_label == documented.broker_label
    assert profile.version == documented.version
    assert set(profile.outcomes) == set(documented.outcomes)
    for scenario in PROFILED_SCENARIOS:
        assert profile.outcomes[scenario] == documented.outcomes[scenario], (
            label, scenario)


def test_dead_liveness_upgrades_disconnect_to_crash():
    profile = fingerprint(synthetic.synthetic_results("Aedes"), "Aedes")
    assert profile.outcomes[LONG].anomalies == (BROKER_CRASH,)


# ---------------------------------------------------------------------------
# Reference broker produces zero findings at Warning level or above

def test_refbroker_profiled_scenarios_are_clean(endpoint):
    for name in PROFILED_SCENARIOS:
        trace = run_experiment(_BY_NAME[name], endpoint)
        result = evaluate_trace(_BY_NAME[name], trace)
        noisy = [a for a in result.anomalies
                 if a.severity >= Severity.WARNING]
        assert noisy == [], (name, [a.code for a in noisy])


# ---------------------------------------------------------------------------
# Profile diffing

def test_diff_self_is_empty():
    docs = documented_profiles()
    for profile in docs.values():
        assert diff_profiles(profile, profile) == []


def test_diff_reports_delivery_divergence():
    docs = documented_profiles()
    rows = diff_profiles(docs["Mosquitto"], docs["EMQX"])
    by_scenario = dict(rows)
    assert QOS21 in by_scenario
    text = by_scenario[QOS21]
    assert "lost-message" in text
    assert "second-qos1" in text  # readable payload, not hex


def test_diff_requires_overlap():
    docs = documented_profiles()
    a = docs["Mosquitto"]
    stripped = oracle.BehaviorProfile(
        broker_label="empty", version="", outcomes={})
    with pytest.raises(NoOverlapError):
        diff_profiles(a, stripped)


def test_diff_ignores_scenarios_only_one_side_ran():
    docs = documented_profiles()
    a = docs["Moquette"]
    partial = oracle.BehaviorProfile(
        broker_label="partial", version="",
        outcomes={QOS21: a.outcomes[QOS21]})
    assert diff_profiles(a, partial) == []


# ---------------------------------------------------------------------------
# Serialization

def test_profile_json_round_trip():
    for profile in documented_profiles().values():
        again = profile_from_json(profile_to_json(profile))
        assert again == profile


def test_summary_reflects_outcome():
    _, result = _codes(QOS21, "EMQX")
    summary = summarize_outcome(result)
    assert len(summary.delivered) == 2
    assert summary.anomalies == ()
    assert summary.aborted is False


def test_r1_scales_linearly_with_misdelivered_identities():
    import json
    import time
    from mqttprobe.codec import Publish, Suback, Subscribe
    from mqttprobe.experiment import parse_experiment
    doubled, lost = 4000, 10
    payloads = [f"m{i}" for i in range(doubled + lost)]
    experiment = parse_experiment(json.dumps({
        "name": "misdelivered", "sessions": [{"id": "f"}],
        "steps": [{"action": "subscribe", "session": "f", "filter": "d/t",
                   "qos": 1, "packet_id": 1}] + [
            {"action": "publish", "session": "f", "topic": "d/t",
             "payload": payload, "qos": 1, "packet_id": i + 2}
            for i, payload in enumerate(payloads)],
    }))
    entries = synthetic._prologue() + [("sent", Subscribe(1, ((b"d/t", 1),))),
                                       ("recv", Suback(1, (1,)))]
    sent_seq, excess_seq = {}, {}
    for i, payload in enumerate(p.encode() for p in payloads):
        sent_seq[payload] = len(entries)
        entries.append(("sent", Publish(topic=b"d/t", payload=payload, qos=1,
                                        packet_id=i + 2)))
        if i < doubled:
            entries.append(("recv", Publish(topic=b"d/t", payload=payload, qos=1,
                                            packet_id=2 * i + 1)))
            excess_seq[payload] = len(entries)
            entries.append(("recv", Publish(topic=b"d/t", payload=payload, qos=1,
                                            packet_id=2 * i + 2)))
    trace = synthetic.build_trace("misdelivered", entries)
    started = time.perf_counter()
    result = evaluate_trace(experiment, trace)
    elapsed = time.perf_counter() - started
    by_code = {}
    for anomaly in result.anomalies:
        by_code.setdefault(anomaly.code, []).append(anomaly)
    assert sorted(by_code) == [DUPLICATE_DELIVERY, LOST_MESSAGE]
    assert sorted(a.evidence for a in by_code[DUPLICATE_DELIVERY]) == sorted(
        (seq,) for seq in excess_seq.values())
    assert sorted(a.evidence for a in by_code[LOST_MESSAGE]) == sorted(
        (sent_seq[p.encode()],) for p in payloads[doubled:])
    assert elapsed < 0.5, f"evaluate_trace took {elapsed:.2f}s"
