"""A seeded two-session stream against the refbroker keeps its report and traffic.

Subscriber ``s`` holds QoS 2 on ``golden/#``; publisher ``p`` sends
STREAM_PUBLISHES publishes at QoS 0, 1 and 2 over a small pool of
reused identities, each QoS 2 publish followed by its scripted PUBREL,
and every DUP_EVERY-th QoS > 0 publish retransmitted at once with the
DUP flag.  A QoS 1 retransmission is routed again; a QoS 2 one, sent
before its PUBREL, is acknowledged and not routed.  Some topics match
no subscription.  The forwards at QoS > 0 stay far below 65,535, so the
broker's outbound packet ids never wrap and do not depend on when acks
arrive.

The document runs twice through ``mqttprobe run --format json``, once
untraced and once with ``--traces``, and the two reports must be equal.
``golden/stream_refbroker.json`` pins the report without
``generated_at`` and ``target``, each long list in it reduced to its
length and a SHA-256; the fingerprint summary; and, per session,
direction and packet type, the frame count and SHA-256 of the traced
run's traffic (``test_corpus_golden.corpus_record``'s parts).  The
interleaving across sessions and across packet types is not pinned.

Regenerate (only when a verdict or the wire traffic is meant to change):

    PYTHONPATH=src:tests python tests/test_stream_golden.py > tests/golden/stream_refbroker.json
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

from mqttprobe import cli, refbroker
from test_corpus_golden import outcomes_record, traffic_record

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "stream_refbroker.json")
NAME = "golden_stream"
SEED = 17
STREAM_PUBLISHES = 2_000
IDENTITIES = 120
TOPICS = 12
DUP_EVERY = 40       # of the QoS > 0 publishes
PACE = 250           # publishes between two 2 ms waits
LONG_LIST = 8        # items above which a report list is pinned as a digest


def stream_document(seed: int = SEED) -> str:
    rng = random.Random(seed)
    identities = []
    for k in range(IDENTITIES):
        # One topic in six lies outside the subscription.
        root = "golden" if k % 6 else "other"
        payload = f"{k:03d}-" + "".join(rng.choices("abcdefghij", k=rng.randrange(4, 40)))
        identities.append((f"{root}/{k % TOPICS}", payload))
    steps = [{"session": "s", "action": "subscribe", "filter": "golden/#", "qos": 2,
              "packet_id": 1},
             {"session": "s", "action": "wait", "ms": 50}]
    retransmitted = 0
    for i in range(STREAM_PUBLISHES):
        topic, payload = identities[rng.randrange(IDENTITIES)]
        qos = rng.randrange(3)
        step = {"session": "p", "action": "publish", "topic": topic, "payload": payload,
                "qos": qos}
        steps.append(step)
        if qos:
            step["packet_id"] = i + 1
            retransmitted += 1
            if retransmitted % DUP_EVERY == 0:
                steps.append(dict(step, dup=True))
        if qos == 2:
            steps.append({"session": "p", "action": "pubrel", "packet_id": i + 1})
        if (i + 1) % PACE == 0:
            steps.append({"session": "p", "action": "wait", "ms": 2})
    return json.dumps({"name": NAME, "settle_ms": 2_000,
                       "sessions": [{"id": "s"}, {"id": "p"}], "steps": steps})


def _pinned(value):
    """``value`` with every list longer than LONG_LIST replaced by its length and digest."""
    if isinstance(value, dict):
        return {key: _pinned(item) for key, item in value.items()}
    if isinstance(value, list):
        if len(value) <= LONG_LIST:
            return [_pinned(item) for item in value]
        text = json.dumps(value, separators=(",", ":"))
        return {"items": len(value), "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return value


def _report(port: int, directory: str, trace_dir: str | None) -> dict:
    argv = ["run", "--target", f"127.0.0.1:{port}", "--label", "refbroker", "--format", "json",
            "--experiment", os.path.join(directory, f"{NAME}.json")]
    if trace_dir is not None:
        argv += ["--traces", trace_dir]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exit_code = cli.main(argv)
    report = json.loads(out.getvalue())
    assert report["exit_code"] == exit_code
    del report["generated_at"], report["target"]
    return report


def run_record() -> dict:
    with refbroker.serve(host="127.0.0.1", port=0) as broker, \
            tempfile.TemporaryDirectory() as directory:
        with open(os.path.join(directory, f"{NAME}.json"), "w", encoding="utf-8") as handle:
            handle.write(stream_document())
        untraced = _report(broker.port, directory, None)
        trace_dir = os.path.join(directory, "traces")
        traced = _report(broker.port, directory, trace_dir)
        assert traced == untraced, "the traced and the untraced run reported differently"
        return {"report": _pinned(traced),
                "outcomes": outcomes_record(traced["profile"]),
                "traffic": traffic_record(NAME, trace_dir)}


def test_two_session_stream_report_and_traffic_match_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    record = json.loads(json.dumps(run_record()))
    assert record["outcomes"] == golden["outcomes"]
    assert record["report"] == golden["report"]
    for session, directions in golden["traffic"].items():
        assert record["traffic"][session] == directions, session
    assert set(record["traffic"]) == set(golden["traffic"])


if __name__ == "__main__":
    json.dump(run_record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
