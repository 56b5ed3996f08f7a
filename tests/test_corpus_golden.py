"""The corpus against the refbroker keeps its verdicts and its wire traffic.

``golden/corpus_refbroker.json`` pins, for every built-in scenario, the
fingerprint summary and, per session and direction, the frames of each
packet type in order (scripted and auto-sent frames apart): their count
and a SHA-256 over the length-prefixed frames.  The delivered list is
pinned by count and digest too, since the long-topic scenarios deliver
topics of up to 64 KiB.

Timestamps, the interleaving of sessions, and the interleaving of
packet types within one session are not pinned.  The last varies from
run to run with the same code: in ``qos2_then_qos1_same_id`` the
broker's PUBREC for a scripted publish and its forward of that publish
race, and the auto-acks follow whichever lands first.

Regenerate (only when a verdict or the wire traffic is meant to change):

    PYTHONPATH=src python tests/test_corpus_golden.py > tests/golden/corpus_refbroker.json
"""

import hashlib
import json
import os
import sys

from mqttprobe import corpus, refbroker
from mqttprobe.oracle import fingerprint, profile_to_obj
from mqttprobe.runner import K_RECEIVED, K_SENT, Endpoint, run_corpus

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "corpus_refbroker.json")


def _digest(frames):
    digest = hashlib.sha256()
    for raw in frames:
        digest.update(len(raw).to_bytes(4, "big") + raw)
    return {"frames": len(frames), "sha256": digest.hexdigest()}


def _outcome(summary):
    delivered = summary.pop("delivered")
    summary["delivered"] = _digest([len(t).to_bytes(4, "big") + bytes.fromhex(t + p)
                                    for t, p in delivered])
    return summary


def corpus_record(results):
    traffic = {}
    for result in results:
        streams = {}
        for event in result.trace.events:
            if event.kind not in (K_SENT, K_RECEIVED) or event.raw is None:
                continue
            kind = "spliced" if event.packet is None else type(event.packet).__name__.lower()
            if event.auto:
                kind = f"auto-{kind}"
            direction = streams.setdefault(event.session, {}).setdefault(event.kind, {})
            direction.setdefault(kind, []).append(event.raw)
        traffic[result.experiment.name] = {
            session: {direction: {kind: _digest(frames) for kind, frames in kinds.items()}
                      for direction, kinds in directions.items()}
            for session, directions in streams.items()}
    profile = profile_to_obj(fingerprint(results, broker_label="refbroker"))
    return {"outcomes": {name: _outcome(summary)
                         for name, summary in profile["outcomes"].items()},
            "traffic": traffic}


def run_record():
    with refbroker.serve(host="127.0.0.1", port=0) as broker:
        endpoint = Endpoint(host="127.0.0.1", port=broker.port)
        return corpus_record(run_corpus(corpus.builtin_corpus(), endpoint))


def test_corpus_verdicts_and_traffic_match_golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    record = json.loads(json.dumps(run_record()))
    assert record["outcomes"] == golden["outcomes"]
    assert set(record["traffic"]) == set(golden["traffic"])
    for name, sessions in golden["traffic"].items():
        assert record["traffic"][name] == sessions, name


if __name__ == "__main__":
    json.dump(run_record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
