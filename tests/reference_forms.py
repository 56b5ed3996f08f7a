"""Reference JSON forms that only the tests read.

``packet_to_obj`` and ``event_to_obj`` are the dict forms whose
``json.dumps`` the trace line writer must equal byte for byte, and the
profile readers load the ``profile_to_obj`` form back, so the tests can
check that a profile survives its JSON.
"""

from __future__ import annotations

import json

from mqttprobe.codec import Packet
from mqttprobe.oracle import BehaviorProfile, ScenarioSummary, profile_to_obj
from mqttprobe.trace import _PACKET_JSON, TraceEvent, _hex, _to_obj


def packet_to_obj(packet: Packet) -> dict:
    """JSON-ready form of a packet; byte fields are lowercase hex."""
    if type(packet) not in _PACKET_JSON:
        raise ValueError(f"unserializable packet {packet!r}")
    name, spec = _PACKET_JSON[type(packet)]
    return _to_obj(packet, spec, {"type": name})


def event_to_obj(event: TraceEvent) -> dict:
    return {"record": "event", "seq": event.seq, "t_ms": event.t_ms,
            "session": event.session, "kind": event.kind,
            "packet": None if event.packet is None else packet_to_obj(event.packet),
            "raw": _hex(event.raw), "annotations": list(event.annotations),
            "auto": event.auto, "note": event.note}


def summary_from_obj(obj: dict) -> ScenarioSummary:
    return ScenarioSummary(
        delivered=tuple((t, p) for t, p in obj.get("delivered", [])),
        anomalies=tuple(obj.get("anomalies", [])),
        aborted=obj.get("aborted", False),
        skipped=obj.get("skipped"))


def profile_from_obj(obj: dict) -> BehaviorProfile:
    return BehaviorProfile(
        broker_label=obj["broker_label"],
        version=obj.get("version", ""),
        outcomes={name: summary_from_obj(summary)
                  for name, summary in obj.get("outcomes", {}).items()})


def profile_to_json(profile: BehaviorProfile) -> str:
    return json.dumps(profile_to_obj(profile), indent=2) + "\n"


def profile_from_json(text: str) -> BehaviorProfile:
    return profile_from_obj(json.loads(text))
