"""Traces: what one experiment run witnessed, and their JSONL form.

Events are named tuples, the cheapest immutable record for the runner's
loop to create.  ``event_line`` writes the bytes of ``json.dumps`` of an
event's reference form (``event_to_obj`` in ``tests/reference_forms.py``)
through packet writers derived from the dataclass fields at import, for
the runner and ``trace_lines`` both.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _json_str
from typing import TYPE_CHECKING, NamedTuple, get_args

from .codec import Packet, Will
from .experiment import Experiment

if TYPE_CHECKING:
    from .oracle import ScenarioOutcome

K_SENT = "sent"
K_RECEIVED = "received"
K_CONNECTED = "connected"
K_CLOSED_BY_PEER = "closed-by-peer"
K_TCP_ERROR = "tcp-error"

OUTCOME_COMPLETED = "completed"
OUTCOME_ABORTED_BY_PEER = "aborted-by-peer"
OUTCOME_RUNNER_ERROR = "runner-error"


class TraceEvent(NamedTuple):
    seq: int
    t_ms: float
    session: str
    kind: str
    packet: Packet | None = None
    raw: bytes | None = None
    annotations: tuple[str, ...] = ()
    auto: bool = False
    note: str = ""


@dataclass(frozen=True)
class Trace:
    experiment_name: str
    endpoint: str
    started_at: float
    events: tuple[TraceEvent, ...]
    outcome: str
    outcome_detail: str = ""
    # Absent from traces written before settle listened for quiet.
    settle_gap_ms: int | None = None
    settled_by: str | None = None


@dataclass(frozen=True)
class Liveness:
    alive: bool
    detail: str = ""


@dataclass(frozen=True)
class CorpusResult:
    """An experiment, its trace, the liveness probe that followed it and its verdict.

    ``runner.run_corpus`` keeps only the experiment's name, and a trace
    without events: the ``outcome`` was judged from them as they were
    recorded.  It is None for a skipped run or a runner error.
    """
    experiment: Experiment
    trace: Trace | None
    liveness: Liveness
    skipped: str | None = None
    outcome: ScenarioOutcome | None = None


# --- JSON forms --------------------------------------------------------------

def _hex(value: bytes | None) -> str | None:
    return None if value is None else value.hex()


def _unhex(value: str | None) -> bytes | None:
    return None if value is None else bytes.fromhex(value)


# How each packet field annotation goes to trace JSON and back, as
# (to JSON, from JSON); None means the value is JSON as it is.  Bytes
# are lowercase hex, tuples are lists and a Will is a nested object.
_FIELD_JSON = {
    "int": (None, None),
    "int | None": (None, None),
    "bool": (None, None),
    "bytes": (bytes.hex, bytes.fromhex),
    "bytes | None": (_hex, _unhex),
    "tuple[int, ...]": (list, tuple),
    "tuple[bytes, ...]": (lambda fs: [f.hex() for f in fs],
                          lambda fs: tuple(bytes.fromhex(f) for f in fs)),
    "tuple[tuple[bytes, int], ...]": (lambda es: [[f.hex(), q] for f, q in es],
                                      lambda es: tuple((bytes.fromhex(f), q) for f, q in es)),
    "Will | None": (lambda w: None if w is None else _to_obj(w, _WILL_JSON, {}),
                    lambda o: None if o is None else _from_obj(Will, _WILL_JSON, o)),
}


def _json_spec(cls: type) -> tuple:
    """(field name, to JSON, from JSON) per field, chosen once per class."""
    return tuple((f.name, *_FIELD_JSON[f.type]) for f in fields(cls))


_WILL_JSON = _json_spec(Will)
# Packet class -> ("type" value, field spec), and the other way round.
_PACKET_JSON = {cls: (cls.__name__.lower(), _json_spec(cls)) for cls in get_args(Packet)}
_PACKET_CLASSES = {name: (cls, spec) for cls, (name, spec) in _PACKET_JSON.items()}


def _to_obj(value: object, spec: tuple, obj: dict) -> dict:
    for name, to_json, _ in spec:
        field_value = getattr(value, name)
        obj[name] = field_value if to_json is None else to_json(field_value)
    return obj


def _from_obj(cls: type, spec: tuple, obj: dict) -> object:
    # A key that an older trace omits takes the field's default.
    return cls(**{name: obj[name] if from_json is None else from_json(obj[name])
                  for name, _, from_json in spec if name in obj})


def packet_from_obj(obj: dict) -> Packet:
    kind = obj["type"]
    if kind not in _PACKET_CLASSES:
        raise ValueError(f"unknown packet type {kind!r}")
    return _from_obj(*_PACKET_CLASSES[kind], obj)  # type: ignore[return-value]


def event_from_obj(obj: dict) -> TraceEvent:
    return TraceEvent(seq=obj["seq"], t_ms=obj["t_ms"], session=obj["session"],
                      kind=obj["kind"],
                      packet=None if obj.get("packet") is None
                      else packet_from_obj(obj["packet"]),
                      raw=_unhex(obj.get("raw")),
                      annotations=tuple(obj.get("annotations", ())),
                      auto=obj.get("auto", False), note=obj.get("note", ""))


# --- the line writer ---------------------------------------------------------

# The JSON text of a field value ``%s`` as an f-string replacement field;
# other annotations are written as ``json.dumps`` of their to-JSON form.
_FIELD_TEXT = {
    "int": "{%s!r}",
    "int | None": '{"null" if %s is None else %s}',
    "bool": '{"true" if %s else "false"}',
    "bytes": '"{%s.hex()}"',
}


def _packet_writer(cls: type):
    """Compile one packet class's f-string writer, as dataclasses compiles ``__init__``."""
    name, spec = _PACKET_JSON[cls]
    parts = [f'"type": "{name}"']
    for i, f in enumerate(fields(cls)):
        text = _FIELD_TEXT.get(f.type, f"{{_dumps(_to[{i}](%s))}}")
        parts.append(f'"{f.name}": ' + text.replace("%s", f"p.{f.name}"))
    scope = {"_dumps": json.dumps, "_to": [to_json for _, to_json, _ in spec]}
    exec(f"def write(p):\n    return f'{{{{{', '.join(parts)}}}}}'", scope)
    return scope["write"]


_PACKET_TEXT = {cls: _packet_writer(cls) for cls in _PACKET_JSON}
_PACKET_TEXT[type(None)] = lambda packet: "null"


def header_line(experiment: str, endpoint: str, started_at: float,
                settle_gap_ms: int | None) -> str:
    """The ``trace-header`` record of a trace, as one line."""
    header = {"record": "trace-header", "experiment": experiment,
              "endpoint": endpoint, "started_at": started_at}
    if settle_gap_ms is not None:
        header["settle_gap_ms"] = settle_gap_ms
    return json.dumps(header) + "\n"


def event_line(event: TraceEvent) -> str:
    """One event record, byte for byte ``json.dumps`` of its reference form and a newline."""
    seq, t_ms, session, kind, packet, raw, annotations, auto, note = event
    raw_text = "null" if raw is None else f'"{raw.hex()}"'
    notes = ", ".join(map(_json_str, annotations))
    return (f'{{"record": "event", "seq": {seq!r}, "t_ms": {t_ms!r}, '
            f'"session": {_json_str(session)}, "kind": {_json_str(kind)}, '
            f'"packet": {_PACKET_TEXT[type(packet)](packet)}, "raw": {raw_text}, '
            f'"annotations": [{notes}], "auto": {"true" if auto else "false"}, '
            f'"note": {_json_str(note)}}}\n')


def outcome_line(outcome: str, detail: str, settled_by: str | None) -> str:
    """The closing ``trace-outcome`` record, as one line."""
    record = {"record": "trace-outcome", "outcome": outcome, "detail": detail}
    if settled_by is not None:
        record["settled_by"] = settled_by
    return json.dumps(record) + "\n"


def trace_lines(trace: Trace) -> Iterator[str]:
    """Yield the JSONL lines one at a time: header, events in seq order, outcome.

    Each line ends in a newline, so a writer can stream a trace of any
    length without holding more than one line of it.
    """
    yield header_line(trace.experiment_name, trace.endpoint, trace.started_at, trace.settle_gap_ms)
    yield from map(event_line, trace.events)
    yield outcome_line(trace.outcome, trace.outcome_detail, trace.settled_by)


def trace_to_jsonl(trace: Trace) -> str:
    """The whole trace as one JSONL string: the lines of ``trace_lines``."""
    return "".join(trace_lines(trace))


def trace_from_jsonl(text: str) -> Trace:
    header: dict | None = None
    outcome: dict | None = None
    events: list[TraceEvent] = []
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        obj = json.loads(line)
        record = obj.get("record")
        if record == "trace-header":
            header = obj
        elif record == "trace-outcome":
            outcome = obj
        elif record == "event":
            events.append(event_from_obj(obj))
        else:
            raise ValueError(f"line {line_no}: unknown record {record!r}")
    if header is None or outcome is None:
        raise ValueError("trace stream is missing its header or outcome record")
    return Trace(experiment_name=header["experiment"], endpoint=header["endpoint"],
                 started_at=header["started_at"], events=tuple(events),
                 outcome=outcome["outcome"],
                 outcome_detail=outcome.get("detail", ""),
                 settle_gap_ms=header.get("settle_gap_ms"),
                 settled_by=outcome.get("settled_by"))
