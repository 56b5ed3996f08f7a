"""Scripted experiment model and its JSON document format.

An experiment declares sessions (each one broker connection) and an
ordered step list.  A step that puts a packet on the wire exposes it
as ``packet``: a ``SendStep`` holds the codec packet it sends, spelled
in the document field for field, and a subscribe or unsubscribe step
builds its one-filter packet.  Sessions connect lazily: the runner
opens the socket and sends CONNECT right before the first step that
needs the wire, so a document doesn't have to script the connect unless
it wants to splice or reorder it.  Nothing is auto-assigned: packet ids
appear on the wire exactly as scripted, because reusing them is the
point.

Parsing is total over arbitrary JSON text: any input either yields an
Experiment or raises one of the typed errors below with a path to the
offending element.  A document file is read in pieces, and each step is
built as soon as its element is read, so neither the file's text nor its
JSON tree is ever whole; what a fault reports does not depend on how
the text was read.

``model_script`` replays a script through a conformant-broker model to
say which deliveries it should cause and whether the script stays inside
the protocol; the oracle's judge replays it once per run, judges by it,
and tells the runner's settle which deliveries are still owed.
"""

from __future__ import annotations

import binascii
import json
from collections.abc import Iterable, Iterator
from dataclasses import MISSING, dataclass, fields
from typing import TextIO, get_args

from . import codec, topics

MAX_WAIT_MS = 60_000
MAX_REPEAT = 100_000
MAX_SETTLE_MS = 600_000
# Guard against nested repeats expanding into unbounded step lists.
MAX_EXPANDED_STEPS = 1_000_000
DEFAULT_SETTLE_MS = 500


class ExperimentError(Exception):
    """Base class for experiment document errors."""


class SchemaError(ExperimentError):
    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}" if path else reason)
        self.path = path
        self.reason = reason


class DuplicateSessionError(ExperimentError):
    def __init__(self, session_id: str):
        super().__init__(f"session {session_id!r} declared twice")
        self.session_id = session_id


class UnknownSessionRefError(ExperimentError):
    def __init__(self, path: str, session_id: str):
        super().__init__(f"{path}: step references undeclared session {session_id!r}")
        self.path = path
        self.session_id = session_id


@dataclass(frozen=True, slots=True)
class SessionDecl:
    # Parsed and rendered in field order, as every step is.
    id: str
    client_id: bytes | None = None  # None resolves to the id, UTF-8 encoded
    clean_session: bool = True
    keep_alive: int = 60
    protocol_name: bytes = b"MQTT"
    protocol_level: int = 4
    auto_ack: bool = True
    username: str | None = None
    password: str | None = None

    def __post_init__(self) -> None:
        if self.client_id is None:
            object.__setattr__(self, "client_id", self.id.encode("utf-8"))

    def to_connect(self) -> codec.Connect:
        return codec.Connect(
            client_id=self.client_id,
            clean_session=self.clean_session,
            keep_alive=self.keep_alive,
            protocol_name=self.protocol_name,
            protocol_level=self.protocol_level,
            username=None if self.username is None else self.username.encode("utf-8"),
            password=None if self.password is None else self.password.encode("utf-8"),
        )


@dataclass(frozen=True, slots=True)
class ConnectStep:
    session: str
    action = "connect"


@dataclass(frozen=True, slots=True)
class SubscribeStep:
    session: str
    filter: bytes
    qos: int = 0
    packet_id: int = 1
    action = "subscribe"

    @property
    def packet(self) -> codec.Subscribe:
        return codec.Subscribe(self.packet_id, ((self.filter, self.qos),))


@dataclass(frozen=True, slots=True)
class UnsubscribeStep:
    session: str
    filter: bytes
    packet_id: int = 1
    action = "unsubscribe"

    @property
    def packet(self) -> codec.Unsubscribe:
        return codec.Unsubscribe(self.packet_id, (self.filter,))


# Action -> the codec packet class a send step of it holds; the
# document spells the packet's own fields.
_SEND_PACKETS = {
    "publish": codec.Publish, "puback": codec.Puback, "pubrec": codec.Pubrec,
    "pubrel": codec.Pubrel, "pubcomp": codec.Pubcomp, "pingreq": codec.Pingreq,
    "send_raw": codec.Raw, "disconnect": codec.Disconnect,
}
_SEND_ACTION = {cls: action for action, cls in _SEND_PACKETS.items()}


@dataclass(frozen=True, slots=True)
class SendStep:
    """Send ``packet``, a codec packet of one of the send actions' classes."""

    session: str
    packet: codec.Packet

    @property
    def action(self) -> str:
        return _SEND_ACTION[type(self.packet)]


@dataclass(frozen=True, slots=True)
class SpliceNextStep:
    """Arm a byte-level patch for the session's next scripted frame."""

    session: str
    offset: int = 0
    remove: int = 0
    insert: bytes = b""
    fixup_length: bool = True
    action = "splice_next"


@dataclass(frozen=True, slots=True)
class WaitStep:
    session: str
    ms: int
    action = "wait"


@dataclass(frozen=True, slots=True)
class RepeatStep:
    session: str
    count: int
    steps: tuple[Step, ...] = ()
    action = "repeat"

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))


Step = (
    ConnectStep | SubscribeStep | UnsubscribeStep | SendStep | SpliceNextStep
    | WaitStep | RepeatStep
)


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str = ""
    sessions: tuple[SessionDecl, ...] = ()
    steps: tuple[Step, ...] = ()
    settle_ms: int = DEFAULT_SETTLE_MS

    def __post_init__(self) -> None:
        object.__setattr__(self, "sessions", tuple(self.sessions))
        object.__setattr__(self, "steps", tuple(self.steps))


def expand_steps(experiment: Experiment) -> list[Step]:
    """Flatten repeat blocks into the primitive step sequence."""
    out: list[Step] = []

    def walk(steps: tuple[Step, ...]) -> None:
        for step in steps:
            if type(step) is RepeatStep:
                for _ in range(step.count):
                    walk(step.steps)
            else:
                out.append(step)
                if len(out) > MAX_EXPANDED_STEPS:
                    raise SchemaError("steps", f"expansion exceeds {MAX_EXPANDED_STEPS} steps")

    walk(experiment.steps)
    return out


# --- script model ----------------------------------------------------------

Identity = tuple[bytes, bytes]  # (topic, payload)


@dataclass
class ScriptModel:
    expected: list[Identity]            # conformant delivery order
    suppressed: list[Identity]          # qos2 same-id retransmissions
    qos0_identities: set[Identity]      # loss of these is legal
    orphan_pubrels: list[tuple[str, int]]
    subscriber_sessions: set[str]
    exact_filters: dict[str, list[tuple[bytes, int]]]  # session -> (filter, sub packet_id)
    input_conformant: bool              # the script stays inside the protocol


def model_script(experiment: Experiment) -> ScriptModel:
    """Replay the script through a conformant broker model.

    The same replay decides ``input_conformant``, the rules a codec
    annotation or the refbroker enforces on what a client sends: every
    session speaks MQTT level 4 with a UTF-8 client id and no password
    without a username; no step splices or sends raw bytes; every filter
    and publish topic is valid; no packet carries id 0 and no QoS 0
    publish sets DUP.  Deliberate packet-id reuse is NOT flagged: whether
    that is legal is exactly the question the QoS scenarios pose, and
    flagging it would reclassify their disconnect responses as conformant.

    Every occurrence of an identity in the model is one shared tuple.
    """
    model = ScriptModel(
        expected=[], suppressed=[], qos0_identities=set(), orphan_pubrels=[],
        subscriber_sessions=set(), exact_filters={},
        input_conformant=all(
            decl.protocol_name == b"MQTT" and decl.protocol_level == 4
            and codec._is_utf8(decl.client_id)
            and (decl.password is None or decl.username is not None)
            for decl in experiment.sessions))
    subscriptions: list[bytes] = []
    routed: dict[bytes, bool] = {}  # topic -> matches a subscription; reset when they change
    checked_topics: set[bytes] = set()
    identities: dict[Identity, Identity] = {}
    open_qos2: dict[str, set[int]] = {}
    seen_qos2: dict[str, set[int]] = {}
    for step in expand_steps(experiment):
        cls = type(step)
        if cls is SpliceNextStep:
            model.input_conformant = False
            continue
        if cls is ConnectStep or cls is WaitStep:
            continue
        packet = step.packet
        if type(packet) is codec.Raw or getattr(packet, "packet_id", None) == 0:
            model.input_conformant = False
        if cls is SubscribeStep:
            routed.clear()
            model.subscriber_sessions.add(step.session)
            if topics.validate_filter(step.filter):
                model.input_conformant = False
            else:
                subscriptions.append(step.filter)
                if not any(c in step.filter for c in b"+#"):
                    model.exact_filters.setdefault(step.session, []).append(
                        (step.filter, step.packet_id))
        elif cls is UnsubscribeStep:
            routed.clear()
            subscriptions = [f for f in subscriptions if f != step.filter]
            if topics.validate_filter(step.filter):
                model.input_conformant = False
        elif type(packet) is codec.Publish:
            if packet.topic not in checked_topics:
                checked_topics.add(packet.topic)
                if topics.validate_topic(packet.topic):
                    model.input_conformant = False
            if packet.dup and not packet.qos:
                model.input_conformant = False
            identity = (packet.topic, packet.payload)
            identity = identities.setdefault(identity, identity)
            opened = open_qos2.setdefault(step.session, set())
            if packet.qos == 2 and packet.packet_id in opened:
                model.suppressed.append(identity)
                continue
            if packet.qos == 2 and packet.packet_id is not None:
                opened.add(packet.packet_id)
                seen_qos2.setdefault(step.session, set()).add(packet.packet_id)
            matched = routed.get(packet.topic)
            if matched is None:
                matched = routed[packet.topic] = any(
                    topics.match_filter(f, packet.topic) for f in subscriptions)
            if matched:
                model.expected.append(identity)
                if packet.qos == 0:
                    model.qos0_identities.add(identity)
        elif type(packet) is codec.Pubrel:
            opened = open_qos2.setdefault(step.session, set())
            opened.discard(packet.packet_id)
            if packet.packet_id not in seen_qos2.get(step.session, set()):
                model.orphan_pubrels.append((step.session, packet.packet_id))
    return model


# --- parsing ---------------------------------------------------------------

_ABSENT = object()


class _Obj:
    """A JSON object being consumed key by key; leftovers are errors.

    It consumes ``raw`` itself: the parse owns every decoded value.  Every
    text it keeps and every bytes value it makes is first looked up in
    ``shared``, the parse's memo of each distinct one: a script repeats
    few topics and payloads many times, so the parsed document costs in
    proportion to the distinct values, not to the steps.
    """

    __slots__ = ("raw", "path", "shared")

    def __init__(self, raw: object, path: str, shared: dict):
        if not isinstance(raw, dict):
            raise SchemaError(path, f"expected an object, got {type(raw).__name__}")
        self.raw = raw
        self.path = path
        self.shared = shared

    def sub(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def take(self, key: str, kind: type, default: object = ...) -> object:
        value = self.raw.pop(key, _ABSENT)
        if type(value) is kind:
            return value
        if value is _ABSENT:
            if default is ...:
                raise SchemaError(self.path, f"missing required key {key!r}")
            return default
        if kind is int and isinstance(value, bool):
            raise SchemaError(self.sub(key), "expected an integer, got a boolean")
        if not isinstance(value, kind):
            raise SchemaError(self.sub(key), f"expected {kind.__name__}, got {type(value).__name__}")
        return value

    def take_text(self, key: str, default: object = ...) -> str:
        """A string that encodes as UTF-8: JSON can escape a lone surrogate."""
        value = self.take(key, str, default)
        if value is None:
            return value
        if not value.isascii():  # type: ignore[attr-defined]
            _utf8(value, self.sub(key))  # type: ignore[arg-type]
        return self.shared.setdefault(value, value)

    def take_int(self, key: str, low: int, high: int, default: object = ...) -> int | None:
        value = self.take(key, int, default)
        if value is None:
            return None
        if not low <= value <= high:  # type: ignore[operator]
            raise SchemaError(self.sub(key), f"{value} outside {low}..{high}")
        return value  # type: ignore[return-value]

    def take_bytes(self, key: str, hex_key: str, default: object = ...) -> object:
        """Accept either a UTF-8 text key or its ``hex_key`` twin, '<key>_hex'."""
        if key in self.raw and hex_key in self.raw:
            raise SchemaError(self.path, f"{key!r} and {hex_key!r} are mutually exclusive")
        if hex_key in self.raw:
            try:
                data = binascii.unhexlify(self.take(hex_key, str))  # type: ignore[arg-type]
            except (binascii.Error, ValueError):
                raise SchemaError(self.sub(hex_key), "invalid hex string") from None
        elif key in self.raw:
            data = _utf8(self.take(key, str), self.sub(key))  # type: ignore[arg-type]
        elif default is ...:
            raise SchemaError(self.path, f"missing required key {key!r} (or {hex_key!r})")
        else:
            return default
        return self.shared.setdefault(data, data)

    def finish(self) -> None:
        if self.raw:
            key = sorted(self.raw)[0]
            raise SchemaError(self.sub(key), "unknown key")


def _utf8(text: str, path: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError(path, "not encodable as UTF-8 (a lone surrogate)") from None


# Inclusive bounds of every integer field of a step or session, by name.
_INT_BOUNDS = {"qos": (0, 2), "packet_id": (0, 65_535), "offset": (0, 2**31),
               "remove": (0, 2**31), "ms": (0, MAX_WAIT_MS), "count": (1, MAX_REPEAT),
               "keep_alive": (0, 65_535), "protocol_level": (0, 255)}


def _field_spec(cls: type) -> tuple:
    """(reader, reader arguments) per document field, in declaration order.

    The annotation picks the reader; a field without a default is a
    required key.  A step's ``session`` and a repeat's ``steps`` are read
    apart.
    """
    spec = []
    for f in fields(cls):
        if f.name in ("session", "steps"):
            continue
        default = ... if f.default is MISSING else f.default
        if f.type.startswith("bytes"):
            spec.append((_Obj.take_bytes, (f.name, f"{f.name}_hex", default)))
        elif f.type == "bool":
            spec.append((_Obj.take, (f.name, bool, default)))
        elif f.name in _INT_BOUNDS:
            spec.append((_Obj.take_int, (f.name, *_INT_BOUNDS[f.name], default)))
        else:
            spec.append((_Obj.take_text, (f.name, default)))
    return tuple(spec)


_SESSION_FIELDS = _field_spec(SessionDecl)
# Action -> (the step class, or a send step's packet class; its field spec).
_STEP_FIELDS = {action: (cls, _field_spec(cls)) for action, cls in (
    *((cls.action, cls) for cls in get_args(Step) if cls is not SendStep),
    *_SEND_PACKETS.items())}


def _parse_session(raw: object, path: str, shared: dict) -> SessionDecl:
    obj = _Obj(raw, path, shared)
    decl = SessionDecl(*[read(obj, *args) for read, args in _SESSION_FIELDS])
    obj.finish()
    return decl


def _parse_step(raw: object, path: str, depth: int, shared: dict) -> Step:
    obj = _Obj(raw, path, shared)
    session = obj.take_text("session")
    action = obj.take("action", str)
    entry = _STEP_FIELDS.get(action)  # type: ignore[arg-type]
    if entry is None:
        raise SchemaError(obj.sub("action"), f"unknown action {action!r}")
    cls, spec = entry
    if cls is RepeatStep and depth >= 4:
        raise SchemaError(path, "repeat nesting deeper than 4")
    values = [read(obj, *args) for read, args in spec]
    if cls is RepeatStep:
        inner = tuple(_parse_step(item, f"{path}.steps[{i}]", depth + 1, shared)
                      for i, item in enumerate(obj.take("steps", list)))  # type: ignore[arg-type]
        if not inner:
            raise SchemaError(obj.sub("steps"), "repeat with no steps")
        values.append(inner)
    step = SendStep(session, cls(*values)) if cls in _SEND_ACTION else cls(session, *values)
    if cls is codec.Publish:
        qos, packet_id = step.packet.qos, step.packet.packet_id
        if qos > 0 and packet_id is None:
            raise SchemaError(path, f"publish with qos {qos} requires an explicit packet_id")
        if qos == 0 and packet_id is not None:
            raise SchemaError(obj.sub("packet_id"), "not representable on a qos 0 publish; "
                                                    "use splice_next to force one")
    obj.finish()
    return step


# Characters read from a document file at a time.
READ_CHUNK = 1 << 16
_WHITESPACE = json.decoder.WHITESPACE.match


class _NotJson(Exception):
    """The walk met text that ``json.loads`` rejects, or a top level that is no object."""


def _read(handle: TextIO, size: int = -1) -> str:
    try:
        return handle.read(size)
    except UnicodeDecodeError:
        raise SchemaError("", "not valid UTF-8") from None


class _Window:
    """The unread part of a document: all of a text, or what was read of a file so far."""

    __slots__ = ("text", "pos", "handle", "scan")

    def __init__(self, text: str, handle: TextIO | None):
        self.text, self.pos, self.handle = text, 0, handle
        # What ``json.loads`` runs on each value; it raises StopIteration
        # where no value starts.
        self.scan = json.JSONDecoder().scan_once

    def more(self) -> bool:
        """Read on, keeping the unread part; False at the end.

        While one value does not fit, each read is as long as the unread
        part, so the window doubles and a long value is read in linear time.
        """
        if self.handle is None:
            return False
        rest = self.text[self.pos:]
        chunk = _read(self.handle, max(READ_CHUNK, len(rest)))
        if not chunk:
            self.handle = None
            return False
        self.text, self.pos = rest + chunk, 0
        return True

    def peek(self) -> str:
        """The next character after JSON whitespace, '' at the end."""
        while True:
            self.pos = _WHITESPACE(self.text, self.pos).end()
            if self.pos < len(self.text):
                return self.text[self.pos]
            if not self.more():
                return ""

    def value(self) -> object:
        """Decode the JSON value after JSON whitespace."""
        while True:
            text = self.text
            start = _WHITESPACE(text, self.pos).end()
            try:
                value, end = self.scan(text, start)
            except (StopIteration, json.JSONDecodeError):
                if self.more():
                    continue
                raise _NotJson from None
            # A number may go on past the window: "1" of "12", "1." of
            # "1.5", "1e+" of "1e+5".
            if len(text) - end <= 2 and type(value) in (int, float) and self.more():
                continue
            self.pos = end
            return value

    def at_end(self, char: str) -> bool:
        """Step past ``char``, the end of an object or array, and return True,
        or past a ',' and return False."""
        found = self.peek()
        if found != char and found != ",":
            raise _NotJson
        self.pos += 1
        return found == char

    def members(self, shared: dict) -> dict[str, object]:
        """The top-level object's members, the last value of each key.

        A steps array is built a step at a time as it is read (``_Steps``).
        """
        if self.peek() != "{":
            raise _NotJson
        self.pos += 1
        members: dict[str, object] = {}
        if self.peek() == "}":
            self.pos += 1
        else:
            while True:
                if self.peek() != '"':
                    raise _NotJson
                key = self.value()
                if self.peek() != ":":
                    raise _NotJson
                self.pos += 1
                if key == "steps" and self.peek() == "[":
                    members[key] = _build_steps(self.items(), shared)
                else:
                    members[key] = self.value()
                if self.at_end("}"):
                    break
        if self.peek():
            raise _NotJson  # data after the object
        return members

    def items(self) -> Iterator[object]:
        """Each element of the array at the next character, decoded as it is read."""
        self.pos += 1
        if self.peek() == "]":
            self.pos += 1
            return
        while True:
            yield self.value()
            if self.at_end("]"):
                return


class _Steps(list):
    """A document's steps, built as its array is read; the first fault ends the building."""

    fault: ExperimentError | None = None


def _build_steps(items: Iterable[object], shared: dict) -> _Steps:
    """Every item is read, so a JSON fault after a faulty step still wins."""
    steps = _Steps()
    for i, item in enumerate(items):
        if steps.fault is None:
            try:
                steps.append(_parse_step(item, f"steps[{i}]", 0, shared))
            except ExperimentError as exc:
                steps.fault = exc
                steps.clear()
    return steps


def parse_experiment(source: str | TextIO) -> Experiment:
    """Parse a JSON experiment document, given as its text or as an open text file.

    A file that can seek is read READ_CHUNK characters at a time and each
    step is built as its element is read, so neither the text nor its
    JSON tree is ever whole; one that cannot is read whole first.  On a
    JSON fault, or a top level that is no object, the text is read again
    from the start and given to ``json.loads``: a JSON error is the one it
    raises on the whole text, and it wins over any schema fault.
    """
    shared: dict = {}
    if isinstance(source, str):
        text, handle = source, None
    elif source.seekable():
        text, handle, start = "", source, source.tell()
    else:
        text, handle = _read(source), None
    try:
        members: object = _Window(text, handle).members(shared)
    except _NotJson:
        if handle is not None:
            handle.seek(start)
            text = _read(handle)
        try:
            members = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError("", f"not valid JSON: {exc}") from None
    return _build(members, shared)


def _build(members: object, shared: dict) -> Experiment:
    """The experiment of a top-level object; its faults, then its sessions', then its steps'."""
    obj = _Obj(members, "", shared)
    name = obj.take_text("name")
    if not name:
        raise SchemaError("name", "must not be empty")
    # The name is a file name in the trace directory, never a path.
    if name in (".", "..") or any(c in name for c in "/\\\0"):
        raise SchemaError("name", "must not be '.' or '..' or contain '/', '\\' or NUL")
    description = obj.take_text("description", "")
    settle_ms = obj.take_int("settle_ms", 0, MAX_SETTLE_MS, DEFAULT_SETTLE_MS)
    sessions_raw = obj.take("sessions", list)
    steps = obj.take("steps", list)
    obj.finish()

    sessions = []
    seen = set()
    for i, item in enumerate(sessions_raw):  # type: ignore[union-attr]
        decl = _parse_session(item, f"sessions[{i}]", shared)
        if decl.id in seen:
            raise DuplicateSessionError(decl.id)
        seen.add(decl.id)
        sessions.append(decl)
    if not sessions:
        raise SchemaError("sessions", "at least one session is required")

    if steps.fault is not None:  # type: ignore[union-attr]
        raise steps.fault  # type: ignore[union-attr]
    experiment = Experiment(name=name, description=description,
                            sessions=tuple(sessions), steps=tuple(steps),  # type: ignore[arg-type]
                            settle_ms=settle_ms)
    _check_session_refs(experiment)
    if _expanded_count(experiment.steps) > MAX_EXPANDED_STEPS:
        raise SchemaError("steps", f"expansion exceeds {MAX_EXPANDED_STEPS} steps")
    return experiment


def _expanded_count(steps: tuple[Step, ...]) -> int:
    """How many primitive steps ``expand_steps`` makes of ``steps``, counted, not built."""
    return sum(step.count * _expanded_count(step.steps) if type(step) is RepeatStep else 1
               for step in steps)


def _check_session_refs(experiment: Experiment) -> None:
    declared = {decl.id for decl in experiment.sessions}

    def walk(steps: tuple[Step, ...], prefix: str) -> None:
        for i, step in enumerate(steps):
            if step.session not in declared:
                raise UnknownSessionRefError(f"{prefix}[{i}]", step.session)
            if type(step) is RepeatStep:
                walk(step.steps, f"{prefix}[{i}].steps")

    walk(experiment.steps, "steps")


# --- rendering -------------------------------------------------------------

def _render_fields(obj: object, out: dict[str, object]) -> dict[str, object]:
    """A step's, packet's or session's fields in order; bytes as ``_hex``, None left out."""
    for f in fields(obj):  # type: ignore[arg-type]
        value = getattr(obj, f.name)
        if f.name == "steps":
            out["steps"] = [_render_step(inner) for inner in value]
        elif isinstance(value, bytes):
            out[f"{f.name}_hex"] = value.hex()
        elif value is not None:
            out[f.name] = value
    return out


def _render_step(step: Step) -> dict[str, object]:
    out = {"session": step.session, "action": step.action}
    return _render_fields(step.packet if type(step) is SendStep else step, out)


def render_experiment(experiment: Experiment) -> str:
    """Serialize to the canonical document form.

    Byte-valued fields always render as their ``_hex`` spelling and
    defaults are written out, so rendering is stable and re-parsing
    yields an equal Experiment.
    """
    doc = {
        "name": experiment.name,
        "description": experiment.description,
        "settle_ms": experiment.settle_ms,
        "sessions": [_render_fields(decl, {}) for decl in experiment.sessions],
        "steps": [_render_step(step) for step in experiment.steps],
    }
    return json.dumps(doc, indent=2)
