"""Scripted experiment model and its JSON document format.

An experiment declares sessions (each one broker connection) and an
ordered step list.  Sessions connect lazily: the runner opens the
socket and sends CONNECT right before the first step that needs the
wire, so a document doesn't have to script the connect unless it wants
to splice or reorder it.  Nothing is auto-assigned: packet ids appear
on the wire exactly as scripted, because reusing them is the point.

Parsing is total over arbitrary JSON text: any input either yields an
Experiment or raises one of the typed errors below with a path to the
offending element.

``model_script`` replays a script through a conformant-broker model to
say which deliveries it should cause, and ``scripted_input_conformant``
says whether the script stays inside the protocol; the runner settles
on them and the oracle judges by them.
"""

from __future__ import annotations

import binascii
import functools
import json
from dataclasses import MISSING, dataclass, fields
from typing import get_args

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
class DisconnectStep:
    session: str
    action = "disconnect"


@dataclass(frozen=True, slots=True)
class SubscribeStep:
    session: str
    filter: bytes
    qos: int = 0
    packet_id: int = 1
    action = "subscribe"


@dataclass(frozen=True, slots=True)
class UnsubscribeStep:
    session: str
    filter: bytes
    packet_id: int = 1
    action = "unsubscribe"


@dataclass(frozen=True, slots=True)
class PublishStep:
    session: str
    topic: bytes
    payload: bytes = b""
    qos: int = 0
    packet_id: int | None = None
    retain: bool = False
    dup: bool = False
    action = "publish"


@dataclass(frozen=True, slots=True)
class PubackStep:
    session: str
    packet_id: int
    action = "puback"


@dataclass(frozen=True, slots=True)
class PubrecStep:
    session: str
    packet_id: int
    action = "pubrec"


@dataclass(frozen=True, slots=True)
class PubrelStep:
    session: str
    packet_id: int
    action = "pubrel"


@dataclass(frozen=True, slots=True)
class PubcompStep:
    session: str
    packet_id: int
    action = "pubcomp"


@dataclass(frozen=True, slots=True)
class PingreqStep:
    session: str
    action = "pingreq"


@dataclass(frozen=True, slots=True)
class SendRawStep:
    session: str
    data: bytes
    action = "send_raw"


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
    ConnectStep | DisconnectStep | SubscribeStep | UnsubscribeStep | PublishStep
    | PubackStep | PubrecStep | PubrelStep | PubcompStep | PingreqStep
    | SendRawStep | SpliceNextStep | WaitStep | RepeatStep
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

    def session(self, session_id: str) -> SessionDecl:
        for decl in self.sessions:
            if decl.id == session_id:
                return decl
        raise KeyError(session_id)

    # The runner's settle and the oracle both need these; computed once
    # per instance (a frozen dataclass still has a __dict__ to cache in).
    @functools.cached_property
    def model(self) -> ScriptModel:
        return model_script(self)

    @functools.cached_property
    def input_conformant(self) -> bool:
        return scripted_input_conformant(self)


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


def model_script(experiment: Experiment) -> ScriptModel:
    """Replay the script through a conformant broker model.

    Every occurrence of an identity in the model is one shared tuple.
    """
    model = ScriptModel(expected=[], suppressed=[], qos0_identities=set(),
                        orphan_pubrels=[], subscriber_sessions=set(),
                        exact_filters={})
    subscriptions: list[bytes] = []
    routed: dict[bytes, bool] = {}  # topic -> matches a subscription; reset when they change
    identities: dict[Identity, Identity] = {}
    open_qos2: dict[str, set[int]] = {}
    seen_qos2: dict[str, set[int]] = {}
    for step in expand_steps(experiment):
        cls = type(step)
        if cls is SubscribeStep:
            routed.clear()
            model.subscriber_sessions.add(step.session)
            if not topics.validate_filter(step.filter):
                subscriptions.append(step.filter)
                if not any(c in step.filter for c in b"+#"):
                    model.exact_filters.setdefault(step.session, []).append(
                        (step.filter, step.packet_id))
        elif cls is UnsubscribeStep:
            routed.clear()
            subscriptions = [f for f in subscriptions if f != step.filter]
        elif cls is PublishStep:
            identity = (step.topic, step.payload)
            identity = identities.setdefault(identity, identity)
            opened = open_qos2.setdefault(step.session, set())
            if step.qos == 2 and step.packet_id in opened:
                model.suppressed.append(identity)
                continue
            if step.qos == 2 and step.packet_id is not None:
                opened.add(step.packet_id)
                seen_qos2.setdefault(step.session, set()).add(step.packet_id)
            matched = routed.get(step.topic)
            if matched is None:
                matched = routed[step.topic] = any(
                    topics.match_filter(f, step.topic) for f in subscriptions)
            if matched:
                model.expected.append(identity)
                if step.qos == 0:
                    model.qos0_identities.add(identity)
        elif cls is PubrelStep:
            opened = open_qos2.setdefault(step.session, set())
            opened.discard(step.packet_id)
            if step.packet_id not in seen_qos2.get(step.session, set()):
                model.orphan_pubrels.append((step.session, step.packet_id))
    return model


def scripted_input_conformant(experiment: Experiment) -> bool:
    """Stateless scan: does the script stay inside the protocol?

    Deliberate packet-id reuse is NOT flagged: whether that is legal is
    exactly the question the QoS scenarios pose, and flagging it would
    reclassify their disconnect responses as conformant.
    """
    for decl in experiment.sessions:
        if decl.protocol_name != b"MQTT" or decl.protocol_level != 4:
            return False
        try:
            decl.client_id.decode("utf-8")
        except UnicodeDecodeError:
            return False
    valid_topics: set[bytes] = set()
    for step in expand_steps(experiment):
        cls = type(step)
        if cls is SendRawStep or cls is SpliceNextStep:
            return False
        if cls is SubscribeStep or cls is UnsubscribeStep:
            if topics.validate_filter(step.filter):
                return False
        elif cls is PublishStep:
            if step.topic not in valid_topics:
                if topics.validate_topic(step.topic):
                    return False
                valid_topics.add(step.topic)
            if step.packet_id == 0:
                return False
        elif cls in (PubackStep, PubrecStep, PubrelStep, PubcompStep) and step.packet_id == 0:
            return False
    return True


# --- parsing ---------------------------------------------------------------

class _Shared:
    """One parse's memos: each distinct string value, and its bytes, built once.

    A script repeats few topics and payloads many times; sharing them
    makes the parsed document cost in proportion to the distinct values,
    not to the steps.
    """

    def __init__(self) -> None:
        self.strings: dict[str, str] = {}
        self.text: dict[str, bytes] = {}  # a text field's value -> its UTF-8
        self.hex: dict[str, bytes] = {}   # a '_hex' field's value -> its bytes

    def object_hook(self, obj: dict) -> dict:
        """For ``json.loads``: point every string value at its first copy."""
        strings = self.strings
        for key, value in obj.items():
            if type(value) is str:
                obj[key] = strings.setdefault(value, value)
        return obj


_ABSENT = object()


class _Obj:
    """A JSON object being consumed key by key; leftovers are errors.

    It consumes ``raw`` itself: the parse owns the ``json.loads`` tree.
    """

    __slots__ = ("raw", "path", "shared")

    def __init__(self, raw: object, path: str, shared: _Shared):
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
        if value is not None and not value.isascii():  # type: ignore[attr-defined]
            _utf8(value, self.sub(key))  # type: ignore[arg-type]
        return value  # type: ignore[return-value]

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
            text = self.take(hex_key, str)
            data = self.shared.hex.get(text)  # type: ignore[arg-type]
            if data is None:
                try:
                    data = self.shared.hex[text] = binascii.unhexlify(text)  # type: ignore[index]
                except (binascii.Error, ValueError):
                    raise SchemaError(self.sub(hex_key), "invalid hex string") from None
            return data
        if key in self.raw:
            text = self.take(key, str)
            data = self.shared.text.get(text)  # type: ignore[arg-type]
            if data is None:
                data = self.shared.text[text] = _utf8(text, self.sub(key))  # type: ignore[index,arg-type]
            return data
        if default is ...:
            raise SchemaError(self.path, f"missing required key {key!r} (or {hex_key!r})")
        return default

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
_STEP_FIELDS = {cls.action: (cls, _field_spec(cls)) for cls in get_args(Step)}


def _parse_session(raw: object, path: str, shared: _Shared) -> SessionDecl:
    obj = _Obj(raw, path, shared)
    decl = SessionDecl(*[read(obj, *args) for read, args in _SESSION_FIELDS])
    obj.finish()
    return decl


def _parse_step(raw: object, path: str, depth: int, shared: _Shared) -> Step:
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
    step = cls(session, *values)
    if cls is PublishStep:
        if step.qos > 0 and step.packet_id is None:
            raise SchemaError(path, f"publish with qos {step.qos} requires an explicit packet_id")
        if step.qos == 0 and step.packet_id is not None:
            raise SchemaError(obj.sub("packet_id"), "not representable on a qos 0 publish; "
                                                    "use splice_next to force one")
    obj.finish()
    return step


def parse_experiment(text: str) -> Experiment:
    """Parse a JSON experiment document."""
    shared = _Shared()
    try:
        raw = json.loads(text, object_hook=shared.object_hook)
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"not valid JSON: {exc}") from None
    del text  # frees the document while the steps are built, unless the caller holds it
    obj = _Obj(raw, "", shared)
    name = obj.take_text("name")
    if not name:
        raise SchemaError("name", "must not be empty")
    # The name is a file name in the trace directory, never a path.
    if name in (".", "..") or any(c in name for c in "/\\\0"):
        raise SchemaError("name", "must not be '.' or '..' or contain '/', '\\' or NUL")
    description = obj.take_text("description", "")
    settle_ms = obj.take_int("settle_ms", 0, MAX_SETTLE_MS, DEFAULT_SETTLE_MS)
    sessions_raw = obj.take("sessions", list)
    steps_raw = obj.take("steps", list)
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

    # Each raw step is dropped once built, so the tree and the steps are
    # never both whole.
    steps = []
    for i, item in enumerate(steps_raw):  # type: ignore[arg-type]
        steps_raw[i] = None  # type: ignore[index]
        steps.append(_parse_step(item, f"steps[{i}]", 0, shared))

    experiment = Experiment(name=name, description=description,
                            sessions=tuple(sessions), steps=tuple(steps),
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
            path = f"{prefix}[{i}]"
            if step.session not in declared:
                raise UnknownSessionRefError(path, step.session)
            if type(step) is RepeatStep:
                walk(step.steps, f"{path}.steps")

    walk(experiment.steps, "steps")


# --- rendering -------------------------------------------------------------

def _render_fields(obj: object, out: dict[str, object]) -> dict[str, object]:
    """A step's or session's fields in order; bytes as ``_hex``, None left out."""
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
    return _render_fields(step, {"session": step.session, "action": step.action})


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
