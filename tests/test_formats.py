"""Pinned formats of the packet and step model.

The codec's wire bytes, the trace JSON of every packet class, the step
document's errors and its rendered form, and the corpus hash are what
other tools and earlier traces depend on.  However packets and steps are
modelled inside, every value pinned here must stay byte for byte.
"""

import json
import random

import pytest

from mqttprobe import corpus
from mqttprobe.codec import (
    Connack,
    Connect,
    Disconnect,
    Pingreq,
    Pingresp,
    Puback,
    Pubcomp,
    Publish,
    Pubrec,
    Pubrel,
    Raw,
    Suback,
    Subscribe,
    Unsuback,
    Unsubscribe,
    Will,
    encode_packet,
)
from mqttprobe.experiment import (
    RepeatStep,
    SchemaError,
    expand_steps,
    parse_experiment,
    render_experiment,
)
from mqttprobe.trace import (
    K_RECEIVED,
    OUTCOME_COMPLETED,
    Trace,
    TraceEvent,
    packet_from_obj,
    trace_lines,
)
from genpackets import random_valid_packet
from reference_forms import packet_to_obj

# (packet, wire hex, trace JSON line); Raw is emitted verbatim.
PACKETS = [
    (Connect(client_id=b"c\xff1", clean_session=False, keep_alive=30,
             will=Will(topic=b"w/t", payload=b"bye", qos=1, retain=True),
             username=b"u", password=b"p\x00w"),
     '102100044d51545404ec001e000363ff310003772f7400036279650001750003700077',
     '{"type": "connect", "client_id": "63ff31", "clean_session": false, '
     '"keep_alive": 30, "protocol_name": "4d515454", "protocol_level": 4, '
     '"will": {"topic": "772f74", "payload": "627965", "qos": 1, "retain": true}, '
     '"username": "75", "password": "700077"}'),
    (Connect(),
     '100c00044d5154540402003c0000',
     '{"type": "connect", "client_id": "", "clean_session": true, "keep_alive": 60, '
     '"protocol_name": "4d515454", "protocol_level": 4, "will": null, '
     '"username": null, "password": null}'),
    (Connack(session_present=True, return_code=5),
     '20020105',
     '{"type": "connack", "session_present": true, "return_code": 5}'),
    (Publish(topic=b"a/b", payload=b"hi"),
     '30070003612f626869',
     '{"type": "publish", "topic": "612f62", "payload": "6869", "qos": 0, '
     '"packet_id": null, "retain": false, "dup": false}'),
    (Publish(topic=b"a/b", payload=b"\x00\x01", qos=2, packet_id=7,
             retain=True, dup=True),
     '3d090003612f6200070001',
     '{"type": "publish", "topic": "612f62", "payload": "0001", "qos": 2, '
     '"packet_id": 7, "retain": true, "dup": true}'),
    (Puback(packet_id=1),
     '40020001',
     '{"type": "puback", "packet_id": 1}'),
    (Pubrec(packet_id=2),
     '50020002',
     '{"type": "pubrec", "packet_id": 2}'),
    (Pubrel(packet_id=3),
     '62020003',
     '{"type": "pubrel", "packet_id": 3}'),
    (Pubcomp(packet_id=0xFFFF),
     '7002ffff',
     '{"type": "pubcomp", "packet_id": 65535}'),
    (Subscribe(packet_id=10, entries=((b"a/#", 0), (b"+/b", 2))),
     '820e000a0003612f230000032b2f6202',
     '{"type": "subscribe", "packet_id": 10, "entries": [["612f23", 0], ["2b2f62", 2]]}'),
    (Suback(packet_id=10, return_codes=(0, 1, 2, 0x80)),
     '9006000a00010280',
     '{"type": "suback", "packet_id": 10, "return_codes": [0, 1, 2, 128]}'),
    (Unsubscribe(packet_id=11, filters=(b"a/#", b"x")),
     'a20a000b0003612f23000178',
     '{"type": "unsubscribe", "packet_id": 11, "filters": ["612f23", "78"]}'),
    (Unsuback(packet_id=11),
     'b002000b',
     '{"type": "unsuback", "packet_id": 11}'),
    (Pingreq(),
     'c000',
     '{"type": "pingreq"}'),
    (Pingresp(),
     'd000',
     '{"type": "pingresp"}'),
    (Disconnect(),
     'e000',
     '{"type": "disconnect"}'),
    (Raw(data=b"\xde\xad"),
     'dead',
     '{"type": "raw", "data": "dead"}'),
]


@pytest.mark.parametrize("packet,wire,line", PACKETS,
                         ids=[type(p).__name__ for p, *_ in PACKETS])
def test_packet_wire_and_trace_json_are_pinned(packet, wire, line):
    assert encode_packet(packet).hex() == wire
    assert json.dumps(packet_to_obj(packet)) == line
    assert packet_from_obj(json.loads(line)) == packet
    event = TraceEvent(seq=3, t_ms=1.5, session="f", kind=K_RECEIVED,
                       packet=packet, raw=bytes.fromhex(wire))
    trace = Trace("pinned", "synthetic:1883", 0.0, (event,), OUTCOME_COMPLETED)
    assert list(trace_lines(trace))[1] == (
        '{"record": "event", "seq": 3, "t_ms": 1.5, "session": "f", '
        f'"kind": "received", "packet": {line}, "raw": "{wire}", '
        '"annotations": [], "auto": false, "note": ""}\n')


def test_every_packet_class_is_pinned():
    classes = {type(p) for p, *_ in PACKETS}
    assert len(classes) == 15


@pytest.mark.parametrize("seed", range(10))
def test_trace_json_round_trips_random_packets(seed):
    rng = random.Random(seed)
    for _ in range(200):
        packet = random_valid_packet(rng)
        obj = json.loads(json.dumps(packet_to_obj(packet)))
        assert packet_from_obj(obj) == packet


def test_trace_json_without_optional_keys_still_loads():
    # Traces written before these keys were always present omit them.
    connect = {"type": "connect", "client_id": "66", "clean_session": True,
               "keep_alive": 60, "protocol_name": "4d515454", "protocol_level": 4}
    assert packet_from_obj(connect) == Connect(client_id=b"f")
    publish = {"type": "publish", "topic": "74", "payload": "", "qos": 0,
               "retain": False, "dup": False}
    assert packet_from_obj(publish) == Publish(topic=b"t")


def test_unknown_trace_packet_type_is_rejected():
    with pytest.raises(ValueError):
        packet_from_obj({"type": "auth"})


# --- step documents ----------------------------------------------------------

ALL_ACTIONS = {
    "name": "all-actions",
    "description": "every step action once",
    "settle_ms": 250,
    "sessions": [
        {"id": "a", "client_id_hex": "ff00", "clean_session": False,
         "keep_alive": 30, "username": "u", "password": "pw", "auto_ack": False},
        {"id": "b", "protocol_name": "MQIsdp", "protocol_level": 3},
    ],
    "steps": [
        {"session": "a", "action": "connect"},
        {"session": "a", "action": "subscribe", "filter": "t/#", "qos": 2,
         "packet_id": 1},
        {"session": "a", "action": "unsubscribe", "filter_hex": "742f78",
         "packet_id": 2},
        {"session": "a", "action": "splice_next", "offset": 2, "remove": 1,
         "insert_hex": "ff", "fixup_length": False},
        {"session": "b", "action": "publish", "topic": "t/1", "payload_hex": "00ff",
         "qos": 2, "packet_id": 9, "retain": True, "dup": True},
        {"session": "b", "action": "publish", "topic": "t/0"},
        {"session": "a", "action": "puback", "packet_id": 1},
        {"session": "a", "action": "pubrec", "packet_id": 2},
        {"session": "b", "action": "pubrel", "packet_id": 9},
        {"session": "a", "action": "pubcomp", "packet_id": 3},
        {"session": "b", "action": "pingreq"},
        {"session": "b", "action": "send_raw", "data_hex": "c000"},
        {"session": "a", "action": "wait", "ms": 10},
        {"session": "b", "action": "repeat", "count": 3, "steps": [
            {"session": "b", "action": "splice_next", "insert": "x"},
            {"session": "b", "action": "repeat", "count": 2, "steps": [
                {"session": "a", "action": "publish", "topic": "t/r",
                 "payload": "r", "qos": 1, "packet_id": 5}]}]},
        {"session": "a", "action": "disconnect"},
    ],
}

ALL_ACTIONS_RENDERED = """\
{
  "name": "all-actions",
  "description": "every step action once",
  "settle_ms": 250,
  "sessions": [
    {
      "id": "a",
      "client_id_hex": "ff00",
      "clean_session": false,
      "keep_alive": 30,
      "protocol_name_hex": "4d515454",
      "protocol_level": 4,
      "auto_ack": false,
      "username": "u",
      "password": "pw"
    },
    {
      "id": "b",
      "client_id_hex": "62",
      "clean_session": true,
      "keep_alive": 60,
      "protocol_name_hex": "4d5149736470",
      "protocol_level": 3,
      "auto_ack": true
    }
  ],
  "steps": [
    {
      "session": "a",
      "action": "connect"
    },
    {
      "session": "a",
      "action": "subscribe",
      "filter_hex": "742f23",
      "qos": 2,
      "packet_id": 1
    },
    {
      "session": "a",
      "action": "unsubscribe",
      "filter_hex": "742f78",
      "packet_id": 2
    },
    {
      "session": "a",
      "action": "splice_next",
      "offset": 2,
      "remove": 1,
      "insert_hex": "ff",
      "fixup_length": false
    },
    {
      "session": "b",
      "action": "publish",
      "topic_hex": "742f31",
      "payload_hex": "00ff",
      "qos": 2,
      "packet_id": 9,
      "retain": true,
      "dup": true
    },
    {
      "session": "b",
      "action": "publish",
      "topic_hex": "742f30",
      "payload_hex": "",
      "qos": 0,
      "retain": false,
      "dup": false
    },
    {
      "session": "a",
      "action": "puback",
      "packet_id": 1
    },
    {
      "session": "a",
      "action": "pubrec",
      "packet_id": 2
    },
    {
      "session": "b",
      "action": "pubrel",
      "packet_id": 9
    },
    {
      "session": "a",
      "action": "pubcomp",
      "packet_id": 3
    },
    {
      "session": "b",
      "action": "pingreq"
    },
    {
      "session": "b",
      "action": "send_raw",
      "data_hex": "c000"
    },
    {
      "session": "a",
      "action": "wait",
      "ms": 10
    },
    {
      "session": "b",
      "action": "repeat",
      "count": 3,
      "steps": [
        {
          "session": "b",
          "action": "splice_next",
          "offset": 0,
          "remove": 0,
          "insert_hex": "78",
          "fixup_length": true
        },
        {
          "session": "b",
          "action": "repeat",
          "count": 2,
          "steps": [
            {
              "session": "a",
              "action": "publish",
              "topic_hex": "742f72",
              "payload_hex": "72",
              "qos": 1,
              "packet_id": 5,
              "retain": false,
              "dup": false
            }
          ]
        }
      ]
    },
    {
      "session": "a",
      "action": "disconnect"
    }
  ]
}"""

# repr of the packet each wire step sends, in expanded order.
ALL_ACTIONS_PACKETS = [
    "Subscribe(packet_id=1, entries=((b't/#', 2),))",
    "Unsubscribe(packet_id=2, filters=(b't/x',))",
    "Publish(topic=b't/1', payload=b'\\x00\\xff', qos=2, packet_id=9, retain=True, "
     'dup=True)',
    "Publish(topic=b't/0', payload=b'', qos=0, packet_id=None, retain=False, "
     'dup=False)',
    'Puback(packet_id=1)',
    'Pubrec(packet_id=2)',
    'Pubrel(packet_id=9)',
    'Pubcomp(packet_id=3)',
    'Pingreq()',
    "Raw(data=b'\\xc0\\x00')",
    "Publish(topic=b't/r', payload=b'r', qos=1, packet_id=5, retain=False, dup=False)",
    "Publish(topic=b't/r', payload=b'r', qos=1, packet_id=5, retain=False, dup=False)",
    "Publish(topic=b't/r', payload=b'r', qos=1, packet_id=5, retain=False, dup=False)",
    "Publish(topic=b't/r', payload=b'r', qos=1, packet_id=5, retain=False, dup=False)",
    "Publish(topic=b't/r', payload=b'r', qos=1, packet_id=5, retain=False, dup=False)",
    "Publish(topic=b't/r', payload=b'r', qos=1, packet_id=5, retain=False, dup=False)",
    'Disconnect()',
]


def test_every_action_renders_as_pinned_and_parses_back():
    parsed = parse_experiment(json.dumps(ALL_ACTIONS))
    actions = set()

    def walk(steps):
        for step in steps:
            actions.add(step.action)
            if isinstance(step, RepeatStep):
                walk(step.steps)

    walk(parsed.steps)
    assert len(actions) == 14
    rendered = render_experiment(parsed)
    assert rendered == ALL_ACTIONS_RENDERED
    assert parse_experiment(rendered) == parsed


def test_every_wire_step_sends_its_pinned_packet():
    steps = expand_steps(parse_experiment(json.dumps(ALL_ACTIONS)))
    sent = [repr(step.packet) for step in steps
            if step.action not in ("connect", "splice_next", "wait")]
    assert sent == ALL_ACTIONS_PACKETS


# One valid step per action, and one valid session; each error case
# breaks exactly one thing in them.
BASE_STEPS = {
    "connect": {},
    "disconnect": {},
    "pingreq": {},
    "subscribe": {"filter": "a/+", "qos": 1, "packet_id": 2},
    "unsubscribe": {"filter": "a/+", "packet_id": 2},
    "publish": {"topic": "a/b", "payload": "p", "qos": 1, "packet_id": 3,
                "retain": False, "dup": False},
    "puback": {"packet_id": 4},
    "pubrec": {"packet_id": 4},
    "pubrel": {"packet_id": 4},
    "pubcomp": {"packet_id": 4},
    "send_raw": {"data_hex": "c000"},
    "splice_next": {"offset": 1, "remove": 0, "insert_hex": "00",
                    "fixup_length": True},
    "wait": {"ms": 5},
    "repeat": {"count": 2, "steps": [{"session": "f", "action": "pingreq"}]},
}
BASE_SESSION = {"id": "f", "client_id": "c", "clean_session": False, "keep_alive": 30,
                "protocol_name": "MQTT", "protocol_level": 4, "username": "u",
                "password": "p", "auto_ack": False}

_OUT_OF_RANGE = {"qos": (-1, 3), "packet_id": (-1, 65_536),
                 "offset": (-1, 2**31 + 1), "remove": (-1, 2**31 + 1),
                 "ms": (-1, 60_001), "count": (0, 100_001),
                 "keep_alive": (-1, 65_536), "protocol_level": (-1, 256)}


def _wrong_types(value):
    if isinstance(value, bool):
        return [1, "true"]
    if isinstance(value, int):
        return ["1", True, None]
    if isinstance(value, str):
        return [5, None]
    return ["x"]


def _faults(prefix, full):
    for key in full:
        if key == "action":
            continue
        doc = dict(full)
        del doc[key]
        yield f"{prefix}-missing-{key}", doc
        for k, wrong in enumerate(_wrong_types(full[key])):
            yield f"{prefix}-type-{key}-{k}", {**full, key: wrong}
    for key, values in _OUT_OF_RANGE.items():
        if key in full:
            for k, value in enumerate(values):
                yield f"{prefix}-range-{key}-{k}", {**full, key: value}
    yield f"{prefix}-unknown", {**full, "bogus": 1}


def _step_cases():
    for action, base in BASE_STEPS.items():
        yield from _faults(action, {"session": "f", "action": action, **base})
    yield "no-action", {"session": "f"}
    yield "unknown-action", {"session": "f", "action": "auth"}
    yield "twin-conflict", {"session": "f", "action": "subscribe", "filter": "a",
                            "filter_hex": "61"}
    yield "bad-hex", {"session": "f", "action": "send_raw", "data_hex": "zz"}
    yield "publish-qos0-with-id", {"session": "f", "action": "publish", "topic": "t",
                                   "packet_id": 1}
    yield "publish-qos2-without-id", {"session": "f", "action": "publish", "topic": "t",
                                      "qos": 2}
    yield "repeat-empty", {"session": "f", "action": "repeat", "count": 1, "steps": []}
    nested = {"session": "f", "action": "puback", "packet_id": 70_000}
    for _ in range(5):
        nested = {"session": "f", "action": "repeat", "count": 1, "steps": [nested]}
    yield "repeat-too-deep", nested
    yield "repeat-inner-fault", {"session": "f", "action": "repeat", "count": 1,
                                 "steps": [{"session": "f", "action": "wait", "ms": 1},
                                           {"session": "f", "action": "puback"}]}


def _documents():
    for case_id, step in _step_cases():
        yield case_id, {"name": "t", "sessions": [{"id": "f"}], "steps": [step]}
    for case_id, session in _faults("decl", BASE_SESSION):
        yield case_id, {"name": "t", "sessions": [session], "steps": []}
    yield "decl-twin-conflict", {"name": "t", "sessions": [
        {"id": "f", "client_id": "a", "client_id_hex": "61"}], "steps": []}
    yield "decl-bad-hex", {"name": "t", "sessions": [
        {"id": "f", "protocol_name_hex": "4"}], "steps": []}
    yield "no-sessions", {"name": "t", "sessions": [], "steps": []}


DOCUMENTS = dict(_documents())

# case id -> (SchemaError.path, SchemaError.reason), or when the document
# is accepted, the rendered form of its step (or else its session).
OUTCOMES = {
    'connect-missing-session': ('steps[0]', "missing required key 'session'"),
    'connect-type-session-0': ('steps[0].session', 'expected str, got int'),
    'connect-type-session-1': ('steps[0].session', 'expected str, got NoneType'),
    'connect-unknown': ('steps[0].bogus', 'unknown key'),
    'disconnect-missing-session': ('steps[0]', "missing required key 'session'"),
    'disconnect-type-session-0': ('steps[0].session', 'expected str, got int'),
    'disconnect-type-session-1': ('steps[0].session', 'expected str, got NoneType'),
    'disconnect-unknown': ('steps[0].bogus', 'unknown key'),
    'pingreq-missing-session': ('steps[0]', "missing required key 'session'"),
    'pingreq-type-session-0': ('steps[0].session', 'expected str, got int'),
    'pingreq-type-session-1': ('steps[0].session', 'expected str, got NoneType'),
    'pingreq-unknown': ('steps[0].bogus', 'unknown key'),
    'subscribe-missing-session': ('steps[0]', "missing required key 'session'"),
    'subscribe-type-session-0': ('steps[0].session', 'expected str, got int'),
    'subscribe-type-session-1': ('steps[0].session', 'expected str, got NoneType'),
    'subscribe-missing-filter': ('steps[0]', "missing required key 'filter' (or 'filter_hex')"),
    'subscribe-type-filter-0': ('steps[0].filter', 'expected str, got int'),
    'subscribe-type-filter-1': ('steps[0].filter', 'expected str, got NoneType'),
    'subscribe-missing-qos': '{"session": "f", "action": "subscribe", "filter_hex": "612f2b", "qos": 0, "packet_id": 2}',
    'subscribe-type-qos-0': ('steps[0].qos', 'expected int, got str'),
    'subscribe-type-qos-1': ('steps[0].qos', 'expected an integer, got a boolean'),
    'subscribe-type-qos-2': ('steps[0].qos', 'expected int, got NoneType'),
    'subscribe-missing-packet_id': '{"session": "f", "action": "subscribe", "filter_hex": "612f2b", "qos": 1, "packet_id": 1}',
    'subscribe-type-packet_id-0': ('steps[0].packet_id', 'expected int, got str'),
    'subscribe-type-packet_id-1': ('steps[0].packet_id', 'expected an integer, got a boolean'),
    'subscribe-type-packet_id-2': ('steps[0].packet_id', 'expected int, got NoneType'),
    'subscribe-range-qos-0': ('steps[0].qos', '-1 outside 0..2'),
    'subscribe-range-qos-1': ('steps[0].qos', '3 outside 0..2'),
    'subscribe-range-packet_id-0': ('steps[0].packet_id', '-1 outside 0..65535'),
    'subscribe-range-packet_id-1': ('steps[0].packet_id', '65536 outside 0..65535'),
    'subscribe-unknown': ('steps[0].bogus', 'unknown key'),
    'unsubscribe-missing-session': ('steps[0]', "missing required key 'session'"),
    'unsubscribe-type-session-0': ('steps[0].session', 'expected str, got int'),
    'unsubscribe-type-session-1': ('steps[0].session', 'expected str, got NoneType'),
    'unsubscribe-missing-filter': ('steps[0]', "missing required key 'filter' (or 'filter_hex')"),
    'unsubscribe-type-filter-0': ('steps[0].filter', 'expected str, got int'),
    'unsubscribe-type-filter-1': ('steps[0].filter', 'expected str, got NoneType'),
    'unsubscribe-missing-packet_id': '{"session": "f", "action": "unsubscribe", "filter_hex": "612f2b", "packet_id": 1}',
    'unsubscribe-type-packet_id-0': ('steps[0].packet_id', 'expected int, got str'),
    'unsubscribe-type-packet_id-1': ('steps[0].packet_id', 'expected an integer, got a boolean'),
    'unsubscribe-type-packet_id-2': ('steps[0].packet_id', 'expected int, got NoneType'),
    'unsubscribe-range-packet_id-0': ('steps[0].packet_id', '-1 outside 0..65535'),
    'unsubscribe-range-packet_id-1': ('steps[0].packet_id', '65536 outside 0..65535'),
    'unsubscribe-unknown': ('steps[0].bogus', 'unknown key'),
    'publish-missing-session': ('steps[0]', "missing required key 'session'"),
    'publish-type-session-0': ('steps[0].session', 'expected str, got int'),
    'publish-type-session-1': ('steps[0].session', 'expected str, got NoneType'),
    'publish-missing-topic': ('steps[0]', "missing required key 'topic' (or 'topic_hex')"),
    'publish-type-topic-0': ('steps[0].topic', 'expected str, got int'),
    'publish-type-topic-1': ('steps[0].topic', 'expected str, got NoneType'),
    'publish-missing-payload': '{"session": "f", "action": "publish", "topic_hex": "612f62", "payload_hex": "", "qos": 1, "packet_id": 3, "retain": false, "dup": false}',
    'publish-type-payload-0': ('steps[0].payload', 'expected str, got int'),
    'publish-type-payload-1': ('steps[0].payload', 'expected str, got NoneType'),
    'publish-missing-qos': ('steps[0].packet_id', 'not representable on a qos 0 publish; use splice_next to force one'),
    'publish-type-qos-0': ('steps[0].qos', 'expected int, got str'),
    'publish-type-qos-1': ('steps[0].qos', 'expected an integer, got a boolean'),
    'publish-type-qos-2': ('steps[0].qos', 'expected int, got NoneType'),
    'publish-missing-packet_id': ('steps[0]', 'publish with qos 1 requires an explicit packet_id'),
    'publish-type-packet_id-0': ('steps[0].packet_id', 'expected int, got str'),
    'publish-type-packet_id-1': ('steps[0].packet_id', 'expected an integer, got a boolean'),
    'publish-type-packet_id-2': ('steps[0].packet_id', 'expected int, got NoneType'),
    'publish-missing-retain': '{"session": "f", "action": "publish", "topic_hex": "612f62", "payload_hex": "70", "qos": 1, "packet_id": 3, "retain": false, "dup": false}',
    'publish-type-retain-0': ('steps[0].retain', 'expected bool, got int'),
    'publish-type-retain-1': ('steps[0].retain', 'expected bool, got str'),
    'publish-missing-dup': '{"session": "f", "action": "publish", "topic_hex": "612f62", "payload_hex": "70", "qos": 1, "packet_id": 3, "retain": false, "dup": false}',
    'publish-type-dup-0': ('steps[0].dup', 'expected bool, got int'),
    'publish-type-dup-1': ('steps[0].dup', 'expected bool, got str'),
    'publish-range-qos-0': ('steps[0].qos', '-1 outside 0..2'),
    'publish-range-qos-1': ('steps[0].qos', '3 outside 0..2'),
    'publish-range-packet_id-0': ('steps[0].packet_id', '-1 outside 0..65535'),
    'publish-range-packet_id-1': ('steps[0].packet_id', '65536 outside 0..65535'),
    'publish-unknown': ('steps[0].bogus', 'unknown key'),
    'puback-missing-session': ('steps[0]', "missing required key 'session'"),
    'puback-type-session-0': ('steps[0].session', 'expected str, got int'),
    'puback-type-session-1': ('steps[0].session', 'expected str, got NoneType'),
    'puback-missing-packet_id': ('steps[0]', "missing required key 'packet_id'"),
    'puback-type-packet_id-0': ('steps[0].packet_id', 'expected int, got str'),
    'puback-type-packet_id-1': ('steps[0].packet_id', 'expected an integer, got a boolean'),
    'puback-type-packet_id-2': ('steps[0].packet_id', 'expected int, got NoneType'),
    'puback-range-packet_id-0': ('steps[0].packet_id', '-1 outside 0..65535'),
    'puback-range-packet_id-1': ('steps[0].packet_id', '65536 outside 0..65535'),
    'puback-unknown': ('steps[0].bogus', 'unknown key'),
    'pubrec-missing-session': ('steps[0]', "missing required key 'session'"),
    'pubrec-type-session-0': ('steps[0].session', 'expected str, got int'),
    'pubrec-type-session-1': ('steps[0].session', 'expected str, got NoneType'),
    'pubrec-missing-packet_id': ('steps[0]', "missing required key 'packet_id'"),
    'pubrec-type-packet_id-0': ('steps[0].packet_id', 'expected int, got str'),
    'pubrec-type-packet_id-1': ('steps[0].packet_id', 'expected an integer, got a boolean'),
    'pubrec-type-packet_id-2': ('steps[0].packet_id', 'expected int, got NoneType'),
    'pubrec-range-packet_id-0': ('steps[0].packet_id', '-1 outside 0..65535'),
    'pubrec-range-packet_id-1': ('steps[0].packet_id', '65536 outside 0..65535'),
    'pubrec-unknown': ('steps[0].bogus', 'unknown key'),
    'pubrel-missing-session': ('steps[0]', "missing required key 'session'"),
    'pubrel-type-session-0': ('steps[0].session', 'expected str, got int'),
    'pubrel-type-session-1': ('steps[0].session', 'expected str, got NoneType'),
    'pubrel-missing-packet_id': ('steps[0]', "missing required key 'packet_id'"),
    'pubrel-type-packet_id-0': ('steps[0].packet_id', 'expected int, got str'),
    'pubrel-type-packet_id-1': ('steps[0].packet_id', 'expected an integer, got a boolean'),
    'pubrel-type-packet_id-2': ('steps[0].packet_id', 'expected int, got NoneType'),
    'pubrel-range-packet_id-0': ('steps[0].packet_id', '-1 outside 0..65535'),
    'pubrel-range-packet_id-1': ('steps[0].packet_id', '65536 outside 0..65535'),
    'pubrel-unknown': ('steps[0].bogus', 'unknown key'),
    'pubcomp-missing-session': ('steps[0]', "missing required key 'session'"),
    'pubcomp-type-session-0': ('steps[0].session', 'expected str, got int'),
    'pubcomp-type-session-1': ('steps[0].session', 'expected str, got NoneType'),
    'pubcomp-missing-packet_id': ('steps[0]', "missing required key 'packet_id'"),
    'pubcomp-type-packet_id-0': ('steps[0].packet_id', 'expected int, got str'),
    'pubcomp-type-packet_id-1': ('steps[0].packet_id', 'expected an integer, got a boolean'),
    'pubcomp-type-packet_id-2': ('steps[0].packet_id', 'expected int, got NoneType'),
    'pubcomp-range-packet_id-0': ('steps[0].packet_id', '-1 outside 0..65535'),
    'pubcomp-range-packet_id-1': ('steps[0].packet_id', '65536 outside 0..65535'),
    'pubcomp-unknown': ('steps[0].bogus', 'unknown key'),
    'send_raw-missing-session': ('steps[0]', "missing required key 'session'"),
    'send_raw-type-session-0': ('steps[0].session', 'expected str, got int'),
    'send_raw-type-session-1': ('steps[0].session', 'expected str, got NoneType'),
    'send_raw-missing-data_hex': ('steps[0]', "missing required key 'data' (or 'data_hex')"),
    'send_raw-type-data_hex-0': ('steps[0].data_hex', 'expected str, got int'),
    'send_raw-type-data_hex-1': ('steps[0].data_hex', 'expected str, got NoneType'),
    'send_raw-unknown': ('steps[0].bogus', 'unknown key'),
    'splice_next-missing-session': ('steps[0]', "missing required key 'session'"),
    'splice_next-type-session-0': ('steps[0].session', 'expected str, got int'),
    'splice_next-type-session-1': ('steps[0].session', 'expected str, got NoneType'),
    'splice_next-missing-offset': '{"session": "f", "action": "splice_next", "offset": 0, "remove": 0, "insert_hex": "00", "fixup_length": true}',
    'splice_next-type-offset-0': ('steps[0].offset', 'expected int, got str'),
    'splice_next-type-offset-1': ('steps[0].offset', 'expected an integer, got a boolean'),
    'splice_next-type-offset-2': ('steps[0].offset', 'expected int, got NoneType'),
    'splice_next-missing-remove': '{"session": "f", "action": "splice_next", "offset": 1, "remove": 0, "insert_hex": "00", "fixup_length": true}',
    'splice_next-type-remove-0': ('steps[0].remove', 'expected int, got str'),
    'splice_next-type-remove-1': ('steps[0].remove', 'expected an integer, got a boolean'),
    'splice_next-type-remove-2': ('steps[0].remove', 'expected int, got NoneType'),
    'splice_next-missing-insert_hex': '{"session": "f", "action": "splice_next", "offset": 1, "remove": 0, "insert_hex": "", "fixup_length": true}',
    'splice_next-type-insert_hex-0': ('steps[0].insert_hex', 'expected str, got int'),
    'splice_next-type-insert_hex-1': ('steps[0].insert_hex', 'expected str, got NoneType'),
    'splice_next-missing-fixup_length': '{"session": "f", "action": "splice_next", "offset": 1, "remove": 0, "insert_hex": "00", "fixup_length": true}',
    'splice_next-type-fixup_length-0': ('steps[0].fixup_length', 'expected bool, got int'),
    'splice_next-type-fixup_length-1': ('steps[0].fixup_length', 'expected bool, got str'),
    'splice_next-range-offset-0': ('steps[0].offset', '-1 outside 0..2147483648'),
    'splice_next-range-offset-1': ('steps[0].offset', '2147483649 outside 0..2147483648'),
    'splice_next-range-remove-0': ('steps[0].remove', '-1 outside 0..2147483648'),
    'splice_next-range-remove-1': ('steps[0].remove', '2147483649 outside 0..2147483648'),
    'splice_next-unknown': ('steps[0].bogus', 'unknown key'),
    'wait-missing-session': ('steps[0]', "missing required key 'session'"),
    'wait-type-session-0': ('steps[0].session', 'expected str, got int'),
    'wait-type-session-1': ('steps[0].session', 'expected str, got NoneType'),
    'wait-missing-ms': ('steps[0]', "missing required key 'ms'"),
    'wait-type-ms-0': ('steps[0].ms', 'expected int, got str'),
    'wait-type-ms-1': ('steps[0].ms', 'expected an integer, got a boolean'),
    'wait-type-ms-2': ('steps[0].ms', 'expected int, got NoneType'),
    'wait-range-ms-0': ('steps[0].ms', '-1 outside 0..60000'),
    'wait-range-ms-1': ('steps[0].ms', '60001 outside 0..60000'),
    'wait-unknown': ('steps[0].bogus', 'unknown key'),
    'repeat-missing-session': ('steps[0]', "missing required key 'session'"),
    'repeat-type-session-0': ('steps[0].session', 'expected str, got int'),
    'repeat-type-session-1': ('steps[0].session', 'expected str, got NoneType'),
    'repeat-missing-count': ('steps[0]', "missing required key 'count'"),
    'repeat-type-count-0': ('steps[0].count', 'expected int, got str'),
    'repeat-type-count-1': ('steps[0].count', 'expected an integer, got a boolean'),
    'repeat-type-count-2': ('steps[0].count', 'expected int, got NoneType'),
    'repeat-missing-steps': ('steps[0]', "missing required key 'steps'"),
    'repeat-type-steps-0': ('steps[0].steps', 'expected list, got str'),
    'repeat-range-count-0': ('steps[0].count', '0 outside 1..100000'),
    'repeat-range-count-1': ('steps[0].count', '100001 outside 1..100000'),
    'repeat-unknown': ('steps[0].bogus', 'unknown key'),
    'no-action': ('steps[0]', "missing required key 'action'"),
    'unknown-action': ('steps[0].action', "unknown action 'auth'"),
    'twin-conflict': ('steps[0]', "'filter' and 'filter_hex' are mutually exclusive"),
    'bad-hex': ('steps[0].data_hex', 'invalid hex string'),
    'publish-qos0-with-id': ('steps[0].packet_id', 'not representable on a qos 0 publish; use splice_next to force one'),
    'publish-qos2-without-id': ('steps[0]', 'publish with qos 2 requires an explicit packet_id'),
    'repeat-empty': ('steps[0].steps', 'repeat with no steps'),
    'repeat-too-deep': ('steps[0].steps[0].steps[0].steps[0].steps[0]', 'repeat nesting deeper than 4'),
    'repeat-inner-fault': ('steps[0].steps[1]', "missing required key 'packet_id'"),
    'decl-missing-id': ('sessions[0]', "missing required key 'id'"),
    'decl-type-id-0': ('sessions[0].id', 'expected str, got int'),
    'decl-type-id-1': ('sessions[0].id', 'expected str, got NoneType'),
    'decl-missing-client_id': '{"id": "f", "client_id_hex": "66", "clean_session": false, "keep_alive": 30, "protocol_name_hex": "4d515454", "protocol_level": 4, "auto_ack": false, "username": "u", "password": "p"}',
    'decl-type-client_id-0': ('sessions[0].client_id', 'expected str, got int'),
    'decl-type-client_id-1': ('sessions[0].client_id', 'expected str, got NoneType'),
    'decl-missing-clean_session': '{"id": "f", "client_id_hex": "63", "clean_session": true, "keep_alive": 30, "protocol_name_hex": "4d515454", "protocol_level": 4, "auto_ack": false, "username": "u", "password": "p"}',
    'decl-type-clean_session-0': ('sessions[0].clean_session', 'expected bool, got int'),
    'decl-type-clean_session-1': ('sessions[0].clean_session', 'expected bool, got str'),
    'decl-missing-keep_alive': '{"id": "f", "client_id_hex": "63", "clean_session": false, "keep_alive": 60, "protocol_name_hex": "4d515454", "protocol_level": 4, "auto_ack": false, "username": "u", "password": "p"}',
    'decl-type-keep_alive-0': ('sessions[0].keep_alive', 'expected int, got str'),
    'decl-type-keep_alive-1': ('sessions[0].keep_alive', 'expected an integer, got a boolean'),
    'decl-type-keep_alive-2': ('sessions[0].keep_alive', 'expected int, got NoneType'),
    'decl-missing-protocol_name': '{"id": "f", "client_id_hex": "63", "clean_session": false, "keep_alive": 30, "protocol_name_hex": "4d515454", "protocol_level": 4, "auto_ack": false, "username": "u", "password": "p"}',
    'decl-type-protocol_name-0': ('sessions[0].protocol_name', 'expected str, got int'),
    'decl-type-protocol_name-1': ('sessions[0].protocol_name', 'expected str, got NoneType'),
    'decl-missing-protocol_level': '{"id": "f", "client_id_hex": "63", "clean_session": false, "keep_alive": 30, "protocol_name_hex": "4d515454", "protocol_level": 4, "auto_ack": false, "username": "u", "password": "p"}',
    'decl-type-protocol_level-0': ('sessions[0].protocol_level', 'expected int, got str'),
    'decl-type-protocol_level-1': ('sessions[0].protocol_level', 'expected an integer, got a boolean'),
    'decl-type-protocol_level-2': ('sessions[0].protocol_level', 'expected int, got NoneType'),
    'decl-missing-username': '{"id": "f", "client_id_hex": "63", "clean_session": false, "keep_alive": 30, "protocol_name_hex": "4d515454", "protocol_level": 4, "auto_ack": false, "password": "p"}',
    'decl-type-username-0': ('sessions[0].username', 'expected str, got int'),
    'decl-type-username-1': ('sessions[0].username', 'expected str, got NoneType'),
    'decl-missing-password': '{"id": "f", "client_id_hex": "63", "clean_session": false, "keep_alive": 30, "protocol_name_hex": "4d515454", "protocol_level": 4, "auto_ack": false, "username": "u"}',
    'decl-type-password-0': ('sessions[0].password', 'expected str, got int'),
    'decl-type-password-1': ('sessions[0].password', 'expected str, got NoneType'),
    'decl-missing-auto_ack': '{"id": "f", "client_id_hex": "63", "clean_session": false, "keep_alive": 30, "protocol_name_hex": "4d515454", "protocol_level": 4, "auto_ack": true, "username": "u", "password": "p"}',
    'decl-type-auto_ack-0': ('sessions[0].auto_ack', 'expected bool, got int'),
    'decl-type-auto_ack-1': ('sessions[0].auto_ack', 'expected bool, got str'),
    'decl-range-keep_alive-0': ('sessions[0].keep_alive', '-1 outside 0..65535'),
    'decl-range-keep_alive-1': ('sessions[0].keep_alive', '65536 outside 0..65535'),
    'decl-range-protocol_level-0': ('sessions[0].protocol_level', '-1 outside 0..255'),
    'decl-range-protocol_level-1': ('sessions[0].protocol_level', '256 outside 0..255'),
    'decl-unknown': ('sessions[0].bogus', 'unknown key'),
    'decl-twin-conflict': ('sessions[0]', "'client_id' and 'client_id_hex' are mutually exclusive"),
    'decl-bad-hex': ('sessions[0].protocol_name_hex', 'invalid hex string'),
    'no-sessions': ('sessions', 'at least one session is required'),
}


def _rendered_entry(text):
    doc = json.loads(render_experiment(parse_experiment(text)))
    return json.dumps(doc["steps"][0] if doc["steps"] else doc["sessions"][0])


@pytest.mark.parametrize("case_id", list(DOCUMENTS))
def test_document_errors_are_pinned(case_id):
    text = json.dumps(DOCUMENTS[case_id])
    expected = OUTCOMES[case_id]
    if isinstance(expected, str):
        assert _rendered_entry(text) == expected
        return
    with pytest.raises(SchemaError) as exc:
        parse_experiment(text)
    assert (exc.value.path, exc.value.reason) == expected


def test_corpus_hash_is_pinned():
    assert corpus.corpus_hash() == (
        "be16e513dd19d419e026a21811943d068ec398c7190f4932066c7fc1ff8e1a11")
