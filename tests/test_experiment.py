"""Scenario DSL: parsing, validation, rendering, expansion."""

import dataclasses
import io
import json
import os
import tracemalloc
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqttprobe import codec, corpus
from mqttprobe import experiment as exp_mod
from mqttprobe.codec import Publish, Pubrel
from mqttprobe.experiment import (
    ConnectStep,
    DuplicateSessionError,
    Experiment,
    ExperimentError,
    SchemaError,
    SendStep,
    SessionDecl,
    SubscribeStep,
    UnknownSessionRefError,
    UnsubscribeStep,
    WaitStep,
    expand_steps,
    model_script,
    parse_experiment,
    render_experiment,
)


def _doc(**overrides):
    base = {
        "name": "t",
        "sessions": [{"id": "f"}],
        "steps": [],
    }
    base.update(overrides)
    return json.dumps(base)


def test_parse_qos_scenario_shape():
    doc = _doc(steps=[
        {"action": "subscribe", "session": "f", "filter": "fuzz/a",
         "qos": 2, "packet_id": 1},
        {"action": "publish", "session": "f", "topic": "fuzz/a",
         "payload": "one", "qos": 2, "packet_id": 1},
        {"action": "publish", "session": "f", "topic": "fuzz/a",
         "payload": "two", "qos": 1, "packet_id": 1},
        {"action": "pubrel", "session": "f", "packet_id": 1},
    ])
    parsed = parse_experiment(doc)
    assert [type(s) for s in parsed.steps] == [
        SubscribeStep, SendStep, SendStep, SendStep]
    assert [type(s.packet) for s in parsed.steps[1:]] == [Publish, Publish, Pubrel]
    assert parsed.steps[1].packet.payload == b"one"
    assert parsed.steps[2].packet.qos == 1


def test_session_defaults():
    parsed = parse_experiment(_doc())
    decl = parsed.sessions[0]
    assert decl == SessionDecl(id="f")
    assert decl.client_id == b"f"
    assert decl.clean_session is True
    assert decl.keep_alive == 60
    assert decl.protocol_name == b"MQTT"
    assert decl.protocol_level == 4
    assert decl.auto_ack is True
    assert parsed.settle_ms == exp_mod.DEFAULT_SETTLE_MS


def test_hex_and_text_field_twins():
    a = parse_experiment(_doc(steps=[
        {"action": "publish", "session": "f", "topic": "a", "payload": "hi"}]))
    b = parse_experiment(_doc(steps=[
        {"action": "publish", "session": "f", "topic_hex": "61",
         "payload_hex": "6869"}]))
    assert a.steps == b.steps


def test_unknown_session_reference():
    with pytest.raises(UnknownSessionRefError):
        parse_experiment(_doc(steps=[
            {"action": "publish", "session": "ghost", "topic": "a"}]))


def test_duplicate_session_declaration():
    with pytest.raises(DuplicateSessionError):
        parse_experiment(_doc(sessions=[{"id": "f"}, {"id": "f"}]))


@pytest.mark.parametrize("name", ["../escape", "/abs/x", "a/b", "a\\b", "nul\x00", ".", ".."])
def test_name_that_is_not_a_plain_file_name_is_rejected(name):
    # The name becomes the trace file name inside --traces DIR.
    with pytest.raises(SchemaError) as exc:
        parse_experiment(_doc(name=name))
    assert exc.value.path == "name"


@pytest.mark.parametrize("name", ["a.b", "...", ".hidden", "é 中"])
def test_name_with_dots_or_non_ascii_is_accepted(name):
    assert parse_experiment(_doc(name=name)).name == name


def test_unknown_key_names_its_path():
    with pytest.raises(SchemaError) as exc:
        parse_experiment(_doc(steps=[
            {"action": "publish", "session": "f", "topic": "a", "bogus": 1}]))
    assert "steps[0].bogus" in str(exc.value)


def test_qos0_publish_with_packet_id_rejected():
    with pytest.raises(SchemaError) as exc:
        parse_experiment(_doc(steps=[
            {"action": "publish", "session": "f", "topic": "a",
             "qos": 0, "packet_id": 3}]))
    assert "splice_next" in str(exc.value)


def test_qos1_publish_requires_packet_id():
    with pytest.raises(SchemaError):
        parse_experiment(_doc(steps=[
            {"action": "publish", "session": "f", "topic": "a", "qos": 1}]))


def test_wait_and_repeat_bounds():
    with pytest.raises(SchemaError):
        parse_experiment(_doc(steps=[
            {"action": "wait", "session": "f",
             "ms": exp_mod.MAX_WAIT_MS + 1}]))
    with pytest.raises(SchemaError):
        parse_experiment(_doc(steps=[
            {"action": "repeat", "session": "f",
             "count": exp_mod.MAX_REPEAT + 1,
             "steps": [{"action": "pingreq", "session": "f"}]}]))


def test_expansion_cap():
    doc = _doc(steps=[
        {"action": "repeat", "session": "f", "count": 100_000,
         "steps": [{"action": "pingreq", "session": "f"},
                   {"action": "pingreq", "session": "f"},
                   {"action": "pingreq", "session": "f"},
                   {"action": "pingreq", "session": "f"},
                   {"action": "pingreq", "session": "f"},
                   {"action": "pingreq", "session": "f"},
                   {"action": "pingreq", "session": "f"},
                   {"action": "pingreq", "session": "f"},
                   {"action": "pingreq", "session": "f"},
                   {"action": "pingreq", "session": "f"},
                   {"action": "pingreq", "session": "f"}]}])
    # The cap is enforced as early as parse time.
    with pytest.raises(ExperimentError):
        expand_steps(parse_experiment(doc))


def _repeat(count, steps):
    return {"action": "repeat", "session": "f", "count": count, "steps": steps}


_PING = {"action": "pingreq", "session": "f"}


@pytest.mark.parametrize("steps, fits", [
    ([_repeat(100_000, [_PING] * 10)], True),  # exactly MAX_EXPANDED_STEPS
    ([_repeat(100_000, [_PING] * 10), _PING], False),
    # 10**15 steps if it were built.
    ([_repeat(100_000, [_repeat(100_000, [_repeat(100_000, [_PING])])])], False),
])
def test_expansion_cap_counts_steps_without_building_them(steps, fits):
    if fits:
        parse_experiment(_doc(steps=steps))
        return
    with pytest.raises(SchemaError) as exc:
        parse_experiment(_doc(steps=steps))
    assert (exc.value.path, exc.value.reason) == (
        "steps", f"expansion exceeds {exp_mod.MAX_EXPANDED_STEPS} steps")


def test_an_undeclared_session_is_reported_before_the_expansion_cap():
    steps = [_repeat(100_000, [_PING] * 11), {"action": "pingreq", "session": "nobody"}]
    with pytest.raises(UnknownSessionRefError):
        parse_experiment(_doc(steps=steps))


def _repeated_document(payloads: int, repeats: int) -> str:
    """Publishes of ``payloads`` distinct payloads on 8 topics, each ``repeats`` times."""
    steps = [{"session": "f", "action": "subscribe", "filter": "r/#", "qos": 1}]
    for i in range(payloads * repeats):
        k = i % payloads
        steps.append({"session": "f", "action": "publish", "topic": f"r/{k % 8}",
                      "payload": f"{k:04d}-" + "x" * (100 + k), "qos": 1,
                      "packet_id": i % 65_535 + 1})
    return _doc(steps=steps)


def test_repeated_topics_and_payloads_are_parsed_once():
    text = _repeated_document(200, 50)
    parsed = parse_experiment(text)
    publishes = [s.packet for s in parsed.steps if isinstance(s, SendStep)]
    assert len(publishes) == 10_000
    for first, again in zip(publishes, publishes[200:]):
        assert again.payload is first.payload and again.topic is first.topic
    # The model's identities are shared the same way.
    expected = model_script(parsed).expected
    assert len(expected) == 10_000 and len({id(i) for i in expected}) == 200

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = parse_experiment(text)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # A tree of one string per occurrence, and bytes per step, peaked at 3.7x.
    assert peak <= 1.5 * len(text), (peak, len(text))
    # What the document keeps: a 48-byte step and its 80-byte packet per
    # publish, and each distinct payload once, 1.60 MiB (1.22 MiB when a
    # publish step held the packet's fields itself).
    assert len(kept.steps) == 10_001 and held <= 1.7 * 2**20, held


def test_steps_and_sessions_have_no_instance_dict():
    parsed = parse_experiment(_doc(steps=[
        {"action": "repeat", "session": "f", "count": 2,
         "steps": [{"action": "publish", "session": "f", "topic": "a"}]}]))
    send = parsed.steps[0].steps[0]
    packets = (codec.Connect(will=codec.Will(b"w", b"")), codec.Connack(), codec.Publish(b"t"),
               *(cls(1) for cls in (codec.Puback, codec.Pubrec, codec.Pubrel, codec.Pubcomp,
                                    codec.Subscribe, codec.Suback, codec.Unsubscribe,
                                    codec.Unsuback)),
               codec.Pingreq(), codec.Pingresp(), codec.Disconnect(), codec.Raw(b""))
    assert {type(p) for p in packets} == set(get_args(codec.Packet))
    for obj in (parsed.sessions[0], parsed.steps[0], send, send.packet, *packets,
                packets[0].will):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        # A field-less class (PINGREQ) is frozen against any name.
        name = dataclasses.fields(obj)[0].name if dataclasses.fields(obj) else "g"
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, "g")
        # A name that is no field is refused too; on a class with fields,
        # CPython's slots rebuild raises TypeError there.
        with pytest.raises((AttributeError, TypeError)):
            setattr(obj, "g", "g")
        assert not hasattr(obj, "g"), type(obj).__name__


def test_model_routes_each_topic_by_the_subscriptions_in_force():
    # A topic's match is remembered only until the subscriptions change.
    experiment = Experiment(name="t", sessions=(SessionDecl(id="f"),), steps=(
        SendStep("f", Publish(b"a/b", b"0")),
        SubscribeStep("f", b"a/+"),
        SendStep("f", Publish(b"a/b", b"1")),
        SendStep("f", Publish(b"a/c", b"2")),
        SubscribeStep("f", b"a/#/bad"),  # refused: changes nothing
        SendStep("f", Publish(b"a/b", b"3")),
        UnsubscribeStep("f", b"a/+"),
        SendStep("f", Publish(b"a/b", b"4")),
        SubscribeStep("f", b"a/b"),
        SendStep("f", Publish(b"a/b", b"5")),
        SendStep("f", Publish(b"a/c", b"6")),
    ))
    assert model_script(experiment).expected == [
        (b"a/b", b"1"), (b"a/c", b"2"), (b"a/b", b"3"), (b"a/b", b"5")]


def test_a_bad_topic_is_nonconformant_after_good_ones():
    steps = tuple(SendStep("f", Publish(b"a/b", bytes([i]))) for i in range(3))
    experiment = Experiment(name="t", sessions=(SessionDecl(id="f"),), steps=steps)
    assert model_script(experiment).input_conformant
    bad = dataclasses.replace(experiment, steps=steps + (SendStep("f", Publish(b"a/+", b"x")),))
    assert not model_script(bad).input_conformant


def test_repeat_expansion_count():
    doc = _doc(steps=[
        {"action": "repeat", "session": "f", "count": 7,
         "steps": [{"action": "publish", "session": "f", "topic": "a"}]}])
    assert len(expand_steps(parse_experiment(doc))) == 7


def test_corpus_round_trip():
    for entry in corpus.builtin_corpus():
        rendered = render_experiment(entry)
        assert parse_experiment(rendered) == entry
        # Rendering is a fixed point.
        assert render_experiment(parse_experiment(rendered)) == rendered


def test_corpus_names_unique_and_nonempty():
    names = [e.name for e in corpus.builtin_corpus()]
    assert len(names) == len(set(names))
    assert all(names)


def test_flood_expands_to_full_count():
    flood = corpus.corpus_by_name()["qos0_flood"]
    publishes = [s for s in expand_steps(flood)
                 if isinstance(s, SendStep) and isinstance(s.packet, Publish)]
    assert len(publishes) == corpus.FLOOD_COUNT


def test_connect_step_explicit():
    doc = _doc(steps=[
        {"action": "splice_next", "session": "f", "offset": 0,
         "remove": 1, "insert_hex": "11"},
        {"action": "connect", "session": "f"},
    ])
    parsed = parse_experiment(doc)
    assert isinstance(parsed.steps[1], ConnectStep)
    assert parsed.steps[0].insert == b"\x11"


def test_top_level_not_object():
    with pytest.raises(ExperimentError):
        parse_experiment("[1, 2]")
    with pytest.raises(ExperimentError):
        parse_experiment("not json at all {")


# The ci profile (tests/conftest.py) raises the default, and with it these sweeps.
SWEEP = settings(max_examples=max(300, settings.default.max_examples))
# Any character, and often a lone surrogate: JSON can escape one, and a str can hold one.
_TEXT = st.characters(exclude_categories=()) \
    | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=())


def _assert_usable(parsed):
    """Every text of a parsed experiment encodes: as a file name, a report, a CONNECT."""
    assert isinstance(parsed, Experiment)
    parsed.name.encode("utf-8")
    parsed.description.encode("utf-8")
    for decl in parsed.sessions:
        decl.to_connect()
    render_experiment(parsed).encode("utf-8")


@given(st.text(_TEXT, max_size=200))
@SWEEP
def test_parser_totality_on_text(blob):
    try:
        parsed = parse_experiment(blob)
    except ExperimentError:
        return
    _assert_usable(parsed)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(_TEXT, max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(_TEXT, max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(_JSON)
@SWEEP
def test_parser_totality_on_json_shapes(value):
    try:
        parsed = parse_experiment(json.dumps(value))
    except ExperimentError:
        return
    _assert_usable(parsed)


_TEXT_FIELDS = [("name",), ("description",), ("sessions", 0, "id"),
                ("sessions", 0, "client_id"), ("sessions", 0, "username"),
                ("sessions", 0, "password"), ("steps", 0, "session"),
                ("steps", 0, "topic"), ("steps", 0, "payload")]


@given(st.sampled_from(_TEXT_FIELDS), st.text(_TEXT, max_size=8))
@SWEEP
def test_a_text_field_parses_or_names_its_path(field, text):
    doc = {"name": "t", "sessions": [{"id": "f"}],
           "steps": [{"session": "f", "action": "publish", "topic": "t"}]}
    target = doc
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = text
    # JSON joins an escaped surrogate pair into one character.
    encodable = not any(0xD800 <= ord(c) <= 0xDFFF for c in json.loads(json.dumps(text)))
    try:
        parsed = parse_experiment(json.dumps(doc))
    except SchemaError as exc:
        if not encodable:
            assert exc.path == "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                                       for k in field).lstrip(".")
        return
    except ExperimentError:
        assert encodable
        return
    assert encodable
    _assert_usable(parsed)


@st.composite
def _one_step_documents(draw):
    """One session, maybe with credentials or a non-UTF-8 client id, and one wire step."""
    session = {"id": "f"}
    for key in draw(st.sets(st.sampled_from(("username", "password")))):
        session[key] = "u"
    if draw(st.booleans()):
        session["client_id_hex"] = draw(st.sampled_from(("66", "c3a9", "fffe")))
    action = draw(st.sampled_from(("publish", "puback", "pubrec", "pubrel", "pubcomp",
                                   "subscribe", "unsubscribe")))
    step = {"session": "f", "action": action}
    if action == "publish":
        qos = draw(st.integers(0, 2))
        step.update(topic="t", qos=qos, dup=draw(st.booleans()), retain=draw(st.booleans()))
        if qos:
            step["packet_id"] = draw(st.integers(0, 2))
    else:
        step["packet_id"] = draw(st.integers(0, 2))
    if action in ("subscribe", "unsubscribe"):
        # 't', 't/#', and bytes that are not UTF-8
        step["filter_hex"] = draw(st.sampled_from(("74", "742f23", "74ff")))
    return {"name": "t", "sessions": [session], "steps": [step]}


@given(_one_step_documents())
@SWEEP
def test_a_codec_annotation_implies_nonconformant_input(doc):
    # The model's rules must cover every rule the codec annotates on
    # what a script sends, or the refbroker's close on the annotation
    # reads as an unexpected disconnect.
    experiment = parse_experiment(json.dumps(doc))
    packets = [decl.to_connect() for decl in experiment.sessions]
    packets += [step.packet for step in expand_steps(experiment)]
    annotated = [codec.decode_packet(codec.encode_packet(packet), codec.DecodeMode.PERMISSIVE)[1]
                 for packet in packets]
    if any(annotated):
        assert not model_script(experiment).input_conformant, annotated


def test_wait_step_parses():
    parsed = parse_experiment(_doc(steps=[
        {"action": "wait", "session": "f", "ms": 10}]))
    assert parsed.steps == (WaitStep(session="f", ms=10),)


def test_schema_error_renders_path_colon_reason():
    with pytest.raises(SchemaError) as exc:
        parse_experiment(_doc(settle_ms=-1))
    text = str(exc.value)
    assert ":" in text and "settle_ms" in text


# --- a document read from a file -------------------------------------------

def _result(source):
    """What parsing ``source`` gives: the experiment, or its error's type, path and reason."""
    try:
        return parse_experiment(source)
    except ExperimentError as exc:
        return type(exc), getattr(exc, "path", None), getattr(exc, "reason", None), str(exc)


class _Source(io.StringIO):
    """An open text file that counts how often it is read again from the start."""

    rereads = 0

    def seek(self, *args):
        self.rereads += 1
        return super().seek(*args)


def _is_json_object(text):
    try:
        return isinstance(json.loads(text), dict)
    except json.JSONDecodeError:
        return False


_SESSION_TEXT = '"sessions": [{"id": "f"}]'
_BOGUS_TEXT = '{"session": "f", "action": "bogus"}'
_PING_TEXT = '{"session": "f", "action": "pingreq"}'
_DOCUMENTS = [
    # A JSON fault after a faulty step: the JSON error wins.
    f'{{"name": "x", {_SESSION_TEXT}, "steps": [{_BOGUS_TEXT}, {_PING_TEXT} oops]}}',
    f'{{"name": "x", {_SESSION_TEXT}, "steps": [{_BOGUS_TEXT}, {_PING_TEXT},]}}',
    f'{{"name": "x", {_SESSION_TEXT}, "steps": [{_BOGUS_TEXT}], "steps": [{_PING_TEXT}]',
    # Steps given twice: the last wins, with a fault in either copy.
    f'{{"name": "x", {_SESSION_TEXT}, "steps": [{_BOGUS_TEXT}], "steps": [{_PING_TEXT}]}}',
    f'{{"name": "x", {_SESSION_TEXT}, "steps": [{_PING_TEXT}], "steps": [{_BOGUS_TEXT}]}}',
    f'{{"name": "x", {_SESSION_TEXT}, "steps": [{_BOGUS_TEXT}], "steps": {{}}}}',
    f'{{"steps": {{}}, "name": "x", {_SESSION_TEXT}, "steps": [{_PING_TEXT}, {_PING_TEXT}]}}',
    # The top level's faults, then the sessions', then the first faulty step's,
    # whatever order the keys come in.
    f'{{"steps": [{_BOGUS_TEXT}], {_SESSION_TEXT}}}',
    f'{{"steps": [{_BOGUS_TEXT}], "name": "x", "sessions": [{{"id": 1}}]}}',
    f'{{"steps": [{_PING_TEXT}, {_BOGUS_TEXT}, 7], "name": "x", {_SESSION_TEXT}}}',
    f'{{"steps": [{_PING_TEXT}], "name": "x", "sessions": [{{"id": "g"}}]}}',
    # Not one object: a top-level array, trailing data, a UTF-8 BOM.
    "[1, 2]", '"x"', "", " \n", "{}", "{,}", '{"name": "x",}', '{"name" "x"}',
    f'{{"name": "x", {_SESSION_TEXT}, "steps": []}} {{}}',
    f'{{"name": "x", {_SESSION_TEXT}, "steps": []}}]',
    f'﻿{{"name": "x", {_SESSION_TEXT}, "steps": []}}',
    # JSON whitespace everywhere it may stand.
    f' \t\r\n{{ "name" : "x" ,\n {_SESSION_TEXT} , "steps" : [ {_PING_TEXT} , {_PING_TEXT} ] }} \r\n',
    # Numbers that a chunk boundary can cut, valid or not.
    f'{{"name": "x", "settle_ms": 123456, {_SESSION_TEXT}, "steps": ['
    '{"session": "f", "action": "wait", "ms": 54321}]}',
    f'{{"name": "x", "settle_ms": 600001, {_SESSION_TEXT}, "steps": []}}',
    f'{{"name": "x", "settle_ms": 12.5e+1, {_SESSION_TEXT}, "steps": []}}',
    f'{{"name": "x", "settle_ms": -1.5E-3, {_SESSION_TEXT}, "steps": []}}',
    f'{{"name": "x", "settle_ms": 7, {_SESSION_TEXT}, "steps": [1234, -5.25e2]}}',
    f'{{"name": "x", "settle_ms": NaN, {_SESSION_TEXT}, "steps": [-Infinity]}}',
]


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_a_file_parses_as_its_text_does(chunk, tmp_path, monkeypatch):
    from test_formats import ALL_ACTIONS, DOCUMENTS
    monkeypatch.setattr(exp_mod, "READ_CHUNK", chunk)
    texts = [json.dumps(ALL_ACTIONS), *map(json.dumps, DOCUMENTS.values()), *_DOCUMENTS]
    path = tmp_path / "doc.json"
    for text in texts:
        path.write_text(text, encoding="utf-8")
        with open(path, encoding="utf-8") as handle:
            assert _result(handle) == _result(text), text


def test_every_chunk_boundary_reads_the_same_and_json_is_read_once(monkeypatch):
    # A number cut at the window's end is read again with what follows, so
    # no valid document falls back to reading its text from the start.
    for text in _DOCUMENTS:
        whole = _result(text)
        for chunk in range(1, len(text) + 2):
            monkeypatch.setattr(exp_mod, "READ_CHUNK", chunk)
            source = _Source(text)
            assert _result(source) == whole, (chunk, text)
            assert source.rereads == (0 if _is_json_object(text) else 1), (chunk, text)


@given(st.text(_TEXT, max_size=200) | _JSON.map(json.dumps), st.integers(1, 9))
@SWEEP
def test_any_text_parses_alike_from_a_file(text, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exp_mod, "READ_CHUNK", chunk)
        assert _result(io.StringIO(text)) == _result(text)


def test_a_pipe_is_read_whole(tmp_path):
    for text in (json.dumps(_repeated_document(2, 2)), _DOCUMENTS[0], _DOCUMENTS[4]):
        reader, writer = os.pipe()
        os.write(writer, text.encode("utf-8"))
        os.close(writer)
        with open(reader, encoding="utf-8") as handle:
            assert not handle.seekable()
            assert _result(handle) == _result(text)


def test_a_file_that_is_not_utf8_is_a_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"name": "x\xff"}')
    with open(path, encoding="utf-8") as handle, pytest.raises(SchemaError) as exc:
        parse_experiment(handle)
    assert (exc.value.path, exc.value.reason) == ("", "not valid UTF-8")


def test_a_file_is_parsed_without_its_text_or_tree(tmp_path):
    # 10,000 publishes of distinct payloads: a 3.1 MB text.
    steps = [{"session": "f", "action": "subscribe", "filter": "m/#", "qos": 1}]
    steps += [{"session": "f", "action": "publish", "topic": f"m/{i % 8}",
               "payload": f"{i:06d}".ljust(200, "x"), "qos": 1, "packet_id": i + 1}
              for i in range(10_000)]
    path = tmp_path / "publishes.json"
    path.write_text(_doc(steps=steps), encoding="utf-8")
    del steps
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with open(path, encoding="utf-8") as handle:
            kept = parse_experiment(handle)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(kept.steps) == 10_001
    # Read whole, the text alone took 3.1 MB over what the parse keeps.
    assert peak < held + (2 << 20), (peak, held)
