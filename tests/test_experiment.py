"""Scenario DSL: parsing, validation, rendering, expansion."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqttprobe import corpus
from mqttprobe import experiment as exp_mod
from mqttprobe.experiment import (
    ConnectStep,
    DuplicateSessionError,
    Experiment,
    ExperimentError,
    PublishStep,
    PubrelStep,
    SchemaError,
    SessionDecl,
    SubscribeStep,
    UnknownSessionRefError,
    WaitStep,
    expand_steps,
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
        SubscribeStep, PublishStep, PublishStep, PubrelStep]
    assert parsed.steps[1].payload == b"one"
    assert parsed.steps[2].qos == 1


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
    publishes = [s for s in expand_steps(flood) if isinstance(s, PublishStep)]
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


@given(st.text(max_size=200))
@settings(max_examples=300)
def test_parser_totality_on_text(blob):
    try:
        parsed = parse_experiment(blob)
    except ExperimentError:
        return
    assert isinstance(parsed, Experiment)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(_JSON)
@settings(max_examples=300)
def test_parser_totality_on_json_shapes(value):
    try:
        parsed = parse_experiment(json.dumps(value))
    except ExperimentError:
        return
    assert isinstance(parsed, Experiment)


def test_wait_step_parses():
    parsed = parse_experiment(_doc(steps=[
        {"action": "wait", "session": "f", "ms": 10}]))
    assert parsed.steps == (WaitStep(session="f", ms=10),)


def test_schema_error_renders_path_colon_reason():
    with pytest.raises(SchemaError) as exc:
        parse_experiment(_doc(settle_ms=-1))
    text = str(exc.value)
    assert ":" in text and "settle_ms" in text
