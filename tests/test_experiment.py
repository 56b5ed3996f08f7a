"""Scenario DSL: parsing, validation, rendering, expansion."""

import dataclasses
import json
import tracemalloc

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
    UnsubscribeStep,
    WaitStep,
    expand_steps,
    model_script,
    parse_experiment,
    render_experiment,
    scripted_input_conformant,
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
    publishes = [s for s in parsed.steps if isinstance(s, PublishStep)]
    assert len(publishes) == 10_000
    for first, again in zip(publishes, publishes[200:]):
        assert again.payload is first.payload and again.topic is first.topic
    # The model's identities are shared the same way.
    expected = model_script(parsed).expected
    assert len(expected) == 10_000 and len({id(i) for i in expected}) == 200

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parse_experiment(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # A tree of one string per occurrence, and bytes per step, peaked at 3.7x.
    assert peak <= 1.5 * len(text), (peak, len(text))


def test_steps_and_sessions_have_no_instance_dict():
    parsed = parse_experiment(_doc(steps=[
        {"action": "repeat", "session": "f", "count": 2,
         "steps": [{"action": "publish", "session": "f", "topic": "a"}]}]))
    for obj in (parsed.sessions[0], parsed.steps[0], parsed.steps[0].steps[0]):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, dataclasses.fields(obj)[0].name, "g")


def test_model_routes_each_topic_by_the_subscriptions_in_force():
    # A topic's match is remembered only until the subscriptions change.
    experiment = Experiment(name="t", sessions=(SessionDecl(id="f"),), steps=(
        PublishStep("f", b"a/b", b"0"),
        SubscribeStep("f", b"a/+"),
        PublishStep("f", b"a/b", b"1"),
        PublishStep("f", b"a/c", b"2"),
        SubscribeStep("f", b"a/#/bad"),  # refused: changes nothing
        PublishStep("f", b"a/b", b"3"),
        UnsubscribeStep("f", b"a/+"),
        PublishStep("f", b"a/b", b"4"),
        SubscribeStep("f", b"a/b"),
        PublishStep("f", b"a/b", b"5"),
        PublishStep("f", b"a/c", b"6"),
    ))
    assert model_script(experiment).expected == [
        (b"a/b", b"1"), (b"a/c", b"2"), (b"a/b", b"3"), (b"a/b", b"5")]


def test_a_bad_topic_is_nonconformant_after_good_ones():
    steps = tuple(PublishStep("f", b"a/b", bytes([i])) for i in range(3))
    experiment = Experiment(name="t", sessions=(SessionDecl(id="f"),), steps=steps)
    assert scripted_input_conformant(experiment)
    bad = dataclasses.replace(experiment, steps=steps + (PublishStep("f", b"a/+", b"x"),))
    assert not scripted_input_conformant(bad)


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


def test_wait_step_parses():
    parsed = parse_experiment(_doc(steps=[
        {"action": "wait", "session": "f", "ms": 10}]))
    assert parsed.steps == (WaitStep(session="f", ms=10),)


def test_schema_error_renders_path_colon_reason():
    with pytest.raises(SchemaError) as exc:
        parse_experiment(_doc(settle_ms=-1))
    text = str(exc.value)
    assert ":" in text and "settle_ms" in text
