"""Trace module: the line writer against the reference JSON, and the
names the benchmark reads from the program."""

import ast
import json
import os
import random
import sys

import pytest

from mqttprobe import runner, trace
from mqttprobe.codec import Raw
from mqttprobe.trace import Trace, TraceEvent, event_to_obj, trace_lines
from genpackets import random_valid_packet

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# Quotes, backslashes, control characters, non-ASCII and a lone surrogate:
# everything json.dumps escapes.
_TEXT_POOL = ['a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', '\x7f',
              'é', 'ü', '中', '\U0001f600', '\ud800', "'", '{', '}']


def _text(rng: random.Random, hi: int = 12) -> str:
    return "".join(rng.choice(_TEXT_POOL) for _ in range(rng.randint(0, hi)))


def _random_event(rng: random.Random, seq: int) -> TraceEvent:
    roll = rng.random()
    if roll < 0.1:
        packet = None
    elif roll < 0.2:
        packet = Raw(data=rng.randbytes(rng.randint(0, 8)))
    else:
        packet = random_valid_packet(rng)
    t_ms = rng.randint(0, 10**6) if rng.random() < 0.3 \
        else round(rng.uniform(0, 10**6), rng.randint(0, 6))
    return TraceEvent(
        seq=seq, t_ms=t_ms,
        session=_text(rng, 4),
        kind=rng.choice([trace.K_SENT, trace.K_RECEIVED, trace.K_CONNECTED,
                         trace.K_CLOSED_BY_PEER, trace.K_TCP_ERROR, _text(rng)]),
        packet=packet,
        raw=None if rng.random() < 0.2 else rng.randbytes(rng.randint(0, 16)),
        annotations=tuple(_text(rng) for _ in range(rng.choice((0, 0, 1, 3)))),
        auto=rng.random() < 0.5,
        note=_text(rng))


@pytest.mark.parametrize("seed", range(5))
def test_trace_lines_equal_the_reference_json_of_random_events(seed):
    rng = random.Random(seed)
    events = tuple(_random_event(rng, seq) for seq in range(400))
    lines = list(trace_lines(Trace("random", "synthetic:1883", 0.5, events,
                                   trace.OUTCOME_COMPLETED)))
    assert len(lines) == len(events) + 2
    for event, line in zip(events, lines[1:-1]):
        assert line == json.dumps(event_to_obj(event)) + "\n"


def test_trace_lines_cover_every_packet_class():
    rng = random.Random(0)
    seen = {type(random_valid_packet(rng)) for _ in range(2000)} | {Raw}
    assert seen | {type(None)} == set(trace._PACKET_TEXT)


def _bench_module(name: str):
    sys.path.insert(0, BENCH)
    try:
        return __import__(name)
    finally:
        sys.path.remove(BENCH)


def test_every_traced_bench_name_resolves_to_one_function():
    traced_cli = _bench_module("traced_cli")
    for name in traced_cli.TRACED:
        found = {getattr(m, name) for m in traced_cli.MODULES if hasattr(m, name)}
        assert len(found) == 1, f"{name} resolves to {len(found)} functions"


def test_runner_names_the_bench_reads_exist():
    read = set()
    for entry in sorted(os.listdir(BENCH)):
        if entry.endswith(".py"):
            with open(os.path.join(BENCH, entry), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            read |= {node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name) and node.value.id == "runner"}
    assert {"Trace", "trace_from_jsonl", "K_SENT", "OUTCOME_COMPLETED"} <= read
    assert not {name for name in read if not hasattr(runner, name)}
