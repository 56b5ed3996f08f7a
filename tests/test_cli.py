"""Command-line interface: exit codes, report formats, subcommands."""

import dataclasses
import gc
import itertools
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mqttprobe import cli, corpus, fuzzer, refbroker, runner
from mqttprobe.codec import (
    Connack,
    Connect,
    DecodeMode,
    IncompleteFrame,
    Pingresp,
    Puback,
    Publish,
    decode_packet,
    encode_packet,
)
from mqttprobe.oracle import diff_profiles
from mqttprobe.profiles import PROFILED_SCENARIOS, documented_profiles
from mqttprobe.runner import K_RECEIVED, K_SENT, Liveness, Trace, TraceEvent
from mqttprobe.trace import trace_lines
import reference_forms
import reference_oracle


def run_cli(*argv):
    return cli.main(list(argv))


def _free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


class SlammingBroker:
    """Fake broker that answers CONNECT, then hangs up on the next packet.

    Conformant client traffic followed by a hangup is exactly the shape
    the detector must flag as an unexpected disconnect.
    """

    def __init__(self):
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self.stopping = False
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self.stopping:
            try:
                self.listener.settimeout(0.2)
                conn, _ = self.listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self._client, args=(conn,),
                             daemon=True).start()

    def _client(self, conn):
        conn.settimeout(5)
        buf = b""
        try:
            while True:
                chunk = conn.recv(4096)
                if not chunk:
                    return  # reachability probe
                buf += chunk
                try:
                    _, _, used = decode_packet(buf, DecodeMode.PERMISSIVE)
                except IncompleteFrame:
                    continue
                buf = buf[used:]
                break
            conn.sendall(encode_packet(Connack(session_present=False,
                                               return_code=0)))
            # Wait for one more packet, then slam the door.  It may have
            # arrived with the CONNECT, in the same chunk.
            if not buf:
                conn.settimeout(5)
                try:
                    conn.recv(4096)
                except OSError:
                    pass
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def stop(self):
        self.stopping = True
        try:
            self.listener.close()
        except OSError:
            pass
        self.thread.join(2)


@pytest.fixture()
def slammer():
    fake = SlammingBroker()
    yield fake
    fake.stop()


def _write_experiment(tmp_path, name="ping-once", steps=None):
    doc = {
        "name": name,
        "sessions": [{"id": "f"}],
        "settle_ms": 100,
        "steps": steps or [{"action": "pingreq", "session": "f"}],
    }
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# Exit codes

def test_clean_run_exits_zero(broker, tmp_path, capsys):
    path = _write_experiment(tmp_path)
    code = run_cli("run", "--target", f"127.0.0.1:{broker.port}",
                   "--experiment", str(path), "--format", "json")
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["exit_code"] == 0


def test_unreachable_target_exits_one(tmp_path):
    path = _write_experiment(tmp_path)
    code = run_cli("run", "--target", f"127.0.0.1:{_free_port()}",
                   "--experiment", str(path))
    assert code == 1


def test_bad_usage_exits_one(capsys):
    assert run_cli("run", "--no-such-flag") == 1
    assert run_cli("bogus-subcommand") == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    capsys.readouterr()


def test_findings_above_threshold_exit_two(slammer, tmp_path, capsys):
    path = _write_experiment(tmp_path)
    code = run_cli("run", "--target", f"127.0.0.1:{slammer.port}",
                   "--experiment", str(path), "--format", "json",
                   "--fail-on", "dos")
    out = capsys.readouterr().out
    assert code == 2
    report = json.loads(out)
    codes = {a["code"]
             for scenario in report["scenarios"]
             for a in scenario.get("outcome", {}).get("anomalies", ())}
    assert "unexpected-disconnect" in codes


def test_threshold_below_findings_exits_zero(slammer, tmp_path, capsys):
    path = _write_experiment(tmp_path)
    code = run_cli("run", "--target", f"127.0.0.1:{slammer.port}",
                   "--experiment", str(path), "--format", "json",
                   "--fail-on", "critical")
    capsys.readouterr()
    assert code == 0


# ---------------------------------------------------------------------------
# Report formats

def test_json_and_md_reports_agree(slammer, tmp_path, capsys):
    path = _write_experiment(tmp_path)
    target = f"127.0.0.1:{slammer.port}"
    run_cli("run", "--target", target, "--experiment", str(path),
            "--format", "json")
    json_out = capsys.readouterr().out
    run_cli("run", "--target", target, "--experiment", str(path),
            "--format", "md")
    md_out = capsys.readouterr().out
    report = json.loads(json_out)
    assert report["target"] == target
    assert "| Broker |" in md_out
    assert "unexpected-disconnect" in md_out
    assert "Possible denial of service" in md_out


def test_trace_dump_round_trips(broker, tmp_path, capsys):
    from mqttprobe.runner import trace_from_jsonl
    path = _write_experiment(tmp_path)
    traces_dir = tmp_path / "traces"
    code = run_cli("run", "--target", f"127.0.0.1:{broker.port}",
                   "--experiment", str(path), "--format", "json",
                   "--traces", str(traces_dir))
    capsys.readouterr()
    assert code == 0
    dumps = list(traces_dir.glob("*.jsonl"))
    assert len(dumps) == 1
    trace = trace_from_jsonl(dumps[0].read_text())
    assert trace.experiment_name == "ping-once"


def test_streamed_outputs_equal_the_whole_serializers(broker, tmp_path, capsys,
                                                     monkeypatch):
    # One string a chunk makes the report cross many chunk boundaries.
    monkeypatch.setattr(fuzzer, "JSON_CHUNK_ROWS", 1)
    traces, reports = [], []
    run_experiment, json_report = runner.run_experiment, fuzzer._json_report

    def recording_run_experiment(experiment, endpoint, sink=None, judge=None):
        # The run's judge records the events too.
        trace = run_experiment(experiment, endpoint, sink=sink, judge=judge)
        traces.append(dataclasses.replace(trace, events=tuple(judge.events)))
        return trace

    def recording_json_report(*args):
        reports.append(json_report(*args))
        return reports[-1]

    monkeypatch.setattr(runner, "Judge", reference_oracle.RecordingJudge)
    monkeypatch.setattr(runner, "run_experiment", recording_run_experiment)
    monkeypatch.setattr(fuzzer, "_json_report", recording_json_report)
    path = _write_experiment(tmp_path, name="stream", steps=[
        {"action": "subscribe", "session": "f", "filter": "t/#", "qos": 2,
         "packet_id": 1},
        {"action": "publish", "session": "f", "topic": "t/é", "payload": "x",
         "qos": 1, "packet_id": 2},
        {"action": "pingreq", "session": "f"},
    ])
    traces_dir, output = tmp_path / "traces", tmp_path / "report.json"
    code = run_cli("run", "--target", f"127.0.0.1:{broker.port}",
                   "--experiment", str(path), "--format", "json",
                   "--traces", str(traces_dir), "--output", str(output))
    stdout = capsys.readouterr().out
    assert code == 0
    (trace,) = traces
    assert len(trace.events) > 5
    written = (traces_dir / "stream.jsonl").read_text(encoding="utf-8")
    assert written == runner.trace_to_jsonl(trace)
    (report,) = reports
    assert output.read_text(encoding="utf-8") == stdout
    assert stdout == json.dumps(report, indent=2) + "\n"


def test_runner_error_mid_run_leaves_only_the_error_trace(broker, tmp_path, capsys):
    # The pingreq and its reply are written during the wait; the splice
    # then fails, and the file must hold what a failed run always held.
    path = _write_experiment(tmp_path, name="splice-fails", steps=[
        {"action": "pingreq", "session": "f"},
        {"action": "wait", "session": "f", "ms": 50},
        {"action": "splice_next", "session": "f", "offset": 10, "remove": 1},
        {"action": "pingreq", "session": "f"},
    ])
    traces_dir = tmp_path / "traces"
    code = run_cli("run", "--target", f"127.0.0.1:{broker.port}", "--format", "json",
                   "--experiment", str(path), "--traces", str(traces_dir))
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["scenarios"][0]["trace_outcome"] == "runner-error"
    lines = (traces_dir / "splice-fails.jsonl").read_text(encoding="utf-8").splitlines()
    header, outcome = map(json.loads, lines)
    assert set(header) == {"record", "experiment", "endpoint", "started_at"}
    assert header["experiment"] == "splice-fails"
    assert outcome["outcome"] == "runner-error" and "splice failed" in outcome["detail"]
    assert "settled_by" not in outcome


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 200, 2 ** 200), st.floats(),
    st.sampled_from([-0.0, 1e300, float("nan"), float("inf")]),
    # Any code point: escapes, non-ASCII and lone surrogates.
    st.lists(st.integers(0, 0x10FFFF), max_size=8).map(lambda cps: "".join(map(chr, cps))))
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=5) | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(st.text(max_size=5), children, max_size=5)),
    max_leaves=40)


@given(_JSON_VALUES)
@settings(max_examples=400, deadline=None)
def test_json_writer_equals_json_dumps(value):
    assert "".join(fuzzer.json_chunks(value)) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    # The report's deliveries and ack flow: tuples of pairs, over several runs.
    tuple(((b"t/%d" % (i % 3)).hex(), bytes([i]).hex()) for i in range(150)),
    {"ack_flow": tuple(("puback", i) for i in range(130)), "anomalies": []},
    [[], [[]], {}, [{}], ()],
    [[1, 2], [], [3, 4], ["a"], (5, "b"), [True, 1], [None]],
    [("a", 1)] * 64 + [("b", 2, 3)] + [("c", 4)] * 64,
    list(range(200)) + [[1]],
])
def test_json_writer_equals_json_dumps_on_runs_of_rows(value, monkeypatch):
    for rows in (1, 7, fuzzer.JSON_CHUNK_ROWS):
        monkeypatch.setattr(fuzzer, "JSON_CHUNK_ROWS", rows)
        assert "".join(fuzzer.json_chunks(value)) == json.dumps(value, indent=2), rows


def test_report_writes_hold_one_run_of_rows_at_most(monkeypatch):
    # What keeps a large report off the run-end peak: 1.3 MB of delivered
    # rows reach stdout a run of JSON_CHUNK_ROWS rows at a time.
    delivered = tuple(((b"t/%d" % (i % 7)).hex(), bytes([i % 256]).hex())
                      for i in range(20_000))
    report = {"tool": "mqttprobe", "exit_code": 2, "scenarios": [
        {"experiment": "stream", "outcome": {"delivered": delivered, "anomalies": []}}]}
    writes = []

    class RecordingStdout:
        def write(self, text):
            writes.append(text)

    monkeypatch.setattr(sys, "stdout", RecordingStdout())
    fuzzer._write_report(itertools.chain(fuzzer.json_chunks(report), ("\n",)), None)
    text = "".join(writes)
    assert text == json.dumps(report, indent=2) + "\n"
    assert len(text) > 1_000_000
    assert max(map(len, writes)) < 16 * 1024


def test_trace_writer_streams_a_large_trace(tmp_path):
    # Building the JSONL whole before writing it peaked at about three
    # times the file size; streamed, the peak does not grow with the trace.
    experiment = corpus.builtin_corpus()[0]
    events = []
    for seq in range(0, 100_000, 2):
        publish = Publish(topic=b"stream/t", payload=seq.to_bytes(4, "big"),
                          qos=1, packet_id=seq % 65_535 + 1)
        events.append(TraceEvent(seq=seq, t_ms=seq / 10, session="f",
                                 kind=K_SENT, packet=publish,
                                 raw=encode_packet(publish)))
        ack = Puback(publish.packet_id)
        events.append(TraceEvent(seq=seq + 1, t_ms=seq / 10, session="f",
                                 kind=K_RECEIVED, packet=ack,
                                 raw=encode_packet(ack)))
    trace = Trace(experiment_name=experiment.name, endpoint="synthetic:1883",
                  started_at=0.0, events=tuple(events), outcome="completed")
    path = tmp_path / f"{experiment.name}.jsonl"
    tracemalloc.start()
    try:
        with path.open("w", encoding="utf-8") as handle:
            handle.writelines(trace_lines(trace))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 20 << 20
    assert peak < 2 << 20, f"writing a {path.stat().st_size} byte trace peaked at {peak} bytes"
    with path.open(encoding="utf-8") as handle:
        assert sum(1 for _ in handle) == len(events) + 2


def test_run_holds_one_trace_at_a_time(tmp_path, monkeypatch, capsys):
    # Each experiment is written and judged before the next one runs, and
    # then its events are dropped: two large traces never share memory.
    sizes = []

    def large_trace(experiment, endpoint, sink=None, judge=None):
        before = tracemalloc.get_traced_memory()[0]
        events = tuple(TraceEvent(seq=i, t_ms=i / 10, session="f", kind=K_RECEIVED,
                                  packet=Pingresp(), raw=b"\xd0\x00")
                       for i in range(50_000))
        sizes.append(tracemalloc.get_traced_memory()[0] - before)
        for event in events:
            judge(event)
        return Trace(experiment_name=experiment.name, endpoint=endpoint.label,
                     started_at=0.0, events=(), outcome="completed")

    monkeypatch.setattr(runner, "run_experiment", large_trace)
    monkeypatch.setattr(runner, "probe_liveness", lambda endpoint: Liveness(True))
    monkeypatch.setattr(fuzzer, "probe_liveness", lambda endpoint: Liveness(True))
    paths = [_write_experiment(tmp_path, name=name) for name in ("first", "second")]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code = run_cli("run", "--target", "127.0.0.1:1", "--format", "md",
                       "--experiment", str(paths[0]), "--experiment", str(paths[1]))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    assert "`first`" in out and "`second`" in out
    assert len(sizes) == 2
    assert peak < 1.5 * sizes[0], f"peak {peak} bytes for traces of {sizes} bytes"


# The run below peaked at 31.9 MiB under tracemalloc while the run held
# its trace until it ended, at 16.7 MiB once each event is judged as it
# is recorded and written in the next wait, at 13.6 MiB once the trace
# backlog was bounded, and at 10.4 MiB once the document is read a step
# at a time, the judge packs its indexes and the steps go before the
# verdict (Python 3.11, refbroker in process).  The bound leaves 2.6 MiB
# over that, and the 13.6 MiB run fails it.
RUN_PEAK_BOUND = 13 << 20


def test_run_peak_memory_does_not_hold_the_trace(broker, tmp_path, monkeypatch):
    # 10,000 qos 1 publishes to a subscriber: about 40,000 events, a 14 MB
    # trace and a 3 MB document.  A 5 ms wait after every 10 publishes
    # lets the trace writer keep up even at tracemalloc's pace.
    steps = [{"session": "s", "action": "subscribe", "filter": "m/#", "qos": 1,
              "packet_id": 1}]
    for i in range(10_000):
        steps.append({"session": "p", "action": "publish", "topic": f"m/{i % 8}",
                      "payload": f"{i:06d}".ljust(200, "x"), "qos": 1,
                      "packet_id": i % 65_535 + 1})
        if (i + 1) % 10 == 0:
            steps.append({"session": "p", "action": "wait", "ms": 5})
    path = tmp_path / "memory.json"
    path.write_text(json.dumps({"name": "memory", "settle_ms": 1000,
                                "sessions": [{"id": "s"}, {"id": "p"}], "steps": steps}))
    del steps
    output, traces = tmp_path / "report.json", tmp_path / "traces"
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        tracemalloc.start()
        try:
            code = run_cli("run", "--target", f"127.0.0.1:{broker.port}", "--experiment",
                           str(path), "--format", "json", "--traces", str(traces),
                           "--output", str(output))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    (scenario,) = json.loads(output.read_text(encoding="utf-8"))["scenarios"]
    assert len(scenario["outcome"]["delivered"]) == 10_000
    assert scenario["outcome"]["anomalies"] == []
    assert (traces / "memory.jsonl").stat().st_size > 10 << 20
    assert peak < RUN_PEAK_BOUND, f"the run peaked at {peak / 2 ** 20:.1f} MiB"


def test_run_releases_each_experiment_once_judged(tmp_path, monkeypatch, capsys):
    # The reports read only an experiment's name, so a run holds each one
    # only until it has run and been judged.
    experiments, held = [], []

    def run(experiment, endpoint, sink=None, judge=None):
        held.append([ref() is not None for ref in experiments])
        experiments.append(weakref.ref(experiment))
        return Trace(experiment_name=experiment.name, endpoint=endpoint.label,
                     started_at=0.0, events=(), outcome="completed")

    monkeypatch.setattr(runner, "run_experiment", run)
    monkeypatch.setattr(runner, "probe_liveness", lambda endpoint: Liveness(True))
    monkeypatch.setattr(fuzzer, "probe_liveness", lambda endpoint: Liveness(True))
    paths = [_write_experiment(tmp_path, name=name) for name in ("a", "b", "c")]
    gc.disable()
    try:
        code = run_cli("run", "--target", "127.0.0.1:1", "--format", "md",
                       *(arg for path in paths for arg in ("--experiment", str(path))))
    finally:
        gc.enable()
    assert code == 0
    assert "`a`" in capsys.readouterr().out
    assert held == [[], [False], [False, False]]


def test_duplicate_experiment_names_exit_one_before_any_probe(tmp_path, monkeypatch,
                                                              capsys):
    # Both would write one trace file and share one profile entry.
    probes = []
    monkeypatch.setattr(fuzzer, "probe_liveness",
                        lambda endpoint: probes.append(endpoint) or Liveness(True))
    path = _write_experiment(tmp_path)
    code = run_cli("run", "--target", "127.0.0.1:1",
                   "--experiment", str(path), "--experiment", str(path))
    assert code == 1
    assert probes == []
    assert "'ping-once' is used twice" in capsys.readouterr().err


def test_a_name_that_is_not_utf8_exits_one_before_any_probe(tmp_path, monkeypatch, capsys):
    # JSON can escape a lone surrogate, which no trace file name can hold.
    probes = []
    monkeypatch.setattr(fuzzer, "probe_liveness",
                        lambda endpoint: probes.append(endpoint) or Liveness(True))
    path = tmp_path / "surrogate.json"
    path.write_text('{"name": "\\ud800", "sessions": [{"id": "f"}], "steps": []}')
    code = run_cli("run", "--target", "127.0.0.1:1", "--experiment", str(path),
                   "--traces", str(tmp_path / "traces"))
    assert code == 1
    assert probes == []
    assert "name: not encodable as UTF-8" in capsys.readouterr().err


def test_a_file_that_is_not_utf8_exits_one_before_any_probe(tmp_path, monkeypatch, capsys):
    probes = []
    monkeypatch.setattr(fuzzer, "probe_liveness",
                        lambda endpoint: probes.append(endpoint) or Liveness(True))
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"name": "x\xff"}')
    code = run_cli("run", "--target", "127.0.0.1:1", "--experiment", str(path))
    assert code == 1
    assert probes == []
    assert capsys.readouterr().err == "mqttprobe: error: not valid UTF-8\n"


def test_settle_override_applies(broker, tmp_path, capsys):
    path = _write_experiment(tmp_path)
    t0 = time.monotonic()
    code = run_cli("run", "--target", f"127.0.0.1:{broker.port}",
                   "--experiment", str(path), "--format", "json",
                   "--settle-ms", "0")
    capsys.readouterr()
    assert code == 0
    assert time.monotonic() - t0 < 5


@pytest.mark.parametrize("argv, env", [
    (["run", "--target", "127.0.0.1:1", "--corpus", "--settle-ms", "-5"], {}),
    (["run", "--target", "127.0.0.1:1", "--corpus", "--settle-ms", "600001"], {}),
    (["run", "--target", "127.0.0.1:1", "--corpus", "--settle-ms", "abc"], {}),
    (["run", "--target", "127.0.0.1:1", "--corpus"], {"MQTTPROBE_SETTLE_MS": "abc"}),
    (["run", "--target", "127.0.0.1:1", "--corpus"], {"MQTTPROBE_SETTLE_MS": "-5"}),
    (["serve"], {"MQTTPROBE_PORT": "abc"}),
    (["serve", "--port", "70000"], {}),
    (["serve", "--port", "-1"], {}),
    (["serve"], {"MQTTPROBE_PORT": "70000"}),
    (["serve"], {"MQTTPROBE_PORT": "-1"}),
], ids=["negative", "over-max", "not-int", "env-not-int", "env-negative", "port-env",
        "port-over-max", "port-negative", "port-env-over-max", "port-env-negative"])
def test_bad_settle_or_port_exits_one_before_any_probe(argv, env, monkeypatch, capsys):
    # A negative settle window would cut QoS 2 handshakes short and report
    # lost messages against a conformant broker.
    calls = []

    def recorded(name, error):
        def call(*args, **kwargs):
            calls.append(name)
            raise error(f"no {name} in this test")
        return call

    monkeypatch.setattr(fuzzer, "probe_liveness", recorded("probe", runner.RunnerError))
    monkeypatch.setattr(refbroker, "serve", recorded("serve", refbroker.BrokerBindError))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert run_cli(*argv) == 1
    assert calls == []
    assert "error: argument" in capsys.readouterr().err
    # The patched functions are the ones run and serve call: valid arguments reach them.
    assert run_cli("run", "--target", "127.0.0.1:1", "--corpus", "--settle-ms", "0") == 1
    assert run_cli("serve", "--port", "0") == 1
    assert calls == ["probe", "serve"]
    assert "no serve in this test" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "600000"])
def test_settle_bounds_are_accepted_from_flag_and_environment(value, monkeypatch):
    assert cli.build_parser().parse_args(["run", "--settle-ms", value]).settle_ms == int(value)
    monkeypatch.setenv("MQTTPROBE_SETTLE_MS", value)
    assert cli.build_parser().parse_args(["run"]).settle_ms == int(value)


@pytest.mark.parametrize("value", ["0", "65535"])
def test_port_bounds_are_accepted_from_flag_and_environment(value, monkeypatch):
    assert cli.build_parser().parse_args(["serve", "--port", value]).port == int(value)
    monkeypatch.setenv("MQTTPROBE_PORT", value)
    assert cli.build_parser().parse_args(["serve"]).port == int(value)


def test_port_environment_twin_is_an_integer(monkeypatch):
    assert cli.build_parser().parse_args(["serve"]).port == 1883
    monkeypatch.setenv("MQTTPROBE_PORT", "18830")
    assert cli.build_parser().parse_args(["serve"]).port == 18830


# ---------------------------------------------------------------------------
# corpus subcommand

def test_corpus_listing(capsys):
    assert run_cli("corpus") == 0
    out = capsys.readouterr().out
    for experiment in corpus.builtin_corpus():
        assert experiment.name in out


def test_corpus_hash(capsys):
    assert run_cli("corpus", "--hash") == 0
    line = capsys.readouterr().out.strip()
    assert len(line) == 64 and set(line) <= set("0123456789abcdef")
    assert line == corpus.corpus_hash()


def test_corpus_show_renders_parseable_json(capsys):
    from mqttprobe.experiment import parse_experiment
    assert run_cli("corpus", "--show", "orphan_pubrel") == 0
    out = capsys.readouterr().out
    assert parse_experiment(out).name == "orphan_pubrel"


def test_corpus_show_unknown_exits_one(capsys):
    assert run_cli("corpus", "--show", "nope") == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# diff subcommand

def test_diff_documented_pair(capsys):
    assert run_cli("diff", "Mosquitto", "EMQX", "--format", "json") == 0
    out = capsys.readouterr().out
    rows = json.loads(out)
    assert rows["divergences"]
    assert any("lost-message" in d["detail"] for d in rows["divergences"])


def test_diff_identical_profiles_report_none(capsys):
    assert run_cli("diff", "Aedes", "Aedes", "--format", "json") == 0
    out = capsys.readouterr().out
    assert json.loads(out)["divergences"] == []


def test_diff_unknown_label_exits_one(capsys):
    assert run_cli("diff", "Mosquitto", "NotABroker") == 1
    capsys.readouterr()


def test_diff_live_against_documented(broker, capsys):
    code = run_cli("diff", f"127.0.0.1:{broker.port}", "Mosquitto",
                   "--format", "json")
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)
    diverging = {d["scenario"] for d in rows["divergences"]}
    # The reference broker does not drop or reorder, so exactly the two
    # scenarios documented as faulty for this target must diverge.
    assert diverging == {"qos2_then_qos1_same_id", "qos2_then_qos0_same_id"}


def test_live_diff_agrees_with_the_run_report(broker, capsys):
    # diff fingerprints a live source by the path run takes, so its
    # divergences are the ones run's own profile implies.
    target = f"127.0.0.1:{broker.port}"
    assert run_cli("run", "--target", target, "--corpus", "--format", "json") == 0
    ran = reference_forms.profile_from_obj(json.loads(capsys.readouterr().out)["profile"])
    ran = dataclasses.replace(ran, outcomes={name: ran.outcomes[name]
                                             for name in PROFILED_SCENARIOS})
    diverging = set()
    for label, documented in documented_profiles().items():
        implied = diff_profiles(ran, documented)
        assert run_cli("diff", target, label, "--format", "json") == 0
        rows = json.loads(capsys.readouterr().out)["divergences"]
        assert [(row["scenario"], row["detail"]) for row in rows] == implied, label
        diverging.update(name for name, _ in implied)
    assert diverging == set(PROFILED_SCENARIOS)
    assert run_cli("diff", target, target, "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["divergences"] == []


# ---------------------------------------------------------------------------
# serve subcommand (real process, real signal)

def test_serve_listens_and_stops_on_interrupt():
    port = _free_port()
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "from mqttprobe.cli import main; raise SystemExit("
         f"main(['serve', '--port', '{port}']))"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 10
        line = ""
        while time.monotonic() < deadline:
            line = proc.stderr.readline()
            if "listening" in line:
                break
        assert "listening" in line
        assert str(port) in line
        # It serves real MQTT while up.
        s = socket.create_connection(("127.0.0.1", port), timeout=5)
        s.sendall(encode_packet(Connect(client_id=b"smoke")))
        reply = s.recv(4096)
        packet, _, _ = decode_packet(reply, DecodeMode.PERMISSIVE)
        assert isinstance(packet, Connack)
        s.close()
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_serve_stops_cleanly_on_sigterm():
    # A supervisor stops the broker with SIGTERM: it must log its counters
    # and exit 0 as on Ctrl-C, even when a second signal follows at once.
    proc = subprocess.Popen([sys.executable, "-m", "mqttprobe", "serve", "--port", "0"],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 10
        line = ""
        while "listening on" not in line and time.monotonic() < deadline:
            line = proc.stderr.readline()
        assert "listening on" in line
        proc.send_signal(signal.SIGTERM)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, err
    assert "event=stats" in err and "event=stopped" in err, err
    assert "Traceback" not in err, err


def test_serve_exits_1_when_the_broker_loop_crashes():
    # A supervisor must not see a live process that refuses every
    # connection: the crash ends serve with an error.
    code = ("from mqttprobe import cli, refbroker\n"
            "def crash(self):\n"
            "    raise RuntimeError('injected')\n"
            "refbroker.RefBroker._turn = crash\n"
            "raise SystemExit(cli.main(['serve', '--port', '0']))")
    proc = subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 10
        line = ""
        while "listening on" not in line and time.monotonic() < deadline:
            line = proc.stderr.readline()
        assert "listening on" in line
        socket.create_connection(("127.0.0.1", int(line.rsplit(":", 1)[1])), timeout=5).close()
        _, err = proc.communicate(timeout=5)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 1, err
    assert "event=loop-crash" in err and "mqttprobe: error:" in err, err
    assert "event=stats" in err, err


# Run in a fresh interpreter: the command, then the names of every module it loaded.
_LOADED_BY = ("import sys; from mqttprobe.cli import main; code = main(sys.argv[1:]); "
              "print(*sorted(sys.modules)); raise SystemExit(code)")
_FUZZER_MODULES = {"mqttprobe.fuzzer", "mqttprobe.oracle", "mqttprobe.runner", "mqttprobe.trace",
                   "mqttprobe.corpus", "mqttprobe.profiles", "mqttprobe.experiment",
                   "hashlib", "_hashlib"}


def test_each_command_loads_only_what_it_runs():
    # The broker process holds none of the fuzzer: no runner, oracle,
    # corpus, experiment parser or OpenSSL hashing.  Modules stay loaded,
    # so listing them at exit covers the whole time the broker served.
    proc = subprocess.Popen([sys.executable, "-c", _LOADED_BY, "serve", "--port", "0"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 10
        line = ""
        while "listening on" not in line and time.monotonic() < deadline:
            line = proc.stderr.readline()
        port = int(line.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
            s.sendall(encode_packet(Connect(client_id=b"modules")))
            packet, _, _ = decode_packet(s.recv(4096), DecodeMode.PERMISSIVE)
        assert isinstance(packet, Connack)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, err
    served = set(out.split())
    assert "mqttprobe.refbroker" in served
    assert not served & _FUZZER_MODULES, sorted(served & _FUZZER_MODULES)

    # A run loads the fuzzer, but not the broker or the documented profiles.
    done = subprocess.run([sys.executable, "-c", _LOADED_BY, "run", "--target", "127.0.0.1:1",
                           "--corpus"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    ran = set(done.stdout.split())
    assert {"mqttprobe.fuzzer", "mqttprobe.runner", "mqttprobe.oracle"} <= ran
    assert not ran & {"mqttprobe.refbroker", "mqttprobe.profiles"}, sorted(ran)


def test_env_defaults_supply_target(broker, tmp_path, capsys, monkeypatch):
    path = _write_experiment(tmp_path)
    monkeypatch.setenv("MQTTPROBE_TARGET", f"127.0.0.1:{broker.port}")
    code = run_cli("run", "--experiment", str(path), "--format", "json")
    capsys.readouterr()
    assert code == 0
