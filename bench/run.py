"""mqttprobe benchmark: seeded loopback workloads against the refbroker.

    python3 bench/run.py --workload corpus --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1
    python3 bench/run.py --workload qos_stream --pace 0   # unpaced stream

Workloads: corpus, qos_stream, stalled_subscriber (see bench/README.md).
The refbroker runs as its own `mqttprobe serve --port 0` child and every
run of the fuzzer is a `mqttprobe run` child, so neither shares an
interpreter lock with the other or with the load generator.  With
--trace 0 a run measures end-to-end metrics; with --trace 1 it makes
one untraced and one traced pass and measures the layers.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  A
fuller record, with the seed, Python version, nproc, commit and corpus
hash, goes to .bench_out/BENCH_<workload>_seed<seed>_trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
TRACED_CLI = os.path.join(BENCH, "traced_cli.py")

sys.path.insert(0, SRC)
try:
    import harness
    import layers
    import workloads
    from mqttprobe import corpus, experiment, oracle, runner
    from traced_cli import Spans
except ImportError as exc:  # a directory that holds only the benchmark
    MISSING: object = exc
else:
    # Measure this checkout's sources, never an installed copy.
    MISSING = None if os.path.dirname(os.path.dirname(runner.__file__)) == SRC \
        else f"mqttprobe imported from {runner.__file__}"

WORKLOADS = ("corpus", "qos_stream", "stalled_subscriber")
SETUP_REPEATS = 5
# Every invocation must exit within 180 s.
INVOCATION_BUDGET_S = 165.0

# The gated end-to-end set in BENCHMARK.json.  Every workload must report
# every one of them, so the two verdict metrics are slots each workload
# fills with its own time to verdict (bench/README.md has the table):
#   verdict_s       corpus, qos_stream: `mqttprobe run` spawn to exit, median
#                   stalled_subscriber: liveness-probe latency, median
#   verdict_tail_s  the slowest `run` child; the probes' p95
#   peak_rss_mb     the largest mqttprobe child process
# deliveries_per_s is reported but not gated: it moves by a fifth between
# runs of the same code (see bench/README.md).
END_TO_END = {"setup_s": "s", "verdict_s": "s", "verdict_tail_s": "s",
              "peak_rss_mb": "MiB"}
# The layer metrics that every workload measures; the report adds the
# ones that only some workloads exercise.
PER_LAYER_SHARED = (
    "runner.probe_ms", "runner.aborted", "runner.errors", "oracle.false_positives",
    "codec.decode_us.connect", "codec.decode_us.connack", "codec.decode_us.subscribe",
    "codec.decode_us.publish", "codec.decode_us.publish_large",
    "codec.encode_us.connect", "codec.encode_us.connack", "codec.encode_us.subscribe",
    "codec.encode_us.publish", "codec.stream_decode_frames_per_s",
    "topics.match_us", "topics.validate_us",
    "refbroker.route_us", "refbroker.cpu_s", "refbroker.rss_mb",
    "refbroker.stall_drops", "refbroker.stalled_bytes", "bench.tracing_overhead_s",
)
UNITS = {
    "wall_s": "s", "deliveries_per_s": "1/s", "probe_p50_ms": "ms", "probe_p95_ms": "ms",
    "failed_share": "ratio",
    "runner.experiment_s": "s", "runner.scripted_sleep_s": "s", "runner.sleep_share": "ratio",
    "runner.probe_ms": "ms", "runner.send_frames_per_s": "1/s",
    "runner.recv_frames_per_s": "1/s", "runner.cpu_s": "s", "runner.events": "count",
    "runner.events_per_delivery": "ratio", "runner.trace_write_s": "s",
    "runner.trace_read_s": "s", "runner.aborted": "count", "runner.errors": "count",
    "oracle.evaluate_s": "s", "oracle.evaluate_calls": "1/trace",
    "oracle.us_per_delivery": "us", "oracle.fingerprint_s": "s",
    "oracle.false_positives": "count",
    "experiment.parse_s": "s", "experiment.expand_s": "s", "experiment.expand_calls": "count",
    "corpus.hash_ms": "ms", "cli.self_s": "s",
    "codec.stream_decode_frames_per_s": "1/s",
    "topics.match_us": "us", "topics.validate_us": "us",
    "refbroker.route_us": "us", "refbroker.cpu_s": "s", "refbroker.rss_mb": "MiB",
    "refbroker.stall_drops": "count", "refbroker.stalled_bytes": "bytes",
    "bench.late_ms_p95": "ms", "bench.tracing_overhead_s": "s",
}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.startswith("codec.") and "_us." in name:
        return "us"
    return UNITS[name]


@dataclass
class Metric:
    value: float
    n: int = 1
    high: tuple[str, float] | None = None  # (label, value) of a high percentile


@dataclass
class Result:
    workload: str
    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0  # scenarios for the `run` workloads, probes for stalled_subscriber
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    kept: list[str] = field(default_factory=list)

    def add(self, values: dict[str, float]) -> None:
        for key, value in values.items():
            self.metrics[key] = Metric(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pace", type=int,
                        help="qos_stream publishes between waits; 0 for none")
    args = parser.parse_args()
    if MISSING is not None:
        print(f"bench: cannot import mqttprobe from {SRC} ({MISSING}); "
              f"run from a full checkout", file=sys.stderr)
        return 2
    if args.pace is None:
        args.pace = workloads.STREAM_PACE
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    line = None
    for name in names:
        line = emit(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                 args.pace), args)
    print(json.dumps(line))
    return 0


# --- set-up -------------------------------------------------------------------

@dataclass
class Inputs:
    argv: list[str]
    digest: str
    stream: workloads.Stream | None = None
    frames: list[bytes] | None = None


def make_inputs(name: str, seed: int, pace: int, work: str) -> Inputs:
    if name == "corpus":
        return Inputs(argv=["--corpus"], digest="builtin")
    if name == "qos_stream":
        stream = workloads.qos_stream(seed, pace)
        path = os.path.join(work, "qos_stream.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(stream.document)
        return Inputs(argv=["--experiment", path], stream=stream,
                      digest=hashlib.sha256(stream.document.encode()).hexdigest())
    frames = workloads.stall_frames(seed)
    return Inputs(argv=[], frames=frames,
                  digest=hashlib.sha256(b"".join(frames)).hexdigest())


def setup(name: str, seed: int, pace: int, work: str, repeats: int,
          result: Result) -> tuple[harness.Broker, Inputs]:
    """Generate inputs and start a broker, ``repeats`` times; keep the last.

    Set-up time runs from generating the inputs to the broker's first
    CONNACK.  Every repeat must produce byte-identical inputs.
    """
    samples = []
    digests = set()
    broker = None
    for i in range(repeats):
        if broker is not None:
            broker.stop()
        start = time.monotonic()
        inputs = make_inputs(name, seed, pace, work)
        broker = harness.Broker.start(os.path.join(work, f"broker-setup{i}.err"))
        samples.append(time.monotonic() - start)
        digests.add(inputs.digest)
    if len(digests) != 1:
        result.problems.append(f"seed {seed} generated {len(digests)} different inputs")
    result.metrics["setup_s"] = Metric(statistics.median(samples), n=len(samples))
    return broker, inputs


# --- runs of `mqttprobe run` ----------------------------------------------------

@dataclass
class Iteration:
    directory: str
    done: harness.Exit
    spans: list | None = None


def run_iteration(broker: harness.Broker, inputs: Inputs, directory: str, traced: bool,
                  deadline: float) -> Iteration:
    """One `mqttprobe run` child against ``broker``, as the README runs it."""
    os.makedirs(directory, exist_ok=True)
    argv = ["run", "--target", broker.target, *inputs.argv, "--format", "json",
            "--output", os.path.join(directory, "report.json"),
            "--traces", os.path.join(directory, "traces")]
    spans_path = os.path.join(directory, "spans.json")
    done = harness.run_cli(argv, os.path.join(directory, "run.err"),
                           deadline_s=max(1.0, deadline - time.monotonic()),
                           entry=[TRACED_CLI, spans_path] if traced else None)
    spans = None
    if traced and os.path.exists(spans_path):
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)
    return Iteration(directory, done, spans)


@dataclass
class Checked:
    deliveries: int = 0
    window_s: float = 0.0
    report: dict | None = None


def check_iteration(name: str, it: Iteration, inputs: Inputs, result: Result) -> Checked:
    """Count failed scenarios and record output inconsistencies.

    A failure is a verdict other than the clean one a conformant broker
    earns; it is counted, never retried, and its report and traces are
    kept.  A problem is an output that contradicts the benchmark's own
    recount from the traces, and makes the run incorrect.
    """
    checked = Checked()
    failures: list[str] = []
    problems: list[str] = []
    if it.done.timed_out:
        problems.append("run child killed at the deadline")
    try:
        with open(os.path.join(it.directory, "report.json"), encoding="utf-8") as handle:
            checked.report = json.load(handle)
    except (OSError, ValueError) as exc:
        problems.append(f"no readable report: {exc}")
    scans = {}
    traces = os.path.join(it.directory, "traces")
    if os.path.isdir(traces):
        for entry in sorted(os.listdir(traces)):
            scan = layers.scan_trace(os.path.join(traces, entry))
            scans[scan.name] = scan
    scenarios = checked.report["scenarios"] if checked.report else []
    expected = len(corpus.builtin_corpus()) if name == "corpus" else 1
    result.attempted += expected
    if len(scenarios) != expected:
        problems.append(f"report has {len(scenarios)} scenarios, expected {expected}")

    worst = oracle.Severity.INFO
    for entry in scenarios:
        scenario = entry["experiment"]
        outcome = entry.get("outcome")
        scan = scans.get(scenario)
        reasons = []
        if entry.get("skipped") or outcome is None or scan is None:
            reasons.append(f"not evaluated ({entry.get('skipped') or entry.get('trace_outcome')})")
        else:
            checked.deliveries += len(scan.deliveries)
            checked.window_s += scan.delivery_window_s
            if len(outcome["delivered"]) != len(scan.deliveries):
                problems.append(f"{scenario}: report says {len(outcome['delivered'])} "
                                f"delivered, trace has {len(scan.deliveries)}")
            for anomaly in outcome["anomalies"]:
                worst = max(worst, oracle.Severity.from_label(anomaly["severity"]))
                if (scenario, anomaly["code"]) not in workloads.ALLOWED_FINDINGS:
                    reasons.append(f"{anomaly['code']} ({anomaly['severity']})")
            if name == "qos_stream":
                if entry["trace_outcome"] != runner.OUTCOME_COMPLETED:
                    reasons.append(f"outcome {entry['trace_outcome']}")
                want = Counter((t.encode().hex(), p.encode().hex())
                               for t, p in inputs.stream.published)
                got = Counter(scan.deliveries)
                if got != want:
                    reasons.append(f"delivered {sum((got & want).values())} of "
                                   f"{sum(want.values())} published messages "
                                   f"({sum((got - want).values())} extra)")
            elif scenario == workloads.FLOOD_SCENARIO and \
                    len(scan.deliveries) != workloads.FLOOD_COUNT:
                reasons.append(f"flood delivered {len(scan.deliveries)} of "
                               f"{workloads.FLOOD_COUNT}")
        if reasons:
            failures.append(f"{scenario}: {'; '.join(reasons)}")

    if checked.report:
        if checked.report["exit_code"] != it.done.code:
            problems.append(f"report exit_code {checked.report['exit_code']} but "
                            f"the process exited {it.done.code}")
        if (it.done.code == 2) != (worst >= oracle.Severity.DOS):
            problems.append(f"exit code {it.done.code} disagrees with worst "
                            f"severity {worst.label}")
        if name == "corpus" and checked.report["corpus_hash"] != workloads.CORPUS_HASH:
            problems.append(f"corpus hash {checked.report['corpus_hash']}")
    if it.done.code != 0 and not failures:
        failures.append(f"exit code {it.done.code}")

    result.failed += len(failures) if name == "corpus" else min(1, len(failures))
    result.problems.extend(problems)
    if failures or problems:
        kept = os.path.join(OUT, "kept", os.path.basename(os.path.dirname(it.directory))
                            + "-" + os.path.basename(it.directory))
        shutil.rmtree(kept, ignore_errors=True)
        shutil.copytree(it.directory, kept)
        result.kept.append(kept)
        for line in failures + problems:
            print(f"bench: {name}: {line} (kept in {kept})", file=sys.stderr)
    return checked


def measure_runs(name: str, broker: harness.Broker, inputs: Inputs, work: str,
                 seconds: int, result: Result, deadline: float) -> None:
    """Back-to-back `run` children until the next would overrun ``seconds``."""
    iterations: list[tuple[Iteration, Checked]] = []
    started = time.monotonic()
    while True:
        begun = time.monotonic()
        it = run_iteration(broker, inputs, os.path.join(work, f"run{len(iterations)}"),
                           traced=False, deadline=deadline)
        checked = check_iteration(name, it, inputs, result)
        shutil.rmtree(it.directory, ignore_errors=True)
        iterations.append((it, checked))
        took = time.monotonic() - begun
        elapsed = time.monotonic() - started
        if elapsed + took > seconds or took * 1.2 > deadline - time.monotonic():
            break
    broker_exit = broker.stop()
    walls = [it.done.wall_s for it, _ in iterations]
    n = len(walls)
    # The delivery rate switches between modes from one `run` child to
    # the next, so it is pooled over the children.
    window = sum(c.window_s for _, c in iterations)
    result.metrics["wall_s"] = Metric(statistics.median(walls), n=n, high=("max", max(walls)))
    result.metrics["verdict_s"] = Metric(statistics.median(walls), n=n)
    result.metrics["verdict_tail_s"] = Metric(max(walls), n=n)
    result.metrics["deliveries_per_s"] = Metric(
        sum(c.deliveries for _, c in iterations) / window if window else 0.0, n=n)
    result.metrics["peak_rss_mb"] = Metric(
        max([it.done.maxrss_mb for it, _ in iterations] + [broker_exit.maxrss_mb]), n=n + 1)


def trace_runs(name: str, broker: harness.Broker, inputs: Inputs, work: str,
               result: Result, deadline: float) -> None:
    """One untraced and one traced `run`, then the layer measurements."""
    plain = run_iteration(broker, inputs, os.path.join(work, "untraced"), False, deadline)
    check_iteration(name, plain, inputs, result)
    broker.stop()
    broker = harness.Broker.start(os.path.join(work, "broker-traced.err"))
    try:
        traced = run_iteration(broker, inputs, os.path.join(work, "traced"), True, deadline)
    finally:
        broker_exit = broker.stop()
    checked = check_iteration(name, traced, inputs, result)

    recording = layers.Recording()
    traces = []
    read_s = 0.0
    trace_dir = os.path.join(traced.directory, "traces")
    for entry in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, entry), encoding="utf-8") as handle:
            text = handle.read()
        start = time.perf_counter()
        trace = runner.trace_from_jsonl(text)
        read_s += time.perf_counter() - start
        traces.append(trace)
        layers.record_trace(recording, trace)
    if name == "corpus":
        experiments = corpus.builtin_corpus()
    else:
        experiments = [experiment.parse_experiment(inputs.stream.document)]

    events = sum(len(t.events) for t in traces)
    sleep_s = layers.scripted_sleep_s(experiments)
    scenarios = checked.report["scenarios"] if checked.report else []
    spans = layers.span_metrics(traced.spans or [], len(traces), checked.deliveries)
    result.add(spans)
    result.add({
        "runner.scripted_sleep_s": sleep_s,
        "runner.sleep_share": sleep_s / spans["runner.experiment_s"]
        if spans["runner.experiment_s"] else 0.0,
        "runner.send_frames_per_s": layers.frame_rate(traces, runner.K_SENT),
        "runner.recv_frames_per_s": layers.frame_rate(traces, runner.K_RECEIVED),
        "runner.cpu_s": traced.done.cpu_s,
        "runner.events": float(events),
        "runner.events_per_delivery": events / checked.deliveries if checked.deliveries else 0.0,
        "runner.trace_read_s": read_s,
        "runner.aborted": float(sum(t.outcome == runner.OUTCOME_ABORTED_BY_PEER for t in traces)),
        "runner.errors": float(sum(s.get("trace_outcome") == runner.OUTCOME_RUNNER_ERROR
                                   for s in scenarios)),
        "oracle.false_positives": float(sum(
            a["severity"] != "info" for s in scenarios
            for a in (s.get("outcome") or {}).get("anomalies", []))),
        "refbroker.cpu_s": broker_exit.cpu_s,
        "refbroker.rss_mb": broker_exit.maxrss_mb,
        "refbroker.stall_drops": 0.0,
        "refbroker.stalled_bytes": 0.0,
        "bench.tracing_overhead_s": traced.done.wall_s - plain.done.wall_s,
    })
    result.add(layers.replay_metrics(recording))


# --- stalled_subscriber -----------------------------------------------------------

@dataclass
class StallWindow:
    probes: workloads.ProbeLog
    stall: workloads.Stall
    broker_exit: harness.Exit

    @property
    def p50_ms(self) -> float:
        return statistics.median(self.probes.latency_ms)


def stall_window(broker: harness.Broker, frames: list[bytes], window_s: float,
                 result: Result, probe=None) -> StallWindow:
    """Open-loop probes for ``window_s`` while the stall client runs; stops the broker."""
    stall = workloads.Stall(broker.endpoint, frames)
    log = workloads.ProbeLog()
    stall.start()
    try:
        workloads.probe_open_loop(broker.endpoint, window_s, log,
                                  probe or runner.probe_liveness)
    finally:
        try:
            stall.stop()
        finally:
            broker_exit = broker.stop()
    probes = len(log.latency_ms)
    result.attempted += probes
    result.failed += log.failed
    if log.bad_reply:
        result.problems.append(f"{log.bad_reply} probes got a CONNACK refusal")
    if stall.log.connects == 0:
        result.problems.append(f"stall client never connected: {stall.error}")
    if log.failed:
        print(f"bench: stalled_subscriber: {log.failed} of {probes} probes failed",
              file=sys.stderr)
    return StallWindow(probes=log, stall=stall, broker_exit=broker_exit)


def measure_stall(broker: harness.Broker, inputs: Inputs, seconds: int,
                  result: Result) -> None:
    w = stall_window(broker, inputs.frames, seconds, result)
    latencies = w.probes.latency_ms
    n = len(latencies)
    p95 = workloads.percentile(latencies, 95)
    result.metrics["probe_p50_ms"] = Metric(w.p50_ms, n=n)
    result.metrics["probe_p95_ms"] = Metric(
        p95, n=n, high=("p99", workloads.percentile(latencies, 99)))
    result.metrics["verdict_s"] = Metric(w.p50_ms / 1000, n=n)
    result.metrics["verdict_tail_s"] = Metric(p95 / 1000, n=n)
    result.metrics["peak_rss_mb"] = Metric(w.broker_exit.maxrss_mb)


def trace_stall(broker: harness.Broker, inputs: Inputs, work: str, seconds: int,
                result: Result) -> None:
    """Half the window untraced, half with spans around the probes."""
    plain = stall_window(broker, inputs.frames, seconds / 2, result)
    spans = Spans()
    traced = stall_window(harness.Broker.start(os.path.join(work, "broker-traced.err")),
                          inputs.frames, seconds / 2, result,
                          probe=spans.wrap("probe_liveness", runner.probe_liveness))
    drops = traced.stall.log.drop_bytes
    result.add({
        "runner.probe_ms": statistics.median(e - s for _, s, e, _ in spans.spans) * 1000,
        "runner.aborted": 0.0,
        "runner.errors": 0.0,
        "oracle.false_positives": 0.0,
        "refbroker.cpu_s": traced.broker_exit.cpu_s,
        "refbroker.rss_mb": traced.broker_exit.maxrss_mb,
        "refbroker.stall_drops": float(len(drops)),
        "refbroker.stalled_bytes": float(statistics.median(drops)) if drops else 0.0,
        "bench.late_ms_p95": workloads.percentile(traced.probes.late_ms, 95),
        "bench.tracing_overhead_s": (traced.p50_ms - plain.p50_ms) / 1000,
    })
    result.add(layers.replay_metrics(layers.record_stall(inputs.frames)))


# --- one workload ---------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: int, trace: bool, pace: int) -> Result:
    deadline = time.monotonic() + INVOCATION_BUDGET_S
    result = Result(workload=name)
    work = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    broker, inputs = setup(name, seed, pace, work, 1 if trace else SETUP_REPEATS, result)
    try:
        if name == "stalled_subscriber" and trace:
            trace_stall(broker, inputs, work, seconds, result)
        elif name == "stalled_subscriber":
            measure_stall(broker, inputs, seconds, result)
        elif trace:
            trace_runs(name, broker, inputs, work, result, deadline)
        else:
            measure_runs(name, broker, inputs, work, seconds, result, deadline)
    finally:
        broker.stop()
    shutil.rmtree(work, ignore_errors=True)
    return result


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    """Identifies the code measured where there is no git commit."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "mqttprobe")
    for entry in sorted(os.listdir(package)):
        if entry.endswith(".py"):
            with open(os.path.join(package, entry), "rb") as handle:
                digest.update(entry.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def emit(result: Result, args: argparse.Namespace) -> dict:
    """Print the human-readable table, write the BENCH file, return the JSON line."""
    meta = {"workload": result.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "pace": args.pace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": _commit(), "src_sha256": _src_digest(),
            "corpus_hash": corpus.corpus_hash()}
    result.metrics["failed_share"] = Metric(
        result.failed / result.attempted if result.attempted else 1.0, n=result.attempted)
    print(f"# {result.workload}: seed {args.seed}, {args.seconds} s, trace {args.trace}, "
          f"python {meta['python']}, nproc {meta['nproc']}, commit {meta['commit']}")
    # Gated metrics first, then each workload's own end-to-end names, then layers.
    for key in sorted(result.metrics,
                      key=lambda k: (k not in END_TO_END, "." in k, k)):
        metric = result.metrics[key]
        high = f"  {metric.high[0]} {metric.high[1]:.6g}" if metric.high else ""
        print(f"{key:36s} {metric.value:14.6g} {unit_of(key):7s} n={metric.n}{high}")
    print(f"# attempted {result.attempted}, failed {result.failed}, "
          f"problems {len(result.problems)}")
    for problem in result.problems:
        print(f"# problem: {problem}")
    wanted = PER_LAYER_SHARED if args.trace else tuple(END_TO_END)
    missing = [k for k in wanted if k not in result.metrics]
    if missing:
        result.problems.append(f"missing metrics {missing}")
        print(f"# problem: missing metrics {missing}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"BENCH_{result.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "attempted": result.attempted, "failed": result.failed,
                   "problems": result.problems, "kept": result.kept,
                   "metrics": {k: {"value": m.value, "unit": unit_of(k), "n": m.n,
                                   **({"high": list(m.high)} if m.high else {})}
                               for k, m in result.metrics.items()}},
                  handle, indent=2)
    return {
        "correct": not result.problems and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": result.metrics[k].value, "unit": unit_of(k)}
                    for k in wanted if k in result.metrics},
    }


if __name__ == "__main__":
    sys.exit(main())
