"""The fuzzer's commands: run, diff and corpus, and the reports run writes.

``cli.main`` imports this module only for these commands, so the
reference broker's process never loads the runner, the oracle, the
corpus or hashlib.  diff alone loads the documented profiles.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import sys
import time
from collections.abc import Iterable, Iterator, Sequence
from json.encoder import encode_basestring_ascii as _json_str

from . import __version__, oracle
from .cli import EXIT_ANOMALIES, EXIT_CLEAN, EXIT_LOCAL_ERROR
from .corpus import builtin_corpus, corpus_by_name, corpus_hash
from .experiment import Experiment, ExperimentError, parse_experiment, render_experiment
from .oracle import (
    SEVERITY_BY_CODE,
    BehaviorProfile,
    NoOverlapError,
    ScenarioOutcome,
    Severity,
    diff_profiles,
    evaluate_result,
    fingerprint,
    fingerprint_outcomes,
    outcome_to_obj,
    profile_to_obj,
)
from .runner import Endpoint, RunnerError, probe_liveness, run_corpus, run_in_turn
from .trace import CorpusResult

# What main reports as a local error (exit 1) besides an OSError.
LOCAL_ERRORS = (RunnerError, ExperimentError, NoOverlapError)
JSON_CHUNK_ROWS = 64  # strings (a key, a scalar, a row of scalars) per report write


# --- run -------------------------------------------------------------------

def _load_experiments(args: argparse.Namespace) -> list[Experiment]:
    experiments: list[Experiment] = []
    if args.corpus:
        experiments.extend(builtin_corpus())
    for path in args.experiment:
        with open(path, "r", encoding="utf-8") as handle:
            experiments.append(parse_experiment(handle.read()))
    if args.settle_ms is not None:
        experiments = [dataclasses.replace(e, settle_ms=args.settle_ms)
                       for e in experiments]
    names: set[str] = set()
    for experiment in experiments:  # a name is a trace file and a profile key
        if experiment.name in names:
            raise ExperimentError(f"experiment name {experiment.name!r} is used twice")
        names.add(experiment.name)
    return experiments


def cmd_run(args: argparse.Namespace) -> int:
    if not args.target:
        print("mqttprobe: error: --target is required (or MQTTPROBE_TARGET)",
              file=sys.stderr)
        return EXIT_LOCAL_ERROR
    experiments = _load_experiments(args)
    if not experiments:
        print("mqttprobe: error: nothing to run; pass --corpus or --experiment",
              file=sys.stderr)
        return EXIT_LOCAL_ERROR
    endpoint = Endpoint.parse(args.target)
    first_probe = probe_liveness(endpoint)
    if not first_probe.alive:
        print(f"mqttprobe: error: target {endpoint.label} is not answering: "
              f"{first_probe.detail}", file=sys.stderr)
        return EXIT_LOCAL_ERROR

    # map frees each full result once judged; a loop variable would hold it.
    results, outcomes = zip(*map(_judge, run_in_turn(_released(experiments), endpoint,
                                                     args.traces or None, oracle.Judge)))
    label = args.label or args.target
    profile = fingerprint_outcomes(results, outcomes, broker_label=label)

    threshold = Severity.from_label(args.fail_on)
    exit_code = EXIT_ANOMALIES if _worst_severity(profile) >= threshold else EXIT_CLEAN
    if args.format == "json":
        report = _json_report(args.target, results, outcomes, profile,
                              args.fail_on, exit_code)
        chunks = itertools.chain(json_chunks(report), ("\n",))
    else:
        chunks = [_md_report(label, results, outcomes, profile)]
    _write_report(chunks, args.output)
    return exit_code


def _released(experiments: list[Experiment]) -> Iterator[Experiment]:
    """Hand over the experiments in order, holding none already handed over."""
    experiments.reverse()
    while experiments:
        yield experiments.pop()


def _judge(result: CorpusResult) -> tuple[CorpusResult, ScenarioOutcome | None]:
    """Finish the run's judge; keep what the reports read, not the script or the judge."""
    outcome = evaluate_result(result)
    return dataclasses.replace(result, experiment=Experiment(result.experiment.name),
                               judge=None), outcome


def _write_report(chunks: Iterable[str], output: str | None) -> None:
    """Write the report to stdout and, if given, to ``output`` chunk by chunk."""
    with open(output, "w", encoding="utf-8") if output else contextlib.nullcontext() as copy:
        for chunk in chunks:
            sys.stdout.write(chunk)
            if copy is not None:
                copy.write(chunk)


# Exact types whose JSON text is cheap to write; ``json.dumps`` writes the rest.
_SCALAR_TEXT = {str: _json_str, int: int.__repr__}
_ROW_TYPES = {list, tuple}


def _json_rows(value: object, pad: str, step: str, rows: list[str]) -> Iterator[str]:
    """Append ``value``'s text at ``pad`` to ``rows``, flat runs of a list as one string; yield chunks.

    A list is taken JSON_CHUNK_ROWS items at a time, and a full flat run
    is a chunk of its own.
    """
    inner = pad + step
    if isinstance(value, dict) and value:
        brackets, keys, runs = "{}", [_json_str(key) + ": " for key in value], (value.values(),)
    elif isinstance(value, (list, tuple)) and value:
        brackets, keys = "[]", itertools.repeat("")
        runs = (value[start:start + JSON_CHUNK_ROWS]
                for start in range(0, len(value), JSON_CHUNK_ROWS))
    else:
        rows.append(_SCALAR_TEXT.get(type(value), json.dumps)(value))
        return
    separator = brackets[0] + inner
    for run in runs:
        flat = _flat_text(run, inner, step) if brackets == "[]" else None
        if flat is not None:
            rows.append(separator + flat)
            separator = "," + inner
            if len(run) == JSON_CHUNK_ROWS or len(rows) >= JSON_CHUNK_ROWS:
                yield "".join(rows)
                rows.clear()
            continue
        for item, key in zip(run, keys):
            rows.append(separator + key)
            yield from _json_rows(item, inner, step, rows)
            separator = "," + inner
            if len(rows) >= JSON_CHUNK_ROWS:
                yield "".join(rows)
                rows.clear()
    rows.append(pad + brackets[1])


def _flat_text(items: Sequence, pad: str, step: str) -> str | None:
    """List items at ``pad`` in one join when they are str and int, or rows of those of one width."""
    try:
        return f",{pad}".join([_SCALAR_TEXT[type(item)](item) for item in items])
    except KeyError:  # a container, or another scalar
        pass
    width = len(items[0]) if type(items[0]) in _ROW_TYPES else 0
    if not width or not {type(row) for row in items} <= _ROW_TYPES \
            or {len(row) for row in items} != {width}:
        return None
    try:
        cells = [_SCALAR_TEXT[type(cell)](cell) for row in items for cell in row]
    except KeyError:
        return None
    inner = pad + step
    texts = map(f",{inner}".join, zip(*[iter(cells)] * width))
    return f"[{inner}" + f"{pad}],{pad}[{inner}".join(texts) + f"{pad}]"


def json_chunks(value: object) -> Iterator[str]:
    """``json.dumps(value, indent=2)`` in chunks of JSON_CHUNK_ROWS strings; keys are str."""
    rows: list[str] = []
    yield from _json_rows(value, "\n", "  ", rows)
    yield "".join(rows)


def _worst_severity(profile: BehaviorProfile) -> Severity:
    worst = Severity.INFO
    for summary in profile.outcomes.values():
        for code in summary.anomalies:
            worst = max(worst, SEVERITY_BY_CODE[code])
    return worst


def _report_meta(target: str) -> dict:
    return {"tool": "mqttprobe", "version": __version__,
            "corpus_hash": corpus_hash(), "target": target,
            "generated_at": time.time()}


def _json_report(target: str, results: list[CorpusResult],
                 outcomes: list[ScenarioOutcome | None], profile: BehaviorProfile,
                 fail_on: str, exit_code: int) -> dict:
    scenarios = []
    for result, outcome in zip(results, outcomes):
        entry: dict = {"experiment": result.experiment.name,
                       "skipped": result.skipped,
                       "liveness": {"alive": result.liveness.alive,
                                    "detail": result.liveness.detail}}
        if result.trace is not None:
            entry["trace_outcome"] = result.trace.outcome
            if outcome is not None:
                entry["outcome"] = outcome_to_obj(outcome, profile.outcomes[entry["experiment"]])
        scenarios.append(entry)
    report = _report_meta(target)
    report.update({"fail_on": fail_on, "exit_code": exit_code,
                   "profile": profile_to_obj(profile), "scenarios": scenarios})
    return report


def _security_problems(profile: BehaviorProfile) -> str:
    worst = _worst_severity(profile)
    parts = []
    if worst >= Severity.DOS:
        parts.append("Possible denial of service")
    if any(SEVERITY_BY_CODE[code] == Severity.WARNING
           for summary in profile.outcomes.values()
           for code in summary.anomalies):
        parts.append("Possible unwanted application scenarios")
    return " and ".join(parts) + "." if parts else "None observed."


def _md_report(label: str, results: list[CorpusResult],
               outcomes: list[ScenarioOutcome | None], profile: BehaviorProfile) -> str:
    meta = _report_meta(label)
    findings = [f"{name}: {', '.join(summary.anomalies)}"
                for name, summary in sorted(profile.outcomes.items())
                if summary.anomalies]
    anomalies_cell = "; ".join(findings) if findings else "none"
    version_cell = profile.version or "-"
    lines = [
        f"# mqttprobe report",
        "",
        f"- tool version: {meta['version']}",
        f"- corpus hash: `{meta['corpus_hash']}`",
        f"- target: {meta['target']}",
        "",
        "| Broker | Anomalies found | Security problems | Version |",
        "| --- | --- | --- | --- |",
        f"| {label} | {anomalies_cell} | {_security_problems(profile)} "
        f"| {version_cell} |",
        "",
        "## Scenario detail",
        "",
    ]
    for result, outcome in zip(results, outcomes):
        name = result.experiment.name
        summary = profile.outcomes.get(name)
        if summary is None:
            continue
        if summary.skipped is not None:
            lines.append(f"- `{name}`: skipped ({summary.skipped})")
            continue
        if outcome is not None:
            detail = "; ".join(
                f"{a.code} ({a.severity.label}): {a.explanation}"
                for a in outcome.anomalies) or "clean"
            delivered = len(outcome.delivered)
            lines.append(f"- `{name}`: {detail} "
                         f"[delivered={delivered}, outcome={result.trace.outcome}]")
    return "\n".join(lines) + "\n"


# --- diff ------------------------------------------------------------------

def _resolve_profile(source: str) -> BehaviorProfile:
    """A diff source is a documented broker label or a live host:port."""
    from . import profiles  # the documented profiles: only diff reads them
    documented = profiles.documented_profiles()
    if source in documented:
        return documented[source]
    endpoint = Endpoint.parse(source)
    probe = probe_liveness(endpoint)
    if not probe.alive:
        raise RunnerError(f"target {endpoint.label} is not answering: "
                          f"{probe.detail}")
    scenario_set = [corpus_by_name()[name]
                    for name in profiles.PROFILED_SCENARIOS]
    results = run_corpus(scenario_set, endpoint)
    return fingerprint(results, broker_label=source)


def cmd_diff(args: argparse.Namespace) -> int:
    a, b = (_resolve_profile(source) for source in args.sources)
    divergences = diff_profiles(a, b)
    if args.format == "json":
        print(json.dumps({
            "tool": "mqttprobe", "version": __version__,
            "profile_a": a.broker_label, "profile_b": b.broker_label,
            "divergences": [{"scenario": name, "detail": text}
                            for name, text in divergences]}, indent=2))
    else:
        print(f"# profile diff: {a.broker_label} vs {b.broker_label}")
        if not divergences:
            print("no divergences")
        for name, text in divergences:
            print(f"- `{name}`: {text}")
    return EXIT_CLEAN


# --- corpus ----------------------------------------------------------------

def cmd_corpus(args: argparse.Namespace) -> int:
    if args.hash:
        print(corpus_hash())
        return EXIT_CLEAN
    if args.show:
        by_name = corpus_by_name()
        if args.show not in by_name:
            print(f"mqttprobe: error: no corpus experiment {args.show!r}",
                  file=sys.stderr)
            return EXIT_LOCAL_ERROR
        print(render_experiment(by_name[args.show]))
        return EXIT_CLEAN
    for experiment in builtin_corpus():
        print(f"{experiment.name}: {experiment.description}")
    return EXIT_CLEAN
