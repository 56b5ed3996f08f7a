"""The fuzzer's commands: run, diff and corpus, and the reports run writes.

``cli.main`` imports this module only for these commands, so the
reference broker's process never loads the runner, the oracle, the
corpus or hashlib.  diff alone loads the documented profiles.  run and a
live diff source take one judged path: ``runner.run_corpus``, then
``oracle.fingerprint``.
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

from . import __version__
from .cli import EXIT_ANOMALIES, EXIT_CLEAN, EXIT_LOCAL_ERROR
from .corpus import builtin_corpus, corpus_by_name, corpus_hash
from .experiment import Experiment, ExperimentError, parse_experiment, render_experiment
from .oracle import (
    SEVERITY_BY_CODE,
    BehaviorProfile,
    NoOverlapError,
    Severity,
    diff_profiles,
    fingerprint,
    outcome_to_obj,
    profile_to_obj,
)
from .runner import Endpoint, RunnerError, probe_liveness, run_corpus
from .trace import CorpusResult

# What main reports as a local error (exit 1) besides an OSError.
LOCAL_ERRORS = (RunnerError, ExperimentError, NoOverlapError)
JSON_CHUNK_ROWS = 64  # list items a report write holds at most


# --- run -------------------------------------------------------------------

def _load_experiments(args: argparse.Namespace) -> list[Experiment]:
    experiments: list[Experiment] = []
    if args.corpus:
        experiments.extend(builtin_corpus())
    for path in args.experiment:
        with open(path, "r", encoding="utf-8") as handle:
            experiments.append(parse_experiment(handle))
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
    endpoint = _answering(args.target)
    results = list(run_corpus(_released(experiments), endpoint, args.traces or None))
    label = args.label or args.target
    profile = fingerprint(results, broker_label=label)

    threshold = Severity.from_label(args.fail_on)
    exit_code = EXIT_ANOMALIES if _worst_severity(profile) >= threshold else EXIT_CLEAN
    if args.format == "json":
        report = _json_report(args.target, results, profile, args.fail_on, exit_code)
        chunks = itertools.chain(json_chunks(report), ("\n",))
    else:
        chunks = [_md_report(label, results, profile)]
    _write_report(chunks, args.output)
    return exit_code


def _answering(target: str) -> Endpoint:
    """The endpoint ``target`` names, once it answers a liveness probe."""
    endpoint = Endpoint.parse(target)
    probe = probe_liveness(endpoint)
    if not probe.alive:
        raise RunnerError(f"target {endpoint.label} is not answering: {probe.detail}")
    return endpoint


def _released(experiments: list[Experiment]) -> Iterator[Experiment]:
    """Hand over the experiments in order, holding none already handed over."""
    experiments.reverse()
    while experiments:
        yield experiments.pop()


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


def json_chunks(value: object, pad: str = "\n") -> Iterator[str]:
    """``json.dumps(value, indent=2)`` at ``pad``, each part as it is rendered; keys are str.

    A part is a bracket or a separator with its key, a scalar, or a run
    of up to JSON_CHUNK_ROWS list items that ``_flat_text`` joins.
    """
    inner = pad + "  "
    if isinstance(value, dict) and value:
        separator = "{" + inner
        for key, item in value.items():
            yield separator + _json_str(key) + ": "
            yield from json_chunks(item, inner)
            separator = "," + inner
        yield pad + "}"
    elif isinstance(value, (list, tuple)) and value:
        separator = "[" + inner
        for start in range(0, len(value), JSON_CHUNK_ROWS):
            run = value[start:start + JSON_CHUNK_ROWS]
            if (flat := _flat_text(run, inner, "  ")) is not None:
                yield separator + flat
                separator = "," + inner
                continue
            for item in run:
                yield separator
                yield from json_chunks(item, inner)
                separator = "," + inner
        yield pad + "]"
    else:
        yield _SCALAR_TEXT.get(type(value), json.dumps)(value)


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


def _json_report(target: str, results: list[CorpusResult], profile: BehaviorProfile,
                 fail_on: str, exit_code: int) -> dict:
    scenarios = []
    for result in results:
        entry: dict = {"experiment": result.experiment.name,
                       "skipped": result.skipped,
                       "liveness": {"alive": result.liveness.alive,
                                    "detail": result.liveness.detail}}
        if result.trace is not None:
            entry["trace_outcome"] = result.trace.outcome
            if result.outcome is not None:
                entry["outcome"] = outcome_to_obj(result.outcome,
                                                  profile.outcomes[entry["experiment"]])
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


def _md_report(label: str, results: list[CorpusResult], profile: BehaviorProfile) -> str:
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
    for result in results:
        name, outcome = result.experiment.name, result.outcome
        skipped = profile.outcomes[name].skipped  # set for every result without an outcome
        if skipped is not None:
            lines.append(f"- `{name}`: skipped ({skipped})")
            continue
        detail = "; ".join(f"{a.code} ({a.severity.label}): {a.explanation}"
                           for a in outcome.anomalies) or "clean"
        lines.append(f"- `{name}`: {detail} "
                     f"[delivered={len(outcome.delivered)}, outcome={result.trace.outcome}]")
    return "\n".join(lines) + "\n"


# --- diff ------------------------------------------------------------------

def _resolve_profile(source: str) -> BehaviorProfile:
    """A diff source is a documented broker label or a live host:port."""
    from . import profiles  # the documented profiles: only diff reads them
    documented = profiles.documented_profiles()
    if source in documented:
        return documented[source]
    endpoint, by_name = _answering(source), corpus_by_name()
    return fingerprint(run_corpus([by_name[name] for name in profiles.PROFILED_SCENARIOS],
                                  endpoint), broker_label=source)


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
