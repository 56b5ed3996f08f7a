"""Command-line entry point.

Subcommands: run (execute experiments against a target and report),
diff (compare two behavior profiles, live or documented), serve (start
the bundled reference broker), corpus (inspect the built-in corpus).

Each command loads only what it runs.  This module holds the parser,
``main`` and serve, and imports only the standard library.  serve loads
the reference broker (with the codec and topic rules) and none of the
fuzzer or the experiment parser.  run, diff and corpus live in
``fuzzer``, which ``main`` imports for them alone; run never loads the
reference broker, and only diff loads the documented profiles.

Every flag with an environment twin reads it as its default:
MQTTPROBE_TARGET, MQTTPROBE_FORMAT, MQTTPROBE_SETTLE_MS,
MQTTPROBE_FAIL_ON, MQTTPROBE_HOST, MQTTPROBE_PORT.  A twin's value is
checked as the flag's would be.

Exit codes: 0 clean, 1 local error (unreachable target, bad arguments,
bind failure, a crashed broker loop), 2 anomalies at or above the
--fail-on threshold.
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys

from . import __version__

EXIT_CLEAN = 0
EXIT_LOCAL_ERROR = 1
EXIT_ANOMALIES = 2


def _env(name: str, default: str | None = None) -> str | None:
    return os.environ.get(f"MQTTPROBE_{name}", default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqttprobe",
        description="Differential conformance fuzzer for MQTT 3.1.1 brokers.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run experiments against a broker")
    run_p.add_argument("--target", default=_env("TARGET"),
                       help="broker endpoint as host:port")
    run_p.add_argument("--corpus", action="store_true",
                       help="run the built-in corpus")
    run_p.add_argument("--experiment", action="append", default=[],
                       metavar="FILE", help="experiment JSON file (repeatable)")
    run_p.add_argument("--format", choices=("json", "md"),
                       default=_env("FORMAT", "md"))
    # A string default (an environment twin) goes through ``type`` too.
    run_p.add_argument("--settle-ms", type=_settle_ms,
                       default=_env("SETTLE_MS"), metavar="MS",
                       help="override every experiment's settle window")
    run_p.add_argument("--fail-on", choices=("warning", "dos", "critical"),
                       default=_env("FAIL_ON", "dos"),
                       help="anomaly severity that makes the exit code 2")
    run_p.add_argument("--label", default=None,
                       help="broker label for the fingerprint (default: target)")
    run_p.add_argument("--output", metavar="FILE",
                       help="also write the report to this file")
    run_p.add_argument("--traces", metavar="DIR",
                       help="write one JSONL trace file per experiment")

    diff_p = sub.add_parser("diff", help="compare two behavior profiles")
    diff_p.add_argument("sources", nargs=2, metavar="SOURCE",
                        help="documented broker label, or host:port of a "
                             "live broker to fingerprint first")
    diff_p.add_argument("--format", choices=("json", "md"),
                        default=_env("FORMAT", "md"))

    serve_p = sub.add_parser("serve", help="run the reference broker")
    serve_p.add_argument("--host", default=_env("HOST", "127.0.0.1"))
    serve_p.add_argument("--port", type=_int_within(65_535), default=_env("PORT", "1883"))

    corpus_p = sub.add_parser("corpus", help="inspect the built-in corpus")
    corpus_p.add_argument("--show", metavar="NAME",
                          help="print one experiment as JSON")
    corpus_p.add_argument("--hash", action="store_true",
                          help="print the corpus hash")
    return parser


def _int_within(high: int):
    """An argparse type: an integer in ``0..high``, as a settle_ms or a port keeps."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if not 0 <= value <= high:
            raise argparse.ArgumentTypeError(f"{value} is outside 0..{high}")
        return value
    return parse


def _settle_ms(text: str) -> int:
    """The --settle-ms type, bounded as a script's own settle_ms; read only for run."""
    from .experiment import MAX_SETTLE_MS
    return _int_within(MAX_SETTLE_MS)(text)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # Usage problems are local errors; exit 2 is reserved for findings.
        code = exc.code if isinstance(exc.code, int) else 1
        return EXIT_CLEAN if code == 0 else EXIT_LOCAL_ERROR
    try:
        if args.command == "serve":
            return cmd_serve(args)
        if args.command == "run":
            return cmd_run(args)
        from . import fuzzer
        return fuzzer.cmd_diff(args) if args.command == "diff" else fuzzer.cmd_corpus(args)
    except Exception as exc:
        if not isinstance(exc, OSError):
            # Only a fuzzer command raises the fuzzer's own errors: it is loaded by now.
            from .fuzzer import LOCAL_ERRORS
            if not isinstance(exc, LOCAL_ERRORS):
                raise
        print(f"mqttprobe: error: {exc}", file=sys.stderr)
        return EXIT_LOCAL_ERROR


# --- run / serve -----------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    from . import fuzzer  # the runner and the oracle load here, never for serve
    return fuzzer.cmd_run(args)


def cmd_serve(args: argparse.Namespace) -> int:
    from . import refbroker  # run never loads the broker
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(asctime)s %(name)s %(message)s")
    try:
        broker = refbroker.serve(host=args.host, port=args.port)
    except refbroker.BrokerBindError as exc:
        print(f"mqttprobe: error: {exc}", file=sys.stderr)
        return EXIT_LOCAL_ERROR
    stopping = False

    def interrupt(signum: int, frame: object) -> None:
        # SIGTERM stops the broker as Ctrl-C does; a later signal cannot cut
        # the stop short.  The handler stays installed: one swapped for
        # SIG_IGN while a signal is pending raises in whatever code runs.
        nonlocal stopping
        if not stopping:
            stopping = True
            raise KeyboardInterrupt

    try:
        # Announced only once a signal stops the broker cleanly: a supervisor
        # may signal as soon as it reads the line.
        signal.signal(signal.SIGINT, interrupt)
        signal.signal(signal.SIGTERM, interrupt)
        print(f"mqttprobe: reference broker listening on "
              f"{args.host}:{broker.port}", file=sys.stderr, flush=True)
        broker.join()  # a signal interrupts the join; only a crash ends it
        print("mqttprobe: error: the broker loop ended (event=loop-crash)",
              file=sys.stderr, flush=True)
        return EXIT_LOCAL_ERROR
    except KeyboardInterrupt:
        pass
    finally:
        broker.stop()
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
