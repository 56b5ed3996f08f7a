"""Run the mqttprobe CLI with spans around the public calls cmd_run makes.

    python3 bench/traced_cli.py SPANS.json run --target HOST:PORT ...

Every module alias of a traced function (cli imports several by name,
runner and oracle import expand_steps) is replaced by one wrapper, so a
call is recorded whichever name it goes through.  Spans are
[name, start_s, end_s, parent_index] with parent -1 at the root; they
stay in memory and are written once the command returns.  The program's
own modules are not edited.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from mqttprobe import cli, corpus, experiment, oracle, runner  # noqa: E402

TRACED = ("cmd_run", "run_corpus", "run_experiment", "probe_liveness",
          "fingerprint", "evaluate_trace", "trace_to_jsonl", "parse_experiment",
          "expand_steps", "corpus_hash")
MODULES = (cli, corpus, experiment, oracle, runner)


class Spans:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()
        return traced

    def install(self) -> None:
        for name in TRACED:
            originals = {getattr(m, name) for m in MODULES if hasattr(m, name)}
            if len(originals) != 1:
                raise SystemExit(f"traced_cli: {name} resolves to {len(originals)} functions")
            wrapper = self.wrap(name, originals.pop())
            for module in MODULES:
                if hasattr(module, name):
                    setattr(module, name, wrapper)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    spans = Spans()
    spans.install()
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(spans.spans, handle)


if __name__ == "__main__":
    sys.exit(main())
