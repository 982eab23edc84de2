"""Child-process entry point: one ``slasim`` CLI invocation, observed.

    python3 perfbench/shim.py --stats STATS.json [--spans SPANS.jsonl] -- <slasim args>

Runs ``slasim.cli.main`` on the given arguments and exits with its code.  It
always times the set-up part of ``run`` (from the ``load_config`` call to the
return of ``generate_trace``) with two wrappers that run once each; with
``--spans`` it also installs the layer tracer and writes its aggregates to the
stats file and its spans to the spans file.  ``slasim`` must be importable,
which the benchmark arranges through ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from slasim import cli, traffic


def _clock_setup(marks: dict) -> None:
    load_config, generate_trace = cli.load_config, traffic.generate_trace

    def timed_load_config(*args, **kwargs):
        marks["setup_start"] = perf_counter()
        return load_config(*args, **kwargs)

    def timed_generate_trace(*args, **kwargs):
        try:
            return generate_trace(*args, **kwargs)
        finally:
            marks["setup_end"] = perf_counter()

    cli.load_config = timed_load_config
    traffic.generate_trace = timed_generate_trace


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True)
    parser.add_argument("--spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    marks: dict = {}
    _clock_setup(marks)
    code = cli.main(argv)

    stats = {}
    if "setup_end" in marks:
        stats["setup_s"] = marks["setup_end"] - marks["setup_start"]
    if tracer is not None:
        stats.update(tracer.stats())
        tracer.write_spans(args.spans)
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
