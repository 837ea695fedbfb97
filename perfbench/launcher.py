"""Start ``repro serve`` with the benchmark's layer spans installed.

The traced ``service_churn`` run starts the server through this launcher
instead of ``python3 -m repro serve``: it patches the same layer entry
points as a traced repetition, then hands the same arguments to the CLI.
On SIGINT or SIGTERM the server shuts down and the launcher writes its
per-layer numbers and folded stacks to ``--out`` and every span to
``--spans``.

Usage::

    python3 perfbench/launcher.py --out LAYERS.json --spans SPANS.jsonl -- serve --domain weather --port 0
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from rep import span_metrics  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    signal.signal(signal.SIGTERM, _interrupt)
    from repro import cli

    try:
        status = cli.main(cli_args)
    finally:
        tracer.dump(args.spans)
        doc = {
            "layers": span_metrics(tracer),
            "folded": tracer.folded(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        Path(args.out).write_text(json.dumps(doc), encoding="utf-8")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
