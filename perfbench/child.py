"""Run one stormwatch CLI command with the layers traced.

Usage: python3 perfbench/child.py SPAN_FILE REQUEST_ID -- CLI_ARGS...

The command runs as `stormwatch.cli.main(CLI_ARGS)` inside a root span
called `cli.main`; the spans and counts are written to SPAN_FILE when it
returns, with the wall-clock times at which `cli.main` started and ended,
and the process exits with the command's exit code.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402


def main() -> int:
    span_file, request_id, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: child.py SPAN_FILE REQUEST_ID -- CLI_ARGS...")
    from stormwatch import cli

    tracer = tracing.Tracer(int(request_id))
    tracing.install(tracer)
    main_start = time.time()
    code = tracer.span("cli.main", cli.main, argv)
    main_end = time.time()
    sys.stdout.flush()
    tracer.dump(span_file, {"main_start": main_start, "main_end": main_end})
    return code


if __name__ == "__main__":
    sys.exit(main())
