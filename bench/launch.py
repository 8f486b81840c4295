"""Traced command-line job: python3 bench/launch.py SPANS_FILE JOB_ID ARG...

Imports liechar.cli, installs the tracer, runs liechar.cli.run(ARG...)
and writes the spans to SPANS_FILE before exiting with its exit code.
"""

import sys
import time

start = time.perf_counter()
import liechar.cli  # noqa: E402

import_s = time.perf_counter() - start

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_file, job_id, *argv = sys.argv[1:]
    tracer = Tracer(job_id)
    tracer.counters["cli.import_s"] = import_s
    tracer.install()
    try:
        code = liechar.cli.run(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
