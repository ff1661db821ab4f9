"""Run the freemeixner CLI with spans around its library calls.

    python3 traced_cli.py SPANS_JSON [cli arguments ...]

Used by the cli-cold workload in a traced run: behaves like
``python -m freemeixner.cli`` (same output, same exit code) and writes the
spans and work counters it recorded to SPANS_JSON.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import freemeixner.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = freemeixner.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
