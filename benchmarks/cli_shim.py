"""Run one prodcolor CLI command with its public functions traced.

    python3 benchmarks/cli_shim.py SPANS_FILE ARG...

Installs the span wrappers, calls ``prodcolor.cli.main(ARG...)`` and writes
the spans to SPANS_FILE, which the traced ``pipe`` workload merges into its
own trace. Untraced pipe runs call ``python -m prodcolor`` directly.
"""

import json
import sys

import prodcolor.cli

import tracing


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return prodcolor.cli.main(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as f:
            json.dump(tracer.payload(), f)


if __name__ == "__main__":
    sys.exit(main())
