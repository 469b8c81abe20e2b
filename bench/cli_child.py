"""Run one ``psido`` CLI command with the benchmark's tracer installed.

Usage: python3 bench/cli_child.py SPANS_JSON LABEL CLI_ARG...

Behaves like ``python -m psido.cli CLI_ARG...`` (same output, same exit
code) and also writes the spans and counts it recorded to SPANS_JSON.
LABEL names the kind of grid input an ``apply`` call submits.
"""

import json
import sys

from tracing import Tracer


def main(argv) -> int:
    out, label, cli_args = argv[0], argv[1], argv[2:]
    import psido.cli

    tracer = Tracer()
    tracer.install()
    tracer.label = label
    tracer.active = True
    try:
        code = psido.cli.main(cli_args)
    finally:
        tracer.active = False
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "maxima": tracer.maxima}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
