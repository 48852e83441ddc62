"""Traced CLI child: ``python launcher.py SPANS_JSON <tetrakit cli args>``.

Times ``import tetrakit.cli`` as its own span (``cli.import``), wraps the
library's public functions, runs the CLI's ``main`` under a
``cli.<command>`` span, writes its spans and counts to SPANS_JSON and
exits with the CLI's exit code.  The command span is marked failed when ``main`` raises
or exits with an input (3) or internal-consistency (4) error.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    code = None
    try:
        with tracer.span("cli.import"):
            import tetrakit.cli as cli
        tracer.install()
        with tracer.span(f"cli.{args[0]}"):
            code = cli.main(args)
    finally:
        if code in (3, 4):
            *head, _ = tracer.spans[-1]
            tracer.spans[-1] = (*head, True)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
