"""The solve daemon with the benchmark's layer wrappers installed.

    python perfbench/serve.py SPANS.json serve --port 0 --ready-file READY

installs the solve and service wrappers, then runs the service command
line (``python -m repro.service``) with the remaining arguments.  When
the daemon stops, its spans and counters are written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys

import layers
from tracing import Tracer


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    layers.install_solve(tracer)
    layers.install_service(tracer)
    from repro.service.cli import main as service_main

    try:
        return service_main(cli_args)
    finally:
        with open(out, "w") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
