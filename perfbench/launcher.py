"""Boot ``repro serve`` with the per-layer wrappers installed.

    python3 -m perfbench.launcher LAYERS_JSON

Serves like ``python -m repro serve --port 0 --no-cache`` (same defaults,
same announce line) after :class:`perfbench.layers.Tracer` has wrapped
the program's layers, and writes the tallies to ``LAYERS_JSON`` once a
SIGTERM or SIGINT has drained the server.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench.layers import Tracer  # noqa: E402


def main(argv) -> int:
    tracer = Tracer()
    tracer.install()
    from repro.serve.app import ReproServer, run_server

    server = ReproServer(port=0)

    def announce(srv) -> None:
        print(f"perfbench launcher: listening on http://{srv.host}:{srv.port}",
              flush=True)

    run_server(server, announce=announce)
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
