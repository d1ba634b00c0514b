"""Serve a fixture spec from its own process for the live-fixture workload.

    python3 fixture_server.py <repo root> <spec.json>

Prints the bound port on the first stdout line, serves until stdin
closes, then prints one JSON line summarising ``request_log`` and exits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main() -> int:
    root, spec_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, str(Path(root) / "src"))
    from specload.fixture import FixtureServer, load_fixture_spec

    server = FixtureServer(load_fixture_spec(spec_path), port=0).start()
    try:
        print(server.port, flush=True)
        sys.stdin.read()
    finally:
        server.stop()
    statuses: dict[str, int] = {}
    for _path, status in server.request_log:
        statuses[str(status)] = statuses.get(str(status), 0) + 1
    print(json.dumps({"requests": len(server.request_log), "statuses": statuses}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
