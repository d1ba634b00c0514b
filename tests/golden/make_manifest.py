"""Golden outputs: the seeded artifacts of every offline CLI command.

``run_matrix(workdir)`` runs each command of ``COMMANDS`` through
``specload.cli.main`` inside ``workdir``, with relative paths, so the
``.meta.json`` sidecars (which record the paths as given) are the same
wherever it runs.  It returns the sha256 of every file the commands
wrote and of every captured stdout.  ``manifest.sha256`` next to this
file pins those hashes; ``test_golden.py`` checks them.

Rewrite the manifest (only when an output is meant to change) with

    python tests/golden/make_manifest.py

which runs the matrix on the ``src/`` of this checkout.  ``fetch`` is
left out: its ports and timings vary from run to run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).with_name("manifest.sha256")

# One page with one cached script; the same capture the CI dev-mode step
# ingests.
HAR = """\
{"log": {"pages": [{"id": "p", "startedDateTime": "2024-03-01T10:00:00.000Z"}],
 "entries": [
  {"pageref": "p", "startedDateTime": "2024-03-01T10:00:00.000Z", "time": 120,
   "request": {"url": "http://site.test/"},
   "response": {"headers": [], "content": {"size": 5000, "mimeType": "text/html"}}},
  {"pageref": "p", "startedDateTime": "2024-03-01T10:00:00.300Z", "time": 50,
   "request": {"url": "http://site.test/app.js"},
   "response": {"headers": [{"name": "Cache-Control", "value": "max-age=60"}],
                "content": {"size": 2000, "mimeType": "application/javascript"}}}]}}
"""

_SPECULATIVE = [
    (name, ["--cache-state", name]) for name in ("realistic", "fresh", "expired", "empty")
] + [
    ("trim7", ["--cache-state", "realistic", "--trim-days", "7"]),
    ("oracle", ["--oracle"]),
]
# (stdout artifact or None, argv), run in order.
COMMANDS: list[tuple[str | None, list[str]]] = [
    (None, "synth --visits 1000 --seed 3 --out trace.jsonl".split()),
    (None, "ingest capture.har --out har.jsonl".split()),
    (None, "sim-cache --trace trace.jsonl --capacity 6MB --out cache-6mb.csv".split()),
    (None, "sim-cache --trace trace.jsonl --capacity inf --out cache-inf.csv".split()),
    ("sim-cache.stdout", "sim-cache --trace trace.jsonl --capacity 6MB".split()),
    (None, "sim-prefetch --trace trace.jsonl --train-days 5 --out prefetch.csv".split()),
    *[
        (
            None,
            ["sim-speculative", "--trace", "trace.jsonl", *flags,
             "--out", f"sim-{name}.csv", "--metrics-out", f"pred-{name}.csv"],
        )
        for name, flags in _SPECULATIVE
    ],
    (None, "graph build --trace trace.jsonl --out repo.bin".split()),
    (None, "graph build --trace trace.jsonl --trim-days 7 --out repo-trim7.bin".split()),
    (None, "graph stats --repo repo.bin --out stats.csv".split()),
    (None, "graph trim --repo repo.bin --trim-days 3 --out repo-trim3.bin".split()),
]


def run_matrix(workdir: Path) -> dict[str, str]:
    """Run ``COMMANDS``, then ``report`` of each CSV, in ``workdir``;
    return ``{artifact: sha256}``."""
    from specload.cli import main

    def run(name: str | None, argv: list[str]) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(argv)
        if status != 0:
            raise RuntimeError(f"specload {' '.join(argv)} exited {status}")
        if name is not None:
            captured[name] = out.getvalue().encode()

    workdir = Path(workdir)
    (workdir / "capture.har").write_text(HAR)
    captured: dict[str, bytes] = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in COMMANDS:
            run(name, argv)
        for path in sorted(workdir.glob("*.csv")):
            run(f"report-{path.stem}.stdout", ["report", path.name])
    finally:
        os.chdir(previous)
    for path in workdir.iterdir():
        if path.name != "capture.har":
            captured[path.name] = path.read_bytes()
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(captured.items())}


def read_manifest(path: Path = MANIFEST) -> dict[str, str]:
    digests = {}
    for line in path.read_text().splitlines():
        digest, name = line.split("  ", 1)
        digests[name] = digest
    return digests


def write_manifest(digests: dict[str, str], path: Path = MANIFEST) -> None:
    path.write_text("".join(f"{digest}  {name}\n" for name, digest in sorted(digests.items())))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    with tempfile.TemporaryDirectory() as work:
        digests = run_matrix(Path(work))
    write_manifest(digests)
    print(f"wrote {len(digests)} hashes to {MANIFEST}")
