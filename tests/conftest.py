from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import specload
from specload.sim import PageScheduler
from specload.trace import CacheDirectives, PageVisit, ResourceRecord, Trace


def rec(
    url: str,
    kind: str = "script",
    size: int = 1000,
    fetched_at: float = 0.0,
    **cc,
) -> ResourceRecord:
    return ResourceRecord(
        url=url,
        kind=kind,
        size_bytes=size,
        cache_directives=CacheDirectives(**cc),
        fetched_at=fetched_at,
    )


def visit(
    main_url: str,
    sub_urls,
    ts: float = 0.0,
    user: str = "u",
    size: int = 1000,
    offsets=None,
    **cc,
) -> PageVisit:
    main = rec(main_url, kind="html", size=size, fetched_at=ts, **cc)
    subs = tuple(rec(u, size=size, fetched_at=ts, **cc) for u in sub_urls)
    return PageVisit(
        user_id=user,
        timestamp=ts,
        main=main,
        subresources=subs,
        discovery_offsets=tuple(offsets) if offsets is not None else (),
    )


def trace_of(*visits) -> Trace:
    return Trace(visits=sorted(visits, key=lambda v: v.timestamp))


def request_counts(server) -> Counter:
    """How many requests a fixture server has logged for each path."""
    return Counter(path for path, _status in server.request_log)


class IssueRecorder(PageScheduler):
    """A page scheduler whose every issue takes a connection and is
    recorded, so the connection arithmetic can be read off."""

    def __init__(self, max_connections: int):
        super().__init__("http://s/page.html", max_connections)
        self.issued: list[str] = []

    def _issue(self, job) -> bool:
        self.issued.append(job.url)
        return True

    def queued(self) -> list[str]:
        """The queued URLs in pop order."""
        return [job.url for _, job in sorted(self.queue, key=lambda entry: entry[0])]


FIXTURE_SERVER = Path(__file__).resolve().parent.parent / "perfbench" / "fixture_server.py"


@contextmanager
def fixture_process(spec: dict, tmp_path: Path):
    """Serve ``spec`` from a child process, whose server work does not
    share the client's interpreter lock; yields the base URL."""
    spec_path = tmp_path / "fixture.json"
    spec_path.write_text(json.dumps(spec))
    root = FIXTURE_SERVER.parent.parent
    command = [sys.executable, str(FIXTURE_SERVER), str(root), str(spec_path)]
    with subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    ) as proc:
        try:
            yield f"http://127.0.0.1:{int(proc.stdout.readline())}"
        finally:
            proc.stdin.close()
            proc.stdout.read()


SRC = Path(specload.__file__).resolve().parent.parent

# Every warning is an error, except that a DeprecationWarning is printed:
# under -W error, Python 3.12 drops the one os.fork gives with threads
# alive.  A warning raised in a finalizer (a leaked file, pipe, socket or
# thread) is printed, not raised, so stderr must stay empty.
DEV_MODE = (sys.executable, "-X", "dev", "-W", "error", "-W", "default::DeprecationWarning")


def run_dev(*args: str, status: int = 0, cwd=None) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a fresh dev-mode interpreter that imports
    specload from SRC, and check that it exits ``status``; a run that
    exits 0 must also leave stderr empty."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [*DEV_MODE, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )
    assert done.returncode == status, done.stderr
    assert status != 0 or done.stderr == "", done.stderr
    return done


# The page the dev-mode fetches load: two subresources behind a delay.
DEV_FIXTURE = {
    "delay_ms": 20,
    "pages": {"/index.html": {"subresources": ["/app.js", "/style.css"]}},
    "resources": {"/app.js": {"size": 2048}, "/style.css": {"size": 512}},
}
