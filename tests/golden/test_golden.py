"""Every seeded CLI artifact is byte-identical to the hash in the manifest,
and no command of the matrix warns in dev mode.

A change that alters an output on purpose rewrites the manifest with
``python tests/golden/make_manifest.py`` and lists the old and new
hashes of what moved.
"""

from __future__ import annotations

import json
from pathlib import Path

from conftest import run_dev
from make_manifest import read_manifest

# Prints run_matrix's digests for the work directory given as argv[1].
_RUN = """\
import json, sys
from make_manifest import run_matrix
print(json.dumps(run_matrix(sys.argv[1])))
"""


def test_outputs_match_the_manifest(tmp_path):
    # Each command runs in dev mode, where a file left open prints a
    # ResourceWarning, so stderr must stay empty even when every hash holds.
    expected = read_manifest()
    got = json.loads(run_dev("-c", _RUN, str(tmp_path), cwd=Path(__file__).parent).stdout)
    assert sorted(got) == sorted(expected), "the set of artifacts changed"
    moved = {name: (expected[name], got[name]) for name in got if got[name] != expected[name]}
    assert not moved, f"artifacts differ from the manifest (expected, got): {moved}"
