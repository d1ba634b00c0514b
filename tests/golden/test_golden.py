"""Every seeded CLI artifact is byte-identical to the hash in the manifest.

A change that alters an output on purpose rewrites the manifest with
``python tests/golden/make_manifest.py`` and lists the old and new
hashes of what moved.
"""

from __future__ import annotations

from make_manifest import read_manifest, run_matrix


def test_outputs_match_the_manifest(tmp_path):
    expected = read_manifest()
    got = run_matrix(tmp_path)
    assert sorted(got) == sorted(expected), "the set of artifacts changed"
    moved = {name: (expected[name], got[name]) for name in got if got[name] != expected[name]}
    assert not moved, f"artifacts differ from the manifest (expected, got): {moved}"
