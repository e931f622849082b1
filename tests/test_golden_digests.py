"""Output bytes are a checked-in fact: every pinned CLI run writes the files
whose digests ``golden_digests.json`` holds (see ``golden_digests.py``)."""

import json

import pytest

import golden_digests


def test_outputs_match_golden_digests():
    """On the numpy, scipy and BLAS builds the table was written with, the
    CLI's CSVs and metadata hash as recorded; on any other build the test
    skips and names what differs."""
    table = json.loads(golden_digests.TABLE.read_text())
    here = golden_digests.environment()
    changed = {key: (table["environment"].get(key), value) for key, value in here.items()
               if table["environment"].get(key) != value}
    if changed:
        pytest.skip("golden digests were written on another build: " + ", ".join(
            f"{key} {old} (table) != {new} (here)" for key, (old, new) in changed.items()))
    got = golden_digests.run_pinned()
    assert got["environment"] == table["environment"]
    expected = table["digests"]
    moved = sorted(key for key in expected.keys() | got["digests"].keys()
                   if expected.get(key) != got["digests"].get(key))
    assert not moved, "output bytes moved (regenerate with tests/golden_digests.py and " \
        "state each moved column): " + ", ".join(moved)
