"""Every call of the CLI golden corpus prints what it printed when recorded."""

import json

from golden import GOLDEN, calls, record


def test_corpus_matches_recorded_outputs(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(GOLDEN.read_text())
    assert [entry["argv"] for entry in golden] == calls()
    changed = [entry["argv"] for entry in golden if record(entry["argv"]) != entry]
    assert changed == []
