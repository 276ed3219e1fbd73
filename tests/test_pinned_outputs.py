"""Every pinned output equals the committed reference (``pinned_outputs.py``)."""

import json

from pinned_outputs import REFERENCE, cli_outputs, lp_digests, moved

PINNED = json.loads(REFERENCE.read_text(encoding="utf-8"))


def test_builtin_cli_outputs(tmp_path):
    assert cli_outputs(tmp_path.resolve()) == PINNED["cli"]


def test_lp_workload_digests():
    assert lp_digests() == PINNED["lp"]


def test_check_names_each_moved_key():
    changed = {part: dict(outputs) for part, outputs in PINNED.items()}
    key = sorted(changed["lp"])[0]
    changed["lp"][key] = {"ops": 0, "sha256": ""}
    changed["cli"]["extra"] = {}
    assert moved(PINNED, PINNED) == []
    assert moved(PINNED, changed) == ["cli extra", f"lp {key}"]
