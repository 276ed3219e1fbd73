"""Every pinned output equals the committed reference (``pinned_outputs.py``)."""

import json

from pinned_outputs import REFERENCE, cli_outputs, lp_digests

PINNED = json.loads(REFERENCE.read_text(encoding="utf-8"))


def test_builtin_cli_outputs(tmp_path):
    assert cli_outputs(tmp_path.resolve()) == PINNED["cli"]


def test_lp_workload_digests():
    assert lp_digests() == PINNED["lp"]
