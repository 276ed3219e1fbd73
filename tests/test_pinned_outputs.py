"""Every pinned output equals the committed reference (``pinned_outputs.py``)."""

import json

from pinned_outputs import REFERENCE, cli_outputs, lp_digests, moved, moved_ops

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


def test_moved_ops_counts_each_pass_by_kind():
    def op(workload, seed, index, kind, sha256, rung=0):
        return {"workload": workload, "seed": seed, "index": index, "kind": kind,
                "rung": rung, "sha256": sha256}

    old = [op("ladder-queries", 7, 0, "feasibility", "a"),
           op("ladder-queries", 7, 1, "lower_upper", "b"),
           op("ladder-queries", 7, 2, "lower_upper", "c"),
           op("verdicts", 1, 0, "feasibility", "d"),
           op("verdicts", 1, 1, "huber", "e")]
    assert moved_ops(old, old) == {}
    new = [dict(r) for r in old]
    new[0]["sha256"] = "x"  # a moved answer
    new[2]["sha256"] = "y"
    new[4]["rung"] = 1  # the same answer on another rung
    new.append(op("verdicts", 1, 2, "huber", "f"))  # an op only the new pass has
    assert moved_ops(old, new) == {"ladder-queries seed 7": {"feasibility": 1, "lower_upper": 1},
                                   "verdicts seed 1": {"huber": 2}}
    assert moved_ops(new, old) == moved_ops(old, new)
