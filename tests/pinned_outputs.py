"""Pinned outputs: what the built-in scenarios and the LP workloads answer.

Run ``PYTHONPATH=src python tests/pinned_outputs.py`` from the repository root
to rewrite ``tests/pinned_outputs.json`` from the code in ``src``;
``tests/test_pinned_outputs.py`` requires the code to reproduce that file
exactly.  With ``--check`` the file is left as it is: each moved key (a
``cli`` entry or an ``lp`` digest) is printed, and the exit code is 1 when
any moved.  A change that moves an output on purpose regenerates the file
and names each moved output in CHANGES.md.

To count which ops a change moves, write one SHA-256 per LP-workload op with
``--ops PATH`` from the old code, then run ``--ops-against PATH`` on the new:
it prints, per workload and seed, the moved ops by kind, writes nothing, and
exits 1 when any moved.  Each op's hash is over the same ``_answers`` the
digests hash.

The reference holds two parts:

- ``cli``: the five built-in scenarios through all six subcommands at
  ``--seed 42``, each with its exit code, stdout and stderr (the temporary
  directory masked as ``<tmp>``) and the text of every file it wrote;
- ``lp``: the ``ladder-queries`` and ``verdicts`` passes of ``perfbench`` at
  seeds 1, 7 and 401, each as its op count and one SHA-256 over every op's
  ``perfbench.workloads.fingerprint``, the bytes of each bound's argmin and
  argmax, ``verify_w11``'s sampled statistics and each Farkas certificate's
  normalization and margin (Huber values are their ops' fingerprints).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import (  # noqa: E402
    CLI_COMMANDS,
    CLI_SCENARIOS,
    LADDER,
    VERDICTS,
    LPWorkload,
    fingerprint,
)

from iqp import cli, scenarios  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "pinned_outputs.json"
CLI_SEED = 42
LP_WORKLOADS = {"ladder-queries": LADDER, "verdicts": VERDICTS}
LP_SEEDS = (1, 7, 401)


def _plain(value: object) -> object:
    """``value`` with numpy scalars, arrays and dataclasses made plain, so its
    repr is the same whatever numpy prints."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value):
        return _plain(dataclasses.astuple(value))
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    return value


def _answers(op) -> tuple:
    """One op's outputs that the reference pins."""
    out = op.output
    extra: tuple = ()
    if out is not None and op.kind == "lower_upper":
        extra = tuple(None if m is None else m.probs for m in (out.argmin, out.argmax))
    elif out is not None and op.kind == "verify_w11":
        extra = out.samples
    elif out is not None and op.kind == "feasibility" and not out.feasible:
        extra = (out.farkas.normalization, out.farkas.margin)
    return _plain((op.kind, op.rung, fingerprint(op), extra))


def _lp_passes():
    """Per LP workload and seed, its name, the seed and the ops of one pass."""
    for name, rungs in LP_WORKLOADS.items():
        for seed in LP_SEEDS:
            workload = LPWorkload(name, rungs, seed)
            yield name, seed, workload.run_pass(workload.setup(workload.configs()))


def lp_digests() -> dict[str, dict[str, object]]:
    digests = {}
    for name, seed, ops in _lp_passes():
        h = hashlib.sha256()
        for op in ops:
            h.update(repr(_answers(op)).encode())
        digests[f"{name} seed {seed}"] = {"ops": len(ops), "sha256": h.hexdigest()}
    return digests


def lp_ops() -> list[dict[str, object]]:
    """One record per LP-workload op: its workload, seed, index, kind and
    rung, and the SHA-256 of its ``_answers``."""
    return [{"workload": name, "seed": seed, "index": i, "kind": op.kind, "rung": op.rung,
             "sha256": hashlib.sha256(repr(_answers(op)).encode()).hexdigest()}
            for name, seed, ops in _lp_passes() for i, op in enumerate(ops)]


def moved_ops(old: list[dict], new: list[dict]) -> dict[str, dict[str, int]]:
    """Per ``workload seed``, in the order of ``old`` then ``new``, the number
    of moved ops by kind: an op moves when its hash, kind or rung differs or
    it is in only one list.  Passes with no moved op are left out."""
    keyed = [{(r["workload"], r["seed"], r["index"]): r for r in records}
             for records in (old, new)]
    counts: dict[str, dict[str, int]] = {}
    for key in dict.fromkeys([*keyed[0], *keyed[1]]):
        a, b = (records.get(key) for records in keyed)
        if a != b:
            kinds = counts.setdefault(f"{key[0]} seed {key[1]}", {})
            kind = (a or b)["kind"]
            kinds[kind] = kinds.get(kind, 0) + 1
    return counts


def cli_outputs(tmp: Path) -> dict[str, dict[str, object]]:
    outputs = {}
    for name in CLI_SCENARIOS:
        config = tmp / f"{name}.json"
        config.write_text(scenarios.config_json(scenarios.BUILTIN_SCENARIOS[name]()),
                          encoding="utf-8")
        for command in CLI_COMMANDS:
            outdir = tmp / name / command
            outdir.mkdir(parents=True)
            if command == "scenario":
                argv = ["scenario", name, "--out", str(outdir / "scenario.json")]
            else:
                argv = [command, "--config", str(config), "--seed", str(CLI_SEED)]
                if command != "simulate":
                    argv += ["--outdir", str(outdir)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            outputs[f"{name} {command}"] = {
                "exit": code,
                "stdout": stdout.getvalue().replace(str(tmp), "<tmp>"),
                "stderr": stderr.getvalue().replace(str(tmp), "<tmp>"),
                "files": {p.name: p.read_text(encoding="utf-8")
                          for p in sorted(outdir.iterdir())},
            }
    return outputs


def collect(tmp: Path) -> dict[str, object]:
    """Every pinned output of the code in ``src``; CLI files go under ``tmp``."""
    return {"cli": cli_outputs(tmp), "lp": lp_digests()}


def moved(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """Each ``part key`` whose output differs between ``old`` and ``new``, or is
    in only one of them."""
    return [f"{part} {key}" for part in ("cli", "lp")
            for key in sorted(old[part].keys() | new[part].keys())
            if old[part].get(key) != new[part].get(key)]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="print each moved key and exit 1 if any moved, writing nothing")
    parser.add_argument("--ops", metavar="PATH",
                        help="write one SHA-256 per LP-workload op to PATH and exit")
    parser.add_argument("--ops-against", metavar="PATH",
                        help="print the ops that moved since PATH, by kind, and exit 1 if any "
                             "moved, writing nothing")
    args = parser.parse_args()
    if args.ops:
        Path(args.ops).write_text(json.dumps(lp_ops(), indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.ops}")
        sys.exit(0)
    if args.ops_against:
        counts = moved_ops(json.loads(Path(args.ops_against).read_text(encoding="utf-8")),
                           lp_ops())
        for key, kinds in counts.items():
            listed = ", ".join(f"{kind} {count}" for kind, count in kinds.items())
            print(f"moved: {key}: {sum(kinds.values())} ops ({listed})")
        sys.exit(1 if counts else 0)
    with tempfile.TemporaryDirectory() as tmp:
        pinned = collect(Path(tmp).resolve())
    if args.check:
        keys = moved(json.loads(REFERENCE.read_text(encoding="utf-8")), pinned)
        for key in keys:
            print(f"moved: {key}")
        sys.exit(1 if keys else 0)
    REFERENCE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
