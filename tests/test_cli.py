import errno
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import iqp
from iqp import cli, credal, events, typicality
from iqp.cli import build_parser, main
from iqp.scenarios import BUILTIN_SCENARIOS, config_hash, config_json, parse_config
from iqp.system import QuantumSystem


@pytest.fixture
def scenario_file(tmp_path):
    def write(name: str) -> str:
        path = tmp_path / f"{name}.json"
        assert main(["scenario", name, "--out", str(path)]) == 0
        return str(path)

    return write


def read_outputs(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}


class TestScenarioCommand:
    def test_emits_valid_json(self, capsys):
        assert main(["scenario", "beam-splitter"]) == 0
        data = json.loads(capsys.readouterr().out)
        cfg = parse_config(data)
        assert config_hash(cfg) == config_hash(BUILTIN_SCENARIOS["beam-splitter"]())

    def test_unknown_scenario(self, capsys):
        assert main(["scenario", "nope"]) == 1
        assert "built-ins" in capsys.readouterr().err


class TestExitCodes:
    def test_feasible_is_zero(self, scenario_file, tmp_path):
        code = main([
            "feasibility", "--config", scenario_file("beam-splitter"),
            "--outdir", str(tmp_path / "out"),
        ])
        assert code == 0
        assert (tmp_path / "out" / "certificate.csv").exists()
        assert (tmp_path / "out" / "constraints.csv").exists()

    def test_infeasible_is_two(self, scenario_file, tmp_path):
        code = main([
            "feasibility", "--config", scenario_file("adversarial-demo"),
            "--outdir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert (tmp_path / "out" / "farkas.csv").exists()

    def test_missing_config_is_one(self, capsys):
        assert main(["simulate", "--config", "/does/not/exist.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config_lists_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "iqp-config/1", "nonsense": 1}')
        assert main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error [scenarios]" in err

    def test_unknown_flag_is_one(self, scenario_file):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", scenario_file("beam-splitter"), "--bogus"])
        assert exc.value.code == 1

    def test_bad_event_expression_is_one(self, scenario_file, tmp_path, capsys):
        code = main([
            "bounds", "--config", scenario_file("beam-splitter"),
            "--event", "(t=7,{0})", "--outdir", str(tmp_path),
        ])
        assert code == 1
        assert "error [events]" in capsys.readouterr().err

    def test_deep_json_is_one_with_report(self, tmp_path, capsys):
        config = tmp_path / "deep.json"
        config.write_text("[" * 100_000)
        report_path = tmp_path / "report.json"
        assert main(["simulate", "--config", str(config), "--report", str(report_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error [scenarios]: {config}: JSON nested too deeply to parse\n"
        report = json.loads(report_path.read_text())
        assert (report["exit_code"], report["error"]) == (1, err[:-1])

    @pytest.mark.parametrize("command", ["feasibility", "bounds"])
    def test_nan_alpha_is_one(self, scenario_file, tmp_path, capsys, command):
        data = json.loads(Path(scenario_file("beam-splitter")).read_text())
        data["rules"].update(ruleset="born+qtr-alpha", alpha=float("nan"))
        config = tmp_path / "nan.json"
        config.write_text(json.dumps(data))  # Python's json writes and reads NaN
        outdir = tmp_path / "out"
        assert main([command, "--config", str(config), "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().err == (
            f"error [scenarios]: {config}.rules.alpha: expected number > 0\n"
        )
        assert not outdir.exists()

    @pytest.mark.parametrize("command, flag, value, expected", [
        *[("branch", "--delta", v, "number in (0, 1)") for v in ("nan", "inf", "0", "1", "1.5")],
        *[("typicality", "--epsilon", v, "number >= 0") for v in ("nan", "-1")],
    ])
    def test_override_outside_config_range_is_one(self, scenario_file, tmp_path, capsys,
                                                   command, flag, value, expected):
        outdir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", scenario_file("beam-splitter"), flag, value,
                  "--outdir", str(outdir)])
        assert exc.value.code == 1
        assert f"argument {flag}: expected {expected}, got '{value}'" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("command, flag, value, csv", [
        ("branch", "--delta", "0.5", "branch.csv"),
        ("branch", "--delta", "1e-10", "branch.csv"),  # zero-drift arms: tail 0, exit 0
        ("typicality", "--epsilon", "0", "typicality.csv"),
    ])
    def test_override_inside_config_range_runs(self, scenario_file, tmp_path,
                                               command, flag, value, csv):
        outdir = tmp_path / "out"
        assert main([command, "--config", scenario_file("beam-splitter"), flag, value,
                     "--outdir", str(outdir)]) == 0
        assert (outdir / csv).exists()


class TestBounds:
    def test_spreading_packet_output(self, scenario_file, tmp_path, capsys):
        code = main([
            "bounds", "--config", scenario_file("spreading-packet"),
            "--event", "(t=0,{0}) & (t=1,{0})", "--outdir", str(tmp_path),
        ])
        assert code == 0
        assert "0.000000, 0.500000" in capsys.readouterr().out
        text = (tmp_path / "bounds.csv").read_text()
        assert "event,lower,upper" in text
        assert "0.000000000,0.500000000" in text

    def test_defaults_to_config_events(self, scenario_file, tmp_path, capsys):
        code = main([
            "bounds", "--config", scenario_file("beam-splitter"),
            "--outdir", str(tmp_path),
        ])
        assert code == 0
        assert "0.500000, 0.500000" in capsys.readouterr().out

    def test_one_parser_serves_every_call(self, scenario_file, tmp_path, capsys):
        # --event of the first call must not carry over into the second
        config = scenario_file("beam-splitter")
        assert build_parser() is build_parser()
        assert main(["bounds", "--config", config, "--event", "(t=1,{1})",
                     "--outdir", str(tmp_path / "a")]) == 0
        assert main(["bounds", "--config", config, "--outdir", str(tmp_path / "b")]) == 0
        assert "(t=1,{0}) & (t=2,{0})" in (tmp_path / "b" / "bounds.csv").read_text()
        assert "(t=1,{1})" not in (tmp_path / "b" / "bounds.csv").read_text()

    def test_infeasible_writes_report(self, scenario_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main([
            "bounds", "--config", scenario_file("adversarial-demo"),
            "--event", "(t=0,{0})", "--outdir", str(tmp_path / "out"),
            "--report", str(report_path),
        ])
        assert code == 2
        assert "infeasible" in capsys.readouterr().err
        report = json.loads(report_path.read_text())
        assert report["command"] == "bounds"
        assert report["feasible"] is False
        assert "solve" in report["timings"]


    @pytest.mark.parametrize("name, path", [("beam-splitter", "chain"), ("mach-zehnder", "lp")])
    def test_report_names_the_path(self, scenario_file, tmp_path, name, path):
        """A binary chain set's bounds come from the forward pass, others from the LP."""
        report_path = tmp_path / "report.json"
        assert main(["bounds", "--config", scenario_file(name), "--outdir", str(tmp_path / "out"),
                     "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert [entry["path"] for entry in report["bounds"]] == [path]


class TestTypicality:
    def test_explicit_pair(self, scenario_file, tmp_path, capsys):
        code = main([
            "typicality", "--config", scenario_file("beam-splitter"),
            "--pair", "(t=1,{0}) & (t=2,{0})", "--outdir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fires=True" in out and "pass" in out
        assert (tmp_path / "typicality.csv").exists()

    def test_rejects_non_pair_expression(self, scenario_file, tmp_path, capsys):
        code = main([
            "typicality", "--config", scenario_file("beam-splitter"),
            "--pair", "(t=1,{0})", "--outdir", str(tmp_path),
        ])
        assert code == 1
        assert "atom & atom" in capsys.readouterr().err

    def test_infeasible_writes_report(self, scenario_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main([
            "typicality", "--config", scenario_file("adversarial-demo"),
            "--pair", "(t=0,{0}) & (t=1,{0})", "--outdir", str(tmp_path / "out"),
            "--report", str(report_path),
        ])
        assert code == 2
        assert "infeasible" in capsys.readouterr().err
        report = json.loads(report_path.read_text())
        assert report["command"] == "typicality"
        assert report["feasible"] is False
        assert "solve" in report["timings"]
        assert not (tmp_path / "out" / "typicality.csv").exists()

    def test_default_pairs_from_ruleset(self, scenario_file, tmp_path):
        code = main([
            "typicality", "--config", scenario_file("beam-splitter"),
            "--outdir", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "typicality.csv").read_text().strip().split("\n")
        assert len(lines) == 3  # header + the two emitted arm pairs

    def test_overlapping_rules_list_each_pair_once(self, scenario_file, tmp_path, capsys):
        """qtr and qtr-min both emit a row on each arm pair; each pair is
        reported once, where it first appears, as under qtr alone."""
        config = json.loads(Path(scenario_file("beam-splitter")).read_text())
        capsys.readouterr()
        outputs = {}
        for ruleset in ("born+qtr", "born+qtr+qtr-min"):
            config["rules"]["ruleset"] = ruleset
            path = tmp_path / f"{ruleset}.json"
            path.write_text(json.dumps(config))
            outdir, report_path = tmp_path / ruleset, tmp_path / f"{ruleset}-report.json"
            code = main(["typicality", "--config", str(path), "--outdir", str(outdir),
                         "--report", str(report_path)])
            assert code == 0
            report = json.loads(report_path.read_text())
            outputs[ruleset] = (capsys.readouterr().out,
                                (outdir / "typicality.csv").read_text(),
                                report["typicality_rows"])
        assert outputs["born+qtr+qtr-min"] == outputs["born+qtr"]
        assert outputs["born+qtr"][1].count("\n") == 3  # header + two pairs
        assert outputs["born+qtr"][2] == 2


class TestBranch:
    def test_named_branch(self, scenario_file, tmp_path, capsys):
        code = main([
            "branch", "--config", scenario_file("beam-splitter"),
            "--name", "reflected-arm", "--outdir", str(tmp_path),
        ])
        assert code == 0
        assert "reflected-arm" in capsys.readouterr().out
        text = (tmp_path / "branch.csv").read_text()
        assert text.count("\n") == 2  # header + one row

    def test_all_declared_branches(self, scenario_file, tmp_path):
        code = main([
            "branch", "--config", scenario_file("beam-splitter"),
            "--outdir", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "branch.csv").read_text().count("\n") == 3

    def test_branches_share_one_vertex_sample(self, scenario_file, tmp_path, count_calls):
        """Both declared branches are checked on one sample of 20 vertices."""
        sampled = count_calls(typicality, "sample_vertex_measures")
        solves = count_calls(credal, "_solve")
        cfg = BUILTIN_SCENARIOS["beam-splitter"]()
        assert (len(cfg.branches), cfg.samples) == (2, 20)
        code = main([
            "branch", "--config", scenario_file("beam-splitter"),
            "--outdir", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "branch.csv").read_text().count("\n") == 3
        assert (len(sampled), len(solves)) == (1, 20)

    def test_report_times_solve(self, scenario_file, tmp_path):
        report_path = tmp_path / "report.json"
        code = main([
            "branch", "--config", scenario_file("beam-splitter"),
            "--outdir", str(tmp_path), "--report", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["branch_rows"] == 2
        assert report["feasible"] is True
        assert set(report["timings"]) == {"load", "constraints", "solve"}

    def test_infeasible_writes_report(self, scenario_file, tmp_path, capsys):
        config = json.loads(Path(scenario_file("beam-splitter")).read_text())
        demo = json.loads(Path(scenario_file("adversarial-demo")).read_text())
        config["rules"]["extra_lower_bounds"] = demo["rules"]["extra_lower_bounds"]
        config_path = tmp_path / "contradictory.json"
        config_path.write_text(json.dumps(config))
        report_path = tmp_path / "report.json"
        code = main([
            "branch", "--config", str(config_path), "--outdir", str(tmp_path / "out"),
            "--report", str(report_path),
        ])
        assert code == 2
        assert "infeasible" in capsys.readouterr().err
        report = json.loads(report_path.read_text())
        assert report["command"] == "branch"
        assert report["feasible"] is False
        assert report["branch_rows"] == 0
        assert set(report["timings"]) == {"load", "constraints", "solve"}
        assert not (tmp_path / "out" / "branch.csv").exists()

    def test_unknown_branch_name(self, scenario_file, tmp_path, capsys):
        code = main([
            "branch", "--config", scenario_file("beam-splitter"),
            "--name", "nope", "--outdir", str(tmp_path),
        ])
        assert code == 1
        assert "declared" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [True, False])
    def test_negative_seed_names_the_seed(self, scenario_file, tmp_path, capsys, flag):
        config_path = Path(scenario_file("beam-splitter"))
        argv = ["branch", "--config", str(config_path), "--outdir", str(tmp_path / "out")]
        if flag:
            argv += ["--seed", "-1"]
        else:
            config = json.loads(config_path.read_text())
            config["queries"]["seed"] = -1
            config_path.write_text(json.dumps(config))
        assert main(argv) == 1
        source = "--seed" if flag else "queries.seed"
        assert capsys.readouterr().err == (
            f"error [cli]: {source} must be a non-negative integer, got -1\n")
        assert not (tmp_path / "out" / "branch.csv").exists()

    def test_samples_beyond_the_bound_is_a_config_error(self, scenario_file, tmp_path,
                                                        capsys):
        config_path = Path(scenario_file("beam-splitter"))
        config = json.loads(config_path.read_text())
        config["queries"]["samples"] = 1001
        config_path.write_text(json.dumps(config))
        argv = ["branch", "--config", str(config_path), "--outdir", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error [scenarios]: {config_path}.queries.samples: "
            "expected integer in [1, 1000]\n")
        assert not (tmp_path / "out" / "branch.csv").exists()

    def test_no_branches_declared(self, scenario_file, tmp_path):
        code = main([
            "branch", "--config", scenario_file("mach-zehnder"),
            "--outdir", str(tmp_path),
        ])
        assert code == 1


class TestSimulate:
    def test_prints_states_and_weights(self, scenario_file, capsys):
        assert main(["simulate", "--config", scenario_file("beam-splitter")]) == 0
        out = capsys.readouterr().out
        assert "trajectories=8" in out
        assert "0.500000000 0.500000000" in out


class TestReport:
    def test_run_report_written(self, scenario_file, tmp_path):
        report_path = tmp_path / "report.json"
        code = main([
            "feasibility", "--config", scenario_file("beam-splitter"),
            "--outdir", str(tmp_path / "out"), "--report", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["feasible"] is True
        assert report["feasibility_path"] == "chain"
        assert report["constraints"]["emitted"] == 12
        assert report["config_hash"]
        assert "solve" in report["timings"]

    @pytest.mark.parametrize("name, path", [
        ("beam-splitter", "chain"), ("mach-zehnder", "support"), ("spreading-packet", "chain"),
        ("drifting-branch", "lp"), ("adversarial-demo", "lp")])
    def test_report_names_how_feasibility_was_decided(self, scenario_file, tmp_path, name, path):
        report_path = tmp_path / "report.json"
        main(["feasibility", "--config", scenario_file(name), "--outdir", str(tmp_path / "out"),
              "--report", str(report_path)])
        assert json.loads(report_path.read_text())["feasibility_path"] == path

    def test_report_counts_presolved_rows(self, scenario_file, tmp_path):
        report_path = tmp_path / "report.json"
        main(["bounds", "--config", scenario_file("beam-splitter"),
              "--outdir", str(tmp_path / "out"), "--report", str(report_path)])
        # 12 rows presolve to normalization, one '==' pin and one typicality
        # row: with two labels the pins make the rows on ({0}, {0}) and
        # ({1}, {1}) parallel, and the one on ({0}, {0}) is implied by the
        # other.  The basis-state pin at t=0 is a certain event, which fixes
        # the 4 trajectories starting at 1 and then equals normalization; the
        # kept typicality row reaches both pins, which fixes the 2
        # trajectories that switch packets between t=1 and t=2.  On the two
        # live columns the pins at t=1 and t=2 are then one row, given once
        assert json.loads(report_path.read_text())["constraints"] == {
            "emitted": 12, "skipped": 4, "filtered": 8, "lp_rows": 3, "implied": 1,
            "forced_cols": 6}

    def test_report_and_queries_share_one_presolve(self, scenario_file, tmp_path,
                                                   count_calls):
        presolves = count_calls(credal, "_presolve")
        assert main(["bounds", "--config", scenario_file("drifting-branch"),
                     "--outdir", str(tmp_path / "out"),
                     "--report", str(tmp_path / "report.json")]) == 0
        assert len(presolves) == 1

    def test_no_presolve_without_a_report(self, scenario_file, tmp_path, count_calls):
        """The presolve feeds only the report's counts on a chain set, so
        without ``--report`` no stage of it is built."""
        config = scenario_file("beam-splitter")
        credal._reading.cache_clear()
        stages = [count_calls(credal, name) for name in ("_pinned", "_supported", "_presolve")]
        assert main(["feasibility", "--config", config, "--outdir", str(tmp_path / "out")]) == 0
        assert stages == [[], [], []]

    def test_constraints_timing_covers_the_presolve(self, scenario_file, tmp_path,
                                                    monkeypatch):
        """The queries reuse the report's presolve, so only ``constraints`` can time it."""
        delay = 0.05
        presolved = credal._presolve

        def slow(cs, kept):
            time.sleep(delay)
            return presolved(cs, kept)

        monkeypatch.setattr(credal, "_presolve", slow)
        report_path = tmp_path / "report.json"
        assert main(["feasibility", "--config", scenario_file("drifting-branch"),
                     "--outdir", str(tmp_path / "out"), "--report", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["timings"]["constraints"] >= delay

    def test_feasibility_builds_one_system(self, scenario_file, tmp_path, count_calls):
        config = scenario_file("drifting-branch")
        report_path = tmp_path / "report.json"
        built = count_calls(QuantumSystem, "__init__")
        code = main(["feasibility", "--config", config, "--outdir", str(tmp_path / "out"),
                     "--report", str(report_path)])
        assert code == 0
        assert len(built) == 1
        timings = json.loads(report_path.read_text())["timings"]
        assert set(timings) == {"load", "constraints", "solve"}
        assert all(seconds >= 0.0 for seconds in timings.values())


    @pytest.mark.parametrize("scenario, argv, code, error", [
        ("beam-splitter", ["simulate"], 0, None),
        ("beam-splitter", ["feasibility"], 0, None),
        ("adversarial-demo", ["feasibility"], 2, None),
        ("beam-splitter", ["bounds", "--event", "(t=7,{0})"], 1, "error [events]: "),
        ("spreading-packet", ["typicality"], 1, "error [cli]: no pairs"),
        ("beam-splitter", ["branch", "--name", "nope"], 1, "error [cli]: no matching branch"),
        (None, ["simulate"], 1, "error [scenarios]: "),
        ("beam-splitter", ["bounds", "--event", "!" * 5000 + "(t=0,{0})"], 1,
         "error [events]: expression nested deeper than"),
    ])
    def test_written_on_every_exit(self, scenario_file, tmp_path, capsys,
                                   scenario, argv, code, error):
        config = scenario_file(scenario) if scenario else str(tmp_path / "missing.json")
        report_path = tmp_path / "report.json"
        got = main(argv + ["--config", config, "--outdir", str(tmp_path / "out"),
                           "--report", str(report_path)])
        assert got == code
        report = json.loads(report_path.read_text())
        assert report["command"] == argv[0]
        assert report["exit_code"] == got
        if error is None:
            assert report["error"] is None
        else:
            assert report["error"].startswith(error)
            assert capsys.readouterr().err == report["error"] + "\n"
        assert bool(report["config_hash"]) == (scenario is not None)

    def test_unwritable_report_is_one(self, scenario_file, tmp_path, capsys):
        code = main(["simulate", "--config", scenario_file("beam-splitter"),
                     "--report", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [cli]: ") and "Traceback" not in err


class TestProvenance:
    def test_cli_errors_under_dash_m(self, scenario_file, tmp_path):
        # `python -m iqp.cli` runs the module as __main__; errors raised in it
        # must still be attributed to cli
        env = dict(os.environ, PYTHONPATH=str(Path(iqp.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "iqp.cli", "typicality", "--config",
             scenario_file("beam-splitter"), "--pair", "(t=1,{0})",
             "--outdir", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error [cli]: pair must be 'atom & atom'")


class TestDeterminism:
    def test_two_runs_byte_identical(self, scenario_file, tmp_path):
        config = scenario_file("drifting-branch")
        outs = []
        for run in ("a", "b"):
            outdir = tmp_path / run
            assert main(["feasibility", "--config", config,
                         "--outdir", str(outdir)]) == 0
            assert main(["bounds", "--config", config,
                         "--outdir", str(outdir)]) == 0
            assert main(["branch", "--config", config, "--seed", "42",
                         "--outdir", str(outdir)]) == 0
            outs.append(read_outputs(outdir))
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], name


class TestFixedWork:
    """Work each invocation does before its query: one parse per config
    expression, the config's digest only where something reads it, and no
    directory made for an output that can be opened."""

    def test_each_config_expression_parsed_once(self, scenario_file, tmp_path, count_calls):
        # adversarial-demo holds three expressions: one query event and two
        # demands; validation parses each, and the build and the bounds
        # evaluate the kept trees
        config = scenario_file("adversarial-demo")
        cfg = BUILTIN_SCENARIOS["adversarial-demo"]()
        parses = count_calls(events._Parser, "parse")
        assert main(["bounds", "--config", config, "--outdir", str(tmp_path / "out")]) == 2
        assert len(parses) == len(cfg.events) + len(cfg.extra_lower_bounds) == 3

    def test_event_arguments_still_parse(self, scenario_file, tmp_path, count_calls, capsys):
        config = scenario_file("spreading-packet")
        capsys.readouterr()
        parses = count_calls(events._Parser, "parse")
        assert main(["bounds", "--config", config, "--outdir", str(tmp_path / "out"),
                     "--event", "(t=0,{0}) & (t=1,{0})", "--event", "(t=1,{1})"]) == 0
        assert len(parses) == 1 + 2  # the config's one event, then both arguments
        assert capsys.readouterr().out.splitlines() == [
            "0.000000, 0.500000", "0.500000, 0.500000"]

    @pytest.mark.parametrize("command", ["feasibility", "bounds", "typicality", "branch"])
    def test_digest_only_for_a_report(self, scenario_file, tmp_path, count_calls, command):
        config = scenario_file("beam-splitter")
        digests = count_calls(cli, "config_hash")
        main([command, "--config", config, "--outdir", str(tmp_path / "out")])
        assert digests == []
        report_path = tmp_path / "report.json"
        main([command, "--config", config, "--outdir", str(tmp_path / "out"),
              "--report", str(report_path)])
        assert len(digests) == 1
        cfg = BUILTIN_SCENARIOS["beam-splitter"]()
        assert json.loads(report_path.read_text())["config_hash"] == config_hash(cfg)

    def test_simulate_prints_the_digest(self, scenario_file, count_calls, capsys):
        config = scenario_file("beam-splitter")
        capsys.readouterr()
        digests = count_calls(cli, "config_hash")
        assert main(["simulate", "--config", config]) == 0
        assert len(digests) == 1
        digest = config_hash(BUILTIN_SCENARIOS["beam-splitter"]())
        assert capsys.readouterr().out.startswith(f"config {digest[:12]}  m=2")

    def test_existing_outdir_makes_no_directory(self, scenario_file, tmp_path, count_calls):
        config = scenario_file("beam-splitter")
        outdir = tmp_path / "out"
        outdir.mkdir()
        made = count_calls(Path, "mkdir")
        assert main(["feasibility", "--config", config, "--outdir", str(outdir),
                     "--report", str(tmp_path / "report.json")]) == 0
        assert made == []
        assert sorted(p.name for p in outdir.iterdir()) == ["certificate.csv", "constraints.csv"]

    def test_missing_nested_outdir_is_made(self, scenario_file, tmp_path):
        outdir = tmp_path / "a" / "b" / "c"
        report_path = tmp_path / "r" / "s" / "report.json"
        assert main(["bounds", "--config", scenario_file("spreading-packet"),
                     "--outdir", str(outdir), "--report", str(report_path)]) == 0
        assert (outdir / "bounds.csv").is_file()
        assert json.loads(report_path.read_text())["exit_code"] == 0

    def test_outdir_that_is_a_file_is_one(self, scenario_file, tmp_path, capsys):
        outdir = tmp_path / "taken"
        outdir.write_text("")
        code = main(["feasibility", "--config", scenario_file("beam-splitter"),
                     "--outdir", str(outdir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [cli]: ") and "Traceback" not in err


class TestWrite:
    """``cli._write`` writes over an existing file in place and cuts it to
    the new length, so no file is truncated to zero before its rewrite."""

    def test_shorter_text_leaves_no_tail(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        cli._write(path, "a\n")
        assert path.read_bytes() == b"a\n"

    def test_longer_text_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("a\n")
        cli._write(path, "p,ψ\n1,2\n")
        assert path.read_bytes() == "p,ψ\n1,2\n".encode("utf-8")

    def test_new_file_keeps_line_endings(self, tmp_path):
        path = tmp_path / "new" / "out.csv"
        cli._write(path, "a\r\nb\n")
        assert path.read_bytes() == b"a\r\nb\n"

    def test_writes_through_a_symlink(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("old text, longer than the new\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        cli._write(link, "new\n")
        assert link.is_symlink() and target.read_bytes() == b"new\n"

    def test_report_is_rewritten_in_place(self, scenario_file, tmp_path):
        config = scenario_file("beam-splitter")
        report_path = tmp_path / "report.json"
        argv = ["feasibility", "--config", config, "--outdir", str(tmp_path / "out"),
                "--report", str(report_path)]
        assert main(argv) == 0
        inode = report_path.stat().st_ino
        report_path.write_text(report_path.read_text() + " " * 4096)
        assert main(argv) == 0
        assert report_path.stat().st_ino == inode
        assert json.loads(report_path.read_text())["exit_code"] == 0
        assert not report_path.read_text().endswith(" ")

    def test_writes_to_the_null_device(self, scenario_file, tmp_path):
        # a character device can be written but not cut
        cli._write(Path(os.devnull), "a\n")
        argv = ["feasibility", "--config", scenario_file("beam-splitter"),
                "--outdir", str(tmp_path / "out"), "--report", os.devnull]
        assert main(argv) == 0

    def test_writes_into_a_fifo(self, tmp_path):
        # a FIFO can be written but not cut
        path = tmp_path / "fifo"
        os.mkfifo(path)
        read: list[bytes] = []
        reader = threading.Thread(target=lambda: read.append(path.read_bytes()), daemon=True)
        reader.start()
        cli._write(path, "p,ψ\n")
        reader.join(timeout=60)
        assert read == ["p,ψ\n".encode("utf-8")]

    def test_scenario_to_a_pipe(self):
        env = dict(os.environ, PYTHONPATH=str(Path(iqp.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "iqp.cli", "scenario", "beam-splitter",
             "--out", "/dev/stdout"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == config_json(BUILTIN_SCENARIOS["beam-splitter"]()) + \
            "wrote /dev/stdout\n"

    def test_failed_write_keeps_no_old_tail(self, tmp_path, monkeypatch):
        # the file holds what was written before the failure, as after a
        # truncation to zero, and none of the old text behind it
        path = tmp_path / "out.csv"
        path.write_text("old text, longer than the new\n")
        write, calls = os.write, []

        def fail_after_three(fd, data):  # a short write, then a full disk
            calls.append(fd)
            if len(calls) == 1:
                return write(fd, data[:3])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli.os, "write", fail_after_three)
        with pytest.raises(OSError, match="No space"):
            cli._write(path, "new text\n")
        monkeypatch.undo()
        assert path.read_bytes() == b"new"
