import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import seeded_config, sset
from iqp.credal import feasibility, lower_upper
from iqp import cli, events, scenarios
from iqp.events import TrajectorySpace, parse_event, parse_expr
from iqp.scenarios import (
    BUILTIN_SCENARIOS,
    ConfigError,
    build_adversarial_demo,
    build_beam_splitter,
    build_constraints,
    build_drifting_branch,
    build_mach_zehnder,
    build_spreading_packet,
    build_system,
    config_hash,
    config_json,
    config_to_dict,
    count_pairs,
    enumerate_pairs,
    load_config,
    parse_config,
)
from iqp.system import QuantumSystem, Region, SSet

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench.workloads import LADDER, VERDICTS, make_config  # noqa: E402


def minimal_config() -> dict:
    return {
        "schema": "iqp-config/1",
        "system": {
            "labels": ["a", "b"],
            "steps": ["identity"],
            "initial_state": [[1.0, 0.0], [0.0, 0.0]],
        },
        "rules": {"ruleset": "born"},
        "queries": {},
    }


def errors_of(data) -> list[str]:
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    return err.value.errors


class TestParseConfig:
    @pytest.mark.parametrize("samples", [1, 20, 1000])
    def test_samples_within_the_bound(self, samples):
        data = minimal_config()
        data["queries"]["samples"] = samples
        assert parse_config(data).samples == samples

    @pytest.mark.parametrize("samples", [0, 1001, 10_000_000])
    def test_samples_beyond_the_bound(self, samples):
        """Each vertex sample is one LP, so an unbounded count would run
        ``branch`` without end; the reader refuses it with the field's path."""
        data = minimal_config()
        data["queries"]["samples"] = samples
        assert errors_of(data) == ["config.queries.samples: expected integer in [1, 1000]"]

    def test_minimal_valid(self):
        cfg = parse_config(minimal_config())
        assert cfg.m == 2 and cfg.n == 2
        assert cfg.ruleset == ("born",)
        assert cfg.seed == 42

    def test_non_unitary_step_names_index(self):
        data = minimal_config()
        data["system"]["steps"] = [
            "identity",
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
        ]
        messages = errors_of(data)
        assert any("step matrix 1 is not unitary" in msg for msg in messages)

    def test_cap_rejection_names_count(self, monkeypatch):
        data = minimal_config()
        data["system"]["labels"] = ["a", "b", "c", "d"]
        data["system"]["steps"] = ["identity"] * 9
        data["system"]["initial_state"] = [[1.0, 0.0]] + [[0.0, 0.0]] * 3
        messages = errors_of(data)
        assert any("1048576" in msg for msg in messages)

    def test_unknown_keys_rejected(self):
        data = minimal_config()
        data["extra"] = 1
        data["system"]["frobnicate"] = True
        messages = errors_of(data)
        assert any("extra: unknown key" in msg for msg in messages)
        assert any("frobnicate: unknown key" in msg for msg in messages)

    def test_all_errors_collected(self):
        data = minimal_config()
        data["schema"] = "nope"
        data["rules"]["ruleset"] = "astrology"
        data["queries"]["delta"] = 7
        messages = errors_of(data)
        assert len(messages) >= 3

    def test_wrong_schema_version(self):
        data = minimal_config()
        data["schema"] = "iqp-config/2"
        assert any("schema" in msg for msg in errors_of(data))

    def test_ruleset_combinations(self):
        data = minimal_config()
        data["rules"]["ruleset"] = "born+qtr-eps"
        data["rules"]["epsilon"] = 0.25
        cfg = parse_config(data)
        assert cfg.ruleset == ("born", "qtr-eps")

    def test_eps_requires_parameter(self):
        data = minimal_config()
        data["rules"]["ruleset"] = "qtr-eps"
        assert any("epsilon: required" in msg for msg in errors_of(data))

    def test_alpha_requires_parameter(self):
        data = minimal_config()
        data["rules"]["ruleset"] = "qtr-alpha"
        assert any("alpha: required" in msg for msg in errors_of(data))

    def test_hadamard_needs_two_labels(self):
        data = minimal_config()
        data["system"]["labels"] = ["a", "b", "c"]
        data["system"]["steps"] = ["hadamard"]
        data["system"]["initial_state"] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        assert any("hadamard needs exactly 2" in msg for msg in errors_of(data))

    def test_dft_any_dimension(self):
        data = minimal_config()
        data["system"]["labels"] = ["a", "b", "c"]
        data["system"]["steps"] = ["dft"]
        data["system"]["initial_state"] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        cfg = parse_config(data)
        assert build_system(cfg).m == 3

    def test_times_must_match_grid(self):
        data = minimal_config()
        data["system"]["times"] = [0, 2]
        assert any("times" in msg for msg in errors_of(data))
        data["system"]["times"] = [0, 1]
        parse_config(data)

    def test_bad_event_expression_path(self):
        data = minimal_config()
        data["queries"]["events"] = ["(t=9,{0})"]
        assert any("queries.events[0]" in msg for msg in errors_of(data))

    def test_deep_event_expression_is_config_error(self):
        data = minimal_config()
        data["queries"]["events"] = ["(" * 2000 + "(t=0,{0})" + ")" * 2000]
        [msg] = errors_of(data)
        assert msg.startswith("config.queries.events[0]: expression nested deeper than")

    def test_validation_builds_no_atoms(self, count_calls):
        data = minimal_config()
        data["queries"]["events"] = ["(t=0,{0}) & !(t=1,{1})"]
        data["rules"]["extra_lower_bounds"] = [{"event": "(t=1,{0})", "min_probability": 0.5}]
        built = count_calls(events, "sset_event")
        parse_config(data)
        assert built == []

    def test_bad_extra_bound_event(self):
        data = minimal_config()
        data["rules"]["extra_lower_bounds"] = [
            {"event": "(t=0,{0}", "min_probability": 0.5}
        ]
        assert any("extra_lower_bounds[0].event" in msg for msg in errors_of(data))

    def test_branch_validation(self):
        data = minimal_config()
        data["queries"]["branches"] = [
            {"name": "x", "ssets": [[0, [0]], [9, [0]]]}
        ]
        assert any("time 9 out of range" in msg for msg in errors_of(data))

    def test_duplicate_branch_names(self):
        data = minimal_config()
        data["queries"]["branches"] = [
            {"name": "x", "ssets": [[0, [0]]]},
            {"name": "x", "ssets": [[1, [0]]]},
        ]
        assert any("duplicate branch names" in msg for msg in errors_of(data))

    def test_max_region_size_vs_labels(self):
        data = minimal_config()
        data["rules"]["pairs"] = {"max_region_size": 5}
        assert any("exceeds" in msg for msg in errors_of(data))

    def test_time_pairs_validated(self):
        data = minimal_config()
        data["rules"]["pairs"] = {"max_region_size": 1, "time_pairs": [[0, 0]]}
        assert any("times must differ" in msg for msg in errors_of(data))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10**400])
    def test_non_finite_numbers_rejected(self, value):
        data = minimal_config()
        data["system"]["steps"] = [[[[value, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]
        data["system"]["initial_state"] = [[1.0, 0.0], [0.0, value]]
        data["rules"].update(
            ruleset="born+qtr-eps+qtr-alpha", epsilon=value, alpha=value, tau_norm=value,
            extra_lower_bounds=[{"event": "(t=0,{0})", "min_probability": value}],
        )
        data["queries"].update(
            delta=value, branches=[{"name": "x", "ssets": [[0, [0]]], "delta": value}]
        )
        assert [msg.split(": ")[0] for msg in errors_of(data)] == [
            "config.system.steps[0][0][0]",
            "config.system.initial_state[1]",
            "config.rules.epsilon",
            "config.rules.alpha",
            "config.rules.tau_norm",
            "config.rules.extra_lower_bounds[0].min_probability",
            "config.queries.branches[0].delta",
            "config.queries.delta",
        ]


    @pytest.mark.parametrize("ruleset", ["born+qtr-eps", "born+astrology"])
    def test_whole_error_list(self, ruleset):
        """Every block broken at once: each message, in document order."""
        data = minimal_config()
        data["extra"] = 1
        data["schema"] = "iqp-config/0"
        data["system"].update(
            labels=["a", "a"],
            steps=["identity", [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]],
            times=[0, 2],
            initial_state="psi",
        )
        data["rules"].update(
            ruleset=ruleset,
            frobnicate=True,
            pairs={"max_region_size": 0, "time_pairs": [[0, 0], [0, 9], "x"], "spare": 1},
            extra_lower_bounds=[{"event": "(t=0,{0})", "min_probability": "high", "note": ""}],
        )
        data["queries"].update(
            branches=[
                {"name": "b", "ssets": [[0, [0]], [7, [0]]], "weight": 1},
                {"name": "c", "ssets": [[0, [0]]], "delta": 1},
            ],
            delta=0,
            samples=0,
            seed=1.5,
        )
        # an unknown rule empties the ruleset, so qtr-eps cannot ask for epsilon
        ruleset_error = {
            "born+qtr-eps": "config.rules.epsilon: required by qtr-eps",
            "born+astrology": "config.rules.ruleset: unknown rules ['astrology'], "
                              "valid: ['born', 'qtr', 'qtr-min', 'qtr-eps', 'qtr-alpha']",
        }[ruleset]
        assert errors_of(data) == [
            "config.extra: unknown key",
            "config.schema: expected 'iqp-config/1', got 'iqp-config/0'",
            "config.system.labels: labels must be distinct",
            "config.system.steps[1][1]: expected 2 entries",
            "config.system.times: must equal [0, 1, 2] for 2 steps",
            "config.system.initial_state: expected list of m [re, im] pairs",
            "config.rules.frobnicate: unknown key",
            ruleset_error,
            "config.rules.pairs.spare: unknown key",
            "config.rules.pairs.max_region_size: expected integer >= 1",
            "config.rules.pairs.time_pairs[0]: times must differ",
            "config.rules.pairs.time_pairs[1]: time out of range 0..2",
            "config.rules.pairs.time_pairs[2]: expected [t1, t2]",
            "config.rules.extra_lower_bounds[0].note: unknown key",
            "config.rules.extra_lower_bounds[0].min_probability: expected a number",
            "config.queries.branches[0].weight: unknown key",
            "config.queries.branches[0].ssets[1]: time 7 out of range 0..2",
            "config.queries.branches[1].delta: expected number in (0, 1)",
            "config.queries.delta: expected number in (0, 1)",
            "config.queries.samples: expected integer in [1, 1000]",
            "config.queries.seed: expected integer",
        ]


class TestLoadConfig:
    def test_json_error_has_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    def test_deep_json_is_config_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert exc.value.errors == [f"{path}: JSON nested too deeply to parse"]

    def test_round_trip_file(self, tmp_path):
        cfg = build_beam_splitter()
        path = tmp_path / "bs.json"
        path.write_text(config_json(cfg))
        loaded = load_config(str(path))
        assert config_hash(loaded) == config_hash(cfg)


class TestEnumeratePairs:
    def test_deterministic_and_ordered(self, hti_system):
        first = enumerate_pairs(hti_system, 1)
        second = enumerate_pairs(hti_system, 1)
        assert first == second
        # 3 time pairs x 2 regions x 2 regions
        assert len(first) == 12
        assert first[0][0].time < first[0][1].time

    def test_region_size_cap(self, hti_system):
        pairs = enumerate_pairs(hti_system, 2)
        sizes = {s.region.size() for pair in pairs for s in pair}
        assert sizes == {1, 2}

    def test_explicit_time_pairs(self, hti_system):
        pairs = enumerate_pairs(hti_system, 1, ((1, 2),))
        assert {(s1.time, s2.time) for s1, s2 in pairs} == {(1, 2)}

    @pytest.mark.parametrize("m", range(1, 8))
    def test_same_list_as_sorting_every_region(self, m):
        """Every region of 2^m - 1, sorted by (size, mask), then cut at the cap."""
        system = QuantumSystem([f"x{i}" for i in range(m)], [np.eye(m)], np.eye(m)[0])
        every = sorted((Region(mask, m) for mask in range(1, 1 << m)),
                       key=lambda r: (r.size(), r.mask))
        for cap in range(1, m + 1):
            kept = [r for r in every if r.size() <= cap]
            pairs = enumerate_pairs(system, cap)
            assert len(pairs) == len(kept) ** 2
            assert [s1.region for s1, _ in pairs[::len(kept)]] == kept
            assert all(s2.region == kept[k % len(kept)] for k, (_, s2) in enumerate(pairs))
            assert {(s1.time, s2.time) for s1, s2 in pairs} == {(0, 1)}

    def test_many_labels_build_only_the_kept_regions(self):
        """m = 30 has 2^30 - 1 regions, of which size 1 keeps 30."""
        m = 30
        psi = np.random.default_rng(30).standard_normal(m)
        doc = {
            "schema": "iqp-config/1",
            "system": {"labels": [f"x{i}" for i in range(m)], "steps": ["dft"],
                       "initial_state": [[float(v), 0.0] for v in psi / np.linalg.norm(psi)]},
            "rules": {"ruleset": "born+qtr", "pairs": {"max_region_size": 1}},
            "queries": {},
        }
        start = time.perf_counter()
        cfg = parse_config(doc)
        system = build_system(cfg)
        cs = build_constraints(cfg, system, TrajectorySpace.for_system(system))
        assert time.perf_counter() - start < 1.0
        assert len(enumerate_pairs(system, 1)) == m * m and len(cs) >= 2 * m


class TestBuilders:
    def test_all_builtins_load_and_roundtrip(self):
        for name, builder in BUILTIN_SCENARIOS.items():
            cfg = builder()
            reparsed = parse_config(json.loads(config_json(cfg)), source=name)
            assert config_hash(reparsed) == config_hash(cfg), name

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtin_passes_validation(self, name):
        cfg = BUILTIN_SCENARIOS[name]()
        assert config_json(parse_config(config_to_dict(cfg), source=name)) == config_json(cfg)

    def test_beam_splitter_weights_and_rhs(self):
        cfg = build_beam_splitter()
        system = build_system(cfg)
        assert system.weight(sset(1, [0])) == pytest.approx(0.5, abs=1e-12)
        assert system.weight(sset(1, [1])) == pytest.approx(0.5, abs=1e-12)
        space = TrajectorySpace.for_system(system)
        cs = build_constraints(cfg, system, space)
        branch_rows = [c for c in cs.constraints if c.tag == "qtr"]
        assert branch_rows
        for row in branch_rows:
            assert row.rhs == pytest.approx(0.5, abs=1e-9)
        assert feasibility(cs).feasible

    def test_mach_zehnder_interference(self):
        cfg = build_mach_zehnder()
        system = build_system(cfg)
        upper = system.sequential_probability([sset(1, [0]), sset(2, [0])])
        lower = system.sequential_probability([sset(1, [1]), sset(2, [0])])
        union = system.sequential_probability([sset(1, [0, 1]), sset(2, [0])])
        assert upper == pytest.approx(0.25, abs=1e-12)
        assert lower == pytest.approx(0.25, abs=1e-12)
        assert union == pytest.approx(1.0, abs=1e-12)

    def test_spreading_packet_gap(self):
        cfg = build_spreading_packet()
        system = build_system(cfg)
        space = TrajectorySpace.for_system(system)
        cs = build_constraints(cfg, system, space)
        res = lower_upper(cs, parse_event(cfg.events[0], space))
        assert res.lower == pytest.approx(0.0, abs=1e-9)
        assert res.upper == pytest.approx(0.5, abs=1e-9)

    def test_spreading_packet_qtr_all_vacuous(self):
        cfg = build_spreading_packet()
        system = build_system(cfg)
        space = TrajectorySpace.for_system(system)
        cs = build_constraints(cfg, system, space)
        assert all(c.tag == "born" for c in cs.constraints)

    def test_drifting_branch_feasible_with_drift(self):
        cfg = build_drifting_branch()
        system = build_system(cfg)
        # weights stay exactly balanced while pullbacks drift
        for t in range(3):
            assert system.weight(sset(t, [0])) == pytest.approx(0.5, abs=1e-12)
        assert system.sset_distance(sset(0, [0]), sset(2, [0])) > 1e-8
        space = TrajectorySpace.for_system(system)
        assert feasibility(build_constraints(cfg, system, space)).feasible

    def test_adversarial_demo_infeasible(self):
        cfg = build_adversarial_demo()
        system = build_system(cfg)
        space = TrajectorySpace.for_system(system)
        cert = feasibility(build_constraints(cfg, system, space))
        assert not cert.feasible
        assert cert.farkas.margin >= 0.6 - 1e-9

    def test_config_hash_sensitive_to_content(self):
        a = build_beam_splitter()
        b = build_mach_zehnder()
        assert config_hash(a) != config_hash(b)

    def test_config_dict_has_schema(self):
        data = config_to_dict(build_beam_splitter())
        assert data["schema"] == "iqp-config/1"
        parse_config(data)

    # canonical JSON of each built-in, pinned so that a change of how a config
    # holds its steps cannot change what it writes
    HASHES = {
        "adversarial-demo": "ff3d66ec1489722cffdcafb1676eaaa70165c3aa10f4a82fe116e435c36283d9",
        "beam-splitter": "e09e7597e87a46cdcd16756d448988858cd84e6974b0b798eb973fff18602bfb",
        "drifting-branch": "d43541477c292366d792e25846ea048ccf50729ea0cf636a54402825a0c6e896",
        "mach-zehnder": "cf530b8ecda1c6098bb68b8be21334479a27cc9fc6c53796ecca6468ce1ae430",
        "spreading-packet": "2a12715e21469ae761413410b90d3414f2c2bb7ed44982784c084c322804686c",
    }

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_equal_builtins_compare_and_hash_equal(self, name):
        cfg, again = BUILTIN_SCENARIOS[name](), BUILTIN_SCENARIOS[name]()
        assert cfg == again and hash(cfg) == hash(again)
        assert parse_config(config_to_dict(cfg), source=name) == cfg
        assert config_hash(cfg) == self.HASHES[name]

    def test_matrix_steps_are_tuples_of_complex_rows(self):
        cfg = build_drifting_branch()
        assert all(type(z) is complex for row in cfg.steps[0] for z in row)
        as_array = dataclasses.replace(cfg, steps=tuple(np.array(s) for s in cfg.steps))
        assert as_array == cfg and hash(as_array) == hash(cfg)
        assert as_array != dataclasses.replace(cfg, steps=("identity", "identity"))


class TestKeptSystem:
    """Every config builds its system once, on first use, and keeps it."""

    def test_build_system_returns_the_kept_system(self, count_calls):
        built = count_calls(QuantumSystem, "__init__")
        cfg = build_beam_splitter()
        assert build_system(cfg) is build_system(cfg)
        assert len(built) == 1
        assert parse_config(config_to_dict(cfg)) == cfg  # the kept system is not content

    def test_other_configs_build_each_call(self):
        direct = seeded_config(2, 3, "random", "born", True, seed=3)
        assert build_system(direct) is build_system(direct)
        parsed = build_beam_splitter()
        moved = dataclasses.replace(parsed, psi0=(0j, 1 + 0j))
        assert build_system(moved) is not build_system(parsed)
        assert build_system(moved).psi0.tolist() == [0j, 1 + 0j]

    def test_over_cap_fails_before_any_system(self, monkeypatch, count_calls):
        data = config_to_dict(build_beam_splitter())
        monkeypatch.setenv("IQP_TRAJECTORY_CAP", "7")
        built = count_calls(QuantumSystem, "__init__")
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert exc.value.errors == ["config.system: trajectory count m^n = 8 exceeds cap 7"]
        assert built == []


class TestKeptTrees:
    """Every config expression is parsed once, by validation or on first
    use, and the build evaluates the kept tree."""

    def test_build_parses_no_expression(self, count_calls):
        cfg = parse_config(config_to_dict(build_adversarial_demo()))
        parses = count_calls(events._Parser, "parse")
        space = TrajectorySpace.for_system(cfg.system)
        cs = build_constraints(cfg, cfg.system, space)
        assert parses == []
        demands = [con for con in cs.constraints if con.tag == "demand"]
        assert [con.event for con in demands] == [
            parse_event(expr, space) for expr, _ in cfg.extra_lower_bounds]
        assert cfg.event(cfg.events[0], space) == parse_event(cfg.events[0], space)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_kept_trees_are_not_content(self, name):
        direct = BUILTIN_SCENARIOS[name]()
        parsed = parse_config(config_to_dict(direct))
        before = (config_to_dict(direct), config_hash(direct), hash(direct))
        assert parsed.trees == direct.trees  # parsed by validation, and on first use
        assert parsed == direct
        assert (config_to_dict(direct), config_hash(direct), hash(direct)) == before
        assert (config_to_dict(parsed), config_hash(parsed), hash(parsed)) == before

    def test_direct_configs_parse_on_first_use(self, count_calls):
        cfg = build_adversarial_demo()
        parses = count_calls(events._Parser, "parse")
        space = TrajectorySpace(cfg.m, cfg.n)
        assert cfg.trees == {expr: parse_expr(expr, space)
                             for expr in ("(t=1,{0})", "!(t=1,{0})")}
        assert len(parses) == 3 + 2  # three expressions, then the two above
        assert cfg.trees is cfg.trees
        moved = dataclasses.replace(cfg, events=("(t=0,{1}) | (t=1,{1})",))
        assert set(moved.trees) == {"(t=0,{1}) | (t=1,{1})", "(t=1,{0})", "!(t=1,{0})"}
        assert moved.event(moved.events[0], space) == parse_event(moved.events[0], space)

    def test_bad_expression_on_a_direct_config(self):
        cfg = dataclasses.replace(build_beam_splitter(), events=("(t=9,{0})",))
        space = TrajectorySpace(cfg.m, cfg.n)
        with pytest.raises(ValueError, match="time index 9 out of range"):
            cfg.event(cfg.events[0], space)


def labels_config(m: int, ruleset: str = "born+qtr-min") -> dict:
    """``m`` labels over two times, every region of a pair rule kept."""
    psi = np.random.default_rng(m).standard_normal(m)
    return {
        "schema": "iqp-config/1",
        "system": {"labels": [f"x{i}" for i in range(m)], "steps": ["dft"],
                   "initial_state": [[float(v), 0.0] for v in psi / np.linalg.norm(psi)]},
        "rules": {"ruleset": ruleset, "pairs": {"max_region_size": m}},
    }


class TestPairBound:
    """A pair rule's family is counted before it is built, and a config
    whose family would pass ``PAIR_MEMORY`` is refused."""

    @pytest.mark.parametrize("time_pairs", [None, ((0, 1),), ((1, 0), (0, 2), (0, 1), (1, 0))])
    def test_count_is_the_enumerated_length(self, time_pairs):
        for m in range(1, 5):
            system = QuantumSystem([f"x{i}" for i in range(m)], [np.eye(m)] * 2, np.eye(m)[0])
            for cap in range(1, m + 2):  # one past the label count as well
                assert count_pairs(m, 3, cap, time_pairs) == len(
                    enumerate_pairs(system, cap, time_pairs)), (m, cap)

    def test_twelve_labels_refused_before_any_pair(self, tmp_path, capsys, monkeypatch):
        def enumerate_nothing(*args):
            raise AssertionError("a pair was enumerated")

        monkeypatch.setattr(scenarios, "enumerate_pairs", enumerate_nothing)
        path, report = tmp_path / "twelve.json", tmp_path / "r.json"
        path.write_text(json.dumps(labels_config(12)))
        code = cli.main(["feasibility", "--config", str(path), "--outdir", str(tmp_path),
                         "--report", str(report)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"error [scenarios]: {path}.rules.pairs: 16,769,025 region pairs "
                       "would take about 8,923 MiB, past the bound of 1,024 MiB\n")
        assert json.loads(report.read_text())["error"] == err.rstrip("\n")
        assert not (tmp_path / "constraints.csv").exists()

    def test_ten_labels_and_born_alone_load(self):
        assert parse_config(labels_config(10)).m == 10  # 1,046,529 pairs, 579 MiB
        assert parse_config(labels_config(12, "born")).m == 12  # no pair rule, no family

    def test_benchmark_configs_load(self):
        for rung in (*LADDER, *VERDICTS):
            for infeasible in (False, True):
                parse_config(make_config(rung, 7, 0, 0, infeasible))
