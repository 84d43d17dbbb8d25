"""Experiment driver tests: config validation, audit bundles, scaling-law
sweeps, power-law fitting, and the command-line entry point."""

import argparse
import dataclasses
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypwhitney import cli
from hypwhitney.cli import (
    SWEEP_HEADER,
    ExperimentConfig,
    load_config,
    main,
    run_audits,
    run_scaling_law,
)
from hypwhitney.extension import QuadratureSpec, extend_grid, extend_points
from hypwhitney.reports import fit_power_law


def small_config(**overrides):
    base = dict(
        rho_grid=(2.0**-4,),
        delta_grid=(2.0**-4,),
        tv_delta_grid=(2.0**-2, 2.0**-3),
        scaling_delta_grid=(2.0**-1, 2.0**-2, 2.0**-3, 2.0**-4),
        straight_delta_grid=(2.0, 4.0),
        samples=150,
        whitney_cap=256,
        quad=QuadratureSpec(truncation=(2.0**10,) * 3, freq_grid=(12, 12, 12)),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ExperimentConfig()
        assert cfg.p > 5.0 / 3.0 and cfg.q >= 2.0
        assert all(d > 0 for d in cfg.delta_grid)

    def test_json_roundtrip(self):
        quad = QuadratureSpec(max_panel_phase=math.pi / 3.0, truncation=(2.0**10,) * 3,
                              freq_grid=(12, 12, 12), refinement=2)
        cfg = small_config(seed=11, threads=2, negative_controls=True, quad=quad)
        data = json.loads(json.dumps(cfg.to_json_dict()))
        assert data["quad"]["max_panel_phase"] == math.pi / 3.0
        back = ExperimentConfig.from_json_dict(data)
        assert back.to_json_dict() == cfg.to_json_dict()
        assert back.quad == cfg.quad

    def test_exponent_window(self):
        with pytest.raises(ValueError):
            ExperimentConfig(p=5.0 / 3.0)
        with pytest.raises(ValueError):
            ExperimentConfig(q=1.5)
        for bad in ((0.3,), (0.3, -0.15), (-0.15, math.inf), (-0.15, math.nan), 0.3):
            with pytest.raises(ValueError):
                ExperimentConfig(straight_band=bad)
        with pytest.raises(ValueError):
            ExperimentConfig(exponent_tolerance=-0.01)
        ExperimentConfig(p=1.75)
        ExperimentConfig(straight_band=(0.0, 0.0), exponent_tolerance=0.0)

    def test_grids_must_be_dyadic(self):
        with pytest.raises(ValueError):
            ExperimentConfig(rho_grid=(0.3,))
        with pytest.raises(ValueError):
            ExperimentConfig(delta_grid=(2.0**-3, 0.75))
        with pytest.raises(ValueError):
            ExperimentConfig(C0=24.0)
        with pytest.raises(ValueError):
            ExperimentConfig(whitney_cap=0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_json_dict({"no_such_field": 1})
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_json_dict({"quad": {"bogus": 1}})

    @pytest.mark.parametrize("quad", [
        {"freq_grid": [4.5, 4, 4]},
        {"truncation": [math.inf] * 3},
        {"nodes_per_panel": 2.5},
        {"refinement": 2.0},
        {"node_budget": 1e6},
        {"max_panel_phase": math.inf},
        {"freq_grid": 4},
        {"truncation": 1024.0},
    ])
    def test_bad_quadrature_rejected(self, quad):
        data = json.loads(json.dumps({"quad": quad}))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json_dict(data)

    @pytest.mark.parametrize("data", [
        {"samples": 2.5},
        {"samples": True},
        {"threads": 1.5},
        {"whitney_cap": 10.5},
        {"rho_grid": 0.0625},
        {"seed": 1.5},
        {"seed": True},
        {"seed": -1},
        {"p": math.inf},
        {"p": "x"},
        {"negative_controls": "yes"},
        {"output_dir": 5},
        {"C0": None},
        {"exponent_tolerance": None},
        {"quad": 5},
        # an int past the float range in any number field: a ValueError, not
        # an OverflowError from a float conversion, and never stored
        *({name: 10**400} for name in ("C0", "c0", "straight_rho", "straight_truncation", "p", "q",
                                      "exponent_tolerance", "samples", "threads", "whitney_cap")),
        {"straight_band": [0.0, 10**400]},
        *({name: [1.0, 10**400]} for name in cli.GRID_FIELDS),
        {"quad": {"truncation": [10**400, 1.0, 1.0]}},
        {"quad": {"max_panel_phase": 10**400}},
        {"quad": {"freq_grid": [10**400, 4, 4]}},
        {"quad": {"node_budget": 10**400}},
    ])
    def test_bad_count_or_grid_rejected(self, data):
        data = json.loads(json.dumps(data))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json_dict(data)

    @pytest.mark.parametrize("data, rho", [
        ({"C0": 64}, 0.0625),  # strips at |y| ~ 1.5, outside Q
        ({"C0": 4}, 0.0625),  # strips too close for member separation C0*rho/2
        ({"straight_rho": 0.25}, 0.25),
        ({"rho_grid": [0.0625, 0.125]}, 0.125),
    ])
    def test_strips_must_be_separated_and_in_q(self, data, rho):
        with pytest.raises(ValueError, match=rf"C0={data.get('C0', 32.0)} and rho={rho}: "):
            ExperimentConfig.from_json_dict(data)

    def test_coupled_configs_valid(self):
        # rhos with C0*rho <= 2 at C0 = 32, and the smallest C0 whose strips separate at
        # the largest rho that keeps them in Q
        ExperimentConfig(rho_grid=(2.0**-4, 2.0**-5, 2.0**-8), straight_rho=2.0**-4)
        ExperimentConfig(C0=8.0, rho_grid=(0.25,))
        small_config()

    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 9, "samples": 5}))
        cfg = load_config(path)
        assert cfg.seed == 9 and cfg.samples == 5


# JSON-like values: scalars of every JSON type (nan and the infinities as
# Python's json reads them), the edge numbers of the config contract and
# nested lists and mappings of them.
EDGE_VALUES = (0, -1, -0.0, 1.5, 2.5, 10**400, -(10**400), 2.0**-1074, 2.0**1023, 1, 2, 4096,
               2.0**-4, 32.0, 0.15, "", "x")
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
                | st.sampled_from(EDGE_VALUES))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)
CONFIG_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]
QUAD_FIELDS = [f.name for f in dataclasses.fields(QuadratureSpec)]


def assert_roundtrips_or_raises(build):
    """build() gives a config that round-trips through to_json_dict, JSON
    text and from_json_dict to the same JSON, or raises ValueError."""
    try:
        cfg = build()
    except ValueError:
        return
    text = json.dumps(cfg.to_json_dict(), sort_keys=True)
    back = ExperimentConfig.from_json_dict(json.loads(text))
    assert json.dumps(back.to_json_dict(), sort_keys=True) == text
    assert back == cfg


class TestConfigContract:
    """Any one config field, quad field or flag set to any JSON-like value:
    a config that round-trips exactly, or ValueError."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(CONFIG_FIELDS), JSON_VALUES)
    def test_any_field(self, name, value):
        assert_roundtrips_or_raises(lambda: ExperimentConfig.from_json_dict({name: value}))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(QUAD_FIELDS), JSON_VALUES)
    def test_any_quad_field(self, name, value):
        assert_roundtrips_or_raises(lambda: ExperimentConfig.from_json_dict({"quad": {name: value}}))

    @settings(max_examples=200, deadline=None)
    @given(st.none() | st.integers() | st.sampled_from((10**400, -(10**400))),
           st.none() | st.text(max_size=5), st.none() | st.integers(), st.booleans())
    def test_flags(self, seed, out, threads, negative_controls):
        args = argparse.Namespace(config=None, seed=seed, out=out, threads=threads,
                                  negative_controls=negative_controls)
        assert_roundtrips_or_raises(lambda: cli._config_from_args(args))


class TestFitPowerLaw:
    def test_exact_square_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        fit = fit_power_law(x, x**2)
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_half_power(self):
        rng = np.random.default_rng(3)
        x = np.geomspace(1.0, 64.0, 12)
        y = 3.0 * np.sqrt(x) * (1.0 + 0.01 * rng.standard_normal(12))
        fit = fit_power_law(x, y)
        assert abs(fit.exponent - 0.5) <= 0.05
        assert np.exp(fit.log_prefactor) == pytest.approx(3.0, rel=0.05)

    def test_single_x_errors(self):
        with pytest.raises(ValueError):
            fit_power_law([2.0], [5.0])
        with pytest.raises(ValueError):
            fit_power_law([2.0, 2.0], [5.0, 6.0])


class TestRunAudits:
    def test_empty_grids_empty_bundle(self):
        cfg = ExperimentConfig(rho_grid=(), delta_grid=(), tv_delta_grid=(),
                               samples=10)
        bundle = run_audits(cfg)
        assert bundle["audits"] == []
        assert bundle["passed"] is True
        assert bundle["schema"] == "hypwhitney/1"

    def test_bundle_structure(self):
        bundle = run_audits(small_config())
        names = [a["name"] for a in bundle["audits"]]
        assert names[0] == "surface_identities"
        assert "tau_bounds:rho=2^-4,delta=2^-4" in names
        assert "reduction_residual:rho=2^-4,delta=2^-4" in names
        assert "prototype_tv_stability" in names
        assert "whitney_disjoint:rho=2^-4" in names
        assert "sumset_x:rho=2^-4,delta=2^-4" in names
        for entry in bundle["audits"]:
            assert entry["negative_control"] is False
            assert entry["expected_pass"] is True
            assert isinstance(entry["pass"], bool)

    def test_negative_controls_marked_and_failing(self):
        bundle = run_audits(small_config(negative_controls=True))
        ncs = [a for a in bundle["audits"] if a["negative_control"]]
        assert {a["name"] for a in ncs} == {
            "nc:tau_bounds_corrupted",
            "nc:sumset_x_shrunken",
            "nc:overlap_kappa_tiny",
        }
        for entry in ncs:
            assert entry["expected_pass"] is False
            assert entry["pass"] is False
        # controls never enter the aggregate
        base = {a["name"]: a["pass"] for a in run_audits(small_config())["audits"]}
        assert bundle["passed"] == all(base.values())

    def test_decomposition_built_once_per_rho_under_contention(self, monkeypatch):
        calls = []

        def slow(V1, V2, *args, **kwargs):
            calls.append(V1.rho)
            time.sleep(0.01)
            return object()

        monkeypatch.setattr(cli, "decompose", slow)
        rho_grid = (2.0**-4, 2.0**-5)
        decomposition = cli._decompositions(small_config(rho_grid=rho_grid))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(decomposition, rho_grid * 16, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == sorted(rho_grid)
        assert len({id(d) for d in got}) == 2

    def test_deterministic_and_thread_independent(self):
        cfg = small_config(seed=21)
        one = json.dumps(run_audits(cfg), sort_keys=True)
        two = json.dumps(run_audits(cfg), sort_keys=True)
        assert one == two
        threaded = run_audits(dataclasses.replace(cfg, threads=4))
        threaded["config"]["threads"] = 1
        assert json.dumps(threaded, sort_keys=True) == one


class TestRunScalingLaw:
    def test_prototype_regime(self):
        res = run_scaling_law(small_config(), "prototype")
        assert res["regime"] == "prototype"
        assert res["theory_exponent"] == pytest.approx(0.5)
        assert len(res["rows"]) == 4
        for row in res["rows"]:
            assert set(row) == {"delta", "rho", "p", "q", "ratio",
                                "truncation", "refinement_delta"}
            assert row["rho"] == 1.0 and row["ratio"] > 0
        assert res["band"][0] == pytest.approx(0.5 - 0.15)
        assert res["within_band"] == (res["fit"]["exponent"] >= res["band"][0])

    def test_prototype_ratios_decrease_with_scale(self):
        res = run_scaling_law(small_config(), "prototype")
        ratios = [r["ratio"] for r in sorted(res["rows"], key=lambda r: r["delta"])]
        assert ratios == sorted(ratios)

    def test_straight_regime(self):
        res = run_scaling_law(small_config(), "straight")
        assert res["theory_exponent"] == pytest.approx(0.0)
        assert len(res["rows"]) == 2
        for row in res["rows"]:
            assert row["rho"] == 2.0**-6
            assert row["truncation"] == 2.0**13
        lo, hi = res["band"]
        assert res["within_band"] == (lo <= res["fit"]["exponent"] <= hi)

    def test_theory_exponent_general_q(self):
        res = run_scaling_law(small_config(p=4.0, q=4.0), "prototype")
        assert res["theory_exponent"] == pytest.approx(5.0 - 3.0 / 4.0 - 6.0 / 4.0)
        res = run_scaling_law(small_config(p=4.0, q=4.0), "straight")
        assert res["theory_exponent"] == pytest.approx(2.0 * (1.0 - 0.25 - 0.25))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            run_scaling_law(small_config(), "nonsense")
        with pytest.raises(ValueError):
            run_scaling_law(small_config(scaling_delta_grid=(0.5, 0.25)), "prototype")
        with pytest.raises(ValueError):
            run_scaling_law(small_config(scaling_delta_grid=(1.0, 0.5, 0.25, 0.125)),
                            "prototype")
        with pytest.raises(ValueError):
            run_scaling_law(small_config(straight_delta_grid=(2.0,)), "straight")
        with pytest.raises(ValueError):
            run_scaling_law(small_config(straight_delta_grid=(0.5, 2.0)), "straight")

    def test_deterministic(self):
        cfg = small_config()
        assert run_scaling_law(cfg, "prototype") == run_scaling_law(cfg, "prototype")

    def test_grid_kernel_matches_dense_oracle_on_every_job(self, monkeypatch):
        jobs = []
        real = cli.bilinear_field

        def recording(owner, family, quad):
            jobs.append((owner, family, quad))
            return real(owner, family, quad)

        monkeypatch.setattr(cli, "bilinear_field", recording)
        for regime in ("prototype", "straight"):
            run_scaling_law(small_config(), regime)
        assert len(jobs) == 4 + 2
        for owner, family, quad in jobs:
            for car in (owner.carrier(1), owner.carrier(2)):
                field = extend_grid(car, family, quad)
                mesh = np.meshgrid(*field.axes, indexing="ij")
                xis = np.column_stack([m.ravel() for m in mesh])
                dense = extend_points(car, family, xis, quad).reshape(field.values.shape)
                assert np.abs(field.values - dense).max() <= 1e-12 * np.abs(dense).max()

    # (ratio, refinement_delta) of the default sweeps from the grid kernel
    # with the unfactored phase.  The factored kernel rounds differently, so
    # ratio is held within 1e-12 and refinement_delta, a difference of two
    # norms, within 1e-9 relative.
    RECORDED_SWEEPS = {
        "prototype": [(0.09474999698765162, 1.2048576567767106e-06),
                      (0.04606433608007799, 2.0557075316309118e-05),
                      (0.013938594703571118, 0.00012625994371354265),
                      (0.0035658098773992996, 0.0014029785287171912),
                      (0.0008713637753758988, 0.0031194125282122663)],
        "straight": [(0.39820426083506116, 0.0011406812897853504),
                     (0.4260177479125556, 0.03162723285850168),
                     (0.41335793023204165, 0.09287082089888095)],
    }

    @pytest.mark.parametrize("regime", ["prototype", "straight"])
    def test_default_sweep_matches_recorded_rows(self, regime):
        rows = run_scaling_law(ExperimentConfig(), regime)["rows"]
        want = self.RECORDED_SWEEPS[regime]
        assert len(rows) == len(want)
        for row, (ratio, refinement) in zip(rows, want):
            assert row["ratio"] == pytest.approx(ratio, rel=1e-12, abs=0.0)
            assert row["refinement_delta"] == pytest.approx(refinement, rel=1e-9, abs=0.0)


class TestMain:
    def write_config(self, tmp_path, **overrides):
        cfg = small_config(**overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_json_dict()))
        return path

    def test_audit_subcommand(self, tmp_path):
        cfgp = self.write_config(tmp_path)
        out = tmp_path / "run"
        code = main(["audit", "--config", str(cfgp), "--out", str(out), "--seed", "5"])
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == "hypwhitney/1"
        assert report["config"]["seed"] == 5
        assert code == (0 if report["passed"] else 1)

    def test_decompose_subcommand(self, tmp_path):
        cfgp = self.write_config(tmp_path)
        out = tmp_path / "dec"
        assert main(["decompose", "--config", str(cfgp), "--out", str(out)]) == 0
        payload = json.loads((out / "decomposition.json").read_text())
        assert len(payload["decompositions"]) == 1
        assert (out / "pairs_rho_4.jsonl").read_text().strip()

    def test_transversality_subcommand(self, tmp_path):
        cfgp = self.write_config(tmp_path)
        out = tmp_path / "tv"
        assert main(["transversality", "--config", str(cfgp), "--out", str(out)]) == 0
        payload = json.loads((out / "transversality.json").read_text())
        assert payload["passed"] is True

    def test_sumsets_subcommand(self, tmp_path):
        cfgp = self.write_config(tmp_path)
        out = tmp_path / "ss"
        main(["sumsets", "--config", str(cfgp), "--out", str(out),
              "--negative-controls"])
        payload = json.loads((out / "sumsets.json").read_text())
        flags = [a["negative_control"] for a in payload["audits"]]
        assert True in flags and False in flags
        shrunken = [a for a in payload["audits"] if a["negative_control"]]
        assert all(not a["pass"] for a in shrunken)

    def test_scaling_law_subcommand_outputs(self, tmp_path):
        cfgp = self.write_config(tmp_path)
        out = tmp_path / "sl"
        main(["scaling-law", "--config", str(cfgp), "--out", str(out)])
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 4 + 2
        for line in lines[1:]:
            assert len(line.split(",")) == 7
        payload = json.loads((out / "scaling.json").read_text())
        assert payload["prototype"]["fit"]["r_squared"] <= 1.0

    def test_byte_identical_reruns(self, tmp_path):
        cfgp = self.write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["scaling-law", "--config", str(cfgp), "--out", str(out1)])
        main(["scaling-law", "--config", str(cfgp), "--out", str(out2)])
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        j1 = json.loads((out1 / "scaling.json").read_text())
        j2 = json.loads((out2 / "scaling.json").read_text())
        j1["config"]["output_dir"] = j2["config"]["output_dir"] = ""
        assert j1 == j2

    def test_scaling_law_thread_independent(self, tmp_path):
        cfgp = self.write_config(tmp_path)
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            main(["scaling-law", "--config", str(cfgp), "--out", str(out),
                  "--threads", threads])
            outs.append(out)
        one, two = outs
        assert (one / "sweep.csv").read_bytes() == (two / "sweep.csv").read_bytes()
        j1 = json.loads((one / "scaling.json").read_text())
        j2 = json.loads((two / "scaling.json").read_text())
        assert (j1["config"]["threads"], j2["config"]["threads"]) == (1, 2)
        for j in (j1, j2):
            j["config"]["threads"] = 1
            j["config"]["output_dir"] = ""
        assert j1 == j2

    def test_flag_overrides(self, tmp_path):
        cfgp = self.write_config(tmp_path, seed=1)
        out = tmp_path / "ov"
        main(["transversality", "--config", str(cfgp), "--out", str(out),
              "--seed", "99", "--threads", "2"])
        payload = json.loads((out / "transversality.json").read_text())
        assert payload["config"]["seed"] == 99
        assert payload["config"]["threads"] == 2
        # flags are validated like the config file's fields; threads clamp to 1
        with pytest.raises(ValueError, match="seed"):
            main(["transversality", "--config", str(cfgp), "--out", str(out), "--seed", "-1"])
        main(["transversality", "--config", str(cfgp), "--out", str(out), "--threads", "0"])
        assert json.loads((out / "transversality.json").read_text())["config"]["threads"] == 1

    @pytest.mark.parametrize("negative_controls", [False, True])
    def test_subcommand_entries_equal_report_entries(self, tmp_path, negative_controls):
        cfgp = self.write_config(tmp_path, seed=7)
        flags = ["--negative-controls"] if negative_controls else []
        payloads = {}
        for command, filename in (("audit", "report.json"), ("sumsets", "sumsets.json"),
                                  ("transversality", "transversality.json")):
            out = tmp_path / command
            main([command, "--config", str(cfgp), "--out", str(out)] + flags)
            payloads[command] = json.loads((out / filename).read_text())
        report = {e["name"]: e for e in payloads["audit"]["audits"]}
        for command in ("sumsets", "transversality"):
            entries = payloads[command]["audits"]
            assert entries
            for entry in entries:
                assert entry == report[entry["name"]]
        names = [e["name"] for e in payloads["sumsets"]["audits"]]
        assert ("nc:sumset_x_shrunken" in names) == negative_controls

    @pytest.mark.parametrize("command,threads,per_rho", [
        ("sumsets", "1", 0),
        ("transversality", "1", 0),
        ("audit", "1", 1),
        ("audit", "2", 1),
    ])
    def test_one_decomposition_per_rho(self, tmp_path, monkeypatch, command, threads,
                                       per_rho):
        rho_grid = (2.0**-4, 2.0**-5)
        cfgp = self.write_config(tmp_path, rho_grid=rho_grid)
        calls = []
        real = cli.decompose

        def counting(V1, V2, *args, **kwargs):
            calls.append(V1.rho)
            return real(V1, V2, *args, **kwargs)

        monkeypatch.setattr(cli, "decompose", counting)
        main([command, "--config", str(cfgp), "--out", str(tmp_path / "out"),
              "--threads", threads, "--negative-controls"])
        assert sorted(calls) == sorted(rho_grid * per_rho)

    @pytest.mark.parametrize("command,filename,key,overrides", [
        ("sumsets", "sumsets.json", "audits", dict(rho_grid=())),
        ("sumsets", "sumsets.json", "audits", dict(delta_grid=())),
        ("transversality", "transversality.json", "audits",
         dict(tv_delta_grid=(2.0**-2,))),
        ("decompose", "decomposition.json", "decompositions", dict(delta_grid=())),
    ], ids=["sumsets-no-rho", "sumsets-no-delta", "transversality-one-scale",
            "decompose-no-delta"])
    def test_grids_the_bundle_skips_give_empty_output(self, tmp_path, command, filename,
                                                      key, overrides):
        cfgp = self.write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        code = main([command, "--config", str(cfgp), "--out", str(out),
                     "--negative-controls"])
        assert code == 0
        assert json.loads((out / filename).read_text())[key] == []
