"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = REPO_ROOT / "examples" / "scenarios"


class TestInfo:
    def test_info_prints_version(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "experiment a" in out


class TestSolve:
    def test_solve_experiment_a_default(self, capsys):
        assert main(["solve", "--experiment", "a", "--map", "p1",
                     "--grid", "7", "7", "5"]) == 0
        out = capsys.readouterr().out
        assert "T max" in out and "top-surface temperature" in out

    def test_solve_experiment_b(self, capsys):
        assert main(["solve", "--experiment", "b", "--htc", "800", "400",
                     "--grid", "7", "7", "6"]) == 0
        out = capsys.readouterr().out
        assert "injected power" in out
        assert "0.6250 mW" in out

    def test_solve_unknown_map(self, capsys):
        assert main(["solve", "--map", "p99", "--grid", "5", "5", "4"]) == 2
        assert "unknown map" in capsys.readouterr().err

    def test_solve_energy_balanced(self, capsys):
        main(["solve", "--map", "p3", "--grid", "7", "7", "5"])
        out = capsys.readouterr().out
        imbalance_line = [ln for ln in out.splitlines() if "imbalance" in ln][0]
        value = float(imbalance_line.split(":")[1])
        assert abs(value) < 1e-8


class TestTrain:
    def test_train_writes_checkpoint(self, tmp_path, capsys):
        out_path = tmp_path / "model.npz"
        code = main([
            "train", "--experiment", "a", "--scale", "test",
            "--iterations", "5", "--output", str(out_path), "--quiet",
        ])
        assert code == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "checkpoint written" in out

    def test_train_volumetric_runs(self, tmp_path):
        out_path = tmp_path / "vol.npz"
        code = main([
            "train", "--experiment", "volumetric", "--scale", "test",
            "--iterations", "3", "--output", str(out_path), "--quiet",
        ])
        assert code == 0
        assert out_path.exists()


class TestEvaluateAndSpeedup:
    def test_evaluate_experiment_a(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("repro.api.service.DEFAULT_CACHE_DIR", tmp_path)
        assert main(["evaluate", "--experiment", "a", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "MAPE (%)" in out and "p10" in out

    def test_speedup_table(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("repro.api.service.DEFAULT_CACHE_DIR", tmp_path)
        assert main(["speedup", "--experiment", "a", "--scale", "test",
                     "--batch", "4", "--refine", "2"]) == 0
        out = capsys.readouterr().out
        assert "Speedup study" in out and "paper" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestTransient:
    def test_transient_rollout_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("repro.api.service.DEFAULT_CACHE_DIR", tmp_path)
        assert main(["transient", "--scale", "test", "--scenario", "step",
                     "--times", "4", "--steps-per-interval", "2"]) == 0
        out = capsys.readouterr().out
        assert "transient rollout" in out
        assert "theta peak (K)" in out
        assert "trace speedup" in out
        assert "trunk cache" in out

    def test_transient_early_stop_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("repro.api.service.DEFAULT_CACHE_DIR", tmp_path)
        assert main(["transient", "--scale", "test", "--times", "4",
                     "--steps-per-interval", "2",
                     "--early-stop", "1e9"]) == 0
        out = capsys.readouterr().out
        assert "early-stopped" in out

    def test_train_transient_writes_checkpoint(self, tmp_path):
        out_path = tmp_path / "transient.npz"
        code = main([
            "train", "--experiment", "transient", "--scale", "test",
            "--iterations", "3", "--output", str(out_path), "--quiet",
        ])
        assert code == 0
        assert out_path.exists()


class TestSweep:
    def test_sweep_streams_designs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("repro.api.service.DEFAULT_CACHE_DIR", tmp_path)
        assert main(["sweep", "--experiment", "a", "--scale", "test",
                     "--designs", "12", "--chunk", "5",
                     "--compare-naive"]) == 0
        out = capsys.readouterr().out
        assert "serving engine sweep" in out
        assert "designs/s" in out
        assert "total parameters" in out
        assert "engine speedup" in out

    def test_sweep_loads_explicit_checkpoint(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.setattr("repro.api.service.DEFAULT_CACHE_DIR", tmp_path)
        ckpt = tmp_path / "model.npz"
        assert main(["train", "--experiment", "a", "--scale", "test",
                     "--iterations", "3", "--output", str(ckpt),
                     "--quiet"]) == 0
        assert main(["sweep", "--experiment", "a", "--scale", "test",
                     "--checkpoint", str(ckpt), "--designs", "4"]) == 0
        out = capsys.readouterr().out
        assert "trunk cache" in out

    def test_sweep_json_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("repro.api.service.DEFAULT_CACHE_DIR", tmp_path)
        ckpt = tmp_path / "model.npz"
        assert main(["train", "--experiment", "a", "--scale", "test",
                     "--iterations", "3", "--output", str(ckpt),
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["sweep", "--experiment", "a", "--scale", "test",
                     "--checkpoint", str(ckpt), "--designs", "5",
                     "--chunk", "2", "--validate", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["designs"] == 5
        assert len(payload["peaks_kelvin"]) == 5
        assert payload["throughput_designs_per_s"] > 0
        assert "digest" in payload and len(payload["digest"]) == 64
        assert len(payload["validation"]["peak_errors"]) == 1


class TestInfoJson:
    def test_info_json_is_machine_readable(self, capsys):
        assert main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario_schema_version"] == 1
        assert set(payload["presets"]) == {"a", "b", "volumetric", "transient"}
        assert "run" in payload["commands"]

    def test_model_cache_env_var_roots_the_registry(self, tmp_path):
        """``REPRO_MODEL_CACHE`` set before start-up is the CLI registry."""
        from repro.api import ThermalScenario, ThermalService

        path = SCENARIO_DIR / "experiment_a_test.json"
        ThermalService(cache_dir=tmp_path).train(ThermalScenario.from_json(path))
        env = dict(os.environ, REPRO_MODEL_CACHE=str(tmp_path))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "info", "--config", str(path),
             "--json"],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        checkpoint = json.loads(completed.stdout)["config"]["checkpoint"]
        assert checkpoint is not None
        assert Path(checkpoint).resolve().is_relative_to(tmp_path.resolve())


class TestValidateConfig:
    def test_valid_shipped_scenario(self, capsys):
        path = SCENARIO_DIR / "experiment_a_test.json"
        assert main(["validate-config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "content digest" in out

    def test_invalid_scenario_lists_errors_nonzero_exit(self, tmp_path,
                                                        capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema_version": 1, "name": "bad",
            "inputs": [{"family": "power_map", "map_shape": [7, 7],
                        "warp_drive": True}],
            "network": {"branch_hidden": [[8]], "q": 0},
        }))
        assert main(["validate-config", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "warp_drive" in out
        assert "q" in out

    def test_wrong_schema_version(self, tmp_path, capsys):
        bad = tmp_path / "future.json"
        bad.write_text(json.dumps({"schema_version": 99, "name": "x"}))
        assert main(["validate-config", str(bad)]) == 2
        assert "schema_version" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate-config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().out

    def test_non_finite_number_exits_2(self, tmp_path, capsys):
        data = json.loads((SCENARIO_DIR / "experiment_a_test.json").read_text())
        data["geometry"]["size_mm"][0] = float("nan")  # json writes NaN
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(data))
        assert main(["validate-config", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "geometry.size_mm[0]: expected a finite number, got nan" in out


class TestRunConfig:
    @pytest.fixture()
    def tiny_config(self, tmp_path):
        from repro.api import scenario_for

        scenario = scenario_for("a", scale="test")
        scenario.name = "cli_run_smoke"
        scenario.training.iterations = 5
        path = tmp_path / "tiny.json"
        scenario.to_json(path)
        return path

    def test_run_pipeline_end_to_end(self, tmp_path, capsys, monkeypatch,
                                     tiny_config):
        monkeypatch.setattr("repro.api.service.DEFAULT_CACHE_DIR",
                            tmp_path / "cache")
        assert main(["run", "--config", str(tiny_config),
                     "--designs", "2"]) == 0
        out = capsys.readouterr().out
        assert "validate: ok" in out
        assert "solve: peak" in out
        assert "train: trained" in out
        assert "pipeline ok" in out

    def test_run_reuses_registry_on_second_invocation(self, tmp_path, capsys,
                                                      monkeypatch,
                                                      tiny_config):
        monkeypatch.setattr("repro.api.service.DEFAULT_CACHE_DIR",
                            tmp_path / "cache")
        assert main(["run", "--config", str(tiny_config), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["run", "--config", str(tiny_config), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["train"]["from_cache"] is True
        assert payload["parity_ok"] is True
        assert payload["serve"]["engine_parity_kelvin"] <= 1e-8

    def test_run_transient_config(self, tmp_path, capsys, monkeypatch):
        from repro.api import scenario_for

        monkeypatch.setattr("repro.api.service.DEFAULT_CACHE_DIR",
                            tmp_path / "cache")
        scenario = scenario_for("transient", scale="test")
        scenario.name = "cli_transient_smoke"
        scenario.training.iterations = 3
        path = tmp_path / "transient.json"
        scenario.to_json(path)
        assert main(["run", "--config", str(path), "--designs", "2",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["serve"]["mode"] == "rollout"
        assert payload["parity_ok"] is True

    def test_run_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["run", "--config", str(bad)]) == 2
        assert "INVALID" in capsys.readouterr().err
