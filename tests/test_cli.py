"""Command line interface: exit codes, outputs, and the bits calculator."""

import json
import socket

import pytest
import yaml

from mpfl.cli import main
from mpfl.config import load_config
from mpfl.experiment import load_model


@pytest.fixture
def config_file(tmp_path):
    raw = {
        "seed": 5,
        "nodes": 3,
        "final_rounds": 1,
        "arch": {"input_dim": 8, "hidden": [16], "classes": 3},
        "dataset": {"kind": "blobs", "samples": 240, "features": 8, "classes": 3},
        "training": {"lr": 0.1, "epochs_per_round": 1, "batch_size": 32},
        "pruning": {"schedule": [0.2, 0.2], "min_keep": [1, 3]},
    }
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


class TestRunCommand:
    def test_writes_metrics_and_model(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "-c", str(config_file), "-o", str(out)])
        assert code == 0
        text = (out / "mpfl_metrics.csv").read_text()
        assert text.startswith("algorithm,round,")
        params, mask = load_model(out / "mpfl_model.bin")
        assert mask.sparsity() > 0
        assert "final accuracy" in capsys.readouterr().out

    def test_set_override(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "run", "-c", str(config_file), "-o", str(out),
                "--set", "training.lr=0.05",
                "--seed", "42",
                "--dump-config",
            ]
        )
        assert code == 0
        cfg = load_config(out / "mpfl_config.yaml")
        assert cfg.training.lr == 0.05
        assert cfg.seed == 42

    def test_algorithm_flag(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", "-c", str(config_file), "-o", str(out), "--algorithm", "lth_central"]
        )
        assert code == 0
        assert (out / "lth_central_metrics.csv").exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("algorithm: warp_drive\n")
        assert main(["run", "-c", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [("pruning.min_keep.1=9", "pruning.min_keep"),
                                               ("transport.port=70000", "transport.port"),
                                               ("seed=-1", "seed")])
    def test_out_of_range_setting_exits_2_before_running(self, config_file, tmp_path, capsys,
                                                        override, key):
        out = tmp_path / "out"
        assert main(["run", "-c", str(config_file), "-o", str(out), "--set", override]) == 2
        assert f"config error: {key}:" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_exits_1(self, config_file, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", "-c", str(config_file), "-o", str(taken)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_config_exits_2(self):
        assert main(["run", "-c", "/nonexistent.yaml"]) == 2

    def test_bad_set_syntax_exits_2(self, config_file):
        assert main(["run", "-c", str(config_file), "--set", "training.lr"]) == 2

    def test_set_value_not_yaml_exits_2(self, config_file, capsys):
        assert main(["run", "-c", str(config_file), "--set", "seed=["]) == 2
        assert "--set 'seed=['" in capsys.readouterr().err


class TestCompareCommand:
    def test_combined_outputs(self, config_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(
            [
                "compare",
                "-c", str(config_file),
                "-c", str(config_file),
                "-o", str(out),
                "--set", "algorithm=mpfl",
            ]
        )
        assert code == 0
        combined = (out / "combined_metrics.csv").read_text()
        assert combined.count("\n") > 4
        summary = (out / "summary.csv").read_text()
        assert summary.startswith("algorithm,final_accuracy")
        assert "mpfl" in capsys.readouterr().out

    def test_same_algorithm_runs_keep_their_own_files(self, config_file, tmp_path):
        """The second mpfl run writes under mpfl-2; the first matches a lone run."""
        other = tmp_path / "seed6.yaml"
        other.write_text(config_file.read_text().replace("seed: 5", "seed: 6"))
        out, alone = tmp_path / "cmp", tmp_path / "alone"
        assert main(["compare", "-c", str(config_file), "-c", str(other), "-o", str(out)]) == 0
        assert main(["run", "-c", str(config_file), "-o", str(alone)]) == 0
        for name in ("metrics.csv", "model.bin"):
            first, second = (out / f"mpfl_{name}").read_bytes(), (out / f"mpfl-2_{name}").read_bytes()
            assert first == (alone / f"mpfl_{name}").read_bytes()
            assert first != second

    def test_runtime_failure_exits_1(self, config_file, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        raw = yaml.safe_load(config_file.read_text())
        raw["dataset"] = {"kind": "csv", "path": "/nonexistent.csv"}
        del raw["arch"]  # keep defaults consistent with the csv loader gate
        raw["arch"] = {"input_dim": 8, "hidden": [16], "classes": 3}
        bad.write_text(yaml.safe_dump(raw))
        out = tmp_path / "cmp"
        code = main(["compare", "-c", str(config_file), "-c", str(bad), "-o", str(out)])
        assert code == 1
        assert "FAILED" in capsys.readouterr().err
        # the good run still produced its files
        assert (out / "mpfl_metrics.csv").exists()

    def test_port_in_use_fails_the_run(self, config_file, tmp_path, capsys):
        with socket.create_server(("127.0.0.1", 0)) as held:
            port = held.getsockname()[1]
            code = main(["compare", "-c", str(config_file), "-o", str(tmp_path / "cmp"),
                         "--set", "transport.kind=tcp", "--set", f"transport.port={port}"])
        assert code == 1
        assert f"FAILED mpfl: listen on 127.0.0.1:{port} failed" in capsys.readouterr().err

    def test_pruning_fl_without_rounds_exits_2(self, config_file, tmp_path, capsys):
        code = main(["compare", "-c", str(config_file), "-o", str(tmp_path / "cmp"),
                     "--set", "algorithm=pruning_fl", "--set", "pruning.schedule=[]",
                     "--set", "final_rounds=0"])
        assert code == 2
        assert "pruning_fl needs at least one round" in capsys.readouterr().err


class TestBitsCommand:
    def test_vgg16_preset_json(self, capsys):
        assert main(["bits", "--preset", "vgg16", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dense_bits"] == 1_182_720
        assert data["mask_bits"] == 16_512
        assert data["savings"] == pytest.approx(0.986, abs=5e-4)

    def test_layer_terms(self, capsys):
        assert main(["bits", "--layer", "10:5", "--layer", "4:11", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dense_bits"] == (50 + 44) * 32
        assert data["mask_bits"] == 14

    def test_precision_64(self, capsys):
        assert main(["bits", "--layer", "10:5", "--precision", "64", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["dense_bits"] == 50 * 64

    def test_human_readable(self, capsys):
        assert main(["bits", "--preset", "vgg16"]) == 0
        out = capsys.readouterr().out
        assert "1182720" in out
        assert "98.6%" in out

    def test_no_input_exits_2(self):
        assert main(["bits"]) == 2

    def test_bad_layer_syntax_exits_2(self):
        assert main(["bits", "--layer", "ten:five"]) == 2


class TestFuzzCommand:
    def test_small_fuzz_run(self, capsys):
        code = main(["fuzz", "--cases", "25", "--corrupt-cases", "25", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "25/25" in out
