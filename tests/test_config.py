"""Config parsing, validation paths, overrides, and YAML round trips."""

import re

import pytest
import yaml

from mpfl.cli import main
from mpfl.config import (
    ALGORITHMS,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
)
from mpfl.errors import ConfigError


def minimal_raw(**extra):
    raw = {
        "arch": {"input_dim": 8, "hidden": [16], "classes": 3},
        "dataset": {"kind": "blobs", "samples": 200, "features": 8, "classes": 3},
    }
    raw.update(extra)
    return raw


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        cfg = config_from_dict(minimal_raw())
        assert cfg.seed == 7
        assert cfg.algorithm == "mpfl"
        assert cfg.nodes == 10
        assert cfg.final_rounds == 10
        assert cfg.pruning.schedule == [0.1] * 5
        assert cfg.consensus.strategy == "topk"
        assert cfg.transport.kind == "loopback"

    def test_empty_config_is_self_consistent(self):
        cfg = config_from_dict({})
        assert cfg.arch.input_dim == cfg.dataset.features
        assert cfg.arch.classes == cfg.dataset.classes

    def test_algorithms_tuple(self):
        assert set(ALGORITHMS) == {"mpfl", "pruning_fl", "lth_central", "fedavg"}


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict(minimal_raw(bogus=1))

    def test_unknown_section_key_has_path(self):
        raw = minimal_raw()
        raw["training"] = {"lr": 0.1, "warmup": 3}
        with pytest.raises(ConfigError, match="training.warmup"):
            config_from_dict(raw)

    def test_bad_algorithm(self):
        with pytest.raises(ConfigError, match="algorithm"):
            config_from_dict(minimal_raw(algorithm="sgd"))

    def test_schedule_increment_range(self):
        raw = minimal_raw()
        raw["pruning"] = {"schedule": [0.1, 1.5]}
        with pytest.raises(ConfigError, match=r"pruning.schedule\[1\]"):
            config_from_dict(raw)

    def test_target_sparsity_is_an_unknown_key(self):
        """The target is always the schedule's sum, so it is not a setting."""
        raw = minimal_raw()
        raw["pruning"] = {"schedule": [0.1, 0.1], "target_sparsity": 0.2}
        with pytest.raises(ConfigError, match="pruning.target_sparsity: unknown key"):
            config_from_dict(raw)

    def test_feature_mismatch_names_both_sides(self):
        raw = minimal_raw()
        raw["dataset"]["features"] = 9
        with pytest.raises(ConfigError, match="dataset.features"):
            config_from_dict(raw)

    def test_class_mismatch(self):
        raw = minimal_raw()
        raw["dataset"]["classes"] = 4
        with pytest.raises(ConfigError, match="dataset.classes"):
            config_from_dict(raw)

    def test_contamination_node_bounds(self):
        raw = minimal_raw(nodes=4, contamination=[{"node": 4, "kind": "noise"}])
        with pytest.raises(ConfigError, match=r"contamination\[0\].node"):
            config_from_dict(raw)

    def test_contamination_duplicate_node(self):
        raw = minimal_raw(
            nodes=4,
            contamination=[{"node": 1, "kind": "noise"}, {"node": 1, "kind": "labels"}],
        )
        with pytest.raises(ConfigError, match="twice"):
            config_from_dict(raw)

    def test_contamination_missing_required_key(self):
        raw = minimal_raw(contamination=[{"kind": "noise"}])
        with pytest.raises(ConfigError, match=r"contamination\[0\]"):
            config_from_dict(raw)

    def test_min_keep_list_length(self):
        raw = minimal_raw()
        raw["pruning"] = {"min_keep": [1, 1, 1]}
        with pytest.raises(ConfigError, match="min_keep"):
            config_from_dict(raw)

    @pytest.mark.parametrize("min_keep, layer, groups", [(17, 0, 16), (-1, 0, 16), (4, 1, 3)])
    def test_min_keep_int_checked_against_every_layer(self, min_keep, layer, groups):
        raw = minimal_raw(pruning={"min_keep": min_keep})
        match = rf"pruning\.min_keep: min_keep\[{layer}\]={min_keep} outside \[0, {groups}\]"
        with pytest.raises(ConfigError, match=match):
            config_from_dict(raw)

    def test_min_keep_list_entry_above_its_layer(self):
        raw = minimal_raw(pruning={"min_keep": [1, 9]})
        with pytest.raises(ConfigError, match=r"pruning\.min_keep: min_keep\[1\]=9 outside \[0, 3\]"):
            config_from_dict(raw)

    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_port_outside_the_tcp_range(self, port):
        with pytest.raises(ConfigError, match="transport.port"):
            config_from_dict(minimal_raw(transport={"kind": "tcp", "port": port}))

    @pytest.mark.parametrize("key", ["seed", "dataset.cluster_std"])
    def test_negative_seed_or_cluster_std(self, key):
        """numpy would reject either later, with a bare ValueError."""
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must be >= 0"):
            apply_overrides(config_from_dict(minimal_raw()), {key: -1})

    @pytest.mark.parametrize("key", ["training.lr", "dataset.cluster_std"])
    def test_infinite_lr_or_cluster_std(self, tmp_path, capsys, key):
        """An infinite lr would train a whole round before every model turns
        non-finite; an infinite cluster_std would fail later, in the data."""
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: must be .* finite, got inf"):
            apply_overrides(config_from_dict(minimal_raw()), {key: float("inf")})
        section, name = key.split(".")
        raw = minimal_raw()
        raw.setdefault(section, {})[name] = float("inf")
        cfg_path = tmp_path / "inf.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")

    def test_bad_layer_dims_name_the_arch_section(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match=r"^arch: layer dims must be positive"):
            apply_overrides(config_from_dict(minimal_raw()), {"arch.hidden": [0]})
        cfg_path = tmp_path / "ok.yaml"
        cfg_path.write_text(yaml.safe_dump(minimal_raw()))
        argv = ["run", "-c", str(cfg_path), "-o", str(tmp_path / "out"), "--set", "arch.hidden=[0]"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "config error: arch: layer dims must be positive, got [8, 0, 3]")

    def test_one_class_names_arch_classes(self, tmp_path, capsys):
        """One class in both sections passes the dataset check, and the data
        layer would reject it only after the config was accepted."""
        raw = minimal_raw()
        raw["arch"]["classes"] = raw["dataset"]["classes"] = 1
        with pytest.raises(ConfigError, match=r"^arch\.classes: must be >= 2, got 1"):
            config_from_dict(raw)
        cfg_path = tmp_path / "one.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: arch.classes: ")

    @pytest.mark.parametrize("nodes, samples, classes, match", [
        (10, 10, 3, "the test split leaves 8 training samples for 10 nodes"),
        (1, 5, 10, "need at least one sample per class, got 5 for 10 classes"),
    ], ids=["split_leaves_too_few", "fewer_than_classes"])
    def test_blobs_too_small_names_dataset_samples(self, tmp_path, capsys, nodes, samples,
                                                  classes, match):
        """Both configs used to pass validation and fail in the data layer
        without naming a key."""
        raw = minimal_raw(nodes=nodes)
        raw["dataset"]["samples"] = samples
        raw["arch"]["classes"] = raw["dataset"]["classes"] = classes
        with pytest.raises(ConfigError, match=f"^dataset\\.samples: {match}$"):
            config_from_dict(raw)
        cfg_path = tmp_path / "small.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        assert main(["run", "-c", str(cfg_path), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: dataset.samples: ")

    def test_version_gate(self):
        with pytest.raises(ConfigError, match="version"):
            config_from_dict(minimal_raw(version=2))

    def test_bad_consensus_agreement(self):
        raw = minimal_raw()
        raw["consensus"] = {"agreement": 0.0}
        with pytest.raises(ConfigError, match="agreement"):
            config_from_dict(raw)

    def test_wire_precision_gate(self):
        """Weights always travel as float32: there is no wire section."""
        raw = minimal_raw()
        raw["wire"] = {"precision_bits": 64}
        with pytest.raises(ConfigError, match="wire: unknown key"):
            config_from_dict(raw)

    def test_type_errors_carry_path(self):
        raw = minimal_raw(seed="tomorrow")
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "section, value, path",
        [
            ("training", {"lr": "fast"}, r"training\.lr: expected a number"),
            ("pruning", {"schedule": 0.1}, r"pruning\.schedule: expected a list"),
            ("arch", {"hidden": 512}, r"arch\.hidden: expected a list"),
            ("contamination", [{"node": "0", "kind": "noise"}],
             r"contamination\[0\]\.node: expected an integer"),
        ],
        ids=["lr", "schedule", "hidden", "contamination_node"],
    )
    def test_section_value_types_carry_path(self, tmp_path, capsys, section, value, path):
        raw = minimal_raw()
        raw[section] = value
        with pytest.raises(ConfigError, match=path):
            config_from_dict(raw)
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        assert main(["run", "-c", str(cfg_path)]) == 2
        assert re.match(r"config error: " + path, capsys.readouterr().err)


class TestRoundTrip:
    def test_dict_round_trip(self):
        cfg = config_from_dict(minimal_raw(seed=123, nodes=6))
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_yaml_round_trip(self, tmp_path):
        cfg = config_from_dict(
            minimal_raw(
                seed=9,
                contamination=[{"node": 2, "kind": "noise", "sigma": 2.0}],
            )
        )
        path = tmp_path / "exp.yaml"
        dump_config(cfg, path)
        assert load_config(path) == cfg

    def test_yaml_parse_error_wrapped(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("algorithm: [unclosed\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file_wrapped(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/exp.yaml")

    def test_empty_yaml_is_default_config(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg = load_config(path)
        assert cfg.algorithm == "mpfl"


class TestOverrides:
    def test_nested_override(self):
        cfg = config_from_dict(minimal_raw())
        out = apply_overrides(cfg, {"training.lr": 0.5, "seed": 99})
        assert out.training.lr == 0.5
        assert out.seed == 99
        # the original is untouched
        assert cfg.training.lr != 0.5

    def test_list_index_override(self):
        cfg = config_from_dict(minimal_raw())
        out = apply_overrides(cfg, {"pruning.schedule.0": 0.2})
        assert out.pruning.schedule[0] == 0.2

    def test_list_index_past_the_end_rejected(self):
        cfg = config_from_dict(minimal_raw())
        with pytest.raises(ConfigError, match=r"pruning\.schedule\.5: no index"):
            apply_overrides(cfg, {"pruning.schedule.5": 0.2})

    def test_list_index_inside_the_path(self):
        cfg = config_from_dict(minimal_raw(contamination=[{"node": 1, "kind": "noise"}]))
        out = apply_overrides(cfg, {"contamination.0.sigma": 2.0})
        assert out.contamination[0].sigma == 2.0
        with pytest.raises(ConfigError, match=r"contamination\.1\.sigma: no index"):
            apply_overrides(cfg, {"contamination.1.sigma": 2.0})

    def test_unknown_path_rejected(self):
        cfg = config_from_dict(minimal_raw())
        with pytest.raises(ConfigError, match="training.momentum"):
            apply_overrides(cfg, {"training.momentum": 0.9})

    def test_override_result_is_validated(self):
        cfg = config_from_dict(minimal_raw())
        with pytest.raises(ConfigError, match="algorithm"):
            apply_overrides(cfg, {"algorithm": "nope"})
