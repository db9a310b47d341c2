"""End-to-end tests of the command-line harness."""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antdistill
import scalar_reference as ref
from antdistill import cli, config, selection, tinynet
from antdistill.cli import main
from antdistill.config import load_config
from antdistill.errors import ConfigParseError
from antdistill.temperature import POLICIES

ROOT = Path(__file__).resolve().parents[1]


def write(path, text):
    # a lone surrogate such as "\udcff" is written as the raw byte 0xff
    path.write_text(text, errors="surrogateescape")
    return path


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestConfigParsing:
    def test_unknown_key_named_in_error(self, tmp_path):
        cfg = write(tmp_path / "c.ini", "[data]\nsamples = 100\nbogus_key = 3\n")
        with pytest.raises(ConfigParseError, match="bogus_key"):
            load_config(cfg)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write(tmp_path / "c.ini", "[mystery]\nx = 1\n")
        with pytest.raises(ConfigParseError, match="mystery"):
            load_config(cfg)

    @pytest.mark.parametrize("owner, key", [(variant, f.name) for variant, cls in POLICIES.items()
                                            for f in dataclasses.fields(cls)])
    def test_policy_keys_gated_by_variant(self, tmp_path, owner, key):
        # a key is accepted under the variant whose class owns it, and only there
        for variant in POLICIES:
            cfg = write(tmp_path / "c.ini", f"[policy]\nvariant = {variant}\n{key} = 0.5\n")
            if variant == owner:
                assert load_config(cfg).sections["policy"] == {"variant": variant, key: 0.5}
            else:
                with pytest.raises(ConfigParseError, match=f"'{key}'.*'{variant}'"):
                    load_config(cfg)

    def test_bad_value_reported(self, tmp_path):
        cfg = write(tmp_path / "c.ini", "[data]\nsamples = many\n")
        with pytest.raises(ConfigParseError, match="samples"):
            load_config(cfg)

    @pytest.mark.parametrize("section", ["data", "kd", "aco", "pso", "random"])
    def test_negative_seed_is_exit_2_naming_key_and_section(self, tmp_path, fits, capsys,
                                                            section):
        if section in ("data", "kd"):
            command = ["distill"]
            text = re.sub(rf"(\[{section}\][^\[]*)seed = 3", r"\1seed = -1", DISTILL_CONFIG)
        else:
            command = ["select", "--strategy", section]
            write(tmp_path / "pool.json", json.dumps(MLP_POOL))
            text = SELECT_DATA + f"[{section}]\npool = pool.json\nseed = -1\n"
        assert "seed = -1" in text
        cfg = write(tmp_path / "c.ini", text)
        assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert fits == []
        assert f"'seed' in [{section}] must be >= 0, got -1" in capsys.readouterr().err

    def test_undecodable_file_is_named_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.ini"
        cfg.write_bytes("[out]\ndir = r\xe9sultats\n".encode("latin-1"))
        with pytest.raises(ConfigParseError, match="latin1.ini"):
            load_config(cfg)
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "latin1.ini" in capsys.readouterr().err

    def test_readme_config_reference_loads(self, tmp_path):
        # every documented key is accepted and parses to its value
        readme = (ROOT / "README.md").read_text()
        block = readme.split("### Config reference\n\n```ini\n", 1)[1].split("```", 1)[0]
        cfg = load_config(write(tmp_path / "readme.ini", block))
        assert set(cfg.sections) == set(config._SCHEMA)
        assert cfg.sections["data"]["samples"] == 600
        assert cfg.sections["data"]["complexity"] == [0.3]
        assert cfg.sections["kd"]["teacher_hidden"] == [32, 32]
        assert cfg.sections["aco"]["pair_mode"] is False

    def test_schema_keys_and_parsers(self):
        # every section's keys and the parser of each, as documented in the README
        floats = dict.fromkeys(
            ["base_temperature", "raise_step", "lower_step", "min_temperature",
             "max_temperature", "noise_threshold", "confidence_threshold",
             "complexity_threshold", "base_weight", "weight_step", "max_weight"], "float")
        expected = {
            "data": {"samples": "int", "classes": "int", "dim": "int", "complexity": "floats",
                     "noise_kind": "str", "noise_level": "float", "noise_fraction": "float",
                     "seed": "int"},
            "policy": {"variant": "str", "temperature": "float", "scale": "float", **floats},
            "kd": {"t_base": "float", "epochs": "int", "batch_size": "int",
                   "learning_rate": "float", "seed": "int", "teacher_hidden": "ints",
                   "student_hidden": "ints"},
            "aco": {"pool": "str", "alpha": "float", "beta": "float", "rho": "float",
                    "q0": "float", "n_ants": "int", "n_iterations": "int", "seed": "int",
                    "pair_mode": "bool", "init_pheromone": "floats", "init_heuristic": "floats"},
            "pso": {"pool": "str", "n_particles": "int", "n_iterations": "int",
                    "inertia": "float", "c1": "float", "c2": "float", "seed": "int"},
            "grid": {"pool": "str", "pair_mode": "bool"},
            "random": {"pool": "str", "n_picks": "int", "seed": "int"},
            "out": {"dir": "str"},
        }
        schema = {section: {key: parse.__name__.lstrip("_") for key, parse in keys.items()}
                  for section, keys in config._SCHEMA.items()}
        assert schema == expected


DATA_SECTION = """\
[data]
samples = 120
classes = 3
dim = 4
complexity = 0.0
noise_kind = gaussian
noise_level = 0.5
seed = 7
"""


class TestGenData:
    def test_writes_roundtrippable_file(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", DATA_SECTION)
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        ds = tinynet.load_dataset(tmp_path / "run" / "dataset.csv")
        assert ds.n_samples == 120 and ds.n_classes == 3
        assert "mean_noise=0.5" in capsys.readouterr().out

    def test_identical_across_runs(self, tmp_path):
        cfg = write(tmp_path / "c.ini", DATA_SECTION)
        main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "a")])
        main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "dataset.csv").read_bytes() == (
            tmp_path / "b" / "dataset.csv"
        ).read_bytes()

    @pytest.mark.parametrize("complexity", ["nan", "0.1,nan,0.2"])
    def test_nan_complexity_is_exit_2_without_a_file(self, tmp_path, capsys, complexity):
        cfg = write(tmp_path / "c.ini",
                    DATA_SECTION.replace("complexity = 0.0", f"complexity = {complexity}"))
        out = tmp_path / "run"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        assert "complexity entries must lie in [0, 1]" in capsys.readouterr().err
        assert not (out / "dataset.csv").exists()

    @pytest.mark.parametrize("classes", [-1, 0, 1])
    def test_classes_below_2_is_exit_2_without_a_file(self, tmp_path, capsys, classes):
        cfg = write(tmp_path / "c.ini", DATA_SECTION.replace("classes = 3", f"classes = {classes}"))
        out = tmp_path / "run"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"n_classes must be >= 2, got {classes}" in capsys.readouterr().err
        assert not (out / "dataset.csv").exists()


def worked_example_pool(tmp_path):
    return write(
        tmp_path / "pool.json",
        json.dumps(
            {"candidates": [{"name": f"model-{i}", "stub_score": s}
                            for i, s in enumerate([0.9, 0.8, 0.7])]}
        ),
    )


@pytest.fixture
def fits(monkeypatch):
    """One entry per training run (tinynet.sgd_fit call) while the test runs."""
    calls = []
    real_fit = tinynet.sgd_fit

    def counted_fit(*args, **kwargs):
        calls.append(1)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(tinynet, "sgd_fit", counted_fit)
    return calls


# a small MLP pool and the dataset it trains on
MLP_POOL = {"candidates": [
    {"name": "a", "hidden_dims": [4], "learning_rate": 0.05, "epochs": 2},
    {"name": "b", "hidden_dims": [6], "learning_rate": 0.1, "epochs": 2},
    {"name": "c", "hidden_dims": [5, 3], "learning_rate": 0.05, "epochs": 3},
]}
SELECT_DATA = ("[data]\nsamples = 90\nclasses = 3\ndim = 4\ncomplexity = 0.2,0.4,0.1\n"
               "noise_kind = uniform\nnoise_level = 0.3\nnoise_fraction = 0.5\nseed = 5\n\n")


class TestSelect:
    def test_aco_worked_example_first_iteration_probabilities(self, tmp_path):
        worked_example_pool(tmp_path)
        cfg = write(
            tmp_path / "c.ini",
            "[aco]\npool = pool.json\nq0 = 0\nseed = 0\n"
            "init_pheromone = 2,1,4\ninit_heuristic = 3,5,2\n",
        )
        out = tmp_path / "run"
        assert main(["select", "--config", str(cfg), "--strategy", "aco",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        first = np.array(report["history"][0]["probabilities"])
        np.testing.assert_allclose(first, [0.305, 0.424, 0.271], atol=1e-3)

    def test_grid_pair_mode_240_evaluations(self, tmp_path):
        scores = np.round(np.linspace(0.2, 0.9, 16), 3)
        write(
            tmp_path / "pool.json",
            json.dumps({"candidates": [{"name": f"m{i}", "stub_score": float(s)}
                                       for i, s in enumerate(scores)]}),
        )
        cfg = write(tmp_path / "c.ini", "[grid]\npool = pool.json\npair_mode = true\n")
        out = tmp_path / "run"
        assert main(["select", "--config", str(cfg), "--strategy", "grid",
                     "--out", str(out)]) == 0
        header, rows = read_rows(out / "report.csv")
        assert header == ["strategy", "seed", "best_score", "unique_evaluations",
                          "total_selections"]
        assert rows[0][3] == "240"

    def test_random_identical_csv_across_invocations(self, tmp_path):
        worked_example_pool(tmp_path)
        cfg = write(tmp_path / "c.ini", "[random]\npool = pool.json\nn_picks = 2\nseed = 5\n")
        main(["select", "--config", str(cfg), "--strategy", "random", "--out", str(tmp_path / "a")])
        main(["select", "--config", str(cfg), "--strategy", "random", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "report.csv").read_bytes() == (
            tmp_path / "b" / "report.csv"
        ).read_bytes()

    def test_pso_runs(self, tmp_path):
        worked_example_pool(tmp_path)
        cfg = write(tmp_path / "c.ini",
                    "[pso]\npool = pool.json\nn_particles = 4\nn_iterations = 5\nseed = 1\n")
        assert main(["select", "--config", str(cfg), "--strategy", "pso",
                     "--out", str(tmp_path / "run")]) == 0

    def test_grid_on_mlp_pool_trains_on_data_section(self, tmp_path):
        write(tmp_path / "pool.json", json.dumps({"candidates": [
            {"name": "narrow", "hidden_dims": [4], "learning_rate": 0.05, "epochs": 2},
            {"name": "wide", "hidden_dims": [8], "learning_rate": 0.05, "epochs": 2},
        ]}))
        cfg = write(tmp_path / "c.ini",
                    "[data]\nsamples = 60\nclasses = 2\ndim = 3\ncomplexity = 0.0\nseed = 1\n\n"
                    "[grid]\npool = pool.json\n")
        out = tmp_path / "run"
        assert main(["select", "--config", str(cfg), "--strategy", "grid",
                     "--out", str(out)]) == 0
        dataset = tinynet.generate_synthetic(60, 2, 3, 0.0, seed=1)
        expected = selection.run_grid(selection.load_pool(tmp_path / "pool.json", dataset))
        assert (out / "report.json").read_text() == expected.to_json() + "\n"
        assert expected.unique_evaluations == 2

    def test_mlp_pool_without_data_section_is_exit_2(self, tmp_path, capsys):
        write(tmp_path / "pool.json", json.dumps({"candidates": [
            {"name": "a", "hidden_dims": [4]}, {"name": "b", "hidden_dims": [8]},
        ]}))
        cfg = write(tmp_path / "c.ini", "[grid]\npool = pool.json\n")
        assert main(["select", "--config", str(cfg), "--strategy", "grid",
                     "--out", str(tmp_path / "run")]) == 2
        assert "needs a dataset" in capsys.readouterr().err

    def test_untrainable_profile_is_exit_2_before_any_training(self, tmp_path, fits, capsys):
        write(tmp_path / "pool.json", json.dumps({"candidates": [
            {"name": "fine", "hidden_dims": [4], "epochs": 2},
            {"name": "never", "hidden_dims": [4], "epochs": 0},
        ]}))
        cfg = write(tmp_path / "c.ini",
                    "[data]\nsamples = 60\nclasses = 2\ndim = 3\ncomplexity = 0.0\nseed = 1\n\n"
                    "[grid]\npool = pool.json\n")
        assert main(["select", "--config", str(cfg), "--strategy", "grid",
                     "--out", str(tmp_path / "run")]) == 2
        assert fits == []
        assert "'never'" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy, key", [("aco", "alpha"), ("aco", "beta"),
                                               ("pso", "inertia"), ("pso", "c2")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_search_parameter_is_exit_2_before_any_training(
            self, tmp_path, fits, capsys, strategy, key, value):
        write(tmp_path / "pool.json", json.dumps(MLP_POOL))
        cfg = write(tmp_path / "c.ini", SELECT_DATA + f"[{strategy}]\npool = pool.json\n"
                                                     f"{key} = {value}\n")
        assert main(["select", "--config", str(cfg), "--strategy", strategy,
                     "--out", str(tmp_path / "run")]) == 2
        assert fits == []
        assert f"{key} must be finite, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["init_pheromone", "init_heuristic"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_init_vector_is_exit_2(self, tmp_path, capsys, key, value):
        worked_example_pool(tmp_path)
        vectors = {"init_pheromone": "1,1,1", "init_heuristic": "1,1,1", key: f"{value},1,1"}
        cfg = write(tmp_path / "c.ini", "[aco]\npool = pool.json\n"
                    + "".join(f"{k} = {v}\n" for k, v in vectors.items()))
        out = tmp_path / "run"
        assert main(["select", "--config", str(cfg), "--strategy", "aco",
                     "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
        assert "entries must be finite" in capsys.readouterr().err

    def test_overflowing_aco_weights_are_exit_2(self, tmp_path, capsys):
        # the pheromone of the 0.9 candidate passes 1, and its 1000th power
        # overflows: this once wrote NaN probabilities and exited 0
        write(tmp_path / "pool.json", json.dumps({"candidates": [
            {"name": "a", "stub_score": 0.5}, {"name": "b", "stub_score": 0.9}]}))
        cfg = write(tmp_path / "c.ini", "[aco]\npool = pool.json\nalpha = 1e3\n")
        out = tmp_path / "run"
        assert main(["select", "--config", str(cfg), "--strategy", "aco",
                     "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
        assert capsys.readouterr().err.startswith(
            "error: pheromone^alpha * heuristic^beta is not finite for alpha 1000.0, beta 2.0")

    def test_overflowing_aco_weight_sum_is_exit_2_without_a_warning(self, tmp_path, capsys):
        # each weight is 10^308, finite, and their sum overflows: this once
        # warned, wrote all-zero probabilities and exited 0
        write(tmp_path / "pool.json", json.dumps({"candidates": [
            {"name": "a", "stub_score": 0.5}, {"name": "b", "stub_score": 0.9}]}))
        cfg = write(tmp_path / "c.ini", "[aco]\npool = pool.json\nalpha = 308\nbeta = 0\n"
                    "rho = 0.9\ninit_pheromone = 10,10\ninit_heuristic = 1,1\n")
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["select", "--config", str(cfg), "--strategy", "aco",
                         "--out", str(out)]) == 2
        assert caught == []
        assert not (out / "report.json").exists()
        assert capsys.readouterr().err == (
            "error: pheromone^alpha * heuristic^beta weights sum to inf for alpha 308.0, "
            "beta 0.0: [1e+308, 1e+308]\n")

    def test_diverging_learning_rate_is_exit_2_without_a_warning(self, tmp_path, capsys):
        # this once printed numpy's overflow and invalid-value warnings first
        write(tmp_path / "pool.json", json.dumps({"candidates": [
            {"name": name, "hidden_dims": [4], "learning_rate": 1e300, "epochs": 2}
            for name in ("a", "b")]}))
        cfg = write(tmp_path / "c.ini",
                    "[data]\nsamples = 60\nclasses = 2\ndim = 3\ncomplexity = 0.0\nseed = 1\n\n"
                    "[aco]\npool = pool.json\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["select", "--config", str(cfg), "--strategy", "aco",
                         "--out", str(tmp_path / "run")]) == 2
        assert caught == []
        assert capsys.readouterr().err == "error: training loss became nan\n"

    def test_overflowing_pso_step_is_exit_2_without_a_warning(self, tmp_path, capsys):
        # the velocity update overflows: this once warned and exited 0
        worked_example_pool(tmp_path)
        cfg = write(tmp_path / "c.ini", "[pso]\npool = pool.json\ninertia = 1e308\n"
                    "n_particles = 4\nn_iterations = 5\nseed = 1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["select", "--config", str(cfg), "--strategy", "pso",
                         "--out", str(tmp_path / "run")]) == 2
        assert caught == []
        assert capsys.readouterr().err == "error: overflow encountered in multiply\n"

    def test_undecodable_pool_is_exit_2_naming_the_file(self, tmp_path, capsys):
        pool = tmp_path / "pool.json"
        pool.write_bytes(b'{"candidates": [{"name": "\xff", "stub_score": 0.5}]}')
        cfg = write(tmp_path / "c.ini", "[grid]\npool = pool.json\n")
        assert main(["select", "--config", str(cfg), "--strategy", "grid",
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            f"error: {pool}: 'utf-8' codec can't decode byte 0xff in position 26: "
            "invalid start byte\n")

    @pytest.mark.parametrize("key, value", [("stub_score", "0.5"), ("stub_score", True),
                                            ("learning_rate", "0.1"), ("learning_rate", True)])
    def test_non_number_float_field_is_exit_2_before_any_training(
            self, tmp_path, fits, capsys, key, value):
        if key == "stub_score":
            candidates = [{"name": "a", "stub_score": 0.5}, {"name": "b", key: value}]
        else:
            candidates = [dict(MLP_POOL["candidates"][0]), dict(MLP_POOL["candidates"][1])]
            candidates[1][key] = value
        write(tmp_path / "pool.json", json.dumps({"candidates": candidates}))
        cfg = write(tmp_path / "c.ini", SELECT_DATA + "[grid]\npool = pool.json\n")
        assert main(["select", "--config", str(cfg), "--strategy", "grid",
                     "--out", str(tmp_path / "run")]) == 2
        assert fits == []
        assert f"'b': {key} must be a number, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("candidates", [[1, 2], [{"name": "a", "hidden_dims": 5}]])
    def test_malformed_pool_is_exit_2(self, tmp_path, candidates):
        write(tmp_path / "pool.json", json.dumps({"candidates": candidates}))
        cfg = write(tmp_path / "c.ini", "[grid]\npool = pool.json\n")
        assert main(["select", "--config", str(cfg), "--strategy", "grid",
                     "--out", str(tmp_path / "run")]) == 2


DISTILL_CONFIG = """\
[data]
samples = 240
classes = 3
dim = 6
complexity = 0.0
seed = 3

[policy]
variant = rule_based

[kd]
t_base = 0.5
epochs = 20
batch_size = 32
learning_rate = 0.05
seed = 3
teacher_hidden = 24,24
student_hidden = 16,16
"""


class TestDistill:
    def test_plain_run_outputs(self, tmp_path):
        cfg = write(tmp_path / "c.ini", DISTILL_CONFIG)
        out = tmp_path / "run"
        assert main(["distill", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "distill_report.json").exists()
        assert (out / "metrics.csv").exists()
        summary = (out / "summary.csv").read_text()
        assert "auc_micro" in summary

    def test_table10_four_rows_accuracies(self, tmp_path):
        cfg = write(tmp_path / "c.ini", DISTILL_CONFIG)
        out = tmp_path / "run"
        assert main(["distill", "--config", str(cfg), "--ablation", "table10",
                     "--out", str(out)]) == 0
        header, rows = read_rows(out / "ablation.csv")
        assert header[0] == "approach"
        assert [r[0] for r in rows] == [
            "teacher", "student_supervised", "student_constant_temp", "student_context_aware",
        ]
        assert all(float(r[1]) >= 0.90 for r in rows)

    def test_table11_row_tags(self, tmp_path, monkeypatch):
        cfg = write(tmp_path / "c.ini", DISTILL_CONFIG.replace(
            "seed = 3\n\n[policy]", "seed = 3\nnoise_level = 0.5\n\n[policy]"
        ))
        out = tmp_path / "run"
        curves = []
        monkeypatch.setattr(cli.metrics, "micro_curves", lambda *a: curves.append(a))
        assert main(["distill", "--config", str(cfg), "--ablation", "table11",
                     "--out", str(out)]) == 0
        _, rows = read_rows(out / "ablation.csv")
        assert [r[0] for r in rows] == ["gaussian", "salt_pepper", "uniform", "clean"]
        assert curves == []  # ablation rows print no curve

    @pytest.mark.parametrize("policy", ["variant = constant\ntemperature = inf",
                                        "variant = uncertainty_linear\nscale = inf",
                                        "variant = rule_based\nraise_step = nan"])
    def test_non_finite_policy_is_exit_2_before_any_training(self, tmp_path, fits, capsys,
                                                             policy):
        cfg = write(tmp_path / "c.ini", DISTILL_CONFIG.replace("variant = rule_based", policy))
        assert main(["distill", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert fits == []
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("policy, message", [
        ("variant = constant\ntemperature = 1e-320", "overflow encountered in divide"),
        ("variant = uncertainty_linear\nscale = 1e308", "overflow encountered in float_power"),
    ], ids=["constant", "uncertainty_linear"])
    def test_overflowing_policy_is_exit_2_without_a_warning(self, tmp_path, capsys, policy,
                                                            message):
        # this once printed numpy's warnings, then "training loss became nan"
        cfg = write(tmp_path / "c.ini", DISTILL_CONFIG.replace("variant = rule_based", policy))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["distill", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert caught == []
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("setting, value, message", [
        ("learning_rate", "inf", "learning_rate must be finite, got inf"),
        ("samples", "1000000000000", "dim must be <= 100000000, got 1000000000000 samples"),
        ("dim", "10000000", "dim must be <= 100000000, got 240 samples, 3 classes, dim 10000000"),
        ("classes", "1", "n_classes must be >= 2, got 1"),
    ])
    def test_unusable_size_or_rate_is_exit_2_before_any_training(self, tmp_path, fits, capsys,
                                                                setting, value, message):
        text, n = re.subn(f"^{setting} = .*$", f"{setting} = {value}", DISTILL_CONFIG,
                          flags=re.MULTILINE)
        assert n == 1
        cfg = write(tmp_path / "c.ini", text)
        assert main(["distill", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert fits == []
        assert message in capsys.readouterr().err

    def test_weight_zero_constant_matches_supervised_bit_for_bit(self, tmp_path):
        # with t_base = 0 the constant-temperature distilled row must equal
        # the supervised row exactly
        cfg_text = DISTILL_CONFIG.replace("t_base = 0.5", "t_base = 0.0").replace(
            "variant = rule_based", "variant = constant\ntemperature = 1.0"
        )
        cfg = write(tmp_path / "c.ini", cfg_text)
        out = tmp_path / "run"
        assert main(["distill", "--config", str(cfg), "--ablation", "table10",
                     "--out", str(out)]) == 0
        _, rows = read_rows(out / "ablation.csv")
        assert rows[1][1:] == rows[2][1:]


# the README config; the sha256 of every output file was recorded before
# training moved to batched loss kernels, which must not change a byte.
# distill_report.json was re-recorded when its temp_mean/min/max became one
# number each instead of one per epoch
README_CONFIG = """\
[data]
samples = 600
classes = 4
dim = 8
complexity = 0.3
noise_kind = gaussian
noise_level = 0.8
noise_fraction = 0.5
seed = 7

[policy]
variant = rule_based

[kd]
t_base = 0.5
epochs = 30
batch_size = 32
learning_rate = 0.05
seed = 7
teacher_hidden = 32,32
student_hidden = 16,16
"""
GOLDEN_DISTILL = {
    None: {
        "distill_report.json": "45037bc73bc0671ee07d8ab84782c0d0105cecf7aedb99cc6b4ef4196c431c78",
        "metrics.csv": "b5c6855ff4202c658f903b1e9aae118ffba5d5b421e230cc3d9f3709faad8bfa",
        "summary.csv": "1d93858a8c3dad294ca410b0f4f27e2588c28a291b241d5d3199b46e47ec49e0",
    },
    "table10": {
        "ablation.csv": "fd4be2a64fb96ee829840f2131c3aabe89cdb19b14f60af5d860d1595cf92004",
    },
    "table11": {
        "ablation.csv": "6cc2b6ddb27dc8fccc2de9454930b7fc08d997756cd7f862f60156be79fe22a7",
    },
}


@pytest.mark.parametrize("ablation", list(GOLDEN_DISTILL))
def test_distill_outputs_pinned(tmp_path, ablation):
    cfg = write(tmp_path / "c.ini", README_CONFIG)
    out = tmp_path / "run"
    argv = ["distill", "--config", str(cfg), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + (["--ablation", ablation] if ablation else [])) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.name != "config.ini"}
    assert digests == GOLDEN_DISTILL[ablation]


STUB_POOL = {"candidates": [{"name": f"m{i}", "stub_score": s}
                            for i, s in enumerate([0.61, 0.72, 0.55, 0.83, 0.79])]}
# every strategy with every key of its section set away from the default,
# aco and grid in pair mode on MLP_POOL; the sha256 of each output was
# recorded before the config keys were derived from the dataclasses
SELECT_RUNS = {
    "aco": ("aco", STUB_POOL,
            "[aco]\npool = pool.json\nalpha = 1.5\nbeta = 1.0\nrho = 0.2\nq0 = 0.3\nn_ants = 3\n"
            "n_iterations = 4\nseed = 11\npair_mode = false\ninit_pheromone = 1,2,3,1,2\n"
            "init_heuristic = 2,1,1,3,1\n"),
    "aco_pairs": ("aco", MLP_POOL,
                  SELECT_DATA + "[aco]\npool = pool.json\nalpha = 0.5\nn_ants = 2\n"
                                "n_iterations = 3\nseed = 2\npair_mode = yes\n"),
    "pso": ("pso", STUB_POOL,
            "[pso]\npool = pool.json\nn_particles = 5\nn_iterations = 6\ninertia = 0.5\n"
            "c1 = 1.2\nc2 = 1.8\nseed = 4\n"),
    "grid_pairs": ("grid", MLP_POOL, SELECT_DATA + "[grid]\npool = pool.json\npair_mode = true\n"),
    "random": ("random", STUB_POOL, "[random]\npool = pool.json\nn_picks = 3\nseed = 9\n"),
}
GOLDEN_SELECT = {
    "aco": {
        "report.csv": "f3fa1d6e733cfdfd8da0ab3e0767e7283100d61635adc7ea36cc2ef4091b72a5",
        "report.json": "366fc8e5c70f040e48f6bc4b1468b1f272c60f439df565293b1dea3973bbec85",
        "stdout": "7ac760ccba461c95014c673931b2d794b5b2e1dfa138483528de61b30186d43c",
    },
    "aco_pairs": {
        "report.csv": "06a687e350c6c450205285836255ff461b2ded7370e6d40db8c818bab2ca02a4",
        "report.json": "f9291082cfec328d92b5b76751842323ff69288cbabb0bc5d29cf980e8e4d99e",
        "stdout": "5a062efd9f67c8bc231747c7fd2fde2d22e8367a1d0050f28c32dd79b53e3883",
    },
    "grid_pairs": {
        "report.csv": "f29e39d0257ee902c227ff67585da1fc172be40b2ec08cf1612c3d934fe41ca4",
        "report.json": "5421d9cc7ea99ad345f895368d4403d8d41b9831e745d6108b9524248746a577",
        "stdout": "3be3284021d58befd54316868d1fc8f320bfb0ff5ab014f6fd0d0119f72e0667",
    },
    "pso": {
        "report.csv": "b6162e1e238a193af0c10d95b997a09bfd169010fd898ab7d0ed63e4904a19fa",
        "report.json": "2f4085ce0ccc9506ffeb5fd2feb2831f2925e727fca73ae66f35b277f9f72fe9",
        "stdout": "6e5009cc29dad98732f7d116e8b9511a8cfccfecf14a14a4008547cb1c4a2b55",
    },
    "random": {
        "report.csv": "47fb15796e80e75177e94fa537e6905368d53a85d6025720894c6df4dd76a948",
        "report.json": "76d1b14a85fe325b67a7e9486d821f59efcdee6ccc2d14f2d099155bf5077ec3",
        "stdout": "522ae3360366fdcd8a5881368c0a4b59426af0ef585ac0328eb702f20014db1c",
    },
}


def select_digests(directory, run):
    strategy, pool, text = SELECT_RUNS[run]
    write(directory / "pool.json", json.dumps(pool))
    cfg = write(directory / "c.ini", text)
    out = directory / "run"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["select", "--config", str(cfg), "--strategy", strategy,
                     "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.name != "config.ini"}
    digests["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return digests


@pytest.mark.parametrize("run", list(SELECT_RUNS))
def test_select_outputs_pinned(tmp_path, run):
    assert select_digests(tmp_path, run) == GOLDEN_SELECT[run]


def write_eval_inputs(directory, with_probs):
    """2,000 predictions over 10 classes, softmax scores written with repr.

    Half the rows are rounded to 7 decimals, so some scores tie and some
    rows sum to 1 only within the 1e-6 tolerance.
    """
    rng = np.random.default_rng(2024)
    n, c = 2000, 10
    labels = rng.integers(0, c, n)
    logits = rng.normal(size=(n, c))
    logits[np.arange(n), labels] += 1.0
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[: n // 2] = np.round(probs[: n // 2], 7)
    preds = probs.argmax(axis=1)
    if with_probs:
        header = "pred," + ",".join(f"p{j}" for j in range(c))
        rows = [f"{p}," + ",".join(map(repr, row))
                for p, row in zip(preds.tolist(), probs.tolist())]
    else:
        header, rows = "pred", [str(p) for p in preds.tolist()]
    write(directory / "preds.csv", "\n".join([header, *rows]) + "\n")
    write(directory / "labels.csv", "\n".join(["label", *map(str, labels.tolist())]) + "\n")


# sha256 of the evaluate outputs, recorded before the probability matrix
# was validated in one pass and swept once for both curves
GOLDEN_EVALUATE = {
    "probabilities": {
        "metrics.csv": "c785bb35dac6e1c20806d236589eebeb3379db8260828e6a2d182f8954da797c",
        "summary.csv": "36e7536971aca1a2ed264b7aedd18f37b6286b24cbde618e133e9f8156b0af59",
        "stdout": "d130d5cce7ccc44ed740468614d5eb565f65bc4f6cb67582f64b84a382148161",
    },
    "pred-only": {
        "metrics.csv": "c785bb35dac6e1c20806d236589eebeb3379db8260828e6a2d182f8954da797c",
        "summary.csv": "d4cc8b5c90a4f4c481eaeeb05bd4e66badb503e9f9f99ce9255e179436a354b0",
        "stdout": "749cd425cc0831e7995810319db11d7c957da165097b9f08a941a9d3c82e9437",
    },
}


@pytest.mark.parametrize("inputs", list(GOLDEN_EVALUATE))
def test_evaluate_outputs_pinned(tmp_path, inputs):
    write_eval_inputs(tmp_path, with_probs=inputs == "probabilities")
    out = tmp_path / "run"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["evaluate", "--predictions", str(tmp_path / "preds.csv"),
                     "--labels", str(tmp_path / "labels.csv"), "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    digests["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    assert digests == GOLDEN_EVALUATE[inputs]


def run_evaluate(directory, out):
    """Exit code, stdout and output files of evaluate on directory's inputs."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(["evaluate", "--predictions", str(directory / "preds.csv"),
                   "--labels", str(directory / "labels.csv"), "--out", str(out)])
    return rc, stdout.getvalue(), {p.name: p.read_bytes() for p in out.iterdir()}


class TestEvaluateReaders:
    """Clean files are read by numpy's C parser alone; any other file goes
    through `_read_csv_table` and gives the same outputs."""

    @pytest.mark.parametrize("with_probs", [True, False], ids=["probabilities", "pred-only"])
    def test_clean_files_skip_the_cell_reader(self, tmp_path, monkeypatch, with_probs):
        write_eval_inputs(tmp_path, with_probs)

        def cell_reader(path):
            raise AssertionError(f"_read_csv_table read {path}")

        monkeypatch.setattr(cli, "_read_csv_table", cell_reader)
        assert run_evaluate(tmp_path, tmp_path / "run")[0] == 0

    def test_whitespace_line_takes_the_cell_reader(self, tmp_path, monkeypatch):
        write_eval_inputs(tmp_path, with_probs=True)
        fast = run_evaluate(tmp_path, tmp_path / "fast")
        preds = tmp_path / "preds.csv"
        lines = preds.read_text().split("\n")
        preds.write_text("\n".join(lines[:100] + [" \t"] + lines[100:]))
        read = []
        cell_reader = cli._read_csv_table
        monkeypatch.setattr(cli, "_read_csv_table",
                            lambda path: read.append(Path(path).name) or cell_reader(path))
        assert run_evaluate(tmp_path, tmp_path / "fallback") == fast
        assert fast[0] == 0 and read == ["preds.csv", "labels.csv"]


class TestEvaluate:
    def test_perfect_predictions(self, tmp_path):
        write(tmp_path / "preds.csv", "pred\n0\n1\n2\n")
        write(tmp_path / "labels.csv", "label\n0\n1\n2\n")
        out = tmp_path / "run"
        assert main(["evaluate", "--predictions", str(tmp_path / "preds.csv"),
                     "--labels", str(tmp_path / "labels.csv"), "--out", str(out)]) == 0
        assert "accuracy,1.0" in (out / "summary.csv").read_text()

    def test_hand_case_accuracy(self, tmp_path):
        write(tmp_path / "preds.csv", "pred\n0\n1\n1\n1\n")
        write(tmp_path / "labels.csv", "label\n0\n0\n1\n1\n")
        out = tmp_path / "run"
        main(["evaluate", "--predictions", str(tmp_path / "preds.csv"),
              "--labels", str(tmp_path / "labels.csv"), "--out", str(out)])
        assert "accuracy,0.75" in (out / "summary.csv").read_text()

    def test_missing_probs_warns_and_skips_auc(self, tmp_path, capsys):
        write(tmp_path / "preds.csv", "pred\n0\n1\n")
        write(tmp_path / "labels.csv", "label\n0\n1\n")
        out = tmp_path / "run"
        main(["evaluate", "--predictions", str(tmp_path / "preds.csv"),
              "--labels", str(tmp_path / "labels.csv"), "--out", str(out)])
        assert "warning" in capsys.readouterr().out
        assert "auc_micro" not in (out / "summary.csv").read_text()

    def test_probs_give_auc(self, tmp_path):
        write(tmp_path / "preds.csv", "pred,p0,p1\n0,0.9,0.1\n1,0.2,0.8\n")
        write(tmp_path / "labels.csv", "label\n0\n1\n")
        out = tmp_path / "run"
        main(["evaluate", "--predictions", str(tmp_path / "preds.csv"),
              "--labels", str(tmp_path / "labels.csv"), "--out", str(out)])
        text = (out / "summary.csv").read_text()
        assert "auc_micro,1.0" in text and "ap_micro,1.0" in text

    def test_length_mismatch_is_nonzero_exit(self, tmp_path, capsys):
        write(tmp_path / "preds.csv", "pred\n0\n1\n")
        write(tmp_path / "labels.csv", "label\n0\n")
        assert main(["evaluate", "--predictions", str(tmp_path / "preds.csv"),
                     "--labels", str(tmp_path / "labels.csv"),
                     "--out", str(tmp_path / "run")]) != 0


# cells on which numpy's C parser and int()/float() may disagree: digits
# and whitespace that int() or float() reads and numpy rejects, ids only
# float() reads, notations of either, quotes, comments, control bytes and
# "\udcff", which is written as the byte 0xff that no UTF-8 reader decodes
ODD_CELLS = ["1_0", "0_0.5", "１", "٣", " 1 ", "+1", "-0", "1.0", "1e2", "Infinity", "-nan",
             "0x10", '"1"', "1#2", "1\t", "0\t.5", "\x00", "\udcff"]
# cells that numpy reads and int()/float() reject: numpy takes the
# separators 0x1c-0x1f for whitespace and "①" or "二" for digits
NUMPY_ONLY_CELLS = ["①", "1二", "1\x1c", "\x1d1", "0.5\x1e", "\x1f0.5"]
# cells of a predictions or labels file: class ids (small, huge, out of
# int64), probabilities, and what the reader must reject
EVAL_CELLS = (st.integers(-2, 6).map(str)
              | st.sampled_from(["10000000", "99999999999999999999", "", "x", "1.5", "nan",
                                 "inf", "0.5", "1e400"])
              | st.floats(0.0, 1.0).map(repr)
              | st.sampled_from(ODD_CELLS + NUMPY_ONLY_CELLS))
EVAL_ROWS = st.lists(st.lists(EVAL_CELLS, min_size=1, max_size=4).map(",".join), max_size=6)
PRED_HEADERS = st.sampled_from(["pred", "pred,p0,p1", "pred,p0,p1,p2", "pred,p1", "pred,p0",
                                "label", "p0,pred", ""])
LABEL_HEADERS = st.sampled_from(["label", "pred", "label,x", ""])
# lines that both evaluate readers skip
BLANK_LINES = st.sampled_from(["", " ", "\t", "  \t "])


@st.composite
def eval_files(draw, headers):
    """File bytes: a header from `headers`, data rows as wide as it, and
    blank lines anywhere, the header's place included, with \\n, \\r\\n or
    \\r line ends. The cells of a third of the files parse: class ids
    first, then probabilities; another third is such a file with one odd
    cell. Two such files of a test case have the same number of rows.
    Files without blank lines are the most common."""
    header = draw(headers)
    width = header.count(",") + 1
    kind = draw(st.sampled_from(["parse", "odd", "any"]))
    if kind == "any":
        n_rows = draw(st.integers(1, 6))
        cells = [EVAL_CELLS] * width
    else:
        n_rows = draw(st.shared(st.integers(1, 6), key="eval_rows"))
        cells = [st.integers(0, 3).map(str)] + [st.floats(0.0, 1.0).map(repr)] * (width - 1)
    rows = draw(st.lists(st.tuples(*cells).map(list), min_size=n_rows, max_size=n_rows))
    if kind == "odd":
        odd = st.sampled_from(ODD_CELLS) | st.sampled_from(NUMPY_ONLY_CELLS)
        rows[draw(st.integers(0, n_rows - 1))][draw(st.integers(0, width - 1))] = draw(odd)
    lines = [header, *map(",".join, rows)]
    for _ in range(draw(st.just(0) | st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(BLANK_LINES))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return text.encode("utf-8", "surrogateescape")


def _parsed(read, *paths):
    """(preds, labels, probs) of a reader as (dtype, shape, bytes) triples,
    or the type and message of the error it raises."""
    try:
        arrays = read(*paths)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [a if a is None else (a.dtype, a.shape, a.tobytes()) for a in arrays]


class TestEvaluateInputs:
    @settings(max_examples=300, deadline=None)
    @given(pred_header=PRED_HEADERS, pred_rows=EVAL_ROWS, label_header=LABEL_HEADERS,
           label_rows=EVAL_ROWS)
    def test_any_files_exit_0_or_2(self, tmp_path_factory, pred_header, pred_rows,
                                   label_header, label_rows):
        base = tmp_path_factory.getbasetemp()
        preds = write(base / "fuzz_preds.csv", "\n".join([pred_header, *pred_rows]) + "\n")
        labels = write(base / "fuzz_labels.csv", "\n".join([label_header, *label_rows]) + "\n")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main(["evaluate", "--predictions", str(preds), "--labels", str(labels),
                       "--out", str(base / "fuzz_run")])
        assert rc in (0, 2)

    @settings(max_examples=500, deadline=None)
    @given(pred_file=eval_files(PRED_HEADERS | st.sampled_from(["pred", "pred,p0,p1,p2"])),
           label_file=eval_files(LABEL_HEADERS | st.just("label")))
    def test_flat_cell_reader_equals_the_row_reader(self, tmp_path_factory, pred_file,
                                                    label_file):
        # on files whose rows all match their header's width: equal arrays,
        # bit for bit, or the same error type and message
        base = tmp_path_factory.getbasetemp()
        (base / "parse_preds.csv").write_bytes(pred_file)
        (base / "parse_labels.csv").write_bytes(label_file)
        paths = (base / "parse_preds.csv", base / "parse_labels.csv")
        want = _parsed(ref.evaluate_inputs, *paths)
        assert _parsed(cli._evaluate_inputs, *paths) == want

    @pytest.mark.parametrize("cell", ODD_CELLS + NUMPY_ONLY_CELLS)
    @pytest.mark.parametrize("column", ["pred", "p1", "label"])
    def test_odd_cell_gives_the_row_readers_result(self, tmp_path, cell, column):
        rows = {"pred": [["pred", "p0", "p1"], ["0", "0.25", "0.75"], ["1", "0.5", "0.5"]],
                "label": [["label"], ["0"], ["1"]]}
        edited = rows["label" if column == "label" else "pred"]
        edited[2][edited[0].index(column)] = cell
        paths = [write(tmp_path / f"{name}s.csv", "".join(",".join(r) + "\n" for r in rows[name]))
                 for name in ("pred", "label")]
        assert _parsed(cli._evaluate_inputs, *paths) == _parsed(ref.evaluate_inputs, *paths)

    @pytest.mark.parametrize("cell", NUMPY_ONLY_CELLS + ["\udcff"])
    @pytest.mark.parametrize("column", ["pred", "p1", "label"])
    def test_odd_cell_far_into_a_large_file(self, tmp_path, cell, column):
        # numpy's parser reads the file in pieces, and each piece is checked:
        # an odd cell in the last of 20,000 rows, several reads into either
        # file, still sends the files to the int()/float() reader; a byte
        # 0xff there is a decode error that both readers place at the same
        # position in the file
        n = 20_000
        rows = {"pred": [["pred", "p0", "p1"]] + [[str(i % 2), "0.25", "0.75"] for i in range(n)],
                "label": [["label"]] + [[str(i % 2)] for i in range(n)]}
        edited = rows["label" if column == "label" else "pred"]
        edited[n][edited[0].index(column)] = cell
        paths = [write(tmp_path / f"{name}s.csv", "".join(",".join(r) + "\n" for r in rows[name]))
                 for name in ("pred", "label")]
        assert min(path.stat().st_size for path in paths) > 4 * io.DEFAULT_BUFFER_SIZE
        want = _parsed(ref.evaluate_inputs, *paths)
        assert isinstance(want[0], type)  # the int()/float() reader rejects the cell
        assert _parsed(cli._evaluate_inputs, *paths) == want

    @pytest.mark.parametrize("pred_text, label_text, name, message", [
        ("pred\n0\n1,1\n", "label\n0\n1\n", "preds.csv", "data row 2 has 2 cells, header has 1"),
        ("pred\n0\n1\n", "label\n0,1\n1\n", "labels.csv", "data row 1 has 2 cells, header has 1"),
        ("pred,p0,p1,p2\n0,0.5,0.5\n1,0.5,0.5\n", "label\n0\n1\n", "preds.csv",
         "data row 1 has 3 cells, header has 4"),
        ("pred,p0,p1\n0,0.5,0.5\n\n1,1.0\n", "label\n0\n1\n", "preds.csv",
         "data row 2 has 2 cells, header has 3"),
        ("pred,p0,p1\n0,0.5,0.5\n1,0.5,0.5,0\n", "label\n0\n1\n", "preds.csv",
         "data row 2 has 4 cells, header has 3"),
    ], ids=["pred-extra", "label-extra", "probs-narrow", "probs-ragged", "probs-wide"])
    def test_row_width_differs_from_header_is_exit_2(self, tmp_path, capsys, pred_text,
                                                      label_text, name, message):
        # a blank line is not a data row: the ragged row is data row 2
        preds = write(tmp_path / "preds.csv", pred_text)
        labels = write(tmp_path / "labels.csv", label_text)
        assert main(["evaluate", "--predictions", str(preds), "--labels", str(labels),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / name}: {message}\n"

    @pytest.mark.parametrize("pred_text", ["pred\n0\n1\n", "pred,p0,p1\n0,1.0,0.0\n1,x,0.5\n"],
                             ids=["pred", "probabilities"])
    def test_row_count_mismatch_names_both_files(self, tmp_path, capsys, pred_text):
        # checked before any cell is parsed, so the bad cell "x" is not reported
        preds = write(tmp_path / "preds.csv", pred_text)
        labels = write(tmp_path / "labels.csv", "label\n0\n")
        assert main(["evaluate", "--predictions", str(preds), "--labels", str(labels),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {preds} has 2 data rows, {labels} has 1\n"

    @pytest.mark.parametrize("pred_text, label_text", [
        ("pred\n0\n1\n", "label\n0\n10000000\n"),
        ("pred\n0\n100000\n", "label\n0\n1\n"),
        ("pred\n0\n1\n", "label\n0\n99999999999999999999\n"),
        ("pred," + ",".join(f"p{j}" for j in range(5000)) + "\n0" + ",0" * 5000 + "\n",
         "label\n0\n"),
        ("pred\n0\n\xff\n", "label\n0\n1\n"),
    ], ids=["label", "prediction", "int64-overflow", "probability-columns", "undecodable"])
    def test_rejected_inputs_are_exit_2(self, tmp_path, capsys, pred_text, label_text):
        preds = tmp_path / "preds.csv"
        preds.write_bytes(pred_text.encode("latin-1"))
        labels = write(tmp_path / "labels.csv", label_text)
        assert main(["evaluate", "--predictions", str(preds), "--labels", str(labels),
                     "--out", str(tmp_path / "run")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("pred_text, label_text, empty", [
        ("pred\n", "label\n", "preds_only_header.csv"),
        ("pred,p0,p1\n", "label\n", "preds_only_header.csv"),
        ("pred\n0\n1\n", "label\n", "labels_only_header.csv"),
    ], ids=["both", "probability-header", "labels"])
    def test_header_only_file_is_named_parse_error(self, tmp_path, capsys, pred_text,
                                                   label_text, empty):
        preds = write(tmp_path / "preds_only_header.csv", pred_text)
        labels = write(tmp_path / "labels_only_header.csv", label_text)
        assert main(["evaluate", "--predictions", str(preds), "--labels", str(labels),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and empty in err and "no data rows" in err


class TestReproExamples:
    def test_all_checks_pass(self, tmp_path, capsys):
        assert main(["repro-examples", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "7/7 checks passed" in out
        assert (tmp_path / "repro_examples.txt").exists()

    def test_tampered_constant_fails(self, capsys, monkeypatch):
        probabilities = selection.selection_probabilities
        monkeypatch.setattr(selection, "selection_probabilities",
                            lambda *args: probabilities(*args) + 0.05)
        assert main(["repro-examples"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_runs_as_module(self):
        src = str(Path(antdistill.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "antdistill.cli", "repro-examples"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "7/7 checks passed" in proc.stdout

    def test_output_stable_across_runs(self, tmp_path):
        main(["repro-examples", "--out", str(tmp_path / "a")])
        main(["repro-examples", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "repro_examples.txt").read_bytes() == (
            tmp_path / "b" / "repro_examples.txt"
        ).read_bytes()


class TestErrorPaths:
    def test_missing_config_is_nonzero(self, capsys):
        assert main(["gen-data", "--config", "/nonexistent.ini", "--out", "/tmp/x"]) == 2

    def test_unknown_key_is_nonzero(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.ini", "[data]\nwhat = 1\n")
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert "what" in capsys.readouterr().err


def test_parser_options_are_the_readme_usage_options():
    # no hidden knobs: each subcommand takes exactly the options its README usage line shows
    readme = (ROOT / "README.md").read_text()
    usage = readme.split("## Command-line harness", 1)[1].split("```bash\n", 1)[1]
    documented = {}
    for line in usage.split("```", 1)[0].splitlines():
        _, command, *rest = line.split()
        documented[command] = set(re.findall(r"--[a-z-]+", " ".join(rest)))
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    parsed = {command: {opt for action in sub._actions for opt in action.option_strings
                        if opt not in ("-h", "--help")}
              for command, sub in subparsers.choices.items()}
    assert parsed == documented
