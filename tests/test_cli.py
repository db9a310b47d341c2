"""End-to-end tests of the command-line harness."""

import argparse
import codecs
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antdistill
import scalar_reference as ref
from antdistill import cli, config, selection, tinynet
from antdistill.cli import main
from antdistill.config import load_config
from antdistill.errors import ConfigParseError, ParseError
from antdistill.temperature import POLICIES

ROOT = Path(__file__).resolve().parents[1]


def write(path, text):
    # a lone surrogate such as "\udcff" is written as the raw byte 0xff
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    return path


def read_rows(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
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

    def test_default_section_is_an_unknown_section(self, tmp_path, capsys):
        # configparser would copy [DEFAULT] keys into every section: this
        # once made a seed-3 dataset, and with an [out] section it named
        # [out] as the section holding 'seed'
        cfg = write(tmp_path / "c.ini", "[DEFAULT]\nseed = 3\n\n" + DATA_SECTION)
        out = tmp_path / "run"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: unknown section [DEFAULT]\n"
        assert not (out / "dataset.csv").exists()

    def test_readme_config_reference_loads(self, tmp_path):
        # every documented key is accepted and parses to its value
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Config reference\n\n```ini\n", 1)[1].split("```", 1)[0]
        cfg = load_config(write(tmp_path / "readme.ini", block))
        assert set(cfg.sections) == set(config.SECTIONS)
        assert cfg.sections["data"]["samples"] == 600
        assert cfg.sections["data"]["complexity"] == (0.3,)
        assert cfg.sections["kd"]["teacher_hidden"] == (32, 32)
        assert cfg.sections["aco"]["pair_mode"] is False
        # every key is documented: set in its section, or, for [policy],
        # named on its variant's comment lines
        for section, keys in config._KEYS.items():
            if section != "policy":
                assert set(cfg.sections[section]) == set(keys), section
        documented, variant = {}, None
        for line in block.split("[policy]\n", 1)[1].split("\n[", 1)[0].splitlines():
            words = line.lstrip(";").split() if line.startswith(";") else []
            if words and words[0].endswith(":"):
                variant = words.pop(0)[:-1]
            if variant is not None:
                documented.setdefault(variant, set()).update(words)
        assert documented == {name: set(config._fields(cls)) for name, cls in POLICIES.items()}

    def test_schema_keys_and_parsers(self):
        # every section's keys and the type each is parsed as, as documented in the README
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
                    "n_ants": "int", "n_iterations": "int", "seed": "int", "pair_mode": "bool"},
            "pso": {"pool": "str", "n_particles": "int", "n_iterations": "int",
                    "inertia": "float", "c1": "float", "c2": "float", "seed": "int"},
            "grid": {"pool": "str", "pair_mode": "bool"},
            "random": {"pool": "str", "n_picks": "int", "seed": "int"},
            "out": {"dir": "str"},
        }
        names = {int: "int", float: "float", str: "str", bool: "bool",
                 tuple[int, ...]: "ints", tuple[float, ...]: "floats"}
        keys = {section: {key: names[hint] for key, hint in types.items()}
                for section, types in config._KEYS.items()}
        assert keys == expected


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
        ds = ref.load_dataset(tmp_path / "run" / "dataset.csv")
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
    """The number of arms of each tinynet.sgd_fit call while the test runs.
    One call may train several arms in lockstep, as the ablations' students do."""
    calls = []
    real_fit = tinynet.sgd_fit

    def counted_fit(model, *args, **kwargs):
        calls.append(model.n_arms)
        return real_fit(model, *args, **kwargs)

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
                          "total_selections", "evaluations_to_best"]
        assert rows[0][3] == "240"
        # the best pair, m14->m15, is the 225th of the grid's 240 in (teacher, student) order
        assert rows[0][5] == "225"

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
        assert (out / "report.json").read_text(encoding="utf-8") == expected.to_json() + "\n"
        assert expected.unique_evaluations == 2

    def test_mlp_pool_without_data_section_is_exit_2(self, tmp_path, capsys):
        write(tmp_path / "pool.json", json.dumps({"candidates": [
            {"name": "a", "hidden_dims": [4]}, {"name": "b", "hidden_dims": [8]},
        ]}))
        cfg = write(tmp_path / "c.ini", "[grid]\npool = pool.json\n")
        assert main(["select", "--config", str(cfg), "--strategy", "grid",
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            f"error: [grid] pool: {tmp_path / 'pool.json'}: MLP profiles train on the dataset "
            "of a [data] section, which the config lacks\n")

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
        # the first iteration's deposits take each pheromone to about 5.9,
        # whose 399.7th power is finite, and the second iteration's weights
        # sum past the largest float: this once warned, wrote all-zero
        # probabilities and exited 0
        write(tmp_path / "pool.json", json.dumps({"candidates": [
            {"name": "a", "stub_score": 0.5}, {"name": "b", "stub_score": 0.5}]}))
        cfg = write(tmp_path / "c.ini", "[aco]\npool = pool.json\nalpha = 399.7\nbeta = 0\n"
                    "n_ants = 20\nn_iterations = 2\nseed = 6\n")
        out = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["select", "--config", str(cfg), "--strategy", "aco",
                         "--out", str(out)]) == 2
        assert caught == []
        assert not (out / "report.json").exists()
        assert capsys.readouterr().err == (
            "error: pheromone^alpha * heuristic^beta weights sum to inf for alpha 399.7, "
            "beta 0.0: [1.2869126010164517e+308, 1.2869126010164517e+308]\n")

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

    def test_unallocatable_swarm_is_exit_2(self, tmp_path, capsys):
        # 2^56 particles ask numpy for 512 PiB, more than a 64-bit Linux
        # process can map, so the allocation fails at once: this once ended
        # in a MemoryError traceback and exit 1
        worked_example_pool(tmp_path)
        cfg = write(tmp_path / "c.ini", f"[pso]\npool = pool.json\nn_particles = {2**56}\n")
        out = tmp_path / "run"
        assert main(["select", "--config", str(cfg), "--strategy", "pso",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
        assert not (out / "report.json").exists()

    def test_undecodable_pool_is_exit_2_naming_the_file(self, tmp_path, capsys):
        pool = tmp_path / "pool.json"
        pool.write_bytes(b'{"candidates": [{"name": "\xff", "stub_score": 0.5}]}')
        cfg = write(tmp_path / "c.ini", "[grid]\npool = pool.json\n")
        assert main(["select", "--config", str(cfg), "--strategy", "grid",
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            f"error: [grid] pool: {pool}: 'utf-8' codec can't decode byte 0xff in position 26: "
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

    @pytest.mark.parametrize("pool, reason", [("missing.json", "No such file or directory"),
                                              ("pools", "Is a directory")])
    def test_unreadable_pool_is_exit_2_naming_it(self, tmp_path, capsys, pool, reason):
        (tmp_path / "pools").mkdir()
        cfg = write(tmp_path / "c.ini", f"[grid]\npool = {pool}\n")
        assert main(["select", "--config", str(cfg), "--strategy", "grid",
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            f"error: [grid] pool: {tmp_path / pool}: cannot read: {reason}\n")

    # select's error is "[<strategy>] pool: ", then load_pool's own, which
    # starts with the file's path
    @pytest.mark.parametrize("strategy, text", [
        ("grid", "[1, 2]"), ("aco", '[{"name": "a", "hidden_dims": 5}]'), ("pso", "not json"),
        ("random", '{"candidates": 3}'), ("grid", '[{"name": 7, "stub_score": 0.5}]'),
        ("aco", '[{"name": "a", "stub_score": 0.5, "epochs": 2}]'),
        ("pso", '[{"name": "a", "stub_score": 2}]'),
        ("random", '[{"name": "a", "hidden_dims": [0]}]'), ("grid", '[{"name": "a"}]'),
    ])
    def test_malformed_pool_is_exit_2(self, tmp_path, capsys, strategy, text):
        pool = write(tmp_path / "pool.json", text)
        with pytest.raises(ParseError) as raised:
            selection.load_pool(pool, tinynet.generate_synthetic(60, 2, 3, 0.0, seed=1))
        assert str(raised.value).startswith(f"{pool}: ")
        cfg = write(tmp_path / "c.ini", "[data]\nsamples = 60\nclasses = 2\ndim = 3\n"
                    f"complexity = 0.0\nseed = 1\n\n[{strategy}]\npool = pool.json\n")
        assert main(["select", "--config", str(cfg), "--strategy", strategy,
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: [{strategy}] pool: {raised.value}\n"


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
        summary = (out / "summary.csv").read_text(encoding="utf-8")
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
        sweeps = []
        monkeypatch.setattr(cli.metrics, "micro_auc_ap", lambda *a: sweeps.append(a))
        assert main(["distill", "--config", str(cfg), "--ablation", "table11",
                     "--out", str(out)]) == 0
        _, rows = read_rows(out / "ablation.csv")
        assert [r[0] for r in rows] == ["gaussian", "salt_pepper", "uniform", "clean"]
        assert sweeps == []  # ablation rows print no AUC or AP

    @pytest.mark.parametrize("ablation, arms", [("table10", 3), ("table11", 4)])
    def test_ablation_trains_the_teacher_then_one_stack(self, tmp_path, fits, ablation, arms):
        cfg = write(tmp_path / "c.ini", DISTILL_CONFIG)
        assert main(["distill", "--config", str(cfg), "--ablation", ablation,
                     "--out", str(tmp_path / "run")]) == 0
        assert fits == [1, arms]

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
        # the supervised row exactly: both are weight-0 arms, and
        # tests/test_distill.py holds a weight-0 arm to cross-entropy training
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
# number each instead of one per epoch, and again when its train_loss was
# written at 12 significant digits, where every OpenBLAS kernel tried agrees;
# metrics.csv was re-recorded when its class cells stopped being written as
# np.float64(...)
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
        "distill_report.json": "1ace17b2ec10422ba4ce7af42652a6609d3c369bf04b875c864f3e433bfb937c",
        "metrics.csv": "fcf8fb57bff02a6e573c3efcbc4fa74e3662bec05c9056b4744eb459a1479213",
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
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv + (["--ablation", ablation] if ablation else [])) == 0
    assert not [p.name for p in out.iterdir() if b"np." in p.read_bytes()]
    assert "np." not in stdout.getvalue()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.name != "config.ini"}
    assert digests == GOLDEN_DISTILL[ablation]


STUB_POOL = {"candidates": [{"name": f"m{i}", "stub_score": s}
                            for i, s in enumerate([0.61, 0.72, 0.55, 0.83, 0.79])]}
# every strategy with every key of its section set away from the default,
# aco and grid in pair mode on MLP_POOL; the sha256 of each output was
# re-recorded when every report gained evaluations_to_best and an ACO
# report's history kept only its picks, beside proxy_scores and config
SELECT_RUNS = {
    "aco": ("aco", STUB_POOL,
            "[aco]\npool = pool.json\nalpha = 1.5\nbeta = 1.0\nrho = 0.2\nn_ants = 3\n"
            "n_iterations = 4\nseed = 11\npair_mode = false\n"),
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
        "report.csv": "1ad1f18908dcb0929fba1a496c7d6931e0b82d0e3b8a46b557444a9c3e3fd101",
        "report.json": "96feb11d10307e5ae6981cb629437925947e5ba522ad4082e049e210a4078263",
        "stdout": "1edeb5685a9796562ac1a5a888af2e5f5299bdef597e907d90c6aba59bd9b3db",
    },
    "aco_pairs": {
        "report.csv": "e451b6bb3754e873e46c3f45f5ac7ee0529a1bb0617885c03093cbd2bf28edf3",
        "report.json": "8cf731d4b99717434d12ec6f2cfc9fb316ed749ca8882b433d8aa4a98ee6719b",
        "stdout": "125f50d58616c4814768f869e5f72c53bdad71b2c9ebf876060ba5499aa4db67",
    },
    "grid_pairs": {
        "report.csv": "bd2e56f3bad7f45f825b8f837d07dc91f8b298a250a7a0fedacf160fff389e16",
        "report.json": "6c6c5c29eb0d649ba9c5bf7debc1c66c0d6b016395596f76e26e0a3b99149677",
        "stdout": "96f732333def2520897998354fe6243fa7549640454f5a739710b5b1f9574e48",
    },
    "pso": {
        "report.csv": "6e9272553d8d27a27af1b21673f58699f857eb9b5842ec23b42daba18ec3207e",
        "report.json": "50dea21bb5ba26414ce4120620b05d38ea9e053661b96ea07d0f78f15116804d",
        "stdout": "a150953059f61f49b9a3a5ee604b8261d3f4dcf10aa53f4b3ad19c248b1a9cb7",
    },
    "random": {
        "report.csv": "133fe7e636e46acd854bf68bcf83535ecee883a42f52df39236244eb87261d56",
        "report.json": "123fb1fa8659c712bcdec55cb9443fe4673a9a3588d295ddcf2a8822daa866cf",
        "stdout": "3659eaddc94668e7a3f904fc277919bf36ca11d8adb50f04fc0996be3a274754",
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
    assert not [p.name for p in out.iterdir() if b"np." in p.read_bytes()]
    assert "np." not in stdout.getvalue()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.name != "config.ini"}
    digests["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return digests


@pytest.mark.parametrize("run", list(SELECT_RUNS))
def test_select_outputs_pinned(tmp_path, run):
    assert select_digests(tmp_path, run) == GOLDEN_SELECT[run]


SMALL_DATA = "[data]\nsamples = 120\nclasses = 3\ndim = 4\n"
SMALL_KD = "[kd]\nepochs = 2\n"
# (argv, a config that leaves out optional keys, the same config with each
# of them written out at the default the README documents)
DEFAULT_RUNS = {
    "gen-data": (["gen-data"], SMALL_DATA,
                 SMALL_DATA + "complexity = 0\nnoise_kind = none\nnoise_level = 0\n"
                              "noise_fraction = 1\nseed = 0\n"),
    # noise_level and noise_fraction change the dataset only when noise is added
    "gen-data-level": (["gen-data"], SMALL_DATA + "noise_kind = uniform\n",
                       SMALL_DATA + "noise_kind = uniform\nnoise_level = 0\n"),
    "gen-data-fraction": (["gen-data"], SMALL_DATA + "noise_kind = gaussian\nnoise_level = 0.3\n",
                          SMALL_DATA + "noise_kind = gaussian\nnoise_level = 0.3\n"
                                       "noise_fraction = 1\n"),
    "distill": (["distill"], SMALL_DATA + SMALL_KD,
                SMALL_DATA + SMALL_KD + "teacher_hidden = 32,32\nstudent_hidden = 16,16\n"),
    "table11": (["distill", "--ablation", "table11"], SMALL_DATA + SMALL_KD,
                SMALL_DATA + "noise_level = 0.5\n" + SMALL_KD),
    "random": (["select", "--strategy", "random"], "[random]\npool = pool.json\n",
               "[random]\npool = pool.json\nn_picks = 1\nseed = 0\n"),
    "grid": (["select", "--strategy", "grid"], "[grid]\npool = pool.json\n",
             "[grid]\npool = pool.json\npair_mode = false\n"),
}


@pytest.mark.parametrize("run", list(DEFAULT_RUNS))
def test_left_out_keys_take_the_documented_defaults(tmp_path, run):
    argv, left_out, written_out = DEFAULT_RUNS[run]
    outputs = []
    for name, text in (("left_out", left_out), ("written_out", written_out)):
        directory = tmp_path / name
        directory.mkdir()
        write(directory / "pool.json", json.dumps(STUB_POOL))
        cfg = write(directory / "c.ini", text)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main([*argv, "--config", str(cfg), "--out", str(directory / "run")]) == 0
        outputs.append(({p.name: p.read_bytes()
                         for p in (directory / "run").iterdir() if p.name != "config.ini"},
                        stdout.getvalue().replace(str(directory), "<run>")))
    assert outputs[0] == outputs[1]


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


def write_large_eval_inputs(directory):
    """50,000 predictions over 10 classes: a file of over 1 MiB, which
    evaluate reads in ranges.

    Half the rows, drawn at random, are softmax scores written with repr.
    The others lie on the exact 1/8 grid (counts k/8 that sum to 8/8), and
    a few of their zero cells are -0.0, so tie groups and both zeros fall
    on either side of a range boundary.
    """
    rng = np.random.default_rng(2031)
    n, c = 50_000, 10
    labels = rng.integers(0, c, n)
    logits = rng.normal(size=(n, c))
    logits[np.arange(n), labels] += 1.0
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    grid = rng.permutation(n) < n // 2
    probs[grid] = rng.multinomial(8, probs[grid]) / 8.0
    probs[grid[:, None] & (probs == 0.0) & (rng.random((n, c)) < 0.02)] = -0.0
    header = "pred," + ",".join(f"p{j}" for j in range(c))
    rows = [f"{p}," + ",".join(map(repr, row))
            for p, row in zip(probs.argmax(axis=1).tolist(), probs.tolist())]
    write(directory / "preds.csv", "\n".join([header, *rows]) + "\n")
    write(directory / "labels.csv", "\n".join(["label", *map(str, labels.tolist())]) + "\n")


# sha256 of the evaluate outputs, recorded before the probability matrix
# was validated in one pass and swept once for both curves (large: before
# the sweep counted its tie groups from one ascending sort); metrics.csv
# re-recorded when its class cells stopped being written as np.float64(...)
GOLDEN_EVALUATE = {
    "probabilities": {
        "metrics.csv": "45beff34df7f4a0b6dc9929f51764602233346a3bc1350d2ce4c4d30346ebfbd",
        "summary.csv": "36e7536971aca1a2ed264b7aedd18f37b6286b24cbde618e133e9f8156b0af59",
        "stdout": "d130d5cce7ccc44ed740468614d5eb565f65bc4f6cb67582f64b84a382148161",
    },
    "pred-only": {
        "metrics.csv": "45beff34df7f4a0b6dc9929f51764602233346a3bc1350d2ce4c4d30346ebfbd",
        "summary.csv": "d4cc8b5c90a4f4c481eaeeb05bd4e66badb503e9f9f99ce9255e179436a354b0",
        "stdout": "749cd425cc0831e7995810319db11d7c957da165097b9f08a941a9d3c82e9437",
    },
    "large": {
        "metrics.csv": "3da6eb64c6c5dd26e7becbbadeade06c662120849de72a3bd95796920c87dd89",
        "summary.csv": "9d5d6f0da77062cf25897aa6a22d9c8d4c4e943fe0579a43d2bb94a2380726a8",
        "stdout": "3e712d43beda1ff2edfafc7cfb4bc51bf0c855db2e6cd4de85eee79f84f1e7ba",
    },
}


@pytest.mark.parametrize("inputs", list(GOLDEN_EVALUATE))
def test_evaluate_outputs_pinned(tmp_path, inputs):
    if inputs == "large":
        write_large_eval_inputs(tmp_path)
    else:
        write_eval_inputs(tmp_path, with_probs=inputs == "probabilities")
    out = tmp_path / "run"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["evaluate", "--predictions", str(tmp_path / "preds.csv"),
                     "--labels", str(tmp_path / "labels.csv"), "--out", str(out)]) == 0
    assert not [p.name for p in out.iterdir() if b"np." in p.read_bytes()]
    assert "np." not in stdout.getvalue()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    digests["stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    assert digests == GOLDEN_EVALUATE[inputs]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity here")
def test_large_file_reads_the_same_on_every_cpu_and_on_one(tmp_path):
    # the file is parsed in one range per usable CPU: a child pinned to one
    # CPU parses it as one range, and must write the same outputs, and the
    # same one error line for a bad cell in the last data row
    write_large_eval_inputs(tmp_path)
    preds = tmp_path / "preds.csv"
    cpu = min(os.sched_getaffinity(0))

    def evaluate(out, pinned):
        return subprocess.run(
            [sys.executable, "-m", "antdistill.cli", "evaluate", "--predictions", str(preds),
             "--labels", str(tmp_path / "labels.csv"), "--out", str(out)],
            capture_output=True, env=child_env(), timeout=120,
            preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pinned else None)

    for pinned in (False, True):
        out = tmp_path / f"run-{pinned}"
        proc = evaluate(out, pinned)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        digests["stdout"] = hashlib.sha256(proc.stdout).hexdigest()
        assert digests == GOLDEN_EVALUATE["large"]
    text = preds.read_text(encoding="utf-8")
    write(preds, text[:text.rindex(",", 0, -1)] + ",x\n")
    for pinned in (False, True):
        out = tmp_path / f"bad-{pinned}"
        proc = evaluate(out, pinned)
        assert (proc.returncode, proc.stderr.decode("utf-8")) == (2, (
            f"error: {preds}: could not convert string 'x' to float64 at data row 50000, "
            "column 11\n"))
        assert not out.exists()


class TestEvaluate:
    def test_perfect_predictions(self, tmp_path):
        write(tmp_path / "preds.csv", "pred\n0\n1\n2\n")
        write(tmp_path / "labels.csv", "label\n0\n1\n2\n")
        out = tmp_path / "run"
        assert main(["evaluate", "--predictions", str(tmp_path / "preds.csv"),
                     "--labels", str(tmp_path / "labels.csv"), "--out", str(out)]) == 0
        assert "accuracy,1.0" in (out / "summary.csv").read_text(encoding="utf-8")

    def test_hand_case_accuracy(self, tmp_path):
        write(tmp_path / "preds.csv", "pred\n0\n1\n1\n1\n")
        write(tmp_path / "labels.csv", "label\n0\n0\n1\n1\n")
        out = tmp_path / "run"
        main(["evaluate", "--predictions", str(tmp_path / "preds.csv"),
              "--labels", str(tmp_path / "labels.csv"), "--out", str(out)])
        assert "accuracy,0.75" in (out / "summary.csv").read_text(encoding="utf-8")

    def test_missing_probs_warns_and_skips_auc(self, tmp_path, capsys):
        write(tmp_path / "preds.csv", "pred\n0\n1\n")
        write(tmp_path / "labels.csv", "label\n0\n1\n")
        out = tmp_path / "run"
        main(["evaluate", "--predictions", str(tmp_path / "preds.csv"),
              "--labels", str(tmp_path / "labels.csv"), "--out", str(out)])
        assert "warning" in capsys.readouterr().out
        assert "auc_micro" not in (out / "summary.csv").read_text(encoding="utf-8")

    def test_probs_give_auc(self, tmp_path):
        write(tmp_path / "preds.csv", "pred,p0,p1\n0,0.9,0.1\n1,0.2,0.8\n")
        write(tmp_path / "labels.csv", "label\n0\n1\n")
        out = tmp_path / "run"
        main(["evaluate", "--predictions", str(tmp_path / "preds.csv"),
              "--labels", str(tmp_path / "labels.csv"), "--out", str(out)])
        text = (out / "summary.csv").read_text(encoding="utf-8")
        assert "auc_micro,1.0" in text and "ap_micro,1.0" in text

    def test_length_mismatch_is_nonzero_exit(self, tmp_path, capsys):
        write(tmp_path / "preds.csv", "pred\n0\n1\n")
        write(tmp_path / "labels.csv", "label\n0\n")
        assert main(["evaluate", "--predictions", str(tmp_path / "preds.csv"),
                     "--labels", str(tmp_path / "labels.csv"),
                     "--out", str(tmp_path / "run")]) != 0


# cells inside the input rule on which numpy's C parser and int()/float()
# may disagree: whitespace around digits, signs, ids only float() reads,
# notations of either, quotes, comments and control bytes
ODD_CELLS = [" 1 ", "+1", "-0", "1.0", "1e2", "Infinity", "-nan", "0x10", '"1"', "1#2", "1\t",
             "0\t.5", "\x00"]
# cells with a byte outside the input rule: digits outside ASCII, which
# int() or numpy reads, the separators 0x1c-0x1f, which numpy takes for
# whitespace, and "\udcff", which is written as the byte 0xff
OUTSIDE_BYTE_CELLS = ["１", "٣", "①", "1二", "1\x1c", "\x1d1", "0.5\x1e", "\x1f0.5", "\udcff"]
# cells outside the input rule: those, and the `_` digit separators that
# int() and float() read
OUTSIDE_CELLS = ["1_0", "0_0.5", *OUTSIDE_BYTE_CELLS]
# cells of a predictions or labels file inside the input rule: class ids
# (small, huge, out of int64), probabilities, and what the reader must reject
RULE_CELLS = (st.integers(-2, 6).map(str)
              | st.sampled_from(["10000000", "99999999999999999999", "", "x", "1.5", "nan",
                                 "inf", "0.5", "1e400"])
              | st.floats(0.0, 1.0).map(repr)
              | st.sampled_from(ODD_CELLS))
EVAL_ROWS = st.lists(st.lists(RULE_CELLS | st.sampled_from(OUTSIDE_CELLS), min_size=1,
                              max_size=4).map(",".join), max_size=6)
PRED_HEADERS = st.sampled_from(["pred", "pred,p0,p1", "pred,p0,p1,p2", "pred,p1", "pred,p0",
                                "label", "p0,pred", ""])
LABEL_HEADERS = st.sampled_from(["label", "pred", "label,x", ""])


@st.composite
def eval_files(draw, headers):
    """File bytes inside the input rule: a header from `headers` on line 1,
    data rows as wide as it, and empty lines anywhere after the header,
    with \\n, \\r\\n or \\r line ends. The cells of a third of the files
    parse: class ids first, then probabilities; another third is such a
    file with one odd cell. Two such files of a test case have the same
    number of rows. Files without empty lines are the most common."""
    header = draw(headers)
    width = header.count(",") + 1
    kind = draw(st.sampled_from(["parse", "odd", "any"]))
    if kind == "any":
        n_rows = draw(st.integers(1, 6))
        cells = [RULE_CELLS] * width
    else:
        n_rows = draw(st.shared(st.integers(1, 6), key="eval_rows"))
        cells = [st.integers(0, 3).map(str)] + [st.floats(0.0, 1.0).map(repr)] * (width - 1)
    rows = draw(st.lists(st.tuples(*cells).map(list), min_size=n_rows, max_size=n_rows))
    if kind == "odd":
        rows[draw(st.integers(0, n_rows - 1))][draw(st.integers(0, width - 1))] = draw(
            st.sampled_from(ODD_CELLS))
    lines = [header, *map(",".join, rows)]
    for _ in range(draw(st.just(0) | st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return text.encode("ascii")


def _parsed(read, *paths):
    """(preds, labels, probs) of a reader as (dtype, shape, bytes) triples,
    or the type and message of the error it raises."""
    try:
        arrays = read(*paths)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [a if a is None else (a.dtype, a.shape, a.tobytes()) for a in arrays]


def assert_reads_as_reference(paths):
    """evaluate's reader gives scalar_reference's arrays, bit for bit, or a
    ParseError where the reference raises."""
    want = _parsed(ref.evaluate_inputs, *paths)
    got = _parsed(cli._evaluate_inputs, *paths)
    if isinstance(want, tuple):
        assert got[0] is ParseError, (got, want)
    else:
        assert got == want


def odd_cell_files(directory, cell, column, n_rows=2):
    """(predictions, labels) files of n_rows rows, with cell in column of
    the last row."""
    rows = {"pred": [["pred", "p0", "p1"]] + [[str(i % 2), "0.25", "0.75"] for i in range(n_rows)],
            "label": [["label"]] + [[str(i % 2)] for i in range(n_rows)]}
    edited = rows["label" if column == "label" else "pred"]
    edited[n_rows][edited[0].index(column)] = cell
    return [write(directory / f"{name}s.csv", "".join(",".join(r) + "\n" for r in rows[name]))
            for name in ("pred", "label")]


# every class defined in antdistill.errors
NAMED_ERRORS = tuple(v for v in vars(antdistill.errors).values()
                     if isinstance(v, type) and issubclass(v, Exception))


def non_finite_cells(text: str) -> list[str]:
    return [c for c in re.split(r"[,\n]", text)
            if c.strip().lower().lstrip("+-") in ("nan", "inf", "infinity")]


def reject_constant(name):
    raise ValueError(f"{name} in a JSON report")


def check_outcome(argv, out, errors):
    """Runs main(argv), which writes into out, and checks that it ends in one
    of two outcomes: exit 0 with finite outputs, or exit 2 with one error
    line from an exception in errors; never a warning."""
    command = "cmd_" + argv[0].replace("-", "_")
    run, raised = getattr(cli, command), []

    def recorded(args):
        try:
            return run(args)
        except Exception as exc:
            raised.append(exc)
            raise

    stderr = io.StringIO()
    with mock.patch.object(cli, command, recorded), \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    assert caught == []
    if code == 0:
        for path in out.iterdir():
            report = path.read_text(encoding="utf-8")
            if path.suffix == ".json":
                json.loads(report, parse_constant=reject_constant)
            elif path.suffix == ".csv":
                assert non_finite_cells(report) == [], path.name
    else:
        assert code == 2
        err = stderr.getvalue()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert len(raised) == 1 and isinstance(raised[0], errors), raised


class TestEvaluateInputs:
    @settings(max_examples=300, deadline=None)
    @given(pred_header=PRED_HEADERS, pred_rows=EVAL_ROWS, label_header=LABEL_HEADERS,
           label_rows=EVAL_ROWS)
    def test_any_files_exit_0_or_2(self, tmp_path_factory, pred_header, pred_rows,
                                   label_header, label_rows):
        base = tmp_path_factory.mktemp("eval")
        preds = write(base / "preds.csv", "\n".join([pred_header, *pred_rows]) + "\n")
        labels = write(base / "labels.csv", "\n".join([label_header, *label_rows]) + "\n")
        out = base / "run"
        check_outcome(["evaluate", "--predictions", str(preds), "--labels", str(labels),
                       "--out", str(out)], out, NAMED_ERRORS)

    @settings(max_examples=500, deadline=None)
    @given(pred_file=eval_files(PRED_HEADERS | st.sampled_from(["pred", "pred,p0,p1,p2"])),
           label_file=eval_files(LABEL_HEADERS | st.just("label")))
    def test_flat_cell_reader_equals_the_row_reader(self, tmp_path_factory, pred_file,
                                                    label_file):
        # on files inside the input rule whose rows all match their header's width
        base = tmp_path_factory.getbasetemp()
        (base / "parse_preds.csv").write_bytes(pred_file)
        (base / "parse_labels.csv").write_bytes(label_file)
        assert_reads_as_reference((base / "parse_preds.csv", base / "parse_labels.csv"))

    @pytest.mark.parametrize("cell", ODD_CELLS)
    @pytest.mark.parametrize("column", ["pred", "p1", "label"])
    def test_odd_cell_gives_the_row_readers_result(self, tmp_path, cell, column):
        assert_reads_as_reference(odd_cell_files(tmp_path, cell, column))

    @pytest.mark.parametrize("cell", OUTSIDE_CELLS)
    @pytest.mark.parametrize("column", ["pred", "p1", "label"])
    def test_cell_outside_the_rule_is_a_parse_error(self, tmp_path, cell, column):
        paths = odd_cell_files(tmp_path, cell, column)
        error, message = _parsed(cli._evaluate_inputs, *paths)
        assert error is ParseError and message.startswith(f"{paths[column == 'label']}: ")

    @pytest.mark.parametrize("pred_text", [
        "pred,p0,p1\n0,\xa00.75,0.25\n1,0.125,0.875\n",
        "pred,p0,p1\n0,0.75,0.25\x1c\n1,0.125,0.875\n",
        "pred,p0,p1\n0,0.75,0.25\n \n1,0.125,0.875\n",
        "\npred,p0,p1\n0,0.75,0.25\n1,0.125,0.875\n",
        "pred,p0,p1\n1_0,0.75,0.25\n1,0.125,0.875\n",
    ], ids=["no-break-space", "separator-0x1c", "whitespace-line", "blank-line-before-header",
            "digit-separator"])
    def test_input_outside_the_rule_is_exit_2(self, tmp_path, capsys, pred_text):
        preds = write(tmp_path / "preds.csv", pred_text)
        labels = write(tmp_path / "labels.csv", "label\n0\n1\n")
        assert main(["evaluate", "--predictions", str(preds), "--labels", str(labels),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {preds}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("cell", OUTSIDE_BYTE_CELLS)
    @pytest.mark.parametrize("column", ["pred", "p1", "label"])
    def test_odd_cell_far_into_a_large_file(self, tmp_path, cell, column):
        # numpy's parser reads the file in pieces, and each piece is checked
        # as it arrives: a byte outside the rule in the last of 20,000 rows,
        # several reads into either file, is named with its offset
        paths = odd_cell_files(tmp_path, cell, column, n_rows=20_000)
        edited = paths[column == "label"]
        data = edited.read_bytes()
        at = re.search(rb"[^\x00-\x1b\x20-\x7f]", data).start()
        assert at > 4 * io.DEFAULT_BUFFER_SIZE
        assert _parsed(cli._evaluate_inputs, *paths) == (
            ParseError, f"{edited}: byte {at} is {data[at]:#04x}, outside ASCII or a separator "
                        "0x1c-0x1f")

    @pytest.mark.parametrize("pred_text, label_text, name, width, cells, row", [
        ("pred\n0\n1,1\n", "label\n0\n1\n", "preds.csv", 1, 2, 2),
        ("pred\n0\n1\n", "label\n0,1\n1\n", "labels.csv", 1, 2, 1),
        ("pred,p0,p1,p2\n0,0.5,0.5\n1,0.5,0.5\n", "label\n0\n1\n", "preds.csv", 4, 3, 1),
        ("pred,p0,p1\n0,0.5,0.5\n\n1,1.0\n", "label\n0\n1\n", "preds.csv", 3, 2, 2),
        ("pred,p0,p1\n0,0.5,0.5\n1,0.5,0.5,0\n", "label\n0\n1\n", "preds.csv", 3, 4, 2),
    ], ids=["pred-extra", "label-extra", "probs-narrow", "probs-ragged", "probs-wide"])
    def test_row_width_differs_from_header_is_exit_2(self, tmp_path, capsys, pred_text,
                                                      label_text, name, width, cells, row):
        # an empty line is not a data row, so the ragged row is data row 2
        preds = write(tmp_path / "preds.csv", pred_text)
        labels = write(tmp_path / "labels.csv", label_text)
        assert main(["evaluate", "--predictions", str(preds), "--labels", str(labels),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (f"error: {tmp_path / name}: data row {row} has width "
                                           f"{cells}, the header width {width}\n")

    @pytest.mark.parametrize("pred_text, label_text, name, cell, dtype, row, column", [
        ("pred,p0,p1\n0,0.75,0.25\n1,x,0.875\n", "label\n0\n1\n", "preds.csv", "x", "float64",
         2, 2),
        ("pred,p0,p1\n0,0.75,0.25\n\n1,0.125,\n", "label\n0\n1\n", "preds.csv", "", "float64",
         2, 3),
        ("pred,p0,p1\n1.5,0.75,0.25\n1,0.125,0.875\n", "label\n0\n1\n", "preds.csv", "1.5",
         "int64", 1, 1),
        ("pred\n0\n1\n", "label\n0\n\nz\n", "labels.csv", "z", "int64", 2, 1),
    ], ids=["probability", "empty-after-blank-line", "prediction", "label"])
    def test_bad_cell_is_exit_2_naming_its_data_row_and_column(
            self, tmp_path, capsys, pred_text, label_text, name, cell, dtype, row, column):
        # data rows are numbered from 1, as in a row-width error
        preds = write(tmp_path / "preds.csv", pred_text)
        labels = write(tmp_path / "labels.csv", label_text)
        assert main(["evaluate", "--predictions", str(preds), "--labels", str(labels),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / name}: could not convert string '{cell}' to {dtype} "
            f"at data row {row}, column {column}\n")

    @pytest.mark.parametrize("pred_text, label_text, name, message", [
        ("pred,p0,p1\n0,1.0,0.0\n1,0.5,0.6\n", "label\n0\n1\n", "preds.csv",
         "distribution sums to 1.1, not 1"),
        ("pred,p0,p1\n0,1.0,0.0\n\n1,nan,0.5\n", "label\n0\n1\n", "preds.csv",
         "distribution contains NaN or Inf"),
        ("pred,p0,p1\n0,1.0,0.0\n1,1.5,-0.5\n", "label\n0\n1\n", "preds.csv",
         "distribution entries outside [0, 1]"),
        ("pred,p0,p1\n0,1.0,0.0\n2,0.5,0.5\n", "label\n0\n1\n", "preds.csv",
         "class index outside [0, 2)"),
        ("pred\n0\n1\n", "label\n0\n\n-1\n", "labels.csv", "class index outside [0, 2)"),
    ], ids=["probability-sum", "probability-nan", "probability-range", "prediction-id",
            "label-id"])
    def test_bad_value_is_exit_2_naming_its_file_and_data_row(
            self, tmp_path, capsys, pred_text, label_text, name, message):
        # an empty line is not a data row, so each bad value is in data row 2
        preds = write(tmp_path / "preds.csv", pred_text)
        labels = write(tmp_path / "labels.csv", label_text)
        assert main(["evaluate", "--predictions", str(preds), "--labels", str(labels),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / name}: data row 2: {message}\n"

    @pytest.mark.parametrize("pred_text, label_text, message", [
        ("pred,p0\n0,1.0\n0,1.0\n", "label\n0\n0\n", "need at least 2 classes"),
        ("pred\n0\n0\n", "label\n0\n0\n", "need at least 2 classes"),
        ("pred,p0,p1\n0,1.0,0.0\n", "label\n0\n", "need at least 2 samples"),
    ], ids=["one-probability-column", "ids-all-0", "one-row-with-probabilities"])
    def test_too_few_classes_or_samples_is_exit_2_naming_the_predictions_file(
            self, tmp_path, capsys, pred_text, label_text, message):
        preds = write(tmp_path / "preds.csv", pred_text)
        labels = write(tmp_path / "labels.csv", label_text)
        assert main(["evaluate", "--predictions", str(preds), "--labels", str(labels),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {preds}: {message}\n"

    @pytest.mark.parametrize("pred_text", ["pred\n0\n1\n", "pred,p0,p1\n0,1.0,0.0\n1,0.5,0.5\n"],
                             ids=["pred", "probabilities"])
    def test_row_count_mismatch_names_both_files(self, tmp_path, capsys, pred_text):
        preds = write(tmp_path / "preds.csv", pred_text)
        labels = write(tmp_path / "labels.csv", "label\n0\n")
        assert main(["evaluate", "--predictions", str(preds), "--labels", str(labels),
                     "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {preds} has 2 data rows, {labels} has 1\n"

    @pytest.mark.parametrize("label_text", ["label\n0\n", "labels\n0\n1\n"],
                             ids=["row-count", "label-header"])
    def test_bad_prediction_cell_comes_before_label_errors(self, tmp_path, capsys, label_text):
        # the predictions file is read whole before the labels file is opened
        preds = write(tmp_path / "preds.csv", "pred,p0,p1\n0,1.0,0.0\n1,x,0.5\n")
        labels = write(tmp_path / "labels.csv", label_text)
        assert main(["evaluate", "--predictions", str(preds), "--labels", str(labels),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {preds}: could not convert string 'x' "), err

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


@contextlib.contextmanager
def small_ranges(cpus=3):
    """cli._read_table cuts files into ranges of at least 4 bytes, one per
    CPU of `cpus`; yields the mock that counts the children forked."""
    with mock.patch.object(cli, "_RANGE_MIN", 4), \
            mock.patch.object(os, "sched_getaffinity", return_value=set(range(cpus))), \
            mock.patch.object(cli, "_fork_range", wraps=cli._fork_range) as forks:
        yield forks


def read_split_and_whole(read, *paths, cpus=3):
    """(result in small ranges, result as one range, (children forked,
    reads begun in this process) for the first), each result as _parsed
    gives it. A file read in ranges and then again as one range, after a
    range failed, counts two reads."""
    with small_ranges(cpus) as forks, \
            mock.patch.object(cli, "_PlainBytes", wraps=cli._PlainBytes) as reads:
        split = _parsed(read, *paths)
    return split, _parsed(read, *paths), (forks.call_count, reads.call_count)


def range_starts(path, cpus=3):
    with small_ranges(cpus), open(path, "rb") as raw:
        return [start for start, _ in cli._ranges(raw)]


def read_preds(path):
    """The columns of a file of id and probability columns under any header."""
    return cli._read_table(path, "'pred'", lambda header: True)


def in_children(exc):
    """A stand-in for cli._loadtxt that raises exc in a forked child (a
    warning is warned), and parses as usual in this process."""
    parent, loadtxt = os.getpid(), cli._loadtxt

    def failing(lines, dtype):
        if os.getpid() != parent:
            if isinstance(exc, Warning):
                warnings.warn(exc)
            else:
                raise exc
        return loadtxt(lines, dtype)

    return failing


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def lines_file(path, rows, end="\n", header="pred,p0,p1"):
    path.write_bytes((end.join([header, *rows]) + end).encode("latin-1"))
    return path


PRED_ROWS = [f"{i % 2},0.25,0.75" for i in range(12)]


class TestRangeReader:
    # evaluate's reader parses a large file in ranges of lines, one per
    # usable CPU; forced here onto small files, it must give the one-range
    # read's arrays bit for bit, or its error type and message

    @settings(max_examples=100, deadline=None)
    @given(pred_file=eval_files(PRED_HEADERS | st.sampled_from(["pred", "pred,p0,p1,p2"])),
           label_file=eval_files(LABEL_HEADERS | st.just("label")))
    def test_any_files_read_as_one_range(self, tmp_path_factory, pred_file, label_file):
        base = tmp_path_factory.getbasetemp()
        (base / "range_preds.csv").write_bytes(pred_file)
        (base / "range_labels.csv").write_bytes(label_file)
        split, whole, _ = read_split_and_whole(
            cli._evaluate_inputs, base / "range_preds.csv", base / "range_labels.csv")
        assert split == whole

    @pytest.mark.parametrize("cell", ODD_CELLS + OUTSIDE_CELLS)
    @pytest.mark.parametrize("column", ["pred", "p1", "label"])
    def test_odd_cell_reads_as_one_range(self, tmp_path, cell, column):
        paths = odd_cell_files(tmp_path, cell, column, n_rows=12)
        split, whole, counts = read_split_and_whole(cli._evaluate_inputs, *paths)
        assert split == whole and counts[0] > 0

    @pytest.mark.parametrize("last, message", [
        ("1,0.25,0.7\xff5", "byte {at} is 0xff, outside ASCII or a separator 0x1c-0x1f"),
        ("1,0.25,x", "could not convert string 'x' to float64 at data row 12, column 3"),
        ("1,0.25", "data row 12 has width 2, the header width 3"),
    ], ids=["byte", "cell", "ragged"])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_error_in_the_last_range_is_the_whole_files(self, tmp_path, last, message, end):
        # empty lines are not data rows
        path = lines_file(tmp_path / "preds.csv", PRED_ROWS[:3] + ["", ""] + PRED_ROWS[3:11]
                          + [last], end)
        data = path.read_bytes()
        assert range_starts(path)[-1] < data.rindex(b"1,0.25")
        split, whole, counts = read_split_and_whole(read_preds, path)
        at = data.find(b"\xff")
        assert split == whole == (ParseError, f"{path}: " + message.format(at=at))
        assert counts == (2, 2)

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("last", ["1,0.25,0.75", "1,x,0.75"], ids=["clean", "bad-cell"])
    def test_empty_lines_at_a_range_boundary(self, tmp_path, end, last):
        path = lines_file(tmp_path / "preds.csv", PRED_ROWS[:6] + [""] * 16 + PRED_ROWS[6:11]
                          + [last], end)
        data, starts = path.read_bytes(), range_starts(path, cpus=2)
        assert data[starts[1] - 2 * len(end):starts[1]] == end.encode() * 2
        assert data[starts[1]:starts[1] + len(end)] == end.encode()
        split, whole, counts = read_split_and_whole(read_preds, path, cpus=2)
        assert split == whole and counts == (1, 1 if isinstance(whole, list) else 2)
        assert isinstance(whole, list) or whole[1].endswith("at data row 12, column 2")

    @pytest.mark.parametrize("last", ["1,0.25,0.75", "1,0.25,"], ids=["clean", "bad-cell"])
    def test_a_range_of_only_empty_lines(self, tmp_path, last):
        path = lines_file(tmp_path / "preds.csv", PRED_ROWS[:6] + [""] * 80 + PRED_ROWS[6:11]
                          + [last])
        data, starts = path.read_bytes(), range_starts(path)
        assert data[starts[1]:starts[2]].strip(b"\n") == b""
        split, whole, counts = read_split_and_whole(read_preds, path)
        assert split == whole and counts == (2, 1 if isinstance(whole, list) else 2)
        assert isinstance(whole, list) or whole[1].endswith("at data row 12, column 3")

    def test_cr_line_ends_read_as_one_range(self, tmp_path):
        path = lines_file(tmp_path / "preds.csv", PRED_ROWS, "\r")
        assert range_starts(path) == [0]
        split, whole, counts = read_split_and_whole(read_preds, path)
        assert split == whole and isinstance(whole, list) and counts == (0, 1)


class TestRangeReaderProcesses:
    @pytest.mark.parametrize("rows", [PRED_ROWS, PRED_ROWS[:-1] + ["1,0.5"]],
                             ids=["clean", "ragged"])
    def test_no_child_outlives_a_read(self, tmp_path, capfd, rows):
        path = lines_file(tmp_path / "preds.csv", rows)
        split, whole, counts = read_split_and_whole(read_preds, path)
        assert split == whole and counts == (2, 1 if isinstance(whole, list) else 2)
        assert_no_child_left()
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("exc", [ValueError("in a child"), KeyboardInterrupt(),
                                     RuntimeWarning("in a child")],
                             ids=["error", "interrupt", "warning"])
    def test_failing_child_gives_the_whole_files_read(self, tmp_path, capfd, exc):
        # nothing on stdout or stderr, and the one-range read's arrays
        path = lines_file(tmp_path / "preds.csv", PRED_ROWS)
        with mock.patch.object(cli, "_loadtxt", in_children(exc)):
            split, whole, counts = read_split_and_whole(read_preds, path)
        assert split == whole and isinstance(whole, list) and counts == (2, 2)
        assert_no_child_left()
        assert capfd.readouterr() == ("", "")

    def test_interrupt_in_the_parent_leaves_no_child(self, tmp_path):
        # each child's rows overflow its pipe's buffer, so a child waits on
        # its pipe until the read end is closed
        path = lines_file(tmp_path / "preds.csv", PRED_ROWS * 2000)
        parent = os.getpid()

        def interrupted(lines, dtype, loadtxt=cli._loadtxt):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return loadtxt(lines, dtype)

        with small_ranges() as forks, mock.patch.object(cli, "_loadtxt", interrupted), \
                pytest.raises(KeyboardInterrupt):
            read_preds(path)
        assert forks.call_count == 2
        assert_no_child_left()

    @pytest.mark.parametrize("why", ["thread", "one-cpu"])
    def test_one_range_forks_nothing(self, tmp_path, why):
        path = lines_file(tmp_path / "preds.csv", PRED_ROWS)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(10,))
        with small_ranges(cpus=1 if why == "one-cpu" else 3), \
                mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
            if why == "thread":
                thread.start()
            try:
                split = _parsed(cli._evaluate_inputs, path,
                                lines_file(tmp_path / "labels.csv", ["0"] * 12, header="label"))
            finally:
                stop.set()
                if why == "thread":
                    thread.join(10)
        assert not thread.is_alive()
        assert split == _parsed(cli._evaluate_inputs, path, tmp_path / "labels.csv")

    def test_pipe_is_one_range(self):
        read_end, write_end = os.pipe()
        os.close(write_end)
        with small_ranges(), open(read_end, "rb") as raw:
            assert cli._ranges(raw) == [(0, None)]


class TestReproExamples:
    def test_all_checks_pass(self, tmp_path, capsys):
        assert main(["repro-examples", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "7/7 checks passed" in out
        assert (tmp_path / "repro_examples.txt").exists()

    def test_tampered_constant_fails(self, tmp_path, capsys, monkeypatch):
        probabilities = selection.selection_probabilities
        monkeypatch.setattr(selection, "selection_probabilities",
                            lambda *args: probabilities(*args) + 0.05)
        assert main(["repro-examples", "--out", str(tmp_path / "run")]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out and "6/7 checks passed" in captured.out
        assert captured.err == "error: 1 worked-example checks deviated\n"
        assert not (tmp_path / "run").exists()

    def test_runs_as_module(self):
        proc = subprocess.run([sys.executable, "-m", "antdistill.cli", "repro-examples"],
                              capture_output=True, text=True, env=child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "7/7 checks passed" in proc.stdout

    def test_installed_script_is_the_function_the_children_run(self):
        # so the children that run python -m antdistill.cli check the
        # installed script's error paths too
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert scripts == {"antdistill": "antdistill.cli:entrypoint"}

    def test_output_stable_across_runs(self, tmp_path):
        main(["repro-examples", "--out", str(tmp_path / "a")])
        main(["repro-examples", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "repro_examples.txt").read_bytes() == (
            tmp_path / "b" / "repro_examples.txt"
        ).read_bytes()


class TestErrorPaths:
    def test_missing_config_is_nonzero(self, capsys):
        assert main(["gen-data", "--config", "/nonexistent.ini", "--out", "/tmp/x"]) == 2

    @pytest.mark.parametrize("argv, text, key, section", [
        (["gen-data"], "[data]\nwhat = 1\n", "what", "data"),
        # ACO always starts from all-ones pheromones and the proxy heuristic
        (["select", "--strategy", "aco"], "[aco]\npool = pool.json\ninit_pheromone = 2,1,4\n",
         "init_pheromone", "aco"),
        # every ant draws by roulette: there is no greedy exploitation rule
        (["select", "--strategy", "aco"], "[aco]\npool = pool.json\nq0 = 0.3\n", "q0", "aco"),
    ], ids=["data-what", "aco-init-pheromone", "aco-q0"])
    def test_unknown_key_is_nonzero(self, tmp_path, capsys, argv, text, key, section):
        cfg = write(tmp_path / "c.ini", text)
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: unknown key {key!r} in section [{section}]\n")

    @pytest.mark.parametrize("argv, text, message", [
        (["gen-data", "--out", "run"], "[data]\nclasses = 3\ndim = 4\n",
         "missing required key 'samples' in section [data]"),
        (["select", "--strategy", "grid", "--out", "run"], "[grid]\npair_mode = true\n",
         "missing required key 'pool' in section [grid]"),
        (["distill", "--out", "run"], DATA_SECTION, "missing required section [kd]"),
        (["gen-data"], DATA_SECTION + "[out]\n", "missing required key 'dir' in section [out]"),
        (["distill", "--out", "run"], DATA_SECTION + "[policy]\ntemperature = 2.0\n[kd]\n",
         "missing required key 'variant' in section [policy]"),
    ], ids=["data-samples", "grid-pool", "kd-section", "out-dir", "policy-variant"])
    def test_missing_input_is_exit_2_naming_it(self, tmp_path, capsys, monkeypatch, argv, text,
                                               message):
        monkeypatch.chdir(tmp_path)  # --out run is relative
        cfg = write(tmp_path / "c.ini", text)
        assert main([*argv, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, text, message", [
        (["distill"], DATA_SECTION + "[kd]\nstudent_hidden = 4,-1\n",
         "[kd] student_hidden sizes must be >= 1, got [4, -1]"),
        (["distill", "--ablation", "table11"], DATA_SECTION + "[kd]\nteacher_hidden = 0\n",
         "[kd] teacher_hidden sizes must be >= 1, got [0]"),
        (["gen-data"], DATA_SECTION.replace("gaussian", "pink"),
         "[data] noise_kind must be one of ['none', 'gaussian', 'salt_pepper', 'uniform'], "
         "got 'pink'"),
        (["distill"], DATA_SECTION.replace("gaussian", "none") + "[kd]\n", None),
        (["gen-data"], DATA_SECTION.replace("complexity = 0.0", "complexity = 0.1,0.2"),
         "[data] complexity must have 1 or 3 entries, got 2"),
        (["distill", "--ablation", "table11"],
         DATA_SECTION.replace("complexity = 0.0", "complexity = 0.1,0.2,0.3,0.4") + "[kd]\n",
         "[data] complexity must have 1 or 3 entries, got 4"),
        (["distill"], DATA_SECTION + "[kd]\nt_base = 2\n", "t_base must lie in [0, 1], got 2.0"),
        (["distill", "--ablation", "table10"], DATA_SECTION + "[kd]\nt_base = 2\n",
         "t_base must lie in [0, 1], got 2.0"),
        (["distill", "--ablation", "table11"], DATA_SECTION + "[kd]\nt_base = -0.5\n",
         "t_base must lie in [0, 1], got -0.5"),
        (["gen-data"], DATA_SECTION.replace("gaussian", "none") + "noise_fraction = 7\n",
         "[data] noise_fraction must lie in [0, 1], got 7.0"),
        (["distill"], DATA_SECTION.replace("gaussian", "none").replace("level = 0.5", "level = 5") + "[kd]\n",
         "[data] noise_level must lie in [0, 1], got 5.0"),
        (["distill", "--ablation", "table10"], DATA_SECTION + "noise_fraction = nan\n[kd]\n",
         "[data] noise_fraction must lie in [0, 1], got nan"),
        (["distill", "--ablation", "table11"],
         DATA_SECTION.replace("gaussian", "none").replace("level = 0.5", "level = 5") + "[kd]\n",
         "[data] noise_level must lie in [0, 1], got 5.0"),
        (["gen-data"], DATA_SECTION.replace("level = 0.5", "level = nan"),
         "[data] noise_level must lie in [0, 1], got nan"),
        (["distill"], DATA_SECTION + "[kd]\nepochs = 0\n", "epochs must be >= 1, got 0"),
        (["distill"], DATA_SECTION + "[kd]\nbatch_size = 0\n", "batch_size must be >= 1, got 0"),
        (["distill", "--ablation", "table10"], DATA_SECTION + "[kd]\nlearning_rate = -0.1\n",
         "learning_rate must be >= 0, got -0.1"),
        (["select", "--strategy", "aco"], "[aco]\npool = pool.json\nalpha = -1\n",
         "alpha must be >= 0, got -1.0"),
        (["select", "--strategy", "aco"], "[aco]\npool = pool.json\nbeta = -2\n",
         "beta must be >= 0, got -2.0"),
        (["select", "--strategy", "aco"], "[aco]\npool = pool.json\nn_ants = 0\n",
         "n_ants must be >= 1, got 0"),
        (["select", "--strategy", "aco"], "[aco]\npool = pool.json\nn_iterations = 0\n",
         "n_iterations must be >= 1, got 0"),
        (["select", "--strategy", "pso"], "[pso]\npool = pool.json\nn_particles = 0\n",
         "n_particles must be >= 1, got 0"),
        (["select", "--strategy", "pso"], "[pso]\npool = pool.json\nn_iterations = -1\n",
         "n_iterations must be >= 0, got -1"),
    ], ids=["student-hidden", "teacher-hidden", "noise-kind", "noise-kind-none",
            "complexity-count", "complexity-count-table11", "t-base", "t-base-table10",
            "t-base-table11", "noise-fraction", "noise-level", "noise-fraction-nan-table10",
            "noise-level-table11", "noise-level-nan", "kd-epochs", "kd-batch-size",
            "kd-learning-rate", "aco-alpha", "aco-beta", "aco-n-ants", "aco-n-iterations",
            "pso-n-particles", "pso-n-iterations"])
    def test_bad_value_is_exit_2_naming_its_key_before_training(self, tmp_path, capsys,
                                                                monkeypatch, argv, text, message):
        # the config is checked where it is read: no model is trained first
        def no_training(*args):
            raise AssertionError("trained a model")

        monkeypatch.setattr(tinynet, "sgd_fit", no_training)
        write(tmp_path / "pool.json", json.dumps(STUB_POOL))  # the select runs' pool
        cfg = write(tmp_path / "c.ini", text)
        argv = [*argv, "--config", str(cfg), "--out", str(tmp_path / "run")]
        if message is None:  # a good config gets as far as training
            with pytest.raises(AssertionError, match="^trained a model$"):
                main(argv)
        else:
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, text", [
    (["gen-data"], DATA_SECTION),
    (["distill"], DISTILL_CONFIG),
    (["select", "--strategy", "grid"], None),
], ids=["gen-data", "distill", "select"])
def test_rerun_from_the_run_directory_is_byte_identical(tmp_path, argv, text):
    # the rerun reads the run directory's copy of the config, which is the
    # file it would copy the config to
    if text is None:
        pool = write(tmp_path / "pool.json", json.dumps(MLP_POOL))
        text = SELECT_DATA + f"[grid]\npool = {pool}\n"
    run = tmp_path / "run"
    assert main([*argv, "--config", str(write(tmp_path / "c.ini", text)), "--out", str(run)]) == 0
    first = {path.name: path.read_bytes() for path in run.iterdir()}
    assert main([*argv, "--config", str(run / "config.ini"), "--out", str(run)]) == 0
    assert {path.name: path.read_bytes() for path in run.iterdir()} == first


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
def test_a_piped_config_is_kept_as_the_bytes_it_parsed(tmp_path):
    # a pipe can be read once: config.ini must be what the run parsed, and
    # it must rerun; a CRLF line and a non-ASCII comment are kept as they are
    data = ("# données bruitées\r\n" + DATA_SECTION).encode("utf-8")
    read_end, write_end = os.pipe()
    try:
        with os.fdopen(write_end, "wb") as fh:
            fh.write(data)
        run = tmp_path / "run"
        assert main(["gen-data", "--config", f"/dev/fd/{read_end}", "--out", str(run)]) == 0
    finally:
        os.close(read_end)
    first = {path.name: path.read_bytes() for path in run.iterdir()}
    assert first["config.ini"] == data
    assert main(["gen-data", "--config", str(run / "config.ini"), "--out", str(run)]) == 0
    assert {path.name: path.read_bytes() for path in run.iterdir()} == first


def run_argv(directory, argv, name, text):
    """argv with the inputs of one run: text is the config, or for evaluate
    the predictions file, written to directory under name."""
    write(directory / "pool.json", json.dumps(STUB_POOL))
    if argv[0] == "evaluate":
        return [*argv, "--predictions", str(write(directory / f"{name}.csv", text)),
                "--labels", str(write(directory / "labels.csv", "label\n0\n1\n0\n"))]
    return [*argv, "--config", str(write(directory / f"{name}.ini", text))]


DIVERGING_DISTILL = DISTILL_CONFIG.replace("learning_rate = 0.05", "learning_rate = 1e308")


# (argv, a good run's input, a bad run's input, the bad run's error line,
# with {} standing for the directory its inputs are in)
@pytest.mark.parametrize("argv, good, bad, error", [
    (["gen-data"], DATA_SECTION,
     DATA_SECTION.replace("samples = 120", "samples = 10").replace("classes = 3", "classes = 2"),
     "error: need at least 20 samples for 2 classes"),
    (["select", "--strategy", "grid"], "[grid]\npool = pool.json\n",
     "[grid]\npool = missing.json\n",
     "error: [grid] pool: {}/missing.json: cannot read: No such file or directory"),
    (["distill"], DISTILL_CONFIG, DIVERGING_DISTILL, "error: training loss became nan"),
    (["distill", "--ablation", "table11"], DISTILL_CONFIG, DIVERGING_DISTILL,
     "error: training loss became nan"),
    (["evaluate"], "pred,p0,p1\n0,0.75,0.25\n1,0.125,0.875\n1,0.5,0.5\n",
     "pred,p0,p1\n0,0.75,0.25\n1,0.125,x\n1,0.5,0.5\n",
     "error: {}/bad.csv: could not convert string 'x' to float64 at data row 2, column 3"),
], ids=["gen-data", "select", "distill", "distill-table11", "evaluate"])
def test_a_failed_run_changes_nothing(tmp_path, capsys, argv, good, bad, error):
    # a run directory records the run that wrote it: a failed run into it
    # writes no file and no config copy, and a failed first run makes no directory
    run = tmp_path / "run"
    assert main([*run_argv(tmp_path, argv, "good", good), "--out", str(run)]) == 0
    first = {path.name: path.read_bytes() for path in run.iterdir()}
    capsys.readouterr()
    for out in (run, tmp_path / "fresh"):
        assert main([*run_argv(tmp_path, argv, "bad", bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == error.format(tmp_path) + "\n"
    assert {path.name: path.read_bytes() for path in run.iterdir()} == first
    assert not (tmp_path / "fresh").exists()


def evaluate_into(directory, out, pred_text):
    return main(run_argv(directory, ["evaluate"], "preds", pred_text) + ["--out", str(out)])


def test_a_failed_write_names_its_file_and_leaves_no_temporary(tmp_path, capsys):
    # a directory in the way of one file fails before the first replace,
    # so every other file keeps the bytes of the last good run, or stays absent
    run = tmp_path / "run"
    (run / "summary.csv").mkdir(parents=True)
    errors = []
    for _ in range(2):
        assert evaluate_into(tmp_path, run, "pred\n0\n1\n1\n") == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"error: [Errno 21] Is a directory: '{run / 'summary.csv'}'\n"
    assert [path.name for path in run.iterdir()] == ["summary.csv"]
    (run / "summary.csv").rmdir()
    assert evaluate_into(tmp_path, run, "pred\n0\n1\n1\n") == 0
    good = (run / "metrics.csv").read_bytes()
    (run / "summary.csv").unlink()
    (run / "summary.csv").mkdir()
    assert evaluate_into(tmp_path, run, "pred\n0\n0\n1\n") == 2
    assert capsys.readouterr().err == errors[0]
    assert sorted(path.name for path in run.iterdir()) == ["metrics.csv", "summary.csv"]
    assert (run / "metrics.csv").read_bytes() == good and (run / "summary.csv").is_dir()


@pytest.mark.parametrize("argv, good", [
    (["gen-data"], DATA_SECTION),
    (["select", "--strategy", "grid"], "[grid]\npool = pool.json\n"),
    (["distill"], DISTILL_CONFIG),
    (["distill", "--ablation", "table11"], DISTILL_CONFIG),
    (["evaluate"], "pred,p0,p1\n0,0.75,0.25\n1,0.125,0.875\n1,0.5,0.5\n"),
], ids=["gen-data", "select", "distill", "distill-table11", "evaluate"])
def test_a_directory_in_the_way_of_any_file_replaces_none(tmp_path, capsys, argv, good):
    # whichever file of a run a directory stands in the way of, the run
    # fails naming it, and every other file keeps the bytes it had
    run = tmp_path / "run"
    argv = [*run_argv(tmp_path, argv, "good", good), "--out", str(run)]
    assert main(argv) == 0
    names = sorted(path.name for path in run.iterdir())
    capsys.readouterr()
    for name in names:
        for other in names:
            (run / other).write_bytes(b"kept\n")
        (run / name).unlink()
        (run / name).mkdir()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{run / name}'\n"
        (run / name).rmdir()
        assert {path.name: path.read_bytes() for path in run.iterdir()} == {
            other: b"kept\n" for other in names if other != name}
        (run / name).touch()

def test_a_symlink_to_a_directory_is_replaced_like_a_file(tmp_path):
    run, elsewhere = tmp_path / "run", tmp_path / "elsewhere"
    run.mkdir()
    elsewhere.mkdir()
    (run / "summary.csv").symlink_to(elsewhere)
    assert evaluate_into(tmp_path, run, "pred\n0\n1\n1\n") == 0
    assert (run / "summary.csv").is_file() and not (run / "summary.csv").is_symlink()
    assert not any(elsewhere.iterdir())


def test_a_failed_replace_keeps_every_file(tmp_path, capsys, monkeypatch):
    # the files are written to temporary names first, so a failure before
    # the first of them replaces its file leaves the old ones whole
    run = tmp_path / "run"
    assert evaluate_into(tmp_path, run, "pred\n0\n1\n1\n") == 0
    first = {path.name: path.read_bytes() for path in run.iterdir()}
    replace, calls = os.replace, []

    def failing_first(*args):
        calls.append(args)
        if len(calls) == 1:
            raise PermissionError(13, "Permission denied", *args)
        return replace(*args)

    monkeypatch.setattr(os, "replace", failing_first)
    assert evaluate_into(tmp_path, run, "pred\n0\n0\n1\n") == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 13] Permission denied: '{run / 'metrics.csv'}'\n")
    assert {path.name: path.read_bytes() for path in run.iterdir()} == first


def test_parser_options_are_the_readme_usage_options():
    # no hidden knobs: each subcommand takes exactly the options its README usage line shows
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
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


# runs each argv list of the JSON in sys.argv[1] through cli.main in one
# process, keeping its exit code and what it wrote to stderr; an exception
# that escapes main, such as a warning raised as an error, stands in for
# its exit code
CHILD_RUNNER = """\
import contextlib, io, json, locale, sys, warnings
from antdistill.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            codes.append([main(argv), err.getvalue()])
    except Exception as exc:
        codes.append([repr(exc), err.getvalue()])
with warnings.catch_warnings():  # it warns under -X warn_default_encoding
    warnings.simplefilter("ignore", EncodingWarning)
    encoding = locale.getpreferredencoding(False)
print(json.dumps([encoding, codes]))
"""


def child_env(**extra):
    """This process's environment with extra added and the package's source
    directory first on PYTHONPATH."""
    src = str(Path(antdistill.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_child(flags, env, commands):
    """(preferred encoding, one [exit code, stderr] pair per command) of
    commands run in a child Python started with flags and env added to
    this one's."""
    proc = subprocess.run([sys.executable, *flags, "-c", CHILD_RUNNER, json.dumps(commands)],
                          capture_output=True, env=child_env(**env), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    encoding, codes = json.loads(proc.stdout.decode("ascii").splitlines()[-1])
    return encoding, codes


def encoding_inputs(directory):
    """(argv lists, outcomes) of gen-data, select, distill --ablation
    table11, repro-examples and evaluate, on a clean pair and on the same
    pair with a whitespace-only line or a no-break space, with their input
    files written as UTF-8 in directory. An outcome is [0, ""], or exit 2
    with the one error line that names the input outside evaluate's rule.
    Every non-ASCII name stays out of stdout, whose encoding is the
    terminal's."""
    d = directory
    (d / "c.ini").write_bytes(
        "[data]\n; température\nsamples = 60\nclasses = 2\ndim = 3\ncomplexity = 0.0\n"
        "seed = 1\n\n[grid]\npool = pool.json\n\n[kd]\nepochs = 1\nteacher_hidden = 4\n"
        "student_hidden = 3\n".encode())
    (d / "pool.json").write_bytes(json.dumps({"candidates": [
        {"name": "modèle", "stub_score": 0.4}, {"name": "best", "stub_score": 0.9}]},
        ensure_ascii=False).encode())
    (d / "labels.csv").write_bytes(b"label\n0\n1\n")
    pairs = {"clean": ("0,0.75,0.25\n", None),
             "whitespace": ("0,0.75,0.25\n \n", "data row 2 has width 1, the header width 3"),
             "nbsp": ("0,\xa00.75,0.25\n", "byte 13 is 0xc2, outside ASCII or a separator "
                      "0x1c-0x1f")}
    commands = [["gen-data", "--config", str(d / "c.ini"), "--out", str(d / "gen")],
                ["select", "--config", str(d / "c.ini"), "--strategy", "grid",
                 "--out", str(d / "select")],
                ["distill", "--config", str(d / "c.ini"), "--ablation", "table11",
                 "--out", str(d / "distill")],
                ["repro-examples", "--out", str(d / "repro")]]
    outcomes = [[0, ""]] * len(commands)
    for name, (first_row, error) in pairs.items():
        (d / f"{name}.csv").write_bytes(f"pred,p0,p1\n{first_row}1,0.125,0.875\n".encode())
        commands.append(["evaluate", "--predictions", str(d / f"{name}.csv"),
                         "--labels", str(d / "labels.csv"), "--out", str(d / name)])
        outcomes.append([2, f"error: {d / name}.csv: {error}\n"] if error else [0, ""])
    return commands, outcomes


class TestEncoding:
    def test_non_utf8_locale_reads_and_writes_utf8(self, tmp_path):
        # in an ASCII locale, a config comment, a pool name and a no-break
        # space in an evaluate input each once ended in a decode error
        commands, outcomes = encoding_inputs(tmp_path)
        encoding, codes = run_child(
            ["-X", "utf8=0"], {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
            commands)
        if codecs.lookup(encoding).name == "utf-8":
            pytest.skip(f"the C locale's preferred encoding is {encoding} here, so the "
                        "locale's encoding and UTF-8 read the same")
        assert codes == outcomes

    def test_name_the_locale_cannot_spell_is_escaped_on_stdout(self, tmp_path):
        # select once wrote every output, then failed on printing the winner
        env = child_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        python = [sys.executable, "-X", "utf8=0"]
        encoding = subprocess.run([*python, "-c", "import sys; print(sys.stdout.encoding)"],
                                  capture_output=True, text=True, env=env, timeout=120)
        if codecs.lookup(encoding.stdout.strip()).name == "utf-8":
            pytest.skip("the C locale's stdout encoding is UTF-8 here, so it spells every name")
        write(tmp_path / "c.ini", "[data]\nsamples = 60\nclasses = 2\ndim = 3\n"
              "complexity = 0.0\nseed = 1\n\n[grid]\npool = pool.json\n")
        write(tmp_path / "pool.json", json.dumps({"candidates": [
            {"name": "modèle", "stub_score": 0.9}, {"name": "other", "stub_score": 0.4}]},
            ensure_ascii=False))
        proc = subprocess.run([*python, "-m", "antdistill.cli", "select", "--config",
                               str(tmp_path / "c.ini"), "--strategy", "grid", "--out",
                               str(tmp_path / "run")], capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        assert b"best=mod\\xe8le " in proc.stdout

    def test_no_file_is_opened_with_the_locale_encoding(self, tmp_path):
        # every command opened at least one file without an encoding
        commands, outcomes = encoding_inputs(tmp_path)
        _, codes = run_child(["-X", "warn_default_encoding", "-W", "error::EncodingWarning"],
                             {}, commands)
        assert codes == outcomes


# the gate's search, policy and training values: 0, negatives, the
# float64 extremes, a subnormal and the non-finite values beside ordinary ones
GATE_FLOATS = st.sampled_from(["0", "-1", "-1e308", "1e308", "1e-320", "nan", "inf", "-inf",
                               "0.5", "2"])
GATE_COUNTS = st.integers(1, 3)
GATE_OPTIONS = {
    "aco": {"alpha": GATE_FLOATS, "beta": GATE_FLOATS, "rho": GATE_FLOATS,
            "n_ants": GATE_COUNTS, "n_iterations": GATE_COUNTS, "seed": st.integers(0, 3),
            "pair_mode": st.booleans()},
    "pso": {"inertia": GATE_FLOATS, "c1": GATE_FLOATS, "c2": GATE_FLOATS,
            "n_particles": GATE_COUNTS, "n_iterations": GATE_COUNTS, "seed": st.integers(0, 3)},
    "random": {"n_picks": GATE_COUNTS, "seed": st.integers(0, 3)},
    "grid": {"pair_mode": st.booleans()},
}
GATE_ERRORS = (*NAMED_ERRORS, FloatingPointError, MemoryError)


def ini(sections) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for name, keys in sections.items())


@st.composite
def gate_data(draw) -> dict:
    return {"samples": draw(st.integers(30, 60)), "classes": draw(st.integers(2, 3)), "dim": 3,
            "complexity": "0.2", "noise_kind": "uniform",
            "noise_level": draw(st.sampled_from(["0", "0.3", "1"])), "seed": draw(GATE_COUNTS)}


@st.composite
def gate_select_runs(draw):
    """(config text, pool, argv tail) of a select run on a stub or a tiny MLP pool."""
    strategy = draw(st.sampled_from(sorted(GATE_OPTIONS)))
    options = draw(st.fixed_dictionaries({}, optional=GATE_OPTIONS[strategy]))
    n = draw(st.integers(2, 3))
    if draw(st.booleans()):
        pool = [{"name": f"s{i}", "stub_score": draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))}
                for i in range(n)]
    else:
        pool = [{"name": f"m{i}", "hidden_dims": draw(st.sampled_from([[2], [3, 2]])),
                 "epochs": draw(GATE_COUNTS),
                 "learning_rate": draw(st.sampled_from([0.0, 0.05, 0.5, 1e-320, 1e308]))}
                for i in range(n)]
    text = ini({"data": draw(gate_data()), strategy: {"pool": "pool.json", **options}})
    return text, pool, ["select", "--strategy", strategy]


@st.composite
def gate_distill_runs(draw):
    """(config text, None, argv tail) of a plain, table10 or table11 distill run."""
    variant = draw(st.sampled_from(sorted(POLICIES)))
    policy = draw(st.fixed_dictionaries(
        {}, optional={f.name: GATE_FLOATS for f in dataclasses.fields(POLICIES[variant])}))
    kd = draw(st.fixed_dictionaries(
        {"epochs": GATE_COUNTS, "teacher_hidden": st.just(4), "student_hidden": st.just(3)},
        optional={"t_base": GATE_FLOATS, "learning_rate": GATE_FLOATS,
                  "batch_size": st.sampled_from([1, 8, 32])}))
    text = ini({"data": draw(gate_data()), "policy": {"variant": variant, **policy}, "kd": kd})
    ablation = draw(st.sampled_from([[], ["--ablation", "table10"], ["--ablation", "table11"]]))
    return text, None, ["distill", *ablation]


class TestCliGate:
    """Any search, policy or training value ends in one of two outcomes:
    exit 0 with finite outputs, or exit 2 with one error line from a named
    error, a numeric fault or a failed allocation; never a warning."""

    def check(self, directory, text, pool, argv_tail):
        cfg = directory / "c.ini"
        cfg.write_text(text, encoding="utf-8")
        if pool is not None:
            (directory / "pool.json").write_text(json.dumps({"candidates": pool}),
                                                 encoding="utf-8")
        out = directory / "run"
        check_outcome([*argv_tail, "--config", str(cfg), "--out", str(out)], out, GATE_ERRORS)

    @settings(max_examples=200, deadline=None)
    @given(run=gate_select_runs())
    def test_select(self, tmp_path_factory, run):
        self.check(tmp_path_factory.mktemp("gate"), *run)

    @settings(max_examples=150, deadline=None)
    @given(run=gate_distill_runs())
    def test_distill(self, tmp_path_factory, run):
        self.check(tmp_path_factory.mktemp("gate"), *run)
