import codecs
import json
import math
from pathlib import Path

import numpy as np
import pytest

from geognn import cli, training
from geognn.cli import main
from geognn.errors import ConfigError
from geognn.checkpoint import load_checkpoint, save_checkpoint
from geognn.features import FeatureConfig
from geognn.geometry import build_dual_graph
from geognn.model import GeoGNN, ModelConfig, ParamStore
from geognn.molio import molecule_to_json_dict, write_jsonl
from geognn.pretrain import PACK_SIZE
from geognn.rng import Rng
from geognn.synth import geometry_label, random_molecule

from conftest import (FIXTURES, edit_header, eval_overflowing_model, make_molecule,
                      overflowing_model, rename_atom_block, store_of)
from oracles import angle_count_reference


def run_cli(*argv) -> int:
    return main(list(argv))


def write_dataset(path: Path, n=10, seed=0, labelled=True, splits=True):
    rng = Rng(seed)
    mols = []
    for i in range(n):
        m = random_molecule(rng.fork(i), min_atoms=4, max_atoms=8, mol_id=f"m{i}")
        if labelled:
            m.labels = {"y": geometry_label(m)}
        if splits:
            m.split = "train" if i % 5 < 3 else ("valid" if i % 5 == 3 else "test")
        mols.append(m)
    path.write_bytes(write_jsonl(mols))
    return mols


def write_config(path: Path, dropout=0.0, **run):
    path.write_text(json.dumps({
        "model": {"num_blocks": 1, "hidden": 8, "dropout": dropout,
                  "geom_head_hidden": 8, "down_head_hidden": 8, "distance_bins": 8},
        "run": run,
    }))
    return path


class TestFeaturize:
    def test_water_summary(self, tmp_path, water):
        src = tmp_path / "in.jsonl"
        src.write_bytes(write_jsonl([water]))
        out = tmp_path / "out"
        assert run_cli("featurize", "--input", str(src), "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["molecules"] == 1
        assert summary["histograms"]["bonds"] == {"2": 1}
        assert summary["histograms"]["angles"] == {"1": 1}
        assert summary["histograms"]["atoms"] == {"3": 1}
        assert not (out / "bundle.npz").exists()

    def test_empty_input_exits_zero(self, tmp_path):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        out = tmp_path / "out"
        assert run_cli("featurize", "--input", str(src), "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["molecules"] == 0

    def test_malformed_sdf_strict_exit_2(self, tmp_path, capsys):
        bad = FIXTURES / "malformed" / "bad_counts.sdf"
        out = tmp_path / "out"
        code = run_cli("featurize", "--input", str(bad), "--out", str(out), "--strict")
        assert code == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_malformed_sdf_lenient_collects(self, tmp_path):
        bad = FIXTURES / "malformed" / "bad_counts.sdf"
        out = tmp_path / "out"
        assert run_cli("featurize", "--input", str(bad), "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["molecules"] == 0
        assert summary["parse_errors"]

    def test_sdf_input(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("featurize", "--input", str(FIXTURES / "golden.sdf"), "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["molecules"] == 3

    def test_histograms_across_packs(self, tmp_path):
        mols = [random_molecule(Rng(5).fork(i), min_atoms=1, max_atoms=12, mol_id=f"m{i}")
                for i in range(2 * PACK_SIZE + 3)]
        src = tmp_path / "in.jsonl"
        src.write_bytes(write_jsonl(mols))
        out = tmp_path / "out"
        assert run_cli("featurize", "--input", str(src), "--out", str(out)) == 0
        want = {"atoms": {}, "bonds": {}, "angles": {}}
        for m in mols:
            graph = build_dual_graph(m)
            angles = angle_count_reference(len(m.atoms), [(b.a, b.b) for b in m.bonds])
            for key, n in (("atoms", graph.num_atoms), ("bonds", graph.num_bonds),
                           ("angles", angles)):
                want[key][str(n)] = want[key].get(str(n), 0) + 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["molecules"] == len(mols)
        assert summary["histograms"] == want

    @pytest.mark.parametrize(
        "name,strict", [("in.sdf", False), ("in.sdf", True), ("in.jsonl", False)]
    )
    def test_non_utf8_input_is_a_data_error(self, tmp_path, capsys, water, name, strict):
        if name.endswith(".sdf"):
            body = (FIXTURES / "golden.sdf").read_bytes()
        else:
            body = write_jsonl([water])
        src = tmp_path / name
        src.write_bytes(b"\xff\xfe" + body)
        flags = ["--strict"] if strict else []
        code = run_cli("featurize", "--input", str(src), "--out", str(tmp_path / "o"), *flags)
        err = capsys.readouterr().err
        assert code == 2
        assert "data error: line 1: input is not UTF-8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("strict", [False, True])
    def test_bad_jsonl_line_is_skipped_unless_strict(self, tmp_path, capsys, water, strict):
        src = tmp_path / "in.jsonl"
        src.write_bytes(write_jsonl([water]) + b"{\n" + write_jsonl([water]))
        out = tmp_path / "o"
        flags = ["--strict"] if strict else []
        code = run_cli("featurize", "--input", str(src), "--out", str(out), *flags)
        if strict:
            assert code == 2
            assert "data error: line 2: invalid JSON" in capsys.readouterr().err
            assert not out.exists()
            return
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ids"] == ["water", "water"]
        assert summary["parse_errors"] == [
            "line 2: invalid JSON: Expecting property name enclosed in double quotes"
        ]

    @pytest.mark.parametrize("command,name", [
        ("featurize", "in.sdf"), ("featurize", "in.jsonl"), ("pretrain", "in.sdf")])
    def test_strict_read_exit_2_names_only_the_first_bad_record(
            self, tmp_path, capsys, monkeypatch, water, command, name):
        """Strict reads go through the strict readers, which stop at the
        first bad record: the lenient ones are never called."""
        def lenient(data):
            raise AssertionError("a strict read called a lenient reader")

        monkeypatch.setattr(cli, "parse_sdf_lenient", lenient)
        monkeypatch.setattr(cli, "parse_jsonl_lenient", lenient)
        if name.endswith(".sdf"):
            body = "".join(path.read_text() for path in (
                FIXTURES / "golden.sdf", FIXTURES / "malformed" / "bad_counts.sdf",
                FIXTURES / "malformed" / "bad_bond_type.sdf"))
            first, second = "line 41: bad atom count field 'X'", "line 52"
        else:
            good = write_jsonl([water]).decode()
            body = good + "{\n" + good + '{"id": "x"}\n'
            first, second = "line 2: invalid JSON", "line 4"
        src = tmp_path / name
        src.write_text(body)
        flags = ["--strict"] if command == "featurize" else ["--epochs", "1"]
        code = run_cli(command, "--input", str(src), "--out", str(tmp_path / "o"), *flags)
        err = capsys.readouterr().err
        assert code == 2
        assert f"data error: {first}" in err
        assert second not in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["in.jsonl", "in.txt"])
    def test_jsonl_with_byte_order_mark(self, tmp_path, water, name):
        src = tmp_path / name
        src.write_bytes(codecs.BOM_UTF8 + write_jsonl([water]))
        out = tmp_path / "o"
        assert run_cli("featurize", "--input", str(src), "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ids"] == ["water"]
        assert summary["parse_errors"] == []


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_bond_exit_2_names_the_molecule(self, tmp_path, capsys):
        mols = [random_molecule(Rng(4).fork(i), min_atoms=4, max_atoms=8, mol_id=f"m{i}")
                for i in range(3)]
        far = mols[1].bonds[0].b
        mols[1].coords[far] = (1e200, 0.0, 0.0)
        src = tmp_path / "in.jsonl"
        src.write_bytes(write_jsonl(mols))
        assert run_cli("featurize", "--input", str(src), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "data error: molecule m1: non-finite length of bond" in err
        assert "Traceback" not in err


_MODEL_SIZES = ("num_blocks", "hidden", "geom_head_hidden", "down_head_hidden", "distance_bins")


class TestUsageErrors:
    def test_missing_required_flag_exit_1(self):
        assert run_cli("featurize", "--out", "/tmp/x") == 1

    def test_unknown_command_exit_1(self):
        assert run_cli("frobnicate") == 1

    def test_missing_input_file_exit_2(self, tmp_path):
        assert run_cli("featurize", "--input", str(tmp_path / "nope.sdf"),
                       "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize(
        "key", ["grad_clip", "checkpoint_every", "fingerprint_weight", "max_distance_pairs"]
    )
    def test_unknown_run_key_exit_1(self, tmp_path, capsys, key):
        src = tmp_path / "in.jsonl"
        write_dataset(src, n=4)
        cfg = write_config(tmp_path / "cfg.json", epochs=1, **{key: 1})
        assert run_cli("pretrain", "--input", str(src), "--out", str(tmp_path / "o"),
                       "--config", str(cfg)) == 1
        assert "config error: bad run config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,run,message",
        [
            (["--tasks", "length,lenght"], {}, "unknown pretrain task 'lenght'"),
            (["--tasks", "length,lenght", "--epochs", "0"], {}, "unknown pretrain task 'lenght'"),
            ([], {"tasks": []}, "pretrain tasks must be a non-empty list"),
            (["--tasks", ""], {}, "pretrain tasks must be a non-empty list"),
            ([], {"tasks": "length"}, "pretrain tasks must be a non-empty list"),
            ([], {"tasks": {"length": 1}}, "pretrain tasks must be a non-empty list"),
        ],
        ids=["misspelled", "misspelled-zero-epochs", "empty", "empty-flag", "string", "object"],
    )
    def test_bad_pretrain_tasks_exit_1_and_write_nothing(self, tmp_path, capsys, flags, run,
                                                         message):
        src = tmp_path / "in.jsonl"
        write_dataset(src, n=4)
        cfg = write_config(tmp_path / "cfg.json", epochs=1, **run)
        out = tmp_path / "o"
        assert run_cli("pretrain", "--input", str(src), "--out", str(out),
                       "--config", str(cfg), *flags) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, flag, value", [
        ("pretrain", "--metric", "rmse"),
        ("pretrain", "--lr-head", "1"),
        ("finetune", "--tasks", "length"),
        ("finetune", "--mask-ratio", "0.2"),
    ])
    def test_run_flag_the_command_does_not_read_exit_1(self, tmp_path, capsys, command, flag,
                                                       value):
        """The command that does not take a flag reports it, with its own usage line."""
        src = tmp_path / "in.jsonl"
        write_dataset(src, n=4)
        out = tmp_path / "o"
        assert run_cli(command, "--input", str(src), "--out", str(out), "--epochs", "1",
                       flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: geognn {command} ")
        assert f"\ngeognn {command}: error: unrecognized arguments: {flag} {value}\n" in err
        assert not out.exists()

    def test_bad_config_file_exit_1(self, tmp_path):
        src = tmp_path / "in.jsonl"
        write_dataset(src, n=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run_cli("pretrain", "--input", str(src), "--out", str(tmp_path / "o"),
                       "--config", str(cfg)) == 1

    @pytest.mark.parametrize(
        "body",
        [
            json.dumps(cfg).encode()
            for cfg in (
                {"model": {"num_blocks": 1.5}},
                {"model": {"hidden": 4.5}},
                {"model": {"geom_head_hidden": 0}},
                {"model": {"down_head_hidden": 0}},
                {"model": {"fingerprint_bits": -1}},
                {"run": {"mask_ratio": True}},
                {"run": {"epochs": 1.5}},
                {"run": {"batch_size": 2.5}},
                {"run": {"lr_body": "x"}},
                {"run": {"lr_body": float("nan")}},
                {"run": {"lr_head": -1.0}},
                {"run": {"seed": "x"}},
                {"run": {"seed": -1}},
                {"model": [1]},
                {"run": [1]},
                {"model": {"dropout": 10**400}},
                {"model": {"dropout": [0.1]}},
                {"model": {"precision": ["f64"]}},
                {"run": {"lr_body": 10**400}},
                {"run": {"lr_body": [1e-3]}},
                {"run": {"lr_head": 10**400}},
                {"run": {"lr_head": [1e-3]}},
                {"run": {"mask_ratio": 10**400}},
                {"run": {"mask_ratio": [0.15]}},
                {"run": {"metric": ["rmse"]}},
                {"run": {"task_type": ["regression"]}},
                {"run": {"tasks": [["length"]]}},
                *({"model": {name: value}} for name in _MODEL_SIZES for value in (10**400, 2**40)),
            )
        ] + [b"\xff\xfe{}"],
        ids=["num_blocks-float", "hidden-float", "geom_head_hidden-0", "down_head_hidden-0",
             "fingerprint_bits-negative", "mask_ratio-bool", "epochs-float", "batch_size-float",
             "lr_body-string", "lr_body-nan", "lr_head-negative", "seed-string",
             "seed-negative", "model-list", "run-list", "dropout-huge", "dropout-list",
             "precision-list", "lr_body-huge", "lr_body-list", "lr_head-huge", "lr_head-list",
             "mask_ratio-huge", "mask_ratio-list", "metric-list", "task_type-list",
             "tasks-nested-list",
             *(f"{name}-{size}" for name in _MODEL_SIZES for size in ("10**400", "2**40")),
             "not-utf8"],
    )
    def test_bad_config_value_exit_1(self, tmp_path, capsys, body):
        src = tmp_path / "in.jsonl"
        write_dataset(src, n=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(body)
        out = tmp_path / "o"
        assert run_cli("pretrain", "--input", str(src), "--out", str(out),
                       "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "config error: " in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    @pytest.mark.parametrize("key, source", [("num_tasks", "the labels"),
                                             ("fingerprint_bits", "the fingerprints")],
                             ids=["num_tasks", "fingerprint_bits"])
    def test_data_sized_head_in_config_file_exit_1(self, tmp_path, capsys, command, key, source):
        """Each training phase sizes its heads from its data; a config file
        may set neither size, not even to the value the data would give."""
        src = tmp_path / "in.jsonl"
        write_dataset(src, n=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {key: 0}}))
        out = tmp_path / "o"
        assert run_cli(command, "--input", str(src), "--out", str(out), "--config", str(cfg),
                       "--epochs", "1") == 1
        err = capsys.readouterr().err
        assert f"config error: model.{key} is set by {source}, not by a config file" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["finetune", "evaluate", "embed"])
    @pytest.mark.parametrize("missing", [True, False], ids=["missing", "directory"])
    def test_unreadable_checkpoint_exit_2(self, tmp_path, capsys, command, missing):
        src = tmp_path / "in.jsonl"
        write_dataset(src, n=4)
        ckpt = tmp_path / "nope.ckpt" if missing else tmp_path
        assert run_cli(command, "--input", str(src), "--out", str(tmp_path / "o"),
                       "--checkpoint", str(ckpt)) == 2
        err = capsys.readouterr().err
        assert f"data error: {ckpt}: cannot read checkpoint" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,flag", [
        ("featurize", "--seed"), ("featurize", "--precision"), ("featurize", "--config"),
        ("embed", "--seed"), ("embed", "--precision"), ("embed", "--config"),
        ("evaluate", "--seed"), ("evaluate", "--precision"),
    ])
    def test_flag_the_command_does_not_read_exit_1(self, tmp_path, capsys, command, flag):
        value = {"--seed": "1", "--precision": "f32", "--config": str(tmp_path / "cfg.json")}[flag]
        checkpoint = [] if command == "featurize" else ["--checkpoint", str(tmp_path / "m.ckpt")]
        code = run_cli(command, "--input", str(tmp_path / "in.jsonl"), "--out",
                       str(tmp_path / "o"), *checkpoint, flag, value)
        assert code == 1
        assert "unrecognized arguments: " + flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["embed", "evaluate"])
    def test_checkpoint_flag_required_exit_1(self, tmp_path, capsys, command):
        src = tmp_path / "in.jsonl"
        write_dataset(src, n=2)
        code = run_cli(command, "--input", str(src), "--out", str(tmp_path / "o"))
        err = capsys.readouterr().err
        assert code == 1
        assert "the following arguments are required: --checkpoint" in err
        assert not (tmp_path / "o").exists()

    def test_evaluate_non_string_metric_exit_1(self, tmp_path, capsys):
        model_cfg = ModelConfig(num_blocks=1, hidden=4, dropout=0.0, distance_bins=5,
                                geom_head_hidden=8, down_head_hidden=8)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, GeoGNN(model_cfg, rng=Rng(1)).store, model_cfg, FeatureConfig())
        src = tmp_path / "in.jsonl"
        write_dataset(src, n=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"run": {"metric": ["rmse"]}}))
        assert run_cli("evaluate", "--input", str(src), "--out", str(tmp_path / "o"),
                       "--checkpoint", str(ckpt), "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "config error: unknown metric ['rmse']" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["featurize", "pretrain", "finetune", "evaluate", "embed"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_exit_1_before_any_work(
            self, tmp_path, capsys, monkeypatch, command, under):
        src = tmp_path / "in.jsonl"
        write_dataset(src, n=5)
        cfg = ModelConfig(num_blocks=1, hidden=4, dropout=0.0, distance_bins=5,
                          geom_head_hidden=8, down_head_hidden=8)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, GeoGNN(cfg, rng=Rng(1)).store, cfg, FeatureConfig())
        steps = []
        monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(args))
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "o" if under else taken
        flags = {"featurize": [], "pretrain": ["--epochs", "1"], "finetune": ["--epochs", "1"],
                 "evaluate": ["--checkpoint", str(ckpt), "--metric", "rmse"],
                 "embed": ["--checkpoint", str(ckpt)]}[command]
        assert run_cli(command, "--input", str(src), "--out", str(out), *flags) == 1
        err = capsys.readouterr().err
        assert f"config error: --out {out}: {taken} exists and is not a directory" in err
        assert "Traceback" not in err
        assert steps == [] and taken.read_text() == ""

    def test_directory_input_exit_2(self, tmp_path, capsys):
        assert run_cli("featurize", "--input", str(tmp_path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert f"data error: input file {tmp_path}: cannot read" in err
        assert "Traceback" not in err


def _set_formal_charge(obj):
    obj["atoms"][0]["formal_charge"] = "x"


def _set_label(obj):
    obj["labels"]["y"] = "abc"


def _set_coordinate(obj):
    obj["coords"][0][1] = "a"


def _set_atoms_scalar(obj):
    obj["atoms"] = 5


def _drop_all_atoms(obj):
    obj["atoms"], obj["bonds"], obj["coords"] = [], [], []


def _set_aromatic_string(obj):
    obj["atoms"][0]["aromatic"] = "no"


def _set_num_h_fraction(obj):
    obj["atoms"][0]["num_h"] = 2.7


def _set_bond_atom_float(obj):
    obj["bonds"][0]["a"] = float(obj["bonds"][0]["a"])


def _set_label_numeric_string(obj):
    obj["labels"]["y"] = "1.5"


def _set_label_infinity(obj):
    obj["labels"]["y"] = math.inf  # json.dumps writes it as Infinity


def _set_coordinate_numeric_string(obj):
    obj["coords"][0][1] = "1e0"


def _set_coordinate_bool(obj):
    obj["coords"][0][1] = True


def _set_fingerprint_bit_bool(obj):
    obj["fingerprint"] = [0, True]


def _set_fingerprint_empty(obj):
    # a width of 0, whatever the model's fingerprint_bits or the other molecules' bits
    obj["fingerprint"] = []


class TestMalformedInput:
    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    @pytest.mark.parametrize(
        "corrupt",
        [
            _set_formal_charge, _set_label, _set_coordinate, _set_atoms_scalar, _drop_all_atoms,
            _set_aromatic_string, _set_num_h_fraction, _set_bond_atom_float,
            _set_label_numeric_string, _set_label_infinity, _set_coordinate_numeric_string,
            _set_coordinate_bool, _set_fingerprint_bit_bool, _set_fingerprint_empty,
        ],
    )
    def test_bad_jsonl_record_is_a_data_error(self, tmp_path, capsys, command, corrupt):
        mols = write_dataset(tmp_path / "good.jsonl", n=6, seed=5)
        records = [molecule_to_json_dict(m) for m in mols]
        corrupt(records[2])
        src = tmp_path / "bad.jsonl"
        src.write_text("".join(json.dumps(r) + "\n" for r in records))
        code = run_cli(command, "--input", str(src), "--out", str(tmp_path / "o"),
                       "--epochs", "1")
        err = capsys.readouterr().err
        assert code == 2
        assert "data error: line 3:" in err
        assert "Traceback" not in err


class TestTruncatedCheckpoint:
    @pytest.mark.parametrize("cut", ["byte20", "half", "minus8"])
    def test_embed_exits_2(self, tmp_path, capsys, cut):
        cfg = ModelConfig(num_blocks=1, hidden=4, dropout=0.0, distance_bins=5,
                          geom_head_hidden=8, down_head_hidden=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, GeoGNN(cfg, rng=Rng(1)).store, cfg, FeatureConfig())
        raw = path.read_bytes()
        path.write_bytes(raw[: {"byte20": 20, "half": len(raw) // 2, "minus8": len(raw) - 8}[cut]])
        src = tmp_path / "in.jsonl"
        write_dataset(src, n=2)
        code = run_cli("embed", "--input", str(src), "--out", str(tmp_path / "o"),
                       "--checkpoint", str(path))
        err = capsys.readouterr().err
        assert code == 2
        assert f"data error: {path}" in err
        assert "Traceback" not in err


class TestOverflowingCheckpoint:
    def test_embed_exits_3(self, tmp_path, capsys):
        # the atom embedding's rows are finite, but their layer-norm variance
        # overflows; left alone, every atom row would normalise to its bias
        cfg = ModelConfig(num_blocks=1, hidden=4, dropout=0.0, distance_bins=5,
                          geom_head_hidden=8, down_head_hidden=8)
        store = GeoGNN(cfg, rng=Rng(1)).store
        store["embed.atom.w"].data[:] = 1e300
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, store, cfg, FeatureConfig())
        src = tmp_path / "in.jsonl"
        write_dataset(src, n=2)
        code = run_cli("embed", "--input", str(src), "--out", str(tmp_path / "o"),
                       "--checkpoint", str(path))
        err = capsys.readouterr().err
        assert code == 3
        assert "numerical failure: block 0: non-finite values produced by layer_norm" in err
        assert not (tmp_path / "o" / "embeddings.jsonl").exists()


def _tampered_store(store: ParamStore, tamper: str) -> tuple[ParamStore, str]:
    """A copy of ``store`` with one tensor dropped, reshaped or added, and
    that tensor's name."""
    name = {"missing": "block0.atom.mlp1.w", "reshaped": "embed.atom.w",
            "extra": "block7.atom.mlp1.w"}[tamper]
    arrays = {}
    for key, tensor in store.items():
        if key != name:
            arrays[key] = tensor.data
        elif tamper == "reshaped":
            arrays[key] = tensor.data.reshape(tensor.shape[0] // 2, -1)
    if tamper == "extra":
        arrays[name] = store["block0.atom.mlp1.w"].data
    return store_of(arrays, store.flat.dtype), name


class TestCheckpointMatchesItsConfig:
    @pytest.mark.parametrize("tamper", ["missing", "reshaped", "extra"])
    def test_tampered_tensor_is_not_saved(self, tmp_path, tamper):
        cfg = ModelConfig(num_blocks=1, hidden=4, dropout=0.0, distance_bins=5,
                          geom_head_hidden=8, down_head_hidden=8)
        store, name = _tampered_store(GeoGNN(cfg, rng=Rng(1)).store, tamper)
        with pytest.raises(ConfigError, match=f"cannot save tensor {name}: its config has"):
            save_checkpoint(tmp_path / "model.ckpt", store, cfg, FeatureConfig())
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["embed", "evaluate", "finetune"])
    def test_header_config_off_its_payload_exit_2(self, tmp_path, capsys, command):
        cfg = ModelConfig(num_blocks=1, hidden=4, dropout=0.0, distance_bins=5,
                          geom_head_hidden=8, down_head_hidden=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, GeoGNN(cfg, rng=Rng(1)).store, cfg, FeatureConfig())
        edit_header(path, lambda header: header["model_config"].__setitem__("num_blocks", 2))
        src = tmp_path / "in.jsonl"
        write_dataset(src, n=5)
        flags = {"embed": [], "evaluate": ["--metric", "rmse"], "finetune": ["--epochs", "1"]}
        code = run_cli(command, "--input", str(src), "--out", str(tmp_path / "o"),
                       "--checkpoint", str(path), *flags[command])
        err = capsys.readouterr().err
        assert code == 2
        assert f"data error: {path}: its config's parameters take " in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["embed", "evaluate", "finetune"])
    def test_foreign_feature_layout_exit_1(self, tmp_path, capsys, command):
        cfg = ModelConfig(num_blocks=1, hidden=4, dropout=0.0, distance_bins=5,
                          geom_head_hidden=8, down_head_hidden=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, GeoGNN(cfg, rng=Rng(1)).store, cfg, FeatureConfig())
        edit_header(path, rename_atom_block)
        src = tmp_path / "in.jsonl"
        write_dataset(src, n=5)
        flags = {"embed": [], "evaluate": ["--metric", "rmse"], "finetune": ["--epochs", "1"]}
        code = run_cli(command, "--input", str(src), "--out", str(tmp_path / "o"),
                       "--checkpoint", str(path), *flags[command])
        err = capsys.readouterr().err
        assert code == 1
        assert f"config error: {path}: feature layout does not match this build" in err
        assert not (tmp_path / "o").exists()


class TestEvaluateSplits:
    @pytest.mark.parametrize("count,split,code", [(6, "test", 0), (6, "train", 2), (0, "test", 2)],
                             ids=["all-test", "empty-split", "empty-input"])
    def test_split_of_all_test_tagged_input(self, tmp_path, capsys, count, split, code):
        cfg = ModelConfig(num_blocks=1, hidden=4, dropout=0.0, distance_bins=5,
                          geom_head_hidden=8, down_head_hidden=8, num_tasks=1)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, GeoGNN(cfg, rng=Rng(1)).store, cfg, FeatureConfig(),
                        extra={"task_names": ["y"]})
        mols = write_dataset(tmp_path / "in.jsonl", n=count, splits=False)
        for m in mols:
            m.split = "test"
        src = tmp_path / "tagged.jsonl"
        src.write_bytes(write_jsonl(mols))
        out = tmp_path / "o"
        assert run_cli("evaluate", "--input", str(src), "--out", str(out), "--checkpoint",
                       str(ckpt), "--metric", "rmse", "--split", split) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == 0:
            assert "test rmse: " in captured.out
            assert json.loads((out / "evaluate_report.json").read_text())["count"] == 6
        else:
            assert "data error: no molecules to evaluate" in captured.err
            assert not out.exists()


class TestMalformedCheckpointExtra:
    @pytest.mark.parametrize("key,value", [
        ("extra", None), ("extra", 5), ("extra", "x"), ("extra", True), ("extra", [1]),
        ("task_names", 5), ("task_names", True), ("task_names", [["y"]]),
        ("task_names", ["y", "z"]),
    ])
    def test_evaluate_exit_2(self, tmp_path, capsys, key, value):
        cfg = ModelConfig(num_blocks=1, hidden=4, dropout=0.0, distance_bins=5,
                          geom_head_hidden=8, down_head_hidden=8, num_tasks=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, GeoGNN(cfg, rng=Rng(1)).store, cfg, FeatureConfig(),
                        extra={"epoch": 1, "phase": "finetune", "task_names": ["y"]})

        def edit(header):
            (header if key == "extra" else header["extra"])[key] = value

        edit_header(path, edit)
        src = tmp_path / "in.jsonl"
        write_dataset(src, n=5)
        code = run_cli("evaluate", "--input", str(src), "--out", str(tmp_path / "o"),
                       "--checkpoint", str(path), "--metric", "rmse")
        err = capsys.readouterr().err
        assert code == 2
        assert f"data error: {path}: checkpoint {key} is not" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestTrainingCommands:
    def test_pretrain_finetune_evaluate_embed(self, tmp_path):
        src = tmp_path / "data.jsonl"
        write_dataset(src, n=10, seed=1)
        cfg = write_config(tmp_path / "cfg.json", epochs=2, batch_size=4)
        pre_out = tmp_path / "pre"
        assert run_cli("pretrain", "--input", str(src), "--out", str(pre_out),
                       "--config", str(cfg), "--seed", "5") == 0
        ckpts = sorted(pre_out.glob("*.ckpt"))
        assert len(ckpts) == 3  # init + 2 epochs
        assert (pre_out / "pretrain_log.json").exists()

        fine_out = tmp_path / "fine"
        assert run_cli("finetune", "--input", str(src), "--out", str(fine_out),
                       "--config", str(cfg), "--seed", "5",
                       "--checkpoint", str(ckpts[-1])) == 0
        report = json.loads((fine_out / "finetune_report.json").read_text())
        assert report["kind"] == "finetune_report"

        eval_out = tmp_path / "eval"
        assert run_cli("evaluate", "--input", str(src), "--out", str(eval_out),
                       "--checkpoint", str(fine_out / "finetune_best.ckpt"),
                       "--metric", "rmse", "--split", "test") == 0
        eval_report = json.loads((eval_out / "evaluate_report.json").read_text())
        # evaluating the selected checkpoint on the same split reproduces the
        # reported test metric exactly
        assert eval_report["value"] == report["test_metric"]

        embed_out = tmp_path / "emb"
        assert run_cli("embed", "--input", str(src), "--out", str(embed_out),
                       "--checkpoint", str(fine_out / "finetune_best.ckpt")) == 0
        lines = (embed_out / "embeddings.jsonl").read_text().splitlines()
        assert len(lines) == 10
        row = json.loads(lines[0])
        assert set(row) == {"id", "h_G"}
        assert len(row["h_G"]) == 8

    def test_finetune_two_tasks_from_pretrain_checkpoint(self, tmp_path):
        mols = write_dataset(tmp_path / "plain.jsonl", n=10, seed=2)
        for i, m in enumerate(mols):
            m.labels["z"] = float(i % 2)
        src = tmp_path / "two.jsonl"
        src.write_bytes(write_jsonl(mols))
        cfg = write_config(tmp_path / "cfg.json", epochs=2, batch_size=4)
        pre_out = tmp_path / "pre"
        assert run_cli("pretrain", "--input", str(src), "--out", str(pre_out),
                       "--config", str(cfg)) == 0
        ckpt = pre_out / "pretrain_epoch002.ckpt"
        store, _, _, _ = load_checkpoint(ckpt)
        assert not [n for n in store.names() if n.startswith("head_down.")]

        fine_out = tmp_path / "fine"
        assert run_cli("finetune", "--input", str(src), "--out", str(fine_out),
                       "--config", str(cfg), "--checkpoint", str(ckpt)) == 0
        report = json.loads((fine_out / "finetune_report.json").read_text())
        assert report["task_names"] == ["y", "z"]
        # the pretrained body's tensors, plus a downstream head for both tasks
        best, _, _, _ = load_checkpoint(fine_out / "finetune_best.ckpt")
        assert best["head_down.l3.w"].shape == (8, 2)
        assert set(store.names()) < set(best.names())

    def test_embed_permuted_molecule_matches(self, tmp_path):
        mol = random_molecule(Rng(3), min_atoms=5, max_atoms=7, mol_id="orig")
        perm = Rng(4).permutation(len(mol.atoms))
        inverse = np.argsort(perm)
        permuted = make_molecule(
            [mol.atoms[j].element for j in inverse],
            [(int(perm[b.a]), int(perm[b.b])) for b in mol.bonds],
            [mol.coords[j] for j in inverse],
            mol_id="perm",
        )
        mol.labels = {"y": 0.0}
        permuted.labels = {"y": 0.0}
        src = tmp_path / "pair.jsonl"
        src.write_bytes(write_jsonl([mol, permuted]))
        cfg = write_config(tmp_path / "cfg.json", epochs=1, batch_size=2)
        pre_out = tmp_path / "pre"
        assert run_cli("pretrain", "--input", str(src), "--out", str(pre_out),
                       "--config", str(cfg)) == 0
        ckpt = sorted(pre_out.glob("*.ckpt"))[-1]
        emb_out = tmp_path / "emb"
        assert run_cli("embed", "--input", str(src), "--out", str(emb_out),
                       "--checkpoint", str(ckpt)) == 0
        rows = [json.loads(l) for l in (emb_out / "embeddings.jsonl").read_text().splitlines()]
        a = np.array(rows[0]["h_G"])
        b = np.array(rows[1]["h_G"])
        assert np.max(np.abs(a - b)) < 1e-9

    def test_finetune_zero_epochs_exit_0(self, tmp_path, capsys):
        src = tmp_path / "data.jsonl"
        write_dataset(src, n=5, seed=6)
        out = tmp_path / "fine"
        assert run_cli("finetune", "--input", str(src), "--out", str(out),
                       "--config", str(write_config(tmp_path / "cfg.json")),
                       "--epochs", "0", "--metric", "rmse") == 0
        assert "best epoch 0 (valid rmse none); test rmse " in capsys.readouterr().out
        report = json.loads((out / "finetune_report.json").read_text())
        assert report["selected_epoch"] == 0
        assert report["valid_metric"] is None
        assert math.isfinite(report["test_metric"])

    def test_wrong_metric_for_labels_exit_1(self, tmp_path):
        src = tmp_path / "data.jsonl"
        write_dataset(src, n=8, seed=2)
        out = tmp_path / "o"
        code = run_cli("finetune", "--input", str(src), "--out", str(out),
                       "--metric", "rocauc", "--epochs", "1")
        # regression labels are not binary -> config error via the rocauc guard
        assert code == 1

    def test_structural_conflict_with_checkpoint_exit_1(self, tmp_path, capsys):
        src = tmp_path / "data.jsonl"
        write_dataset(src, n=6, seed=3)
        cfg = write_config(tmp_path / "cfg.json", epochs=1, batch_size=4)
        pre_out = tmp_path / "pre"
        assert run_cli("pretrain", "--input", str(src), "--out", str(pre_out),
                       "--config", str(cfg)) == 0
        ckpt = sorted(pre_out.glob("*.ckpt"))[-1]
        bad_cfg = tmp_path / "bad.json"
        # a different value of a checkpoint key, and a key no model config has
        for model in ({"hidden": 16}, {"hiden": 8}):
            bad_cfg.write_text(json.dumps({"model": model}))
            code = run_cli("finetune", "--input", str(src), "--out", str(tmp_path / "o"),
                           "--config", str(bad_cfg), "--checkpoint", str(ckpt),
                           "--epochs", "1")
            assert code == 1
            assert "config error: " in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["hidden", "num_blocks", "distance_bins", "geom_head_hidden"])
    def test_config_that_the_checkpoint_does_not_fit_exit_1(self, tmp_path, capsys, base_runs,
                                                             key):
        base, _ = base_runs
        sizes = json.loads((base / "base.json").read_text())["model"]
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"model": {**sizes, key: sizes[key] + 1}}))
        out = tmp_path / "o"
        assert run_cli("finetune", "--input", str(base / "data.jsonl"), "--out", str(out),
                       "--config", str(other), "--epochs", "1",
                       "--checkpoint", str(base / "pretrain" / "pretrain_epoch001.ckpt")) == 1
        assert "config error: " in capsys.readouterr().err
        assert not out.exists()

    def test_finetune_draws_a_head_of_its_own_width_on_a_pretraining_checkpoint(
            self, tmp_path, base_runs):
        """A pretraining checkpoint has no downstream head, so it does not
        fix that head's width."""
        base, _ = base_runs
        sizes = json.loads((base / "base.json").read_text())["model"]
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"model": {**sizes, "down_head_hidden": 16}}))
        out = tmp_path / "fine"
        assert run_cli("finetune", "--input", str(base / "data.jsonl"), "--out", str(out),
                       "--config", str(wide), "--epochs", "1",
                       "--checkpoint", str(base / "pretrain" / "pretrain_epoch001.ckpt")) == 0
        store, saved, _, _ = load_checkpoint(out / "finetune_best.ckpt")
        assert sizes["down_head_hidden"] == 8 and saved.down_head_hidden == 16
        assert store["head_down.l1.w"].shape == (sizes["hidden"], 16)
        assert store["head_down.l2.w"].shape == (16, 16)

    def test_determinism_of_reports(self, tmp_path):
        src = tmp_path / "data.jsonl"
        write_dataset(src, n=8, seed=4)
        cfg = write_config(tmp_path / "cfg.json", dropout=0.2, epochs=2, batch_size=4)
        reports = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run_cli("finetune", "--input", str(src), "--out", str(out),
                           "--config", str(cfg), "--seed", "11") == 0
            reports.append((out / "finetune_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_finetune_drops_unlabelled_training_molecules(self, tmp_path, caplog):
        # --batch 1 puts the unlabelled molecule in a batch of its own
        mols = write_dataset(tmp_path / "unused.jsonl", n=6, seed=9)
        mols[0].labels = {"y": None}
        src = tmp_path / "data.jsonl"
        src.write_bytes(write_jsonl(mols))
        cfg = write_config(tmp_path / "cfg.json", epochs=2, batch_size=1)
        out = tmp_path / "fine"
        assert run_cli("finetune", "--input", str(src), "--out", str(out),
                       "--config", str(cfg)) == 0
        assert "dropped 1 training molecules with no labels" in caplog.text
        report = json.loads((out / "finetune_report.json").read_text())
        assert all(math.isfinite(e["train_loss"]) for e in report["epochs"])

    def test_pretrain_fingerprint_task(self, tmp_path):
        mols = write_dataset(tmp_path / "unused.jsonl", n=6, seed=6)
        for i, m in enumerate(mols):
            m.fingerprint = [(i >> k) & 1 for k in range(6)]
        src = tmp_path / "fp.jsonl"
        src.write_bytes(write_jsonl(mols))
        cfg = write_config(tmp_path / "cfg.json", epochs=1, batch_size=4)
        out = tmp_path / "pre"
        assert run_cli("pretrain", "--input", str(src), "--out", str(out), "--config", str(cfg),
                       "--tasks", "length,fingerprint") == 0
        history = json.loads((out / "pretrain_log.json").read_text())["history"]
        assert "fingerprint" in history[0]
        assert math.isfinite(history[0]["fingerprint"])

    def test_pretrain_mixed_fingerprint_widths_exit_2(self, tmp_path, capsys):
        mols = write_dataset(tmp_path / "unused.jsonl", n=4, seed=7)
        for i, m in enumerate(mols):
            m.fingerprint = [1] * (6 if i else 5)
        src = tmp_path / "fp.jsonl"
        src.write_bytes(write_jsonl(mols))
        code = run_cli("pretrain", "--input", str(src), "--out", str(tmp_path / "o"),
                       "--tasks", "length,fingerprint", "--epochs", "1")
        assert code == 2
        assert "inconsistent fingerprint widths" in capsys.readouterr().err

    def test_f32_pretrain_finetune_embed(self, tmp_path):
        src = tmp_path / "data.jsonl"
        write_dataset(src, n=10, seed=8)
        cfg = write_config(tmp_path / "cfg.json", dropout=0.2, epochs=1, batch_size=4)
        pre_out, fine_out, emb_out = tmp_path / "pre", tmp_path / "fine", tmp_path / "emb"
        assert run_cli("pretrain", "--input", str(src), "--out", str(pre_out),
                       "--config", str(cfg), "--precision", "f32") == 0
        ckpt = sorted(pre_out.glob("*.ckpt"))[-1]
        assert run_cli("finetune", "--input", str(src), "--out", str(fine_out),
                       "--config", str(cfg), "--precision", "f32",
                       "--checkpoint", str(ckpt)) == 0
        best = fine_out / "finetune_best.ckpt"
        assert run_cli("embed", "--input", str(src), "--out", str(emb_out),
                       "--checkpoint", str(best)) == 0
        for path in (ckpt, best):
            store = load_checkpoint(path)[0]
            assert {str(t.data.dtype) for _, t in store.items()} == {"float32"}
        history = json.loads((pre_out / "pretrain_log.json").read_text())["history"]
        report = json.loads((fine_out / "finetune_report.json").read_text())
        losses = [history[0]["loss"], report["epochs"][0]["train_loss"], report["test_metric"]]
        assert all(math.isfinite(x) for x in losses)
        rows = [json.loads(l) for l in (emb_out / "embeddings.jsonl").read_text().splitlines()]
        assert len(rows) == 10
        assert np.all(np.isfinite([row["h_G"] for row in rows]))

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_failed_step_names_its_epoch_and_batch_exit_3(self, tmp_path, capsys, monkeypatch,
                                                          command):
        monkeypatch.setattr(training, "GeoGNN", overflowing_model)
        src = tmp_path / "data.jsonl"
        write_dataset(src, n=6, seed=4)
        assert run_cli(command, "--input", str(src), "--out", str(tmp_path / "o"),
                       "--config", str(write_config(tmp_path / "cfg.json", epochs=2))) == 3
        assert "numerical failure: epoch 1, batch 1: block 0: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, epochs, prefix", [
        ("pretrain", "1", "epoch 1, eval"),   # the held-out loss
        ("finetune", "1", "epoch 1, eval"),   # the train and valid metrics
        ("finetune", "0", "test"),            # the selected epoch's test metric
    ])
    def test_failed_eval_pass_names_its_epoch_exit_3(self, tmp_path, capsys, monkeypatch,
                                                     command, epochs, prefix):
        monkeypatch.setattr(training, "GeoGNN", eval_overflowing_model)
        src = tmp_path / "data.jsonl"
        write_dataset(src, n=6, seed=4)
        assert run_cli(command, "--input", str(src), "--out", str(tmp_path / "o"),
                       "--config", str(write_config(tmp_path / "cfg.json")),
                       "--epochs", epochs) == 3
        assert f"numerical failure: {prefix}: block 0: " in capsys.readouterr().err


# a value of each training flag that differs from the base run's; a callable
# takes the directory of the base runs
_FLAG_VALUES = {
    "--config": lambda base: str(write_config(base / "other.json", dropout=0.1, epochs=1,
                                              batch_size=2)),
    "--precision": "f32",
    "--seed": "5",
    "--epochs": "2",
    "--batch": "3",
    "--lr-body": "0.01",
    "--lr-head": "0.01",
    "--mask-ratio": "0.5",
    "--tasks": "length",
    "--metric": "mae",
    "--checkpoint": lambda base: str(base / "pretrain" / "pretrain_epoch001.ckpt"),
}


def _training_flags() -> list[tuple[str, str]]:
    """(command, flag) of every optional flag of the training commands, as
    ``build_parser`` defines them."""
    commands = cli.build_parser().commands
    return [(command, action.option_strings[0]) for command in ("pretrain", "finetune")
            for action in commands[command]._actions
            if action.option_strings and not action.required and action.dest != "help"]


def _numbers(obj) -> list:
    """Every number in a JSON value, in key order."""
    if isinstance(obj, dict):
        return [x for key in sorted(obj) for x in _numbers(obj[key])]
    if isinstance(obj, list):
        return [x for item in obj for x in _numbers(item)]
    return [obj] if isinstance(obj, (int, float)) and not isinstance(obj, bool) else []


def _computed(out: Path) -> dict:
    """What a training run computed: each checkpoint's parameters, and each
    report's numbers outside its echo of the config and seed."""
    found = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".ckpt":
            found[path.name] = load_checkpoint(path)[0].flat.tobytes()
        else:
            report = json.loads(path.read_text())
            found[path.name] = _numbers({k: v for k, v in report.items()
                                         if k not in ("config", "seed")})
    return found


def _training_run(base: Path, command: str, out: Path, *flags: str) -> dict:
    argv = [command, "--input", str(base / "data.jsonl"), "--out", str(out), *flags]
    if "--config" not in flags:
        argv += ["--config", str(base / "base.json")]
    assert run_cli(*argv) == 0
    return _computed(out)


@pytest.fixture(scope="module")
def base_runs(tmp_path_factory):
    """A small dataset, a base config, and each training command's run with it."""
    base = tmp_path_factory.mktemp("flags")
    write_dataset(base / "data.jsonl", n=6, seed=8)
    write_config(base / "base.json", epochs=1, batch_size=2)
    return base, {command: _training_run(base, command, base / command)
                  for command in ("pretrain", "finetune")}


@pytest.mark.parametrize("command, flag", _training_flags())
def test_every_training_flag_is_read(tmp_path, base_runs, command, flag):
    """A training command's flag changes what the command computes."""
    if flag not in _FLAG_VALUES:
        pytest.fail(f"add a value of {flag} that differs from the base run's to _FLAG_VALUES")
    base, computed = base_runs
    value = _FLAG_VALUES[flag]
    value = value(base) if callable(value) else value
    assert _training_run(base, command, tmp_path / "o", flag, value) != computed[command], \
        f"{command} {flag} {value} changed nothing the command computes"


def test_each_record_holds_the_settings_its_phase_reads(base_runs):
    base, _ = base_runs
    log = json.loads((base / "pretrain" / "pretrain_log.json").read_text())
    report = json.loads((base / "finetune" / "finetune_report.json").read_text())
    assert sorted(log["config"]) == sorted(
        ["epochs", "batch_size", "lr_body", "seed", "tasks", "mask_ratio"])
    assert sorted(report["config"]["run"]) == sorted(
        ["epochs", "batch_size", "lr_body", "lr_head", "seed", "metric", "task_type"])
