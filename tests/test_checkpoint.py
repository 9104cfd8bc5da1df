import json

import numpy as np
import pytest

from geognn.checkpoint import check_manifest, load_checkpoint, save_checkpoint
from geognn.errors import ConfigError, DataError
from geognn.features import FeatureConfig
from geognn.model import GeoGNN, ModelConfig, parameter_table
from geognn.rng import Rng
from geognn.training import adam_step

from conftest import edit_header


CFG = ModelConfig(num_blocks=1, hidden=4, dropout=0.0, distance_bins=5,
                  geom_head_hidden=8, down_head_hidden=8, num_tasks=2)


def test_round_trip_params_and_config(tmp_path):
    model = GeoGNN(CFG, rng=Rng(1))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.store, CFG, FeatureConfig(), extra={"epoch": 7})
    store, cfg, manifest, extra = load_checkpoint(path)
    assert cfg == CFG
    assert extra["epoch"] == 7
    assert set(store.names()) == set(model.store.names())
    for name in store.names():
        assert np.array_equal(store[name].data, model.store[name].data)
    check_manifest(FeatureConfig(), manifest, "test")  # no raise


def test_checkpoint_holds_parameters_only(tmp_path):
    model = GeoGNN(CFG, rng=Rng(2))
    for _, t in model.store.items():
        t.grad = np.ones_like(t.data) * 0.1
    adam_step(model.store, lr_body=1e-3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.store, CFG, FeatureConfig())
    header = _header(path)
    features = FeatureConfig()
    table = parameter_table(CFG, features.atom_width, features.bond_width, features.angle_width)
    assert [entry["name"] for entry in header["tensors"]] == [name for name, _, _ in table]
    assert {entry["kind"] for entry in header["tensors"]} == {"param"}
    assert "adam_step" not in header
    store, _, _, _ = load_checkpoint(path)
    for name in model.store.names():
        assert np.array_equal(store[name].data, model.store[name].data)
    assert store.step == 0
    assert store.moments == {}


def test_magic_is_checked(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(path)


@pytest.mark.parametrize("cut", ["byte20", "half", "minus8"])
def test_truncated_checkpoint_is_a_data_error(tmp_path, cut):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, GeoGNN(CFG, rng=Rng(5)).store, CFG, FeatureConfig())
    raw = path.read_bytes()
    # 20 ends inside the header; the other two cuts end inside the payload
    path.write_bytes(raw[: {"byte20": 20, "half": len(raw) // 2, "minus8": len(raw) - 8}[cut]])
    with pytest.raises(DataError, match="truncated") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_corrupt_header_is_a_data_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, GeoGNN(CFG, rng=Rng(6)).store, CFG, FeatureConfig())
    raw = bytearray(path.read_bytes())
    raw[16] = ord("[")  # the header no longer parses as JSON
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="corrupt checkpoint"):
        load_checkpoint(path)


def _header(path) -> dict:
    raw = path.read_bytes()
    return json.loads(raw[16 : 16 + int.from_bytes(raw[8:16], "little")])


@pytest.mark.parametrize("key,value", [("num_blocks", 0), ("hidden", 4.5), ("dropout", "x")])
def test_invalid_header_config_is_a_data_error(tmp_path, key, value):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, GeoGNN(CFG, rng=Rng(7)).store, CFG, FeatureConfig())
    edit_header(path, lambda header: header["model_config"].__setitem__(key, value))
    with pytest.raises(DataError, match="corrupt checkpoint"):
        load_checkpoint(path)


def _legacy_checkpoint(path, name="embed.atom.w", kinds=("adam_m", "adam_v"), **changes):
    """A checkpoint as written before checkpoints held parameters only: an
    "adam_step" header key and, for the named parameter, one entry per kind
    in kinds that points at that parameter's bytes, with changes applied."""
    model = GeoGNN(CFG, rng=Rng(9))
    save_checkpoint(path, model.store, CFG, FeatureConfig())

    def add_moments(header):
        param = next(entry for entry in header["tensors"] if entry["name"] == name)
        header["tensors"] += [{**param, "kind": kind, **changes} for kind in kinds]
        header["adam_step"] = 1

    edit_header(path, add_moments)
    return model


def test_legacy_checkpoint_with_moments_loads_its_params(tmp_path):
    path = tmp_path / "model.ckpt"
    model = _legacy_checkpoint(path)
    store, _, _, _ = load_checkpoint(path)
    assert store.names() == model.store.names()
    for name in store.names():
        assert np.array_equal(store[name].data, model.store[name].data)
    assert store.step == 0
    assert store.moments == {}


def test_unknown_tensor_kind_is_a_data_error(tmp_path):
    path = tmp_path / "model.ckpt"
    _legacy_checkpoint(path, kinds=("adam_m", "adam_x"))
    with pytest.raises(DataError, match="tensor embed.atom.w has unknown kind 'adam_x'") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_legacy_moment_out_of_bounds_is_a_data_error(tmp_path):
    path = tmp_path / "model.ckpt"
    _legacy_checkpoint(path, offset=10**9)
    with pytest.raises(DataError, match="truncated checkpoint payload at embed.atom.w") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("missing", [True, False], ids=["missing", "directory"])
def test_unreadable_path_is_a_data_error(tmp_path, missing):
    path = tmp_path / "nope.ckpt" if missing else tmp_path
    with pytest.raises(DataError, match="cannot read checkpoint") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_manifest_mismatch_refused(tmp_path):
    other = FeatureConfig(num_h_size=5)
    model = GeoGNN(CFG, features=other, rng=Rng(3))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.store, CFG, other)
    with pytest.raises(ConfigError, match="feature layout does not match this build: atom") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    model = GeoGNN(CFG, rng=Rng(4))
    save_checkpoint(tmp_path / "a.ckpt", model.store, CFG, FeatureConfig())
    save_checkpoint(tmp_path / "a.ckpt", model.store, CFG, FeatureConfig())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt"]


def test_moment_of_wrong_shape_is_a_data_error(tmp_path):
    path = tmp_path / "model.ckpt"
    shape = [CFG.hidden, FeatureConfig().bond_width]  # embed.bond.w is [bond_width, hidden]
    _legacy_checkpoint(path, name="embed.bond.w", kinds=("adam_v",), shape=shape)
    with pytest.raises(DataError, match="tensor embed.bond.w has shape") as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
