import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geognn.checkpoint import check_manifest, load_checkpoint, save_checkpoint
from geognn.cli import main
from geognn.errors import ConfigError, DataError, GeoGnnError
from geognn.features import FeatureConfig
from geognn.model import GeoGNN, ModelConfig, parameter_table
from geognn.molio import write_jsonl
from geognn.rng import Rng
from geognn.synth import random_molecule
from geognn.training import adam_step

from conftest import edit_header, rename_atom_block
from oracles import checkpoint_bytes_reference


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
    assert store.moments is None


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("fingerprint_bits, num_tasks", [(0, 0), (3, 0), (0, 2), (3, 2)])
def test_file_is_the_per_tensor_layout(tmp_path, precision, fingerprint_bits, num_tasks):
    cfg = ModelConfig(num_blocks=2, hidden=4, dropout=0.0, distance_bins=5, geom_head_hidden=8,
                      down_head_hidden=8, fingerprint_bits=fingerprint_bits, num_tasks=num_tasks,
                      precision=precision)
    store = GeoGNN(cfg, rng=Rng(12)).store
    extra = {"epoch": 3, "phase": "test"}
    expected = checkpoint_bytes_reference(store, cfg, FeatureConfig(), extra)
    save_checkpoint(tmp_path / "fresh.ckpt", store, cfg, FeatureConfig(), extra=extra)
    assert (tmp_path / "fresh.ckpt").read_bytes() == expected
    for i, (_, t) in enumerate(store.items()):
        t.grad = np.full(t.shape, 0.1 * (i % 3), dtype=t.dtype)
    adam_step(store, lr_body=1e-3, lr_head=1e-2)
    save_checkpoint(tmp_path / "stepped.ckpt", store, cfg, FeatureConfig(), extra=extra)
    expected = checkpoint_bytes_reference(store, cfg, FeatureConfig(), extra)
    assert (tmp_path / "stepped.ckpt").read_bytes() == expected


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


def test_corrupt_num_blocks_reads_no_more_of_its_table_than_the_file_holds(tmp_path,
                                                                           monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, GeoGNN(CFG, rng=Rng(8)).store, CFG, FeatureConfig())
    edit_header(path, lambda header: header["model_config"].__setitem__("num_blocks", 10**4))
    read = []

    def counted(*args):
        for row in parameter_table(*args):
            read.append(row)
            yield row

    monkeypatch.setattr("geognn.checkpoint.parameter_table", counted)
    with pytest.raises(DataError, match="tensor head_length.l1.w has shape"):
        load_checkpoint(path)
    assert len(read) <= len(_header(path)["tensors"]) + 1


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
    assert store.moments is None


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
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, GeoGNN(CFG, rng=Rng(3)).store, CFG, FeatureConfig())
    edit_header(path, rename_atom_block)
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


# --- mutated bytes ----------------------------------------------------------------

# spans a splice can lay over the file: JSON punctuation and literals
_PUNCTUATION = [b"{", b"}", b"[", b"]", b":", b",", b'"', b"\\", b"-", b".", b"e", b"0", b"9",
                b"null", b"true", b"[]", b"{}", b" "]

# one edit at a position of the header (bytes 0 to the header's end) or of
# the payload: truncate there, replace the byte, copy ``width`` bytes from
# elsewhere in the file over it, or lay JSON punctuation over ``width`` bytes
_EDIT = st.tuples(
    st.sampled_from(["truncate", "replace", "copy", "punctuate"]),
    st.sampled_from(["header", "payload"]),
    st.integers(0, 2**16),
    st.integers(0, 2**16),
    st.integers(0, 255),
    st.sampled_from(_PUNCTUATION),
    st.integers(0, 8),
)


def _mutate(raw: bytes, header_end: int, edits) -> bytes:
    data = bytearray(raw)
    for kind, region, at, source, byte, span, width in edits:
        if not data:
            break
        lo, hi = (0, header_end) if region == "header" else (header_end, len(data))
        if hi <= lo or hi > len(data):
            lo, hi = 0, len(data)
        pos = lo + at % (hi - lo)
        if kind == "truncate":
            del data[pos:]
        elif kind == "replace":
            data[pos] = byte
        elif kind == "copy":
            start = source % len(data)
            data[pos : pos + width] = data[start : start + width]
        else:
            data[pos : pos + width] = span
    return bytes(data)


@pytest.fixture(scope="module")
def mutation_seed(tmp_path_factory):
    """A one-task checkpoint, its bytes and header end, and a labelled input."""
    root = tmp_path_factory.mktemp("mutants")
    cfg = ModelConfig(num_blocks=1, hidden=4, dropout=0.0, distance_bins=5,
                      geom_head_hidden=8, down_head_hidden=8, num_tasks=1)
    save_checkpoint(root / "seed.ckpt", GeoGNN(cfg, rng=Rng(12)).store, cfg, FeatureConfig(),
                    extra={"epoch": 1, "phase": "finetune", "task_names": ["y"]})
    mols = [random_molecule(Rng(13).fork(i), min_atoms=3, max_atoms=6, mol_id=f"m{i}")
            for i in range(2)]
    for i, mol in enumerate(mols):
        mol.labels = {"y": float(i)}
    (root / "in.jsonl").write_bytes(write_jsonl(mols))
    raw = (root / "seed.ckpt").read_bytes()
    return root, raw, 16 + int.from_bytes(raw[8:16], "little")


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(_EDIT, min_size=1, max_size=3))
def test_mutated_checkpoint_fails_only_as_geognn_error(mutation_seed, edits):
    """Truncations, byte flips, copied spans and JSON punctuation: loading
    raises nothing but a GeoGnnError, and embed and evaluate exit with a
    documented code. A flipped payload byte can make a weight huge, whose
    overflow is a numerical failure (exit 3), not a warning to stop at."""
    root, raw, header_end = mutation_seed
    path = root / "mutant.ckpt"
    path.write_bytes(_mutate(raw, header_end, edits))
    try:
        load_checkpoint(path)
    except GeoGnnError:
        pass
    for command, flags in (("embed", []), ("evaluate", ["--metric", "rmse"])):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([command, "--input", str(root / "in.jsonl"), "--out", str(root / "out"),
                         "--checkpoint", str(path), *flags])
        assert code in (0, 1, 2, 3)
