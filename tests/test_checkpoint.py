import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geognn.checkpoint import check_manifest, load_checkpoint, save_checkpoint
from geognn.cli import main
from geognn.errors import ConfigError, DataError, GeoGnnError
from geognn.features import FeatureConfig
from geognn.model import GeoGNN, ModelConfig, parameter_count, parameter_table
from geognn.molio import write_jsonl
from geognn.rng import Rng
from geognn.synth import random_molecule
from geognn.training import adam_step

from conftest import edit_header, rename_atom_block, store_of
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
    # the loaded tensors are views of one buffer, the store's ``flat``
    buffer = store["embed.atom.w"].data.base
    assert buffer is not None and buffer.size == sum(t.size for _, t in store.items())
    assert all(np.shares_memory(t.data, buffer) for _, t in store.items())
    assert store.flat is buffer


def test_store_of_another_precision_is_not_saved(tmp_path):
    store = GeoGNN(ModelConfig(**{**CFG.to_dict(), "precision": "f32"}), rng=Rng(1)).store
    with pytest.raises(ConfigError, match="cannot save float32 parameters as f64"):
        save_checkpoint(tmp_path / "model.ckpt", store, CFG, FeatureConfig())
    assert not any(tmp_path.iterdir())


def test_checkpoint_holds_parameters_only(tmp_path):
    model = GeoGNN(CFG, rng=Rng(2))
    for _, t in model.store.items():
        t.grad = np.ones_like(t.data) * 0.1
    adam_step(model.store, lr_body=1e-3, lr_head=1e-3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.store, CFG, FeatureConfig())
    assert set(_header(path)) == {"format_version", "model_config", "feature_manifest",
                                  "payload_nbytes", "payload_crc32", "extra"}
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
    # save -> load -> save: the same parameters, bit for bit, and the same bytes
    loaded, loaded_cfg, _, loaded_extra = load_checkpoint(tmp_path / "stepped.ckpt")
    assert loaded.shapes() == store.shapes()
    assert loaded.flat.tobytes() == store.flat.tobytes()
    save_checkpoint(tmp_path / "again.ckpt", loaded, loaded_cfg, FeatureConfig(),
                    extra=loaded_extra)
    assert (tmp_path / "again.ckpt").read_bytes() == expected


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


@pytest.mark.parametrize("version", [1, 2, 3, 5])
def test_other_version_is_a_data_error(tmp_path, capsys, version):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, GeoGNN(CFG, rng=Rng(15)).store, CFG, FeatureConfig())
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + version.to_bytes(4, "little") + raw[8:])
    message = f"unsupported checkpoint version {version}; this build reads version 4 only"
    with pytest.raises(DataError, match=message) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    assert _embed(tmp_path, path) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["finetune", "embed"])
def test_version_3_file_exits_2_by_its_version(tmp_path, capsys, command):
    """A file as format 3 wrote it: the same container, but the first layers
    of the length, angle and distance heads 2h, 3h and 2h rows wide. Its
    version, not its payload's size, is what refuses it."""
    h = CFG.hidden
    wider = {"head_length.l1.w": 2 * h, "head_angle.l1.w": 3 * h, "head_distance.l1.w": 2 * h}
    table = [(name, (wider.get(name, shape[0]), *shape[1:]))
             for name, shape, _ in parameter_table(CFG)]
    store = store_of({name: np.ones(shape) for name, shape in table})
    assert store.flat.size == parameter_count(CFG) + 3 * h * CFG.geom_head_hidden
    path = tmp_path / "v3.ckpt"
    path.write_bytes(checkpoint_bytes_reference(store, CFG, FeatureConfig(), version=3))
    mol = random_molecule(Rng(17), min_atoms=3, max_atoms=5, mol_id="m0")
    mol.labels, mol.split = {"y": 1.0}, "train"
    (tmp_path / "in.jsonl").write_bytes(write_jsonl([mol]))
    code = main([command, "--input", str(tmp_path / "in.jsonl"), "--out", str(tmp_path / "out"),
                 "--checkpoint", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "unsupported checkpoint version 3; this build reads version 4 only" in err
    assert "Traceback" not in err


def _edit_payload(path, edit: str) -> None:
    """One edit of the payload, or of the header's length or checksum of it."""
    raw = bytearray(path.read_bytes())
    end = 16 + int.from_bytes(raw[8:16], "little")
    if edit == "flip":
        raw[(end + len(raw)) // 2] ^= 0x10
    elif edit == "append":
        raw += b"\x00"
    elif edit == "drop":
        del raw[-1]
    path.write_bytes(bytes(raw))
    if edit.startswith("header"):
        key = {"header length": "payload_nbytes", "header crc": "payload_crc32"}[edit]
        edit_header(path, lambda header: header.__setitem__(key, header[key] + 1))


@pytest.mark.parametrize("edit,message", [
    ("flip", "payload has crc32"),
    ("append", "payload is"),
    ("drop", "truncated checkpoint payload"),
    ("header length", "truncated checkpoint payload"),
    ("header crc", "payload has crc32"),
])
def test_payload_off_its_header_is_a_data_error(tmp_path, capsys, edit, message):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, GeoGNN(CFG, rng=Rng(16)).store, CFG, FeatureConfig())
    _edit_payload(path, edit)
    with pytest.raises(DataError, match=message) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    assert _embed(tmp_path, path) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _embed(tmp_path, path) -> int:
    """The exit code of ``embed`` from the checkpoint at ``path`` on one molecule."""
    mol = random_molecule(Rng(17), min_atoms=3, max_atoms=5, mol_id="m0")
    (tmp_path / "in.jsonl").write_bytes(write_jsonl([mol]))
    return main(["embed", "--input", str(tmp_path / "in.jsonl"), "--out", str(tmp_path / "out"),
                 "--checkpoint", str(path)])


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


@pytest.mark.parametrize("value", [None, 5, "x", [1]])
def test_manifest_not_an_object_is_a_data_error(tmp_path, value):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, GeoGNN(CFG, rng=Rng(7)).store, CFG, FeatureConfig())
    edit_header(path, lambda header: header.__setitem__("feature_manifest", value))
    with pytest.raises(DataError, match="checkpoint feature_manifest is not an object"):
        load_checkpoint(path)


@pytest.mark.parametrize("names", [5, "yz", ["y"], ["y", 2], ["y", "z", "w"]])
def test_task_names_off_the_config_is_a_data_error(tmp_path, capsys, names):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, GeoGNN(CFG, rng=Rng(7)).store, CFG, FeatureConfig(),
                    extra={"task_names": ["y", "z"]})
    edit_header(path, lambda header: header["extra"].__setitem__("task_names", names))
    message = "checkpoint task_names is not a list of 2 strings"
    with pytest.raises(DataError, match=message):
        load_checkpoint(path)
    assert _embed(tmp_path, path) == 2
    assert message in capsys.readouterr().err


def test_corrupt_num_blocks_reads_none_of_its_table(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, GeoGNN(CFG, rng=Rng(8)).store, CFG, FeatureConfig())
    edit_header(path, lambda header: header["model_config"].__setitem__("num_blocks", 10**4))
    read = []

    def counted(*args):
        for row in parameter_table(*args):
            read.append(row)
            yield row

    monkeypatch.setattr("geognn.checkpoint.parameter_table", counted)
    with pytest.raises(DataError, match="its config's parameters take"):
        load_checkpoint(path)
    assert read == []


# each field of the config that fixes the payload's layout, over CFG's values
# (down_head_hidden counts as CFG has tasks); num_tasks also from 0 tasks
_LAYOUT_EDITS = [("num_blocks", {}), ("hidden", {}), ("distance_bins", {}),
                 ("geom_head_hidden", {}), ("down_head_hidden", {}), ("fingerprint_bits", {}),
                 ("num_tasks", {}), ("num_tasks", {"num_tasks": 0}), ("precision", {})]


@pytest.mark.parametrize("key,base", _LAYOUT_EDITS,
                         ids=[key + ("-from-0" if base.get("num_tasks") == 0 else "")
                              for key, base in _LAYOUT_EDITS])
@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_header_config_off_the_payload_size_is_a_data_error(tmp_path, capsys, key, base,
                                                            precision):
    cfg = ModelConfig(**{**CFG.to_dict(), **base, "precision": precision})
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, GeoGNN(cfg, rng=Rng(10)).store, cfg, FeatureConfig())
    swapped = {"f64": "f32", "f32": "f64"}[precision]
    edited = {**cfg.to_dict(), key: swapped if key == "precision" else getattr(cfg, key) + 1}
    edit_header(path, lambda header: header.__setitem__("model_config", edited))
    sizes = [parameter_count(c) * np.dtype(c.dtype).itemsize
             for c in (ModelConfig(**edited), cfg)]
    assert sizes[0] != sizes[1]
    message = f"its config's parameters take {sizes[0]} bytes; its payload holds {sizes[1]}"
    with pytest.raises(DataError, match=message) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
    assert _embed(tmp_path, path) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_header_dropout_edit_still_loads(tmp_path):
    model = GeoGNN(CFG, rng=Rng(11))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.store, CFG, FeatureConfig())
    edit_header(path, lambda header: header["model_config"].__setitem__("dropout", 0.5))
    store, cfg, _, _ = load_checkpoint(path)
    assert cfg == ModelConfig(**{**CFG.to_dict(), "dropout": 0.5})
    assert store.flat.tobytes() == model.store.flat.tobytes()


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
    documented code. A file whose header is intact but whose payload changed
    fails its payload's length or checksum: a DataError, exit 2."""
    root, raw, header_end = mutation_seed
    path = root / "mutant.ckpt"
    mutant = _mutate(raw, header_end, edits)
    payload_only = mutant != raw and mutant[:header_end] == raw[:header_end]
    path.write_bytes(mutant)
    try:
        load_checkpoint(path)
    except GeoGnnError as err:
        assert isinstance(err, DataError) or not payload_only
    else:
        assert not payload_only
    for command, flags in (("embed", []), ("evaluate", ["--metric", "rmse"])):
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([command, "--input", str(root / "in.jsonl"), "--out", str(root / "out"),
                         "--checkpoint", str(path), *flags])
        assert code == 2 if payload_only else code in (0, 1, 2, 3)
