"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    bytes 0..3    magic b"GEM1"
    bytes 4..7    uint32 format version (currently 1)
    bytes 8..15   uint64 length of the JSON header
    header        UTF-8 JSON: model config, feature-layout manifest,
                  tensor directory (name, kind "param", dtype, shape,
                  offset, nbytes), free-form extra
    payload       raw tensor bytes at the directory offsets

A checkpoint holds parameters only: finetuning starts from one with a
fresh optimizer. Older files also hold Adam moments (entries of kind
"adam_m" and "adam_v"); loading checks them like parameters, then skips them.

Writes are atomic: the file is assembled under a temporary name in the
target directory and moved into place with os.replace.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .features import FeatureConfig
from .model import ModelConfig, ParamStore, parameter_table

MAGIC = b"GEM1"
FORMAT_VERSION = 1

_DTYPES = {"float32": "<f4", "float64": "<f8"}
_LEGACY_KINDS = ("adam_m", "adam_v")  # older files' Adam moments, skipped on load


def save_checkpoint(
    path: str | os.PathLike,
    store: ParamStore,
    model_config: ModelConfig,
    feature_config: FeatureConfig,
    extra: dict | None = None,
) -> None:
    tensors = []
    blobs = []
    offset = 0
    for name, tensor in store.items():
        dtype_name = str(tensor.data.dtype)
        if dtype_name not in _DTYPES:
            raise ConfigError(f"unsupported tensor dtype {dtype_name}")
        raw = np.ascontiguousarray(tensor.data.astype(_DTYPES[dtype_name])).tobytes()
        tensors.append(
            {
                "name": name,
                "kind": "param",
                "dtype": dtype_name,
                "shape": list(tensor.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        blobs.append(raw)
        offset += len(raw)

    header = {
        "format_version": FORMAT_VERSION,
        "model_config": model_config.to_dict(),
        "feature_manifest": feature_config.manifest(),
        "tensors": tensors,
        "extra": extra or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(FORMAT_VERSION.to_bytes(4, "little"))
            fh.write(len(header_bytes).to_bytes(8, "little"))
            fh.write(header_bytes)
            for raw in blobs:
                fh.write(raw)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def load_checkpoint(path: str | os.PathLike) -> tuple[ParamStore, ModelConfig, dict, dict]:
    """Returns (store, model_config, feature_manifest, extra). A file that
    cannot be read back is a DataError; one whose feature layout is not
    this build's is a ConfigError."""
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise DataError(f"{path}: cannot read checkpoint ({err.strerror})") from None
    if raw[:4] != MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    version = int.from_bytes(raw[4:8], "little")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    header_len = int.from_bytes(raw[8:16], "little")
    if len(raw) < 16 + header_len:
        raise DataError(f"{path}: truncated checkpoint header")
    payload = raw[16 + header_len :]
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
        model_config = ModelConfig.from_dict(header["model_config"])
        manifest, extra = header["feature_manifest"], header.get("extra", {})
        if not isinstance(extra, dict):
            raise DataError(f"{path}: checkpoint extra is not an object")
        # every tensor must fit the checkpoint's own model config and layout
        widths = [sum(block["width"] for block in manifest[kind])
                  for kind in ("atom", "bond", "angle")]
        shapes = {name: list(shape) for name, shape, _ in parameter_table(model_config, *widths)}
        store = ParamStore(dtype=model_config.dtype)
        for entry in header["tensors"]:
            name, start, nbytes = entry["name"], entry["offset"], entry["nbytes"]
            if shapes.get(name) != entry["shape"]:
                raise DataError(f"{path}: tensor {name} has shape {entry['shape']}; its config "
                                f"has {shapes.get(name, 'no such tensor')}")
            if start + nbytes > len(payload):
                raise DataError(f"{path}: truncated checkpoint payload at {name}")
            arr = np.frombuffer(payload[start : start + nbytes], dtype=_DTYPES[entry["dtype"]])
            arr = arr.reshape(entry["shape"]).astype(entry["dtype"])
            if entry["kind"] == "param":
                store.put(name, arr)
            elif entry["kind"] not in _LEGACY_KINDS:
                raise DataError(f"{path}: tensor {name} has unknown kind {entry['kind']!r}")
        missing = [name for name in shapes if name not in store]
    except (ConfigError, KeyError, TypeError, ValueError) as err:
        raise DataError(f"{path}: corrupt checkpoint ({type(err).__name__}: {err})") from None
    if missing:
        raise DataError(f"{path}: tensor {missing[0]} of its model config is missing")
    check_manifest(FeatureConfig(), manifest, str(path))
    return store, model_config, manifest, extra


def check_manifest(feature_config: FeatureConfig, manifest: dict, source: str) -> None:
    """ConfigError unless ``manifest`` is the feature layout of ``feature_config``."""
    expected = feature_config.manifest()
    problems = [f"{key}: expected {expected.get(key)!r}, checkpoint has {manifest.get(key)!r}"
                for key in sorted(set(expected) | set(manifest))
                if expected.get(key) != manifest.get(key)]
    if problems:
        detail = "; ".join(problems[:5])
        raise ConfigError(f"{source}: feature layout does not match this build: {detail}")
