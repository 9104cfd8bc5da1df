"""Versioned binary checkpoint container.

Layout (all integers little-endian):

    bytes 0..3    magic b"GEM1"
    bytes 4..7    uint32 format version (currently 2)
    bytes 8..15   uint64 length of the JSON header
    header        UTF-8 JSON: model config, feature-layout manifest,
                  tensor directory, payload length and checksum,
                  free-form extra
    payload       the store's parameter buffer (``ParamStore.flat``)

The header's ``payload_nbytes`` is the payload's length and
``payload_crc32`` its ``zlib.crc32``; a payload of another length or
checksum is a DataError. Version 1 files have neither key and still load,
their payload unchecked.

The directory follows one rule, ``tensor_directory``, when written and when
read: an entry (name, kind "param", dtype, shape, offset, nbytes) per
parameter in store order, each starting where the one before ends (the first
at 0), ``size * itemsize`` bytes long, in the dtype of the config's precision.

A checkpoint holds parameters only: finetuning starts from one with a
fresh optimizer, and a loaded store has no moments (``moments`` is None)
until its first step. Older files also hold Adam moments (entries of kind
"adam_m" and "adam_v"); loading checks their shape and bounds, then skips them.

Writes are atomic: the file is assembled under a temporary name in the
target directory and moved into place with os.replace.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import zlib
from itertools import islice, zip_longest
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .features import FeatureConfig
from .model import ModelConfig, ParamStore, parameter_table

MAGIC = b"GEM1"
FORMAT_VERSION = 2


def tensor_directory(table: list[tuple[str, tuple[int, ...]]], dtype) -> list[dict]:
    """The directory of the parameters (name, shape) of ``table`` in ``dtype``."""
    dtype, entries, offset = np.dtype(dtype), [], 0
    for name, shape in table:
        nbytes = math.prod(shape) * dtype.itemsize
        entries.append({"name": name, "kind": "param", "dtype": dtype.name,
                        "shape": list(shape), "offset": offset, "nbytes": nbytes})
        offset += nbytes
    return entries


def save_checkpoint(
    path: str | os.PathLike,
    store: ParamStore,
    model_config: ModelConfig,
    feature_config: FeatureConfig,
    extra: dict | None = None,
) -> None:
    """Write ``store`` atomically; a ConfigError if its dtype is not the config's."""
    flat = store.flat
    if flat.dtype != model_config.dtype:
        raise ConfigError(f"cannot save {flat.dtype} parameters as {model_config.precision}")
    payload = flat.astype(flat.dtype.newbyteorder("<"), copy=False)
    header = {
        "format_version": FORMAT_VERSION,
        "model_config": model_config.to_dict(),
        "feature_manifest": feature_config.manifest(),
        "tensors": tensor_directory(store.shapes(), flat.dtype),
        "payload_nbytes": payload.nbytes,
        "payload_crc32": zlib.crc32(payload),
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
            fh.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def load_checkpoint(path: str | os.PathLike) -> tuple[ParamStore, ModelConfig, dict, dict]:
    """Returns (store, model_config, feature_manifest, extra). A file that
    cannot be read back, whose payload is not the length or checksum its
    header gives, or whose directory breaks the layout rule, is a DataError;
    one whose feature layout is not this build's is a ConfigError."""
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise DataError(f"{path}: cannot read checkpoint ({err.strerror})") from None
    if raw[:4] != MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    version = int.from_bytes(raw[4:8], "little")
    if version not in (1, FORMAT_VERSION):
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    header_len = int.from_bytes(raw[8:16], "little")
    if len(raw) < 16 + header_len:
        raise DataError(f"{path}: truncated checkpoint header")
    payload = memoryview(raw)[16 + header_len :]
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
        if version > 1:
            _check_payload(header["payload_nbytes"], header["payload_crc32"], payload, str(path))
        model_config = ModelConfig.from_dict(header["model_config"])
        manifest, extra = header["feature_manifest"], header.get("extra", {})
        if not isinstance(extra, dict):
            raise DataError(f"{path}: checkpoint extra is not an object")
        # every tensor must fit the checkpoint's own model config and layout;
        # the config's table is read no further than the file's tensors reach,
        # as a corrupt num_blocks could make it any length
        widths = [sum(block["width"] for block in manifest[kind])
                  for kind in ("atom", "bond", "angle")]
        entries = header["tensors"]
        table = [(name, shape) for name, shape, _ in
                 islice(parameter_table(model_config, *widths), len(entries) + 1)]
        shapes = {name: list(shape) for name, shape in table}
        for entry in entries:
            name = entry["name"]
            if shapes.get(name) != entry["shape"]:
                raise DataError(f"{path}: tensor {name} has shape {entry['shape']}; its config "
                                f"has {shapes.get(name, 'no such tensor')}")
            if entry["offset"] + entry["nbytes"] > len(payload):
                raise DataError(f"{path}: truncated checkpoint payload at {name}")
            if entry["kind"] not in ("param", "adam_m", "adam_v"):  # older files' moments
                raise DataError(f"{path}: tensor {name} has unknown kind {entry['kind']!r}")
        params = [entry for entry in entries if entry["kind"] == "param"]
    except (ConfigError, KeyError, TypeError, ValueError) as err:
        raise DataError(f"{path}: corrupt checkpoint ({type(err).__name__}: {err})") from None
    for got, want in zip_longest(params, tensor_directory(table, model_config.dtype)):
        if got != want:
            raise DataError(f"{path}: tensor {(want or got)['name']} breaks the checkpoint "
                            f"layout: the file has {got}, the layout {want}")
    check_manifest(FeatureConfig(), manifest, str(path))
    dtype = np.dtype(model_config.dtype)
    count = sum(math.prod(shape) for _, shape in table)
    flat = np.frombuffer(payload, dtype=dtype.newbyteorder("<"), count=count).astype(dtype)
    return ParamStore(flat, table), model_config, manifest, extra


def _check_payload(nbytes: int, crc32: int, payload: memoryview, source: str) -> None:
    """DataError unless ``payload`` is ``nbytes`` long with checksum ``crc32``."""
    if len(payload) < nbytes:
        raise DataError(f"{source}: truncated checkpoint payload: {len(payload)} of "
                        f"{nbytes} bytes")
    if len(payload) != nbytes:
        raise DataError(f"{source}: checkpoint payload is {len(payload)} bytes, its header "
                        f"says {nbytes}")
    got = zlib.crc32(payload)
    if got != crc32:
        raise DataError(f"{source}: checkpoint payload has crc32 {got}, its header says {crc32}")


def check_manifest(feature_config: FeatureConfig, manifest: dict, source: str) -> None:
    """ConfigError unless ``manifest`` is the feature layout of ``feature_config``."""
    expected = feature_config.manifest()
    problems = [f"{key}: expected {expected.get(key)!r}, checkpoint has {manifest.get(key)!r}"
                for key in sorted(set(expected) | set(manifest))
                if expected.get(key) != manifest.get(key)]
    if problems:
        detail = "; ".join(problems[:5])
        raise ConfigError(f"{source}: feature layout does not match this build: {detail}")
