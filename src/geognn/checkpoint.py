"""Versioned binary checkpoint container, format 4.

Layout (all integers little-endian):

    bytes 0..3    magic b"GEM1"
    bytes 4..7    uint32 format version (4)
    bytes 8..15   uint64 length of the JSON header
    header        UTF-8 JSON: model config, feature-layout manifest, the
                  payload's length and crc32, an ``extra`` object
    payload       the store's parameter buffer (``ParamStore.flat``)

The config and the manifest fix the payload's layout: the tensors of
``parameter_table`` one after another, in the config's dtype. So the header
lists none of them, and loading checks only that the config's parameters
are the payload's size. Other versions are refused; re-running ``pretrain``
or ``finetune`` writes such a file again. A checkpoint holds parameters only,
no optimizer moments. Writes are atomic: a temporary file in the target
directory is moved into place with os.replace.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .features import FeatureConfig
from .model import ModelConfig, ParamStore, parameter_count, parameter_table

MAGIC = b"GEM1"
FORMAT_VERSION = 4


def save_checkpoint(
    path: str | os.PathLike,
    store: ParamStore,
    model_config: ModelConfig,
    feature_config: FeatureConfig,
    extra: dict | None = None,
) -> None:
    """Write ``store`` atomically; a ConfigError, and no file, if its dtype
    or its (name, shape) table is not the config's."""
    flat = store.flat
    if flat.dtype != model_config.dtype:
        raise ConfigError(f"cannot save {flat.dtype} parameters as {model_config.precision}")
    table = [(name, shape) for name, shape, _ in parameter_table(model_config)]
    for got, want in zip_longest(store.shapes(), table):
        if got != want:
            raise ConfigError(f"cannot save tensor {(want or got)[0]}: its config has {want}, "
                              f"the store {got}")
    payload = flat.astype(flat.dtype.newbyteorder("<"), copy=False)
    header = {
        "format_version": FORMAT_VERSION,
        "model_config": model_config.to_dict(),
        "feature_manifest": feature_config.manifest(),
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
    """Returns (store, model_config, feature_manifest, extra): a DataError if
    the file breaks a rule of the module docstring, a ConfigError if its
    feature layout is not this build's. No table is built before the sizes
    agree, as a corrupt ``num_blocks`` could make it any length."""
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise DataError(f"{path}: cannot read checkpoint ({err.strerror})") from None
    if raw[:4] != MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    version = int.from_bytes(raw[4:8], "little")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}; this build reads "
                        f"version {FORMAT_VERSION} only")
    header_len = int.from_bytes(raw[8:16], "little")
    if len(raw) < 16 + header_len:
        raise DataError(f"{path}: truncated checkpoint header")
    payload = memoryview(raw)[16 + header_len :]
    try:
        header = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
        _check_payload(header["payload_nbytes"], header["payload_crc32"], payload, str(path))
        model_config = ModelConfig.from_dict(header["model_config"])
        manifest, extra = header["feature_manifest"], header["extra"]
    except (ConfigError, KeyError, TypeError, ValueError) as err:
        raise DataError(f"{path}: corrupt checkpoint ({type(err).__name__}: {err})") from None
    for key, value in (("feature_manifest", manifest), ("extra", extra)):
        if not isinstance(value, dict):
            raise DataError(f"{path}: checkpoint {key} is not an object")
    names = extra.get("task_names")
    if names is not None and not (isinstance(names, list) and len(names) == model_config.num_tasks
                                  and all(isinstance(n, str) for n in names)):
        raise DataError(f"{path}: checkpoint task_names is not a list of "
                        f"{model_config.num_tasks} strings")
    check_manifest(FeatureConfig(), manifest, str(path))
    dtype = np.dtype(model_config.dtype)
    nbytes = parameter_count(model_config) * dtype.itemsize
    if nbytes != len(payload):
        raise DataError(f"{path}: its config's parameters take {nbytes} bytes; its payload "
                        f"holds {len(payload)}")
    table = [(name, shape) for name, shape, _ in parameter_table(model_config)]
    flat = np.frombuffer(payload, dtype=dtype.newbyteorder("<")).astype(dtype)
    return ParamStore(flat, table), model_config, manifest, extra


def _check_payload(nbytes: int, crc32: int, payload: memoryview, source: str) -> None:
    """DataError unless ``payload`` is ``nbytes`` long with checksum ``crc32``."""
    if len(payload) != nbytes:
        cut = "truncated " if len(payload) < nbytes else ""
        raise DataError(f"{source}: {cut}checkpoint payload is {len(payload)} bytes, its header "
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
