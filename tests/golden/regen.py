"""The golden pipeline, and the script that rewrites ``outputs.json``.

``run_pipeline`` drives the CLI end to end on 20 synthetic molecules, 8 of
them with a ring closure, so that a wrong ring flag moves the outputs: ``pretrain`` -> ``finetune`` from its last
checkpoint -> ``evaluate`` -> ``embed``, once in f64 and once in f32, plus
``featurize`` on ``tests/fixtures/golden.sdf``. It returns the sha256 of
every file the commands write, every number in their JSON reports and the
first embedding rows, and the environment those bits depend on.
``tests/test_golden.py`` compares a fresh run with the committed file.

A change that moves outputs on purpose reruns this script, and the diff of
``outputs.json`` shows which outputs moved:

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from geognn.cli import main
from geognn.molio import write_jsonl
from geognn.rng import Rng
from geognn.synth import geometry_label, random_molecule

HERE = Path(__file__).resolve().parent
OUTPUTS = HERE / "outputs.json"
SDF = HERE.parent / "fixtures" / "golden.sdf"
PRECISIONS = ("f64", "f32")
EMBEDDING_ROWS = 3

CONFIG = {
    "model": {"num_blocks": 2, "hidden": 16, "dropout": 0.2, "distance_bins": 10,
              "geom_head_hidden": 16, "down_head_hidden": 16},
    "run": {"epochs": 3, "batch_size": 6, "seed": 11, "lr_body": 0.003, "lr_head": 0.003,
            "metric": "rmse"},
}


def molecules() -> list:
    """20 molecules of 3-14 atoms with a label each, split 12/4/4."""
    rng = Rng(2106)
    mols = []
    for i in range(20):
        mol = random_molecule(rng.fork(i), min_atoms=3, max_atoms=14, ring_probability=0.7,
                              mol_id=f"g{i}")
        mol.labels = {"y": geometry_label(mol)}
        mol.split = ("train", "train", "train", "valid", "test")[i % 5]
        mols.append(mol)
    return mols


def environment() -> dict:
    """What the bits of a float result may depend on beyond this repository."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _numbers(obj, path: str, out: dict) -> None:
    """Every int or float leaf of a JSON value, as ``out[path] = float``."""
    if isinstance(obj, dict):
        for key in sorted(obj):
            _numbers(obj[key], f"{path}/{key}", out)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            _numbers(value, f"{path}/{i}", out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[path] = float(obj)


def _cli(*argv) -> None:
    code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"geognn {' '.join(map(str, argv))} exited {code}")


def run_pipeline(root: Path) -> dict:
    """The golden outputs of one run in the empty directory ``root``."""
    data, config = root / "molecules.jsonl", root / "config.json"
    data.write_bytes(write_jsonl(molecules()))
    config.write_text(json.dumps(CONFIG))
    result = {"environment": environment(), "input": _sha256(data)}

    out = root / "featurize"
    _cli("featurize", "--input", SDF, "--out", out)
    result["featurize"] = {"digests": {"summary.json": _sha256(out / "summary.json")}}

    for precision in PRECISIONS:
        pre, fine, ev, emb = (root / precision / step
                              for step in ("pretrain", "finetune", "evaluate", "embed"))
        epochs = CONFIG["run"]["epochs"]
        common = ("--input", data, "--config", config, "--precision", precision)
        _cli("pretrain", *common, "--out", pre)
        _cli("finetune", *common, "--out", fine,
             "--checkpoint", pre / f"pretrain_epoch{epochs:03d}.ckpt")
        best = fine / "finetune_best.ckpt"
        _cli("evaluate", "--input", data, "--out", ev, "--checkpoint", best, "--metric", "rmse")
        _cli("embed", "--input", data, "--out", emb, "--checkpoint", best)

        files = sorted(p for p in (root / precision).rglob("*") if p.is_file())
        floats: dict[str, float] = {}
        for path in files:
            if path.suffix == ".json":
                _numbers(json.loads(path.read_text()), path.name, floats)
        rows = [json.loads(line)["h_G"]
                for line in (emb / "embeddings.jsonl").read_text().splitlines()]
        _numbers(rows[:EMBEDDING_ROWS], "embeddings.jsonl", floats)
        result[precision] = {
            "digests": {str(p.relative_to(root / precision)): _sha256(p) for p in files},
            "floats": floats,
        }
    return result


def main_regen() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        result = run_pipeline(Path(tmp))
    OUTPUTS.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUTPUTS}")


if __name__ == "__main__":
    main_regen()
