"""Seeded inputs for the benchmark workloads.

``generate`` turns (workload, seed) into files in a work directory. The
program only ever sees those files through its own parsers: JSONL corpora
for the training workloads, and for ``ingest-embed`` an SDF V2000 file
with a fixed share of malformed records. The checkpoint that
``finetune-small`` and ``ingest-embed`` load is a freshly initialised
model saved with the program's checkpoint writer.

Atom counts are spread evenly over each workload's range and then
shuffled, so every seed sees the same mix of molecule sizes and the
figures of two seeds differ by topology and geometry, not by size.

The seed draws the molecules only. The model's initial weights and the
training randomness (shuffling, masking, dropout) use ``MODEL_SEED`` on
every run: with a seed-dependent initialisation the untrained heads'
offsets set most of the loss, and ``final_loss`` spread across seeds
by more than any useful bound.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

WORKLOADS = ("pretrain-geo", "finetune-small", "ingest-embed")
MODEL_SEED = 0

# the kinds of broken record in tests/fixtures/malformed, applied to real
# 20-60-atom records; each one must be rejected with exactly one ParseError
MALFORMED_KINDS = (
    "too_short_record",
    "bad_counts",
    "short_atom_line",
    "bad_coordinate",
    "unknown_element",
    "truncated_atoms",
    "bad_bond_type",
    "bond_index_zero",
    "self_bond",
    "duplicate_bond",
)

MODULES = (
    "checkpoint", "features", "model", "molio", "pretrain", "rng", "synth", "tensor", "training",
)


def import_geognn(root: Path) -> SimpleNamespace:
    """Import geognn from ``root/src`` and return its modules by short name.

    ``geognn.pretrain`` in the package namespace is the training function,
    so modules are looked up with importlib, never as package attributes.
    """
    src = (root / "src").resolve()
    if not (src / "geognn" / "__init__.py").is_file():
        raise FileNotFoundError(f"no geognn sources under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"geognn.{name}") for name in MODULES}
    if not Path(mods["model"].__file__).resolve().is_relative_to(src):
        raise ImportError(f"geognn was imported from outside {src}")
    return SimpleNamespace(**mods)


@dataclass(frozen=True)
class Plan:
    """Sizes of one workload; ``generate`` writes them to plan.json."""

    workload: str
    seed: int
    min_atoms: int
    max_atoms: int
    train: int
    valid: int = 0
    test: int = 0
    malformed: int = 0
    epochs: int = 0
    batch_size: int = 32

    @property
    def units_per_call(self) -> int:
        """Molecule-steps (training) or input records (ingest) per timed call."""
        if self.workload == "ingest-embed":
            return self.train + self.malformed
        return self.train * self.epochs


def plan_for(workload: str, seed: int, tiny: bool = False) -> Plan:
    if workload == "pretrain-geo":
        if tiny:
            return Plan(workload, seed, 15, 30, train=4, valid=2, epochs=1, batch_size=2)
        return Plan(workload, seed, 15, 30, train=64, valid=8, epochs=2)
    if workload == "finetune-small":
        if tiny:
            return Plan(workload, seed, 4, 12, train=4, valid=2, test=2, epochs=1, batch_size=2)
        return Plan(workload, seed, 4, 12, train=192, valid=16, test=16, epochs=1)
    if workload == "ingest-embed":
        if tiny:
            return Plan(workload, seed, 20, 60, train=3, malformed=len(MALFORMED_KINDS))
        return Plan(workload, seed, 20, 60, train=70, malformed=len(MALFORMED_KINDS))
    raise ValueError(f"unknown workload {workload!r}")


def _sizes(n: int, lo: int, hi: int) -> list[int]:
    span = hi - lo + 1
    return [lo + (i * span) // n for i in range(n)]


def random_molecules(g, rng, n: int, lo: int, hi: int, prefix: str) -> list:
    """n synthetic molecules whose atom counts cover [lo, hi] evenly."""
    sizes = _sizes(n, lo, hi)
    order = rng.fork("sizes").permutation(n)
    return [
        g.synth.random_molecule(
            rng.fork(i), sizes[int(order[i])], sizes[int(order[i])], mol_id=f"{prefix}{i:04d}"
        )
        for i in range(n)
    ]


# --- SDF V2000 writer ----------------------------------------------------------

_BOND_CODE = {"single": 1, "double": 2, "triple": 3, "aromatic": 4}
_STEREO_CODE = {"none": 0, "begin_wedge": 1, "either": 4, "begin_dash": 6}


def sdf_record(mol) -> list[str]:
    """One MOL V2000 block (without the $$$$ terminator) as text lines."""
    lines = [
        mol.id,
        "  geognn-bench",
        "",
        f"{len(mol.atoms):3d}{len(mol.bonds):3d}  0  0  0  0  0  0  0  0999 V2000",
    ]
    for atom, (x, y, z) in zip(mol.atoms, mol.coords):
        lines.append(f"{x:10.4f}{y:10.4f}{z:10.4f} {atom.element:<3}" + " 0" + "  0" * 11)
    for bond in mol.bonds:
        lines.append(
            f"{bond.a + 1:3d}{bond.b + 1:3d}"
            f"{_BOND_CODE[bond.bond_type]:3d}{_STEREO_CODE[bond.bond_dir]:3d}"
        )
    charged = [(i + 1, a.formal_charge) for i, a in enumerate(mol.atoms) if a.formal_charge]
    for start in range(0, len(charged), 8):
        chunk = charged[start : start + 8]
        lines.append(f"M  CHG{len(chunk):3d}" + "".join(f" {i:3d} {c:3d}" for i, c in chunk))
    lines.append("M  END")
    return lines


def corrupt(lines: list[str], kind: str) -> list[str]:
    """Break a valid record in one of the MALFORMED_KINDS ways."""
    lines = list(lines)
    num_atoms, num_bonds = int(lines[3][0:3]), int(lines[3][3:6])
    atom, bond = 4, 4 + num_atoms
    if kind == "too_short_record":
        return lines[:1]
    if kind == "bad_counts":
        lines[3] = "  X" + lines[3][3:]
    elif kind == "short_atom_line":
        lines[atom] = lines[atom][:20]
    elif kind == "bad_coordinate":
        lines[atom] = "    abcdef" + lines[atom][10:]
    elif kind == "unknown_element":
        lines[atom] = lines[atom][:31] + "Xx " + lines[atom][34:]
    elif kind == "truncated_atoms":
        del lines[bond - 1]
    elif kind == "bad_bond_type":
        lines[bond] = lines[bond][:6] + "  9" + lines[bond][9:]
    elif kind == "bond_index_zero":
        lines[bond] = "  0" + lines[bond][3:]
    elif kind == "self_bond":
        lines[bond] = lines[bond][:3] + lines[bond][:3] + lines[bond][6:]
    elif kind == "duplicate_bond":
        first = lines[bond]
        lines.insert(bond + num_bonds, first[3:6] + first[0:3] + first[6:])
        lines[3] = lines[3][:3] + f"{num_bonds + 1:3d}" + lines[3][6:]
    else:
        raise ValueError(f"unknown malformed kind {kind!r}")
    return lines


def write_sdf(records: list[list[str]]) -> tuple[bytes, list[tuple[int, int]]]:
    """Join records with $$$$ lines; also return each record's 1-based line span."""
    out: list[str] = []
    spans = []
    for lines in records:
        spans.append((len(out) + 1, len(out) + len(lines)))
        out.extend(lines)
        out.append("$$$$")
    return ("\n".join(out) + "\n").encode("utf-8"), spans


# --- generation ----------------------------------------------------------------


def _save_fresh_checkpoint(g, path: Path) -> None:
    config = g.model.ModelConfig()
    model = g.model.GeoGNN(config, rng=g.rng.Rng(MODEL_SEED).fork("checkpoint"))
    g.checkpoint.save_checkpoint(
        path, model.store, config, g.features.FeatureConfig(),
        extra={"epoch": 0, "phase": "pretrain"},
    )


def generate(g, plan: Plan, work: Path) -> None:
    """Write the inputs of ``plan`` into ``work``; ``g`` is from ``import_geognn``."""
    work.mkdir(parents=True, exist_ok=True)
    rng = g.rng.Rng(plan.seed).fork(plan.workload)
    (work / "plan.json").write_text(json.dumps(asdict(plan), sort_keys=True) + "\n")

    if plan.workload == "pretrain-geo":
        mols = random_molecules(
            g, rng, plan.train + plan.valid, plan.min_atoms, plan.max_atoms, "geo"
        )
        for mol in mols[plan.train :]:
            mol.split = "valid"
        (work / "corpus.jsonl").write_bytes(g.molio.write_jsonl(mols))
        return

    _save_fresh_checkpoint(g, work / "model.ckpt")
    if plan.workload == "finetune-small":
        total = plan.train + plan.valid + plan.test
        mols = random_molecules(g, rng, total, plan.min_atoms, plan.max_atoms, "small")
        for i, mol in enumerate(mols):
            mol.labels = {"geom": g.synth.geometry_label(mol)}
            mol.split = (
                "train" if i < plan.train else "valid" if i < plan.train + plan.valid else "test"
            )
        (work / "tagged.jsonl").write_bytes(g.molio.write_jsonl(mols))
        return

    good = random_molecules(g, rng, plan.train, plan.min_atoms, plan.max_atoms, "rec")
    total = plan.train + plan.malformed
    bad_slots = set(int(i) for i in rng.fork("malformed").sample(total, plan.malformed))
    records, bad = [], []
    good_iter = iter(good)
    for slot in range(total):
        if slot in bad_slots:
            kind = MALFORMED_KINDS[len(bad) % len(MALFORMED_KINDS)]
            source = good[len(bad) % len(good)]
            lines = sdf_record(source)
            lines[0] = f"bad-{kind}-{len(bad)}"
            records.append(corrupt(lines, kind))
            bad.append({"slot": slot, "kind": kind, "title": lines[0]})
        else:
            records.append(sdf_record(next(good_iter)))
    data, spans = write_sdf(records)
    for entry in bad:
        entry["lines"] = list(spans[entry["slot"]])
    (work / "records.sdf").write_bytes(data)
    expect = {"good_ids": [m.id for m in good], "malformed": bad}
    (work / "expect.json").write_text(json.dumps(expect, sort_keys=True) + "\n")
