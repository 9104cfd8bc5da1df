"""Feature encoding: one-hot blocks for discrete attributes, radial basis
expansion for bond lengths and bond angles.

Feature layouts are described by a manifest (block names, offsets, widths)
that is embedded in checkpoints, so a checkpoint always documents the
encoding it was trained on. Each entity type carries one extra trailing
column: an is-masked indicator used by the pretraining tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .geometry import DualGraph
from .molio import BOND_DIRS, BOND_TYPES, CHIRALITIES, HYBRIDIZATIONS, Molecule

RBF_GAMMA = 10.0
LENGTH_CENTER_COUNT = 51  # 0.0 .. 5.0, stride 0.1
ANGLE_CENTER_COUNT = 32   # 0.0 .. 3.1, stride 0.1 (covers [0, pi])


@dataclass
class FeatureConfig:
    atom_type_size: int = 119        # one-hot slot = atomic number
    aromatic_size: int = 2
    formal_charge_size: int = 16     # slot = charge + 8, clamped
    chirality_size: int = len(CHIRALITIES)
    degree_size: int = 11            # clamped at 10
    num_h_size: int = 9              # clamped at 8
    hybridization_size: int = len(HYBRIDIZATIONS)
    bond_dir_size: int = len(BOND_DIRS)
    bond_type_size: int = len(BOND_TYPES)
    in_ring_size: int = 2
    rbf_gamma: float = RBF_GAMMA
    length_centers: np.ndarray = field(
        default_factory=lambda: 0.1 * np.arange(LENGTH_CENTER_COUNT, dtype=np.float64)
    )
    angle_centers: np.ndarray = field(
        default_factory=lambda: 0.1 * np.arange(ANGLE_CENTER_COUNT, dtype=np.float64)
    )

    def atom_blocks(self) -> list[tuple[str, int]]:
        return [
            ("atom_type", self.atom_type_size),
            ("aromatic", self.aromatic_size),
            ("formal_charge", self.formal_charge_size),
            ("chirality", self.chirality_size),
            ("degree", self.degree_size),
            ("num_h", self.num_h_size),
            ("hybridization", self.hybridization_size),
        ]

    def bond_blocks(self) -> list[tuple[str, int]]:
        return [
            ("bond_dir", self.bond_dir_size),
            ("bond_type", self.bond_type_size),
            ("in_ring", self.in_ring_size),
            ("length_rbf", len(self.length_centers)),
        ]

    def angle_blocks(self) -> list[tuple[str, int]]:
        return [("angle_rbf", len(self.angle_centers))]

    # widths include the trailing mask-indicator column
    @property
    def atom_width(self) -> int:
        return sum(w for _, w in self.atom_blocks()) + 1

    @property
    def bond_width(self) -> int:
        return sum(w for _, w in self.bond_blocks()) + 1

    @property
    def angle_width(self) -> int:
        return sum(w for _, w in self.angle_blocks()) + 1

    def manifest(self) -> dict:
        def layout(blocks):
            out = []
            offset = 0
            for name, width in blocks:
                out.append({"name": name, "offset": offset, "width": width})
                offset += width
            out.append({"name": "mask_flag", "offset": offset, "width": 1})
            return out

        return {
            "version": 1,
            "atom": layout(self.atom_blocks()),
            "bond": layout(self.bond_blocks()),
            "angle": layout(self.angle_blocks()),
            "rbf_gamma": self.rbf_gamma,
            "length_centers": [float(c) for c in self.length_centers],
            "angle_centers": [float(c) for c in self.angle_centers],
        }


@dataclass
class EncodedGraph:
    atom: np.ndarray            # [V, atom_width]
    bond: np.ndarray            # [E, bond_width]
    angle: np.ndarray           # [A, angle_width]

    def copy(self) -> "EncodedGraph":
        return EncodedGraph(atom=self.atom.copy(), bond=self.bond.copy(), angle=self.angle.copy())


def rbf_expand(x: float, centers: np.ndarray, gamma: float = RBF_GAMMA) -> np.ndarray:
    """exp(-gamma * (x - center)^2) over the center grid."""
    if not math.isfinite(x):
        raise DataError("rbf_expand: non-finite input")
    d = x - np.asarray(centers, dtype=np.float64)
    return np.exp(-gamma * d * d)


def _one_hot(row: np.ndarray, offset: int, size: int, index: int) -> int:
    if not 0 <= index < size:
        raise DataError(f"one-hot index {index} outside block of size {size}")
    row[offset + index] = 1.0
    return offset + size


def encode(
    graph: DualGraph,
    molecule: Molecule,
    config: FeatureConfig | None = None,
    dtype=np.float64,
) -> EncodedGraph:
    """Build the feature matrices for one molecule: ``graph`` is its union of one."""
    config = config or FeatureConfig()
    degrees = graph.degrees()

    atom = np.zeros((graph.num_atoms, config.atom_width), dtype=np.float64)
    for i, a in enumerate(molecule.atoms):
        row = atom[i]
        offset = 0
        offset = _one_hot(row, offset, config.atom_type_size, a.atomic_number)
        offset = _one_hot(row, offset, config.aromatic_size, int(a.aromatic))
        charge_slot = min(max(a.formal_charge + 8, 0), config.formal_charge_size - 1)
        offset = _one_hot(row, offset, config.formal_charge_size, charge_slot)
        offset = _one_hot(row, offset, config.chirality_size, CHIRALITIES.index(a.chirality))
        offset = _one_hot(row, offset, config.degree_size, min(int(degrees[i]), config.degree_size - 1))
        offset = _one_hot(row, offset, config.num_h_size, min(a.num_explicit_h, config.num_h_size - 1))
        _one_hot(row, offset, config.hybridization_size, HYBRIDIZATIONS.index(a.hybridization))

    # bond attributes are looked up via canonical (a, b) keys because the
    # dual graph reorders bonds
    attr_by_key = {
        (min(b.a, b.b), max(b.a, b.b)): b for b in molecule.bonds
    }
    bond = np.zeros((graph.num_bonds, config.bond_width), dtype=np.float64)
    rbf_offset_bond = config.bond_dir_size + config.bond_type_size + config.in_ring_size
    for e in range(graph.num_bonds):
        key = (int(graph.bonds[e, 0]), int(graph.bonds[e, 1]))
        b = attr_by_key[key]
        row = bond[e]
        offset = 0
        offset = _one_hot(row, offset, config.bond_dir_size, BOND_DIRS.index(b.bond_dir))
        offset = _one_hot(row, offset, config.bond_type_size, BOND_TYPES.index(b.bond_type))
        offset = _one_hot(row, offset, config.in_ring_size, int(b.in_ring))
        row[offset : offset + len(config.length_centers)] = rbf_expand(
            float(graph.lengths[e]), config.length_centers, config.rbf_gamma
        )
    assert rbf_offset_bond + len(config.length_centers) + 1 == config.bond_width

    angle = np.zeros((graph.num_angles, config.angle_width), dtype=np.float64)
    for t in range(graph.num_angles):
        angle[t, : len(config.angle_centers)] = rbf_expand(
            float(graph.angle_values[t]), config.angle_centers, config.rbf_gamma
        )

    return EncodedGraph(atom=atom.astype(dtype), bond=bond.astype(dtype), angle=angle.astype(dtype))
