"""Feature encoding: one-hot blocks for discrete attributes, radial basis
expansion for bond lengths and bond angles.

Feature layouts are described by a manifest (block names, offsets, widths)
that is embedded in checkpoints, so a checkpoint always documents the
encoding it was trained on. Each entity type carries one extra trailing
column: an is-masked indicator used by the pretraining tasks.

``FeatureConfig``'s block lists are the one record of the layout: ``encode``
names each block's values and sets every block of a matrix in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import DataError
from .geometry import DualGraph, bond_order
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
            return [{"name": n, "offset": o, "width": w} for n, (o, w) in _layout(blocks).items()]

        return {
            "version": 1,
            "atom": layout(self.atom_blocks()),
            "bond": layout(self.bond_blocks()),
            "angle": layout(self.angle_blocks()),
            "rbf_gamma": self.rbf_gamma,
            "length_centers": [float(c) for c in self.length_centers],
            "angle_centers": [float(c) for c in self.angle_centers],
        }


def _layout(blocks: list[tuple[str, int]]) -> dict[str, tuple[int, int]]:
    """(offset, width) of each block by name, in column order, then of the
    trailing mask-flag column."""
    names, widths = zip(*blocks, ("mask_flag", 1))
    return dict(zip(names, zip(accumulate(widths, initial=0), widths)))


@dataclass
class EncodedGraph:
    atom: np.ndarray            # [V, atom_width]
    bond: np.ndarray            # [E, bond_width]
    angle: np.ndarray           # [A, angle_width]

    def copy(self) -> "EncodedGraph":
        return EncodedGraph(atom=self.atom.copy(), bond=self.bond.copy(), angle=self.angle.copy())


def rbf_expand(values, centers: np.ndarray, gamma: float = RBF_GAMMA) -> np.ndarray:
    """exp(-gamma * (value - center)^2) over the center grid, one row per value."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    if not np.isfinite(values).all():
        raise DataError("rbf_expand: non-finite input")
    d = values - np.asarray(centers, dtype=np.float64)
    return np.exp(-gamma * d * d)


def encode(
    graph: DualGraph,
    molecule: Molecule,
    config: FeatureConfig | None = None,
    dtype=np.float64,
) -> EncodedGraph:
    """Build the feature matrices for one molecule: ``graph`` is its union of one."""
    config = config or FeatureConfig()
    atoms = molecule.atoms
    bonds = [molecule.bonds[i] for i in bond_order(molecule)[0]]  # in dual-graph row order
    slots = {  # per one-hot block, the slot of each atom or bond row
        "atom_type": [a.atomic_number for a in atoms],
        "aromatic": [a.aromatic for a in atoms],
        "formal_charge": [min(max(a.formal_charge + 8, 0), config.formal_charge_size - 1)
                          for a in atoms],
        "chirality": [CHIRALITIES.index(a.chirality) for a in atoms],
        "degree": np.minimum(graph.degrees(), config.degree_size - 1),
        "num_h": [min(a.num_explicit_h, config.num_h_size - 1) for a in atoms],
        "hybridization": [HYBRIDIZATIONS.index(a.hybridization) for a in atoms],
        "bond_dir": [BOND_DIRS.index(b.bond_dir) for b in bonds],
        "bond_type": [BOND_TYPES.index(b.bond_type) for b in bonds],
        "in_ring": [b.in_ring for b in bonds],
    }
    columns = {
        "length_rbf": rbf_expand(graph.lengths, config.length_centers, config.rbf_gamma),
        "angle_rbf": rbf_expand(graph.angle_values, config.angle_centers, config.rbf_gamma),
    }
    out = []
    for blocks, count in ((config.atom_blocks(), graph.num_atoms),
                          (config.bond_blocks(), graph.num_bonds),
                          (config.angle_blocks(), graph.num_angles)):
        layout = _layout(blocks)
        rows = np.zeros((count, layout["mask_flag"][0] + 1))
        hot = [name for name, _ in blocks if name in slots]
        if hot:
            index = np.array([slots[name] for name in hot], dtype=np.int64).reshape(len(hot), count)
            offset, width = np.array([layout[name] for name in hot]).T
            outside = (index < 0) | (index >= width[:, None])
            if outside.any():
                k, i = np.argwhere(outside)[0]
                raise DataError(f"one-hot index {index[k, i]} outside block {hot[k]} "
                                f"of size {width[k]}")
            rows[np.arange(count), index + offset[:, None]] = 1.0
        for name, values in columns.items():
            if name in layout:
                start, width = layout[name]
                rows[:, start : start + width] = values
        out.append(rows.astype(dtype, copy=False))
    return EncodedGraph(*out)
