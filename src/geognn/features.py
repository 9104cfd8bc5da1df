"""Feature encoding: one-hot blocks for discrete attributes, radial basis
expansion for bond lengths and bond angles.

The layout is fixed. ``BLOCKS`` states each block's name and width once;
offsets, matrix widths, the RBF grids, ``encode``'s clamps and the manifest
are all read from it. A model's parameters fit only the layout it was
trained on, so a second layout would only make checkpoints that every
other run refuses; GEM featurizes with one. The manifest (block names,
offsets, widths and RBF grids) is embedded in each checkpoint and checked
on load. Each entity type carries one extra trailing column: an is-masked
indicator used by the pretraining tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DataError
from .geometry import DualGraph, bond_order
from .molio import BOND_DIRS, BOND_TYPES, CHIRALITIES, HYBRIDIZATIONS, Molecule

RBF_GAMMA = 10.0

# each entity type's blocks, (name, width) in column order
BLOCKS = {
    "atom": (
        ("atom_type", 119),          # one-hot slot = atomic number
        ("aromatic", 2),
        ("formal_charge", 16),       # slot = charge + 8, clamped
        ("chirality", len(CHIRALITIES)),
        ("degree", 11),              # clamped at 10
        ("num_h", 9),                # clamped at 8
        ("hybridization", len(HYBRIDIZATIONS)),
    ),
    "bond": (
        ("bond_dir", len(BOND_DIRS)),
        ("bond_type", len(BOND_TYPES)),
        ("in_ring", 2),
        ("length_rbf", 51),          # centers 0.0 .. 5.0, stride 0.1
    ),
    "angle": (("angle_rbf", 32),),   # centers 0.0 .. 3.1, stride 0.1 (covers [0, pi])
}
_WIDTH = {name: width for blocks in BLOCKS.values() for name, width in blocks}


def _layout(blocks) -> dict[str, tuple[int, int]]:
    """(offset, width) of each block by name, in column order, then of the
    trailing mask-flag column."""
    names, widths = zip(*blocks, ("mask_flag", 1))
    return dict(zip(names, zip(accumulate(widths, initial=0), widths)))


_LAYOUT = {kind: _layout(blocks) for kind, blocks in BLOCKS.items()}


def _centers(count: int) -> np.ndarray:
    centers = 0.1 * np.arange(count, dtype=np.float64)
    centers.flags.writeable = False
    return centers


@dataclass(frozen=True)
class FeatureConfig:
    """The layout of ``BLOCKS``: it has nothing to set. Matrix widths
    include the trailing mask-flag column."""

    rbf_gamma = RBF_GAMMA
    length_centers = _centers(_WIDTH["length_rbf"])
    angle_centers = _centers(_WIDTH["angle_rbf"])
    atom_width, bond_width, angle_width = (sum(w for _, w in BLOCKS[kind]) + 1
                                           for kind in ("atom", "bond", "angle"))

    def manifest(self) -> dict:
        return {
            "version": 1,
            **{kind: [{"name": n, "offset": o, "width": w} for n, (o, w) in layout.items()]
               for kind, layout in _LAYOUT.items()},
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


def rbf_expand(values, centers: np.ndarray, gamma: float = RBF_GAMMA) -> np.ndarray:
    """exp(-gamma * (value - center)^2) over the center grid, one row per value."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    if not np.isfinite(values).all():
        raise DataError("rbf_expand: non-finite input")
    d = values - np.asarray(centers, dtype=np.float64)
    with np.errstate(over="ignore"):  # a value too far from a center weighs 0 there
        return np.exp(-gamma * d * d)


def encode(
    graph: DualGraph,
    molecules: Molecule | list[Molecule],
    config: FeatureConfig,
    dtype=np.float64,
) -> EncodedGraph:
    """The feature matrices of one molecule, or of several as the union ``graph``."""
    molecules = [molecules] if isinstance(molecules, Molecule) else molecules
    atoms = [a for m in molecules for a in m.atoms]
    bonds = [b for m in molecules for b in m.bonds]
    bonds = [bonds[i] for i in bond_order(molecules)[0]]  # in dual-graph row order
    slots = {  # per one-hot block, the slot of each atom or bond row
        "atom_type": [a.atomic_number for a in atoms],
        "aromatic": [a.aromatic for a in atoms],
        "formal_charge": [min(max(a.formal_charge + 8, 0), _WIDTH["formal_charge"] - 1)
                          for a in atoms],
        "chirality": [CHIRALITIES.index(a.chirality) for a in atoms],
        "degree": np.minimum(graph.degrees(), _WIDTH["degree"] - 1),
        "num_h": [min(a.num_explicit_h, _WIDTH["num_h"] - 1) for a in atoms],
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
    for kind, count in (("atom", graph.num_atoms), ("bond", graph.num_bonds),
                        ("angle", graph.num_angles)):
        layout = _LAYOUT[kind]
        rows = np.zeros((count, layout["mask_flag"][0] + 1))
        hot = [name for name in layout if name in slots]
        if hot:
            index = np.array([slots[name] for name in hot], dtype=np.int64).reshape(len(hot), count)
            offset, width = np.array([layout[name] for name in hot]).T
            outside = (index < 0) | (index >= width[:, None])
            if outside.any():
                k, i = np.argwhere(outside)[0]
                owner = (graph.atom_graph if kind == "atom" else graph.bond_graph)[i]
                raise DataError(f"molecule {molecules[owner].id}: one-hot index {index[k, i]} "
                                f"outside block {hot[k]} of size {width[k]}")
            rows[np.arange(count), index + offset[:, None]] = 1.0
        for name, values in columns.items():
            if name in layout:
                start, width = layout[name]
                rows[:, start : start + width] = values
        out.append(rows.astype(dtype, copy=False))
    return EncodedGraph(*out)
