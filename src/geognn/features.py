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

``encode`` reads a pack in one pass per attribute: the slots of a one-hot
block, for every atom or bond of the pack, come from one list comprehension
(through a ``{value: slot}`` table for a categorical field), clamped as
whole arrays where the block clamps. Five blocks are derived, not read from
a field, as GEM derives them from the molecule's graph: each atom's degree,
hydrogen count, aromatic flag and hybridization come from whole-array
passes over the dual graph's bonds, and each bond's ring flag from
``molio.ring_membership`` of its molecule. So a molecule encodes the same
however it was built. Every slot comes from a table lookup, a clamp or a
bool, so it lies in its block. The slots form one int64 slot matrix per
entity kind, written with one fancy assignment, its bond columns in
``geometry.bond_order``'s row order. The RBF blocks are computed in place
in the feature rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import DataError
from .geometry import DualGraph, bond_order
from .molio import ATOMIC_NUMBER, BOND_DIRS, BOND_TYPES, CHIRALITIES, Molecule, ring_membership

RBF_GAMMA = 10.0
HYBRIDIZATIONS = ("sp", "sp2", "sp3", "sp3d", "sp3d2", "unknown")

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


def rbf_expand(values, centers: np.ndarray, gamma: float = RBF_GAMMA,
               out: np.ndarray | None = None) -> np.ndarray:
    """exp(-gamma * (value - center)^2) over the center grid, one row per
    value, written into ``out`` if given (it may be a block of wider rows)."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    if not np.isfinite(values).all():
        raise DataError("rbf_expand: non-finite input")
    d = values - np.asarray(centers, dtype=np.float64)
    with np.errstate(over="ignore"):  # a value too far from a center weighs 0 there
        exponent = np.multiply(d, -gamma)
        exponent *= d
        return np.exp(exponent, out=exponent if out is None else out)


# the slot of each value of a categorical field
_SLOT = {name: {value: slot for slot, value in enumerate(values)}
         for name, values in (("chirality", CHIRALITIES), ("bond_dir", BOND_DIRS),
                              ("bond_type", BOND_TYPES))}

# The hybridization block: the steric number, degree plus main-group lone
# pairs, of an atom with bonds and a valence electron count below. Multiple
# bonds are not told from single ones; any other atom is "unknown".
_VALENCE_ELECTRONS = {
    "H": 1, "B": 3, "C": 4, "N": 5, "O": 6, "F": 7, "Al": 3, "Si": 4,
    "P": 5, "S": 6, "Cl": 7, "Ga": 3, "Ge": 4, "As": 5, "Se": 6, "Br": 7,
    "In": 3, "Sn": 4, "Sb": 5, "Te": 6, "I": 7,
}
_STERIC_TO_HYBRIDIZATION = {2: "sp", 3: "sp2", 4: "sp3", 5: "sp3d", 6: "sp3d2"}
_VALENCE = np.zeros(_WIDTH["atom_type"], dtype=np.int64)  # by atomic number; 0: none
_VALENCE[[ATOMIC_NUMBER[e] for e in _VALENCE_ELECTRONS]] = list(_VALENCE_ELECTRONS.values())
# the slot of each steric number 0 .. 7, the last standing for all above 6
_STERIC_SLOT = np.array([HYBRIDIZATIONS.index(_STERIC_TO_HYBRIDIZATION.get(n, "unknown"))
                         for n in range(8)])
# charges clipped to this bound keep their hybridization: at +64 an atom has
# no lone pairs, and at -64 more than 6 electron domains
_CHARGE_BOUND = 64


def _clipped(values: list, lo: int, hi: int) -> np.ndarray:
    """The integers ``values`` clipped to [lo, hi], as int64; one too large
    for int64 is clipped before it is converted."""
    try:
        return np.clip(np.array(values, dtype=np.int64), lo, hi)
    except OverflowError:
        return np.array([min(max(v, lo), hi) for v in values], dtype=np.int64)


def encode(
    graph: DualGraph,
    molecules: Molecule | list[Molecule],
    config: FeatureConfig,
    dtype=np.float64,
) -> EncodedGraph:
    """The feature matrices of one molecule, or of several as the union ``graph``."""
    molecules = [molecules] if isinstance(molecules, Molecule) else molecules
    atoms = [a for m in molecules for a in m.atoms]
    order = bond_order(molecules)[0]
    bonds = [b for m in molecules for b in m.bonds]
    bonds = [bonds[i] for i in order.tolist()]  # in dual-graph row order, as graph.bonds
    chirality, bond_dir, bond_type = _SLOT["chirality"], _SLOT["bond_dir"], _SLOT["bond_type"]
    number = np.array([ATOMIC_NUMBER[a.element] for a in atoms], dtype=np.int64)
    charge = _clipped([a.formal_charge for a in atoms], -_CHARGE_BOUND, _CHARGE_BOUND)
    types = np.array([bond_type[b.bond_type] for b in bonds], dtype=np.int64)
    ends, degree, num_atoms = graph.bonds, graph.degrees(), graph.num_atoms
    is_h = number == ATOMIC_NUMBER["H"]
    num_h = (np.bincount(ends[is_h[ends[:, 1]], 0], minlength=num_atoms)
             + np.bincount(ends[is_h[ends[:, 0]], 1], minlength=num_atoms))
    aromatic_ends = ends[types == bond_type["aromatic"]]
    valence = _VALENCE[number]
    steric = np.where((valence > 0) & (degree > 0),
                      degree + np.maximum(0, (valence - charge - degree) // 2), 0)
    slots = {  # per one-hot block, the slot of each atom row or bond row
        "atom_type": number,
        "aromatic": np.bincount(aromatic_ends.ravel(), minlength=num_atoms) > 0,
        "formal_charge": np.clip(charge, -8, _WIDTH["formal_charge"] - 9) + 8,
        "chirality": [chirality[a.chirality] for a in atoms],
        "degree": np.minimum(degree, _WIDTH["degree"] - 1),
        "num_h": np.minimum(num_h, _WIDTH["num_h"] - 1),
        "hybridization": _STERIC_SLOT[np.minimum(steric, len(_STERIC_SLOT) - 1)],
        "bond_dir": [bond_dir[b.bond_dir] for b in bonds],
        "bond_type": types,
        "in_ring": np.array([flag for m in molecules for flag in ring_membership(m)],
                            dtype=bool)[order],
    }
    atom, bond, angle = (np.zeros((count, width)) for count, width in (
        (num_atoms, config.atom_width), (graph.num_bonds, config.bond_width),
        (graph.num_angles, config.angle_width)))
    for rows, kind, name, values, centers in (
            (bond, "bond", "length_rbf", graph.lengths, config.length_centers),
            (angle, "angle", "angle_rbf", graph.angle_values, config.angle_centers)):
        start, width = _LAYOUT[kind][name]
        rbf_expand(values, centers, config.rbf_gamma, out=rows[:, start : start + width])
    for rows, kind in ((atom, "atom"), (bond, "bond")):
        layout = _LAYOUT[kind]
        hot = [name for name in layout if name in slots]
        index = np.array([slots[name] for name in hot], dtype=np.int64).reshape(len(hot), len(rows))
        offset = np.array([layout[name][0] for name in hot])
        rows[np.arange(len(rows)), index + offset[:, None]] = 1.0
    return EncodedGraph(*(rows.astype(dtype, copy=False) for rows in (atom, bond, angle)))
