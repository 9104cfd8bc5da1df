"""Dual-graph construction: atoms/bonds on one side, bonds/angles on the other.

From a molecule with 3D coordinates this derives
  - the atom-bond graph (atoms as nodes, bonds as edges),
  - the bond-angle graph (bonds as nodes, one edge per pair of bonds
    sharing an atom),
  - bond lengths and bond angles in radians, kept with the coordinates.

``bond_order`` is the one owner of the bond row order: ``build_dual_graph``
and ``features.encode`` both take it from there. A pack is read into arrays
in one flat pass per field: each bond end by a list comprehension over the
pack's bonds, shifted by its molecule's atom offset with one ``np.repeat``,
and the coordinates by ``np.fromiter`` over the pack's flattened points.
From there ``build_dual_graph`` works in whole-array passes, with no
per-angle loop.

A ``DualGraph`` is always a disjoint union: ``build_dual_graph`` makes one
of any number of molecules and ``pack_graphs`` joins unions, so a batch of
molecules runs through the network as a single graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import DataError
from .molio import Molecule


def distance_matrix(coords: np.ndarray) -> np.ndarray:
    """[V, V] Euclidean distances between the rows of ``coords``."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


@dataclass
class DualGraph:
    """The dual graphs of one or more molecules as one disjoint union.

    Atom ids in ``bonds`` and ``angles`` are offset by the atoms of the
    molecules before, and bond ids in ``angle_bonds`` by their bonds; rows
    of every array come molecule by molecule. ``build_dual_graph`` makes
    the union of a list of molecules and ``pack_graphs`` joins unions.
    """

    bonds: np.ndarray         # [E, 2] atom ids, each row a < b, rows sorted per molecule
    angles: np.ndarray        # [A, 3] rows (w, u, v): bonds (u,w) and (u,v) share u
    angle_bonds: np.ndarray   # [A, 2] bond ids forming each angle
    lengths: np.ndarray       # [E] in the coordinate unit
    angle_values: np.ndarray  # [A] radians
    coords: np.ndarray        # [V, 3]
    atom_counts: np.ndarray   # [B] atoms per molecule
    bond_counts: np.ndarray   # [B] bonds per molecule

    @property
    def num_graphs(self) -> int:
        return self.atom_counts.size

    @property
    def num_atoms(self) -> int:
        return int(self.atom_counts.sum())

    @property
    def num_bonds(self) -> int:
        return self.bonds.shape[0]

    @property
    def num_angles(self) -> int:
        return self.angles.shape[0]

    @property
    def angle_counts(self) -> np.ndarray:  # [B] angles per molecule
        return np.bincount(self.bond_graph[self.angle_bonds[:, 0]], minlength=self.num_graphs)

    @property
    def atom_offsets(self) -> np.ndarray:  # [B] id of each molecule's first atom
        return np.cumsum(self.atom_counts) - self.atom_counts

    @property
    def atom_graph(self) -> np.ndarray:  # [V] the molecule of each atom row
        return np.repeat(np.arange(self.num_graphs), self.atom_counts)

    @property
    def bond_graph(self) -> np.ndarray:  # [E] the molecule of each bond row
        return np.repeat(np.arange(self.num_graphs), self.bond_counts)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.bonds.ravel(), minlength=self.num_atoms)


def bond_order(molecules: Sequence[Molecule]) -> tuple[np.ndarray, np.ndarray]:
    """The dual graph's bond rows: each bond as (a, b) with a < b in union
    atom ids, the rows sorted by (a, b). Returns (order, bonds), where row i
    is bond ``order[i]`` of the molecules' bond lists joined in turn."""
    offsets = np.cumsum([0] + [len(m.atoms) for m in molecules])[:-1]
    bonds = [bond for m in molecules for bond in m.bonds]
    ends = np.array([[bond.a for bond in bonds], [bond.b for bond in bonds]],
                    dtype=np.int64).reshape(2, -1)
    ends += np.repeat(offsets, [len(m.bonds) for m in molecules])
    lo, hi = np.minimum(*ends), np.maximum(*ends)
    order = np.lexsort((hi, lo))
    return order, np.column_stack((lo, hi))[order]


def build_dual_graph(molecules: Molecule | Sequence[Molecule]) -> DualGraph:
    """The dual graph of one molecule, or of several as one union."""
    molecules = [molecules] if isinstance(molecules, Molecule) else molecules
    atom_counts = np.array([len(m.atoms) for m in molecules], dtype=np.int64)
    offsets = np.cumsum(atom_counts) - atom_counts
    coords = np.fromiter(chain.from_iterable(chain.from_iterable(m.coords for m in molecules)),
                         dtype=np.float64, count=3 * int(atom_counts.sum())).reshape(-1, 3)
    _, bonds = bond_order(molecules)
    # each bond's length from its two ends, by distance_matrix's formula, so
    # the two agree exactly without building the [V, V] matrix; far-apart ends overflow, named below
    with np.errstate(all="ignore"):
        diff = coords[bonds[:, 0]] - coords[bonds[:, 1]]
        squares = (diff * diff).sum(axis=-1)
        lengths = np.sqrt(squares)
    # a square below the least normal float has lost its precision to underflow
    bad = (squares < np.finfo(np.float64).tiny) | ~np.isfinite(lengths)
    if bad.any():
        row = np.argmax(bad)
        mol = int(np.searchsorted(offsets, bonds[row, 0], side="right")) - 1
        pair = tuple((bonds[row] - offsets[mol]).tolist())
        what = ("coincident bonded atoms" if lengths[row] == 0.0 else "bond too short to measure"
                if np.isfinite(lengths[row]) else "non-finite length of bond")
        raise DataError(f"molecule {molecules[mol].id}: {what} {pair}")

    # Bond ends (center, neighbor), row r an end of bond r mod E, sorted by
    # center, then neighbor. Each end pairs with every later end of its center
    # to form the angle (neighbor, center, later neighbor) of the two bonds.
    ends = np.concatenate([bonds, bonds[:, ::-1]])
    sort = np.lexsort((ends[:, 1], ends[:, 0]))
    ends, end_bond = ends[sort], sort % max(len(bonds), 1)
    later = np.searchsorted(ends[:, 0], ends[:, 0], side="right") - np.arange(len(ends)) - 1
    first = np.repeat(np.arange(len(ends)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    angles = np.column_stack((ends[first, 1], ends[first, 0], ends[second, 1]))
    angle_bonds = np.column_stack((end_bond[first], end_bond[second]))
    # an angle's arms are its two bonds, whose lengths are known, finite and measurable
    arms = coords[angles[:, [0, 2]]] - coords[angles[:, [1]]]
    cosine = (arms[:, 0] * arms[:, 1]).sum(axis=1) / lengths[angle_bonds].prod(axis=1)

    return DualGraph(
        bonds=bonds,
        angles=angles,
        angle_bonds=angle_bonds,
        lengths=lengths,
        angle_values=np.arccos(np.clip(cosine, -1.0, 1.0)),
        coords=coords,
        atom_counts=atom_counts,
        bond_counts=np.array([len(m.bonds) for m in molecules], dtype=np.int64),
    )


def pack_graphs(graphs: Sequence[DualGraph]) -> DualGraph:
    """The disjoint union of one or more dual graphs, in the order given."""
    atom_offsets = np.cumsum([0] + [g.num_atoms for g in graphs])
    bond_offsets = np.cumsum([0] + [g.num_bonds for g in graphs])

    def join(name: str, offsets=None) -> np.ndarray:
        arrays = [getattr(g, name) for g in graphs]
        if offsets is not None:
            arrays = [a + o for a, o in zip(arrays, offsets)]
        return np.concatenate(arrays)

    return DualGraph(
        bonds=join("bonds", atom_offsets),
        angles=join("angles", atom_offsets),
        angle_bonds=join("angle_bonds", bond_offsets),
        lengths=join("lengths"),
        angle_values=join("angle_values"),
        coords=join("coords"),
        atom_counts=join("atom_counts"),
        bond_counts=join("bond_counts"),
    )
