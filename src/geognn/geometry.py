"""Dual-graph construction: atoms/bonds on one side, bonds/angles on the other.

From a molecule with 3D coordinates this derives
  - the atom-bond graph (atoms as nodes, bonds as edges),
  - the bond-angle graph (bonds as nodes, one edge per pair of bonds
    sharing an atom),
  - bond lengths and bond angles in radians, kept with the coordinates.

A ``DualGraph`` is always a disjoint union of one or more molecules: one
molecule is a union of one, and ``pack_graphs`` joins several, so a batch
of molecules runs through the network as a single graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError
from .molio import Molecule


def angle_between(p_w, p_u, p_v) -> float:
    """Angle at p_u between the arms to p_w and p_v, in [0, pi]."""
    a = np.asarray(p_w, dtype=np.float64) - np.asarray(p_u, dtype=np.float64)
    b = np.asarray(p_v, dtype=np.float64) - np.asarray(p_u, dtype=np.float64)
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise DataError("degenerate angle: zero-length arm")
    cosine = float(np.dot(a, b)) / (na * nb)
    return math.acos(max(-1.0, min(1.0, cosine)))


def distance_matrix(coords: np.ndarray) -> np.ndarray:
    """[V, V] Euclidean distances between the rows of ``coords``."""
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


@dataclass
class DualGraph:
    """The dual graphs of one or more molecules as one disjoint union.

    Atom ids in ``bonds`` and ``angles`` are offset by the atoms of the
    molecules before, and bond ids in ``angle_bonds`` by their bonds; rows
    of every array come molecule by molecule. ``build_dual_graph`` makes a
    union of one and ``pack_graphs`` joins unions.
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


def build_dual_graph(molecule: Molecule) -> DualGraph:
    """The dual graph of one molecule: a union of one."""
    num_atoms = len(molecule.atoms)
    coords = np.asarray(molecule.coords, dtype=np.float64).reshape(num_atoms, 3)

    bond_keys = sorted((min(b.a, b.b), max(b.a, b.b)) for b in molecule.bonds)
    bonds = np.asarray(bond_keys, dtype=np.int64).reshape(len(bond_keys), 2)
    # bonded distances are read from the distance matrix, so the two agree exactly
    lengths = distance_matrix(coords)[bonds[:, 0], bonds[:, 1]]
    for idx, length in enumerate(lengths):
        if length == 0.0:
            raise DataError(
                f"molecule {molecule.id}: coincident bonded atoms {tuple(bonds[idx])}"
            )

    incident: list[list[tuple[int, int]]] = [[] for _ in range(num_atoms)]
    for e, (a, b) in enumerate(bond_keys):
        incident[a].append((b, e))
        incident[b].append((a, e))

    angle_rows = []
    angle_bond_rows = []
    angle_vals = []
    for u in range(num_atoms):
        neighbors = sorted(incident[u])
        for i in range(len(neighbors)):
            for j in range(i + 1, len(neighbors)):
                w, e1 = neighbors[i]
                v, e2 = neighbors[j]
                angle_rows.append((w, u, v))
                angle_bond_rows.append((e1, e2))
                angle_vals.append(angle_between(coords[w], coords[u], coords[v]))

    return DualGraph(
        bonds=bonds,
        angles=np.asarray(angle_rows, dtype=np.int64).reshape(len(angle_rows), 3),
        angle_bonds=np.asarray(angle_bond_rows, dtype=np.int64).reshape(len(angle_rows), 2),
        lengths=lengths,
        angle_values=np.asarray(angle_vals, dtype=np.float64),
        coords=coords,
        atom_counts=np.array([num_atoms], dtype=np.int64),
        bond_counts=np.array([len(bond_keys)], dtype=np.int64),
    )


def pack_graphs(graphs: Sequence[DualGraph]) -> DualGraph:
    """The disjoint union of one or more dual graphs, in the order given."""
    atom_counts = np.array([g.num_atoms for g in graphs], dtype=np.int64)
    bond_counts = np.array([g.num_bonds for g in graphs], dtype=np.int64)
    atom_offsets = np.cumsum(atom_counts) - atom_counts
    bond_offsets = np.cumsum(bond_counts) - bond_counts

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
