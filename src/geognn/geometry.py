"""Dual-graph construction: atoms/bonds on one side, bonds/angles on the other.

From a molecule with 3D coordinates this derives
  - the atom-bond graph (atoms as nodes, bonds as edges),
  - the bond-angle graph (bonds as nodes, one edge per pair of bonds
    sharing an atom),
  - bond lengths, bond angles in radians, and the all-pairs distance matrix.

``pack_graphs`` joins several dual graphs into one disjoint union, so a
batch of molecules runs through the network as a single graph.
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


@dataclass
class DualGraph:
    num_atoms: int
    bonds: np.ndarray        # [E, 2] atom indices, each row a < b, rows sorted
    angles: np.ndarray       # [A, 3] rows (w, u, v): bonds (u,w) and (u,v) share u
    angle_bonds: np.ndarray  # [A, 2] bond indices forming each angle
    lengths: np.ndarray      # [E] in the coordinate unit
    angle_values: np.ndarray  # [A] radians
    dist_matrix: np.ndarray  # [V, V]

    @property
    def num_bonds(self) -> int:
        return self.bonds.shape[0]

    @property
    def num_angles(self) -> int:
        return self.angles.shape[0]

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.num_atoms, dtype=np.int64)
        for a, b in self.bonds:
            deg[a] += 1
            deg[b] += 1
        return deg


def build_dual_graph(molecule: Molecule) -> DualGraph:
    num_atoms = len(molecule.atoms)
    coords = np.asarray(molecule.coords, dtype=np.float64).reshape(num_atoms, 3)

    diff = coords[:, None, :] - coords[None, :, :]
    dist_matrix = np.sqrt((diff * diff).sum(axis=-1))

    bond_keys = sorted((min(b.a, b.b), max(b.a, b.b)) for b in molecule.bonds)
    bonds = np.asarray(bond_keys, dtype=np.int64).reshape(len(bond_keys), 2)
    # bonded distances are read from the same matrix, so the two agree exactly
    lengths = (
        dist_matrix[bonds[:, 0], bonds[:, 1]] if len(bond_keys) else np.zeros(0)
    )
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
        num_atoms=num_atoms,
        bonds=bonds,
        angles=np.asarray(angle_rows, dtype=np.int64).reshape(len(angle_rows), 3),
        angle_bonds=np.asarray(angle_bond_rows, dtype=np.int64).reshape(len(angle_rows), 2),
        lengths=np.asarray(lengths, dtype=np.float64),
        angle_values=np.asarray(angle_vals, dtype=np.float64),
        dist_matrix=dist_matrix,
    )


@dataclass
class PackedGraph:
    """The disjoint union of dual graphs as one graph.

    Atom ids in ``bonds`` are offset by the atoms of the graphs before,
    and bond ids in ``angle_bonds`` by their bonds; ``atom_graph`` and
    ``bond_graph`` record the graph each atom and bond row came from.
    """

    bonds: np.ndarray        # [E, 2]
    angle_bonds: np.ndarray  # [A, 2]
    atom_graph: np.ndarray   # [V]
    bond_graph: np.ndarray   # [E]
    atom_counts: np.ndarray  # [B] atoms per graph
    bond_counts: np.ndarray  # [B] bonds per graph

    @property
    def num_graphs(self) -> int:
        return self.atom_counts.size

    @property
    def atom_offsets(self) -> np.ndarray:
        """Id of each graph's first atom."""
        return np.cumsum(self.atom_counts) - self.atom_counts


def pack_graphs(graphs: Sequence[DualGraph]) -> PackedGraph:
    """The disjoint union of one or more dual graphs, in the order given."""
    atom_counts = np.array([g.num_atoms for g in graphs], dtype=np.int64)
    bond_counts = np.array([g.num_bonds for g in graphs], dtype=np.int64)
    atom_offsets = np.cumsum(atom_counts) - atom_counts
    bond_offsets = np.cumsum(bond_counts) - bond_counts
    ids = np.arange(len(graphs))
    return PackedGraph(
        bonds=np.concatenate([g.bonds + o for g, o in zip(graphs, atom_offsets)]),
        angle_bonds=np.concatenate([g.angle_bonds + o for g, o in zip(graphs, bond_offsets)]),
        atom_graph=np.repeat(ids, atom_counts),
        bond_graph=np.repeat(ids, bond_counts),
        atom_counts=atom_counts,
        bond_counts=bond_counts,
    )
