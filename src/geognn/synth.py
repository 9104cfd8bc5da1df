"""Synthetic molecule generation for tests, demos and small-scale training.

The generator grows a random tree with chemically plausible bond lengths,
occasionally closes a ring, and attaches hydrogens as leaves. It is not a
chemistry engine; it produces structurally valid inputs with non-trivial
geometry.
"""

from __future__ import annotations

import math

from .geometry import build_dual_graph
from .molio import Atom, Bond, Molecule
from .rng import Rng

_HEAVY = ("C", "C", "C", "C", "C", "N", "N", "O", "O", "F", "S", "Cl")
_MAX_DEGREE = {"C": 4, "N": 3, "O": 2, "F": 1, "S": 2, "Cl": 1, "H": 1}


def _unit_vector(rng: Rng) -> tuple[float, float, float]:
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return (r * math.cos(phi), r * math.sin(phi), z)


def random_molecule(
    rng: Rng,
    min_atoms: int = 4,
    max_atoms: int = 12,
    ring_probability: float = 0.3,
    mol_id: str = "synthetic",
) -> Molecule:
    num_atoms = min_atoms + rng.below(max_atoms - min_atoms + 1)
    elements = ["C"]
    for _ in range(num_atoms - 1):
        roll = rng.uniform()
        elements.append("H" if roll < 0.25 else _HEAVY[rng.below(len(_HEAVY))])

    coords: list[tuple[float, float, float]] = [(0.0, 0.0, 0.0)]
    bonds: list[tuple[int, int]] = []
    degree = [0] * num_atoms
    for i in range(1, num_atoms):
        parents = [
            j
            for j in range(i)
            if elements[j] != "H" and degree[j] < _MAX_DEGREE[elements[j]]
        ]
        if not parents:
            elements[i] = "C"  # restart growth from any atom with capacity
            parents = [j for j in range(i) if degree[j] < 6]
        parent = parents[rng.below(len(parents))]
        for _ in range(40):
            length = rng.uniform(1.0, 1.7)
            d = _unit_vector(rng)
            px, py, pz = coords[parent]
            pos = (px + length * d[0], py + length * d[1], pz + length * d[2])
            if all(
                (pos[0] - qx) ** 2 + (pos[1] - qy) ** 2 + (pos[2] - qz) ** 2 > 0.64
                for qx, qy, qz in coords
            ):
                break
        coords.append(pos)
        bonds.append((parent, i))
        degree[parent] += 1
        degree[i] += 1

    if num_atoms >= 4 and rng.uniform() < ring_probability:
        existing = {(min(a, b), max(a, b)) for a, b in bonds}
        candidates = []
        for a in range(num_atoms):
            for b in range(a + 1, num_atoms):
                if (a, b) in existing or elements[a] == "H" or elements[b] == "H":
                    continue
                if degree[a] >= _MAX_DEGREE[elements[a]] or degree[b] >= _MAX_DEGREE[elements[b]]:
                    continue
                ax, ay, az = coords[a]
                bx, by, bz = coords[b]
                dist = math.sqrt((ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2)
                if 1.0 < dist < 2.2:
                    candidates.append((a, b))
        if candidates:
            a, b = candidates[rng.below(len(candidates))]
            bonds.append((a, b))

    return Molecule(
        id=mol_id,
        atoms=[Atom(element=e) for e in elements],
        bonds=[Bond(a=a, b=b) for a, b in bonds],
        coords=coords,
    ).validate()


def geometry_label(molecule: Molecule) -> float:
    """Smooth scalar target built from mean bond length and mean bond angle."""
    graph = build_dual_graph(molecule)
    mean_length = float(graph.lengths.mean()) if graph.num_bonds else 0.0
    mean_angle = float(graph.angle_values.mean()) if graph.num_angles else 0.0
    return mean_length + math.cos(mean_angle)
