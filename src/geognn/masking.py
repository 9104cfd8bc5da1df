"""Context masking for the geometry pretraining tasks.

A fraction of atoms is selected; each selected atom, its incident bonds,
and every angle centered at it have their features replaced by the mask
vector (all-zero features with the trailing is-masked indicator set);
that column is the only record of what is masked. The true lengths and
angles of the masked entities become the targets, each weighted so that
a molecule's rows sum to its mean. A packed batch is masked in one call,
each molecule drawing its atoms from its own stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .features import EncodedGraph
from .geometry import DualGraph
from .rng import Rng


@dataclass
class MaskTargets:
    bond_atoms: np.ndarray    # [m, 2] endpoints (u, v) of the masked bonds
    bond_lengths: np.ndarray  # [m]
    bond_weights: np.ndarray  # [m] 1 / (masked bonds of the row's molecule)
    angle_atoms: np.ndarray   # [t, 3] (w, u, v) with the center in the middle
    angle_values: np.ndarray  # [t] radians
    angle_weights: np.ndarray  # [t] 1 / (masked angles of the row's molecule)


def _mask_rows(matrix: np.ndarray, ids: np.ndarray) -> None:
    matrix[ids, :] = 0.0
    matrix[ids, -1] = 1.0


def _per_molecule_weights(row_graph: np.ndarray, num_graphs: int) -> np.ndarray:
    """1 / (rows of the same molecule) for each row."""
    return 1.0 / np.bincount(row_graph, minlength=num_graphs)[row_graph]


def mask_context(
    graph: DualGraph, encoded: EncodedGraph, ratio: float, rngs: list[Rng]
) -> tuple[EncodedGraph, MaskTargets]:
    """Mask the packed molecules of ``graph``, one rng each: molecule i
    masks max(1, round(ratio * V_i)) of its atoms, drawn by ``rngs[i]``."""
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"mask ratio must lie in (0, 1], got {ratio}")
    if len(rngs) != graph.num_graphs:
        raise ConfigError(f"{len(rngs)} mask streams for {graph.num_graphs} molecules")
    selected = np.zeros(graph.num_atoms, dtype=bool)
    for rng, n, offset in zip(rngs, graph.atom_counts.tolist(), graph.atom_offsets.tolist()):
        selected[offset + rng.sample(n, max(1, round(ratio * n)))] = True
    bond_ids = np.flatnonzero(selected[graph.bonds].any(axis=1))
    angle_ids = np.flatnonzero(selected[graph.angles[:, 1]])

    masked = encoded.copy()
    _mask_rows(masked.atom, np.flatnonzero(selected))
    _mask_rows(masked.bond, bond_ids)
    _mask_rows(masked.angle, angle_ids)

    angle_graph = graph.atom_graph[graph.angles[angle_ids, 1]]
    targets = MaskTargets(
        bond_atoms=graph.bonds[bond_ids],
        bond_lengths=graph.lengths[bond_ids],
        bond_weights=_per_molecule_weights(graph.bond_graph[bond_ids], graph.num_graphs),
        angle_atoms=graph.angles[angle_ids],
        angle_values=graph.angle_values[angle_ids],
        angle_weights=_per_molecule_weights(angle_graph, graph.num_graphs),
    )
    return masked, targets
