"""Context masking for the geometry pretraining tasks.

A fraction of atoms is selected; each selected atom, its incident bonds,
and every angle centered at it have their features replaced by the mask
vector (all-zero features with the trailing is-masked indicator set);
that column is the only record of what is masked. The true lengths and
angles of the masked entities become the targets, each weighted so that
a molecule's rows sum to its mean; ``pack_targets`` joins the targets of
a packed batch.
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


def mask_context(
    graph: DualGraph, encoded: EncodedGraph, ratio: float, rng: Rng
) -> tuple[EncodedGraph, MaskTargets]:
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"mask ratio must lie in (0, 1], got {ratio}")
    num_atoms = graph.num_atoms
    count = max(1, round(ratio * num_atoms))
    selected = rng.sample(num_atoms, count)
    bond_ids = np.flatnonzero(np.isin(graph.bonds, selected).any(axis=1))
    angle_ids = np.flatnonzero(np.isin(graph.angles[:, 1], selected))

    masked = encoded.copy()
    _mask_rows(masked.atom, selected)
    _mask_rows(masked.bond, bond_ids)
    _mask_rows(masked.angle, angle_ids)

    targets = MaskTargets(
        bond_atoms=graph.bonds[bond_ids],
        bond_lengths=graph.lengths[bond_ids],
        bond_weights=np.full(bond_ids.size, 1.0 / max(bond_ids.size, 1)),
        angle_atoms=graph.angles[angle_ids],
        angle_values=graph.angle_values[angle_ids],
        angle_weights=np.full(angle_ids.size, 1.0 / max(angle_ids.size, 1)),
    )
    return masked, targets


def pack_targets(parts: list[MaskTargets], atom_offsets: np.ndarray) -> MaskTargets:
    """The targets of a packed batch: atom ids offset like the packed graph's."""
    def joined(name: str, offsets=None) -> np.ndarray:
        arrays = [getattr(p, name) for p in parts]
        if offsets is not None:
            arrays = [a + o for a, o in zip(arrays, offsets)]
        return np.concatenate(arrays)

    return MaskTargets(
        bond_atoms=joined("bond_atoms", atom_offsets),
        bond_lengths=joined("bond_lengths"),
        bond_weights=joined("bond_weights"),
        angle_atoms=joined("angle_atoms", atom_offsets),
        angle_values=joined("angle_values"),
        angle_weights=joined("angle_weights"),
    )
