"""Self-supervised objectives: masked bond lengths, masked bond angles,
binned atomic distances, and optional fingerprint reconstruction.

The per-molecule loss runs one masked forward pass and sums the enabled
task losses; the distance task shares that same pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError
from .features import EncodedGraph
from .geometry import DualGraph
from .masking import MaskTargets, mask_context
from .model import GeoGNN, GraphEmbedding
from .molio import Molecule
from .rng import Rng
from .tensor import Tensor

TASKS = ("length", "angle", "distance", "fingerprint")


def check_tasks(tasks) -> None:
    """Reject an empty task list or a name outside TASKS."""
    if not tasks or not set(tasks) <= set(TASKS):
        raise ConfigError(
            f"pretrain tasks must be a non-empty subset of {list(TASKS)}, got {list(tasks)}"
        )


@dataclass
class PretrainTargets:
    distance_bin_ids: np.ndarray      # [V*V] bin index per ordered atom pair
    fingerprint: np.ndarray | None    # [B] bits or None


def build_targets(graph: DualGraph, molecule: Molecule, num_bins: int) -> PretrainTargets:
    dists = graph.dist_matrix.reshape(-1)
    if np.any(dists < 0):
        raise DataError("negative distance in matrix")
    bins = np.minimum(dists.astype(np.int64), num_bins - 1)
    fingerprint = (
        np.asarray(molecule.fingerprint, dtype=np.float64)
        if molecule.fingerprint is not None
        else None
    )
    return PretrainTargets(distance_bin_ids=bins, fingerprint=fingerprint)


def _masked_mse(head, h_atoms: Tensor, atoms: np.ndarray, targets: np.ndarray) -> Tensor:
    """Mean squared error of head(h[atoms[:, 0]], h[atoms[:, 1]], ...) against
    targets, one row per masked entity; zero when nothing is masked."""
    m = targets.size
    if m == 0:
        return Tensor(np.zeros(()))
    rows = [T.gather_rows(h_atoms, atoms[:, j]) for j in range(atoms.shape[1])]
    diff = T.sub(head(*rows), Tensor(targets.reshape(m, 1)))
    return T.mul(T.sum_all(T.mul(diff, diff)), 1.0 / m)


def loss_length(model: GeoGNN, emb: GraphEmbedding, targets: MaskTargets) -> Tensor:
    """Mean squared error of predicted vs true lengths over masked bonds."""
    return _masked_mse(model.head_length, emb.h_atoms, targets.bond_atoms, targets.bond_lengths)


def loss_angle(model: GeoGNN, emb: GraphEmbedding, targets: MaskTargets) -> Tensor:
    """Mean squared error over masked angles; the center atom sits mid-triple."""
    return _masked_mse(model.head_angle, emb.h_atoms, targets.angle_atoms, targets.angle_values)


def loss_distance(
    model: GeoGNN, emb: GraphEmbedding, graph: DualGraph, bin_ids: np.ndarray
) -> Tensor:
    """Cross-entropy of binned distances over all ordered atom pairs,
    diagonal included."""
    n = graph.num_atoms
    if n < 2:
        return Tensor(np.zeros(()))
    u = np.repeat(np.arange(n), n)
    v = np.tile(np.arange(n), n)
    logits = model.head_distance(T.gather_rows(emb.h_atoms, u), T.gather_rows(emb.h_atoms, v))
    return T.softmax_cross_entropy(logits, bin_ids)


def loss_fingerprint(model: GeoGNN, emb: GraphEmbedding, bits: np.ndarray) -> Tensor:
    """Mean binary cross-entropy with logits over the fingerprint bits."""
    if bits.size == 0:
        return Tensor(np.zeros(()))
    if bits.size != model.config.fingerprint_bits:
        raise DataError(
            f"fingerprint width {bits.size} does not match the model "
            f"({model.config.fingerprint_bits})"
        )
    logits = model.head_fingerprint(emb.h_graph)
    return T.bce_with_logits(logits, Tensor(bits.reshape(1, -1)))


@dataclass
class PreparedMolecule:
    molecule: Molecule
    graph: DualGraph
    encoded: EncodedGraph


def molecule_pretrain_loss(
    model: GeoGNN,
    item: PreparedMolecule,
    rng: Rng,
    tasks: tuple[str, ...] = ("length", "angle", "distance"),
    mask_ratio: float = 0.15,
    mode: str = "train",
) -> tuple[Tensor, dict[str, float]]:
    """One masked forward pass; returns (total loss, per-task values)."""
    check_tasks(tasks)
    masked_enc, masked = mask_context(item.graph, item.encoded, mask_ratio, rng.fork("mask"))
    targets = build_targets(item.graph, item.molecule, model.config.distance_bins)
    emb = model.forward(item.graph, masked_enc, mode=mode, rng=rng.fork("dropout"))

    total = Tensor(np.zeros(()))
    parts: dict[str, float] = {}
    if "length" in tasks:
        part = loss_length(model, emb, masked)
        parts["length"] = part.item()
        total = T.add(total, part)
    if "angle" in tasks:
        part = loss_angle(model, emb, masked)
        parts["angle"] = part.item()
        total = T.add(total, part)
    if "distance" in tasks:
        part = loss_distance(model, emb, item.graph, targets.distance_bin_ids)
        parts["distance"] = part.item()
        total = T.add(total, part)
    if "fingerprint" in tasks and targets.fingerprint is not None:
        part = loss_fingerprint(model, emb, targets.fingerprint)
        parts["fingerprint"] = part.item()
        total = T.add(total, part)
    return total, parts


def loss_pre(
    model: GeoGNN,
    batch: list[PreparedMolecule],
    rngs: list[Rng],
    tasks: tuple[str, ...] = ("length", "angle", "distance"),
    mask_ratio: float = 0.15,
    mode: str = "train",
) -> tuple[Tensor, dict[str, float]]:
    """Mean pretraining loss over a batch of molecules, one rng each."""
    if not batch:
        raise ConfigError("empty pretraining batch")
    if len(rngs) != len(batch):
        raise ConfigError("need one rng per molecule")
    total = Tensor(np.zeros(()))
    sums: dict[str, float] = {}
    for item, rng in zip(batch, rngs):
        part, parts = molecule_pretrain_loss(
            model, item, rng, tasks=tasks, mask_ratio=mask_ratio, mode=mode
        )
        total = T.add(total, part)
        for k, v in parts.items():
            sums[k] = sums.get(k, 0.0) + v
    scale = 1.0 / len(batch)
    return T.mul(total, scale), {k: v * scale for k, v in sums.items()}
