"""Self-supervised objectives: masked bond lengths, masked bond angles,
binned atomic distances, and optional fingerprint reconstruction.

``loss_pre`` packs the molecules into one graph (at most ``PACK_SIZE`` at
a time, as the distance task's pairs grow with the square of a molecule's
atoms), masks the pack, each molecule with its own stream, and runs one
forward pass per pack. Each task loss is a weighted sum over the pack's
rows that equals the sum of the molecules' own mean losses; the distance
task shares the same pass. Its loss, ``tensor.pair_mlp_cross_entropy``,
scores every ordered atom pair of each molecule straight from the atom
rows, one molecule at a time, so no pair row outlives its molecule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError
from .features import EncodedGraph
from .geometry import DualGraph, distance_matrix, pack_graphs
from .masking import MaskTargets, mask_context
from .model import GeoGNN, GraphEmbedding
from .molio import Molecule
from .rng import Rng
from .tensor import Tensor

TASKS = ("length", "angle", "distance", "fingerprint")

# most molecules in one packed forward pass, in loss_pre and on the eval
# paths: a pack's activations, and its distance pairs, grow with it
PACK_SIZE = 32


def in_packs(items: Sequence) -> list:
    """Consecutive runs of at most PACK_SIZE items."""
    return [items[start : start + PACK_SIZE] for start in range(0, len(items), PACK_SIZE)]


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
    """Targets of one molecule: ``graph`` is its union of one."""
    with np.errstate(all="ignore"):  # far-apart atoms overflow: named below
        dists = distance_matrix(graph.coords).reshape(-1)
    if not np.all(np.isfinite(dists)):
        raise DataError(f"molecule {molecule.id}: non-finite atomic distance")
    # clamped before the cast: a distance of 2**63 or more has no int64
    bins = np.minimum(dists, num_bins - 1).astype(np.int64)
    fingerprint = (
        np.asarray(molecule.fingerprint, dtype=np.float64)
        if molecule.fingerprint is not None
        else None
    )
    return PretrainTargets(distance_bin_ids=bins, fingerprint=fingerprint)


def targets_of(items: Sequence[PreparedMolecule], num_bins: int) -> list[PretrainTargets]:
    """``build_targets`` of each prepared molecule, in order."""
    return [build_targets(item.graph, item.molecule, num_bins) for item in items]


def squared_error(pred: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Sum over the elements of weights * (pred - targets)^2; ``targets`` and
    ``weights`` have pred's shape."""
    diff = T.sub(pred, Tensor(targets, dtype=pred.dtype))
    return T.sum_all(T.mul(T.mul(diff, diff), Tensor(weights, dtype=pred.dtype)))


def _masked_mse(head, h_atoms: Tensor, atoms: np.ndarray, targets: np.ndarray,
                weights: np.ndarray) -> Tensor:
    """Weighted sum over rows of the squared error of head(h[atoms[:, 0]],
    h[atoms[:, 1]], ...) against targets; zero when there are no rows."""
    rows = [T.gather_rows(h_atoms, atoms[:, j]) for j in range(atoms.shape[1])]
    return squared_error(head(*rows), targets.reshape(-1, 1), weights.reshape(-1, 1))


def loss_length(model: GeoGNN, emb: GraphEmbedding, targets: MaskTargets) -> Tensor:
    """Sum over molecules of the mean squared error of predicted vs true
    lengths over their masked bonds."""
    return _masked_mse(model.head_length, emb.h_atoms, targets.bond_atoms, targets.bond_lengths,
                       targets.bond_weights)


def loss_angle(model: GeoGNN, emb: GraphEmbedding, targets: MaskTargets) -> Tensor:
    """Sum over molecules of the mean squared error over their masked
    angles; the center atom sits mid-triple."""
    return _masked_mse(model.head_angle, emb.h_atoms, targets.angle_atoms, targets.angle_values,
                       targets.angle_weights)


def loss_distance(
    model: GeoGNN, emb: GraphEmbedding, graph: DualGraph, bin_ids: np.ndarray
) -> Tensor:
    """Sum over molecules of the mean cross-entropy of binned distances over
    their ordered atom pairs, diagonal included; a one-atom molecule adds
    nothing. ``bin_ids`` holds each molecule's pairs in turn, row-major."""
    counts = graph.atom_counts
    weights = np.repeat(np.where(counts > 1, 1.0 / counts**2, 0.0), counts**2)
    head = [model.store[f"head_distance.{name}"] for name in ("l1.w", "l1.b", "l2.w", "l2.b")]
    return T.pair_mlp_cross_entropy(emb.h_atoms, counts, *head, bin_ids, weights)


def _check_fingerprint_width(width: int, model: GeoGNN) -> None:
    if width != model.config.fingerprint_bits:
        raise DataError(
            f"fingerprint width {width} does not match the model "
            f"({model.config.fingerprint_bits})"
        )


def loss_fingerprint(model: GeoGNN, emb: GraphEmbedding, bits: np.ndarray) -> Tensor:
    """Sum over molecules of the mean binary cross-entropy with logits over
    their fingerprint bits. ``bits`` has one row per molecule, NaN where a
    molecule has none. No bits at all add nothing."""
    if bits.size == 0:
        return Tensor(np.zeros((), dtype=model.config.dtype))
    _check_fingerprint_width(bits.shape[1], model)
    present = ~np.isnan(bits)
    logits = model.head_fingerprint(emb.h_graph)
    targets = Tensor(np.where(present, bits, 0.0), dtype=logits.dtype)
    return T.bce_with_logits(logits, targets, present / bits.shape[1])


def _fingerprint_rows(targets: list[PretrainTargets], model: GeoGNN) -> np.ndarray:
    """loss_fingerprint's bits for a pack: NaN rows for molecules without bits."""
    bits = np.full((len(targets), model.config.fingerprint_bits), np.nan)
    for row, t in zip(bits, targets):
        if t.fingerprint is not None and t.fingerprint.size:
            _check_fingerprint_width(t.fingerprint.size, model)
            row[:] = t.fingerprint
    return bits


@dataclass
class PreparedMolecule:
    molecule: Molecule
    graph: DualGraph
    encoded: EncodedGraph


def pack(items: Sequence[PreparedMolecule]) -> tuple[DualGraph, EncodedGraph]:
    """One graph and one feature set for several molecules: their disjoint union."""
    return pack_graphs([item.graph for item in items]), EncodedGraph(
        atom=np.concatenate([item.encoded.atom for item in items]),
        bond=np.concatenate([item.encoded.bond for item in items]),
        angle=np.concatenate([item.encoded.angle for item in items]),
    )


def unpack(molecules: Sequence[Molecule], graph: DualGraph,
           encoded: EncodedGraph) -> list[PreparedMolecule]:
    """``pack``'s inverse: each molecule with its own graph and views of its feature rows."""
    angle_counts = np.bincount(graph.bond_graph[graph.angle_bonds[:, 0]], minlength=len(molecules))
    counts = np.column_stack((graph.atom_counts, graph.bond_counts, angle_counts))
    ends = np.cumsum(counts, axis=0)
    return [
        PreparedMolecule(mol, DualGraph(
            graph.bonds[b0:b1] - a0, graph.angles[g0:g1] - a0, graph.angle_bonds[g0:g1] - b0,
            graph.lengths[b0:b1], graph.angle_values[g0:g1], graph.coords[a0:a1],
            graph.atom_counts[i : i + 1], graph.bond_counts[i : i + 1],
        ), EncodedGraph(encoded.atom[a0:a1], encoded.bond[b0:b1], encoded.angle[g0:g1]))
        for i, (mol, (a0, b0, g0), (a1, b1, g1))
        in enumerate(zip(molecules, (ends - counts).tolist(), ends.tolist()))
    ]


def loss_pre(
    model: GeoGNN,
    batch: list[PreparedMolecule],
    rngs: list[Rng],
    tasks: tuple[str, ...] = ("length", "angle", "distance"),
    mask_ratio: float = 0.15,
    mode: str = "train",
    targets: Sequence[PretrainTargets] | None = None,
) -> tuple[Tensor, dict[str, float]]:
    """Mean pretraining loss over a batch of molecules, one rng each, and the
    mean of each task's loss. A molecule is masked with its rng's "mask"
    fork and drops out with its "dropout" fork. ``targets`` holds each
    molecule's ``build_targets``, which never change: a run builds them once."""
    check_tasks(tasks)
    if not batch:
        raise ConfigError("empty pretraining batch")
    targets = targets if targets is not None else targets_of(batch, model.config.distance_bins)
    if len(rngs) != len(batch) or len(targets) != len(batch):
        raise ConfigError("need one rng and one target set per molecule")
    terms: list[Tensor] = []
    sums: dict[str, float] = {}
    for items, streams, wanted in zip(in_packs(batch), in_packs(rngs), in_packs(targets)):
        graph, encoded = pack(items)
        encoded, masked = mask_context(graph, encoded, mask_ratio,
                                       [rng.fork("mask") for rng in streams])
        emb = model.forward(graph, encoded, mode=mode, rng=[rng.fork("dropout") for rng in streams])

        parts: dict[str, Tensor] = {}
        if "length" in tasks:
            parts["length"] = loss_length(model, emb, masked)
        if "angle" in tasks:
            parts["angle"] = loss_angle(model, emb, masked)
        if "distance" in tasks:
            bin_ids = np.concatenate([t.distance_bin_ids for t in wanted])
            parts["distance"] = loss_distance(model, emb, graph, bin_ids)
        if "fingerprint" in tasks and any(t.fingerprint is not None for t in wanted):
            parts["fingerprint"] = loss_fingerprint(model, emb, _fingerprint_rows(wanted, model))
        for name, part in parts.items():
            terms.append(part)
            sums[name] = sums.get(name, 0.0) + part.item()
    if not terms:  # only the fingerprint task, and no molecule has one
        return Tensor(np.zeros((), dtype=model.config.dtype)), {}
    total = terms[0]
    for term in terms[1:]:
        total = T.add(total, term)
    scale = 1.0 / len(batch)
    return T.mul(total, scale), {k: v * scale for k, v in sums.items()}
