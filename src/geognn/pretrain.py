"""Self-supervised objectives: masked bond lengths, masked bond angles,
binned atomic distances, and optional fingerprint reconstruction.

Each target is read from its own molecule by the loss that uses it: the
masked lengths and angles come from the pack's masking, the fingerprint
bits from each molecule as is, and the distance bins from each prepared
molecule (``PreparedMolecule.distance_bins``), which bins its atom pairs
the first time the distance loss reads them and then keeps the bin ids.

``loss_pre`` packs the molecules into one graph (at most ``PACK_SIZE`` at
a time, as the distance task's pairs grow with the square of a molecule's
atoms), masks the pack, each molecule with its own stream, and runs one
forward pass per pack. Each task loss is a weighted sum over the pack's
rows that equals the sum of the molecules' own mean losses; the distance
task shares the same pass. Its head reads a pair in either order alike, so
its loss, ``tensor.pair_mlp_cross_entropy``, scores each unordered atom pair
of each molecule once, straight from the atom rows, a tile of whole rows of
one molecule at a time, so no pair row outlives its tile of at most
``tensor.TILE_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, check_choice
from .features import EncodedGraph
from .geometry import DualGraph, distance_matrix, pack_graphs
from .masking import MaskTargets, mask_context
from .model import GeoGNN, GraphEmbedding
from .molio import Molecule
from .rng import Rng
from .tensor import Tensor

TASKS = ("length", "angle", "distance", "fingerprint")
# the tasks and the masked fraction of a run that names none
DEFAULT_TASKS = ("length", "angle", "distance")
DEFAULT_MASK_RATIO = 0.15

# most molecules in one packed forward pass, in loss_pre and in the unions of
# training.featurized_packs: a pack's activations, and its distance pairs, grow with it
PACK_SIZE = 32


def in_packs(items: Sequence) -> list:
    """Consecutive runs of at most PACK_SIZE items."""
    return [items[start : start + PACK_SIZE] for start in range(0, len(items), PACK_SIZE)]


def check_tasks(tasks) -> None:
    """Reject anything but a non-empty list or tuple of names in TASKS."""
    if not (isinstance(tasks, (list, tuple)) and tasks):
        raise ConfigError(f"pretrain tasks must be a non-empty list of names in {list(TASKS)}")
    for task in tasks:
        check_choice("pretrain task", task, TASKS)


def build_targets(graph: DualGraph, molecule: Molecule, num_bins: int) -> np.ndarray:
    """The distance bin of each atom pair (i, j) with j >= i of one molecule,
    i-major, V * (V + 1) / 2 of them: the distance in whole units, the last
    of ``num_bins`` bins taking every longer one, as the smallest unsigned
    integers that hold them. ``graph`` is the molecule's union of one."""
    with np.errstate(all="ignore"):  # far-apart atoms overflow: named below
        dists = distance_matrix(graph.coords)[np.triu_indices(graph.num_atoms)]
    if not np.all(np.isfinite(dists)):
        raise DataError(f"molecule {molecule.id}: non-finite atomic distance")
    # clamped before the cast: a long distance has no small integer
    return np.minimum(dists, num_bins - 1).astype(np.min_scalar_type(num_bins - 1))


def _masked_mse(head, h_atoms: Tensor, atoms: np.ndarray, targets: np.ndarray,
                weights: np.ndarray) -> Tensor:
    """``tensor.squared_error``, a weighted sum over rows, of head(h[atoms[:, 0]],
    h[atoms[:, 1]], ...) against targets; zero when there are no rows."""
    rows = [T.gather_rows(h_atoms, atoms[:, j]) for j in range(atoms.shape[1])]
    return T.squared_error(head(*rows), targets.reshape(-1, 1), weights.reshape(-1, 1))


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
    nothing. The head reads (i, j) and (j, i) alike, so each pair (i, j) with
    j >= i is scored once, weighing 2 / V^2 off the diagonal and 1 / V^2 on
    it. ``bin_ids`` holds each molecule's ``build_targets`` in turn."""
    counts, mol = graph.atom_counts, graph.atom_graph
    # atom i's pairs are (i, i), (i, i + 1), ..., and the first weighs half
    row_pairs = graph.atom_offsets[mol] + counts[mol] - np.arange(graph.num_atoms)
    weights = np.repeat(np.where(counts > 1, 2.0 / counts**2, 0.0)[mol], row_pairs)
    weights[np.cumsum(row_pairs) - row_pairs] /= 2.0
    head = [model.store[f"head_distance.{name}"] for name in ("l1.w", "l1.b", "l2.w", "l2.b")]
    return T.pair_mlp_cross_entropy(emb.h_atoms, counts, *head, bin_ids, weights)


def loss_fingerprint(model: GeoGNN, emb: GraphEmbedding,
                     molecules: Sequence[Molecule]) -> Tensor:
    """Sum over molecules of the mean binary cross-entropy with logits over
    their fingerprint bits; a molecule without bits adds nothing."""
    width = model.config.fingerprint_bits
    bits = np.full((len(molecules), width), np.nan)
    for row, molecule in zip(bits, molecules):
        if molecule.fingerprint is not None:
            if len(molecule.fingerprint) != width:
                raise DataError(f"fingerprint width {len(molecule.fingerprint)} does not match "
                                f"the model ({width})")
            row[:] = molecule.fingerprint
    present = ~np.isnan(bits)
    logits = model.head_fingerprint(emb.h_graph)
    return T.bce_with_logits(logits, np.where(present, bits, 0.0), present / width)


@dataclass
class PreparedMolecule:
    """A molecule with its graph and features. Its distance bins, the
    distance task's target, are built on first read and kept."""

    molecule: Molecule
    graph: DualGraph
    encoded: EncodedGraph
    _bins: tuple[int, np.ndarray] | None = field(default=None, init=False, repr=False)

    def distance_bins(self, num_bins: int) -> np.ndarray:
        """``build_targets`` of this molecule into ``num_bins`` bins."""
        if self._bins is None or self._bins[0] != num_bins:
            self._bins = num_bins, build_targets(self.graph, self.molecule, num_bins)
        return self._bins[1]


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
    counts = np.column_stack((graph.atom_counts, graph.bond_counts, graph.angle_counts))
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
    tasks: tuple[str, ...] = DEFAULT_TASKS,
    mask_ratio: float = DEFAULT_MASK_RATIO,
    mode: str = "train",
) -> tuple[Tensor, dict[str, float]]:
    """Mean pretraining loss over a batch of molecules, one rng each, and the
    mean of each task's loss. A molecule is masked with its rng's "mask"
    fork and drops out with its "dropout" fork. The loss is one
    ``tensor.scaled_sum`` of every pack's task losses over the batch size."""
    check_tasks(tasks)
    if not batch:
        raise ConfigError("empty pretraining batch")
    if len(rngs) != len(batch):
        raise ConfigError("need one rng per molecule")
    terms: list[Tensor] = []
    sums: dict[str, float] = {}
    for items, streams in zip(in_packs(batch), in_packs(rngs)):
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
            bins = model.config.distance_bins
            bin_ids = np.concatenate([item.distance_bins(bins) for item in items])
            parts["distance"] = loss_distance(model, emb, graph, bin_ids)
        if "fingerprint" in tasks and any(i.molecule.fingerprint is not None for i in items):
            parts["fingerprint"] = loss_fingerprint(model, emb, [i.molecule for i in items])
        for name, part in parts.items():
            terms.append(part)
            sums[name] = sums.get(name, 0.0) + part.item()
    if not terms:  # only the fingerprint task, and no molecule has one
        return Tensor(np.zeros((), dtype=model.config.dtype)), {}
    scale = 1.0 / len(batch)
    return T.scaled_sum(terms, scale), {k: v * scale for k, v in sums.items()}
