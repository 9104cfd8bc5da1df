"""The dual-graph message passing network.

Per iteration, bond vectors are updated on the bond-angle graph (messages
combine the two bond states of each angle with the projected angle
features) and atom vectors are updated on the atom-bond graph (messages
combine the two endpoint states with the bond state). Both updates read
the previous iteration's states, matching the update equations rather
than a sequential bond-then-atom sweep. Both apply one rule in two taped
ops: ``tensor.aggregate``, the GIN-style sum aggregation, then
``tensor.node_update``, a 2-layer MLP, layer norm, graph-size norm
(divide by sqrt of the node count of the respective graph), a residual
connection, and dropout. Each edge list's scatter indices are built once
per forward pass, as a ``tensor.Edges``.

A forward pass runs over a ``DualGraph``, the disjoint union of one or
more molecules' dual graphs, one row per atom, bond or angle of any
molecule. The parts that look at whole molecules act per molecule: each
row's graph-size norm counts its own molecule's nodes, the readout is a
segment mean over each molecule's atom rows, and each molecule draws its
dropout masks from its own stream.

The geometry heads are 2-layer MLPs. Length and angle concatenate the
atom rows of the few masked bonds and angles. The distance head scores
all V^2 ordered atom pairs of each molecule, and only its loss is used:
``pretrain.loss_distance`` runs it as one op, ``tensor.pair_mlp_cross_entropy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from itertools import chain
from typing import Iterator

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, NumericalError, check_int, check_real
from .features import EncodedGraph, FeatureConfig
from .geometry import DualGraph
from .rng import BlockRng, Rng
from .tensor import Tensor


@dataclass
class ModelConfig:
    num_blocks: int = 8
    hidden: int = 32
    dropout: float = 0.2
    distance_bins: int = 30
    geom_head_hidden: int = 256
    down_head_hidden: int = 128
    fingerprint_bits: int = 0   # 0 disables the fingerprint head
    num_tasks: int = 1
    precision: str = "f64"

    def validate(self) -> "ModelConfig":
        for name, lo in (("num_blocks", 1), ("hidden", 1), ("distance_bins", 2),
                         ("geom_head_hidden", 1), ("down_head_hidden", 1),
                         ("fingerprint_bits", 0), ("num_tasks", 0)):
            check_int(name, getattr(self, name), lo)
        check_real("dropout", self.dropout, 0.0)
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must lie in [0, 1)")
        if self.precision not in ("f32", "f64"):
            raise ConfigError("precision must be f32 or f64")
        return self

    @property
    def dtype(self):
        return np.float32 if self.precision == "f32" else np.float64

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelConfig":
        return cls(**obj).validate()


class ParamStore:
    """Named trainable tensors plus the optimizer's state.

    Once built by ``flat``, one buffer holds every parameter, in store order,
    and each tensor's ``.data`` is a view of it: the optimizer updates the
    buffer in place, so an alias of a tensor's data sees every later step,
    while ``copy`` takes a snapshot. Set a parameter by writing its ``.data``
    in place: rebinding it would detach it from the buffer.

    ``moments`` is None until the first Adam step, then Adam's (m, v), flat
    like the buffer; ``stepped`` names the parameters a step has had a
    gradient for (the others' moments are still zero); ``scratch`` holds a
    step's gathered gradient and one work array.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = dtype
        self._params: dict[str, Tensor] = {}
        self._flat: np.ndarray | None = None
        self.moments: tuple[np.ndarray, np.ndarray] | None = None
        self.stepped: set[str] = set()
        self.scratch: tuple[np.ndarray, np.ndarray] | None = None
        self.step = 0

    def put(self, name: str, data) -> Tensor:
        """Install a new trainable tensor holding a copy of data in the store's
        dtype. A store whose optimizer has taken a step takes no new tensor."""
        if name in self._params:
            raise ConfigError(f"duplicate parameter {name}")
        if self.moments is not None:
            raise ConfigError(f"cannot add parameter {name} after an optimizer step")
        tensor = Tensor(np.array(data, dtype=self.dtype), requires_grad=True)
        self._params[name] = tensor
        self._flat = self.scratch = None
        return tensor

    def flat(self) -> np.ndarray:
        """The one buffer of every parameter in store order, built on first
        call by copying each tensor in and making its ``.data`` a view of it."""
        if self._flat is None:
            flat = np.empty(sum(t.size for t in self._params.values()), dtype=self.dtype)
            for t, view in zip(self._params.values(), self._views(flat)):
                view[...] = t.data
                t.data = view
            self._flat = flat
        return self._flat

    def _views(self, flat: np.ndarray) -> Iterator[np.ndarray]:
        """Each tensor's place in ``flat``, in store order, shaped as the tensor."""
        start = 0
        for t in self._params.values():
            yield flat[start : start + t.size].reshape(t.shape)
            start += t.size

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def copy(self) -> "ParamStore":
        """A copy of the parameters, as one copy of the buffer; the clone
        starts at step 0 with no moments."""
        clone = ParamStore(dtype=self.dtype)
        clone._flat = self.flat().copy()
        clone._params = {name: Tensor(view, requires_grad=True)
                         for name, view in zip(self._params, self._views(clone._flat))}
        return clone


def parameter_table(
    config: ModelConfig, atom_width: int, bond_width: int, angle_width: int
) -> Iterator[tuple[str, tuple[int, ...], int | None]]:
    """(name, shape, fan_in) of every GeoGNN parameter, in store order, for
    feature rows of the given widths; layer-norm parameters have no fan-in.
    Yielded one at a time, so a reader can stop before the blocks run out."""
    h, g, d = config.hidden, config.geom_head_hidden, config.down_head_hidden
    embeds = [("embed.atom", atom_width, h), ("embed.bond", bond_width, h),
              ("embed.angle", angle_width, h)]
    blocks = ((f"block{k}.{s}.{layer}", n_in, h)
              for k in range(config.num_blocks) for s in ("bond", "atom")
              for layer, n_in in (("mlp1", h), ("mlp2", h), ("norm", None)))
    heads = [("head_length.l1", 2 * h, g), ("head_length.l2", g, 1),
             ("head_angle.l1", 3 * h, g), ("head_angle.l2", g, 1),
             ("head_distance.l1", 2 * h, g), ("head_distance.l2", g, config.distance_bins)]
    if config.fingerprint_bits > 0:
        heads.append(("head_fp.l1", h, config.fingerprint_bits))
    if config.num_tasks > 0:
        heads += [("head_down.l1", h, d), ("head_down.l2", d, d),
                  ("head_down.l3", d, config.num_tasks)]
    for name, n_in, n_out in chain(embeds, blocks, heads):
        if n_in is None:
            yield f"{name}.gain", (n_out,), None
            yield f"{name}.bias", (n_out,), None
        else:
            yield f"{name}.w", (n_in, n_out), n_in
            yield f"{name}.b", (n_out,), n_in


def init_params(config: ModelConfig, features: FeatureConfig, rng: Rng,
                given: ParamStore | None = None) -> ParamStore:
    """Every GeoGNN parameter, in store order: a copy of the tensor of that
    name in ``given`` where it has one (ConfigError if its shape differs),
    else drawn: linear layers uniformly in +-1/sqrt(fan_in), each from its
    own name's fork of ``rng``; layer norms with unit gain and zero bias."""
    store = ParamStore(dtype=config.dtype)
    widths = (features.atom_width, features.bond_width, features.angle_width)
    for name, shape, fan_in in parameter_table(config, *widths):
        if given is not None and name in given:
            if given[name].shape != shape:
                raise ConfigError(f"parameter {name}: shape mismatch")
            store.put(name, given[name].data)
        elif fan_in is None:
            store.put(name, np.full(shape, 1.0 if name.endswith(".gain") else 0.0))
        else:
            bound = 1.0 / math.sqrt(fan_in)
            store.put(name, rng.fork(name).uniform_array(shape, -bound, bound))
    return store


@dataclass
class GraphEmbedding:
    h_atoms: Tensor   # [V, hidden]
    h_graph: Tensor   # [B, hidden], mean over each molecule's atom rows


def _row_scale(counts: np.ndarray, dtype) -> np.ndarray:
    """Graph-size norm per row of graphs with ``counts`` rows each: 1/sqrt of
    its graph's row count, as an [n, 1] column."""
    scale = 1.0 / np.sqrt(np.maximum(counts, 1))
    return np.repeat(scale, counts).reshape(-1, 1).astype(dtype)


class GeoGNN:
    """Dual-graph encoder with geometry, fingerprint and downstream heads."""

    def __init__(self, config: ModelConfig, rng: Rng | None = None,
                 store: ParamStore | None = None):
        self.config = config.validate()
        self.features = FeatureConfig()
        if store is not None:
            self.store = store
        else:
            if rng is None:
                raise ConfigError("either an rng (fresh init) or a store is required")
            self.store = init_params(self.config, self.features, rng.fork("init"))

    # --- parameters ---------------------------------------------------------

    def _apply_linear(self, name: str, x: Tensor) -> Tensor:
        return T.affine(x, self.store[f"{name}.w"], self.store[f"{name}.b"])

    def _update(self, base: str, messages: Tensor, residual: Tensor, scale: np.ndarray,
                rng: BlockRng | None, training: bool) -> Tensor:
        names = ("mlp1.w", "mlp1.b", "mlp2.w", "mlp2.b", "norm.gain", "norm.bias")
        return T.node_update(messages, residual, scale,
                             *(self.store[f"{base}.{name}"] for name in names),
                             self.config.dropout, rng, training)

    # --- forward ------------------------------------------------------------

    def forward(
        self,
        graph: DualGraph,
        encoded: EncodedGraph,
        mode: str = "eval",
        rng: list[Rng] | None = None,
    ) -> GraphEmbedding:
        """Encode the molecules of ``graph``: ``encoded`` holds its feature
        rows and ``rng`` one dropout stream per molecule (train mode)."""
        if mode not in ("train", "eval"):
            raise ConfigError(f"mode must be train or eval, got {mode!r}")
        if mode == "train" and self.config.dropout > 0.0 and rng is None:
            raise ConfigError("training-mode forward needs an rng for dropout")
        if rng is not None and len(rng) != graph.num_graphs:
            raise ConfigError(f"{len(rng)} dropout streams for {graph.num_graphs} molecules")
        if encoded.atom.shape[1] != self.features.atom_width:
            raise DataError(
                f"atom feature width {encoded.atom.shape[1]} does not match "
                f"the configured layout ({self.features.atom_width})"
            )

        dtype = self.config.dtype
        h_atom = self._apply_linear("embed.atom", Tensor(np.asarray(encoded.atom, dtype=dtype)))
        h_bond = self._apply_linear("embed.bond", Tensor(np.asarray(encoded.bond, dtype=dtype)))
        x_angle = self._apply_linear("embed.angle", Tensor(np.asarray(encoded.angle, dtype=dtype)))

        atom_scale = _row_scale(graph.atom_counts, dtype)
        bond_scale = _row_scale(graph.bond_counts, dtype)
        hidden = self.config.hidden
        bond_edges = T.Edges(graph.bonds, h_atom.shape[0], hidden)
        angle_edges = T.Edges(graph.angle_bonds, h_bond.shape[0], hidden)
        atom_rng = bond_rng = None
        if rng is not None:
            atom_rng, bond_rng = BlockRng(rng, graph.atom_counts), BlockRng(rng, graph.bond_counts)
        training = mode == "train"

        for k in range(self.config.num_blocks):
            try:
                # bonds on the bond-angle graph, then atoms on the atom-bond
                # graph, both from iteration k-1 states; each molecule's bond
                # dropout draws come before its atom draws
                new_bond = self._update(f"block{k}.bond", T.aggregate(h_bond, angle_edges, x_angle),
                                        h_bond, bond_scale, bond_rng, training)
                new_atom = self._update(f"block{k}.atom", T.aggregate(h_atom, bond_edges, h_bond),
                                        h_atom, atom_scale, atom_rng, training)
            except NumericalError as err:
                raise NumericalError(f"block {k}: {err}") from None

            h_bond, h_atom = new_bond, new_atom

        sums = T.segment_sum(h_atom, graph.atom_graph, graph.num_graphs)
        h_graph = T.div(sums, Tensor(graph.atom_counts.reshape(-1, 1), dtype=dtype))
        return GraphEmbedding(h_atoms=h_atom, h_graph=h_graph)

    # --- heads ---------------------------------------------------------------

    def _mlp2(self, prefix: str, x: Tensor) -> Tensor:
        return self._apply_linear(f"{prefix}.l2", T.relu(self._apply_linear(f"{prefix}.l1", x)))

    def head_length(self, h_u: Tensor, h_v: Tensor) -> Tensor:
        """Scalar bond length prediction per row pair; returns [m, 1]."""
        return self._mlp2("head_length", T.concat([h_u, h_v], axis=1))

    def head_angle(self, h_w: Tensor, h_u: Tensor, h_v: Tensor) -> Tensor:
        """Scalar angle prediction; the center atom goes in the middle slot."""
        return self._mlp2("head_angle", T.concat([h_w, h_u, h_v], axis=1))

    def head_fingerprint(self, h_graph: Tensor) -> Tensor:
        """Fingerprint logits, one row per molecule."""
        if self.config.fingerprint_bits <= 0:
            raise ConfigError("fingerprint head is disabled (fingerprint_bits == 0)")
        return self._apply_linear("head_fp.l1", h_graph)

    def head_downstream(self, h_graph: Tensor) -> Tensor:
        """Task predictions, one row per molecule."""
        if self.config.num_tasks <= 0:
            raise ConfigError("downstream head is disabled (num_tasks == 0)")
        x = T.relu(self._apply_linear("head_down.l1", h_graph))
        x = T.relu(self._apply_linear("head_down.l2", x))
        return self._apply_linear("head_down.l3", x)
