"""Independent reference computations shared by the test modules.

Everything here is deliberately implemented without the package's
autodiff or message-passing paths so it can serve as an oracle.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def central_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Gradient of scalar f at x by central differences, one entry at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-3) -> float:
    """Max elementwise |a-b| / max(|a|, |b|, floor).

    The floor keeps near-zero gradient entries from amplifying finite
    difference noise into spurious relative errors.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def softmax_ce_reference(logits: np.ndarray, one_hot: np.ndarray) -> float:
    """Direct formula: mean_i -sum_c t_ic * log(softmax(l_i)_c)."""
    total = 0.0
    for row, tgt in zip(logits, one_hot):
        exps = [math.exp(v) for v in row]
        z = sum(exps)
        total += -sum(t * math.log(e / z) for t, e in zip(tgt, exps))
    return total / logits.shape[0]


def masked_entities_reference(graph, chosen) -> tuple[list[int], list[int]]:
    """Per-edge enumeration of what masking the atoms ``chosen`` hides:
    the bonds with an endpoint in it and the angles centered in it."""
    chosen = {int(i) for i in chosen}
    bonds = [e for e in range(graph.num_bonds) if {int(a) for a in graph.bonds[e]} & chosen]
    angles = [t for t in range(graph.num_angles) if int(graph.angles[t, 1]) in chosen]
    return bonds, angles


def segment_sum_reference(values: np.ndarray, ids, k: int) -> np.ndarray:
    out = np.zeros((k, values.shape[1]))
    for row, i in zip(values, ids):
        out[i] += row
    return out


def layer_norm_reference(x, gain, bias, upstream, eps: float = 1e-5):
    """Layer norm's output and its (x, gain, bias) gradients at ``upstream``,
    the input gradient taken term by term through the variance and the mean."""
    d = x.shape[1]
    mu = x.mean(axis=1, keepdims=True, dtype=np.float64)
    centered = (x - mu).astype(x.dtype)
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    gxhat = upstream * gain
    dvar = (gxhat * centered * (-0.5) * inv_std**3).sum(axis=1, keepdims=True)
    dmu = (-gxhat * inv_std).sum(axis=1, keepdims=True) + dvar * (-2.0 / d) * centered.sum(
        axis=1, keepdims=True
    )
    gx = gxhat * inv_std + dvar * 2.0 * centered / d + dmu / d
    return xhat * gain + bias, gx, (upstream * xhat).sum(axis=0), upstream.sum(axis=0)


def aggregate_chain(h, pairs, x):
    """``tensor.aggregate`` as the 7 taped ops it replaced: gather both ends,
    add them and the edge row, and segment-sum the message to either end."""
    from geognn import tensor as T

    u, v = pairs[:, 0], pairs[:, 1]
    msg = T.add(T.add(T.gather_rows(h, u), T.gather_rows(h, v)), x)
    return T.add(T.segment_sum(msg, u, h.shape[0]), T.segment_sum(msg, v, h.shape[0]))


def node_update_chain(x, residual, scale, w1, b1, w2, b2, gain, bias, rate, rng, training):
    """``tensor.node_update`` as the 7 taped ops it replaced: affine, relu,
    affine, layer norm, the graph-size scale, the residual and dropout."""
    from geognn import tensor as T
    from geognn.tensor import Tensor

    out = T.layer_norm(T.affine(T.relu(T.affine(x, w1, b1)), w2, b2), gain, bias)
    return T.dropout(T.add(T.mul(out, Tensor(scale)), residual), rate, rng, training)


def angle_reference(pw, pu, pv) -> float:
    """arccos of the clamped normalized dot product of the two arms at pu."""
    a = np.asarray(pw, dtype=float) - np.asarray(pu, dtype=float)
    b = np.asarray(pv, dtype=float) - np.asarray(pu, dtype=float)
    c = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return math.acos(max(-1.0, min(1.0, c)))


def dual_graph_reference(molecule):
    """``build_dual_graph`` one bond and one angle at a time: bonds sorted as
    (min, max) tuples, angles enumerated per center from its sorted
    neighbor list, each angle by ``angle_reference``."""
    from geognn.errors import DataError
    from geognn.geometry import DualGraph, distance_matrix

    num_atoms = len(molecule.atoms)
    coords = np.asarray(molecule.coords, dtype=np.float64).reshape(num_atoms, 3)
    bond_keys = sorted((min(b.a, b.b), max(b.a, b.b)) for b in molecule.bonds)
    bonds = np.asarray(bond_keys, dtype=np.int64).reshape(len(bond_keys), 2)
    lengths = distance_matrix(coords)[bonds[:, 0], bonds[:, 1]]
    for idx, length in enumerate(lengths):
        if length == 0.0:
            raise DataError(f"molecule {molecule.id}: coincident bonded atoms {tuple(bonds[idx])}")

    incident = [[] for _ in range(num_atoms)]
    for e, (a, b) in enumerate(bond_keys):
        incident[a].append((b, e))
        incident[b].append((a, e))
    angle_rows, angle_bond_rows, angle_vals = [], [], []
    for u in range(num_atoms):
        neighbors = sorted(incident[u])
        for i in range(len(neighbors)):
            for j in range(i + 1, len(neighbors)):
                (w, e1), (v, e2) = neighbors[i], neighbors[j]
                angle_rows.append((w, u, v))
                angle_bond_rows.append((e1, e2))
                angle_vals.append(angle_reference(coords[w], coords[u], coords[v]))
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


def encode_reference(graph, molecule):
    """``encode`` one row at a time in float64: one-hot blocks written slot
    by slot at hand-summed offsets, bond attributes looked up by their
    (min, max) key, and one RBF expansion per bond and per angle. Block
    widths are read by name from the manifest."""
    from geognn.errors import DataError
    from geognn.features import FeatureConfig, EncodedGraph
    from geognn.molio import BOND_DIRS, BOND_TYPES, CHIRALITIES, HYBRIDIZATIONS

    config = FeatureConfig()
    manifest = config.manifest()
    size = {b["name"]: b["width"] for kind in ("atom", "bond", "angle") for b in manifest[kind]}

    def one_hot(row, offset, name, index):
        if not 0 <= index < size[name]:
            raise DataError(f"one-hot index {index} outside block of size {size[name]}")
        row[offset + index] = 1.0
        return offset + size[name]

    def rbf(x, centers):
        d = x - np.asarray(centers, dtype=np.float64)
        return np.exp(-manifest["rbf_gamma"] * d * d)

    degrees = np.bincount(graph.bonds.ravel(), minlength=graph.num_atoms)
    atom = np.zeros((graph.num_atoms, config.atom_width))
    for i, a in enumerate(molecule.atoms):
        row, offset = atom[i], 0
        offset = one_hot(row, offset, "atom_type", a.atomic_number)
        offset = one_hot(row, offset, "aromatic", int(a.aromatic))
        charge = min(max(a.formal_charge + 8, 0), size["formal_charge"] - 1)
        offset = one_hot(row, offset, "formal_charge", charge)
        offset = one_hot(row, offset, "chirality", CHIRALITIES.index(a.chirality))
        offset = one_hot(row, offset, "degree", min(int(degrees[i]), size["degree"] - 1))
        offset = one_hot(row, offset, "num_h", min(a.num_explicit_h, size["num_h"] - 1))
        one_hot(row, offset, "hybridization", HYBRIDIZATIONS.index(a.hybridization))

    attr_by_key = {(min(b.a, b.b), max(b.a, b.b)): b for b in molecule.bonds}
    bond = np.zeros((graph.num_bonds, config.bond_width))
    for e in range(graph.num_bonds):
        b = attr_by_key[(int(graph.bonds[e, 0]), int(graph.bonds[e, 1]))]
        row, offset = bond[e], 0
        offset = one_hot(row, offset, "bond_dir", BOND_DIRS.index(b.bond_dir))
        offset = one_hot(row, offset, "bond_type", BOND_TYPES.index(b.bond_type))
        offset = one_hot(row, offset, "in_ring", int(b.in_ring))
        row[offset : offset + size["length_rbf"]] = rbf(float(graph.lengths[e]),
                                                        manifest["length_centers"])

    angle = np.zeros((graph.num_angles, config.angle_width))
    for t in range(graph.num_angles):
        angle[t, : size["angle_rbf"]] = rbf(float(graph.angle_values[t]), manifest["angle_centers"])
    return EncodedGraph(atom=atom, bond=bond, angle=angle)


def cycle_bonds_by_removal(num_atoms: int, bonds) -> list[bool]:
    """A bond lies on a cycle iff removing it keeps its endpoints connected."""
    result = []
    for i, (a, b) in enumerate(bonds):
        adj = {v: set() for v in range(num_atoms)}
        for j, (x, y) in enumerate(bonds):
            if j == i:
                continue
            adj[x].add(y)
            adj[y].add(x)
        seen = {a}
        stack = [a]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        result.append(b in seen)
    return result


def angle_count_reference(num_atoms: int, bonds) -> int:
    """Brute force: one angle per unordered pair of bonds sharing an atom."""
    count = 0
    for pair in combinations(range(len(bonds)), 2):
        shared = set(bonds[pair[0]]) & set(bonds[pair[1]])
        count += len(shared)
    return count


def model_gradcheck(store, loss_fn, h: float = 1e-5, floor: float = 1e-3) -> float:
    """Max relative error between tape gradients and central differences.

    loss_fn() must rebuild the loss from the store's current values; it is
    called repeatedly with individual parameter entries nudged by +-h.
    """
    from geognn.tensor import Tape

    store.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)

    worst = 0.0
    for name, tensor in store.items():
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        flat = tensor.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn().item()
            flat[i] = orig - h
            down = loss_fn().item()
            flat[i] = orig
            fd[i] = (up - down) / (2.0 * h)
        err = relative_error(analytic.reshape(-1), fd, floor=floor)
        worst = max(worst, err)
    return worst


def roc_auc_pairs(scores, labels) -> float:
    """Brute-force pair counting: P(pos > neg) + 0.5 * P(tie)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    if not pos or not neg:
        raise ValueError("both classes required")
    wins = sum(1 for p in pos for n in neg if p > n)
    ties = sum(1 for p in pos for n in neg if p == n)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def geognn_forward_reference(params: dict, num_blocks: int, graph, encoded):
    """Eval-mode GeoGNN encoder on one molecule in plain numpy; returns
    (h_atoms, h_graph), with h_graph a [1, hidden] row.

    params maps parameter names to arrays. Messages are accumulated one
    edge at a time, in edge order, with no tape and no segment_sum.
    """

    def linear(name, x):
        return x @ params[f"{name}.w"] + params[f"{name}.b"]

    def update(base, agg, residual, scale):
        out = linear(f"{base}.mlp2", np.maximum(linear(f"{base}.mlp1", agg), 0.0))
        normed = np.zeros_like(out)
        for i, row in enumerate(out):
            centered = row - row.mean()
            normed[i] = centered / math.sqrt((centered * centered).mean() + 1e-5)
        return (normed * params[f"{base}.norm.gain"] + params[f"{base}.norm.bias"]) * scale + residual

    def aggregate(h, pairs, x_edges):
        agg = np.zeros_like(h)
        for (a, b), x in zip(pairs, x_edges):
            msg = h[a] + h[b] + x
            agg[a] += msg
            agg[b] += msg
        return agg

    h_atom = linear("embed.atom", encoded.atom)
    h_bond = linear("embed.bond", encoded.bond)
    x_angle = linear("embed.angle", encoded.angle)
    atom_scale = 1.0 / math.sqrt(max(len(h_atom), 1))
    bond_scale = 1.0 / math.sqrt(max(len(h_bond), 1))
    for k in range(num_blocks):
        new_bond = update(f"block{k}.bond", aggregate(h_bond, graph.angle_bonds, x_angle),
                          h_bond, bond_scale)
        new_atom = update(f"block{k}.atom", aggregate(h_atom, graph.bonds, h_bond),
                          h_atom, atom_scale)
        h_bond, h_atom = new_bond, new_atom
    return h_atom, h_atom.mean(axis=0, keepdims=True)


# --- per-molecule references for the packed batch -------------------------
# These run the package's model one molecule at a time (a lone forward pass
# is a batch of one) and score each molecule on its own, as the training
# code did before batches were packed into one graph.


def pretrain_loss_reference(model, batch, rngs, tasks, mask_ratio=0.15, mode="train"):
    """``loss_pre`` one molecule at a time: each molecule's own masked
    forward pass and mean task losses, summed over the batch and divided by
    its size. Returns (loss tensor, per-task means)."""
    from geognn import tensor as T
    from geognn.masking import mask_context
    from geognn.tensor import Tensor

    def mse(head, h, atoms, targets):
        rows = [T.gather_rows(h, atoms[:, j]) for j in range(atoms.shape[1])]
        diff = T.sub(head(*rows), Tensor(targets.reshape(-1, 1)))
        return T.mul(T.sum_all(T.mul(diff, diff)), 1.0 / targets.size)

    total, sums = Tensor(np.zeros(())), {}
    for item, rng in zip(batch, rngs):
        masked_enc, masked = mask_context(item.graph, item.encoded, mask_ratio, [rng.fork("mask")])
        # each ordered pair's distance floored to its bin, the last bin
        # taking every longer one
        xyz = np.array(item.molecule.coords, dtype=float)
        dists = np.sqrt(((xyz[:, None, :] - xyz[None, :, :]) ** 2).sum(axis=-1)).reshape(-1)
        bins = np.minimum(np.floor(dists), model.config.distance_bins - 1).astype(np.int64)
        emb = model.forward(item.graph, masked_enc, mode=mode, rng=[rng.fork("dropout")])
        h, n, bits = emb.h_atoms, item.graph.num_atoms, item.molecule.fingerprint
        parts = {name: None for name in tasks if name != "fingerprint" or bits is not None}
        if "length" in parts and masked.bond_lengths.size:
            parts["length"] = mse(model.head_length, h, masked.bond_atoms, masked.bond_lengths)
        if "angle" in parts and masked.angle_values.size:
            parts["angle"] = mse(model.head_angle, h, masked.angle_atoms, masked.angle_values)
        if "distance" in parts and n > 1:
            # the distance head spelled out on concatenated pair rows, so the
            # reference does not run tensor.pair_mlp_cross_entropy
            pairs = T.concat([T.gather_rows(h, np.repeat(np.arange(n), n)),
                              T.gather_rows(h, np.tile(np.arange(n), n))])
            store = model.store
            hidden = T.relu(T.affine(pairs, store["head_distance.l1.w"],
                                     store["head_distance.l1.b"]))
            logits = T.affine(hidden, store["head_distance.l2.w"], store["head_distance.l2.b"])
            parts["distance"] = T.softmax_cross_entropy(logits, bins)
        if "fingerprint" in parts and bits:
            logits = model.head_fingerprint(emb.h_graph)
            parts["fingerprint"] = T.bce_with_logits(logits, Tensor(np.array([bits], dtype=float)))
        for name, part in parts.items():
            sums[name] = sums.get(name, 0.0) + (part.item() if part is not None else 0.0)
            if part is not None:
                total = T.add(total, part)
    scale = 1.0 / len(batch)
    return T.mul(total, scale), {k: v * scale for k, v in sums.items()}


def downstream_loss_reference(model, items, labels, task_type, rngs):
    """``_downstream_batch_loss`` one molecule at a time: the batch mean of
    each molecule's mean loss over its present labels."""
    from geognn import tensor as T
    from geognn.tensor import Tensor

    total = Tensor(np.zeros(()))
    for item, row, rng in zip(items, labels, rngs):
        present = ~np.isnan(row)
        emb = model.forward(item.graph, item.encoded, mode="train", rng=[rng])
        pred = model.head_downstream(emb.h_graph)
        y = Tensor(np.where(present, row, 0.0).reshape(1, -1))
        mask = present.astype(np.float64).reshape(1, -1)
        if task_type == "regression":
            diff = T.sub(pred, y)
            sq = T.mul(T.mul(diff, diff), Tensor(mask))
            loss = T.mul(T.sum_all(sq), 1.0 / mask.sum())
        else:
            loss = T.bce_with_logits(pred, y, mask / mask.sum())
        total = T.add(total, loss)
    return T.mul(total, 1.0 / len(items))


def embeddings_reference(model, items) -> np.ndarray:
    """Eval-mode graph embeddings, one lone forward pass per molecule."""
    return np.concatenate([model.forward(i.graph, i.encoded, mode="eval").h_graph.data
                           for i in items])


def predictions_reference(model, items) -> np.ndarray:
    """Eval-mode downstream predictions, one lone forward pass per molecule."""
    return np.concatenate([
        model.head_downstream(model.forward(i.graph, i.encoded, mode="eval").h_graph).data
        for i in items
    ])
