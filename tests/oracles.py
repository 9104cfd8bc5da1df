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


def dot(out, upstream):
    """sum(out * upstream) as one taped op: a tape's backward from it sends
    ``upstream`` times its own upstream to ``out``."""
    from geognn import tensor as T

    upstream = np.asarray(upstream, dtype=out.dtype)
    return T._emit(np.asarray((out.data * upstream).sum(), dtype=out.dtype), (out,),
                   lambda g: (upstream * g,), "dot")


def aggregate_reference(h, pairs, x, upstream):
    """``tensor.aggregate`` in plain numpy: its value, each edge's message
    (h[u] + h[v]) + x added to both its ends, each end's sums taken in
    float64 in edge order and cast back; and the gradients of sum(value *
    upstream) with respect to h and x."""
    u, v = pairs[:, 0], pairs[:, 1]

    def scatter(rows, ids):
        out = np.zeros((h.shape[0], rows.shape[1]))
        np.add.at(out, ids, rows.astype(np.float64))
        return out.astype(h.dtype)

    msg = h[u] + h[v] + x
    g_msg = upstream[u] + upstream[v]
    return scatter(msg, u) + scatter(msg, v), (scatter(g_msg, u) + scatter(g_msg, v), g_msg)


def node_update_reference(x, residual, scale, w1, b1, w2, b2, gain, bias, keep, upstream):
    """``tensor.node_update`` in plain numpy: its value, in the op's order of
    operations, and the gradients of sum(value * upstream) with respect to
    (x, residual, w1, b1, w2, b2, gain, bias), layer norm's by its closed
    form. ``keep`` is the dropout multiplier, None in eval mode."""
    hidden = np.maximum(x @ w1 + b1, 0.0)
    pre_norm = hidden @ w2 + b2
    mu = pre_norm.mean(axis=1, keepdims=True, dtype=np.float64)
    xhat = (pre_norm - mu).astype(pre_norm.dtype)
    inv_std = 1.0 / np.sqrt((xhat * xhat).mean(axis=1, keepdims=True) + 1e-5)
    xhat = xhat * inv_std
    out = (xhat * gain + bias) * scale + residual
    g_res = upstream
    if keep is not None:
        out, g_res = out * keep, upstream * keep
    g_norm = g_res * scale
    g_xhat = g_norm * gain
    g_pre = g_xhat - g_xhat.mean(axis=1, keepdims=True)
    g_pre = (g_pre - xhat * (g_xhat * xhat).mean(axis=1, keepdims=True)) * inv_std
    g_hidden = (g_pre @ w2.T) * (hidden > 0)
    return out, (g_hidden @ w1.T, g_res, x.T @ g_hidden, g_hidden.sum(axis=0),
                 hidden.T @ g_pre, g_pre.sum(axis=0), (g_norm * xhat).sum(axis=0),
                 g_norm.sum(axis=0))


def pair_mlp_reference(x, counts, w1, b1, w2, b2, labels, weights):
    """``tensor.pair_mlp_cross_entropy`` in plain numpy over every ordered
    pair (u, v) of rows of each run: the symmetric head relu(x[u] @ w1 +
    x[v] @ w1 + b1) @ w2 + b2 and its softmax cross-entropy, a pair taking
    the label of {u, v} and half its weight off the diagonal. Returns the
    loss and its gradients with respect to (x, w1, b1, w2, b2), the chain
    rule written out."""
    us, vs, index = [], [], []
    start = first = 0  # the run's first row and first pair (i, j >= i), i-major
    for n in counts:
        i, j = np.indices((n, n)).reshape(2, -1)
        upper = np.zeros((n, n), dtype=int)
        upper[np.triu_indices(n)] = np.arange(n * (n + 1) // 2)  # numpy's order is i-major
        us.append(start + i)
        vs.append(start + j)
        index.append(first + upper[np.minimum(i, j), np.maximum(i, j)])
        start, first = start + n, first + n * (n + 1) // 2
    u, v, index = (np.concatenate(parts).astype(int) for parts in (us, vs, index))
    hidden = np.maximum(x[u] @ w1 + x[v] @ w1 + b1, 0.0)
    logits = hidden @ w2 + b2
    rows, labels = np.arange(len(u)), labels[index]
    weights = weights[index] * np.where(u == v, 1.0, 0.5).astype(x.dtype)
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -(log_probs[rows, labels] * weights).sum()
    g_logits = np.exp(log_probs)
    g_logits[rows, labels] -= 1.0
    g_logits *= weights[:, None]
    g_hidden = (g_logits @ w2.T) * (hidden > 0)
    g_rows = g_hidden @ w1.T
    g_x = np.zeros_like(x)
    np.add.at(g_x, u, g_rows)
    np.add.at(g_x, v, g_rows)
    return loss, (g_x, (x[u] + x[v]).T @ g_hidden, g_hidden.sum(axis=0), hidden.T @ g_logits,
                  g_logits.sum(axis=0))


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
    by slot at hand-summed offsets, the derived atom attributes from
    ``annotate_reference``, bond attributes and ring flags (from
    ``ring_flags_reference``) looked up by their (min, max) key, and one RBF
    expansion per bond and per angle. Block widths are read by name from the
    manifest."""
    from geognn.errors import DataError
    from geognn.features import HYBRIDIZATIONS, FeatureConfig, EncodedGraph
    from geognn.molio import ATOMIC_NUMBER, BOND_DIRS, BOND_TYPES, CHIRALITIES

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
    num_h, aromatic, hybridization = annotate_reference(molecule)
    atom = np.zeros((graph.num_atoms, config.atom_width))
    for i, a in enumerate(molecule.atoms):
        row, offset = atom[i], 0
        offset = one_hot(row, offset, "atom_type", ATOMIC_NUMBER[a.element])
        offset = one_hot(row, offset, "aromatic", int(aromatic[i]))
        charge = min(max(a.formal_charge + 8, 0), size["formal_charge"] - 1)
        offset = one_hot(row, offset, "formal_charge", charge)
        offset = one_hot(row, offset, "chirality", CHIRALITIES.index(a.chirality))
        offset = one_hot(row, offset, "degree", min(int(degrees[i]), size["degree"] - 1))
        offset = one_hot(row, offset, "num_h", min(num_h[i], size["num_h"] - 1))
        one_hot(row, offset, "hybridization", HYBRIDIZATIONS.index(hybridization[i]))

    keys = [(min(b.a, b.b), max(b.a, b.b)) for b in molecule.bonds]
    attr_by_key = dict(zip(keys, molecule.bonds))
    ring_by_key = dict(zip(keys, ring_flags_reference(molecule)))
    bond = np.zeros((graph.num_bonds, config.bond_width))
    for e in range(graph.num_bonds):
        key = (int(graph.bonds[e, 0]), int(graph.bonds[e, 1]))
        b = attr_by_key[key]
        row, offset = bond[e], 0
        offset = one_hot(row, offset, "bond_dir", BOND_DIRS.index(b.bond_dir))
        offset = one_hot(row, offset, "bond_type", BOND_TYPES.index(b.bond_type))
        offset = one_hot(row, offset, "in_ring", int(ring_by_key[key]))
        row[offset : offset + size["length_rbf"]] = rbf(float(graph.lengths[e]),
                                                        manifest["length_centers"])

    angle = np.zeros((graph.num_angles, config.angle_width))
    for t in range(graph.num_angles):
        angle[t, : size["angle_rbf"]] = rbf(float(graph.angle_values[t]), manifest["angle_centers"])
    return EncodedGraph(atom=atom, bond=bond, angle=angle)


def _int_field_reference(line, lo, hi, lineno, what, default=None):
    from geognn.errors import ParseError

    raw = line[lo:hi].strip()
    if default is not None and (not raw or len(line) < hi):
        return default
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"bad {what} field {raw!r}", lineno) from None


def sdf_record_reference(first_line: int, lines: list[str], index: int):
    """One V2000 record read a field at a time: each field is stripped, then
    converted, and checked before the next is read."""
    from geognn.errors import ParseError
    from geognn.molio import (_OLD_STYLE_CHARGE, _SDF_BOND_DIR, _SDF_BOND_TYPE, ATOMIC_NUMBER,
                              Atom, Bond, Molecule)

    if len(lines) < 4:
        raise ParseError("record too short for a V2000 header", first_line)
    title = lines[0].strip()
    counts_line = lines[3]
    counts_no = first_line + 3
    if len(counts_line) < 6:
        raise ParseError("counts line shorter than 6 columns", counts_no)
    num_atoms = _int_field_reference(counts_line, 0, 3, counts_no, "atom count")
    num_bonds = _int_field_reference(counts_line, 3, 6, counts_no, "bond count")
    if num_atoms < 0 or num_bonds < 0:
        raise ParseError("negative counts", counts_no)
    if len(lines) < 4 + num_atoms + num_bonds:
        raise ParseError(
            f"record ends before {num_atoms} atom and {num_bonds} bond lines", counts_no
        )

    atoms, coords = [], []
    for i in range(num_atoms):
        lineno = counts_no + 1 + i
        line = lines[4 + i]
        if len(line) < 34:
            raise ParseError("atom line shorter than 34 columns", lineno)
        xyz = []
        for lo in (0, 10, 20):
            raw = line[lo : lo + 10].strip()
            try:
                value = float(raw)
            except ValueError:
                raise ParseError(f"non-numeric coordinate {raw!r}", lineno) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite coordinate {raw!r}", lineno)
            xyz.append(value)
        symbol = line[31:34].strip()
        if symbol not in ATOMIC_NUMBER:
            raise ParseError(f"unknown element symbol {symbol!r}", lineno)
        charge = _OLD_STYLE_CHARGE.get(
            _int_field_reference(line, 36, 39, lineno, "charge", 0), 0)
        atoms.append(Atom(element=symbol, formal_charge=charge))
        coords.append((xyz[0], xyz[1], xyz[2]))

    bonds = []
    for i in range(num_bonds):
        lineno = counts_no + 1 + num_atoms + i
        line = lines[4 + num_atoms + i]
        if len(line) < 9:
            raise ParseError("bond line shorter than 9 columns", lineno)
        a = _int_field_reference(line, 0, 3, lineno, "bond atom")
        b = _int_field_reference(line, 3, 6, lineno, "bond atom")
        code = _int_field_reference(line, 6, 9, lineno, "bond type")
        if not (1 <= a <= num_atoms) or not (1 <= b <= num_atoms):
            raise ParseError("atom index out of range", lineno)
        if a == b:
            raise ParseError(f"bond joins atom {a} to itself", lineno)
        if code not in _SDF_BOND_TYPE:
            raise ParseError(f"unknown bond type {code}", lineno)
        stereo = _int_field_reference(line, 9, 12, lineno, "bond stereo", 0)
        bonds.append(Bond(a=a - 1, b=b - 1, bond_type=_SDF_BOND_TYPE[code],
                          bond_dir=_SDF_BOND_DIR.get(stereo, "none")))

    # property block: M CHG supersedes all atom-block charges
    charge_reset_done = False
    for offset, line in enumerate(lines[4 + num_atoms + num_bonds :]):
        lineno = counts_no + 1 + num_atoms + num_bonds + offset
        if line.startswith("M  END"):
            break
        if line.startswith("M  CHG"):
            if not charge_reset_done:
                for atom in atoms:
                    atom.formal_charge = 0
                charge_reset_done = True
            fields = line.split()
            try:
                count = int(fields[2])
                pairs = fields[3 : 3 + 2 * count]
                for j in range(count):
                    atom_no = int(pairs[2 * j])
                    value = int(pairs[2 * j + 1])
                    if not 1 <= atom_no <= num_atoms:
                        raise ParseError("malformed M  CHG line", lineno)
                    atoms[atom_no - 1].formal_charge = value
            except (IndexError, ValueError):
                raise ParseError("malformed M  CHG line", lineno) from None

    mol = Molecule(id=title or f"mol{index}", atoms=atoms, bonds=bonds, coords=coords)
    return mol.validate()


def annotate_reference(molecule):
    """(hydrogen counts, aromatic flags, hybridizations), one per atom, a bond
    at a time: hydrogen counts from bonded H atoms, aromatic flags from
    aromatic bonds, and hybridization from the steric number, degree plus
    main-group lone pairs, in Python integers of any size."""
    from geognn.features import _STERIC_TO_HYBRIDIZATION, _VALENCE_ELECTRONS

    degree = [0] * len(molecule.atoms)
    num_h = [0] * len(molecule.atoms)
    aromatic = [False] * len(molecule.atoms)
    for bond in molecule.bonds:
        degree[bond.a] += 1
        degree[bond.b] += 1
        if molecule.atoms[bond.b].element == "H":
            num_h[bond.a] += 1
        if molecule.atoms[bond.a].element == "H":
            num_h[bond.b] += 1
        if bond.bond_type == "aromatic":
            aromatic[bond.a] = aromatic[bond.b] = True
    hybridization = []
    for i, atom in enumerate(molecule.atoms):
        valence = _VALENCE_ELECTRONS.get(atom.element)
        if valence is None or degree[i] == 0:
            hybridization.append("unknown")
            continue
        lone_pairs = max(0, (valence - int(atom.formal_charge) - degree[i]) // 2)
        hybridization.append(_STERIC_TO_HYBRIDIZATION.get(degree[i] + lone_pairs, "unknown"))
    return num_h, aromatic, hybridization


def sdf_text(molecules) -> str:
    """The molecules as V2000 records: coordinates written to 4 decimals,
    each nonzero charge in an ``M  CHG`` line of its own; chirality is not
    written."""
    bond_code = {"single": 1, "double": 2, "triple": 3, "aromatic": 4}
    stereo_code = {"none": 0, "begin_wedge": 1, "either": 4, "begin_dash": 6}
    lines = []
    for mol in molecules:
        lines += [mol.id, "", "", f"{len(mol.atoms):3d}{len(mol.bonds):3d}  0  0  0  0  0  0"
                  "  0  0999 V2000"]
        lines += [f"{x:10.4f}{y:10.4f}{z:10.4f} {atom.element:<3} 0  0  0"
                  for atom, (x, y, z) in zip(mol.atoms, mol.coords)]
        lines += [f"{b.a + 1:3d}{b.b + 1:3d}{bond_code[b.bond_type]:3d}{stereo_code[b.bond_dir]:3d}"
                  for b in mol.bonds]
        lines += [f"M  CHG  1 {i + 1:3d} {atom.formal_charge:3d}"
                  for i, atom in enumerate(mol.atoms) if atom.formal_charge]
        lines += ["M  END", "$$$$"]
    return "\n".join(lines) + "\n"


def sdf_reference(data):
    """(molecules, errors) of ``parse_sdf_lenient``'s record framing, each
    record read by ``sdf_record_reference``."""
    from geognn.molio import _decode, _parse_records, iter_sdf_records

    return _parse_records(iter_sdf_records(_decode(data)), sdf_record_reference)


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


def ring_flags_reference(molecule) -> list[bool]:
    """``cycle_bonds_by_removal`` of the molecule's bond list, in its order."""
    return cycle_bonds_by_removal(len(molecule.atoms), [(b.a, b.b) for b in molecule.bonds])


def angle_count_reference(num_atoms: int, bonds) -> int:
    """Brute force: one angle per unordered pair of bonds sharing an atom."""
    count = 0
    for pair in combinations(range(len(bonds)), 2):
        shared = set(bonds[pair[0]]) & set(bonds[pair[1]])
        count += len(shared)
    return count


def model_gradcheck(store, loss_fn, h: float = 1e-5, floor: float = 1e-3,
                    zero: dict | None = None) -> float:
    """Max relative error between tape gradients and central differences.

    loss_fn() must rebuild the loss from the store's current values; it is
    called repeatedly with individual parameter entries nudged by +-h.
    ``zero`` maps a parameter name to a boolean mask of its shape: entries
    the loss cannot depend on, whose tape gradient must be exactly 0.0
    (AssertionError otherwise) and which are not nudged.
    """
    from geognn.tensor import Tape

    store.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)

    worst = 0.0
    for name, tensor in store.items():
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        skip = np.zeros(tensor.size, dtype=bool)
        if zero is not None and name in zero:
            skip = zero[name].reshape(-1)
            if np.any(analytic.reshape(-1)[skip] != 0.0):
                raise AssertionError(f"{name}: nonzero gradient on an entry the loss ignores")
        flat = tensor.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in np.flatnonzero(~skip):
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
    edge at a time, in edge order, with no tape.
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
        return T.squared_error(head(*rows), targets.reshape(-1, 1),
                               np.full((targets.size, 1), 1.0 / targets.size))

    terms, sums = [], {}
    for item, rng in zip(batch, rngs):
        masked_enc, masked = mask_context(item.graph, item.encoded, mask_ratio, [rng.fork("mask")])
        # each pair (i, j >= i)'s distance floored to its bin, the last bin
        # taking every longer one; a pair weighs 2/n^2, the diagonal 1/n^2
        xyz = np.array(item.molecule.coords, dtype=float)
        i, j = (ends.ravel() for ends in np.indices((len(xyz), len(xyz))))
        i, j = i[j >= i], j[j >= i]
        dists = np.sqrt(((xyz[i] - xyz[j]) ** 2).sum(axis=-1))
        bins = np.minimum(np.floor(dists), model.config.distance_bins - 1).astype(np.int64)
        emb = model.forward(item.graph, masked_enc, mode=mode, rng=[rng.fork("dropout")])
        h, n, bits = emb.h_atoms, item.graph.num_atoms, item.molecule.fingerprint
        parts = {name: None for name in tasks if name != "fingerprint" or bits is not None}
        if "length" in parts and masked.bond_lengths.size:
            parts["length"] = mse(model.head_length, h, masked.bond_atoms, masked.bond_lengths)
        if "angle" in parts and masked.angle_values.size:
            parts["angle"] = mse(model.head_angle, h, masked.angle_atoms, masked.angle_values)
        if "distance" in parts and n > 1:
            # the op on this molecule alone, one run of n rows; test_tensor
            # holds the op itself to ``pair_mlp_reference``
            store = model.store
            parts["distance"] = T.pair_mlp_cross_entropy(
                h, [n], store["head_distance.l1.w"], store["head_distance.l1.b"],
                store["head_distance.l2.w"], store["head_distance.l2.b"], bins,
                np.where(i == j, 1.0, 2.0) / (n * n))
        if "fingerprint" in parts and bits:
            logits = model.head_fingerprint(emb.h_graph)
            parts["fingerprint"] = T.bce_with_logits(logits, [bits],
                                                     np.full((1, len(bits)), 1 / len(bits)))
        for name, part in parts.items():
            sums[name] = sums.get(name, 0.0) + (part.item() if part is not None else 0.0)
            if part is not None:
                terms.append(part)
    scale = 1.0 / len(batch)
    total = T.scaled_sum(terms, scale) if terms else Tensor(np.zeros(()))
    return total, {k: v * scale for k, v in sums.items()}


def downstream_loss_reference(model, items, labels, task_type, rngs):
    """``_downstream_batch_loss`` one molecule at a time: the batch mean of
    each molecule's mean loss over its present labels."""
    from geognn import tensor as T
    from geognn.tensor import Tensor

    terms = []
    for item, row, rng in zip(items, labels, rngs):
        present = ~np.isnan(row)
        emb = model.forward(item.graph, item.encoded, mode="train", rng=[rng])
        pred = model.head_downstream(emb.h_graph)
        y = np.where(present, row, 0.0).reshape(1, -1)
        mask = present.astype(np.float64).reshape(1, -1)
        if task_type == "regression":
            terms.append(T.squared_error(pred, y, mask / mask.sum()))
        else:
            terms.append(T.bce_with_logits(pred, y, mask / mask.sum()))
    return T.scaled_sum(terms, 1.0 / len(items))


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


def adam_reference(params: dict, grads: dict, moments: dict, t: int, lr_body: float,
                   lr_head: float) -> None:
    """Adam step ``t`` one tensor at a time, in place on the arrays of
    ``params`` and ``moments`` (name -> (m, v), created on first use): a
    missing gradient counts as zero, and "head_down." tensors use lr_head."""
    correction1 = 1.0 - 0.9**t
    correction2 = 1.0 - 0.999**t
    for name, data in params.items():
        grad = grads.get(name)
        if grad is None:
            grad = np.zeros_like(data)
        if name not in moments:
            moments[name] = (np.zeros_like(data), np.zeros_like(data))
        m, v = moments[name]
        m *= 0.9
        m += (1.0 - 0.9) * grad
        v *= 0.999
        v += (1.0 - 0.999) * grad * grad
        m_hat = m / correction1
        v_hat = v / correction2
        lr = lr_head if name.startswith("head_down.") else lr_body
        data[...] = data - lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def checkpoint_bytes_reference(store, model_config, feature_config, extra=None,
                               version=4) -> bytes:
    """A checkpoint file as the layout in ``geognn.checkpoint``'s docstring
    states it, its payload assembled one tensor at a time."""
    import json
    import zlib

    payload = b"".join(tensor.data.astype("<f4" if tensor.data.dtype == np.float32 else "<f8")
                       .tobytes() for _, tensor in store.items())
    header = json.dumps({"format_version": version, "model_config": model_config.to_dict(),
                         "feature_manifest": feature_config.manifest(),
                         "payload_nbytes": len(payload), "payload_crc32": zlib.crc32(payload),
                         "extra": extra or {}}, sort_keys=True).encode("utf-8")
    return (b"GEM1" + version.to_bytes(4, "little") + len(header).to_bytes(8, "little") + header
            + payload)
