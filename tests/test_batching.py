"""A packed batch against its molecules one at a time: packed into one
disjoint-union graph, a batch of molecules keeps each molecule's own graph
and masks, and gives each molecule's own losses, predictions, embeddings
and parameter gradients (the per-molecule references of ``oracles``)."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from geognn.features import FeatureConfig
from geognn.geometry import DualGraph, pack_graphs
from geognn.masking import mask_context
from geognn.model import GeoGNN, ModelConfig
from geognn.pretrain import PACK_SIZE, loss_pre, pack
from geognn.rng import Rng
from geognn.synth import geometry_label, random_molecule
from geognn.tensor import Tape
from geognn.training import (
    _downstream_batch_loss,
    _downstream_predictions,
    embed_molecules,
    featurized_packs,
    prepare_molecules,
)

from oracles import (
    downstream_loss_reference,
    embeddings_reference,
    predictions_reference,
    pretrain_loss_reference,
)

CONFIG = ModelConfig(
    num_blocks=2, hidden=8, dropout=0.2, distance_bins=10,
    geom_head_hidden=16, down_head_hidden=8, fingerprint_bits=4, num_tasks=2,
)
TASKS = ("length", "angle", "distance", "fingerprint")
TOL = dict(rtol=1e-12, atol=1e-12)


def molecules(sizes, seed):
    """Molecules of the given atom counts; every other one has a fingerprint
    and every third one no second label."""
    rng = Rng(seed)
    mols = []
    for i, n in enumerate(sizes):
        mol = random_molecule(rng.fork(i), min_atoms=n, max_atoms=n, mol_id=f"m{i}")
        if i % 2 == 0:
            mol.fingerprint = [int(b > 0.5) for b in rng.fork(f"fp{i}").uniform_array(4)]
        mol.labels = {"y": geometry_label(mol), "z": None if i % 3 == 1 else float(i % 2)}
        mols.append(mol)
    return mols


def run(model, loss_fn):
    """loss_fn's value and extras, and every parameter's gradient."""
    model.store.zero_grad()
    with Tape() as tape:
        out = loss_fn()
    loss, extras = out if isinstance(out, tuple) else (out, None)
    tape.backward(loss)
    grads = {name: np.zeros_like(t.data) if t.grad is None else t.grad
             for name, t in model.store.items()}
    return loss.item(), extras, grads


def assert_same(got, want):
    (got_loss, got_extras, got_grads), (want_loss, want_extras, want_grads) = got, want
    np.testing.assert_allclose(got_loss, want_loss, **TOL)
    if want_extras is not None:
        assert got_extras.keys() == want_extras.keys()
        for name in want_extras:
            np.testing.assert_allclose(got_extras[name], want_extras[name], **TOL)
    for name in want_grads:
        np.testing.assert_allclose(got_grads[name], want_grads[name], err_msg=name, **TOL)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8), seed=st.integers(0, 2**32 - 1))
@example(sizes=[1, 2, 3], seed=0)
@example(sizes=[3, 40, 1, 17, 2, 25, 9, 33], seed=1)
def test_packed_batch_equals_per_molecule_reference(sizes, seed):
    model = GeoGNN(CONFIG, rng=Rng(seed).fork("model"))
    mols = molecules(sizes, seed)
    items = prepare_molecules(mols, model.features)

    def rngs():  # fresh streams for each call, as dropout advances them
        return [Rng(seed).fork(f"mol{i}") for i in range(len(items))]

    for mode in ("train", "eval"):
        assert_same(
            run(model, lambda: loss_pre(model, items, rngs(), tasks=TASKS, mode=mode)),
            run(model, lambda: pretrain_loss_reference(model, items, rngs(), TASKS, mode=mode)),
        )

    labels = np.array([[m.labels["y"], np.nan if m.labels["z"] is None else m.labels["z"]]
                       for m in mols])
    binary = np.where(np.isnan(labels), np.nan, labels > np.nanmedian(labels[:, 0]))
    for task_type, y in (("regression", labels), ("classification", binary)):
        assert_same(
            run(model, lambda: _downstream_batch_loss(model, items, y, task_type, rngs())),
            run(model, lambda: downstream_loss_reference(model, items, y, task_type, rngs())),
        )

    packs = featurized_packs(mols, model.features)
    np.testing.assert_allclose(_downstream_predictions(model, packs),
                               predictions_reference(model, items), **TOL)
    embedded = embed_molecules(model.store, CONFIG, mols)
    assert [mol_id for mol_id, _ in embedded] == [m.id for m in mols]
    np.testing.assert_allclose(np.stack([vec for _, vec in embedded]),
                               embeddings_reference(model, items), **TOL)


def test_eval_paths_across_pack_boundaries_equal_per_molecule_reference():
    """Each eval path over three packs of small molecules against each
    molecule featurized and run on its own."""
    seed = 7
    model = GeoGNN(CONFIG, rng=Rng(seed).fork("model"))
    count = 2 * PACK_SIZE + 1
    sizes = [1 + int(u * 6) for u in Rng(seed).fork("sizes").uniform_array(count)]
    mols = molecules(sizes, seed)
    alone = [prepare_molecules([m], model.features)[0] for m in mols]

    packs = list(featurized_packs(mols, model.features))
    assert [[m.id for m in chunk] for chunk, _, _ in packs] == [
        [m.id for m in mols[start : start + PACK_SIZE]] for start in (0, PACK_SIZE, 2 * PACK_SIZE)
    ]
    np.testing.assert_allclose(_downstream_predictions(model, packs),
                               predictions_reference(model, alone), **TOL)
    embedded = embed_molecules(model.store, CONFIG, mols)
    assert [mol_id for mol_id, _ in embedded] == [m.id for m in mols]
    np.testing.assert_allclose(np.stack([vec for _, vec in embedded]),
                               embeddings_reference(model, alone), **TOL)

    def rngs():
        return [Rng(seed).fork(f"eval{i}") for i in range(count)]

    items = prepare_molecules(mols, model.features)
    assert_same(
        run(model, lambda: loss_pre(model, items, rngs(), tasks=TASKS, mode="eval")),
        run(model, lambda: pretrain_loss_reference(model, alone, rngs(), TASKS, mode="eval")),
    )



def starts(counts) -> np.ndarray:
    """Offset of each block in a concatenation of blocks of these sizes."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.cumsum(counts) - counts


def assert_graphs_equal(got, want):
    for name in ("bonds", "angles", "angle_bonds", "lengths", "angle_values", "coords",
                 "atom_counts", "bond_counts"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1), ratio=st.floats(0.01, 1.0))
@example(sizes=[4, 5, 1, 6], seed=3, ratio=0.5)
def test_pack_and_mask_keep_each_molecule(sizes, seed, ratio):
    mols = [random_molecule(Rng(seed).fork(i), min_atoms=n, max_atoms=n)
            for i, n in enumerate(sizes)]
    items = prepare_molecules(mols, FeatureConfig())
    graphs = [item.graph for item in items]
    graph, encoded = pack(items)
    assert_graphs_equal(pack_graphs(graphs[:1]), graphs[0])

    # the offsets are computed here from the molecules, not read from the pack
    atoms = starts([g.num_atoms for g in graphs])
    bonds = starts([g.num_bonds for g in graphs])
    angles = starts([g.num_angles for g in graphs])
    assert graph.num_graphs == len(graphs)
    assert graph.atom_offsets.tolist() == atoms.tolist()
    for i, g in enumerate(graphs):
        atom_rows = slice(atoms[i], atoms[i] + g.num_atoms)
        bond_rows = slice(bonds[i], bonds[i] + g.num_bonds)
        angle_rows = slice(angles[i], angles[i] + g.num_angles)
        own = DualGraph(
            bonds=graph.bonds[bond_rows] - atoms[i],
            angles=graph.angles[angle_rows] - atoms[i],
            angle_bonds=graph.angle_bonds[angle_rows] - bonds[i],
            lengths=graph.lengths[bond_rows],
            angle_values=graph.angle_values[angle_rows],
            coords=graph.coords[atom_rows],
            atom_counts=graph.atom_counts[i : i + 1],
            bond_counts=graph.bond_counts[i : i + 1],
        )
        assert_graphs_equal(own, g)
        assert (graph.atom_graph[atom_rows] == i).all()
        assert (graph.bond_graph[bond_rows] == i).all()

    # masking the pack, one stream per molecule, masks each molecule as alone
    def streams():  # fresh streams for each call, as sampling advances them
        return [Rng(seed).fork(f"mask{i}") for i in range(len(items))]

    masked, targets = mask_context(graph, encoded, ratio, streams())
    alone = [mask_context(item.graph, item.encoded, ratio, [stream])
             for item, stream in zip(items, streams())]
    for kind in ("atom", "bond", "angle"):
        want = np.concatenate([getattr(enc, kind) for enc, _ in alone])
        assert np.array_equal(getattr(masked, kind), want), kind
    for name, offsets in (("bond_atoms", atoms), ("bond_lengths", None), ("bond_weights", None),
                          ("angle_atoms", atoms), ("angle_values", None),
                          ("angle_weights", None)):
        parts = [getattr(t, name) for _, t in alone]
        if offsets is not None:
            parts = [p + o for p, o in zip(parts, offsets)]
        want = np.concatenate(parts)
        got = getattr(targets, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
