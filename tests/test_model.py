import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geognn import tensor as T
from geognn.errors import ConfigError, NumericalError, ShapeError
from geognn.features import FeatureConfig, encode
from geognn.geometry import build_dual_graph, distance_matrix
from geognn.model import (MAX_PARAMETERS, GeoGNN, ModelConfig, init_params,
                          parameter_count, parameter_table)
from geognn.molio import CHIRALITIES
from geognn.pretrain import loss_distance
from geognn.rng import Rng
from geognn.synth import random_molecule
from geognn.tensor import Tape, Tensor
from geognn.training import _downstream_batch_loss, embed_molecules, prepare_molecules

from conftest import make_molecule, relabel, store_of, without_geometry
from oracles import dot, geognn_forward_reference, model_gradcheck, relative_error

SMALL = ModelConfig(
    num_blocks=2,
    hidden=8,
    dropout=0.0,
    distance_bins=10,
    geom_head_hidden=16,
    down_head_hidden=16,
    fingerprint_bits=4,
    num_tasks=2,
)


def embed_molecule(model, mol, mode="eval", rng=None, include_geometry=True):
    graph = build_dual_graph(mol)
    enc = encode(graph, mol, model.features)
    if not include_geometry:
        enc = without_geometry(enc)
    return graph, enc, model.forward(graph, enc, mode=mode, rng=rng)


def composite_loss(model, graph, enc, bits, bins):
    """Touches every parameter group: body, all three geometry heads,
    fingerprint head and downstream head."""
    emb = model.forward(graph, enc)
    h = emb.h_atoms
    u, v = graph.bonds[:, 0], graph.bonds[:, 1]
    pred_len = model.head_length(T.gather_rows(h, u), T.gather_rows(h, v))
    terms = [T.squared_error(pred_len, graph.lengths.reshape(-1, 1),
                             np.full(pred_len.shape, 1.0 / max(graph.num_bonds, 1)))]
    if graph.num_angles:
        w, c, x = graph.angles[:, 0], graph.angles[:, 1], graph.angles[:, 2]
        pred_ang = model.head_angle(T.gather_rows(h, w), T.gather_rows(h, c), T.gather_rows(h, x))
        terms.append(T.squared_error(pred_ang, graph.angle_values.reshape(-1, 1),
                                     np.full(pred_ang.shape, 1.0 / graph.num_angles)))
    terms.append(loss_distance(model, emb, graph, bins))
    terms.append(T.bce_with_logits(model.head_fingerprint(emb.h_graph), Tensor(bits),
                                   np.full(bits.shape, 1 / bits.size)))
    down = model.head_downstream(emb.h_graph)
    terms.append(dot(down, np.ones(down.shape)))
    return T.scaled_sum(terms, 1.0)


class TestForward:
    def test_single_atom_no_bonds(self):
        mol = make_molecule(["C"], [], [(0.0, 0.0, 0.0)])
        model = GeoGNN(SMALL, rng=Rng(0))
        _, _, emb = embed_molecule(model, mol)
        assert emb.h_graph.shape == (1, 8)
        assert np.all(np.isfinite(emb.h_graph.data))
        # with a single atom, the graph vector equals that atom's vector
        np.testing.assert_array_equal(emb.h_graph.data, emb.h_atoms.data)

    def test_eval_forward_is_deterministic(self):
        mol = random_molecule(Rng(1))
        model = GeoGNN(SMALL, rng=Rng(2))
        _, _, a = embed_molecule(model, mol)
        _, _, b = embed_molecule(model, mol)
        assert np.array_equal(a.h_graph.data, b.h_graph.data)

    def test_train_forward_reproducible_with_seed(self):
        mol = random_molecule(Rng(1))
        cfg = ModelConfig(num_blocks=2, hidden=8, dropout=0.3, num_tasks=1)
        model = GeoGNN(cfg, rng=Rng(2))
        graph = build_dual_graph(mol)
        enc = encode(graph, mol, FeatureConfig())
        a = model.forward(graph, enc, mode="train", rng=[Rng(9)])
        b = model.forward(graph, enc, mode="train", rng=[Rng(9)])
        c = model.forward(graph, enc, mode="train", rng=[Rng(10)])
        assert np.array_equal(a.h_graph.data, b.h_graph.data)
        assert not np.array_equal(a.h_graph.data, c.h_graph.data)

    def test_readout_is_mean_of_atom_rows(self):
        mol = random_molecule(Rng(3))
        model = GeoGNN(SMALL, rng=Rng(4))
        _, _, emb = embed_molecule(model, mol)
        np.testing.assert_allclose(emb.h_graph.data[0], emb.h_atoms.data.mean(axis=0), atol=1e-15)

    def test_permutation_invariance(self):
        rng = Rng(5)
        model = GeoGNN(SMALL, rng=Rng(6))
        for i in range(10):
            mol = random_molecule(rng.fork(i), min_atoms=4, max_atoms=10)
            _, _, emb = embed_molecule(model, mol)
            perm = rng.fork(f"p{i}").permutation(len(mol.atoms))
            inverse = np.argsort(perm)
            relabeled = make_molecule(
                [mol.atoms[j].element for j in inverse],
                [(int(perm[b.a]), int(perm[b.b])) for b in mol.bonds],
                [mol.coords[j] for j in inverse],
            )
            _, _, emb2 = embed_molecule(model, relabeled)
            assert np.max(np.abs(emb.h_graph.data - emb2.h_graph.data)) < 1e-9
            # atom rows are permuted consistently
            np.testing.assert_allclose(
                emb2.h_atoms.data[perm], emb.h_atoms.data, atol=1e-9
            )

    def test_rigid_motion_invariance(self):
        np_rng = np.random.default_rng(7)
        model = GeoGNN(SMALL, rng=Rng(8))
        for i in range(5):
            mol = random_molecule(Rng(100 + i))
            _, _, emb = embed_molecule(model, mol)
            m = np_rng.normal(size=(3, 3))
            q, r = np.linalg.qr(m)
            rot = q * np.sign(np.diag(r))
            shift = np_rng.normal(size=3) * 4.0
            moved = make_molecule(
                [a.element for a in mol.atoms],
                [(b.a, b.b) for b in mol.bonds],
                (np.asarray(mol.coords) @ rot.T + shift).tolist(),
            )
            _, _, emb2 = embed_molecule(model, moved)
            assert np.max(np.abs(emb.h_graph.data - emb2.h_graph.data)) < 1e-9

    @pytest.mark.parametrize(
        "seed,min_atoms,max_atoms",
        [(s, 4, 30) for s in range(20)] + [(100, 1, 1), (101, 2, 2), (102, 3, 3)],
    )
    def test_eval_forward_matches_reference(self, seed, min_atoms, max_atoms):
        model = GeoGNN(ModelConfig(), rng=Rng(12))
        mol = random_molecule(Rng(seed), min_atoms=min_atoms, max_atoms=max_atoms)
        graph, enc, emb = embed_molecule(model, mol)
        params = {name: t.data for name, t in model.store.items()}
        want = geognn_forward_reference(params, model.config.num_blocks, graph, enc)
        for got, ref in zip((emb.h_atoms, emb.h_graph), want):
            assert got.shape == ref.shape
            np.testing.assert_allclose(got.data, ref, rtol=0, atol=1e-12)

    def test_geometry_discrimination_cis_trans(self, cis_trans_pair):
        cis, trans = cis_trans_pair
        model = GeoGNN(SMALL, rng=Rng(11))
        _, _, emb_cis = embed_molecule(model, cis)
        _, _, emb_trans = embed_molecule(model, trans)
        assert np.max(np.abs(emb_cis.h_graph.data - emb_trans.h_graph.data)) > 1e-6
        # with the geometry channel ablated the two encodings coincide
        _, _, flat_cis = embed_molecule(model, cis, include_geometry=False)
        _, _, flat_trans = embed_molecule(model, trans, include_geometry=False)
        assert np.max(np.abs(flat_cis.h_graph.data - flat_trans.h_graph.data)) < 1e-12

    def test_one_block_model_reads_no_angle_embedding(self):
        # its one bond update, the only reader of angles, is skipped
        model = GeoGNN(ModelConfig(num_blocks=1, hidden=4, dropout=0.0), rng=Rng(4))
        mol = random_molecule(Rng(5), min_atoms=5, max_atoms=8)
        graph, _, want = embed_molecule(model, mol)
        assert graph.num_angles > 0
        model.store["embed.angle.w"].data[...] = np.nan
        _, _, got = embed_molecule(model, mol)
        assert np.array_equal(got.h_graph.data, want.h_graph.data)

    def test_feature_width_mismatch_rejected(self):
        mol = random_molecule(Rng(12))
        model = GeoGNN(SMALL, rng=Rng(13))
        graph = build_dual_graph(mol)
        enc = encode(graph, mol, FeatureConfig())
        enc.atom = enc.atom[:, :-2]
        with pytest.raises(Exception):
            model.forward(graph, enc)

    def test_minus_infinity_before_relu_names_block_and_op(self):
        # relu(-inf) is 0: left unchecked, the update's output would be finite
        model = GeoGNN(SMALL, rng=Rng(3))
        model.store["block1.atom.mlp1.b"].data[0] = -np.inf
        with pytest.raises(NumericalError,
                           match="^block 1: non-finite values produced by affine in node_update"):
            embed_molecule(model, random_molecule(Rng(1)))


def _moved(mol, rot, shift):
    return dataclasses.replace(mol, coords=[tuple(xyz) for xyz in
                                            (np.asarray(mol.coords) @ rot.T + shift).tolist()])


@pytest.mark.parametrize("precision,tol", [("f64", 1e-12), ("f32", 1e-5)])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 40), min_size=1, max_size=8))
def test_embeddings_are_invariant_at_the_default_widths(precision, tol, seed, sizes):
    """Eval embeddings of a pack of random molecules, with chiral tags and
    wedge and dash bonds, under relabelled atoms, a shuffled bond list,
    swapped ends of undirected bonds and a mirror image (each exactly the
    same), and under a rotation plus a shift of about 10 A and embedding
    each molecule alone (each within the rounding of ``tol``)."""
    config = ModelConfig(precision=precision)
    store = GeoGNN(config, rng=Rng(1)).store
    gen = np.random.default_rng(seed)
    mols = []
    for i, n in enumerate(sizes):
        mol = random_molecule(Rng(seed).fork(i), min_atoms=n, max_atoms=n,
                              ring_probability=0.7, mol_id=f"m{i}")
        for atom in mol.atoms:
            atom.chirality = CHIRALITIES[gen.integers(len(CHIRALITIES))]
        for bond in mol.bonds:
            bond.bond_dir = ("none", "none", "begin_wedge", "begin_dash")[gen.integers(4)]
        mols.append(mol)

    def embedded(molecules):
        return np.stack([vec for _, vec in embed_molecules(store, config, molecules)])

    base = embedded(mols)
    rot, r = np.linalg.qr(gen.normal(size=(3, 3)))
    rot *= np.sign(np.diag(r))
    exact = {
        "shuffled bonds": [dataclasses.replace(m, bonds=[m.bonds[j] for j in
                                                         gen.permutation(len(m.bonds))])
                           for m in mols],
        "swapped ends": [dataclasses.replace(m, bonds=[
            dataclasses.replace(b, a=b.b, b=b.a) if b.bond_dir == "none" and gen.random() < 0.5
            else b for b in m.bonds]) for m in mols],
        "mirror image": [_moved(m, np.diag([-1.0, 1.0, 1.0]), np.zeros(3)) for m in mols],
    }
    for name, changed in exact.items():
        assert np.array_equal(embedded(changed), base), name
    close = {
        "relabelled atoms": embedded([relabel(m, gen.permutation(len(m.atoms))) for m in mols]),
        "rigid motion": embedded([_moved(m, rot, gen.normal(size=3) * 6.0) for m in mols]),
        "alone": np.concatenate([embedded([m]) for m in mols]),
    }
    for name, got in close.items():
        assert np.abs(got - base).max() <= tol, name


@pytest.mark.parametrize("precision,tol", [("f64", 1e-12), ("f32", 1e-5)])
def test_downstream_step_gradients_are_invariant_under_relabelling(precision, tol):
    """One train-mode downstream step (dropout 0) at the default widths on a
    batch of random molecules with chiral tags, wedge and dash bonds and a
    missing label: relabelling each molecule's atoms, every atom and bond
    field carried along, gives the same loss and every parameter the same
    gradient, within the rounding of ``tol`` relative to its largest entry."""
    config = ModelConfig(precision=precision, dropout=0.0, num_tasks=2)
    gen = np.random.default_rng(8)
    mols = []
    for i, n in enumerate((1, 2, 6, 13, 24, 37)):
        mol = random_molecule(Rng(8).fork(i), min_atoms=n, max_atoms=n,
                              ring_probability=0.7, mol_id=f"m{i}")
        for atom in mol.atoms:
            atom.chirality = CHIRALITIES[gen.integers(len(CHIRALITIES))]
        for bond in mol.bonds:
            bond.bond_dir = ("none", "none", "begin_wedge", "begin_dash")[gen.integers(4)]
        mols.append(mol)
    labels = gen.normal(size=(len(mols), 2))
    labels[3, 1] = np.nan

    def step(molecules):
        model = GeoGNN(config, rng=Rng(2))
        items = prepare_molecules(molecules, model.features, dtype=config.dtype)
        with Tape() as tape:
            loss, _ = _downstream_batch_loss(model, items, labels, "regression",
                                             [Rng(3).fork(i) for i in range(len(items))])
        tape.backward(loss)
        return loss.item(), {name: t.grad for name, t in model.store.items()}

    loss, grads = step(mols)
    moved_loss, moved = step([relabel(m, gen.permutation(len(m.atoms))) for m in mols])
    assert abs(moved_loss - loss) <= tol * abs(loss)
    assert {n for n, g in moved.items() if g is None} == {n for n, g in grads.items() if g is None}
    assert any(name.startswith("block") for name, g in grads.items() if g is not None)
    for name, grad in grads.items():
        if grad is not None:
            assert np.abs(moved[name] - grad).max() <= tol * np.abs(grad).max(), name


class TestHeads:
    def test_distance_logits_width_default_config(self):
        mol = random_molecule(Rng(20))
        model = GeoGNN(ModelConfig(num_blocks=1, hidden=4, dropout=0.0), rng=Rng(21))
        graph, _, emb = embed_molecule(model, mol)
        assert graph.num_atoms > 1
        # scored over 30 bins: bin 29 is a label, bin 30 is not
        bins = np.full(graph.num_atoms * (graph.num_atoms + 1) // 2, 29)
        assert loss_distance(model, emb, graph, bins).item() > 0.0
        with pytest.raises(ShapeError):
            loss_distance(model, emb, graph, bins + 1)

    def test_multi_task_output_width(self):
        mol = random_molecule(Rng(22))
        cfg = ModelConfig(num_blocks=1, hidden=4, dropout=0.0, num_tasks=12)
        model = GeoGNN(cfg, rng=Rng(23))
        _, _, emb = embed_molecule(model, mol)
        assert model.head_downstream(emb.h_graph).shape == (1, 12)

    def test_zero_weights_give_bias(self):
        mol = random_molecule(Rng(24))
        model = GeoGNN(SMALL, rng=Rng(25))
        for layer in ("l1", "l2"):
            model.store[f"head_length.{layer}.w"].data[:] = 0.0
        model.store["head_length.l1.b"].data[:] = 0.0
        model.store["head_length.l2.b"].data[:] = 0.75
        _, _, emb = embed_molecule(model, mol)
        out = model.head_length(
            T.gather_rows(emb.h_atoms, [0]), T.gather_rows(emb.h_atoms, [1])
        )
        assert out.data[0, 0] == 0.75

    def test_fingerprint_head_passthrough_on_hidden_one(self):
        mol = make_molecule(["C"], [], [(0.0, 0.0, 0.0)])
        cfg = ModelConfig(num_blocks=1, hidden=1, dropout=0.0, fingerprint_bits=1)
        model = GeoGNN(cfg, rng=Rng(26))
        model.store["head_fp.l1.w"].data[:] = 1.0
        model.store["head_fp.l1.b"].data[:] = 0.0
        _, _, emb = embed_molecule(model, mol)
        out = model.head_fingerprint(emb.h_graph)
        assert out.data[0, 0] == pytest.approx(emb.h_graph.data[0, 0])

    def test_disabled_heads_raise(self):
        cfg = ModelConfig(num_blocks=1, hidden=4, fingerprint_bits=0, num_tasks=0)
        model = GeoGNN(cfg, rng=Rng(27))
        mol = random_molecule(Rng(28))
        _, _, emb = embed_molecule(model, mol)
        with pytest.raises(ConfigError):
            model.head_fingerprint(emb.h_graph)
        with pytest.raises(ConfigError):
            model.head_downstream(emb.h_graph)

    def test_head_gradients_vs_finite_differences(self):
        mol = random_molecule(Rng(29), min_atoms=4, max_atoms=5)
        model = GeoGNN(SMALL, rng=Rng(30))
        graph = build_dual_graph(mol)
        enc = encode(graph, mol, FeatureConfig())

        def head_loss():
            emb = model.forward(graph, enc)
            pred = model.head_length(
                T.gather_rows(emb.h_atoms, graph.bonds[:, 0]),
                T.gather_rows(emb.h_atoms, graph.bonds[:, 1]),
            )
            return T.squared_error(pred, np.zeros(pred.shape), np.ones(pred.shape))

        store = model.store
        store.zero_grad()
        with Tape() as tape:
            loss = head_loss()
        tape.backward(loss)
        for name in ("head_length.l1.w", "head_length.l2.b"):
            tensor = store[name]
            analytic = tensor.grad
            flat = tensor.data.reshape(-1)
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-5
                up = head_loss().item()
                flat[i] = orig - 1e-5
                down = head_loss().item()
                flat[i] = orig
                fd[i] = (up - down) / 2e-5
            assert relative_error(analytic.reshape(-1), fd) < 1e-4


class TestFullModelGradcheck:
    def test_every_parameter_matches_finite_differences(self):
        mol = random_molecule(Rng(40), min_atoms=4, max_atoms=5)
        model = GeoGNN(SMALL, rng=Rng(41))
        graph = build_dual_graph(mol)
        enc = encode(graph, mol, FeatureConfig())
        c = SMALL.distance_bins
        dists = distance_matrix(graph.coords)[np.triu_indices(graph.num_atoms)]
        bins = np.minimum(np.floor(dists), c - 1).astype(int)
        bits = (Rng(42).uniform_array((1, 4)) > 0.5).astype(float)
        # an embedding weight on a feature column that is 0 in every row
        # multiplies only zeros, so both nudged losses are the same bits and
        # its gradient must be exactly 0 (1,344 of the 4,426 values here)
        zero = {}
        for kind in ("atom", "bond", "angle"):
            unused = ~getattr(enc, kind).any(axis=0)
            zero[f"embed.{kind}.w"] = np.repeat(unused[:, None], SMALL.hidden, axis=1)
        assert sum(int(mask.sum()) for mask in zero.values()) == 1344

        worst = model_gradcheck(
            model.store, lambda: composite_loss(model, graph, enc, bits, bins), zero=zero
        )
        assert worst < 1e-4


class TestParamStore:
    def test_snapshot_is_value_semantic(self):
        model = GeoGNN(SMALL, rng=Rng(50))
        snapshot = model.store.copy()
        model.store["embed.atom.w"].data[:] = 0.0
        assert not np.array_equal(
            snapshot["embed.atom.w"].data, model.store["embed.atom.w"].data
        )

    def test_fresh_parameters_are_views_of_one_buffer_in_store_order(self):
        store = GeoGNN(SMALL, rng=Rng(56)).store
        assert store.flat.dtype == SMALL.dtype
        assert store.flat.size == sum(t.size for _, t in store.items())
        at = 0
        for _, t in store.items():
            assert t.data.base is store.flat
            assert np.shares_memory(t.data, store.flat[at : at + t.size])
            at += t.size

    def test_init_is_seed_deterministic(self):
        a = GeoGNN(SMALL, rng=Rng(51)).store
        b = GeoGNN(SMALL, rng=Rng(51)).store
        c = GeoGNN(SMALL, rng=Rng(52)).store
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)
        assert any(not np.array_equal(a[n].data, c[n].data) for n in a.names())

    def test_given_tensors_are_kept_and_the_rest_drawn_as_fresh(self):
        fresh = GeoGNN(SMALL, rng=Rng(54)).store
        given = store_of({"embed.atom.w": np.ones(fresh["embed.atom.w"].shape),
                          "block0.bond.norm.gain": np.full(SMALL.hidden, 2.0),
                          "no.such.tensor": np.ones(3)})
        store = init_params(SMALL, Rng(54).fork("init"), given=given)
        assert store.names() == fresh.names()
        for name in store.names():
            want = given[name].data if name in given else fresh[name].data
            assert np.array_equal(store[name].data, want), name

    def test_given_tensor_of_wrong_shape_is_a_config_error(self):
        d, n = SMALL.down_head_hidden, SMALL.num_tasks
        given = store_of({"head_down.l3.w": np.ones((d, n + 1))})
        with pytest.raises(ConfigError, match=re.escape(
                f"parameter head_down.l3.w: checkpoint {(d, n + 1)}, model {(d, n)}")):
            init_params(SMALL, Rng(55), given=given)

    def test_uniform_init_respects_fan_in_bound(self):
        model = GeoGNN(SMALL, rng=Rng(53))
        w = model.store["embed.atom.w"].data
        bound = 1.0 / np.sqrt(FeatureConfig().atom_width)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > bound * 0.5

    @pytest.mark.parametrize("head, rows, terms", [("length", 1, 2), ("angle", 2, 3),
                                                   ("distance", 1, 2)])
    def test_order_free_heads_draw_at_their_summed_fan_in(self, head, rows, terms):
        """A head that adds atom rows before its first layer sums more input
        terms into each pre-activation than the layer has rows, and its
        bound counts the terms: 2h for length and distance, 3h for angle."""
        config = ModelConfig(hidden=32, geom_head_hidden=64)
        model = GeoGNN(config, rng=Rng(56))
        w = model.store[f"head_{head}.l1.w"].data
        assert w.shape == (rows * config.hidden, config.geom_head_hidden)
        bound = 1.0 / np.sqrt(terms * config.hidden)
        assert bound * 0.9 < np.abs(w).max() <= bound


class TestModelSize:
    def test_count_is_the_table_sum(self):
        gen = np.random.default_rng(60)
        for _ in range(20):
            config = ModelConfig(
                num_blocks=int(gen.integers(1, 5)), hidden=int(gen.integers(1, 40)),
                distance_bins=int(gen.integers(2, 40)), geom_head_hidden=int(gen.integers(1, 40)),
                down_head_hidden=int(gen.integers(1, 40)),
                fingerprint_bits=int(gen.integers(0, 3)) * 7, num_tasks=int(gen.integers(0, 3)))
            table = sum(int(np.prod(shape)) for _, shape, _ in parameter_table(config))
            assert parameter_count(config) == table, config

    @pytest.mark.parametrize("name", ["num_blocks", "hidden", "geom_head_hidden",
                                      "down_head_hidden", "distance_bins", "fingerprint_bits",
                                      "num_tasks"])
    @pytest.mark.parametrize("value", [10**400, 2**40, MAX_PARAMETERS])
    def test_size_over_the_cap_is_named(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer in"):
            ModelConfig(**{name: value}).validate()

    def test_sizes_whose_product_is_over_the_cap_are_named(self):
        with pytest.raises(ConfigError, match=r"num_blocks=8, hidden=4000, .* more than the cap"):
            ModelConfig(hidden=4000).validate()
        # counted from two block counts' tables, not by walking every block
        with pytest.raises(ConfigError, match=r"num_blocks=99999999, .* more than the cap"):
            ModelConfig(num_blocks=99_999_999).validate()
        ModelConfig(hidden=1000).validate()
