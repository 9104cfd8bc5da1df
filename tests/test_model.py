import numpy as np
import pytest

from geognn import tensor as T
from geognn.errors import ConfigError, NumericalError, ShapeError
from geognn.features import FeatureConfig, encode
from geognn.geometry import build_dual_graph, distance_matrix
from geognn.model import GeoGNN, ModelConfig, ParamStore, init_params
from geognn.pretrain import loss_distance
from geognn.rng import Rng
from geognn.synth import random_molecule
from geognn.tensor import Tape, Tensor

from conftest import make_molecule, without_geometry
from oracles import geognn_forward_reference, model_gradcheck, relative_error

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
    diff = T.sub(pred_len, Tensor(graph.lengths.reshape(-1, 1)))
    loss = T.mul(T.sum_all(T.mul(diff, diff)), 1.0 / max(graph.num_bonds, 1))
    if graph.num_angles:
        w, c, x = graph.angles[:, 0], graph.angles[:, 1], graph.angles[:, 2]
        pred_ang = model.head_angle(T.gather_rows(h, w), T.gather_rows(h, c), T.gather_rows(h, x))
        adiff = T.sub(pred_ang, Tensor(graph.angle_values.reshape(-1, 1)))
        loss = T.add(loss, T.mul(T.sum_all(T.mul(adiff, adiff)), 1.0 / graph.num_angles))
    loss = T.add(loss, loss_distance(model, emb, graph, bins))
    loss = T.add(loss, T.bce_with_logits(model.head_fingerprint(emb.h_graph), Tensor(bits)))
    return T.add(loss, T.sum_all(model.head_downstream(emb.h_graph)))


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


class TestHeads:
    def test_distance_logits_width_default_config(self):
        mol = random_molecule(Rng(20))
        model = GeoGNN(ModelConfig(num_blocks=1, hidden=4, dropout=0.0), rng=Rng(21))
        graph, _, emb = embed_molecule(model, mol)
        assert graph.num_atoms > 1
        # scored over 30 bins: bin 29 is a label, bin 30 is not
        bins = np.full(graph.num_atoms**2, 29)
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
            return T.sum_all(T.mul(pred, pred))

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
        bins = np.minimum(np.floor(distance_matrix(graph.coords).reshape(-1)), c - 1).astype(int)
        bits = (Rng(42).uniform_array((1, 4)) > 0.5).astype(float)

        worst = model_gradcheck(
            model.store, lambda: composite_loss(model, graph, enc, bits, bins)
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

    def test_put_after_an_optimizer_step_is_refused(self):
        from geognn.training import adam_step

        store = ParamStore()
        store.put("a", [1.0])
        store.flat()
        store.put("b", [[2.0, 3.0]])  # the buffer is rebuilt to hold it
        assert np.array_equal(store.flat(), [1.0, 2.0, 3.0])
        assert all(np.shares_memory(t.data, store.flat()) for _, t in store.items())
        store["a"].grad = np.array([1.0])
        adam_step(store, lr_body=0.1)
        with pytest.raises(ConfigError, match="cannot add parameter c after an optimizer step"):
            store.put("c", [4.0])
        assert store.names() == ["a", "b"]
        assert store.copy().put("c", [4.0]).shape == (1,)

    def test_init_is_seed_deterministic(self):
        a = GeoGNN(SMALL, rng=Rng(51)).store
        b = GeoGNN(SMALL, rng=Rng(51)).store
        c = GeoGNN(SMALL, rng=Rng(52)).store
        for name in a.names():
            assert np.array_equal(a[name].data, b[name].data)
        assert any(not np.array_equal(a[n].data, c[n].data) for n in a.names())

    def test_given_tensors_are_kept_and_the_rest_drawn_as_fresh(self):
        fresh = GeoGNN(SMALL, rng=Rng(54)).store
        given = ParamStore()
        given.put("embed.atom.w", np.ones(fresh["embed.atom.w"].shape))
        given.put("block0.bond.norm.gain", np.full(SMALL.hidden, 2.0))
        given.put("no.such.tensor", np.ones(3))
        store = init_params(SMALL, FeatureConfig(), Rng(54).fork("init"), given=given)
        assert store.names() == fresh.names()
        for name in store.names():
            want = given[name].data if name in given else fresh[name].data
            assert np.array_equal(store[name].data, want), name

    def test_given_tensor_of_wrong_shape_is_a_config_error(self):
        given = ParamStore()
        given.put("head_down.l3.w", np.ones((SMALL.down_head_hidden, SMALL.num_tasks + 1)))
        with pytest.raises(ConfigError, match="head_down.l3.w: shape mismatch"):
            init_params(SMALL, FeatureConfig(), Rng(55), given=given)

    def test_uniform_init_respects_fan_in_bound(self):
        model = GeoGNN(SMALL, rng=Rng(53))
        w = model.store["embed.atom.w"].data
        bound = 1.0 / np.sqrt(FeatureConfig().atom_width)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > bound * 0.5
