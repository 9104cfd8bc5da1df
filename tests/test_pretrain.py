import importlib
import math

import numpy as np
import pytest

from geognn import tensor as T
from geognn.errors import DataError
from geognn.features import FeatureConfig, encode
from geognn.geometry import build_dual_graph
from geognn.masking import mask_context
from geognn.model import GeoGNN, ModelConfig
from geognn.pretrain import (
    PreparedMolecule,
    loss_angle,
    loss_distance,
    loss_fingerprint,
    loss_length,
    loss_pre,
    pack,
)
from geognn.rng import Rng
from geognn.synth import random_molecule
from geognn.tensor import Tape, Tensor
from geognn.training import prepare_molecules

from conftest import make_molecule, relabel
from oracles import softmax_ce_reference

# the module: the package's own ``pretrain`` is the training function
pretrain = importlib.import_module("geognn.pretrain")

CFG = ModelConfig(
    num_blocks=2, hidden=8, dropout=0.0, distance_bins=30,
    geom_head_hidden=16, down_head_hidden=16, fingerprint_bits=6, num_tasks=1,
)


def prepare(mol, model):
    graph = build_dual_graph(mol)
    return PreparedMolecule(molecule=mol, graph=graph, encoded=encode(graph, mol, model.features))


@pytest.fixture
def model():
    return GeoGNN(CFG, rng=Rng(1))


def distance_logits(model, h_u, h_v):
    """The distance head on one atom pair, in numpy from the store's weights."""
    p = {name: t.data for name, t in model.store.items()}
    hidden = np.maximum(h_u @ p["head_distance.l1.w"] + h_v @ p["head_distance.l1.w"]
                        + p["head_distance.l1.b"], 0.0)
    return hidden @ p["head_distance.l2.w"] + p["head_distance.l2.b"]


def loss_pre_bins(model, items):
    """The distance bins ``loss_pre`` hands ``loss_distance`` for ``items``,
    one pack: each molecule's pairs (i, j >= i) in turn, i-major."""
    seen = []

    def record(model, emb, graph, bin_ids):
        seen.append(bin_ids)
        return Tensor(np.zeros(()))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pretrain, "loss_distance", record)
        loss_pre(model, items, [Rng(i) for i in range(len(items))], tasks=("distance",),
                 mode="eval")
    return np.concatenate(seen)


def bin_matrix(bins, n):
    """[n, n] bins of every ordered pair of one molecule from its pairs (i, j >= i)."""
    full = np.zeros((n, n), dtype=bins.dtype)
    full[np.triu_indices(n)] = bins
    return np.maximum(full, full.T)


def distance_bins(distances):
    """loss_pre's bins of the pairs (0, i) of an unbonded molecule with atom
    0 at the origin and atom i at (distances[i - 1], 0, 0); 30 bins."""
    coords = [(0.0, 0.0, 0.0)] + [(d, 0.0, 0.0) for d in distances]
    mol = make_molecule(["C"] * len(coords), [], coords)
    model = GeoGNN(CFG, rng=Rng(1))
    bins = loss_pre_bins(model, [prepare(mol, model)])
    return bins[1 : len(coords)]  # the first row of pairs is (0, 0), (0, 1), ...


class TestBinDistance:
    def test_half_angstrom(self):
        assert distance_bins([0.5]).tolist() == [0]

    def test_29_3(self):
        assert distance_bins([29.3]).tolist() == [29]

    # 1e19 lies beyond int64 and 1e100 beyond every integer: each is clamped before the cast
    @pytest.mark.parametrize("far", [100.0, 1e19, 1e100])
    def test_clamp_far(self, far):
        assert distance_bins([far]).tolist() == [29]

    def test_non_finite_rejected(self):
        # finite coordinates whose squared distance overflows
        with pytest.raises(DataError), np.errstate(over="ignore"):
            distance_bins([1.0, 1e300])

    def test_always_one_hot(self):
        rng = Rng(3)
        dists = [rng.uniform(0.0, 40.0) for _ in range(50)]
        bins = distance_bins(dists)
        assert bins.dtype == np.uint8  # 30 bins fit the smallest integers
        assert bins.tolist() == [min(int(d), 29) for d in dists]
        one_hot = np.eye(30)[bins]
        assert np.all(one_hot.sum(axis=1) == 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_apart_unbonded_atom_names_its_molecule():
    # featurizes, as no bond reaches the far atom, but its distances overflow
    mol = make_molecule(["C", "C", "C"], [(0, 1)], [(0, 0, 0), (1.5, 0, 0), (1e200, 0, 0)],
                        mol_id="far")
    items = prepare_molecules([mol], FeatureConfig())
    with pytest.raises(DataError, match="molecule far: non-finite atomic distance"):
        items[0].distance_bins(30)


class TestGeometryLosses:
    def test_exact_prediction_gives_zero(self, model, water=None):
        mol = random_molecule(Rng(5))
        item = prepare(mol, model)
        _, masked = mask_context(item.graph, item.encoded, 1.0, [Rng(6)])
        emb = model.forward(item.graph, item.encoded)
        # force the length head to output each true target via zero weights
        # is impossible; instead check the zero-diff identity directly
        m = masked.bond_lengths.size
        preds = Tensor(masked.bond_lengths.reshape(m, 1))
        targets = masked.bond_lengths.reshape(m, 1)
        assert T.squared_error(preds, targets, np.ones((m, 1))).item() == 0.0

    def test_single_bond_squared_error(self, model):
        # one masked bond, prediction 1.0, target 1.5 -> 0.25
        pred = Tensor(np.array([[1.0]]))
        loss = T.squared_error(pred, np.array([[1.5]]), np.ones((1, 1)))
        assert loss.item() == pytest.approx(0.25, abs=1e-15)

    def test_loss_length_matches_direct_formula(self, model):
        mol = random_molecule(Rng(7), min_atoms=6, max_atoms=8)
        item = prepare(mol, model)
        _, masked = mask_context(item.graph, item.encoded, 0.5, [Rng(8)])
        if masked.bond_lengths.size == 0:
            pytest.skip("no masked bonds in this draw")
        emb = model.forward(item.graph, item.encoded)
        got = loss_length(model, emb, masked).item()
        h_u = T.gather_rows(emb.h_atoms, masked.bond_atoms[:, 0])
        h_v = T.gather_rows(emb.h_atoms, masked.bond_atoms[:, 1])
        preds = model.head_length(h_u, h_v).data.reshape(-1)
        want = float(np.mean((preds - masked.bond_lengths) ** 2))
        assert got == pytest.approx(want, abs=1e-12)

    def test_loss_angle_value(self, model):
        mol = random_molecule(Rng(9), min_atoms=5, max_atoms=7)
        item = prepare(mol, model)
        _, masked = mask_context(item.graph, item.encoded, 1.0, [Rng(10)])
        emb = model.forward(item.graph, item.encoded)
        got = loss_angle(model, emb, masked).item()
        h_w = T.gather_rows(emb.h_atoms, masked.angle_atoms[:, 0])
        h_u = T.gather_rows(emb.h_atoms, masked.angle_atoms[:, 1])
        h_v = T.gather_rows(emb.h_atoms, masked.angle_atoms[:, 2])
        preds = model.head_angle(h_w, h_u, h_v).data.reshape(-1)
        want = float(np.mean((preds - masked.angle_values) ** 2))
        assert got == pytest.approx(want, abs=1e-12)

    def test_pi_over_two_error(self):
        # one angle, prediction pi, target pi/2 -> (pi/2)^2
        loss = T.squared_error(Tensor([[math.pi]]), [[math.pi / 2]], [[1.0]])
        assert loss.item() == pytest.approx(2.4674, abs=1e-4)

    def test_empty_targets_give_zero(self, model):
        mol = random_molecule(Rng(11), min_atoms=1, max_atoms=1)
        item = prepare(mol, model)
        _, masked = mask_context(item.graph, item.encoded, 1.0, [Rng(12)])
        emb = model.forward(item.graph, item.encoded)
        assert loss_length(model, emb, masked).item() == 0.0
        assert loss_angle(model, emb, masked).item() == 0.0


class TestDistanceLoss:
    def test_uniform_logits_give_ln_bins(self, model):
        mol = random_molecule(Rng(13), min_atoms=3, max_atoms=5)
        item = prepare(mol, model)
        for layer in ("l1", "l2"):
            model.store[f"head_distance.{layer}.w"].data[:] = 0.0
            model.store[f"head_distance.{layer}.b"].data[:] = 0.0
        emb = model.forward(item.graph, item.encoded)
        bins = loss_pre_bins(model, [item])
        got = loss_distance(model, emb, item.graph, bins).item()
        assert got == pytest.approx(math.log(30.0), abs=1e-12)

    def test_two_atom_graph_averages_four_pairs(self, model):
        mol = random_molecule(Rng(14), min_atoms=2, max_atoms=2)
        item = prepare(mol, model)
        emb = model.forward(item.graph, item.encoded)
        bins = loss_pre_bins(model, [item])
        assert bins.size == 3
        got = loss_distance(model, emb, item.graph, bins).item()
        h = emb.h_atoms.data
        total = 0.0
        for u in range(2):
            for v in range(2):
                logits = distance_logits(model, h[u], h[v])
                one_hot = np.zeros((1, 30))
                one_hot[0, bin_matrix(bins, 2)[u, v]] = 1.0
                total += softmax_ce_reference(logits.reshape(1, -1), one_hot)
        assert got == pytest.approx(total / 4.0, abs=1e-10)

    def test_four_atom_case_vs_double_loop(self, model):
        mol = random_molecule(Rng(15), min_atoms=4, max_atoms=4)
        item = prepare(mol, model)
        emb = model.forward(item.graph, item.encoded)
        bins = loss_pre_bins(model, [item])
        got = loss_distance(model, emb, item.graph, bins).item()
        n = item.graph.num_atoms
        total = 0.0
        for u in range(n):
            for v in range(n):
                logits = distance_logits(model, emb.h_atoms.data[u], emb.h_atoms.data[v])
                one_hot = np.zeros((1, 30))
                one_hot[0, bin_matrix(bins, n)[u, v]] = 1.0
                total += softmax_ce_reference(logits.reshape(1, -1), one_hot)
        assert got == pytest.approx(total / n**2, abs=1e-10)

    def test_single_atom_returns_zero(self, model):
        mol = random_molecule(Rng(16), min_atoms=1, max_atoms=1)
        item = prepare(mol, model)
        emb = model.forward(item.graph, item.encoded)
        assert loss_distance(model, emb, item.graph, np.zeros(1, dtype=int)).item() == 0.0

    def test_diagonal_bins_are_zero(self, model):
        mol = random_molecule(Rng(17), min_atoms=3, max_atoms=6)
        item = prepare(mol, model)
        bins = loss_pre_bins(model, [item])
        n = item.graph.num_atoms
        assert np.all(np.diag(bin_matrix(bins, n)) == 0)

    def test_mixed_pack_records_one_op(self, model):
        # the whole objective is one op: no pair rows are gathered,
        # concatenated or kept on the tape
        items = [prepare(random_molecule(Rng(18).fork(i), min_atoms=n, max_atoms=n), model)
                 for i, n in enumerate((1, 7, 3, 12))]
        graph, encoded = pack(items)
        bins = loss_pre_bins(model, items)
        with Tape() as tape:
            emb = model.forward(graph, encoded)
            start = len(tape)
            loss_distance(model, emb, graph, bins)
        ops = [grad_fn.__qualname__.split(".")[0] for _, _, grad_fn in tape._records[start:]]
        assert ops == ["pair_mlp_cross_entropy"]


class TestFingerprintLoss:
    def test_strong_logits_drive_loss_down(self, model):
        mol = random_molecule(Rng(20))
        mol.fingerprint = [1, 0, 1, 1, 0, 0]
        item = prepare(mol, model)
        emb = model.forward(item.graph, item.encoded)
        bits = np.array(mol.fingerprint, dtype=float)
        logits = np.where(bits > 0, 10.0, -10.0).reshape(1, -1)
        mean = np.full((1, bits.size), 1 / bits.size)
        assert T.bce_with_logits(Tensor(logits), Tensor(bits.reshape(1, -1)), mean).item() < 0.01

    def test_zero_logits_give_ln2(self, model):
        mol = random_molecule(Rng(21))
        mol.fingerprint = [0, 1, 0, 1, 1, 0]
        item = prepare(mol, model)
        model.store["head_fp.l1.w"].data[:] = 0.0
        model.store["head_fp.l1.b"].data[:] = 0.0
        emb = model.forward(item.graph, item.encoded)
        got = loss_fingerprint(model, emb, [mol]).item()
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_width_mismatch_rejected(self, model):
        mol = random_molecule(Rng(22))
        mol.fingerprint = [1, 0]
        item = prepare(mol, model)
        emb = model.forward(item.graph, item.encoded)
        with pytest.raises(DataError, match=r"fingerprint width 2 does not match the model \(6\)"):
            loss_fingerprint(model, emb, [mol])

    def test_empty_bits_rejected(self, model):
        # an empty fingerprint is a width of 0, not a molecule without bits
        mol = random_molecule(Rng(23))
        mol.fingerprint = []
        item = prepare(mol, model)
        emb = model.forward(item.graph, item.encoded)
        with pytest.raises(DataError, match=r"fingerprint width 0 does not match the model \(6\)"):
            loss_fingerprint(model, emb, [mol])


class TestLossPre:
    def test_compositionality_with_shared_seed(self, model):
        mol = random_molecule(Rng(24), min_atoms=6, max_atoms=9)
        item = prepare(mol, model)
        seed_rng = Rng(77)
        total, parts = loss_pre(model, [item], [Rng(77)], mode="eval")
        masked_enc, masked = mask_context(item.graph, item.encoded, 0.15, [Rng(77).fork("mask")])
        emb = model.forward(item.graph, masked_enc, mode="eval")
        bins = loss_pre_bins(model, [item])
        want = (
            loss_length(model, emb, masked).item()
            + loss_angle(model, emb, masked).item()
            + loss_distance(model, emb, item.graph, bins).item()
        )
        assert total.item() == pytest.approx(want, abs=1e-12)
        assert parts["length"] + parts["angle"] + parts["distance"] == pytest.approx(
            total.item(), abs=1e-12
        )

    def test_batch_of_identical_molecules_same_seed(self, model):
        mol = random_molecule(Rng(25), min_atoms=5, max_atoms=8)
        item = prepare(mol, model)
        single, _ = loss_pre(model, [item], [Rng(9)], mode="eval")
        double, _ = loss_pre(model, [item, item], [Rng(9), Rng(9)], mode="eval")
        assert double.item() == pytest.approx(single.item(), abs=1e-12)

    def test_all_losses_nonnegative_and_reproducible(self, model):
        rng = Rng(26)
        items = [prepare(random_molecule(rng.fork(i)), model) for i in range(4)]
        rngs = [Rng(5).fork(i) for i in range(len(items))]
        a, parts = loss_pre(model, items, rngs, tasks=("length", "angle", "distance"))
        b, _ = loss_pre(model, items, rngs, tasks=("length", "angle", "distance"))
        assert a.item() >= 0.0
        assert all(v >= 0.0 for v in parts.values())
        assert a.item() == b.item()


class _DrawnMask:
    """A molecule's stream for ``loss_pre`` whose "mask" fork draws the
    given atoms; its other forks are forks of a fixed stream."""

    def __init__(self, atoms):
        self.atoms = np.asarray(atoms)

    def fork(self, tag):
        return self if tag == "mask" else Rng(0).fork(tag)

    def sample(self, n, k):
        assert k == len(self.atoms) <= n
        return self.atoms


@pytest.mark.parametrize("mask_ratio", [0.15, 0.5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_eval_pretraining_losses_are_invariant_under_relabelling(seed, mask_ratio):
    """Eval-mode pretraining losses of a pack of random molecules at the
    default widths, each molecule's atoms relabelled at random with every
    field and the masked atoms carried along, stay within 1e-12 of their
    values, relative: no geometry head reads atom order."""
    model = GeoGNN(ModelConfig(), rng=Rng(seed))
    gen = np.random.default_rng(seed)
    sizes = [1, 2, 3, *gen.integers(4, 31, size=9).tolist()]
    mols = [random_molecule(Rng(seed).fork(i), min_atoms=n, max_atoms=n, ring_probability=0.7,
                            mol_id=f"m{i}") for i, n in enumerate(sizes)]
    masks = [Rng(seed).fork(f"mask{i}").sample(n, max(1, round(mask_ratio * n)))
             for i, n in enumerate(sizes)]

    def losses(perms):
        items = [prepare(relabel(mol, perm), model) for mol, perm in zip(mols, perms)]
        streams = [_DrawnMask(perm[atoms]) for perm, atoms in zip(perms, masks)]
        return loss_pre(model, items, streams, mask_ratio=mask_ratio, mode="eval")[1]

    base = losses([np.arange(n) for n in sizes])
    assert set(base) == {"length", "angle", "distance"} and all(base.values())
    for _ in range(2):
        perms = [gen.permutation(n) for n in sizes]
        assert sum(not np.array_equal(perm, np.arange(len(perm))) for perm in perms) >= 6
        moved = losses(perms)
        for task in base:
            assert abs(moved[task] - base[task]) <= 1e-12 * abs(base[task]), task


@pytest.mark.parametrize("tasks", [("distance",), ("length", "angle", "distance")],
                         ids=["distance", "all"])
def test_pretraining_loss_gradients_are_invariant_under_relabelling(tasks):
    """Parameter gradients of the eval-mode pretraining loss of a pack of
    random molecules at the default widths, each molecule's atoms relabelled
    at random with every field and the masked atoms carried along, stay
    within 1e-12 of their largest entry: for the distance loss alone and for
    all three geometry losses."""
    model = GeoGNN(ModelConfig(), rng=Rng(6))
    gen = np.random.default_rng(6)
    sizes = [1, 2, 3, *gen.integers(4, 25, size=6).tolist()]
    mols = [random_molecule(Rng(6).fork(i), min_atoms=n, max_atoms=n, ring_probability=0.7,
                            mol_id=f"m{i}") for i, n in enumerate(sizes)]
    masks = [Rng(6).fork(f"mask{i}").sample(n, max(1, round(0.15 * n)))
             for i, n in enumerate(sizes)]

    def gradients(perms):
        items = [prepare(relabel(mol, perm), model) for mol, perm in zip(mols, perms)]
        streams = [_DrawnMask(perm[atoms]) for perm, atoms in zip(perms, masks)]
        model.store.zero_grad()
        with Tape() as tape:
            loss, _ = loss_pre(model, items, streams, tasks=tasks, mode="eval")
        tape.backward(loss)
        return {name: t.grad for name, t in model.store.items()}

    base = gradients([np.arange(n) for n in sizes])
    graded = {name for name, grad in base.items() if grad is not None}
    assert {"block0.atom.mlp1.w", "head_distance.l2.w"} <= graded
    assert ("head_length.l1.w" in graded) == ("length" in tasks)
    perms = [gen.permutation(n) for n in sizes]
    assert sum(not np.array_equal(perm, np.arange(len(perm))) for perm in perms) >= 5
    moved = gradients(perms)
    assert {name for name, grad in moved.items() if grad is not None} == graded
    for name in graded:
        scale = np.abs(base[name]).max()
        assert np.abs(moved[name] - base[name]).max() <= 1e-12 * scale, name
