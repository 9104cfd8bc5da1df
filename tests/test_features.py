import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geognn.errors import DataError
from geognn.features import BLOCKS, EncodedGraph, FeatureConfig, encode, rbf_expand
from geognn.geometry import build_dual_graph, pack_graphs
from geognn.masking import mask_context
from geognn.molio import BOND_DIRS, BOND_TYPES, Bond
from geognn.pretrain import PACK_SIZE
from geognn.rng import Rng
from geognn.synth import random_molecule
from geognn.training import prepare_molecules

from conftest import make_molecule, without_geometry
from oracles import dual_graph_reference, encode_reference, masked_entities_reference


@st.composite
def scrambled_molecules(draw):
    """A random molecule of 1-40 atoms whose bond list is shuffled, each
    bond's ends swapped at random, and whose bond types, directions and
    ring flags are drawn per bond, so that reading bond attributes in the
    wrong row order changes the features. Some molecules lose bonds, and
    atoms get charges and hydrogen counts beyond their blocks' clamps."""
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    atoms = int(gen.integers(1, 41))
    mol = random_molecule(Rng(seed), min_atoms=atoms, max_atoms=atoms)
    keep = len(mol.bonds) if gen.random() < 0.75 else gen.integers(len(mol.bonds) + 1)
    mol.bonds = [
        Bond(*((b.b, b.a) if gen.random() < 0.5 else (b.a, b.b)),
             bond_type=BOND_TYPES[gen.integers(len(BOND_TYPES))],
             bond_dir=BOND_DIRS[gen.integers(len(BOND_DIRS))],
             in_ring=bool(gen.random() < 0.5))
        for b in [mol.bonds[i] for i in gen.permutation(len(mol.bonds))[:keep]]
    ]
    for atom in mol.atoms:
        atom.formal_charge = int(gen.integers(-10, 11))
        atom.num_explicit_h = int(gen.integers(0, 11))
    return mol


class TestRbfExpand:
    def test_peak_at_center(self):
        cfg = FeatureConfig()
        out = rbf_expand(cfg.length_centers[3:4], cfg.length_centers)
        assert out[0, 3] == 1.0

    def test_value_one_tenth_away(self):
        # gamma = 10, offset 0.1 -> exp(-10 * 0.01) = exp(-0.1)
        out = rbf_expand(np.array([0.1]), np.array([0.0]), gamma=10.0)
        assert out[0, 0] == pytest.approx(math.exp(-0.1), abs=1e-15)
        assert out[0, 0] == pytest.approx(0.904837, abs=1e-6)

    def test_far_outside_grid_decays(self):
        cfg = FeatureConfig()
        out = rbf_expand(cfg.length_centers[-1:] + 1.2, cfg.length_centers)
        assert np.all(out < 1e-6)

    def test_matches_direct_formula_exactly(self):
        cfg = FeatureConfig()
        xs = np.random.default_rng(0).uniform(0.0, 5.0, size=25)
        got = rbf_expand(xs, cfg.length_centers, cfg.rbf_gamma)
        assert got.shape == (25, len(cfg.length_centers))
        for row, x in zip(got, xs):
            want = [math.exp(-cfg.rbf_gamma * (float(x) - float(c)) ** 2) for c in cfg.length_centers]
            np.testing.assert_allclose(row, want, atol=1e-12)

    def test_numerical_smoothness(self):
        cfg = FeatureConfig()
        eps = 1e-6
        xs = np.array([0.3, 1.77, 4.2])
        delta = np.abs(rbf_expand(xs + eps, cfg.length_centers) - rbf_expand(xs, cfg.length_centers))
        bound = 2.0 * cfg.rbf_gamma * eps * (cfg.length_centers[-1] - cfg.length_centers[0])
        assert delta.max() <= bound


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(mol=scrambled_molecules())
def test_featurization_matches_per_row_reference(mol):
    graph, ref = build_dual_graph(mol), dual_graph_reference(mol)
    for name in ("bonds", "angles", "angle_bonds", "lengths", "coords", "atom_counts", "bond_counts"):
        assert np.array_equal(getattr(graph, name), getattr(ref, name)), name
        assert getattr(graph, name).dtype == getattr(ref, name).dtype, name
    np.testing.assert_allclose(graph.angle_values, ref.angle_values, rtol=0.0, atol=1e-13)
    # encoded from the reference graph, so only the angle RBFs can see the
    # angle values' last-bit differences
    enc, want = encode(ref, mol, FeatureConfig()), encode_reference(ref, mol)
    assert np.array_equal(enc.atom, want.atom)
    assert np.array_equal(enc.bond, want.bond)
    np.testing.assert_allclose(enc.angle, want.angle, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(encode(graph, mol, FeatureConfig()).angle, want.angle,
                               rtol=0.0, atol=1e-13)


GRAPH_FIELDS = ("bonds", "angles", "angle_bonds", "lengths", "angle_values", "coords",
                "atom_counts", "bond_counts")


def assert_same(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b) and a.dtype == b.dtype, name


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mols=st.lists(scrambled_molecules(), min_size=1, max_size=PACK_SIZE),
       dtype=st.sampled_from([np.float64, np.float32]))
def test_union_equals_its_molecules_alone(mols, dtype):
    """A pack featurized as one union equals its molecules featurized alone,
    each a union of one, then joined; prepare_molecules' per-molecule views
    equal the molecules alone."""
    cfg = FeatureConfig()
    alone = [build_dual_graph(m) for m in mols]
    encoded = [encode(g, m, cfg, dtype=dtype) for g, m in zip(alone, mols)]
    union = build_dual_graph(mols)
    assert_same(union, pack_graphs(alone), GRAPH_FIELDS)
    joined = EncodedGraph(*(np.concatenate([getattr(e, kind) for e in encoded])
                            for kind in ("atom", "bond", "angle")))
    assert_same(encode(union, mols, cfg, dtype=dtype), joined, ("atom", "bond", "angle"))
    items = prepare_molecules(mols, cfg, dtype=dtype)
    for item, mol, graph, enc in zip(items, mols, alone, encoded, strict=True):
        assert item.molecule is mol
        assert_same(item.graph, graph, GRAPH_FIELDS)
        assert_same(item.encoded, enc, ("atom", "bond", "angle"))


def _coincident(mol):
    mol.coords[mol.bonds[0].b] = mol.coords[mol.bonds[0].a]


def _far_apart(mol):
    x, y, z = mol.coords[mol.bonds[0].b]
    mol.coords[mol.bonds[0].b] = (x + 1e200, y, z)


def _off_block(mol):
    mol.atoms[1].num_explicit_h = -1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spoil, message", [
    (_coincident, "coincident bonded atoms"),
    (_far_apart, "non-finite length of bond"),
    (_off_block, "one-hot index -1 outside block num_h"),
])
def test_a_bad_molecule_in_a_union_raises_its_own_message(spoil, message):
    mols = [random_molecule(Rng(5).fork(i), min_atoms=4, max_atoms=8, mol_id=f"m{i}")
            for i in range(5)]
    spoil(mols[2])
    with pytest.raises(DataError) as alone:
        prepare_molecules(mols[2:3], FeatureConfig())
    assert str(alone.value).startswith(f"molecule m2: {message}")
    with pytest.raises(DataError) as union:
        prepare_molecules(mols, FeatureConfig())
    assert str(union.value) == str(alone.value)


class TestEncode:
    def test_grid_sizes(self):
        cfg = FeatureConfig()
        assert len(cfg.length_centers) == 51
        assert len(cfg.angle_centers) == 32
        assert cfg.atom_width == 119 + 2 + 16 + 4 + 11 + 9 + 6 + 1
        assert cfg.bond_width == 7 + 4 + 2 + 51 + 1
        assert cfg.angle_width == 32 + 1

    def test_carbon_atom_type_slot(self):
        mol = make_molecule(
            ["C", "O", "O"], [(0, 1), (0, 2)], [(0, 0, 0), (1.4, 0, 0), (0, 1.4, 0)]
        )
        enc = encode(build_dual_graph(mol), mol, FeatureConfig())
        assert enc.atom[0, 6] == 1.0  # atomic number of carbon
        assert enc.atom[0, :119].sum() == 1.0
        # degree block: carbon has degree 2
        cfg = FeatureConfig()
        degree_offset = 119 + 2 + 16 + 4
        assert enc.atom[0, degree_offset + 2] == 1.0

    def test_bond_at_grid_center_peaks(self):
        mol = make_molecule(["C", "C"], [(0, 1)], [(0, 0, 0), (1.5, 0, 0)])
        enc = encode(build_dual_graph(mol), mol, FeatureConfig())
        cfg = FeatureConfig()
        rbf_block = enc.bond[0, 13:-1]
        assert rbf_block.max() == 1.0
        assert np.argmax(rbf_block) == 15  # center 1.5
        # bond type block: single -> [1,0,0,0] at offset 7
        np.testing.assert_array_equal(enc.bond[0, 7:11], [1.0, 0.0, 0.0, 0.0])

    def test_every_one_hot_block_sums_to_one(self):
        rng = Rng(77)
        cfg = FeatureConfig()
        for i in range(10):
            mol = random_molecule(rng.fork(i))
            enc = encode(build_dual_graph(mol), mol, cfg)
            offset = 0
            for name, width in BLOCKS["atom"]:
                block = enc.atom[:, offset : offset + width]
                np.testing.assert_array_equal(block.sum(axis=1), np.ones(len(mol.atoms)))
                offset += width
            offset = 0
            for name, width in BLOCKS["bond"]:
                if name.endswith("_rbf"):
                    offset += width
                    continue
                block = enc.bond[:, offset : offset + width]
                np.testing.assert_array_equal(block.sum(axis=1), np.ones(enc.bond.shape[0]))
                offset += width

    def test_shapes_on_branched_fixture(self, methane):
        graph = build_dual_graph(methane)
        enc = encode(graph, methane, FeatureConfig())
        cfg = FeatureConfig()
        assert enc.atom.shape == (5, cfg.atom_width)
        assert enc.bond.shape == (4, cfg.bond_width)
        assert enc.angle.shape == (6, cfg.angle_width)

    def test_encoding_is_pure(self, water):
        graph = build_dual_graph(water)
        a = encode(graph, water, FeatureConfig())
        b = encode(graph, water, FeatureConfig())
        assert np.array_equal(a.atom, b.atom)
        assert np.array_equal(a.bond, b.bond)
        assert np.array_equal(a.angle, b.angle)

    def test_geometry_ablation_zeroes_rbf_only(self, water):
        graph = build_dual_graph(water)
        full = encode(graph, water, FeatureConfig())
        flat = without_geometry(full)
        assert np.array_equal(full.atom, flat.atom)
        assert np.array_equal(full.bond[:, :13], flat.bond[:, :13])
        assert np.all(flat.bond[:, 13:-1] == 0.0)
        assert np.all(flat.angle[:, :-1] == 0.0)

    def test_layout_has_no_settings(self):
        with pytest.raises(TypeError):
            FeatureConfig(num_h_size=5)
        cfg = FeatureConfig()
        assert cfg == FeatureConfig()
        with pytest.raises(ValueError):
            cfg.length_centers[0] = 1.0
        with pytest.raises(ValueError):
            cfg.angle_centers[0] = 1.0

    def test_manifest_structure(self):
        manifest = FeatureConfig().manifest()
        assert manifest["atom"][0] == {"name": "atom_type", "offset": 0, "width": 119}
        assert manifest["atom"][-1]["name"] == "mask_flag"
        assert manifest["rbf_gamma"] == 10.0
        total = sum(b["width"] for b in manifest["bond"])
        assert total == FeatureConfig().bond_width


class TestMaskContext:
    def test_full_ratio_masks_everything(self, water):
        graph = build_dual_graph(water)
        enc = encode(graph, water, FeatureConfig())
        masked, targets = mask_context(graph, enc, 1.0, [Rng(0)])
        assert targets.bond_lengths.shape == (2,)
        assert targets.angle_values.shape == (1,)
        assert np.all(masked.atom[:, -1] == 1.0)
        assert np.all(masked.angle[:, -1] == 1.0)
        # masked rows are zero except the indicator column
        assert np.all(masked.bond[:, :-1] == 0.0)
        assert np.all(masked.bond[:, -1] == 1.0)

    def test_single_atom_molecule(self):
        mol = make_molecule(["C"], [], [(0.0, 0.0, 0.0)])
        graph = build_dual_graph(mol)
        enc = encode(graph, mol, FeatureConfig())
        masked, targets = mask_context(graph, enc, 0.15, [Rng(1)])
        assert np.flatnonzero(masked.atom[:, -1]).tolist() == [0]
        assert targets.bond_lengths.size == 0
        assert targets.angle_values.size == 0

    def test_selection_count(self):
        mol = random_molecule(Rng(3), min_atoms=10, max_atoms=10)
        graph = build_dual_graph(mol)
        enc = encode(graph, mol, FeatureConfig())
        masked, _ = mask_context(graph, enc, 0.15, [Rng(2)])
        assert np.count_nonzero(masked.atom[:, -1]) == max(1, round(0.15 * 10))

    def test_reproducible_given_seed(self):
        mol = random_molecule(Rng(8), min_atoms=20, max_atoms=20)
        graph = build_dual_graph(mol)
        enc = encode(graph, mol, FeatureConfig())
        m1, t1 = mask_context(graph, enc, 0.15, [Rng(42)])
        m2, t2 = mask_context(graph, enc, 0.15, [Rng(42)])
        assert np.array_equal(m1.atom[:, -1], m2.atom[:, -1])
        assert np.array_equal(t1.bond_lengths, t2.bond_lengths)
        assert np.array_equal(m1.atom, m2.atom)
        # target multiset equals a reference enumeration over selected atoms
        bonds, angles = masked_entities_reference(graph, np.flatnonzero(m1.atom[:, -1]))
        assert sorted(t1.bond_lengths.tolist()) == sorted(graph.lengths[bonds].tolist())
        assert sorted(t1.angle_values.tolist()) == sorted(graph.angle_values[angles].tolist())

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        atoms=st.integers(1, 40),
        ratio=st.floats(0.01, 1.0),
    )
    def test_masks_match_reference_enumeration(self, seed, atoms, ratio):
        mol = random_molecule(Rng(seed), min_atoms=atoms, max_atoms=atoms)
        graph = build_dual_graph(mol)
        enc = encode(graph, mol, FeatureConfig())
        masked, targets = mask_context(graph, enc, ratio, [Rng(seed).fork("mask")])
        chosen = np.flatnonzero(masked.atom[:, -1])
        want = Rng(seed).fork("mask").sample(atoms, max(1, round(ratio * atoms)))
        assert chosen.tolist() == sorted(want.tolist())
        bonds, angles = masked_entities_reference(graph, chosen)
        assert np.array_equal(targets.bond_atoms, graph.bonds[bonds])
        assert np.array_equal(targets.bond_lengths, graph.lengths[bonds])
        assert np.array_equal(targets.angle_atoms, graph.angles[angles])
        assert np.array_equal(targets.angle_values, graph.angle_values[angles])
        # the flag column marks exactly the masked rows, which are zero
        # elsewhere; every other row keeps its encoding
        for got, orig, ids in ((masked.atom, enc.atom, chosen), (masked.bond, enc.bond, bonds),
                               (masked.angle, enc.angle, angles)):
            assert np.flatnonzero(got[:, -1]).tolist() == list(ids)
            assert np.all(got[ids, :-1] == 0.0)
            keep = np.setdiff1d(np.arange(len(orig)), ids)
            assert np.array_equal(got[keep], orig[keep])

    def test_original_encoding_untouched(self, water):
        graph = build_dual_graph(water)
        enc = encode(graph, water, FeatureConfig())
        before = enc.bond.copy()
        mask_context(graph, enc, 1.0, [Rng(5)])
        assert np.array_equal(enc.bond, before)
