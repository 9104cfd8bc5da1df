import math
from dataclasses import replace

import numpy as np
import pytest

from geognn.errors import DataError
from geognn.geometry import build_dual_graph, distance_matrix
from geognn.rng import Rng
from geognn.synth import random_molecule

from conftest import make_molecule
from oracles import angle_count_reference, angle_reference


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def angle_at_center(w, u, v) -> float:
    """The one angle of the 3-atom molecule w-u-v, as build_dual_graph finds it."""
    g = build_dual_graph(make_molecule(["C", "C", "C"], [(0, 1), (1, 2)], [w, u, v]))
    assert g.angles.tolist() == [[0, 1, 2]]
    return float(g.angle_values[0])


class TestAngleBetween:
    def test_orthogonal(self):
        assert angle_at_center((1, 0, 0), (0, 0, 0), (0, 1, 0)) == pytest.approx(math.pi / 2)

    def test_collinear(self):
        assert angle_at_center((1, 0, 0), (0, 0, 0), (-1, 0, 0)) == pytest.approx(math.pi)

    def test_45_degrees_vs_dot_product_oracle(self):
        got = angle_at_center((1, 1, 0), (0, 0, 0), (1, 0, 0))
        assert got == pytest.approx(math.pi / 4, abs=1e-12)
        assert got == pytest.approx(angle_reference((1, 1, 0), (0, 0, 0), (1, 0, 0)), abs=1e-15)

    def test_zero_length_arm(self):
        with pytest.raises(DataError, match=r"coincident bonded atoms \(0, 1\)"):
            angle_at_center((0, 0, 0), (0, 0, 0), (1, 0, 0))


class TestBuildDualGraph:
    def test_water(self, water):
        g = build_dual_graph(water)
        assert g.num_bonds == 2
        assert g.num_angles == 1
        expected = angle_reference(water.coords[1], water.coords[0], water.coords[2])
        assert g.angle_values[0] == pytest.approx(expected, abs=1e-12)
        assert g.angle_values[0] == pytest.approx(1.8239, abs=1e-3)
        assert g.lengths[0] == pytest.approx(0.9572, abs=1e-12)

    def test_methane_angle_count(self, methane):
        g = build_dual_graph(methane)
        assert g.num_angles == math.comb(4, 2)
        # all angles share the central carbon
        assert set(g.angles[:, 1]) == {0}

    def test_two_atom_molecule(self):
        mol = make_molecule(["C", "C"], [(0, 1)], [(0, 0, 0), (0, 0, 2)])
        g = build_dual_graph(mol)
        assert g.lengths[0] == 2.0
        assert g.num_angles == 0

    def test_coincident_atoms_rejected(self):
        mol = make_molecule(["C", "C"], [(0, 1)], [(0, 0, 0), (0, 0, 1)])
        mol.coords[1] = (0.0, 0.0, 0.0)
        with pytest.raises(DataError, match=r"coincident bonded atoms \(0, 1\)"):
            build_dual_graph(mol)

    def test_bonded_distance_equals_length_exactly(self):
        # lengths come from the bond ends alone; on scaled and translated
        # copies too they must equal the distance matrix bit for bit
        rng = Rng(31)
        for i in range(10):
            mol = random_molecule(rng.fork(i))
            for scale in (1.0, 1e-3, 1e3, 1e100):
                shift = np.array([17.3, -4.1, 9.7]) * scale * (i % 2)
                coords = np.array(mol.coords) * scale + shift
                g = build_dual_graph(replace(mol, coords=[tuple(xyz) for xyz in coords.tolist()]))
                dist = distance_matrix(g.coords)
                for e, (a, b) in enumerate(g.bonds):
                    assert dist[a, b] == g.lengths[e]

    def test_dist_matrix_symmetric_zero_diagonal(self):
        mol = random_molecule(Rng(5))
        g = build_dual_graph(mol)
        dist = distance_matrix(g.coords)
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 0.0)

    def test_angle_bonds_share_middle_atom(self):
        mol = random_molecule(Rng(9), min_atoms=6, max_atoms=12)
        g = build_dual_graph(mol)
        for (w, u, v), (e1, e2) in zip(g.angles, g.angle_bonds):
            b1 = set(g.bonds[e1])
            b2 = set(g.bonds[e2])
            assert b1 & b2 == {u}
            assert b1 == {u, w}
            assert b2 == {u, v}


class TestGeometricInvariants:
    def test_rigid_motion_invariance(self):
        rng = Rng(17)
        np_rng = np.random.default_rng(17)
        for i in range(10):
            mol = random_molecule(rng.fork(i))
            g = build_dual_graph(mol)
            rot = random_rotation(np_rng)
            shift = np_rng.normal(size=3) * 5.0
            moved = make_molecule(
                [a.element for a in mol.atoms],
                [(b.a, b.b) for b in mol.bonds],
                (np.asarray(mol.coords) @ rot.T + shift).tolist(),
            )
            g2 = build_dual_graph(moved)
            np.testing.assert_allclose(g2.lengths, g.lengths, atol=1e-9)
            np.testing.assert_allclose(g2.angle_values, g.angle_values, atol=1e-9)
            np.testing.assert_allclose(
                distance_matrix(g2.coords), distance_matrix(g.coords), atol=1e-9
            )

    def test_relabeling_gives_isomorphic_graph(self):
        rng = Rng(23)
        for i in range(10):
            mol = random_molecule(rng.fork(i), min_atoms=5, max_atoms=9)
            g = build_dual_graph(mol)
            perm = rng.fork(1000 + i).permutation(len(mol.atoms))
            relabeled = make_molecule(
                [mol.atoms[j].element for j in np.argsort(perm)],
                [(int(perm[b.a]), int(perm[b.b])) for b in mol.bonds],
                [mol.coords[j] for j in np.argsort(perm)],
            )
            g2 = build_dual_graph(relabeled)
            assert g2.num_bonds == g.num_bonds
            assert g2.num_angles == g.num_angles
            assert sorted(np.round(g2.lengths, 12)) == sorted(np.round(g.lengths, 12))
            assert sorted(np.round(g2.angle_values, 12)) == sorted(np.round(g.angle_values, 12))

    def test_angle_count_formula_small_graphs(self):
        rng = Rng(41)
        checked = 0
        for i in range(80):
            mol = random_molecule(rng.fork(i), min_atoms=2, max_atoms=6)
            bonds = [(b.a, b.b) for b in mol.bonds]
            g = build_dual_graph(mol)
            deg = g.degrees()
            assert g.num_angles == sum(math.comb(int(d), 2) for d in deg)
            assert g.num_angles == angle_count_reference(len(mol.atoms), bonds)
            checked += 1
        assert checked == 80
