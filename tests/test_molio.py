import codecs
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geognn import molio
from geognn.errors import DataError, GeoGnnError, ParseError
from geognn.model import GeoGNN, ModelConfig
from geognn.molio import (
    MAX_ANGLES,
    MAX_ATOMS,
    BOND_TYPES,
    Atom,
    Bond,
    Molecule,
    molecule_to_json_dict,
    parse_jsonl,
    parse_jsonl_lenient,
    parse_sdf,
    parse_sdf_lenient,
    ring_membership,
    write_jsonl,
)
from geognn.rng import Rng
from geognn.synth import random_molecule
from geognn.training import embed_molecules

from conftest import (FIXTURES, chain_molecule, encoded_atom_attributes, encoded_ring_flags,
                      hub_molecule, make_dce, make_molecule, no_cyclic_garbage)
from oracles import (angle_count_reference, cycle_bonds_by_removal, ring_flags_reference,
                     sdf_reference, sdf_text)


class TestSdfParsing:
    def test_water_record(self):
        mols = parse_sdf((FIXTURES / "golden.sdf").read_bytes())
        water = mols[0]
        assert water.id == "water"
        assert len(water.atoms) == 3
        assert len(water.bonds) == 2
        assert water.atoms[0].element == "O"
        num_h, _, hybridization = encoded_atom_attributes(water)
        assert (num_h[0], hybridization[0]) == (2, "sp3")
        assert water.coords[1] == (0.9572, 0.0, 0.0)

    def test_cyclopropane_ring_flags(self):
        mols = parse_sdf((FIXTURES / "golden.sdf").read_bytes())
        ring = mols[1]
        assert all(encoded_ring_flags(ring))
        # oracle: drop each bond and check connectivity of its endpoints
        pairs = [(b.a, b.b) for b in ring.bonds]
        assert ring_membership(ring) == cycle_bonds_by_removal(3, pairs)

    def test_charge_property_block(self):
        mols = parse_sdf((FIXTURES / "golden.sdf").read_bytes())
        acetate = mols[2]
        assert acetate.atoms[3].formal_charge == -1
        assert acetate.atoms[0].formal_charge == 0

    def test_bond_index_zero_message(self):
        data = (FIXTURES / "malformed" / "bond_index_zero.sdf").read_bytes()
        with pytest.raises(ParseError, match="atom index out of range"):
            parse_sdf(data)

    @pytest.mark.parametrize("name", sorted(p.name for p in (FIXTURES / "malformed").iterdir()))
    def test_malformed_corpus_rejected_with_line_numbers(self, name):
        data = (FIXTURES / "malformed" / name).read_bytes()
        with pytest.raises(ParseError) as excinfo:
            parse_sdf(data)
        assert excinfo.value.line is not None
        assert f"line {excinfo.value.line}" in str(excinfo.value)

    @pytest.mark.parametrize("parse", [parse_sdf, lambda data: parse_sdf_lenient(data)[0]])
    def test_byte_order_mark_is_dropped(self, parse):
        data = (FIXTURES / "golden.sdf").read_bytes()
        with_bom = parse(codecs.BOM_UTF8 + data)
        assert [m.id for m in with_bom] == ["water", "cyclopropane", "acetate"]
        assert with_bom == parse(data)

    @pytest.mark.parametrize("atom_no", [0, -1, 4])
    def test_charge_atom_number_out_of_range(self, atom_no):
        # water has 3 atoms; its M  CHG line comes after 3 atom and 2 bond lines
        water = (FIXTURES / "golden.sdf").read_text().split("$$$$")[0]
        data = water.replace("M  END", f"M  CHG  1 {atom_no:3d}  -1\nM  END")
        with pytest.raises(ParseError, match="line 10: malformed M  CHG line"):
            parse_sdf(data)

    def test_lenient_mode_collects_errors(self):
        good = (FIXTURES / "golden.sdf").read_text()
        bad = (FIXTURES / "malformed" / "bad_counts.sdf").read_text()
        mols, errors = parse_sdf_lenient(good + bad)
        assert len(mols) == 3
        assert len(errors) == 1


class TestJsonl:
    def test_empty_file(self):
        assert parse_jsonl(b"") == []

    def test_byte_order_mark_is_dropped(self):
        data = write_jsonl([make_molecule(["O", "H"], [(0, 1)], [(0, 0, 0), (0.96, 0, 0)])])
        assert parse_jsonl(codecs.BOM_UTF8 + data) == parse_jsonl(data)

    def test_single_atom_no_bonds(self):
        line = (
            '{"id": "he", "atoms": [{"element": "He", "formal_charge": 0,'
            ' "chirality": "unspecified"}], "bonds": [], "coords": [[0.0, 0.0, 0.0]],'
            ' "labels": {}}'
        )
        mols = parse_jsonl(line.encode())
        assert len(mols) == 1
        assert mols[0].atoms[0].element == "He"
        assert mols[0].bonds == []

    def test_older_files_derived_atom_keys_are_ignored(self):
        """A file that still gives each atom "aromatic", "num_h" and
        "hybridization" reads as it would without them: the atoms get the
        derived values, whatever the file says."""
        water = make_molecule(["O", "H", "H"], [(0, 1), (0, 2)],
                              [(0, 0, 0), (0.96, 0, 0), (-0.24, 0.93, 0)])
        obj = molecule_to_json_dict(water)
        assert [sorted(atom) for atom in obj["atoms"]] == [
            ["chirality", "element", "formal_charge"]] * 3
        for atom in obj["atoms"]:
            atom.update(aromatic=True, num_h=7, hybridization="sp3d2")
        old = parse_jsonl(json.dumps(obj))
        assert old == [water]
        assert encoded_atom_attributes(old) == ([2, 0, 0], [False] * 3,
                                                ["sp3", "unknown", "unknown"])

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity"])
    def test_infinite_label_rejected(self, value):
        lines = [json.dumps(molecule_to_json_dict(m)) for m in self._two_molecules()]
        lines[1] = lines[1].replace('"y": 1.0', f'"y": {value}')
        with pytest.raises(ParseError, match="^line 2: molecule m: label y must be None, NaN "
                                             "or a finite real number, got -?inf$"):
            parse_jsonl("\n".join(lines))

    def test_nan_label_is_read_as_nan(self):
        lines = [json.dumps(molecule_to_json_dict(m)) for m in self._two_molecules()]
        lines[1] = lines[1].replace('"y": 1.0', '"y": NaN')
        assert math.isnan(parse_jsonl("\n".join(lines))[1].labels["y"])

    def _two_molecules(self):
        mols = [make_molecule(["O", "H"], [(0, 1)], [(0, 0, 0), (0.96, 0, 0)]) for _ in range(2)]
        for m in mols:
            m.labels = {"y": 1.0}
        return mols

    def test_lenient_collects_each_bad_line(self):
        good = [json.dumps(molecule_to_json_dict(m)) for m in self._two_molecules()]
        data = "\n".join([good[0], "", "{", good[1], '{"id": "x"}'])
        mols, errors = parse_jsonl_lenient(data)
        assert mols == parse_jsonl("\n".join(good))
        assert [str(e) for e in errors] == [
            "line 3: invalid JSON: Expecting property name enclosed in double quotes",
            "line 5: missing required key 'atoms'",
        ]
        with pytest.raises(ParseError, match="^line 3: invalid JSON"):
            parse_jsonl(data)

    def test_missing_key_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_jsonl(b'{"id": "x"}')

    def test_bad_fingerprint_bit(self):
        line = (
            '{"id": "x", "atoms": [{"element": "C", "formal_charge": 0,'
            ' "chirality": "unspecified"}], "bonds": [], "coords": [[0,0,0]],'
            ' "labels": {}, "fingerprint": [0, 2]}'
        )
        with pytest.raises(ParseError):
            parse_jsonl(line.encode())

    def test_coords_length_mismatch(self):
        line = (
            '{"id": "x", "atoms": [{"element": "C", "formal_charge": 0,'
            ' "chirality": "unspecified"}], "bonds": [], "coords": [], "labels": {}}'
        )
        with pytest.raises(ParseError):
            parse_jsonl(line.encode())

    def test_round_trip_50_random_molecules(self):
        from geognn.synth import random_molecule

        rng = Rng(2024)
        mols = [random_molecule(rng.fork(i), mol_id=f"m{i}") for i in range(50)]
        for i, m in enumerate(mols):
            m.labels = {"y": float(i) / 7.0, "z": None}
            if i % 3 == 0:
                m.fingerprint = [(i >> k) & 1 for k in range(8)]
            if i % 2 == 0:
                m.split = ("train", "valid", "test")[i % 3]
        round_tripped = parse_jsonl(write_jsonl(mols))
        assert round_tripped == mols

    def test_golden_sdf_round_trips_through_jsonl(self):
        mols = parse_sdf((FIXTURES / "golden.sdf").read_bytes())
        assert parse_jsonl(write_jsonl(mols)) == mols

    def test_one_molecule_has_one_embedding_through_the_api_sdf_and_jsonl(self):
        """Molecules built through the API from element, charge and chirality
        alone, with charged atoms, aromatic bonds and ring closures, embed bit
        for bit in f64 like their SDF and JSONL copies: what a file does not
        state, encode derives from the bonds alike on all three."""
        gen = np.random.default_rng(38)
        built = []
        for i in range(50):
            mol = random_molecule(Rng(38).fork(i), min_atoms=4, max_atoms=20,
                                  ring_probability=0.8, mol_id=f"h{i}")
            charges = np.where(gen.random(len(mol.atoms)) < 0.3, gen.integers(-3, 4), 0)
            built.append(Molecule(
                id=mol.id,
                atoms=[Atom(a.element, int(c), "unspecified") for a, c in zip(mol.atoms, charges)],
                bonds=[Bond(b.a, b.b, str(gen.choice(BOND_TYPES, p=[0.4, 0.15, 0.1, 0.35])),
                            str(gen.choice(["none", "begin_wedge", "begin_dash", "either"])))
                       for b in mol.bonds],
                coords=[tuple(round(x, 4) for x in xyz) for xyz in mol.coords],
            ).validate())
        assert sum(any(a.formal_charge for a in m.atoms) for m in built) >= 40
        assert sum(any(b.bond_type == "aromatic" for b in m.bonds) for m in built) >= 40
        assert sum(any(ring_membership(m)) for m in built) >= 25
        config = ModelConfig(num_blocks=2, hidden=8, dropout=0.0, distance_bins=5,
                             geom_head_hidden=8, down_head_hidden=8)
        store = GeoGNN(config, rng=Rng(3)).store
        copies = parse_sdf(sdf_text(built)), parse_jsonl(write_jsonl(built))
        want = embed_molecules(store, config, built)
        for copy in copies:
            got = embed_molecules(store, config, copy)
            for (name, rows), (_, want_rows) in zip(got, want, strict=True):
                assert rows.dtype == np.float64 and rows.tobytes() == want_rows.tobytes(), name


_MALFORMED = sorted(p.name for p in (FIXTURES / "malformed").iterdir())

# (line, text) of each error of _mixed_sdf, one per malformed fixture in name
# order: field errors, one Molecule.validate error (duplicate_bond.sdf) and
# errors raised while handling a ValueError (bad_counts.sdf)
_MIXED_SDF_ERRORS = [
    (44, "line 44: unknown bond type 9"),
    (89, "line 89: non-numeric coordinate 'abcdef'"),
    (133, "line 133: bad atom count field 'X'"),
    (181, "line 181: atom index out of range"),
    (221, "line 221: molecule duplicate bond: duplicate bond (0, 1)"),
    (274, "line 274: bond joins atom 1 to itself"),
    (318, "line 318: atom line shorter than 34 columns"),
    (358, "line 358: record too short for a V2000 header"),
    (400, "line 400: record ends before 3 atom and 1 bond lines"),
    (446, "line 446: unknown element symbol 'Xx'"),
]


def _mixed_sdf() -> str:
    """The three golden records before each malformed fixture in turn."""
    good = (FIXTURES / "golden.sdf").read_text()
    return "".join(good + (FIXTURES / "malformed" / name).read_text() for name in _MALFORMED)


def _mixed_jsonl() -> str:
    """Three good lines and a blank one around a bad line of each kind: bad
    JSON, a missing key, a value validate refuses, a field of the wrong type."""
    mol = make_molecule(["O", "H"], [(0, 1)], [(0, 0, 0), (0.96, 0, 0)], labels={"y": 1.0})
    good = json.dumps(molecule_to_json_dict(mol))
    return "\n".join([good, "{", good, '{"id": "x"}', good.replace('"y": 1.0', '"y": Infinity'),
                      good.replace('"bonds": [', '"bonds": 5, "x": ['), "", good])


_MIXED_JSONL_ERRORS = [
    (2, "line 2: invalid JSON: Expecting property name enclosed in double quotes"),
    (4, "line 4: missing required key 'atoms'"),
    (5, "line 5: molecule m: label y must be None, NaN or a finite real number, got inf"),
    (6, "line 6: bad field value: 'int' object is not iterable"),
]


def _collected(parsed) -> tuple[list[str], list[tuple]]:
    """A lenient reader's molecule ids, and per error its line, its text and
    whether its traceback and its context are None."""
    molecules, errors = parsed
    return [m.id for m in molecules], [
        (e.line, str(e), e.__traceback__ is None, e.__context__ is None) for e in errors]


class TestReadersKeepNoCycles:
    """Once the caller drops what a reader returned or raised, reference
    counting alone frees it: a collected error holds no frame, and nothing a
    raised error holds refers back to it."""

    def test_lenient_sdf_with_every_malformed_record(self):
        data = _mixed_sdf()
        with no_cyclic_garbage():
            ids, errors = _collected(parse_sdf_lenient(data))
        assert ids == ["water", "cyclopropane", "acetate"] * len(_MALFORMED)
        assert errors == [(line, text, True, True) for line, text in _MIXED_SDF_ERRORS]

    def test_lenient_jsonl_with_bad_lines(self):
        data = _mixed_jsonl()
        with no_cyclic_garbage():
            ids, errors = _collected(parse_jsonl_lenient(data))
        assert ids == ["m"] * 3
        assert errors == [(line, text, True, True) for line, text in _MIXED_JSONL_ERRORS]

    def test_strict_readers_raise_the_first_error(self):
        raised, inputs = [], ((parse_sdf, _mixed_sdf()), (parse_jsonl, _mixed_jsonl()))
        with no_cyclic_garbage():
            for parse, data in inputs:
                try:
                    parse(data)
                except ParseError as err:
                    raised.append((err.line, str(err)))
        assert raised == [_MIXED_SDF_ERRORS[0], _MIXED_JSONL_ERRORS[0]]

    @pytest.mark.parametrize("parse, record_parser, data, records_read", [
        (parse_sdf, "_parse_sdf_record", _mixed_sdf(), 4),
        (parse_jsonl, "_parse_jsonl_record", _mixed_jsonl(), 2),
    ], ids=["sdf", "jsonl"])
    def test_strict_readers_read_no_record_after_the_first_bad_one(
            self, monkeypatch, parse, record_parser, data, records_read):
        first_lines = []
        real = getattr(molio, record_parser)

        def counted(first_line, record, index):
            first_lines.append(first_line)
            return real(first_line, record, index)

        monkeypatch.setattr(molio, record_parser, counted)
        with pytest.raises(ParseError):
            parse(data)
        assert len(first_lines) == records_read

    def test_lenient_sdf_then_embed(self):
        config = ModelConfig(num_blocks=2, hidden=8, dropout=0.0, distance_bins=5,
                             geom_head_hidden=8, down_head_hidden=8)
        store = GeoGNN(config, rng=Rng(1)).store
        data = _mixed_sdf()
        want = [vec for _, vec in embed_molecules(store, config, parse_sdf_lenient(data)[0])]
        with no_cyclic_garbage():
            got = [vec for _, vec in embed_molecules(store, config, parse_sdf_lenient(data)[0])]
        assert len(got) == 3 * len(_MALFORMED)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestRingMembership:
    def test_path_graph_has_no_rings(self):
        mol = make_molecule(
            ["C"] * 4,
            [(0, 1), (1, 2), (2, 3)],
            [(float(i) * 1.5, 0.0, 0.0) for i in range(4)],
        )
        assert ring_membership(mol) == [False, False, False]

    def test_six_cycle_all_true(self):
        coords = [
            (math.cos(k * math.pi / 3) * 1.4, math.sin(k * math.pi / 3) * 1.4, 0.0)
            for k in range(6)
        ]
        mol = make_molecule(["C"] * 6, [(i, (i + 1) % 6) for i in range(6)], coords)
        assert ring_membership(mol) == [True] * 6

    def test_six_cycle_with_pendant(self):
        coords = [
            (math.cos(k * math.pi / 3) * 1.4, math.sin(k * math.pi / 3) * 1.4, 0.0)
            for k in range(6)
        ] + [(3.0, 0.0, 0.0)]
        bonds = [(i, (i + 1) % 6) for i in range(6)] + [(0, 6)]
        mol = make_molecule(["C"] * 7, bonds, coords)
        got = ring_membership(mol)
        assert got == cycle_bonds_by_removal(7, bonds)
        assert got == [True] * 6 + [False]

    def test_agrees_with_brute_force_on_small_graphs(self):
        rng = Rng(7)
        for trial in range(60):
            n = 2 + rng.below(7)  # up to 8 nodes
            candidates = [(a, b) for a in range(n) for b in range(a + 1, n)]
            bonds = [p for p in candidates if rng.uniform() < 0.35]
            if not bonds:
                continue
            used = sorted({v for p in bonds for v in p})
            remap = {v: i for i, v in enumerate(used)}
            bonds = [(remap[a], remap[b]) for a, b in bonds]
            mol = make_molecule(
                ["C"] * len(used),
                bonds,
                [(float(i), float((i * 7) % 3), 0.0) for i in range(len(used))],
            )
            assert ring_membership(mol) == cycle_bonds_by_removal(len(used), bonds)

    @pytest.mark.parametrize("bonds, want", [
        # a 4-ring and a 3-ring joined by the bridge path 0-7-8-4
        ([(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4), (0, 7), (7, 8), (8, 4)],
         [True] * 7 + [False] * 3),
        # two 6-rings fused on the bond 0-5
        ([(i, i + 1) for i in range(5)] + [(5, 0)] + [(5, 6), (6, 7), (7, 8), (8, 9), (9, 0)],
         [True] * 11),
        # a 5-ring with a 3-atom chain on atom 0 and a 2-atom chain on atom 2
        ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 7), (2, 8), (8, 9)],
         [True] * 5 + [False] * 5),
        # two 3-rings sharing atom 0
        ([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)], [True] * 6),
        # components: a 3-ring, a lone atom (5), a path and a 4-ring with a chord
        ([(3, 4), (0, 1), (1, 2), (2, 0), (6, 7), (8, 9), (9, 10), (10, 11), (11, 8), (8, 10)],
         [False, True, True, True, False] + [True] * 5),
    ], ids=["bridge-path", "fused", "pendant-chains", "spiro", "components"])
    def test_shapes_beyond_one_closure(self, bonds, want):
        num_atoms = 1 + max(max(pair) for pair in bonds)
        mol = make_molecule(["C"] * num_atoms, bonds,
                            [(1.5 * i, 0.0, 0.0) for i in range(num_atoms)])
        assert cycle_bonds_by_removal(num_atoms, bonds) == want
        assert ring_membership(mol) == want
        assert encoded_ring_flags(mol) == want

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=1000, deadline=None)
    def test_sparse_graphs_match_bond_removal_under_relabelling(self, seed):
        # a random tree less up to 2 bonds, plus up to 4 closing bonds, in
        # shuffled order with random ends first; then its atoms relabelled
        rnd = random.Random(seed)
        n = rnd.randint(1, 24)
        pairs = {(rnd.randrange(v), v) for v in range(1, n)}
        pairs -= set(rnd.sample(sorted(pairs), min(len(pairs), rnd.randint(0, 2))))
        for _ in range(rnd.randint(0, 4)):
            a, b = rnd.randrange(n), rnd.randrange(n)
            if a != b and (b, a) not in pairs:
                pairs.add((a, b))
        bonds = [(b, a) if rnd.random() < 0.5 else (a, b) for a, b in sorted(pairs)]
        rnd.shuffle(bonds)
        label = list(range(n))
        rnd.shuffle(label)
        want = cycle_bonds_by_removal(n, bonds)
        for edges in (bonds, [(label[a], label[b]) for a, b in bonds]):
            mol = make_molecule(["C"] * n, edges, [(1.5 * i, 0.0, 0.0) for i in range(n)])
            assert ring_membership(mol) == want
        # encode's flags, of the relabelled molecule, in its bond-list order
        assert encoded_ring_flags(mol) == want


class TestValidation:
    def test_duplicate_bond_rejected(self):
        mol = Molecule(
            id="dup",
            atoms=[Atom("C"), Atom("C")],
            bonds=[Bond(0, 1), Bond(1, 0)],
            coords=[(0.0, 0.0, 0.0), (1.5, 0.0, 0.0)],
        )
        with pytest.raises(DataError, match="duplicate bond"):
            mol.validate()

    @pytest.mark.parametrize("value", [1.0, 1.5, True])
    @pytest.mark.parametrize("field", ["bond_a", "bond_b", "formal_charge"])
    def test_non_integer_field_rejected(self, field, value):
        mol = make_molecule(["C", "C", "O"], [(0, 1), (1, 2)],
                            [(0.0, 0.0, 0.0), (1.5, 0.0, 0.0), (2.5, 1.0, 0.0)], mol_id="frac")
        if field.startswith("bond_"):
            setattr(mol.bonds[1], field[-1], value)
        else:
            setattr(mol.atoms[1], field, value)
        with pytest.raises(DataError, match="^molecule frac: .* must be (integers|an integer)$"):
            mol.validate()

    def test_numpy_integers_accepted(self):
        mol = make_molecule(["C", "C", "O"], [(0, 1), (1, 2)],
                            [(0.0, 0.0, 0.0), (1.5, 0.0, 0.0), (2.5, 1.0, 0.0)])
        mol.bonds[1].a, mol.bonds[1].b = np.int64(1), np.int32(2)
        mol.atoms[2].formal_charge = np.int64(-1)
        assert mol.validate() is mol

    def test_nonfinite_coordinate_rejected(self):
        mol = Molecule(
            id="inf",
            atoms=[Atom("C")],
            bonds=[],
            coords=[(math.inf, 0.0, 0.0)],
        )
        with pytest.raises(DataError):
            mol.validate()

    def test_molecules_at_the_size_caps_are_valid(self):
        for mol in (chain_molecule(MAX_ATOMS), hub_molecule(MAX_ANGLES)):
            assert mol.validate() is mol

    @pytest.mark.parametrize("mol,message", [
        (chain_molecule(MAX_ATOMS + 1), f"{MAX_ATOMS + 1} atoms, more than the cap of {MAX_ATOMS}"),
        (hub_molecule(MAX_ANGLES + 1),
         f"{MAX_ANGLES + 1} bond angles, more than the cap of {MAX_ANGLES}"),
    ], ids=["atoms", "angles"])
    def test_one_over_a_size_cap_names_the_molecule_the_count_and_the_cap(self, mol, message):
        with pytest.raises(DataError, match=f"^molecule {mol.id}: {message}$"):
            mol.validate()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), cap=st.integers(0, 40))
    def test_the_angle_count_is_the_sum_over_bond_pairs_sharing_an_atom(self, seed, cap):
        mol = random_molecule(Rng(seed), min_atoms=1, max_atoms=20)
        angles = angle_count_reference(len(mol.atoms), [(b.a, b.b) for b in mol.bonds])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(molio, "MAX_ANGLES", cap)
            if angles > cap:
                with pytest.raises(DataError, match=f": {angles} bond angles, "):
                    mol.validate()
            else:
                assert mol.validate() is mol


def _jsonl_seed() -> bytes:
    cis, trans = make_dce(True, "cis"), make_dce(False, "trans")
    cis.labels, cis.fingerprint, cis.split = {"y": 1.5, "z": None}, [0, 1, 1], "train"
    trans.labels, trans.split = {"y": -0.5}, "test"
    return write_jsonl([cis, trans])


_SDF_SEEDS = [(FIXTURES / "golden.sdf").read_bytes()] + [
    path.read_bytes() for path in sorted((FIXTURES / "malformed").glob("*.sdf"))
]
_SEEDS = _SDF_SEEDS[:1] + [_jsonl_seed()] + _SDF_SEEDS[1:]
_SPANS = [b"$$$$\n", b"M  CHG  1   1   2\n", b"M  END\n", b"nan", b"1e400", b"-1", b"999",
          b"  ", b"\n", b"\r", b"\xef\xbb\xbf", b"\xff", b"{", b"null", b"[]"]
# where V2000 fields start and end: the counts and bond lines' three-column
# fields, and the atom line's coordinates, symbol, mass difference and charge
_FIELD_COLUMNS = [0, 2, 3, 5, 6, 8, 9, 10, 11, 12, 20, 31, 34, 36, 37, 38, 39]

# one edit: truncate, replace a byte, or splice a span over a few bytes, at a
# column of a line (the line number taken modulo the input's line count)
_EDIT = st.tuples(
    st.sampled_from(["truncate", "replace", "splice"]),
    st.integers(0, 40),
    st.one_of(st.sampled_from(_FIELD_COLUMNS), st.integers(0, 80)),
    st.integers(0, 255),
    st.sampled_from(_SPANS),
    st.integers(0, 6),
)


def _mutate(seed: bytes, edits) -> bytes:
    data = bytearray(seed)
    for kind, line, column, byte, span, width in edits:
        starts = [0] + [m.end() for m in re.finditer(b"\n", data)]
        pos = min(starts[line % len(starts)] + column, len(data))
        if kind == "truncate":
            del data[pos:]
        elif kind == "replace" and pos < len(data):
            data[pos] = byte
        else:
            data[pos : pos + width] = span
    return bytes(data)


class TestMutatedBytes:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(edits=st.lists(_EDIT, min_size=1, max_size=4))
    def test_parsers_raise_only_geognn_errors(self, edits):
        """Every fixture and a JSONL seed, each with the same edits, through
        both readers: the strict one raises exactly the lenient one's first
        error, and every error line lies in the file."""
        for data in (_mutate(seed, edits) for seed in _SEEDS):
            for lenient, strict in ((parse_sdf_lenient, parse_sdf),
                                    (parse_jsonl_lenient, parse_jsonl)):
                try:
                    molecules, errors = lenient(data)
                except GeoGnnError:  # input that is not UTF-8 text
                    with pytest.raises(GeoGnnError):
                        strict(data)
                    continue
                lines = len(data.decode("utf-8").removeprefix("\ufeff").splitlines())
                for err in errors:
                    assert isinstance(err, ParseError)
                    assert 1 <= err.line <= lines
                if not errors:
                    assert len(strict(data)) == len(molecules)
                    continue
                with pytest.raises(ParseError) as first:
                    strict(data)
                assert (first.value.line, str(first.value)) == (errors[0].line, str(errors[0]))


def _read(parse, data: bytes, rings=ring_membership):
    """What a lenient SDF reader makes of ``data``: its molecules as JSONL
    bytes with their ``rings`` flags, and each error as (line, text); or the
    error it raised."""
    try:
        molecules, errors = parse(data)
    except GeoGnnError as err:
        return type(err), str(err)
    return (write_jsonl(molecules), [rings(m) for m in molecules],
            [(err.line, str(err)) for err in errors])


class TestSdfReference:
    """``parse_sdf_lenient`` against ``oracles.sdf_reference``, which reads
    each field on its own, stripped: the same molecules with the same derived
    fields, and the same errors at the same lines."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(edits=st.lists(_EDIT, min_size=1, max_size=4))
    def test_mutated_fixtures(self, edits):
        for data in (_mutate(seed, edits) for seed in _SDF_SEEDS):
            assert _read(parse_sdf_lenient, data) == _read(sdf_reference, data,
                                                           ring_flags_reference)

    @pytest.mark.parametrize("old, new", [
        ("    0.9572", "\x1f   0.9572"),       # padding only str.strip() takes
        ("    0.9572", "   0.9572\x1f"),
        ("    0.9572", "   0.95 72"),
        ("    0.9572", "   1_0.572"),         # float() takes an underscore
        ("    0.9572", "       \u0661.\u0665"),  # and non-ASCII digits
        ("    0.9572", "       nan"),
        ("    0.9572    0.0000", "       inf       abc"),  # the first bad field is named
        ("    0.9572    0.0000", "       abc       inf"),
        ("    0.9572    0.0000    0.0000", "    0.9572    0.0000    1e400"),
        ("  1  2  1  0", "\x1f 1  2  1  0"),
        ("  1  2  1  0", "  1 \x1f2  1  0"),
        ("  1  2  1  0", "  1  2 \x1f1  0"),
        ("  1  2  1  0", "  1  2  x  0"),
        ("  1  2  1  0", "  x  y  z  0"),
        ("  1  2  1  0", " +1  2 01  0"),
        ("  1  2  1  0", "  1  2  1"),
        ("  1  2  1  0", "  1  2  1  x"),
    ])
    def test_edited_field(self, old, new):
        text = (FIXTURES / "golden.sdf").read_text()
        assert old in text
        data = text.replace(old, new, 1).encode()
        assert _read(parse_sdf_lenient, data) == _read(sdf_reference, data, ring_flags_reference)
