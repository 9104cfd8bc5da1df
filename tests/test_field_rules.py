"""One rule per molecule field: ``Molecule.validate`` judges every field, and
both readers and the training API apply it, so a wrongly typed field fails
as a DataError naming the molecule wherever it enters."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geognn.errors import DataError, GeoGnnError, ParseError
from geognn.model import GeoGNN, ModelConfig
from geognn.molio import parse_jsonl, write_jsonl
from geognn.rng import Rng
from geognn.synth import random_molecule
from geognn.training import DatasetSplit, RunConfig, embed_molecules, evaluate, finetune, pretrain

TINY = ModelConfig(num_blocks=1, hidden=4, geom_head_hidden=4, down_head_hidden=4,
                   distance_bins=4)
STORE = GeoGNN(TINY, rng=Rng(0)).store
RUN = RunConfig(epochs=1, batch_size=4)

# the wrong values: a str, bools, a float, None, NaN, +-inf, lists and numpy
# scalars; each field is tried with every one its rule does not take
_STR, _FLOAT, _LIST = "yes", 1.5, ["C"]
_NP_FLOAT, _NP_INT, _NP_BOOL, _NP_STR = np.float64(1.5), np.int64(1), np.bool_(True), np.str_("x")
_POOL = [_STR, True, False, _FLOAT, None, math.nan, math.inf, -math.inf, _LIST, [0, 1],
         _NP_FLOAT, _NP_INT, _NP_BOOL, _NP_STR]


def _without(*taken):
    return [v for v in _POOL if not any(v is t for t in taken)]


# (what, where, wrong values): where is "atom", "bond", "point" (a whole
# coordinate), "coord" (one of its three numbers), "label", "bit" or "mol"
FIELDS = [
    ("element", "atom", _without()),
    ("formal_charge", "atom", _without(_NP_INT)),
    ("chirality", "atom", _without()),
    ("a", "bond", _without(_NP_INT)),
    ("b", "bond", _without(_NP_INT)),
    ("bond_type", "bond", _without()),
    ("bond_dir", "bond", _without()),
    ("point", "point", _without()),
    ("coord", "coord", _without(_FLOAT, _NP_FLOAT, _NP_INT)),
    ("label", "label", _without(_FLOAT, None, math.nan, _NP_FLOAT, _NP_INT)),
    ("bit", "bit", _without(_NP_INT)),
    ("split", "mol", _without(None)),
]


def _base(seed: int):
    mol = random_molecule(Rng(seed), min_atoms=3, max_atoms=6, mol_id=f"mol{seed}")
    mol.labels = {"y": 0.5, "z": None}
    mol.fingerprint = [0, 1, 1, 0]
    mol.split = "train"
    return mol


def _set(mol, what: str, where: str, pick: int, value) -> None:
    """Set one field of ``mol`` to ``value``; ``pick`` chooses the atom,
    bond, coordinate or bit."""
    if where == "atom":
        setattr(mol.atoms[pick % len(mol.atoms)], what, value)
    elif where == "bond":
        setattr(mol.bonds[pick % len(mol.bonds)], what, value)
    elif where == "point":
        mol.coords[pick % len(mol.coords)] = value
    elif where == "coord":
        i = pick % len(mol.coords)
        xyz = list(mol.coords[i])
        xyz[pick % 3] = value
        mol.coords[i] = tuple(xyz)
    elif where == "label":
        mol.labels["y"] = value
    elif where == "bit":
        mol.fingerprint[pick % len(mol.fingerprint)] = value
    else:
        setattr(mol, what, value)


def _api_calls(mol, good):
    """Tiny runs of each training entry point on the molecule, alone or
    beside the valid molecule ``good``."""
    yield lambda: pretrain([mol], TINY, RUN)
    yield lambda: finetune(DatasetSplit([mol], [mol], [mol]), TINY, RUN)
    yield lambda: finetune(DatasetSplit.from_tags([good, mol]), TINY, RUN)
    yield lambda: evaluate(STORE, TINY, [mol], "rmse")
    yield lambda: embed_molecules(STORE, TINY, [mol])


def _raises(exc, call, case: str):
    """The ``exc`` that ``call()`` raises; a test failure naming ``case`` if
    it returns. Any other exception propagates."""
    try:
        call()
    except exc as err:
        return err
    pytest.fail(f"{case}: no {exc.__name__}")


def _serialised(mol) -> bytes | None:
    try:
        return write_jsonl([mol])
    except (TypeError, ValueError):  # a value JSON cannot hold, e.g. a numpy scalar
        return None


class TestOneRulePerField:
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**16), pick=st.integers(0, 2**16))
    def test_wrong_value_fails_as_data_error_everywhere(self, seed, pick):
        """Every field, set to every wrong value in turn: validate names the
        molecule, each entry point raises only a GeoGnnError, and the JSONL
        reader rejects the molecule whenever it can be written."""
        base = _base(seed)
        assert parse_jsonl(write_jsonl([base])) == [base]
        for what, where, values in FIELDS:
            for value in values:
                mol = copy.deepcopy(base)
                _set(mol, what, where, pick, value)
                case = f"{what} = {value!r}"
                err = _raises(DataError, mol.validate, case)
                assert str(err).startswith(f"molecule {mol.id}: "), case
                for call in _api_calls(mol, base):
                    _raises(GeoGnnError, call, case)
                data = _serialised(mol)
                if data is not None:
                    _raises(ParseError, lambda: parse_jsonl(data), case)

    def test_valid_edge_cases_accepted(self):
        """numpy integers, integer coordinates and None or NaN labels are
        valid: validate, the reader and every entry point take them."""
        mols = [_base(seed) for seed in range(3)]
        for k, mol in enumerate(mols):
            mol.coords = [tuple(round(100 * c) for c in xyz) for xyz in mol.coords]
            mol.labels = {"y": k, "z": None, "w": math.nan}
            mol.split = None
        written = write_jsonl(mols)
        assert [m.id for m in parse_jsonl(written)] == [m.id for m in mols]
        for mol in mols:
            mol.atoms[0].formal_charge = np.int64(-1)
            mol.bonds[0].a, mol.bonds[0].b = np.int64(mol.bonds[0].a), np.int16(mol.bonds[0].b)
            mol.fingerprint = [np.int64(1), np.uint8(0), 1, 0]
            assert mol.validate() is mol
        pretrain(mols, TINY, RUN)
        finetune(DatasetSplit(mols, mols, mols), TINY, RUN)
        assert evaluate(STORE, TINY, mols, "rmse")["task_names"] == ["y"]
        assert [name for name, _ in embed_molecules(STORE, TINY, mols)] == [m.id for m in mols]
