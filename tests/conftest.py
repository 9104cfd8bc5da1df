import contextlib
import dataclasses
import gc
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from geognn.features import EncodedGraph, FeatureConfig, encode
from geognn.geometry import bond_order, build_dual_graph
from geognn.model import GeoGNN, ParamStore
from geognn.molio import Atom, Bond, Molecule, annotate_derived_attributes

FIXTURES = Path(__file__).parent / "fixtures"


def without_geometry(encoded: EncodedGraph) -> EncodedGraph:
    """A copy of ``encoded`` with every RBF block zeroed, found by the
    manifest's offsets: the encoding with no coordinate-derived signal."""
    manifest = FeatureConfig().manifest()
    out = encoded.copy()
    for kind in ("bond", "angle"):
        for block in manifest[kind]:
            if block["name"].endswith("_rbf"):
                getattr(out, kind)[:, block["offset"] : block["offset"] + block["width"]] = 0.0
    return out


@contextlib.contextmanager
def no_cyclic_garbage():
    """Assert that the body leaves nothing in a reference cycle: with the
    cyclic collector off, all that the body drops must be freed by reference
    counting alone, so the collection after it finds nothing. On failure the
    message lists the types of the objects it found."""
    gc.collect()
    gc.disable()
    try:
        yield
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what it finds, to name it
        try:
            found = gc.collect()
            left = Counter(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert found == 0, f"{found} objects left in reference cycles: {left.most_common(10)}"
    finally:
        gc.enable()


def store_of(arrays: dict, dtype=np.float64) -> ParamStore:
    """A store holding a copy of each named array in ``dtype``, in dict order."""
    arrays = {name: np.asarray(data, dtype=dtype) for name, data in arrays.items()}
    flat = np.concatenate([a.reshape(-1) for a in arrays.values()])
    return ParamStore(flat, [(name, a.shape) for name, a in arrays.items()])


def overflowing_model(config, **kwargs) -> GeoGNN:
    """A GeoGNN whose atom embedding weights are 1e300: the first block's
    layer-norm variance overflows in every forward pass."""
    model = GeoGNN(config, **kwargs)
    model.store["embed.atom.w"].data[...] = 1e300
    return model


def eval_overflowing_model(config, **kwargs) -> GeoGNN:
    """A GeoGNN that trains as usual, but whose eval-mode forward passes first
    make it an ``overflowing_model``."""
    model = GeoGNN(config, **kwargs)
    forward = model.forward

    def overflowing_in_eval(graph, encoded, mode="eval", rng=None):
        if mode == "eval":
            model.store["embed.atom.w"].data[...] = 1e300
        return forward(graph, encoded, mode=mode, rng=rng)

    model.forward = overflowing_in_eval
    return model


def edit_header(path, edit) -> None:
    """Rewrite the checkpoint's JSON header in place with edit(header)."""
    raw = path.read_bytes()
    end = 16 + int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:end])
    edit(header)
    body = json.dumps(header).encode()
    path.write_bytes(raw[:8] + len(body).to_bytes(8, "little") + body + raw[end:])


def rename_atom_block(header) -> None:
    """edit_header edit: a foreign feature layout of the same widths, its
    first atom block renamed."""
    header["feature_manifest"]["atom"][0]["name"] = "element"


def relabel(mol, perm):
    """mol with atom i moved to perm[i], every atom and bond field carried along."""
    inverse = np.argsort(perm)
    return dataclasses.replace(
        mol, atoms=[mol.atoms[j] for j in inverse], coords=[mol.coords[j] for j in inverse],
        bonds=[dataclasses.replace(b, a=int(perm[b.a]), b=int(perm[b.b])) for b in mol.bonds])


def encoded_ring_flags(mol) -> list[bool]:
    """The ring flag ``encode`` gives each bond of ``mol``, in bond-list order:
    the second column of the in_ring block, found by the manifest's offset,
    its rows put back from ``bond_order``'s row order."""
    offset = {b["name"]: b["offset"] for b in FeatureConfig().manifest()["bond"]}["in_ring"]
    rows = encode(build_dual_graph(mol), mol, FeatureConfig()).bond[:, offset + 1]
    flags = np.empty(len(rows), dtype=bool)
    flags[bond_order([mol])[0]] = rows == 1.0
    return flags.tolist()


def make_molecule(elements, bond_pairs, coords, mol_id="m", **kwargs):
    mol = Molecule(
        id=mol_id,
        atoms=[Atom(element=e) for e in elements],
        bonds=[Bond(a=a, b=b) for a, b in bond_pairs],
        coords=[tuple(float(c) for c in xyz) for xyz in coords],
        **kwargs,
    )
    return annotate_derived_attributes(mol.validate())


@pytest.fixture
def water():
    return make_molecule(
        ["O", "H", "H"],
        [(0, 1), (0, 2)],
        [(0.0, 0.0, 0.0), (0.9572, 0.0, 0.0), (-0.2400, 0.9266, 0.0)],
        mol_id="water",
    )


@pytest.fixture
def methane():
    # central carbon with four hydrogens on tetrahedral directions
    r = 1.09 / math.sqrt(3.0)
    return make_molecule(
        ["C", "H", "H", "H", "H"],
        [(0, 1), (0, 2), (0, 3), (0, 4)],
        [
            (0.0, 0.0, 0.0),
            (r, r, r),
            (r, -r, -r),
            (-r, r, -r),
            (-r, -r, r),
        ],
        mol_id="methane",
    )


def _dce_coords(same_side: bool):
    """Planar Cl-C=C-Cl skeleton; the two isomers get slightly different
    Cl-C=C angles (steric strain), so bond angles genuinely differ."""
    cc = 1.33
    ccl = 1.72
    angle = math.radians(124.5 if same_side else 121.3)
    c1 = (0.0, 0.0, 0.0)
    c2 = (cc, 0.0, 0.0)
    cl1 = (ccl * math.cos(angle), ccl * math.sin(angle), 0.0)
    y2 = math.sin(angle) if same_side else -math.sin(angle)
    cl2 = (cc - ccl * math.cos(angle), ccl * y2, 0.0)
    return [c1, c2, cl1, cl2]


def make_dce(same_side: bool, mol_id: str):
    mol = Molecule(
        id=mol_id,
        atoms=[Atom("C"), Atom("C"), Atom("Cl"), Atom("Cl")],
        bonds=[
            Bond(0, 1, bond_type="double"),
            Bond(0, 2, bond_type="single"),
            Bond(1, 3, bond_type="single"),
        ],
        coords=_dce_coords(same_side),
    )
    return annotate_derived_attributes(mol.validate())


@pytest.fixture
def cis_trans_pair():
    return make_dce(True, "cis"), make_dce(False, "trans")
