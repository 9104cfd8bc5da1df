"""Molecule model plus SDF (MOL V2000) and JSON-lines ingestion.

Both formats share one record parse: a bad SDF record or JSONL line is one
ParseError at its first line. ``parse_sdf_lenient`` and ``parse_jsonl_lenient``
collect them, each stored without its traceback and context, so no frame of
the reader keeps the call's molecules and text alive after it returns.
``parse_sdf`` and ``parse_jsonl`` stop at the first bad record and raise its
ParseError from where it happened. Every field is judged by
``Molecule.validate``, which both readers and the training API (``pretrain``,
``finetune``, ``evaluate``, ``embed_molecules``) apply.

A molecule holds what a file states: each atom's element, formal charge
and chirality, each bond's ends, type and direction, and the coordinates.
Input hydrogens are kept as explicit atoms; no implicit-H inference is
performed. What the structure decides is no field: each atom's degree,
hydrogen count, aromatic flag and hybridization, and each bond's ring
membership (``ring_membership``), are derived from the bond list where
features are built, so one structure has one encoding however it was made.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import DataError, ParseError, is_int, is_real

# fmt: off
ELEMENTS = (
    "H", "He", "Li", "Be", "B", "C", "N", "O", "F", "Ne", "Na", "Mg", "Al",
    "Si", "P", "S", "Cl", "Ar", "K", "Ca", "Sc", "Ti", "V", "Cr", "Mn", "Fe",
    "Co", "Ni", "Cu", "Zn", "Ga", "Ge", "As", "Se", "Br", "Kr", "Rb", "Sr",
    "Y", "Zr", "Nb", "Mo", "Tc", "Ru", "Rh", "Pd", "Ag", "Cd", "In", "Sn",
    "Sb", "Te", "I", "Xe", "Cs", "Ba", "La", "Ce", "Pr", "Nd", "Pm", "Sm",
    "Eu", "Gd", "Tb", "Dy", "Ho", "Er", "Tm", "Yb", "Lu", "Hf", "Ta", "W",
    "Re", "Os", "Ir", "Pt", "Au", "Hg", "Tl", "Pb", "Bi", "Po", "At", "Rn",
    "Fr", "Ra", "Ac", "Th", "Pa", "U", "Np", "Pu", "Am", "Cm", "Bk", "Cf",
    "Es", "Fm", "Md", "No", "Lr", "Rf", "Db", "Sg", "Bh", "Hs", "Mt", "Ds",
    "Rg", "Cn", "Nh", "Fl", "Mc", "Lv", "Ts", "Og",
)
# fmt: on
ATOMIC_NUMBER = {symbol: i + 1 for i, symbol in enumerate(ELEMENTS)}

CHIRALITIES = ("unspecified", "cw", "ccw", "other")
BOND_TYPES = ("single", "double", "triple", "aromatic")
# seven slots; the last two are reserved categories
BOND_DIRS = ("none", "begin_wedge", "begin_dash", "either", "unknown", "reserved0", "reserved1")
SPLITS = ("train", "valid", "test")

# the most atoms (SDF V2000's three-digit limit) and bond angles, 15 per atom as at
# octahedral centers, of one molecule: its distance targets grow as its atoms
# squared and its angles, sum(d(d - 1) / 2) over its atom degrees d, as d squared
MAX_ATOMS = 999
MAX_ANGLES = 15 * MAX_ATOMS


def _is_point(xyz) -> bool:
    """Three finite real numbers, none of them a bool."""
    try:
        x, y, z = xyz
    except (TypeError, ValueError):
        return False
    if type(x) is type(y) is type(z) is float:  # the readers' points: no type checks
        return math.isfinite(x) and math.isfinite(y) and math.isfinite(z)
    return is_real(x) and is_real(y) and is_real(z)


@dataclass
class Atom:
    element: str
    formal_charge: int = 0
    chirality: str = "unspecified"


@dataclass
class Bond:
    a: int
    b: int
    bond_type: str = "single"
    bond_dir: str = "none"


@dataclass
class Molecule:
    """A molecule as both readers build it and the training API takes it.

    ``validate`` is the one check of these rules. An integer may be of any
    kind, numpy's included; no integer or real number may be a bool.

    - atoms: 1 to ``MAX_ATOMS`` ``Atom``s; coords: one (x, y, z) of finite reals per atom
    - ``Atom.element``: a symbol of ``ELEMENTS``
    - ``Atom.formal_charge``: an integer
    - ``Atom.chirality``: one of ``CHIRALITIES``
    - ``Bond.a``, ``Bond.b``: integers, two different atom indices, one bond per pair;
      at most ``MAX_ANGLES`` angles, pairs of bonds that share an atom
    - ``Bond.bond_type``: one of ``BOND_TYPES``; ``Bond.bond_dir``: one of ``BOND_DIRS``
    - labels: a dict from str to None, NaN (both missing) or a finite real
    - fingerprint: None, or a non-empty list or tuple of the integers 0 and 1
    - split: None or one of ``SPLITS``
    """

    id: str
    atoms: list[Atom]
    bonds: list[Bond]
    coords: list[tuple[float, float, float]]
    labels: dict[str, float | None] = field(default_factory=dict)
    fingerprint: list[int] | None = None
    split: str | None = None

    def validate(self) -> "Molecule":
        """The molecule, if it keeps every rule of the class docstring; else
        a DataError naming it. One pass over the atoms, one over the bonds."""
        name, atoms = f"molecule {self.id}", self.atoms
        if not atoms:
            raise DataError(f"{name}: no atoms")
        if len(atoms) > MAX_ATOMS:
            raise DataError(f"{name}: {len(atoms)} atoms, more than the cap of {MAX_ATOMS}")
        try:
            num_coords = len(self.coords)
        except TypeError:
            raise DataError(f"{name}: coords must be a list of points, got {self.coords!r}")
        if num_coords != len(atoms):
            raise DataError(f"{name}: {num_coords} coordinates for {len(atoms)} atoms")
        for atom, xyz in zip(atoms, self.coords):
            # a plain int skips the abstract-class check, which alone would
            # triple the cost of validate
            charge = atom.formal_charge
            if not (type(charge) is int or is_int(charge)):
                raise DataError(f"{name}: charge {charge!r} must be an integer")
            if not (isinstance(atom.element, str) and atom.element in ATOMIC_NUMBER):
                raise DataError(f"{name}: unknown element {atom.element!r}")
            if not (isinstance(atom.chirality, str) and atom.chirality in CHIRALITIES):
                raise DataError(f"{name}: bad chirality {atom.chirality!r}")
            if not _is_point(xyz):
                raise DataError(f"{name}: coordinate {xyz!r} must be 3 finite real numbers")
        num_atoms, seen, degrees, num_angles = len(atoms), set(), [0] * len(atoms), 0
        for bond in self.bonds:
            a, b = bond.a, bond.b
            if not ((type(a) is int or is_int(a)) and (type(b) is int or is_int(b))):
                raise DataError(f"{name}: bond atoms {a!r}, {b!r} must be integers")
            if a == b:
                raise DataError(f"{name}: bond joins atom {a} to itself")
            if not (0 <= a < num_atoms and 0 <= b < num_atoms):
                raise DataError(f"{name}: atom index out of range")
            if not (isinstance(bond.bond_type, str) and bond.bond_type in BOND_TYPES):
                raise DataError(f"{name}: bad bond type {bond.bond_type!r}")
            if not (isinstance(bond.bond_dir, str) and bond.bond_dir in BOND_DIRS):
                raise DataError(f"{name}: bad bond dir {bond.bond_dir!r}")
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise DataError(f"{name}: duplicate bond {key}")
            seen.add(key)
            num_angles += degrees[a] + degrees[b]  # an angle with each earlier bond at a or b
            degrees[a] += 1
            degrees[b] += 1
        if num_angles > MAX_ANGLES:
            raise DataError(f"{name}: {num_angles} bond angles, more than the cap of {MAX_ANGLES}")
        if not isinstance(self.labels, dict):
            raise DataError(f"{name}: labels must be a dict, got {self.labels!r}")
        for label, value in self.labels.items():
            if not isinstance(label, str):
                raise DataError(f"{name}: label name {label!r} must be a str")
            if not (value is None or is_real(value, nan_ok=True)):
                raise DataError(f"{name}: label {label} must be None, NaN or a finite "
                                f"real number, got {value!r}")
        bits = self.fingerprint
        if bits is not None and not (isinstance(bits, (list, tuple)) and bits
                                     and all(is_int(bit) and 0 <= bit <= 1 for bit in bits)):
            raise DataError(f"{name}: fingerprint must be a non-empty list of bits 0 and 1")
        if self.split is not None and not (isinstance(self.split, str) and self.split in SPLITS):
            raise DataError(f"{name}: bad split tag {self.split!r}")
        return self


def ring_membership(molecule: Molecule) -> list[bool]:
    """True per bond iff the bond lies on some cycle (i.e. is not a bridge).
    A breadth-first spanning forest leaves out one bond per independent
    cycle; each such bond marks itself and the tree paths from its two ends
    up to where they meet."""
    adj: list[list[tuple[int, int]]] = [[] for _ in molecule.atoms]  # (neighbour, bond index)
    for i, bond in enumerate(molecule.bonds):
        adj[bond.a].append((bond.b, i))
        adj[bond.b].append((bond.a, i))
    depth, parent, up = [-1] * len(adj), [-1] * len(adj), [-1] * len(adj)
    in_ring = [False] * len(molecule.bonds)
    for root in range(len(adj)):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = [root]
        for v in queue:
            for w, i in adj[v]:
                if depth[w] < 0:
                    depth[w], parent[w], up[w] = depth[v] + 1, v, i
                    queue.append(w)
                elif i != up[v] and not in_ring[i]:  # a left-out bond, first seen
                    in_ring[i] = True
                    a, b = v, w
                    while a != b:
                        if depth[a] < depth[b]:
                            a, b = b, a
                        in_ring[up[a]] = True
                        a = parent[a]
    return in_ring


# --- SDF (MOL V2000) -------------------------------------------------------

_OLD_STYLE_CHARGE = {0: 0, 1: 3, 2: 2, 3: 1, 4: 0, 5: -1, 6: -2, 7: -3}
_SDF_BOND_TYPE = {1: "single", 2: "double", 3: "triple", 4: "aromatic"}
_SDF_BOND_DIR = {0: "none", 1: "begin_wedge", 4: "either", 6: "begin_dash"}


def _decode(data: bytes | str) -> str:
    """UTF-8 text without a leading byte-order mark."""
    if not isinstance(data, str):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as err:
            line = data.count(b"\n", 0, err.start) + 1
            raise ParseError(f"input is not UTF-8 text (byte {err.start})", line) from None
    return data.removeprefix("\ufeff")


def iter_sdf_records(text: str):
    """Yield (first_line_number, record_lines) for each $$$$-terminated record."""
    lines = text.splitlines()
    start = 0
    for i, line in enumerate(lines):
        if line.strip() == "$$$$":
            yield start + 1, lines[start:i]
            start = i + 1
    tail = lines[start:]
    if any(line.strip() for line in tail):
        yield start + 1, tail


def _int_field(line: str, lo: int, hi: int, lineno: int, what: str,
               default: int | None = None) -> int:
    """The integer in columns [lo, hi). A field with a default is optional:
    blank, or running past the end of the line, it reads as the default."""
    raw = line[lo:hi].strip()
    if default is not None and (not raw or len(line) < hi):
        return default
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"bad {what} field {raw!r}", lineno) from None


def _coordinate(line: str, lo: int, lineno: int) -> float:
    """The finite real number in columns [lo, lo + 10)."""
    raw = line[lo : lo + 10].strip()
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"non-numeric coordinate {raw!r}", lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite coordinate {raw!r}", lineno)
    return value


def _parse_sdf_record(first_line: int, lines: list[str], index: int) -> Molecule:
    if len(lines) < 4:
        raise ParseError("record too short for a V2000 header", first_line)
    title = lines[0].strip()
    counts_line = lines[3]
    counts_no = first_line + 3
    if len(counts_line) < 6:
        raise ParseError("counts line shorter than 6 columns", counts_no)
    num_atoms = _int_field(counts_line, 0, 3, counts_no, "atom count")
    num_bonds = _int_field(counts_line, 3, 6, counts_no, "bond count")
    if num_atoms < 0 or num_bonds < 0:
        raise ParseError("negative counts", counts_no)
    if len(lines) < 4 + num_atoms + num_bonds:
        raise ParseError(
            f"record ends before {num_atoms} atom and {num_bonds} bond lines", counts_no
        )

    # float() and int() take a field's blank padding; a line they refuse (a
    # bad field, or padding only str.strip() takes, such as "\x1f") is read
    # again a field at a time by the helpers, which name the first bad field
    isfinite = math.isfinite
    atoms: list[Atom] = []
    xs, ys, zs = [], [], []
    for i in range(num_atoms):
        lineno = counts_no + 1 + i
        line = lines[4 + i]
        if len(line) < 34:
            raise ParseError("atom line shorter than 34 columns", lineno)
        try:
            x, y, z = float(line[:10]), float(line[10:20]), float(line[20:30])
        except ValueError:
            x = math.nan
        if not (isfinite(x) and isfinite(y) and isfinite(z)):
            x, y, z = (_coordinate(line, lo, lineno) for lo in (0, 10, 20))
        symbol = line[31:34].strip()
        if symbol not in ATOMIC_NUMBER:
            raise ParseError(f"unknown element symbol {symbol!r}", lineno)
        charge = _OLD_STYLE_CHARGE.get(_int_field(line, 36, 39, lineno, "charge", 0), 0)
        atoms.append(Atom(symbol, charge))
        xs.append(x)
        ys.append(y)
        zs.append(z)

    bonds: list[Bond] = []
    for i in range(num_bonds):
        lineno = counts_no + 1 + num_atoms + i
        line = lines[4 + num_atoms + i]
        if len(line) < 9:
            raise ParseError("bond line shorter than 9 columns", lineno)
        try:
            a, b, code = int(line[:3]), int(line[3:6]), int(line[6:9])
        except ValueError:
            a = _int_field(line, 0, 3, lineno, "bond atom")
            b = _int_field(line, 3, 6, lineno, "bond atom")
            code = _int_field(line, 6, 9, lineno, "bond type")
        if not (1 <= a <= num_atoms) or not (1 <= b <= num_atoms):
            raise ParseError("atom index out of range", lineno)
        if a == b:
            raise ParseError(f"bond joins atom {a} to itself", lineno)
        if code not in _SDF_BOND_TYPE:
            raise ParseError(f"unknown bond type {code}", lineno)
        stereo = _int_field(line, 9, 12, lineno, "bond stereo", 0)
        bonds.append(Bond(a - 1, b - 1, _SDF_BOND_TYPE[code], _SDF_BOND_DIR.get(stereo, "none")))

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
                    if not 1 <= atom_no <= num_atoms:  # 0 or less would index from the end
                        raise ParseError("malformed M  CHG line", lineno)
                    atoms[atom_no - 1].formal_charge = value
            except (IndexError, ValueError):
                raise ParseError("malformed M  CHG line", lineno) from None

    mol = Molecule(id=title or f"mol{index}", atoms=atoms, bonds=bonds,
                   coords=list(zip(xs, ys, zs)))
    return mol.validate()


def _parse_record(parse, first_line: int, record, index: int) -> Molecule:
    """``parse(first_line, record, index)``; a DataError from the molecule's
    ``validate`` is a ParseError at the record's first line."""
    try:
        return parse(first_line, record, index)
    except DataError as err:
        raise ParseError(str(err), first_line) from None


def _parse_records(records, parse) -> tuple[list[Molecule], list[ParseError]]:
    """``_parse_record`` of each record, collecting each bad record's
    ParseError instead of raising it.

    A collected error is stored with no traceback and no context. Both lead
    back to this frame, which holds the molecule and error lists and the
    record iterator over the whole text: a reference cycle that would keep all
    of it alive, after the caller drops it, until the cyclic collector runs."""
    molecules, errors = [], []
    for index, (first_line, record) in enumerate(records):
        try:
            molecules.append(_parse_record(parse, first_line, record, index))
        except ParseError as err:
            err.__traceback__ = err.__context__ = None
            errors.append(err)
    return molecules, errors


def _parse_all(records, parse) -> list[Molecule]:
    """``_parse_record`` of each record, up to the first bad one, whose
    ParseError propagates; no record after it is read."""
    return [_parse_record(parse, first_line, record, index)
            for index, (first_line, record) in enumerate(records)]


def parse_sdf(data: bytes | str) -> list[Molecule]:
    """Parse all $$$$-separated V2000 records; raises the first bad record's
    ParseError, reading no record after it."""
    return _parse_all(iter_sdf_records(_decode(data)), _parse_sdf_record)


def parse_sdf_lenient(data: bytes | str) -> tuple[list[Molecule], list[ParseError]]:
    """Parse all $$$$-separated V2000 records, collecting each bad record's
    ParseError instead of raising it."""
    return _parse_records(iter_sdf_records(_decode(data)), _parse_sdf_record)


# --- JSON lines --------------------------------------------------------------


# the JSONL key of each Atom and Bond field, in field order; the reader reads no other key
_ATOM_KEYS = {"element": "element", "formal_charge": "formal_charge", "chirality": "chirality"}
_BOND_KEYS = {"a": "a", "b": "b", "bond_type": "type", "bond_dir": "dir"}


def _parse_jsonl_record(lineno: int, line: str, index: int) -> Molecule:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON: {err.msg}", lineno) from None
    try:
        atoms = [Atom(*[a[key] for key in _ATOM_KEYS.values()]) for a in obj["atoms"]]
        bonds = [Bond(*[b[key] for key in _BOND_KEYS.values()]) for b in obj["bonds"]]
        mol = Molecule(id=str(obj["id"]), atoms=atoms, bonds=bonds, coords=obj["coords"],
                       labels=obj["labels"], fingerprint=obj.get("fingerprint"),
                       split=obj.get("split")).validate()
    except KeyError as err:
        raise ParseError(f"missing required key {err.args[0]!r}", lineno) from None
    except (AttributeError, TypeError, ValueError) as err:
        # a field of the wrong JSON type, e.g. "atoms": 5
        raise ParseError(f"bad field value: {err}", lineno) from None
    # JSON numbers as floats, once validate has accepted them
    mol.coords = [(float(x), float(y), float(z)) for x, y, z in mol.coords]
    mol.labels = {k: None if v is None else float(v) for k, v in mol.labels.items()}
    return mol


def _jsonl_records(text: str):
    """Yield (line_number, line) for each non-blank line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            yield lineno, line


def parse_jsonl(data: bytes | str) -> list[Molecule]:
    """One molecule per non-blank line; ParseError names the first bad line,
    and no line after it is read."""
    return _parse_all(_jsonl_records(_decode(data)), _parse_jsonl_record)


def parse_jsonl_lenient(data: bytes | str) -> tuple[list[Molecule], list[ParseError]]:
    """One molecule per non-blank line, collecting each bad line's
    ParseError instead of raising it."""
    return _parse_records(_jsonl_records(_decode(data)), _parse_jsonl_record)


def molecule_to_json_dict(mol: Molecule) -> dict:
    obj = {
        "id": mol.id,
        "atoms": [{key: getattr(a, name) for name, key in _ATOM_KEYS.items()} for a in mol.atoms],
        "bonds": [{key: getattr(b, name) for name, key in _BOND_KEYS.items()} for b in mol.bonds],
        "coords": [list(xyz) for xyz in mol.coords],
        "labels": mol.labels,
    }
    if mol.fingerprint is not None:
        obj["fingerprint"] = mol.fingerprint
    if mol.split is not None:
        obj["split"] = mol.split
    return obj


def write_jsonl(molecules: list[Molecule]) -> bytes:
    lines = [json.dumps(molecule_to_json_dict(m), sort_keys=True) for m in molecules]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
