"""The benchmark's outside-in tracer patches geognn names by string. These
tests install it the way ``bench/run.py --trace 1`` does, so renaming or
deleting a traced name, or calling one through a private alias the
wrappers cannot see, fails here and not only in a traced benchmark run.
The benchmark's in-process checks run here too, for the same reason."""

import ast
import inspect
import math
import sys
from pathlib import Path

from geognn.rng import Rng
from geognn.synth import random_molecule

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402
from worker import Ingest  # noqa: E402
from workloads import import_geognn  # noqa: E402


def _namespaces(g) -> list:
    """Every module in ``g`` and every class defined in one of them."""
    out = []
    for module in vars(g).values():
        out.append(module)
        out.extend(
            cls for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
        )
    return out


def test_install_then_uninstall_restores_every_name():
    g = import_geognn(ROOT)
    before = {id(ns): dict(vars(ns)) for ns in _namespaces(g)}
    tracer = tracing.Tracer()
    try:
        tracer.install(g)
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for ns in _namespaces(g):
        assert dict(vars(ns)) == before[id(ns)], ns


def _tensor_reads(source: str) -> set[str]:
    """The names a module reads from ``geognn.tensor``: imported from it, or
    read as an attribute of the name it imports the module as."""
    tree = ast.parse(source)
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tensor":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "tensor")
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id in aliases}


def test_placeholder_op_names_are_patched_and_never_read():
    """``geognn.tensor`` binds the names of deleted ops to None only so that
    ``Tracer.install``, which patches them by string, still finds them."""
    g = import_geognn(ROOT)
    placeholders = {name for name, value in vars(g.tensor).items() if value is None}
    tracer = tracing.Tracer()
    try:
        tracer.install(g)
        patched = {attr for owner, attr, _ in tracer._patches if owner is g.tensor}
    finally:
        tracer.uninstall()
    assert placeholders <= patched
    for path in sorted((ROOT / "src" / "geognn").glob("*.py")):
        assert not placeholders & _tensor_reads(path.read_text()), path.name
    assert _tensor_reads("from . import tensor as T\nfrom .tensor import Tape\nT.affine(T.x)\n"
                         "np.exp(1)") == {"Tape", "affine", "x"}


def test_training_calls_reach_the_wrappers(tmp_path):
    g = import_geognn(ROOT)
    mols = [random_molecule(Rng(1).fork(i), min_atoms=4, max_atoms=6, mol_id=f"m{i}")
            for i in range(3)]
    config = g.model.ModelConfig(num_blocks=1, hidden=4, distance_bins=5,
                                 geom_head_hidden=4, down_head_hidden=4)
    run = g.training.RunConfig(epochs=1, batch_size=2)
    tracer = tracing.Tracer()
    try:
        tracer.install(g)
        g.training.pretrain(mols, config, run, out_dir=tmp_path)
    finally:
        tracer.uninstall()
    tracer.drain()
    for name in (
        "training.prepare_molecules", "geometry.build_dual_graph", "features.encode",
        "masking.mask_context", "pretrain.build_targets", "pretrain.loss_length",
        "pretrain.loss_angle", "pretrain.loss_distance", "model.forward.train",
        "rng.permutation", "tensor.backward", "training.adam_step",
        "checkpoint.save_checkpoint",
    ):
        assert name in tracer.totals, name
    assert tracer.totals["training.adam_step"][0] == 2
    assert tracer.totals["checkpoint.save_checkpoint"][0] == 2


def test_eval_passes_reach_the_wrappers():
    """finetune, evaluate and embed_molecules featurize one union per pack
    through ``training``'s own names, and forward it in eval mode."""
    g = import_geognn(ROOT)
    mols = [random_molecule(Rng(4).fork(i), min_atoms=2, max_atoms=6, mol_id=f"m{i}")
            for i in range(6)]
    for i, mol in enumerate(mols):
        mol.labels = {"y": float(i % 3)}
        mol.split = ("train", "train", "valid", "test")[i % 4]
    config = g.model.ModelConfig(num_blocks=1, hidden=4, distance_bins=5,
                                 geom_head_hidden=4, down_head_hidden=4)

    def traced(call):
        tracer = tracing.Tracer()
        try:
            tracer.install(g)
            out = call()
        finally:
            tracer.uninstall()
        tracer.drain()
        return out, {name: entry[0] for name, entry in tracer.totals.items()}

    split = g.training.DatasetSplit.from_tags(mols)
    run = g.training.RunConfig(epochs=1, batch_size=2)
    result, finetuned = traced(lambda: g.training.finetune(split, config, run))
    store, config = result.store, result.model_config
    _, evaluated = traced(lambda: g.training.evaluate(store, config, mols, "rmse"))
    _, embedded = traced(lambda: g.training.embed_molecules(store, config, mols))
    # a pack per split when finetuning, then all six molecules in one
    for counts, packs, head in ((finetuned, 3, True), (evaluated, 1, True), (embedded, 1, False)):
        assert counts["geometry.build_dual_graph"] == counts["features.encode"] == packs
        assert counts["model.forward.eval"] >= packs
        assert ("model.head_downstream" in counts) == head


def test_ingest_checks_run_on_random_molecules():
    g = import_geognn(ROOT)
    mols = [random_molecule(Rng(2).fork(i), min_atoms=1, max_atoms=12, mol_id=f"m{i}")
            for i in range(5)]
    config = g.model.ModelConfig(num_blocks=1, hidden=4, distance_bins=5,
                                 geom_head_hidden=4, down_head_hidden=4)
    store = g.model.GeoGNN(config, rng=g.rng.Rng(3)).store
    # set up as Ingest.__init__ does, without its checkpoint file
    ingest = object.__new__(Ingest)
    ingest.g, ingest.store, ingest.config = g, store, config
    result = (mols, [], g.training.embed_molecules(store, config, mols))
    assert ingest.single_forward_gap(result) <= 1e-9
    assert math.isfinite(ingest.eval_loss(result))
