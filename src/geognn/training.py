"""Training harness: Adam, metrics, dataset splits, and the
pretrain -> finetune -> best-epoch-select -> test loop.

Reports are pure functions of (inputs, seed): they carry no timestamps,
so identical runs produce byte-identical report files.
"""

from __future__ import annotations

import json
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import tensor as T
from .checkpoint import save_checkpoint
from .errors import ConfigError, DataError, NumericalError, check_choice, check_int, check_real
from .features import EncodedGraph, FeatureConfig, encode
from .geometry import DualGraph, build_dual_graph
from .model import GeoGNN, ModelConfig, ParamStore, init_params, parameter_table
from .molio import Molecule
from .pretrain import (DEFAULT_MASK_RATIO, DEFAULT_TASKS, PreparedMolecule, check_tasks,
                       in_packs, loss_pre, pack, unpack)
from .rng import Rng
from .tensor import Tape, Tensor

logger = logging.getLogger("geognn")


@dataclass
class RunConfig:
    epochs: int = 10
    batch_size: int = 32
    lr_body: float = 1e-3
    lr_head: float = 1e-3
    seed: int = 0
    task_type: str | None = None       # regression | classification; None: the metric's
    metric: str = "rmse"               # rmse | mae | rocauc
    tasks: tuple[str, ...] = DEFAULT_TASKS
    mask_ratio: float = DEFAULT_MASK_RATIO

    def validate(self) -> "RunConfig":
        check_int("epochs", self.epochs, 0)
        check_int("batch_size", self.batch_size, 1)
        check_int("seed", self.seed, 0, 2**64)
        for name in ("lr_body", "lr_head", "mask_ratio"):
            check_real(name, getattr(self, name), 0.0)
        if self.task_type is not None:
            check_choice("task type", self.task_type, ("regression", "classification"))
        check_choice("metric", self.metric, METRICS)
        task_type = METRICS[self.metric][2]
        if self.task_type not in (None, task_type):
            raise ConfigError(f"{self.metric} is a {task_type} metric")
        self.task_type = task_type
        if not 0.0 < self.mask_ratio <= 1.0:
            raise ConfigError("mask ratio must lie in (0, 1]")
        check_tasks(self.tasks)
        return self

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        obj = dict(obj)
        if isinstance(obj.get("tasks"), list):  # anything else fails check_tasks
            obj["tasks"] = tuple(obj["tasks"])
        return cls(**obj).validate()


# --- optimizer ----------------------------------------------------------------


_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8
_HEAD_PREFIX = "head_down."


def adam_step(store: ParamStore, lr_body: float, lr_head: float) -> None:
    """One bias-corrected Adam update over every parameter with a gradient.

    Downstream-head parameters use lr_head; everything else uses lr_body.
    Missing gradients are treated as zero. A non-finite gradient raises
    NumericalError before anything changes.

    The update runs in place on ``store.flat`` and the flat moments, one run
    of adjacent parameters that share a learning rate at a time, through two
    scratch arrays allocated once per store, with the per-tensor rule's
    arithmetic in its order, so it gives the same bits. A parameter that has
    never had a gradient is skipped: its moments are zero, so its update is.
    """
    flat = store.flat
    if store.scratch is None:
        store.scratch = (np.empty_like(flat), np.empty_like(flat))
    g, tmp = store.scratch
    runs: list[list] = []  # [start, stop, lr] of each run to update
    graded = []
    start = 0
    for name, tensor in store.items():
        stop = start + tensor.size
        if tensor.grad is not None:
            g[start:stop] = tensor.grad.reshape(-1)
            graded.append(name)
        elif name in store.stepped:
            g[start:stop] = 0.0
        else:
            start = stop
            continue
        lr = lr_head if name.startswith(_HEAD_PREFIX) else lr_body
        if runs and runs[-1][1:] == [start, lr]:
            runs[-1][1] = stop
        else:
            runs.append([start, stop, lr])
        start = stop
    # a finite sum proves every gradient finite; one that overflowed proves nothing
    with np.errstate(over="ignore"):
        finite = all(np.isfinite(g[a:b].sum()) for a, b, _ in runs)
    if not finite:
        for name, tensor in store.items():
            if tensor.grad is not None and not np.all(np.isfinite(tensor.grad)):
                raise NumericalError(f"non-finite gradient for {name}")

    if store.moments is None:
        store.moments = (np.zeros_like(flat), np.zeros_like(flat))
    store.stepped.update(graded)
    store.step += 1
    correction1 = 1.0 - _BETA1**store.step
    correction2 = 1.0 - _BETA2**store.step
    for a, b, lr in runs:
        p, m, v, gr, up = (x[a:b] for x in (flat, *store.moments, g, tmp))
        m *= _BETA1
        np.multiply(gr, 1.0 - _BETA1, out=up)
        m += up
        v *= _BETA2
        np.multiply(gr, 1.0 - _BETA2, out=up)
        up *= gr
        v += up
        np.divide(m, correction1, out=up)
        up *= lr
        np.divide(v, correction2, out=gr)
        np.sqrt(gr, out=gr)
        gr += _EPS
        up /= gr
        p -= up


# --- metrics -------------------------------------------------------------------


def _per_task(preds, targets, score, skipped: str = "has no labels",
              none_scored: str = "no task had any labels") -> float:
    """Mean over tasks of ``score(p, t)`` on each task's labelled rows. A task
    with no labels, or one that ``score`` returns None for, is skipped with
    the warning "task <k> <skipped>"; if every task is, DataError(none_scored)."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape:
        raise DataError("prediction/target shape mismatch")
    if preds.ndim == 1:
        preds = preds.reshape(-1, 1)
        targets = targets.reshape(-1, 1)
    values = []
    for task in range(preds.shape[1]):
        keep = ~np.isnan(targets[:, task])
        value = score(preds[keep, task], targets[keep, task]) if keep.any() else None
        if value is None:
            logger.warning("task %d %s; skipped", task, skipped)
        else:
            values.append(value)
    if not values:
        raise DataError(none_scored)
    return float(np.mean(values))


def metric_rmse(preds, targets) -> float:
    """Root mean squared error; multi-task inputs average per-task values."""
    return _per_task(preds, targets, lambda p, t: math.sqrt(float(np.mean((p - t) ** 2))))


def metric_mae(preds, targets) -> float:
    """Mean absolute error; multi-task inputs average per-task values."""
    return _per_task(preds, targets, lambda p, t: float(np.mean(np.abs(p - t))))


def _auc_rank(scores: np.ndarray, labels: np.ndarray) -> float | None:
    """Rank-statistic AUC with midranks: P(s+ > s-) + 0.5 P(tie); None
    unless both classes are present."""
    if not set(labels.tolist()) <= {0.0, 1.0}:
        raise ConfigError("rocauc requires binary 0/1 labels")
    npos = int((labels == 1).sum())
    nneg = int((labels == 0).sum())
    if npos == 0 or nneg == 0:
        return None
    _, tie_group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[tie_group]
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - npos * (npos + 1) / 2.0) / (npos * nneg)


def metric_rocauc(scores, labels) -> float:
    """Average ROC-AUC over tasks; single-class tasks are skipped."""
    return _per_task(scores, labels, _auc_rank, "lacks both classes",
                     "no task had both classes present")


# each metric's function, its better direction, and the task type it scores
METRICS = {
    "rmse": (metric_rmse, "min", "regression"),
    "mae": (metric_mae, "min", "regression"),
    "rocauc": (metric_rocauc, "max", "classification"),
}


def metric_is_better(metric: str, candidate: float, incumbent: float | None) -> bool:
    if incumbent is None:
        return True
    if METRICS[metric][1] == "min":
        return candidate < incumbent
    return candidate > incumbent


# --- datasets -------------------------------------------------------------------


@dataclass
class DatasetSplit:
    train: list[Molecule]
    valid: list[Molecule]
    test: list[Molecule]

    def validate(self) -> "DatasetSplit":
        """Every split non-empty, and every molecule as ``Molecule.validate`` requires."""
        for part in ("train", "valid", "test"):
            if not getattr(self, part):
                raise DataError(f"{part} split is empty")
        for molecule in chain(self.train, self.valid, self.test):
            molecule.validate()
        return self

    @classmethod
    def from_tags(cls, molecules: list[Molecule]) -> "DatasetSplit":
        """Split by each molecule's tag. Molecules tagged neither valid nor
        test train, so ``validate`` sees a bad tag; missing valid falls back
        to train, missing test falls back to valid."""
        train = [m for m in molecules if m.split not in ("valid", "test")]
        valid = [m for m in molecules if m.split == "valid"]
        test = [m for m in molecules if m.split == "test"]
        if not valid:
            valid = train
        if not test:
            test = valid
        return cls(train=train, valid=valid, test=test)


def task_names(molecules: list[Molecule]) -> list[str]:
    """Sorted union of label keys that have at least one present value:
    a label that is absent, None or NaN is NaN in ``label_matrix``."""
    names = sorted({k for m in molecules for k in m.labels})
    absent = np.isnan(label_matrix(molecules, names)).all(axis=0)
    for n, gone in zip(names, absent):
        if gone:
            logger.warning("label %r has no values anywhere; excluded", n)
    return [n for n, gone in zip(names, absent) if not gone]


def label_matrix(molecules: list[Molecule], names: list[str]) -> np.ndarray:
    out = np.full((len(molecules), len(names)), np.nan)
    for i, m in enumerate(molecules):
        for j, n in enumerate(names):
            v = m.labels.get(n)
            if v is not None:
                out[i, j] = v
    return out


def featurized_packs(molecules: list[Molecule], features: FeatureConfig,
                     dtype=np.float64) -> Iterator[tuple[list[Molecule], DualGraph, EncodedGraph]]:
    """Each pack of at most PACK_SIZE molecules with its union's dual graph and
    features, built when asked for: using each union before asking for the next
    holds one pack's features at a time, which bounds peak memory."""
    for chunk in in_packs(molecules):
        graph = build_dual_graph(chunk)
        yield chunk, graph, encode(graph, chunk, features, dtype=dtype)


def prepare_molecules(molecules: list[Molecule], features: FeatureConfig,
                      dtype=np.float64) -> list[PreparedMolecule]:
    """Each molecule with its graph and features: views of one union per pack."""
    return [item for packed in featurized_packs(molecules, features, dtype)
            for item in unpack(*packed)]


def write_report(path: Path, obj: dict) -> None:
    """Write ``obj`` as indented JSON with sorted keys, creating the directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


@contextmanager
def _prefixed(prefix: str):
    """Re-raise a NumericalError of the block as "<prefix>: <its text>"."""
    try:
        yield
    except NumericalError as err:
        raise NumericalError(f"{prefix}: {err}") from None


def _fit_epoch(
    model: GeoGNN,
    n: int,
    run_config: RunConfig,
    rng: Rng,
    epoch: int,
    batch_loss: Callable[[np.ndarray, list[Rng]], tuple[Tensor, dict[str, float]]],
) -> tuple[float, dict[str, float]]:
    """Epoch ``epoch`` of minibatch Adam over training items 0..n-1 in shuffled
    order, drawn from the run ``rng``'s "epoch<epoch>" fork.

    ``batch_loss(ids, rngs)`` returns the mean loss of the items ``ids`` and
    their per-task means; ``rngs[k]`` is item ``ids[k]``'s stream, keyed by
    its index so that no two items of an epoch share one. Returns the
    size-weighted means of both over the epoch. A NumericalError gains the
    prefix "epoch E, batch B: ", both counted from 1.
    """
    total = 0.0
    sums: dict[str, float] = {}
    epoch_rng = rng.fork(f"epoch{epoch}")
    order = epoch_rng.fork("shuffle").permutation(n)
    for batch, start in enumerate(range(0, n, run_config.batch_size), 1):
        ids = order[start : start + run_config.batch_size]
        with _prefixed(f"epoch {epoch}, batch {batch}"):
            model.store.zero_grad()
            with Tape() as tape:
                loss, parts = batch_loss(ids, [epoch_rng.fork(f"mol{i}") for i in ids])
            tape.backward(loss)
            adam_step(model.store, run_config.lr_body, run_config.lr_head)
        total += loss.item() * len(ids)
        for k, v in parts.items():
            sums[k] = sums.get(k, 0.0) + v * len(ids)
    return total / n, {k: v / n for k, v in sums.items()}


# --- pretraining loop -----------------------------------------------------------


@dataclass
class PretrainResult:
    history: list[dict]
    checkpoint_paths: list[str]
    store: ParamStore


def pretrain(
    molecules: list[Molecule],
    model_config: ModelConfig,
    run_config: RunConfig,
    out_dir: str | Path | None = None,
) -> PretrainResult:
    """Minibatch Adam on the self-supervised loss; one checkpoint per epoch.

    Molecules tagged "valid" form a held-out loss log; everything else trains.
    Each molecule must pass ``Molecule.validate``, as the readers require.
    The data sizes the heads, whatever ``model_config`` says: no downstream
    head, and a fingerprint head as wide as the molecules' one width of bits
    (none without the fingerprint task or bits).
    """
    run_config.validate()
    for molecule in molecules:
        molecule.validate()
    widths = {len(m.fingerprint) for m in molecules
              if m.fingerprint is not None and "fingerprint" in run_config.tasks}
    if len(widths) > 1:
        raise DataError(f"inconsistent fingerprint widths: {sorted(widths)}")
    model_config = replace(model_config, num_tasks=0,
                           fingerprint_bits=max(widths, default=0)).validate()
    features = FeatureConfig()
    rng = Rng(run_config.seed)
    model = GeoGNN(model_config, rng=rng)

    train_mols = [m for m in molecules if m.split != "valid"]
    eval_mols = [m for m in molecules if m.split == "valid"]
    if not train_mols:
        raise DataError("no molecules to pretrain on")
    # each item keeps its distance targets once built, so a run builds them once
    train_items = prepare_molecules(train_mols, features, dtype=model_config.dtype)
    eval_items = prepare_molecules(eval_mols, features, dtype=model_config.dtype)

    def batch_loss(ids, rngs):
        return loss_pre(model, [train_items[i] for i in ids], rngs, tasks=run_config.tasks,
                        mask_ratio=run_config.mask_ratio)

    out_dir = Path(out_dir) if out_dir is not None else None
    history: list[dict] = []
    paths: list[str] = []

    def write_checkpoint(epoch: int):
        if out_dir is None:
            return
        path = out_dir / f"pretrain_epoch{epoch:03d}.ckpt"
        save_checkpoint(
            path, model.store, model_config, features, extra={"epoch": epoch, "phase": "pretrain"}
        )
        paths.append(str(path))

    write_checkpoint(0)
    for epoch in range(1, run_config.epochs + 1):
        loss, parts = _fit_epoch(model, len(train_items), run_config, rng, epoch, batch_loss)
        entry = {"epoch": epoch, "loss": loss, **parts}
        if eval_items:
            eval_rngs = [Rng(run_config.seed).fork(f"eval{i}") for i in range(len(eval_items))]
            with _prefixed(f"epoch {epoch}, eval"):
                entry["eval_loss"] = loss_pre(model, eval_items, eval_rngs, tasks=run_config.tasks,
                                              mask_ratio=run_config.mask_ratio,
                                              mode="eval")[0].item()
        history.append(entry)
        logger.info("pretrain epoch %d: loss %.6f", epoch, entry["loss"])
        write_checkpoint(epoch)

    if out_dir is not None:
        read = ("epochs", "batch_size", "lr_body", "seed", "tasks", "mask_ratio")
        write_report(out_dir / "pretrain_log.json",
                     {"history": history, "config": {k: getattr(run_config, k) for k in read}})
    return PretrainResult(history=history, checkpoint_paths=paths, store=model.store)


# --- downstream loop ------------------------------------------------------------


def _downstream_predictions(model: GeoGNN, packs: Iterable[tuple]) -> np.ndarray:
    """Eval-mode predictions, one row per molecule, of ``featurized_packs``' unions."""
    return np.concatenate([
        model.head_downstream(model.forward(graph, encoded, mode="eval").h_graph).data
        for _, graph, encoded in packs
    ])


def _downstream_batch_loss(
    model: GeoGNN,
    items: list[PreparedMolecule],
    labels: np.ndarray,
    task_type: str,
    rngs: list[Rng],
) -> tuple[Tensor, dict[str, float]]:
    """Mean supervised loss over a batch of molecules with at least one
    label each, a molecule's loss being the mean over its present labels, as
    one weighted ``tensor.squared_error`` or ``tensor.bce_with_logits``; the
    per-task dict is empty, as the downstream tasks share one loss."""
    emb = model.forward(*pack(items), mode="train", rng=rngs)
    pred = model.head_downstream(emb.h_graph)
    present = ~np.isnan(labels)
    weights = present / present.sum(axis=1, keepdims=True) / len(items)
    y = np.where(present, labels, 0.0)
    if task_type == "regression":
        return T.squared_error(pred, y, weights), {}
    return T.bce_with_logits(pred, y, weights), {}


@dataclass
class FinetuneResult:
    report: dict
    store: ParamStore
    model_config: ModelConfig


def finetune(
    split: DatasetSplit,
    model_config: ModelConfig,
    run_config: RunConfig,
    init_store: ParamStore | None = None,
    out_dir: str | Path | None = None,
) -> FinetuneResult:
    """Train the downstream head (and body) on the train split, select the
    epoch with the best validation metric, and report the test metric of
    that epoch. Ties keep the earliest epoch. ``split.validate`` checks
    each molecule with ``Molecule.validate``, as the readers do. The labels
    size the heads, whatever ``model_config`` says: one output per task of
    the train split, and no fingerprint head. An ``init_store`` must fit the
    model tensor for tensor (name and shape), but for a downstream head it
    lacks (drawn) and a fingerprint head (left behind): else ConfigError."""
    run_config.validate()
    split.validate()
    features = FeatureConfig()
    names = task_names(split.train)
    if not names:
        raise DataError("no labelled tasks in the training split")
    model_config = replace(model_config, num_tasks=len(names), fingerprint_bits=0).validate()

    if init_store is not None:
        given = {n: s for n, s in init_store.shapes() if not n.startswith("head_fp.")}
        wanted = {n: s for n, s, _ in parameter_table(model_config)
                  if n in given or not n.startswith(_HEAD_PREFIX)}
        off = next((n for n in chain(wanted, given) if wanted.get(n) != given.get(n)), None)
        if off is not None:
            raise ConfigError(f"parameter {off}: checkpoint {given.get(off, 'none')}, model "
                              f"{wanted.get(off, 'none')} ({model_config.sizes()})")
        logger.info("loaded %d parameter tensors from checkpoint", len(given))
    rng = Rng(run_config.seed)
    model = GeoGNN(model_config, store=init_params(model_config, rng.fork("init"), init_store))

    # a training molecule with no labels has no loss term; a batch of only
    # such molecules would have no loss at all
    labelled = ~np.isnan(label_matrix(split.train, names)).all(axis=1)
    if not labelled.all():
        logger.warning("dropped %d training molecules with no labels", int((~labelled).sum()))
    parts = {
        "train": [m for m, keep in zip(split.train, labelled) if keep],
        "valid": split.valid,
        "test": split.test,
    }
    # eval passes forward each split's unions; shuffled minibatches need views
    packs = {
        part: list(featurized_packs(mols, features, dtype=model_config.dtype))
        for part, mols in parts.items()
    }
    train_items = [item for packed in packs["train"] for item in unpack(*packed)]
    labels = {part: label_matrix(mols, names) for part, mols in parts.items()}
    metric_fn = METRICS[run_config.metric][0]
    # every split the run scores (train and valid after each epoch, test at
    # the end) through the metric's label checks, before the first step
    for part in ("train", "valid", "test") if run_config.epochs else ("test",):
        metric_fn(np.zeros_like(labels[part]), labels[part])

    def batch_loss(ids, rngs):
        batch = [train_items[i] for i in ids]
        return _downstream_batch_loss(
            model, batch, labels["train"][ids], run_config.task_type, rngs
        )

    def score(model, part):
        return metric_fn(_downstream_predictions(model, packs[part]), labels[part])

    best_metric = None
    best_epoch = 0
    best_store = model.store  # epoch 1 always replaces it, so only epochs=0 keeps it
    epochs_log: list[dict] = []
    for epoch in range(1, run_config.epochs + 1):
        train_loss, _ = _fit_epoch(model, len(train_items), run_config, rng, epoch, batch_loss)
        with _prefixed(f"epoch {epoch}, eval"):
            train_metric, valid_metric = score(model, "train"), score(model, "valid")
        epochs_log.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "train_metric": train_metric,
                "valid_metric": valid_metric,
            }
        )
        logger.info(
            "finetune epoch %d: loss %.6f train %s %.6f valid %s %.6f",
            epoch, train_loss, run_config.metric, train_metric, run_config.metric, valid_metric,
        )
        if metric_is_better(run_config.metric, valid_metric, best_metric):
            best_metric = valid_metric
            best_epoch = epoch
            best_store = model.store.copy()

    with _prefixed("test"):
        test_metric = score(GeoGNN(model_config, store=best_store), "test")
    read = ("epochs", "batch_size", "lr_body", "lr_head", "seed", "metric", "task_type")
    report = {
        "kind": "finetune_report",
        "metric": run_config.metric,
        "task_names": names,
        "seed": run_config.seed,
        "config": {"model": model_config.to_dict(),
                   "run": {k: getattr(run_config, k) for k in read}},
        "epochs": epochs_log,
        "selected_epoch": best_epoch,
        "valid_metric": best_metric,
        "test_metric": test_metric,
        "splits": {part: len(getattr(split, part)) for part in ("train", "valid", "test")},
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        save_checkpoint(
            out_dir / "finetune_best.ckpt", best_store, model_config, features,
            extra={"epoch": best_epoch, "phase": "finetune", "task_names": names},
        )
        write_report(out_dir / "finetune_report.json", report)
    return FinetuneResult(report=report, store=best_store, model_config=model_config)


def evaluate(
    store: ParamStore,
    model_config: ModelConfig,
    molecules: list[Molecule],
    metric: str,
    names: list[str] | None = None,
) -> dict:
    """Metric of the stored parameters on a molecule list; each molecule must
    pass ``Molecule.validate``, as the readers require."""
    check_choice("metric", metric, METRICS)
    if not molecules:
        raise DataError("no molecules to evaluate")
    for molecule in molecules:
        molecule.validate()
    features = FeatureConfig()
    names = names if names is not None else task_names(molecules)
    if not names:
        raise DataError("no labelled tasks to evaluate")
    if len(names) != model_config.num_tasks:
        raise ConfigError(
            f"checkpoint predicts {model_config.num_tasks} tasks but the dataset has {len(names)}"
        )
    model = GeoGNN(model_config, store=store)
    preds = _downstream_predictions(
        model, featurized_packs(molecules, features, dtype=model_config.dtype))
    value = METRICS[metric][0](preds, label_matrix(molecules, names))
    return {"kind": "evaluate_report", "metric": metric, "value": value,
            "task_names": names, "count": len(molecules)}


def embed_molecules(
    store: ParamStore,
    model_config: ModelConfig,
    molecules: list[Molecule],
) -> list[tuple[str, np.ndarray]]:
    """(id, eval-mode graph embedding) of each molecule; each molecule must
    pass ``Molecule.validate``, as the readers require."""
    for molecule in molecules:
        molecule.validate()
    features = FeatureConfig()
    model = GeoGNN(model_config, store=store)
    return [(mol.id, row.copy())
            for chunk, graph, encoded in featurized_packs(molecules, features, model_config.dtype)
            for mol, row in zip(chunk, model.forward(graph, encoded, mode="eval").h_graph.data)]
