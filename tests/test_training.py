import dataclasses
import importlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geognn import tensor, training
from geognn.errors import ConfigError, DataError, NumericalError
from geognn.model import GeoGNN, ModelConfig, ParamStore
from geognn.rng import Rng
from geognn.synth import geometry_label, random_molecule
from geognn.training import (
    DatasetSplit,
    RunConfig,
    adam_step,
    evaluate,
    finetune,
    label_matrix,
    metric_is_better,
    metric_mae,
    metric_rmse,
    metric_rocauc,
    pretrain,
    task_names,
)

from conftest import overflowing_model, store_of
from oracles import adam_reference, roc_auc_pairs


def one_param_store(value: float) -> ParamStore:
    return store_of({"x": [value]})


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        store = one_param_store(1.5)
        store["x"].grad = np.array([0.0])
        adam_step(store, lr_body=0.1, lr_head=0.1)
        assert store["x"].data[0] == 1.5

    def test_first_step_moves_by_lr_sign(self):
        for g in (0.3, -2.0):
            store = one_param_store(1.0)
            store["x"].grad = np.array([g])
            adam_step(store, lr_body=0.01, lr_head=0.01)
            expected = 1.0 - 0.01 * g / (abs(g) + 1e-8)
            assert store["x"].data[0] == pytest.approx(expected, abs=1e-12)
            assert store["x"].data[0] == pytest.approx(1.0 - 0.01 * math.copysign(1, g), abs=1e-6)

    def test_hundred_steps_on_quadratic(self):
        # f(x) = x^2 from x = 1 with lr 0.1, against an independent scalar
        # reference running the textbook update rule
        store = one_param_store(1.0)
        x_ref, m_ref, v_ref = 1.0, 0.0, 0.0
        for t in range(1, 101):
            g = 2.0 * store["x"].data[0]
            store["x"].grad = np.array([g])
            adam_step(store, lr_body=0.1, lr_head=0.1)

            g_ref = 2.0 * x_ref
            m_ref = 0.9 * m_ref + 0.1 * g_ref
            v_ref = 0.999 * v_ref + 0.001 * g_ref * g_ref
            x_ref -= 0.1 * (m_ref / (1 - 0.9**t)) / (math.sqrt(v_ref / (1 - 0.999**t)) + 1e-8)
            assert store["x"].data[0] == pytest.approx(x_ref, abs=1e-12)
        assert abs(store["x"].data[0]) < 0.1

    def test_nonfinite_gradient_rejected(self):
        from geognn.errors import NumericalError

        store = one_param_store(1.0)
        store["x"].grad = np.array([np.nan])
        with pytest.raises(NumericalError):
            adam_step(store, lr_body=0.1, lr_head=0.1)

    def test_head_lr_applies_to_head_params(self):
        store = store_of({"head_down.l1.w": [1.0], "embed.atom.w": [1.0]})
        for name in store.names():
            store[name].grad = np.array([1.0])
        adam_step(store, lr_body=0.0, lr_head=0.5)
        assert store["embed.atom.w"].data[0] == 1.0
        assert store["head_down.l1.w"].data[0] != 1.0

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), f32=st.booleans())
    def test_matches_per_tensor_reference(self, seed, f32):
        # head and body names interleaved, shapes (1,) to 2-D, gradients
        # missing at random (some tensors never get one), 30 steps
        r = np.random.default_rng(seed)
        dtype = np.float32 if f32 else np.float64
        arrays = {}
        for i in range(int(r.integers(1, 12))):
            prefix = "head_down." if r.random() < 0.4 else "block."
            shape = tuple(int(k) for k in r.integers(1, 9, size=int(r.integers(1, 3))))
            arrays[f"{prefix}{i}"] = r.standard_normal(shape)
        store = store_of(arrays, dtype)
        params = {name: t.data.copy() for name, t in store.items()}
        never = {name for name in params if r.random() < 0.2}
        moments: dict = {}
        lr_body, lr_head = 10.0 ** r.uniform(-4, -1), 10.0 ** r.uniform(-4, -1)
        for step in range(1, 31):
            grads = {name: None if name in never or r.random() < 0.3
                     else (r.standard_normal(data.shape) * 10.0 ** r.uniform(-3, 3)).astype(dtype)
                     for name, data in params.items()}
            for name, t in store.items():
                t.grad = grads[name]
            adam_step(store, lr_body, lr_head)
            adam_reference(params, grads, moments, step, lr_body, lr_head)
        m, v = store.moments
        start = 0
        for name, t in store.items():
            stop = start + t.size
            assert t.data.dtype == dtype
            assert np.array_equal(t.data, params[name])
            assert np.array_equal(m[start:stop], moments[name][0].reshape(-1))
            assert np.array_equal(v[start:stop], moments[name][1].reshape(-1))
            start = stop

    def test_rejected_step_leaves_the_store_as_it_was(self):
        from geognn.errors import NumericalError

        store = store_of({"a": [1.0], "b": [2.0, 3.0]})
        store["a"].grad, store["b"].grad = np.array([1.0]), np.array([0.5, np.nan])
        with pytest.raises(NumericalError, match="^non-finite gradient for b$"):
            adam_step(store, lr_body=0.1, lr_head=0.1)
        assert store.step == 0 and store.moments is None
        assert store["a"].data[0] == 1.0
        store["b"].grad = np.array([0.5, 0.25])
        adam_step(store, lr_body=0.1, lr_head=0.1)
        before = store.copy()
        moments = tuple(x.copy() for x in store.moments)
        store["a"].grad = np.array([np.inf])
        with pytest.raises(NumericalError, match="^non-finite gradient for a$"):
            adam_step(store, lr_body=0.1, lr_head=0.1)
        assert store.step == 1
        for name, t in store.items():
            assert np.array_equal(t.data, before[name].data)
        assert all(np.array_equal(x, y) for x, y in zip(store.moments, moments))

    def test_finite_gradients_whose_sum_overflows_are_accepted(self):
        store = store_of({"x": [1.0, 1.0]})
        store["x"].grad = np.array([1e308, 1e308])
        params, moments = {"x": np.array([1.0, 1.0])}, {}
        with np.errstate(over="ignore"):  # v overflows in either rule
            adam_step(store, lr_body=0.1, lr_head=0.1)
            adam_reference(params, {"x": store["x"].grad}, moments, 1, 0.1, 0.1)
        assert store.step == 1
        assert np.array_equal(store["x"].data, params["x"])

    def test_parameters_are_views_of_one_buffer_updated_in_place(self):
        store = store_of({"block.w": np.ones((2, 3)), "head_down.b": np.ones(2)})
        tensors = {name: t for name, t in store.items()}
        snapshot = store.copy()
        for _ in range(4):
            for t in tensors.values():
                t.grad = np.ones(t.shape)
            adam_step(store, lr_body=0.1, lr_head=0.2)
            for name, t in store.items():
                assert t is tensors[name]
                assert np.shares_memory(t.data, store.flat)
        assert np.array_equal(snapshot.flat, np.ones(8))
        assert snapshot.step == 0 and snapshot.moments is None
        assert not np.shares_memory(snapshot.flat, store.flat)
        assert np.all(store["block.w"].data < 1.0)


class TestMetrics:
    def test_rmse_mae_hand_case(self):
        assert metric_rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)
        assert metric_mae([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.5, abs=1e-12)

    def test_perfect_predictions(self):
        assert metric_rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert metric_mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_single_pair(self):
        assert metric_rmse([5.0], [3.0]) == 2.0
        assert metric_mae([5.0], [3.0]) == 2.0

    def test_multi_task_mean_with_missing(self):
        preds = np.array([[1.0, 0.0], [2.0, 0.0]])
        targets = np.array([[0.0, np.nan], [0.0, np.nan]])
        # second task has no labels -> only first contributes
        got = metric_rmse(preds, targets)
        assert got == pytest.approx(math.sqrt((1 + 4) / 2), abs=1e-12)

    def test_all_missing_errors(self):
        with pytest.raises(DataError):
            metric_rmse(np.array([[1.0]]), np.array([[np.nan]]))

    def test_rocauc_perfect(self):
        assert metric_rocauc([0.9, 0.8, 0.3], [1, 1, 0]) == 1.0

    def test_rocauc_mixed(self):
        assert metric_rocauc([0.9, 0.8, 0.3], [1, 0, 1]) == 0.5

    def test_rocauc_all_ties(self):
        assert metric_rocauc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_rocauc_single_class_task_errors(self):
        with pytest.raises(DataError):
            metric_rocauc([0.1, 0.2], [1, 1])

    def test_rocauc_equals_pair_counting_100_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(5, 201))
            scores = np.round(rng.uniform(size=n), 2)  # rounding forces ties
            labels = rng.integers(0, 2, size=n).astype(float)
            if len(set(labels.tolist())) < 2:
                labels[0], labels[1] = 0.0, 1.0
            got = metric_rocauc(scores, labels)
            want = roc_auc_pairs(scores.tolist(), labels.tolist())
            assert got == want  # exact equality

    def test_direction_with_ties_prefers_earliest(self):
        # [0.9, 0.7, 0.8] rmse -> epoch 2
        best, best_epoch = None, 0
        for epoch, value in enumerate([0.9, 0.7, 0.8], start=1):
            if metric_is_better("rmse", value, best):
                best, best_epoch = value, epoch
        assert best_epoch == 2
        best, best_epoch = None, 0
        for epoch, value in enumerate([0.5, 0.5, 0.5], start=1):
            if metric_is_better("rocauc", value, best):
                best, best_epoch = value, epoch
        assert best_epoch == 1


class TestSplits:
    def test_from_tags(self):
        mols = [random_molecule(Rng(i), mol_id=f"m{i}") for i in range(6)]
        for i, m in enumerate(mols):
            m.split = ("train", "valid", "test")[i % 3]
        split = DatasetSplit.from_tags(mols)
        assert [m.id for m in split.train] == ["m0", "m3"]
        assert [m.id for m in split.valid] == ["m1", "m4"]
        assert [m.id for m in split.test] == ["m2", "m5"]

    def test_untagged_defaults_to_train_everywhere(self):
        mols = [random_molecule(Rng(i), mol_id=f"m{i}") for i in range(3)]
        split = DatasetSplit.from_tags(mols)
        assert split.train == split.valid == split.test

    def test_task_names_and_labels(self):
        mols = [random_molecule(Rng(i), mol_id=f"m{i}") for i in range(3)]
        mols[0].labels = {"a": 1.0, "b": None}
        mols[1].labels = {"a": None, "b": None}
        mols[2].labels = {"a": 3.0}
        names = task_names(mols)
        assert names == ["a"]  # b has no values anywhere
        mat = label_matrix(mols, names)
        assert mat.shape == (3, 1)
        assert np.isnan(mat[1, 0])

    def test_nan_label_counts_as_missing(self):
        mols = [random_molecule(Rng(i), mol_id=f"m{i}") for i in range(2)]
        mols[0].labels = {"y": 1.0, "z": float("nan")}
        mols[1].labels = {"y": 2.0, "z": None}
        assert task_names(mols) == ["y"]

    @pytest.mark.parametrize("epochs", [0, 1])
    @pytest.mark.parametrize("empty", ["valid", "test"])
    def test_empty_valid_or_test_split_rejected(self, empty, epochs):
        mols = tiny_dataset(4, seed=3, with_splits=False)
        split = DatasetSplit(**{"train": mols, "valid": mols, "test": mols, empty: []})
        with pytest.raises(DataError, match=f"^{empty} split is empty$"):
            finetune(split, TINY_MODEL, RunConfig(epochs=epochs, batch_size=4))


_HUGE = 10**400  # an integer too large for a float


@pytest.mark.parametrize("config, field, value", [
    (ModelConfig, "dropout", _HUGE), (ModelConfig, "dropout", [0.1]),
    (ModelConfig, "precision", ["f64"]),
    (RunConfig, "lr_body", _HUGE), (RunConfig, "lr_body", [1e-3]),
    (RunConfig, "lr_head", _HUGE), (RunConfig, "lr_head", [1e-3]),
    (RunConfig, "mask_ratio", _HUGE), (RunConfig, "mask_ratio", [0.15]),
    (RunConfig, "metric", ["rmse"]), (RunConfig, "task_type", ["regression"]),
    (RunConfig, "tasks", [["length"]]), (RunConfig, "tasks", 5),
], ids=lambda v: "huge" if v is _HUGE else None)
def test_config_value_of_the_wrong_kind_is_a_config_error(config, field, value):
    """A real too large for a float, a list for a real, and a list for a
    string choice."""
    with pytest.raises(ConfigError):
        config(**{field: value}).validate()


def tiny_dataset(n, seed, with_splits=True):
    rng = Rng(seed)
    mols = []
    for i in range(n):
        m = random_molecule(rng.fork(i), min_atoms=4, max_atoms=8, mol_id=f"m{i}")
        m.labels = {"y": geometry_label(m)}
        if with_splits:
            m.split = "train" if i % 5 < 3 else ("valid" if i % 5 == 3 else "test")
        mols.append(m)
    return mols


TINY_MODEL = ModelConfig(
    num_blocks=2, hidden=8, dropout=0.0, distance_bins=10,
    geom_head_hidden=16, down_head_hidden=16, num_tasks=1,
)


class TestPretrainLoop:
    def test_zero_epochs_checkpoint_equals_init(self, tmp_path):
        mols = tiny_dataset(6, seed=1, with_splits=False)
        run = RunConfig(epochs=0, batch_size=4, seed=3)
        result = pretrain(mols, TINY_MODEL, run, out_dir=tmp_path)
        init = GeoGNN(TINY_MODEL, rng=Rng(3)).store
        from geognn.checkpoint import load_checkpoint

        store, config, _, extra = load_checkpoint(result.checkpoint_paths[0])
        assert extra["epoch"] == 0
        # pretraining has no downstream head; every other tensor is the init's
        assert config.num_tasks == 0
        assert store.names() == [n for n in init.names() if not n.startswith("head_down.")]
        for name in store.names():
            assert np.array_equal(store[name].data, init[name].data)

    def test_loss_decreases_and_logs_components(self, tmp_path):
        mols = tiny_dataset(12, seed=2, with_splits=False)
        run = RunConfig(epochs=8, batch_size=6, lr_body=3e-3, lr_head=3e-3, seed=4)
        result = pretrain(mols, TINY_MODEL, run, out_dir=tmp_path)
        assert (tmp_path / "pretrain_log.json").exists()
        first, last = result.history[0], result.history[-1]
        assert last["loss"] < first["loss"]
        for key in ("length", "angle", "distance"):
            assert key in first

    def test_restart_from_same_seed_is_identical(self):
        mols = tiny_dataset(8, seed=5, with_splits=False)
        run = RunConfig(epochs=3, batch_size=4, seed=6)
        a = pretrain(mols, TINY_MODEL, run)
        b = pretrain(mols, TINY_MODEL, run)
        assert a.history == b.history
        for name in a.store.names():
            assert np.array_equal(a.store[name].data, b.store[name].data)

    def test_eval_split_logged(self):
        mols = tiny_dataset(10, seed=7, with_splits=False)
        for m in mols[-3:]:
            m.split = "valid"
        run = RunConfig(epochs=2, batch_size=4, seed=8)
        result = pretrain(mols, TINY_MODEL, run)
        assert all("eval_loss" in e for e in result.history)

    @pytest.mark.parametrize("width", [0, 3, 5], ids=["given-0", "given-3", "given-5"])
    def test_fingerprint_head_takes_the_molecules_width(self, tmp_path, width):
        """Whatever width the config gives, the head has the molecules' width,
        and every epoch's checkpoint is written."""
        mols = tiny_dataset(6, seed=13, with_splits=False)
        for i, m in enumerate(mols[1:]):  # the first molecule has no bits
            m.fingerprint = [(i >> k) & 1 for k in range(5)]
        run = RunConfig(epochs=2, batch_size=4, seed=14, tasks=("length", "fingerprint"))
        config = dataclasses.replace(TINY_MODEL, fingerprint_bits=width)
        result = pretrain(mols, config, run, out_dir=tmp_path)
        assert all(math.isfinite(entry["fingerprint"]) for entry in result.history)
        assert result.store["head_fp.l1.w"].data.shape[1] == 5
        from geognn.checkpoint import load_checkpoint

        assert len(result.checkpoint_paths) == 3
        for path in result.checkpoint_paths:
            store, saved, _, _ = load_checkpoint(path)
            assert saved.fingerprint_bits == 5
            assert store["head_fp.l1.w"].shape == (TINY_MODEL.hidden, 5)

    @pytest.mark.parametrize("tasks, bits", [
        (("length", "angle", "distance"), [1, 0, 1, 1]), (("length", "fingerprint"), None),
    ], ids=["no-fingerprint-task", "no-molecule-has-bits"])
    def test_no_fingerprint_head_without_bits_to_predict(self, tmp_path, tasks, bits):
        """A fingerprint head that no loss reads is not made, whatever the
        config says: no tensor, gradient or checkpoint entry for it."""
        mols = tiny_dataset(6, seed=21, with_splits=False)
        for m in mols:
            m.fingerprint = bits
        config = dataclasses.replace(TINY_MODEL, fingerprint_bits=3)
        result = pretrain(mols, config, RunConfig(epochs=2, batch_size=4, seed=22, tasks=tasks),
                          out_dir=tmp_path)
        from geognn.checkpoint import load_checkpoint

        assert not [n for n in result.store.names() if n.startswith("head_fp.")]
        assert len(result.checkpoint_paths) == 3
        for path in result.checkpoint_paths:
            store, saved, _, _ = load_checkpoint(path)
            assert saved.fingerprint_bits == 0
            assert not [n for n in store.names() if n.startswith("head_fp.")]

    def test_lr_head_changes_nothing(self):
        """Pretraining has no downstream head, so the head learning rate has
        nothing to act on."""
        mols = tiny_dataset(6, seed=23, with_splits=False)
        run = RunConfig(epochs=2, batch_size=4, seed=24)
        a = pretrain(mols, TINY_MODEL, run)
        b = pretrain(mols, TINY_MODEL, dataclasses.replace(run, lr_head=5.0))
        assert np.array_equal(a.store.flat, b.store.flat)

    def test_mixed_fingerprint_widths_rejected(self):
        mols = tiny_dataset(4, seed=15, with_splits=False)
        for i, m in enumerate(mols):
            m.fingerprint = [1] * (6 if i else 5)
        run = RunConfig(epochs=1, batch_size=4, seed=16, tasks=("length", "fingerprint"))
        with pytest.raises(DataError, match=r"inconsistent fingerprint widths: \[5, 6\]"):
            pretrain(mols, TINY_MODEL, run)

    @pytest.mark.parametrize("bits", [0, 6], ids=["unsized", "sized"])
    @pytest.mark.parametrize("others", [0, 1], ids=["alone", "beside-6-bits"])
    def test_empty_fingerprint_rejected(self, bits, others):
        mols = tiny_dataset(3, seed=17, with_splits=False)
        mols[0].fingerprint = []
        for m in mols[1 : 1 + others]:
            m.fingerprint = [1, 0, 1, 1, 0, 0]
        config = dataclasses.replace(TINY_MODEL, fingerprint_bits=bits)
        run = RunConfig(epochs=1, batch_size=4, seed=18, tasks=("length", "fingerprint"))
        with pytest.raises(DataError):
            pretrain(mols, config, run)

    @pytest.mark.parametrize("tasks,per_molecule", [
        (("length", "angle", "distance"), 1), (("length", "angle"), 0),
    ])
    def test_distance_targets_built_once_per_run(self, monkeypatch, tasks, per_molecule):
        module = importlib.import_module("geognn.pretrain")  # not the package's function
        calls = []
        build = module.build_targets
        monkeypatch.setattr(module, "build_targets", lambda *a: calls.append(a) or build(*a))
        mols = tiny_dataset(10, seed=19)  # 2 tagged valid are eval, the other 8 train
        pretrain(mols, TINY_MODEL, RunConfig(epochs=3, batch_size=4, seed=20, tasks=tasks))
        assert len(calls) == per_molecule * len(mols)


class TestFinetuneLoop:
    def test_overfits_small_regression_set(self):
        mols = tiny_dataset(16, seed=9, with_splits=False)
        split = DatasetSplit.from_tags(mols)
        run = RunConfig(epochs=120, batch_size=8, lr_body=3e-3, lr_head=3e-3, seed=10)
        result = finetune(split, TINY_MODEL, run)
        assert result.report["epochs"][-1]["train_metric"] < 0.2
        assert result.report["test_metric"] == result.report["epochs"][result.report["selected_epoch"] - 1]["valid_metric"]

    def test_best_epoch_selection_argmin(self):
        # verify against the recorded sequence: reported epoch is the argmin
        mols = tiny_dataset(12, seed=11)
        split = DatasetSplit.from_tags(mols)
        run = RunConfig(epochs=6, batch_size=6, seed=12)
        result = finetune(split, TINY_MODEL, run)
        valid_curve = [e["valid_metric"] for e in result.report["epochs"]]
        assert result.report["selected_epoch"] == int(np.argmin(valid_curve)) + 1
        assert result.report["valid_metric"] == min(valid_curve)

    def test_classification_with_missing_labels(self):
        rng = Rng(13)
        mols = [random_molecule(rng.fork(i), mol_id=f"m{i}") for i in range(12)]
        cut = float(np.median([geometry_label(m) for m in mols]))
        for i, m in enumerate(mols):
            y = 1.0 if geometry_label(m) > cut else 0.0
            m.labels = {"t1": y, "t2": None if i % 2 else y}
        split = DatasetSplit.from_tags(mols)
        run = RunConfig(
            epochs=3, batch_size=6, seed=14, task_type="classification", metric="rocauc"
        )
        result = finetune(split, TINY_MODEL, run)
        assert 0.0 <= result.report["test_metric"] <= 1.0

    @pytest.mark.parametrize("metric,part,labels,error,text", [
        ("rmse", "test", [None, None], DataError, "no task had any labels"),
        ("rocauc", "valid", [0.0, 2.0], ConfigError, "rocauc requires binary 0/1 labels"),
        ("rocauc", "valid", [1.0, 1.0], DataError, "no task had both classes present"),
        ("rocauc", "train", [1.0] * 6, DataError, "no task had both classes present"),
    ], ids=["unlabelled-test", "non-binary-valid", "one-class-valid", "one-class-train"])
    @pytest.mark.parametrize("epochs", [0, 3])
    def test_unscorable_split_raises_before_the_first_step(self, monkeypatch, metric, part,
                                                           labels, error, text, epochs):
        # train and valid are scored only after an epoch; test always is
        mols = tiny_dataset(10, seed=27)
        for i, m in enumerate(mols):
            m.labels = {"y": float(i % 2)}
        for m, y in zip([m for m in mols if m.split == part], labels):
            m.labels = {"y": y}
        steps = []
        monkeypatch.setattr(training, "adam_step", lambda *args: steps.append(args))
        run = RunConfig(epochs=epochs, batch_size=4, metric=metric, seed=28)
        if epochs == 0 and part != "test":
            finetune(DatasetSplit.from_tags(mols), TINY_MODEL, run)
            return
        with pytest.raises(error, match=text):
            finetune(DatasetSplit.from_tags(mols), TINY_MODEL, run)
        assert steps == []

    def test_dropout_stream_per_molecule(self, monkeypatch):
        # molecules at the same position of different batches must not
        # share a dropout stream
        seeds = []
        forward = GeoGNN.forward

        def recording(self, graph, encoded, mode="eval", rng=None):
            if mode == "train":
                seeds.extend(r.seed for r in rng)
            return forward(self, graph, encoded, mode=mode, rng=rng)

        monkeypatch.setattr(GeoGNN, "forward", recording)
        split = DatasetSplit.from_tags(tiny_dataset(12, seed=25, with_splits=False))
        finetune(split, TINY_MODEL, RunConfig(epochs=1, batch_size=4, seed=26))
        assert len(seeds) == 12
        assert len(set(seeds)) == 12

    @pytest.mark.parametrize("metric, task_type", [
        ("rmse", "regression"), ("mae", "regression"), ("rocauc", "classification"),
    ])
    def test_task_type_follows_the_metric(self, metric, task_type):
        assert RunConfig(metric=metric).validate().task_type == task_type
        assert RunConfig(metric=metric, task_type=task_type).validate().task_type == task_type

    def test_metric_task_type_consistency_enforced(self):
        with pytest.raises(ConfigError):
            RunConfig(task_type="regression", metric="rocauc").validate()
        with pytest.raises(ConfigError):
            RunConfig(task_type="classification", metric="rmse").validate()

    def test_report_is_deterministic(self):
        mols = tiny_dataset(10, seed=15)
        split = DatasetSplit.from_tags(mols)
        run = RunConfig(epochs=3, batch_size=4, seed=16)
        a = finetune(split, TINY_MODEL, run).report
        b = finetune(split, TINY_MODEL, run).report
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_finetune_from_pretrained_store(self):
        mols = tiny_dataset(10, seed=17, with_splits=False)
        pre = pretrain(mols, TINY_MODEL, RunConfig(epochs=2, batch_size=4, seed=18))
        split = DatasetSplit.from_tags(tiny_dataset(10, seed=19))
        run = RunConfig(epochs=2, batch_size=4, seed=20)
        result = finetune(split, TINY_MODEL, run, init_store=pre.store)
        assert result.report["selected_epoch"] >= 1

    def test_pretrained_fingerprint_head_is_left_behind(self, tmp_path):
        """Finetuning keeps a checkpoint's body and drops its fingerprint head,
        whatever width the given config has for it."""
        mols = tiny_dataset(10, seed=29)
        for i, m in enumerate(mols):
            m.fingerprint = [(i >> k) & 1 for k in range(4)]
        pre = pretrain(mols, TINY_MODEL, RunConfig(epochs=1, batch_size=4, seed=30,
                                                   tasks=("length", "fingerprint")))
        assert pre.store["head_fp.l1.w"].shape == (TINY_MODEL.hidden, 4)
        config = dataclasses.replace(TINY_MODEL, fingerprint_bits=4)
        result = finetune(DatasetSplit.from_tags(mols), config, RunConfig(epochs=0, seed=31),
                          init_store=pre.store, out_dir=tmp_path)
        from geognn.checkpoint import load_checkpoint

        store, saved, _, _ = load_checkpoint(tmp_path / "finetune_best.ckpt")
        assert saved.fingerprint_bits == 0 == result.model_config.fingerprint_bits
        assert result.report["config"]["model"]["fingerprint_bits"] == 0
        assert not [n for n in store.names() if n.startswith("head_fp.")]
        body = [n for n in pre.store.names() if not n.startswith("head_fp.")]
        assert body == [n for n in store.names() if not n.startswith("head_down.")]
        for name in body:
            assert np.array_equal(store[name].data, pre.store[name].data)

    @pytest.mark.parametrize("blocks, first", [
        (1, "block1.bond.mlp1.w: checkpoint none, model (8, 8)"),
        (3, "block2.bond.mlp1.w: checkpoint (8, 8), model none"),
    ], ids=["fewer", "more"])
    def test_store_of_other_blocks_is_a_config_error(self, blocks, first):
        """A store fits the model block for block: finetuning neither draws
        the blocks it lacks nor drops the ones beyond the model's."""
        config = dataclasses.replace(TINY_MODEL, num_blocks=blocks, num_tasks=0)
        store = GeoGNN(config, rng=Rng(35)).store
        split = DatasetSplit.from_tags(tiny_dataset(10, seed=36))
        with pytest.raises(ConfigError, match=re.escape(f"parameter {first} (num_blocks=2, ")):
            finetune(split, TINY_MODEL, RunConfig(epochs=1, seed=37), init_store=store)

    def test_best_store_is_a_snapshot_of_its_epoch(self):
        # epoch 2 is the best of 3, so the live buffer moves on after it
        split = DatasetSplit.from_tags(tiny_dataset(15, seed=40))
        run = RunConfig(epochs=3, batch_size=4, lr_body=3e-2, lr_head=5e-2, seed=0)
        result = finetune(split, TINY_MODEL, run)
        best = result.report["selected_epoch"]
        assert best == 2
        rerun = finetune(split, TINY_MODEL, dataclasses.replace(run, epochs=best))
        assert rerun.report["selected_epoch"] == best
        assert np.array_equal(result.store.flat, rerun.store.flat)

    def test_zero_epochs_return_the_untrained_store(self):
        split = DatasetSplit.from_tags(tiny_dataset(10, seed=41))
        result = finetune(split, TINY_MODEL, RunConfig(epochs=0, seed=5))
        assert result.report["selected_epoch"] == 0
        init = GeoGNN(TINY_MODEL, rng=Rng(5)).store
        assert result.store.names() == init.names()
        assert np.array_equal(result.store.flat, init.flat)


@pytest.mark.parametrize("phase", ["pretrain", "finetune"])
def test_failed_step_names_its_epoch_and_batch(monkeypatch, phase):
    monkeypatch.setattr(training, "GeoGNN", overflowing_model)
    mols = tiny_dataset(10, seed=33)
    run = RunConfig(epochs=2, batch_size=4, seed=34)
    with pytest.raises(NumericalError) as err:
        if phase == "pretrain":
            pretrain(mols, TINY_MODEL, run)
        else:
            finetune(DatasetSplit.from_tags(mols), TINY_MODEL, run)
    assert str(err.value).startswith("epoch 1, batch 1: block 0: non-finite values")


class TestFloat32:
    def test_f32_steps_scatter_and_grad_in_f32(self, monkeypatch):
        # every scatter-add and every parameter gradient of one f32 pretrain
        # step (all four tasks) and one f32 finetune step
        dtypes = []
        scatter, step = tensor._scatter_add, training.adam_step

        def recording_scatter(values, ids, num_out, dtype):
            out = scatter(values, ids, num_out, dtype)
            dtypes.extend((values.dtype, out.dtype))
            return out

        def recording_step(store, *args, **kwargs):
            dtypes.extend(t.grad.dtype for _, t in store.items() if t.grad is not None)
            return step(store, *args, **kwargs)

        monkeypatch.setattr(tensor, "_scatter_add", recording_scatter)
        monkeypatch.setattr(training, "adam_step", recording_step)
        config = dataclasses.replace(TINY_MODEL, precision="f32", dropout=0.2, fingerprint_bits=3)
        mols = tiny_dataset(4, seed=30, with_splits=False)
        for i, m in enumerate(mols[:2]):
            m.fingerprint = [1, i, 0]
        tasks = ("length", "angle", "distance", "fingerprint")
        pretrain(mols, config, RunConfig(epochs=1, batch_size=4, seed=31, tasks=tasks))
        pretrain_count = len(dtypes)
        finetune(DatasetSplit.from_tags(mols), config, RunConfig(epochs=1, batch_size=4, seed=32))
        assert 0 < pretrain_count < len(dtypes)
        assert {np.dtype(d).name for d in dtypes} == {"float32"}


class TestEvaluate:
    def test_matches_finetune_test_metric(self):
        mols = tiny_dataset(12, seed=21)
        split = DatasetSplit.from_tags(mols)
        run = RunConfig(epochs=3, batch_size=6, seed=22)
        result = finetune(split, TINY_MODEL, run)
        report = evaluate(
            result.store, result.model_config, split.test, "rmse",
            names=result.report["task_names"],
        )
        assert report["value"] == result.report["test_metric"]

    def test_classification_metric_on_regression_shapes(self):
        mols = tiny_dataset(6, seed=23)
        result = finetune(
            DatasetSplit.from_tags(mols), TINY_MODEL, RunConfig(epochs=1, batch_size=4, seed=24)
        )
        with pytest.raises((ConfigError, DataError)):
            evaluate(result.store, result.model_config, mols, "rocauc")
