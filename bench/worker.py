"""One measured process of the benchmark: set-up, warm-up, timed calls, checks.

    python3 bench/worker.py --work DIR --seconds S --trace 0|1 [--setup-only]

Reads the inputs that ``workloads.generate`` wrote to DIR and prints one
JSON object as its last stdout line. ``run.py`` starts this in fresh
processes, with BLAS pinned to one thread, and combines what they print.

Set-up is timed from before ``import geognn`` to the end of the
workload's one-off calls. Every timed call goes through geognn's public
entry points, and its outputs are checked after its clock stops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import tracing  # noqa: E402  (imports nothing from geognn or numpy)
from workloads import MODEL_SEED, Plan, import_geognn  # noqa: E402

CPUS = sorted(os.sched_getaffinity(0))

# Runs per second of reference_kernel on the 2-vCPU Xeon host the baseline
# in README.md was taken on. Every time the benchmark reports is scaled to
# this host speed; see reference_rate.
REF_RATE = 30.0


def reference_rate(np) -> float:
    """Runs per second of a fixed kernel, measured now, on this CPU.

    The kernel mixes small matrix products, scatter-adds, sorts and
    Python-level work, like geognn's hot path, and depends on nothing in
    geognn. On the shared host the benchmark was built on, everything ran
    up to 30% slower for tens of minutes at a time, and the kernel slowed
    with the program: over the 30-second blocks of a 4-minute ingest-embed
    run, raw throughput varied by 10% (coefficient of variation) and
    throughput divided by the kernel's rate by 1%."""
    x = np.linspace(0.0, 1.0, 24 * 32).reshape(24, 32)
    w = np.full((32, 32), 0.03)
    ids = np.arange(24) % 8
    start = time.perf_counter()
    for _ in range(1500):
        y = np.maximum(x @ w, 0.0)
        np.add.at(np.zeros((8, 32)), ids, y)
        x = y[np.lexsort((y[:, 0], ids))] * 0.5 + 0.1
        [j * j for j in range(60)]
    return 1.0 / (time.perf_counter() - start)


def pin(turn: int) -> None:
    """Pin this process to one of its CPUs, taking them in turn.

    On a shared host one CPU can be slowed by other tenants for seconds at
    a time; a run that stayed on it would read slow throughout. Taking the
    CPUs in turn spreads every run's samples evenly over them."""
    os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


@dataclass
class Check:
    """Outcome of one call: units failed, and the outputs to compare."""

    failed: int
    final_loss: float | None
    digest: str
    problems: list[str]


def load_checked(g, path: Path):
    """``load_checkpoint`` + ``check_manifest``, as the CLI's commands do."""
    store, config, manifest, _ = g.checkpoint.load_checkpoint(path)
    g.checkpoint.check_manifest(g.features.FeatureConfig(), manifest, str(path))
    return store, config


# Each workload's constructor is its set-up; ``call`` is one timed call and
# ``check`` inspects its outputs after the clock has stopped.


class Pretrain:
    """pretrain-geo: parse a JSONL corpus, then ``training.pretrain`` with
    one checkpoint per epoch, as the CLI does."""

    def __init__(self, g, work: Path, plan: Plan):
        self.g, self.plan = g, plan
        self.out = work / "pretrain_out"
        self.molecules = g.molio.parse_jsonl((work / "corpus.jsonl").read_bytes())

    def call(self):
        g, plan = self.g, self.plan
        run = g.training.RunConfig(
            epochs=plan.epochs, batch_size=plan.batch_size, seed=MODEL_SEED,
            tasks=("length", "angle", "distance"),
        )
        return g.training.pretrain(self.molecules, g.model.ModelConfig(), run, out_dir=self.out)

    def check(self, result) -> Check:
        problems = []
        for entry in result.history:
            if not _finite(*(v for k, v in entry.items() if k != "epoch")):
                problems.append(f"non-finite loss in epoch {entry['epoch']}")
        if len(result.checkpoint_paths) != self.plan.epochs + 1:
            problems.append(f"{len(result.checkpoint_paths)} checkpoints written")
        shapes = [(n, t.shape) for n, t in result.store.items()]
        for path in result.checkpoint_paths:
            store = self.g.checkpoint.load_checkpoint(path)[0]
            if [(n, t.shape) for n, t in store.items()] != shapes:
                problems.append(f"{Path(path).name} reloads with other names or shapes")
        digest = _digest(t.data for _, t in result.store.items())
        final = result.history[-1]["loss"]
        return Check(self.plan.units_per_call if problems else 0, final, digest, problems)


class Finetune:
    """finetune-small: parse tagged JSONL and load a checkpoint in set-up,
    then regression ``training.finetune`` from it, as the CLI does."""

    def __init__(self, g, work: Path, plan: Plan):
        self.g, self.plan = g, plan
        self.out = work / "finetune_out"
        molecules = g.molio.parse_jsonl((work / "tagged.jsonl").read_bytes())
        self.split = g.training.DatasetSplit.from_tags(molecules)
        self.store, self.config = load_checked(g, work / "model.ckpt")

    def call(self):
        g, plan = self.g, self.plan
        run = g.training.RunConfig(
            epochs=plan.epochs, batch_size=plan.batch_size, seed=MODEL_SEED,
            task_type="regression", metric="rmse",
        )
        return g.training.finetune(
            self.split, self.config, run, init_store=self.store, out_dir=self.out
        )

    def check(self, result) -> Check:
        report = result.report
        problems = []
        for entry in report["epochs"]:
            if not _finite(entry["train_loss"], entry["train_metric"], entry["valid_metric"]):
                problems.append(f"non-finite loss or metric in epoch {entry['epoch']}")
        if not _finite(report["test_metric"]):
            problems.append("non-finite test metric")
        digest = _digest(t.data for _, t in result.store.items())
        final = report["epochs"][-1]["train_loss"]
        return Check(self.plan.units_per_call if problems else 0, final, digest, problems)


class Ingest:
    """ingest-embed: load a checkpoint in set-up; each call parses SDF bytes
    leniently and embeds the accepted molecules."""

    def __init__(self, g, work: Path, plan: Plan):
        self.g, self.plan = g, plan
        self.path = work / "records.sdf"
        self.expect = json.loads((work / "expect.json").read_text())
        self.store, self.config = load_checked(g, work / "model.ckpt")

    def call(self):
        molecules, errors = self.g.molio.parse_sdf_lenient(self.path.read_bytes())
        rows = self.g.training.embed_molecules(self.store, self.config, molecules)
        return molecules, errors, rows

    def check(self, result) -> Check:
        molecules, errors, rows = result
        good = set(self.expect["good_ids"])
        bad = self.expect["malformed"]
        parsed = [m.id for m in molecules]
        problems = []
        accepted_bad = [i for i in parsed if i not in good]
        rejected_good = good - set(parsed)
        if accepted_bad:
            problems.append(f"malformed records accepted: {accepted_bad}")
        if rejected_good:
            problems.append(f"good records rejected: {sorted(rejected_good)}")
        if len(errors) != len(bad):
            problems.append(f"{len(errors)} ParseErrors for {len(bad)} malformed records")
        for err in errors:
            if not any(lo <= (err.line or 0) <= hi for lo, hi in (b["lines"] for b in bad)):
                problems.append(f"ParseError outside a malformed record: {err}")
        broken = [
            mol_id for mol_id, vec in rows
            if vec.shape != (self.config.hidden,) or not _finite(*vec.tolist())
        ]
        if broken:
            problems.append(f"non-finite embeddings: {broken}")
        if [mol_id for mol_id, _ in rows] != parsed:
            problems.append("embeddings are not in input order")
        failed = len(accepted_bad) + len(rejected_good) + len(broken)
        return Check(failed, None, _digest(vec for _, vec in rows), problems)

    def single_forward_gap(self, result, count: int = 4) -> float:
        """Largest gap between ``embed_molecules`` and a per-molecule eval
        forward pass, over the first ``count`` molecules."""
        molecules, _, rows = result
        g = self.g
        model = g.model.GeoGNN(self.config, store=self.store)
        items = g.training.prepare_molecules(molecules[:count], model.features, self.config.dtype)
        gap = 0.0
        for item, (_, vec) in zip(items, rows):
            ref = model.forward(item.graph, item.encoded, mode="eval").h_graph.data
            gap = max(gap, float(abs(ref - vec).max()))
        return gap

    def eval_loss(self, result) -> float:
        """Eval-mode pretraining loss of the loaded checkpoint on the accepted
        molecules: the ``final_loss`` of this workload."""
        g = self.g
        model = g.model.GeoGNN(self.config, store=self.store)
        items = g.training.prepare_molecules(result[0], model.features, self.config.dtype)
        rngs = [g.rng.Rng(MODEL_SEED).fork(f"eval{i}") for i in range(len(items))]
        loss, _ = g.pretrain.loss_pre(model, items, rngs, mode="eval")
        return loss.item()


RUNNERS = {"pretrain-geo": Pretrain, "finetune-small": Finetune, "ingest-embed": Ingest}


def blas_info(np) -> dict:
    """BLAS name, version and thread count of the numpy in this process."""
    import ctypes

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = "unknown"
    # numpy wheels bundle OpenBLAS here; the loaded library answers directly
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in libs.glob("libscipy_openblas*"):
        fn = getattr(ctypes.CDLL(str(lib_path)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            info["blas_threads"] = fn()
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu-turn", type=int, default=0, help="CPU to set up on, see pin()")
    args = parser.parse_args(argv)
    pin(args.cpu_turn)
    plan = Plan(**json.loads((args.work / "plan.json").read_text()))
    tracer = tracing.Tracer() if args.trace else None

    start = time.perf_counter()
    g = import_geognn(ROOT)
    if tracer is not None:
        tracer.install(g)
    runner = RUNNERS[plan.workload](g, args.work, plan)
    setup_s = time.perf_counter() - start
    import numpy as np

    setup = {"setup_s": setup_s, "ref_rate": reference_rate(np)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    if tracer is not None:
        tracer.uninstall()
        tracer.drain()

    out = {**setup, "env": blas_info(np), "problems": []}
    # warm-up: the first call is slower (allocator, caches); its outputs are
    # the reference every timed call must repeat bit for bit
    warm = runner.call()
    expected = runner.check(warm)
    out["problems"] += expected.problems
    out["digest"] = expected.digest
    if not isinstance(runner, Ingest):
        del warm

    # a traced run alternates untraced and traced calls, so that the median
    # untraced call, the base of trace.overhead, sees the same host as the
    # traced ones; each CPU gets one call of either kind in turn
    calls = []
    last_spans = []
    deadline = time.perf_counter() + args.seconds
    while not calls or time.perf_counter() < deadline or (tracer and len(calls) < 2):
        traced = tracer is not None and len(calls) % 2 == 1
        pin(len(calls) // 2 if tracer else len(calls))
        # the host's speed is sampled right before and after each call
        speed = reference_rate(np)
        if traced:
            tracer.install(g)
        root = tracer.wrap(runner.call, "bench.call") if traced else runner.call
        wall = time.perf_counter()
        try:
            result = root()
        except Exception:  # a failed call counts as failed units, the run goes on
            traceback.print_exc(file=sys.stderr)
            calls.append({"traced": traced, "failed": plan.units_per_call})
            out["problems"].append("a call raised")
            continue
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - wall
        speed = (speed + reference_rate(np)) / 2.0
        check = runner.check(result)
        if (check.digest, check.final_loss) != (expected.digest, expected.final_loss):
            check.problems.append("outputs differ from the warm-up call")
            check.failed = check.failed or plan.units_per_call
        out["problems"] += check.problems
        calls.append({"traced": traced, "wall_s": wall, "ref_rate": speed, "failed": check.failed})
        if traced:
            last_spans[:] = tracer.drain()

    if tracer is not None:
        out["per_layer"] = per_layer(tracer, calls, plan)
        write_trace(tracer, last_spans, plan, out)

    out["calls"] = calls
    # read before the ingest checks below, which hold a whole distance head
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["final_loss"] = expected.final_loss
    if isinstance(runner, Ingest):
        gap = runner.single_forward_gap(warm)
        out["single_forward_gap"] = gap
        if not gap <= 1e-9:
            out["problems"].append(f"embed_molecules differs from forward by {gap}")
        out["final_loss"] = runner.eval_loss(warm)
    print(json.dumps(out))
    return 0


def per_layer(tracer, calls, plan: Plan) -> dict:
    """Per-layer metrics of the traced calls; see README.md for definitions."""
    totals, counters = tracer.totals, tracer.counters
    traced = [c for c in calls if c["traced"] and "wall_s" in c]
    untraced = [c for c in calls if not c["traced"] and "wall_s" in c]
    units = plan.units_per_call * len(traced)
    # times are scaled to the reference host speed, like mol_per_s
    scale = statistics.median(c["ref_rate"] for c in traced) / REF_RATE

    def ms(name):
        return totals.get(name, [0, 0, 0])[1] / 1e6 * scale

    def calls_of(name):
        return totals.get(name, [0, 0, 0])[0]

    def mean_ms(name):
        return ms(name) / calls_of(name) if calls_of(name) else 0.0

    m = {}
    parses = calls_of("molio.parse")
    m["molio.parse.ms_per_mol"] = ms("molio.parse") / max(counters.get("molio.records", 0), 1)
    m["molio.parse.rejected"] = counters.get("molio.rejected", 0) / max(parses, 1)
    for name in (
        "geometry.build_dual_graph", "features.encode", "masking.mask_context",
        "rng.permutation", "pretrain.build_targets", "pretrain.loss_length",
        "pretrain.loss_angle", "pretrain.loss_distance", "model.forward.train",
        "model.forward.eval", "model.head_downstream", "tensor.backward",
    ):
        m[f"{name}.ms_per_mol"] = ms(name) / units
    m["training.prepare_molecules.ms"] = ms("training.prepare_molecules") / len(traced)
    m["tensor.tape_ops_per_mol"] = counters.get("tensor.tape_ops", 0) / units
    for op in tracing.NAMED_OPS:
        m[f"tensor.{op}.calls_per_mol"] = calls_of(f"tensor.{op}") / units
        m[f"tensor.{op}.ms_per_mol"] = ms(f"tensor.{op}") / units
    others = [f"tensor.{op}" for op in tracing.OTHER_OPS]
    m["tensor.other.calls_per_mol"] = sum(calls_of(name) for name in others) / units
    m["tensor.other.ms_per_mol"] = sum(ms(name) for name in others) / units
    m["training.adam_step.ms_per_step"] = mean_ms("training.adam_step")
    m["checkpoint.save_checkpoint.ms"] = mean_ms("checkpoint.save_checkpoint")
    saves = calls_of("checkpoint.save_checkpoint")
    m["checkpoint.save_checkpoint.bytes"] = counters.get("checkpoint.bytes", 0) / max(saves, 1)
    m["checkpoint.load_checkpoint.ms"] = mean_ms("checkpoint.load_checkpoint")
    _, root_ns, root_self_ns = totals["bench.call"]
    m["trace.coverage"] = 1.0 - root_self_ns / root_ns
    m["trace.overhead"] = (
        statistics.median(c["wall_s"] for c in traced)
        / statistics.median(c["wall_s"] for c in untraced) - 1.0
    )
    return m


def write_trace(tracer, last_spans, plan: Plan, out: dict) -> None:
    """Per-name totals of every traced span, plus the raw spans of the last call."""
    path = ROOT / ".bench_work" / "traces" / f"{plan.workload}-seed{plan.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": plan.workload,
        "seed": plan.seed,
        "env": out["env"],
        "totals": {
            name: {"calls": c, "total_ms": t / 1e6, "self_ms": s / 1e6}
            for name, (c, t, s) in sorted(tracer.totals.items())
        },
        "counters": tracer.counters,
        "names": tracer.names,
        "last_call_spans": last_spans,
    }
    path.write_text(json.dumps(doc) + "\n")
    out["trace_file"] = str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
