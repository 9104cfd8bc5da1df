"""Benchmark of geognn on three seeded workloads.

    python3 bench/run.py --workload pretrain-geo --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src/``. The run

1. generates the workload's inputs from ``--seed`` (workloads.py) in
   ``.bench_work/`` at the checkout root,
2. starts ``SETUP_PROBES`` fresh processes that only set up, then one
   fresh process that sets up, warms up and times calls for ``--seconds``
   (worker.py), all with BLAS pinned to one thread,
3. prints a line with the run environment and raw samples, and as its
   last line one JSON object ``{"correct", "attempted", "failed",
   "metrics"}``: the end-to-end metrics with ``--trace 0``, the
   per-layer metrics of an outside-in traced run with ``--trace 1``.

It exits 1 if any output check fails and 2 if the checkout has no
geognn sources. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import NAMED_OPS  # noqa: E402
from worker import REF_RATE  # noqa: E402
from workloads import WORKLOADS, generate, import_geognn, plan_for  # noqa: E402

SETUP_PROBES = 6
CHILD_TIMEOUT_S = 150
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {"mol_per_s": "mol/s", "setup_s": "s", "peak_rss_mb": "MB", "final_loss": "loss"}

PER_LAYER = {
    "molio.parse.ms_per_mol": "ms/mol",
    "molio.parse.rejected": "count",
    "geometry.build_dual_graph.ms_per_mol": "ms/mol",
    "features.encode.ms_per_mol": "ms/mol",
    "training.prepare_molecules.ms": "ms",
    "masking.mask_context.ms_per_mol": "ms/mol",
    "rng.permutation.ms_per_mol": "ms/mol",
    "pretrain.build_targets.ms_per_mol": "ms/mol",
    "pretrain.loss_length.ms_per_mol": "ms/mol",
    "pretrain.loss_angle.ms_per_mol": "ms/mol",
    "pretrain.loss_distance.ms_per_mol": "ms/mol",
    "model.forward.train.ms_per_mol": "ms/mol",
    "model.forward.eval.ms_per_mol": "ms/mol",
    "model.head_downstream.ms_per_mol": "ms/mol",
    "tensor.backward.ms_per_mol": "ms/mol",
    "tensor.tape_ops_per_mol": "ops/mol",
    **{
        f"tensor.{op}.{kind}": unit
        for op in NAMED_OPS + ("other",)
        for kind, unit in (("calls_per_mol", "calls/mol"), ("ms_per_mol", "ms/mol"))
    },
    "training.adam_step.ms_per_step": "ms",
    "checkpoint.save_checkpoint.ms": "ms",
    "checkpoint.save_checkpoint.bytes": "B",
    "checkpoint.load_checkpoint.ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _child(args: list[str]) -> dict:
    """Run worker.py in a fresh process and return its last stdout line."""
    env = {**os.environ, **PINNED_ENV}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
    """Generate, run the probes and the worker; return (info, result)."""
    g = import_geognn(ROOT)
    plan = plan_for(workload, seed, tiny=tiny)
    work = ROOT / ".bench_work" / f"{workload}-seed{seed}-{os.getpid()}"
    try:
        generate(g, plan, work)
        # half the set-up probes run before the measuring process and half
        # after it, so that one slow stretch of the host does not hit them all
        def probe(turn: int) -> dict:
            return _child(["--work", str(work), "--setup-only", "--cpu-turn", str(turn)])

        half = SETUP_PROBES // 2
        probes = [probe(turn) for turn in range(half)]
        out = _child(["--work", str(work), "--seconds", str(seconds), "--trace", str(int(trace))])
        probes += [probe(turn) for turn in range(half, SETUP_PROBES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # every time is scaled to the reference host speed (worker.reference_rate)
    calls = out["calls"]
    timed = [c for c in calls if "wall_s" in c and not c["traced"]]
    raw_rates = [plan.units_per_call / c["wall_s"] for c in timed]
    rates = [r * REF_RATE / c["ref_rate"] for r, c in zip(raw_rates, timed)]
    setups = probes + [out]
    setup = [p["setup_s"] * p["ref_rate"] / REF_RATE for p in setups]
    failed = sum(c["failed"] for c in calls)
    correct = failed == 0 and not out["problems"]

    if trace:
        metrics = {name: out["per_layer"][name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = {
            "mol_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": out["peak_rss_mb"],
            "final_loss": out["final_loss"],
        }
        units = END_TO_END
    result = {
        "correct": correct,
        "attempted": plan.units_per_call * len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            **out["env"],
        },
        "units_per_call": plan.units_per_call,
        "calls": len(calls),
        "mol_per_s_samples": rates,
        "raw_mol_per_s_median": statistics.median(raw_rates) if raw_rates else None,
        "host_speed_median": statistics.median(c["ref_rate"] for c in timed) / REF_RATE
        if timed else None,
        "setup_s_samples": setup,
        "raw_setup_s_median": statistics.median(p["setup_s"] for p in setups),
        "final_loss": out["final_loss"],
        "digest": out["digest"],
        "problems": out["problems"],
        **({"trace_file": out["trace_file"]} if trace else {}),
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few molecules per workload, for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (FileNotFoundError, ImportError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, subprocess.TimeoutExpired, statistics.StatisticsError) as err:
        # a worker that crashed, hung, or had no call succeed
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"bench": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
