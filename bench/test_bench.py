"""Tests of the benchmark itself, on tiny workloads.

    python3 -m pytest bench

They are not part of the repository's test suite (``tests/``): each one
starts the benchmark in fresh processes and takes a few seconds.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER  # noqa: E402
from workloads import (  # noqa: E402
    MALFORMED_KINDS,
    WORKLOADS,
    corrupt,
    generate,
    import_geognn,
    plan_for,
    random_molecules,
    sdf_record,
    write_sdf,
)

g = import_geognn(ROOT)


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, seed: int = 3, repeat: int = 0, cwd: Path = ROOT):
    """(exit code, stdout lines) of one tiny run; ``repeat`` makes a second run."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result_and_info(workload: str, trace: int, repeat: int = 0):
    code, lines = bench(workload, trace, repeat=repeat)
    assert code == 0, lines
    return json.loads(lines[-1]), json.loads(lines[-2])["bench"]


def test_sdf_writer_round_trips():
    mols = random_molecules(g, g.rng.Rng(7), 4, 20, 60, "rt")
    data, _ = write_sdf([sdf_record(m) for m in mols])
    back = g.molio.parse_sdf(data)
    assert [m.id for m in back] == [m.id for m in mols]
    for a, b in zip(mols, back):
        assert [x.element for x in a.atoms] == [x.element for x in b.atoms]
        bonds = [[(x.a, x.b, x.bond_type) for x in m.bonds] for m in (a, b)]
        assert bonds[0] == bonds[1]
        for p, q in zip(a.coords, b.coords):
            assert max(abs(u - v) for u, v in zip(p, q)) <= 5e-5


@pytest.mark.parametrize("kind", MALFORMED_KINDS)
def test_each_malformed_kind_is_rejected_once(kind):
    good, source, after = random_molecules(g, g.rng.Rng(8), 3, 20, 60, "mk")
    records = [sdf_record(good), corrupt(sdf_record(source), kind), sdf_record(after)]
    data, spans = write_sdf(records)
    mols, errors = g.molio.parse_sdf_lenient(data)
    assert [m.id for m in mols] == [good.id, after.id]
    assert len(errors) == 1
    lo, hi = spans[1]
    assert lo <= errors[0].line <= hi


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, name):
        generate(g, plan_for("ingest-embed", seed, tiny=True), tmp_path / name)
        return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a")["records.sdf"] != files(6, "c")["records.sdf"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_ingest_accounting_counts_wrong_parses_as_failures(tmp_path):
    from worker import Ingest

    plan = plan_for("ingest-embed", 4, tiny=True)
    generate(g, plan, tmp_path)
    runner = Ingest(g, tmp_path, plan)
    molecules, errors, rows = runner.call()
    assert runner.check((molecules, errors, rows)).failed == 0
    # a good record rejected: one molecule, and its embedding, missing
    dropped = runner.check((molecules[1:], errors, rows[1:]))
    assert dropped.failed == 1 and dropped.problems
    # a malformed record accepted: one ParseError fewer, one foreign id more
    intruder = g.molio.parse_sdf(b"\n".join(l.encode() for l in sdf_record(molecules[0])))[0]
    intruder.id = "bad-accepted"
    accepted = runner.check((molecules + [intruder], errors[1:], rows))
    assert accepted.failed == 1 and accepted.problems


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, info = result_and_info(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["env"]["blas_threads"] in (1, "unknown")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_with_the_same_outputs(workload):
    result, info = result_and_info(workload, 1)
    _, plain_info = result_and_info(workload, 0)
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER
    assert (info["final_loss"], info["digest"]) == (plain_info["final_loss"], plain_info["digest"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0.0 < metrics["trace.coverage"] <= 1.0
    expected_rejected = len(MALFORMED_KINDS) if workload == "ingest-embed" else 0
    assert metrics["molio.parse.rejected"] == expected_rejected
    assert (metrics["tensor.tape_ops_per_mol"] > 0) == (workload != "ingest-embed")


def test_a_seed_repeats_its_outputs_and_counts():
    first, first_info = result_and_info("pretrain-geo", 1)
    second, second_info = result_and_info("pretrain-geo", 1, repeat=1)
    assert first_info["final_loss"] == second_info["final_loss"]
    assert first_info["digest"] == second_info["digest"]
    for name in ("tensor.tape_ops_per_mol", "molio.parse.rejected"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("pretrain-geo", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
