"""Tests of the benchmark itself: its spec, its correctness gate (with
planted mismatches that must fail), its span arithmetic and its refusals.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import provenance  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from repro.experiments.base import ExperimentResult  # noqa: E402
from repro.simulation.config import standard_config  # noqa: E402
from repro.simulation.runner import run_trials  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _tiny_config(seed=3, **changes):
    return standard_config(60, radius_factor=1.0, seed=seed, engine="batch",
                           kernels="numpy", **changes)


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------
def test_benchmark_json_is_generated_from_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.benchmark_json()


def test_spec_meets_the_benchmark_contract():
    doc = spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(doc)) < 64 * 1024


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_batch():
    config = _tiny_config()
    return config, run_trials(config, 4)


def test_batch_trials_pass_invariants_and_match_the_scalar_oracle(tiny_batch):
    config, results = tiny_batch
    for t, result in enumerate(results):
        assert gate.trial_problems(result, config.n) == []
        assert gate.result_mismatches(result, gate.replay_scalar(config, 4, t)) == []


def test_planted_oracle_mismatch_fails_the_gate(tiny_batch):
    config, results = tiny_batch
    planted = results[1]
    reference = gate.replay_scalar(config, 4, 1)
    planted_history = planted.informed_history.copy()
    planted_history[1] += 1
    tampered = type(planted)(**{**planted.__dict__, "informed_history": planted_history})
    assert gate.result_mismatches(tampered, reference) == ["informed_history"]
    # A different trial of the same batch is a mismatch on several fields.
    assert gate.result_mismatches(results[0], reference)


def test_planted_invariant_breaks_fail_the_gate(tiny_batch):
    config, results = tiny_batch
    result = results[2]
    late = type(result)(**{**result.__dict__, "flooding_time": result.flooding_time + 1})
    assert gate.trial_problems(late, config.n)
    history = result.informed_history.copy()
    history[-1] = config.n - 1
    short = type(result)(**{**result.__dict__, "informed_history": history})
    assert gate.trial_problems(short, config.n)
    stuck = type(result)(**{**result.__dict__, "completed": False, "flooding_time": math.inf})
    assert gate.trial_problems(stuck, config.n)


def test_flooding_unit_counts_a_planted_failure():
    workload = workloads.FloodingWorkload("canonical", seed=5)
    workload._oracle_picks = set()
    config, results = _tiny_config(), run_trials(_tiny_config(), 3)
    workload.items_per_unit = 3
    assert workload.check_unit(0, (config, results))[:2] == (3, 0)
    results[0].flooding_time += 1
    attempted, failed, problems, _shape = workload.check_unit(0, (config, results))
    assert (attempted, failed) == (3, 1) and "flooding_time" in problems[0]
    assert workload.check_unit(1, "Traceback: boom")[:2] == (3, 3)


def _table(rows, passed=True):
    return ExperimentResult("x", "t", "ref", ["a", "b"], rows, passed=passed)


def test_planted_table_difference_fails_the_gate():
    workload = workloads.TablesWorkload(seed=0, work_dir=None)
    cycle = workload.SEEDS_PER_RUN
    assert [workload.pass_seed(i) for i in range(-1, cycle + 1)] == [0, 1, 2, 0, 1]
    tables = {"x": _table([[1, 2.5]]), "y": _table([[0, 0]])}
    assert workload.check_unit(-1, tables)[:2] == (2, 0)
    # Pass 0 runs another seed: its tables differ and are not compared.
    assert workload.check_unit(0, {"x": _table([[7, 7]]), "y": _table([[0, 0]])})[:2] == (2, 0)
    assert workload.check_unit(cycle - 1, tables)[:2] == (2, 0)
    attempted, failed, problems, _ = workload.check_unit(
        2 * cycle - 1, {"x": _table([[1, 2.5000001]]), "y": _table([[0, 0]])}
    )
    assert (attempted, failed) == (2, 1) and "x: table differs" in problems[0]
    _a, failed, _p, shape = workload.check_unit(cycle, {"x": _table([[7, 7]]), "y": "Traceback"})
    assert failed == 1 and shape == 0
    # A shape check that reads FAIL is counted apart, not as a failure.
    workload._digests[0]["x"] = gate.table_digest(_table([[1, 2.5]], passed=False))
    _a, failed, _p, shape = workload.check_unit(cycle - 1, {"x": _table([[1, 2.5]], passed=False)})
    assert (failed, shape) == (0, 1)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_self_times_plus_residual_add_up_to_the_unit():
    spans = [
        ["bench.unit", 0.0, 10.0, -1],
        ["simulation.batch", 1.0, 9.0, 0],
        ["simulation.loop", 2.0, 7.0, 1],
        ["mobility.step", 2.5, 4.0, 2],
        ["simulation.batch", 4.0, 5.0, 2],  # nested same-name call
        ["simulation.assembly", 7.0, 9.0, 1],
    ]
    own = tracing.self_times(spans, 0)
    assert own == {"bench.unit": 2.0, "simulation.batch": 2.0, "simulation.loop": 2.5,
                   "mobility.step": 1.5, "simulation.assembly": 2.0}
    assert sum(own.values()) == 10.0
    assert tracing.inclusive_times(spans, 0)["simulation.batch"] == 8.0


def test_traced_batch_covers_each_layer_and_restores_the_library():
    import repro.simulation.batch as batch
    import repro.simulation.runner as runner

    originals = (batch.run_protocol_batch, batch.build_batch_model, batch.BatchSimulation.run,
                 runner.run_flooding, batch.select_source)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        with tracer.span(tracing.UNIT) as root:
            run_trials(_tiny_config(seed=8), 3)
    finally:
        patches.restore()
    assert (batch.run_protocol_batch, batch.build_batch_model, batch.BatchSimulation.run,
            runner.run_flooding, batch.select_source) == originals
    names = {span[0] for span in tracer.spans}
    assert {"simulation.batch", "mobility.init", "mobility.step", "protocols.step",
            "geometry.bind", "geometry.any_within", "core.select_source",
            "simulation.loop", "simulation.assembly"} <= names
    own = tracing.self_times(tracer.spans, root)
    wall = tracer.spans[root][2] - tracer.spans[root][1]
    assert abs(sum(own.values()) - wall) < 1e-9
    assert tracer.counters["geometry.queries"] >= tracer.counters["geometry.hits"] > 0
    assert tracer.counters["simulation.replica_steps"] > 0


# ----------------------------------------------------------------------
# Provenance and refusals
# ----------------------------------------------------------------------
def test_provenance_refuses_a_different_code_path():
    base = provenance.provenance("auto", ROOT)
    assert provenance.path_differences(base, dict(base)) == []
    fallback = dict(base, kernel_tier="numpy", kernel_provider="numpy")
    assert len(provenance.path_differences(base, fallback)) == 2


def test_compare_refuses_runs_of_different_tiers(tmp_path):
    base = {"workload": "canonical", "trace": 0, "metrics": {"setup_s": [0.3, "s"]},
            "provenance": {"kernel_tier": "compiled", "kernel_provider": "cext",
                           "neighbor_backend": "cells+kdtree"}}
    new = json.loads(json.dumps(base))
    new["provenance"]["kernel_tier"] = "numpy"
    (tmp_path / "a.json").write_text(json.dumps(base))
    (tmp_path / "b.json").write_text(json.dumps(new))
    cmd = [sys.executable, str(BENCH / "run.py"), "--compare",
           str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=60)
    assert proc.returncode == 3 and "kernel_tier" in proc.stderr
    same = subprocess.run(cmd[:-1] + [str(tmp_path / "a.json")], capture_output=True,
                          text=True, cwd=ROOT, timeout=60)
    assert same.returncode == 0 and "setup_s" in same.stdout


def test_benchmark_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "canonical", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_unit_seeds_depend_on_the_seed_only():
    assert workloads.unit_seed(7, 3) == workloads.unit_seed(7, 3)
    assert len({workloads.unit_seed(7, i) for i in range(-1, 50)}) == 51
    assert workloads.unit_seed(7, 0) != workloads.unit_seed(8, 0)
    assert np.iinfo(np.uint32).max >= workloads.unit_seed(7, 0) >= 0
