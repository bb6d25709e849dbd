"""The benchmark's workloads: inputs generated from the seed, timed units,
and the correctness checks of each unit.

A *unit* is what one timing sample measures: one 32-trial flooding batch
(``canonical``, ``long-horizon``) or one pass over every registered
experiment at quick scale (``paper-tables``).  The library receives only
the configurations built here.
"""

from __future__ import annotations

import contextlib
import shutil
import sys
import time
import traceback

import numpy as np

import gate

FLOODING = {
    "canonical": {"n": 2000, "trials": 32, "radius_factor": 1.0, "kernels": "auto"},
    "long-horizon": {"n": 2000, "trials": 32, "radius_factor": 0.5, "kernels": "numpy"},
}
DEFAULT_SEEDS = {"canonical": 42, "long-horizon": 42, "paper-tables": 0}

#: Trials per run replayed through the scalar reference, drawn from the
#: first ``ORACLE_UNITS`` timed units.
ORACLE_SAMPLE = 8
ORACLE_UNITS = 4


def unit_seed(seed: int, index: int) -> int:
    """Config seed of unit ``index`` (``-1`` is the warm-up unit)."""
    return int(np.random.SeedSequence([seed, index + 1]).generate_state(1)[0])


def make(name: str, seed: int, work_dir):
    if name in FLOODING:
        return FloodingWorkload(name, seed)
    if name == "paper-tables":
        return TablesWorkload(seed, work_dir)
    raise KeyError(f"unknown workload {name!r}; known: {sorted(DEFAULT_SEEDS)}")


def _load_kernels(tier: str) -> None:
    """Resolve the kernel tier and load its provider (from the warm build cache)."""
    from repro.kernels import provider_kernels, resolve_kernel_tier

    if resolve_kernel_tier(tier) == "compiled":
        provider_kernels()


class FloodingWorkload:
    """MRWP flooding with zone tracking on the batch engine, ``L = sqrt n``."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.params = FLOODING[name]
        self.kernels = self.params["kernels"]
        self.items_per_unit = self.params["trials"]
        self._oracle_picks = None
        self._kept = []  # (config, trial index, result) for the oracle replay

    def setup(self) -> dict:
        """Imports, kernel load and config construction; phase times in s."""
        t0 = time.perf_counter()
        import repro.simulation.batch  # noqa: F401
        from repro.simulation.runner import run_trials  # noqa: F401

        t1 = time.perf_counter()
        _load_kernels(self.kernels)
        t2 = time.perf_counter()
        self.config(0)
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(ORACLE_UNITS * self.items_per_unit, ORACLE_SAMPLE, replace=False)
        self._oracle_picks = {divmod(int(p), self.items_per_unit) for p in picks}
        t3 = time.perf_counter()
        return {"imports_s": t1 - t0, "kernels.load_s": t2 - t1, "configs_s": t3 - t2}

    def config(self, index: int):
        from repro.simulation.config import standard_config

        return standard_config(
            self.params["n"],
            radius_factor=self.params["radius_factor"],
            seed=unit_seed(self.seed, index),
            mobility="mrwp",
            protocol="flooding",
            track_zones=True,
            engine="batch",
            kernels=self.kernels,
        )

    def run_unit(self, index: int, clock, tracer=None):
        """One batch: ``(wall s, normalized s, outcome)``; the outcome is
        ``(config, results)`` or the exception text."""
        from repro.simulation.runner import run_trials

        config = self.config(index)
        start = time.perf_counter()
        try:
            outcome = config, run_trials(config, self.items_per_unit)
        except Exception:
            outcome = traceback.format_exc()
        wall = time.perf_counter() - start
        return wall, clock.normalize(wall), outcome

    def check_unit(self, index: int, outcome) -> tuple:
        """``(attempted, failed, problems, shape checks failed)`` of one
        unit (untimed)."""
        trials = self.items_per_unit
        if isinstance(outcome, str):
            return trials, trials, [f"unit {index} raised:\n{outcome}"], 0
        config, results = outcome
        problems = []
        failed = 0
        if len(results) != trials:
            problems.append(f"unit {index}: {len(results)} results for {trials} trials")
            failed += trials - len(results)
        for t, result in enumerate(results):
            found = gate.trial_problems(result, config.n)
            if found:
                failed += 1
                problems.append(f"unit {index} trial {t}: {'; '.join(found)}")
            elif (index, t) in self._oracle_picks:
                self._kept.append((config, t, result))
        return trials, failed, problems, 0

    def finish(self) -> tuple:
        """Replay the sampled trials through the scalar reference (untimed):
        ``(failed, problems, replayed)``.

        Replayed trials are already counted in ``attempted``; a mismatch
        adds a failure.
        """
        failed = 0
        problems = []
        for config, t, result in self._kept:
            reference = gate.replay_scalar(config, self.items_per_unit, t)
            diff = gate.result_mismatches(result, reference)
            if diff:
                failed += 1
                problems.append(f"seed {config.seed} trial {t} differs from scalar: {diff}")
        return failed, problems, len(self._kept)


class TablesWorkload:
    """Every registered experiment at quick scale, default engine routing,
    ``jobs=1``; sweep experiments that accept a checkpoint write one to a
    fresh directory on each pass.

    Passes cycle through the experiment seeds ``seed``, ``seed + 1`` and
    ``seed + 2`` (the warm-up pass takes ``seed``), so one run's times and
    peak memory cover three inputs (the ``connectivity`` experiment's peak
    memory alone varies by 30 MB from seed to seed), and every seed that
    comes round again has its tables compared with its first pass.
    """

    kernels = "auto"
    SEEDS_PER_RUN = 3

    def __init__(self, seed: int, work_dir):
        self.name = "paper-tables"
        self.seed = seed
        self.work_dir = work_dir
        self.specs = None
        self.items_per_unit = None
        self._digests = {}  # experiment seed -> {id: digest} of its first pass

    def pass_seed(self, index: int) -> int:
        """Experiment seed of pass ``index`` (``-1`` is the warm-up pass)."""
        return self.seed + (index + 1) % self.SEEDS_PER_RUN

    def setup(self) -> dict:
        t0 = time.perf_counter()
        from repro.experiments.registry import all_ids, get_spec

        self.specs = [get_spec(eid) for eid in all_ids()]
        t1 = time.perf_counter()
        _load_kernels(self.kernels)
        t2 = time.perf_counter()
        self.items_per_unit = len(self.specs)
        return {"imports_s": t1 - t0, "kernels.load_s": t2 - t1, "configs_s": 0.0}

    def run_unit(self, index: int, clock, tracer=None):
        """One pass: ``(wall s, normalized s, {id: result or exception
        text})``; each experiment is normalized on its own."""
        pass_dir = self.work_dir / f"pass{index}"
        seed = self.pass_seed(index)
        outcome = {}
        wall = norm = 0.0
        for spec in self.specs:
            kwargs = {}
            if spec.accepts_checkpoint:
                kwargs["checkpoint"] = str(pass_dir / spec.id)
            span = tracer.span(f"experiments.{spec.id}") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    outcome[spec.id] = spec.run(scale="quick", seed=seed, **kwargs)
            except Exception:
                outcome[spec.id] = traceback.format_exc()
            elapsed = time.perf_counter() - start
            wall += elapsed
            norm += clock.normalize(elapsed)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return wall, norm, outcome

    def check_unit(self, index: int, outcome) -> tuple:
        """An experiment fails if it raises or its table differs from the
        first pass of the same experiment seed.  Shape checks that read FAIL are returned
        as a count, not counted as failures (see README)."""
        problems = []
        failed = 0
        digests = {}
        for eid, result in outcome.items():
            if isinstance(result, str):
                failed += 1
                problems.append(f"pass {index} {eid} raised:\n{result}")
                continue
            digests[eid] = gate.table_digest(result)
        first = self._digests.setdefault(self.pass_seed(index), digests)
        for eid, digest in digests.items():
            if first.get(eid, digest) != digest:
                failed += 1
                problems.append(f"pass {index} {eid}: table differs from the first pass")
        fails = sorted(
            eid for eid, result in outcome.items()
            if not isinstance(result, str) and result.passed is False
        )
        if fails:
            print(f"pass {index}: shape check FAIL: {', '.join(fails)}", file=sys.stderr)
        return len(outcome), failed, problems, len(fails)

    def finish(self) -> tuple:
        return 0, [], 0
