"""Correctness checks behind ``failed``.

* flooding trials: result invariants on every timed trial, and a seeded
  sample replayed untimed through the scalar reference engine
  (``run_flooding`` with ``kernels="numpy"``) and compared field by field;
* experiment tables: an experiment fails if it raises, or if its table
  digest differs from the one an earlier pass of the same seed produced.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

#: FloodingResult fields compared against the scalar reference.
FIELDS = (
    "flooding_time", "completed", "stalled", "n_steps", "informed_history", "source",
    "source_in_central_zone", "cz_completion_time", "suburb_completion_time",
    "final_coverage",
)
#: Extras that name the code path rather than the outcome.
PATH_EXTRAS = {"config", "kernel_tier", "observers"}


def trial_problems(result, n: int) -> list:
    """Invariants of one completed flooding trial."""
    problems = []
    history = np.asarray(result.informed_history)
    if not result.completed:
        problems.append("did not complete")
    if history.size != result.n_steps + 1:
        problems.append(f"history has {history.size} entries for {result.n_steps} steps")
    if history.size and (np.any(np.diff(history) < 0) or history[-1] != n):
        problems.append("history is not non-decreasing to n")
    reached = np.nonzero(history >= n)[0]
    first = float(reached[0]) if reached.size else math.inf
    if result.flooding_time != first:
        problems.append(f"flooding_time {result.flooding_time} != first step at n ({first})")
    return problems


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def result_mismatches(result, reference) -> list:
    """Fields (and outcome extras) in which ``result`` differs from ``reference``."""
    out = [name for name in FIELDS if not _same(getattr(result, name), getattr(reference, name))]
    keys = (set(result.extras) | set(reference.extras)) - PATH_EXTRAS
    out += [
        f"extras[{key}]" for key in sorted(keys)
        if not _same(result.extras.get(key), reference.extras.get(key))
    ]
    return out


def replay_scalar(config, n_trials: int, index: int):
    """Trial ``index`` of ``run_trials(config, n_trials)``, re-run on the
    scalar engine and the numpy kernel tier."""
    from repro.simulation.runner import run_flooding

    child = np.random.SeedSequence(config.seed).spawn(n_trials)[index]
    return run_flooding(config.with_options(engine="scalar", kernels="numpy"), seed_seq=child)


def table_digest(result) -> str:
    """Digest of an experiment's table, notes and verdict."""
    payload = [result.headers, result.rows, result.notes, result.passed]
    return hashlib.sha256(json.dumps(payload, default=repr).encode()).hexdigest()
