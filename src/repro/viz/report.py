"""Reproduction-report generation.

Runs (a subset of) the experiment suite and renders one markdown document —
the generator behind EXPERIMENTS.md, also exposed as
``repro-manhattan report``.
"""

from __future__ import annotations

import time

from repro.viz.tables import format_markdown_table

__all__ = ["generate_report", "write_report"]

_HEADER = """# EXPERIMENTS — measured reproduction results

Generated by ``repro-manhattan report`` (seed {seed}, scale ``{scale}``).
Each section regenerates one artifact of *Fast Flooding over Manhattan*
(Clementi-Monti-Silvestri, PODC 2010) and records the measured values next
to the paper's prediction.  The PASS/FAIL verdict is the experiment's
*shape check*: the qualitative claim (who wins, slopes, crossovers), not
the paper's explicitly un-optimized constants — see DESIGN.md.

| experiment | paper artifact | shape check |
|---|---|---|
{index_rows}
"""


def generate_report(scale: str = "quick", seed: int = 0, experiment_ids=None, jobs: int = 1) -> str:
    """Run experiments and render the full markdown report.

    ``jobs`` threads through to the sweep-scheduler experiments and is
    skipped for the rest.
    """
    # Imported lazily: the experiment framework itself renders tables via
    # repro.viz, so a module-level import here would be circular.
    from repro.experiments.registry import all_ids, get_spec

    ids = list(experiment_ids) if experiment_ids is not None else all_ids()
    results = []
    for experiment_id in ids:
        spec = get_spec(experiment_id)
        start = time.perf_counter()
        result = spec.run(scale=scale, seed=seed, jobs=jobs if spec.accepts_jobs else 1)
        results.append((result, time.perf_counter() - start))

    index_rows = "\n".join(
        f"| `{r.experiment_id}` | {r.paper_ref} | "
        f"{'PASS' if r.passed is True else 'FAIL' if r.passed is False else '—'} |"
        for r, _elapsed in results
    )
    parts = [_HEADER.format(seed=seed, scale=scale, index_rows=index_rows)]
    for result, elapsed in results:
        spec = get_spec(result.experiment_id)
        parts.append(f"\n## `{result.experiment_id}` — {result.title}\n")
        parts.append(f"*Paper artifact:* {result.paper_ref}.  {spec.description}\n")
        if result.rows:
            parts.append(format_markdown_table(result.headers, result.rows) + "\n")
        for name, artifact in result.artifacts.items():
            parts.append(f"**{name}:**\n\n```\n{artifact}\n```\n")
        if result.notes:
            parts.append("Notes: " + " ".join(result.notes) + "\n")
        verdict = "PASS" if result.passed is True else "FAIL" if result.passed is False else "—"
        parts.append(f"*Shape check:* **{verdict}** (ran in {elapsed:.1f}s).\n")
    return "\n".join(parts)


def write_report(
    path: str,
    scale: str = "quick",
    seed: int = 0,
    experiment_ids=None,
    jobs: int = 1,
) -> str:
    """Generate the report and write it to ``path``; returns the path."""
    report = generate_report(scale=scale, seed=seed, experiment_ids=experiment_ids, jobs=jobs)
    with open(path, "w") as handle:
        handle.write(report)
    return path
