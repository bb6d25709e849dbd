"""Per-layer spans, recorded from outside the library.

:func:`install` wraps the public entry points of ``simulation``,
``mobility``, ``geometry``, ``protocols``, ``core`` and ``network`` (and
the objects they return) with span recorders; :meth:`Patches.restore`
undoes every wrap.  Nothing in the library is edited: a module-level
function is rebound in every ``repro`` module that imported it, two class
methods are replaced on their class, and the methods of objects built
inside a traced unit are replaced on the instance (which is dropped with
the unit's results).

Spans live in memory as ``[name, start, end, parent]`` rows and are
written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: Root span of one timed unit; its self time is the named residual.
UNIT = "bench.unit"


class Tracer:
    """In-memory span and counter store."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(float)
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> float:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self.spans[index][2] = end
        return end

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def add_span(self, name: str, start: float, end: float, parent: int) -> None:
        """Record an already-finished interval as a child of ``parent``."""
        self.spans.append([name, start, end, parent])

    def timed(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, args, kwargs)`` runs
        once the span is closed (for counters and wrapping the result)."""

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


class Patches:
    """Attribute replacements, undone in reverse order by :meth:`restore`."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__.get(name, _MISSING)))
        setattr(owner, name, value)

    def rebind(self, module, name: str, wrapper) -> None:
        """Replace ``module.name`` everywhere a ``repro`` module bound it."""
        original = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and mod.__dict__.get(name) is original:
                self.set(mod, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)


_MISSING = object()


def install(tracer: Tracer) -> Patches:
    """Wrap the library's entry points; returns the undo record.

    Every module whose functions are wrapped must already be imported
    (the workload set-up imports them), so each binding is found.
    """
    # By module path: a package may re-export a function under a
    # submodule's name (``repro.simulation.sweep`` is also a function).
    core_flooding, connectivity, batch, runner, sweep = (
        importlib.import_module(f"repro.{path}")
        for path in (
            "core.flooding", "network.connectivity", "simulation.batch",
            "simulation.runner", "simulation.sweep",
        )
    )
    from repro.simulation.checkpoint import SweepCheckpoint

    patches = Patches()
    count = tracer.counters
    last_loop_end = [None]

    def model_built(model, args, kwargs):
        n = model.n

        def stepped(_result, _args, step_kwargs):
            active = step_kwargs.get("active")
            replicas = model.batch_size if active is None else int(np.count_nonzero(active))
            count["mobility.step_calls"] += 1
            count["mobility.agent_steps"] += replicas * n

        model.step = tracer.timed("mobility.step", model.step, stepped)

    def state_built(state, args, kwargs):
        def any_within_done(hits, aw_args, _kwargs):
            source_mask, query_mask = aw_args[0], aw_args[1]
            count["geometry.any_within_calls"] += 1
            count["geometry.sources"] += int(np.count_nonzero(source_mask))
            count["geometry.queries"] += int(np.count_nonzero(query_mask))
            count["geometry.hits"] += int(np.count_nonzero(hits))

        def bound(snapshot, _args, _kwargs):
            snapshot.any_within = tracer.timed(
                "geometry.any_within", snapshot.any_within, any_within_done
            )

        def stepped(newly, _args, _kwargs):
            count["protocols.newly_informed"] += int(np.count_nonzero(newly))

        state.query.bind = tracer.timed("geometry.bind", state.query.bind, bound)
        state.step = tracer.timed("protocols.step", state.step, stepped)

    def looped(n_steps, _args, _kwargs):
        last_loop_end[0] = time.perf_counter()
        lock = int(n_steps.max())
        count["simulation.lock_steps"] += lock
        count["simulation.replica_steps"] += int(n_steps.sum())
        count["simulation.replica_slots"] += lock * n_steps.size

    original_batch = batch.run_protocol_batch

    def run_batch(*args, **kwargs):
        index = tracer.open("simulation.batch")
        last_loop_end[0] = None
        try:
            results = original_batch(*args, **kwargs)
        finally:
            end = tracer.close(index)
        if last_loop_end[0] is not None:
            # Result assembly: everything after the lock-step loop returns.
            tracer.add_span("simulation.assembly", last_loop_end[0], end, index)
        return results

    def flooding_done(_result, _args, _kwargs):
        count["simulation.run_flooding_calls"] += 1

    def checkpoint_done(_result, _args, _kwargs):
        count["simulation.checkpoint_writes"] += 1

    patches.rebind(batch, "run_protocol_batch", run_batch)
    patches.set(
        batch.BatchSimulation, "run",
        tracer.timed("simulation.loop", batch.BatchSimulation.run, looped),
    )
    patches.rebind(
        batch, "build_batch_model",
        tracer.timed("mobility.init", batch.build_batch_model, model_built),
    )
    patches.rebind(
        batch, "build_batch_state",
        tracer.timed("protocols.init", batch.build_batch_state, state_built),
    )
    patches.rebind(
        core_flooding, "select_source",
        tracer.timed("core.select_source", core_flooding.select_source),
    )
    patches.rebind(
        core_flooding, "build_zone_partition",
        tracer.timed("core.zones_init", core_flooding.build_zone_partition),
    )
    patches.rebind(
        runner, "run_flooding",
        tracer.timed("simulation.run_flooding", runner.run_flooding, flooding_done),
    )
    patches.rebind(sweep, "run_sweep", tracer.timed("simulation.run_sweep", sweep.run_sweep))
    patches.set(
        SweepCheckpoint, "write_group",
        tracer.timed("simulation.checkpoint_write", SweepCheckpoint.write_group, checkpoint_done),
    )
    for name in connectivity.__all__:
        patches.rebind(
            connectivity, name, tracer.timed("network.connectivity", getattr(connectivity, name))
        )
    return patches


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def self_times(spans: list, root: int) -> dict:
    """Self time per span name over the subtree of ``root``.

    A span's self time is its duration minus the durations of its direct
    children, so the values sum to the root's duration.
    """
    members = _subtree(spans, root)
    child_time = defaultdict(float)
    for i in members:
        if i != root:
            name, start, end, parent = spans[i]
            child_time[parent] += end - start
    out = defaultdict(float)
    for i in members:
        name, start, end, _parent = spans[i]
        out[name] += (end - start) - child_time[i]
    return dict(out)


def inclusive_times(spans: list, root: int) -> dict:
    """Wall time per span name over the subtree of ``root``, counting only
    the outermost span of each name (a nested same-named call is not
    counted twice)."""
    members = _subtree(spans, root)
    out = defaultdict(float)
    for i in members:
        name, start, end, parent = spans[i]
        ancestor = parent
        nested = False
        while ancestor != -1:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        if not nested:
            out[name] += end - start
    return dict(out)


def _subtree(spans: list, root: int) -> list:
    # Children are always recorded after their parent, except synthetic
    # spans added on close, which still come after the parent row.
    inside = {root}
    members = [root]
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
            members.append(i)
    return members
