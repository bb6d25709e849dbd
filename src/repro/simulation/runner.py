"""Single-run and multi-trial flooding drivers.

:func:`run_trials` repeats a fully-specified
:class:`~repro.simulation.config.FloodingConfig` over independent seeds —
the workhorse behind every flooding experiment and benchmark — on the
batch engine.  :func:`run_flooding` executes one trial on the scalar
reference engine and returns a
:class:`~repro.simulation.results.FloodingResult`: the plain oracle the
parity tests and the benchmark's replay compare the batch engine against.
Parameter sweeps go through the sweep scheduler
(:func:`repro.simulation.sweep.run_sweep` with
:meth:`~repro.simulation.sweep.SweepPlan.over_parameter`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.flooding import build_zone_partition, select_source
from repro.kernels import kernel_tier_label, use_kernel_tier
from repro.mobility import MODEL_REGISTRY
from repro.protocols import PROTOCOL_REGISTRY, FloodingProtocol
from repro.simulation.config import FloodingConfig, mobility_arguments
from repro.simulation.engine import Simulation
from repro.simulation.metrics import InformedRecorder, ZoneRecorder
from repro.simulation.results import FloodingResult

__all__ = [
    "run_flooding",
    "run_trials",
    "build_model",
    "build_protocol",
    "mobility_arguments",
]

def build_model(config: FloodingConfig, rng: np.random.Generator):
    """Instantiate the mobility model named by the configuration."""
    if config.mobility not in MODEL_REGISTRY:
        raise ValueError(f"unknown mobility model {config.mobility!r}")
    args, kwargs = mobility_arguments(config)
    return MODEL_REGISTRY[config.mobility](config.n, config.side, *args, rng=rng, **kwargs)


def build_protocol(config: FloodingConfig, source: int, rng: np.random.Generator):
    """Instantiate the protocol named by the configuration."""
    if config.protocol not in PROTOCOL_REGISTRY:
        raise ValueError(f"unknown protocol {config.protocol!r}")
    cls = PROTOCOL_REGISTRY[config.protocol]
    options = dict(config.protocol_options)
    if cls is FloodingProtocol:
        options.setdefault("multi_hop", config.multi_hop)
    return cls(
        config.n,
        config.side,
        config.radius,
        source,
        rng=rng,
        **options,
    )


def run_flooding(
    config: FloodingConfig,
    seed_seq: np.random.SeedSequence = None,
    extra_observers=None,
) -> FloodingResult:
    """Execute one flooding run on the scalar reference engine.

    Args:
        config: the experiment parameters.
        seed_seq: optional externally supplied seed sequence (used by
            :func:`run_trials`); defaults to ``SeedSequence(config.seed)``.
        extra_observers: optional additional simulation observers (the
            :class:`~repro.simulation.engine.Simulation` observer
            protocol), appended after the built-in recorders and returned
            on ``result.extras["observers"]`` — the sweep scheduler's
            per-trial instrumentation hook.
    """
    root = seed_seq if seed_seq is not None else np.random.SeedSequence(config.seed)
    mobility_ss, protocol_ss, source_ss = root.spawn(3)
    model = build_model(config, np.random.default_rng(mobility_ss))
    positions = model.positions
    source = select_source(positions, config.side, config.source, np.random.default_rng(source_ss))
    protocol = build_protocol(config, source, np.random.default_rng(protocol_ss))

    observers = [InformedRecorder()]
    zones = None
    if config.track_zones:
        zones = build_zone_partition(
            config.n, config.side, config.radius, config.threshold_factor
        )
        if zones is not None:
            observers.append(ZoneRecorder(zones))
    extra = list(extra_observers) if extra_observers else []
    observers.extend(extra)

    simulation = Simulation(model, protocol, observers)
    # The configured kernel tier is active for the simulation loop only
    # (model/protocol construction above uses the library default), and is
    # bit-exact by contract — the tier changes speed, never results.
    with use_kernel_tier(config.kernels):
        n_steps = simulation.run(config.max_steps)

    informed_recorder = observers[0]
    history = informed_recorder.informed_history()
    completed = protocol.is_complete()
    if completed:
        hits = np.nonzero(history >= config.n)[0]
        # Fault models can complete without the counts reaching n (crashed
        # agents never get informed): the completion step is then the last
        # simulated step — the engine stops stepping once complete.
        flooding_time = float(hits[0]) if hits.size else float(n_steps)
    else:
        flooding_time = math.inf
    stalled = not completed and not protocol.can_progress()

    result = FloodingResult(
        flooding_time=flooding_time,
        completed=completed,
        stalled=stalled,
        n_steps=n_steps,
        informed_history=history,
        source=source,
        final_coverage=protocol.informed_count / config.n,
        extras={
            "n_agents": config.n,
            "config": config,
            "kernel_tier": kernel_tier_label(config.kernels),
        },
    )
    if extra:
        result.extras["observers"] = extra
    result.extras.update(protocol.final_metrics(model.positions, zones))
    if zones is not None:
        zone_recorder = observers[1]
        result.cz_completion_time = zone_recorder.cz_completion_time
        result.suburb_completion_time = zone_recorder.suburb_completion_time
        result.source_in_central_zone = bool(zones.in_central_zone(positions[source:source + 1])[0])
    return result


def run_trials(config: FloodingConfig, n_trials: int, stopping=None) -> list:
    """Run ``n_trials`` independent repetitions of a configuration.

    Trials derive their randomness from ``SeedSequence(config.seed)``; two
    calls with the same configuration produce identical results.  On the
    batch engine (the default) the trials are advanced in lock-step by
    :class:`~repro.simulation.batch.BatchSimulation` (in slices of
    ``config.batch_size`` trials, all at once when 0); ``engine="scalar"``
    runs the reference :func:`run_flooding` once per trial — same seed
    schedule, same results.

    Args:
        stopping: optional
            :class:`~repro.simulation.sweep.StoppingRule` — run trials
            sequentially and stop once the rule fires, treating
            ``n_trials`` as the fixed budget the rule's bounds resolve
            against.  The result is a bit-exact prefix of the fixed run.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    if stopping is not None:
        from repro.simulation.sweep import SweepPoint, run_sweep

        (point,) = run_sweep([SweepPoint(config, n_trials, stopping=stopping)])
        return point.results
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(n_trials)
    if config.engine == "batch":
        from repro.simulation.batch import run_protocol_batch

        size = config.batch_size if config.batch_size > 0 else n_trials
        out = []
        for start in range(0, n_trials, size):
            out.extend(run_protocol_batch(config, children[start:start + size]))
        return out
    return [run_flooding(config, seed_seq=child) for child in children]

