"""Broadcast protocols: the paper's flooding plus baseline comparators.

Every protocol ships in two forms sharing one semantics: the scalar
:class:`BroadcastProtocol` (the reference, one run at a time) and a
:class:`BatchBroadcastState` subclass advancing ``B`` independent replicas
in lock-step with seed-for-seed parity (see
:mod:`repro.simulation.batch`).  The two registries below map protocol
names to the respective classes; they must stay key-identical so the batch
engine covers every protocol (asserted by the tests).
"""

from repro.protocols.base import (
    BatchBroadcastState,
    BroadcastProtocol,
    group_segments,
    sample_indices,
)
from repro.protocols.epidemic import BatchSIRState, SIREpidemic, validate_sir_options
from repro.protocols.faulty import (
    BatchCrashFaultState,
    CrashFaultFlooding,
    validate_crash_options,
)
from repro.protocols.flooding import (
    BatchFloodingState,
    FloodingProtocol,
    validate_flooding_options,
)
from repro.protocols.gossip import BatchGossipState, GossipProtocol, validate_gossip_options
from repro.protocols.parsimonious import (
    BatchParsimoniousState,
    ParsimoniousFlooding,
    validate_parsimonious_options,
)
from repro.protocols.probabilistic import (
    BatchProbabilisticState,
    ProbabilisticFlooding,
    validate_probabilistic_options,
)
from repro.protocols.pushpull import (
    BatchPushPullState,
    PushPullGossip,
    validate_pushpull_options,
)

PROTOCOL_REGISTRY = {
    "flooding": FloodingProtocol,
    "gossip": GossipProtocol,
    "push-pull": PushPullGossip,
    "parsimonious": ParsimoniousFlooding,
    "probabilistic": ProbabilisticFlooding,
    "sir": SIREpidemic,
    "crash-flooding": CrashFaultFlooding,
}
"""Name -> scalar class mapping used by the CLI and the baselines experiment."""

BATCH_PROTOCOL_REGISTRY = {
    "flooding": BatchFloodingState,
    "gossip": BatchGossipState,
    "push-pull": BatchPushPullState,
    "parsimonious": BatchParsimoniousState,
    "probabilistic": BatchProbabilisticState,
    "sir": BatchSIRState,
    "crash-flooding": BatchCrashFaultState,
}
"""Name -> batched state mapping; a protocol listed here runs under
``engine="batch"``, the default."""

PROTOCOL_VALIDATORS = {
    "flooding": validate_flooding_options,
    "gossip": validate_gossip_options,
    "push-pull": validate_pushpull_options,
    "parsimonious": validate_parsimonious_options,
    "probabilistic": validate_probabilistic_options,
    "sir": validate_sir_options,
    "crash-flooding": validate_crash_options,
}
"""The option checks both classes of a protocol run, keyed like
:data:`PROTOCOL_REGISTRY`; each validator's keyword parameters are the
protocol's option vocabulary.  :class:`~repro.simulation.config.FloodingConfig`
calls them, so invalid protocol options fail when the config is built."""

__all__ = [
    "BroadcastProtocol",
    "BatchBroadcastState",
    "group_segments",
    "sample_indices",
    "FloodingProtocol",
    "BatchFloodingState",
    "GossipProtocol",
    "BatchGossipState",
    "PushPullGossip",
    "BatchPushPullState",
    "ParsimoniousFlooding",
    "BatchParsimoniousState",
    "ProbabilisticFlooding",
    "BatchProbabilisticState",
    "SIREpidemic",
    "BatchSIRState",
    "CrashFaultFlooding",
    "BatchCrashFaultState",
    "PROTOCOL_REGISTRY",
    "BATCH_PROTOCOL_REGISTRY",
    "PROTOCOL_VALIDATORS",
]
