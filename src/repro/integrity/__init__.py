"""End-to-end checkpoint integrity: attestation, scrubbing, repair.

Wire checksums (PR 5) prove the checkpoint *bytes* survived the
network; this package proves the checkpoint *meaning* survived
heterogeneous translation, the replica's apply path, and time.  The
primary attests each epoch with a canonical semantic digest computed
on the pre-translation form; a background scrubber recomputes the
digest from the replica's post-translation state under a bandwidth
budget; detected corruption climbs a telemetry-priced repair ladder
(page re-fetch → incremental resync → full re-seed →
refuse-failover-and-alarm).  Everything is strictly opt-in via
``ReplicationConfig.integrity`` — disabled runs draw nothing, spend
nothing, and keep every fixed-seed fingerprint byte-identical.
"""

from .config import (
    ATTEST_COST_PER_DEVICE,
    ATTEST_COST_PER_VCPU,
    IntegrityConfig,
)
from .digest import (
    DIGEST_SIZE,
    EpochAttestation,
    attest_state,
    device_leaf,
    memory_leaf,
    merkle_root,
    meta_leaf,
    semantic_root,
    state_leaves,
    vcpu_leaf,
)
from .monitor import (
    REPLICA_BITROT,
    RUNG_SCOPES,
    TORN_APPLY,
    TRANSLATOR_DRIFT,
    CorruptionEvent,
    IntegrityMonitor,
)
from .repair import REPAIR_RUNGS, IntegrityRepairController
from .scrub import ReplicaScrubber
from .tally import IntegrityTally

__all__ = [
    "ATTEST_COST_PER_DEVICE",
    "ATTEST_COST_PER_VCPU",
    "DIGEST_SIZE",
    "EpochAttestation",
    "IntegrityConfig",
    "IntegrityMonitor",
    "IntegrityRepairController",
    "IntegrityTally",
    "CorruptionEvent",
    "REPAIR_RUNGS",
    "REPLICA_BITROT",
    "RUNG_SCOPES",
    "ReplicaScrubber",
    "TORN_APPLY",
    "TRANSLATOR_DRIFT",
    "attest_state",
    "device_leaf",
    "memory_leaf",
    "merkle_root",
    "meta_leaf",
    "semantic_root",
    "state_leaves",
    "vcpu_leaf",
]
