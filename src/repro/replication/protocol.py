"""The checkpoint wire protocol between primary and replica hosts.

The replication engine on the primary emits :class:`CheckpointMessage`
objects; the :class:`ReplicaSession` on the secondary validates epoch
ordering, applies the state payload to the replica VM shell, and
produces acknowledgements.  Keeping this as an explicit protocol layer
(rather than method calls between engines) mirrors the real system's
network protocol and gives failure injection a precise place to cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..hypervisor.base import Hypervisor
from ..vm.machine import VirtualMachine


class ProtocolError(Exception):
    """Checkpoint stream violated ordering or addressing rules."""


class FencedOut(ProtocolError):
    """A stale primary generation tried to write past a fencing token."""


@dataclass(frozen=True, order=True)
class FencingToken:
    """Split-brain fence installed by failover (generation + epoch).

    After failover promotes the replica, the session only accepts
    checkpoint traffic from generations >= ``generation``; a resurrected
    old primary (which still stamps the previous generation) is rejected
    with :class:`FencedOut` and must demote itself.
    """

    generation: int
    epoch: int


@dataclass
class CheckpointMessage:
    """One checkpoint's metadata + translated state payload."""

    vm_name: str
    epoch: int
    sent_at: float
    #: Whole pages covered by this checkpoint (rounded at the protocol
    #: boundary — the analytic dirty model produces expectations).
    dirty_pages: int
    memory_bytes: int
    state_payload: dict
    #: True for the seeding-final checkpoint that establishes the replica.
    initial: bool = False
    #: Replication is faithful: a guest whose OS has failed from within
    #: checkpoints its failed state onto the replica (Table 2).
    guest_os_failed: bool = False
    #: Primary generation stamped on every message; bumped by failover's
    #: fencing token so stale primaries are rejected (split-brain fence).
    generation: int = 0
    #: Optional :class:`~repro.integrity.digest.EpochAttestation` — the
    #: semantic digest of the pre-translation canonical state, shipped
    #: so the replica-side scrubber can audit what it actually holds.
    attestation: Optional[object] = None


@dataclass
class CheckpointAck:
    """Replica's acknowledgement of a checkpoint epoch."""

    vm_name: str
    epoch: int
    acked_at: float


class _StagedEpoch:
    """Receiver-side bookkeeping for one in-flight two-phase epoch."""

    __slots__ = ("epoch", "generation", "total_chunks", "valid")

    def __init__(self, epoch: int, generation: int, total_chunks: int):
        self.epoch = epoch
        self.generation = generation
        self.total_chunks = total_chunks
        self.valid: set = set()

    @property
    def complete(self) -> bool:
        return len(self.valid) >= self.total_chunks

    @property
    def missing(self) -> int:
        return self.total_chunks - len(self.valid)


class ReplicaSession:
    """Secondary-side endpoint of one VM's replication stream."""

    def __init__(self, hypervisor: Hypervisor, replica: VirtualMachine):
        self.hypervisor = hypervisor
        self.replica = replica
        self.last_applied_epoch: int = -1
        self.checkpoints_applied = 0
        self.bytes_received = 0.0
        #: Application log for diagnostics: (time, epoch, dirty_pages).
        self.apply_log: List = []
        self._last_payload: Optional[dict] = None
        self._last_attestation: Optional[object] = None
        #: Write version of the committed state: bumped by :meth:`apply`
        #: (and so :meth:`commit`) and :meth:`overwrite_payload`, the
        #: only writers of the payload and attestation.  The integrity
        #: auditor memoises its clean verdict per version.
        self.version = 0
        #: Set by the integrity scrubber on a digest mismatch; cleared
        #: when repair restores the committed state.  The failover
        #: controller refuses to promote a suspected replica.
        self.corruption_suspected: bool = False
        #: Terminal integrity verdict: the repair ladder was exhausted
        #: and this replica must never be promoted.
        self.quarantined: bool = False
        #: Split-brain fence; installed by failover, None until then.
        self.fence: Optional[FencingToken] = None
        self.fencing_rejections = 0
        #: Two-phase commit state (reliable transport only).
        self._staged: Optional[_StagedEpoch] = None
        self.chunks_staged = 0
        self.chunks_rejected = 0
        self.epochs_discarded = 0
        self.commits_duplicate = 0

    # -- fencing ------------------------------------------------------------
    def install_fence(self, token: Optional[FencingToken] = None) -> FencingToken:
        """Install (or bump) the split-brain fence; returns the token.

        Called by the failover controller when the replica is promoted:
        from then on only generations >= the token's are accepted, so a
        resurrected old primary's stale stream bounces off with
        :class:`FencedOut` instead of silently double-serving.
        """
        if token is None:
            generation = (self.fence.generation if self.fence else 0) + 1
            token = FencingToken(
                generation=generation, epoch=self.last_applied_epoch
            )
        self.fence = token
        self._staged = None  # anything half-staged predates the fence
        return token

    def _check_fence(self, generation: int) -> None:
        if self.fence is not None and generation < self.fence.generation:
            self.fencing_rejections += 1
            raise FencedOut(
                f"generation {generation} rejected: replica was promoted "
                f"under fencing token {self.fence}"
            )

    def apply(self, message: CheckpointMessage) -> CheckpointAck:
        """Validate and apply one checkpoint; returns the ack.

        Epochs must arrive in strictly increasing order — the primary
        never pipelines checkpoints in the ASR model.
        """
        self._check_fence(message.generation)
        if message.vm_name != self.replica.name:
            raise ProtocolError(
                f"checkpoint for {message.vm_name!r} reached session of "
                f"{self.replica.name!r}"
            )
        if message.epoch <= self.last_applied_epoch:
            raise ProtocolError(
                f"epoch {message.epoch} arrived after epoch "
                f"{self.last_applied_epoch} was already applied"
            )
        self.hypervisor.load_guest_state(self.replica, message.state_payload)
        self.replica.guest_os_failed = message.guest_os_failed
        self.last_applied_epoch = message.epoch
        self.checkpoints_applied += 1
        self.bytes_received += message.memory_bytes
        self._last_payload = message.state_payload
        self._last_attestation = message.attestation
        self.version += 1
        self.apply_log.append(
            (self.hypervisor.sim.now, message.epoch, message.dirty_pages)
        )
        return CheckpointAck(
            vm_name=message.vm_name,
            epoch=message.epoch,
            acked_at=self.hypervisor.sim.now,
        )

    # -- two-phase commit (reliable transport) -------------------------------
    def begin_epoch(
        self, epoch: int, total_chunks: int, generation: int = 0
    ) -> None:
        """Phase 1 start: announce an epoch of ``total_chunks`` chunks.

        A previously staged (torn) epoch is implicitly superseded — the
        replica's committed state is untouched either way.
        """
        self._check_fence(generation)
        if epoch <= self.last_applied_epoch:
            raise ProtocolError(
                f"epoch {epoch} staged after epoch "
                f"{self.last_applied_epoch} was already committed"
            )
        if total_chunks < 0:
            raise ProtocolError(f"negative chunk count: {total_chunks}")
        self._staged = _StagedEpoch(epoch, generation, total_chunks)

    def stage_chunk(self, epoch: int, index: int, valid: bool = True) -> bool:
        """Phase 1: receive one chunk; ``False`` means NACK (re-send).

        ``valid`` is the receiver-side checksum verdict; a corrupted
        chunk is counted and rejected, never staged.  Staging is
        idempotent per index, so retransmitted chunks are harmless.
        """
        staged = self._staged
        if staged is None or staged.epoch != epoch:
            raise ProtocolError(
                f"chunk {index} for epoch {epoch} arrived with no such "
                "epoch staged (begin_epoch first)"
            )
        if not 0 <= index < staged.total_chunks:
            raise ProtocolError(
                f"chunk index {index} outside epoch {epoch}'s "
                f"{staged.total_chunks} chunks"
            )
        if not valid:
            self.chunks_rejected += 1
            return False
        staged.valid.add(index)
        self.chunks_staged += 1
        return True

    def stage_chunks(self, epoch: int, indices: Sequence[int]) -> None:
        """Phase 1, batched: stage many checksum-valid chunks at once.

        Semantically identical to calling :meth:`stage_chunk` with
        ``valid=True`` for each index in order — same epoch guard,
        same bounds check, same counter and staging-set updates — but
        one call per delivery round instead of one per chunk.  The
        transport's array-batched round uses it for every chunk that
        survived the link verdicts.
        """
        if not indices:
            return
        staged = self._staged
        if staged is None or staged.epoch != epoch:
            raise ProtocolError(
                f"chunk {indices[0]} for epoch {epoch} arrived with no such "
                "epoch staged (begin_epoch first)"
            )
        lowest, highest = min(indices), max(indices)
        if lowest < 0 or highest >= staged.total_chunks:
            bad = lowest if lowest < 0 else highest
            raise ProtocolError(
                f"chunk index {bad} outside epoch {epoch}'s "
                f"{staged.total_chunks} chunks"
            )
        staged.valid.update(indices)
        self.chunks_staged += len(indices)

    def discard_epoch(self, epoch: Optional[int] = None) -> bool:
        """Torn-epoch rollback: drop the staged (uncommitted) epoch.

        The committed state — ``last_applied_epoch`` and the replica's
        loaded payload — is untouched: the backup always holds the last
        *fully committed* epoch.
        """
        staged = self._staged
        if staged is None or (epoch is not None and staged.epoch != epoch):
            return False
        self._staged = None
        self.epochs_discarded += 1
        return True

    def commit(self, message: CheckpointMessage) -> CheckpointAck:
        """Phase 2: commit a fully staged epoch (idempotent re-ack).

        A duplicate commit of the already-applied epoch (the primary
        retried because the ack was lost) returns a fresh ack instead
        of raising; a commit whose staged chunks are incomplete is a
        protocol violation — the transport must retransmit first.
        """
        self._check_fence(message.generation)
        if (
            message.epoch == self.last_applied_epoch
            and message.vm_name == self.replica.name
        ):
            self.commits_duplicate += 1
            return CheckpointAck(
                vm_name=message.vm_name,
                epoch=message.epoch,
                acked_at=self.hypervisor.sim.now,
            )
        staged = self._staged
        if (
            staged is not None
            and staged.epoch == message.epoch
            and not staged.complete
        ):
            raise ProtocolError(
                f"epoch {message.epoch} committed with {staged.missing} of "
                f"{staged.total_chunks} chunks missing — torn epochs must "
                "be retransmitted or discarded, never committed"
            )
        ack = self.apply(message)
        if staged is not None and staged.epoch == message.epoch:
            self._staged = None
        return ack

    @property
    def has_consistent_state(self) -> bool:
        """Whether the replica could be activated right now."""
        return self.last_applied_epoch >= 0

    @property
    def last_payload(self) -> Optional[dict]:
        return self._last_payload

    @property
    def last_attestation(self) -> Optional[object]:
        """Attestation shipped with the last committed epoch (integrity)."""
        return self._last_attestation

    def overwrite_payload(self, payload: dict) -> None:
        """Replace the committed state in place (same epoch).

        This is *not* a protocol step: the integrity machinery uses it
        to model replica-side rot landing on the committed state and to
        restore the pristine form when a repair rung succeeds.  The
        replica VM shell is reloaded so the corrupt (or repaired) state
        is exactly what a failover would activate.
        """
        self.hypervisor.load_guest_state(self.replica, payload)
        self._last_payload = payload
        self.version += 1
