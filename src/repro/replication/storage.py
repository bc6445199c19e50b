"""Disk-write replication: the storage half of checkpointed FT.

Remus-style systems must keep the replica's *disk* consistent with the
replica's memory checkpoint, not with the primary's live disk: if the
replica resumed from checkpoint N against a disk containing writes
from epoch N+1, the guest filesystem would be corrupt.  The standard
design (Remus §disk, DRBD's protocol in Remus mode, also adopted by
HERE's PV ``vbd``/``virtio-blk`` path):

* every guest disk write is **streamed asynchronously** to the
  secondary as it happens (no extra pause work at checkpoints);
* the secondary holds the writes in a **speculative buffer** — they
  are *not* applied to the replica's disk image yet;
* when checkpoint N is acknowledged, a **barrier** tells the secondary
  to commit every buffered write from epoch ≤ N to the replica disk;
* on failover, uncommitted speculative writes are discarded — the
  replica's disk matches its memory checkpoint exactly.

The same epoch discipline as the egress buffer
(:mod:`repro.net.egress`) — applied to writes instead of packets, and
with commit-to-image instead of release-to-network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class DiskWrite:
    """One guest write as shipped to the secondary."""

    sequence: int
    epoch: int
    offset: int
    length: int
    issued_at: float
    committed_at: Optional[float] = None


@dataclass
class ReplicaDiskImage:
    """The secondary-side disk state (content modelled as versions).

    Tracks, per region, the sequence number of the last committed
    write — enough to verify ordering and rollback invariants without
    storing data payloads.
    """

    #: offset -> sequence of the last committed write there.
    committed_versions: Dict[int, int] = field(default_factory=dict)
    committed_bytes: int = 0
    committed_writes: int = 0

    def apply(self, write: DiskWrite) -> None:
        previous = self.committed_versions.get(write.offset, -1)
        if write.sequence <= previous:
            raise ValueError(
                f"write {write.sequence} at offset {write.offset} applied "
                f"after {previous}: commit order violated"
            )
        self.committed_versions[write.offset] = write.sequence
        self.committed_bytes += write.length
        self.committed_writes += 1


class DiskReplicator:
    """Per-protected-VM disk replication channel."""

    def __init__(self, sim, name: str = ""):
        self.sim = sim
        self.name = name
        self._sequence = 0
        self._open_epoch = 0
        #: Speculative buffer on the secondary: epoch -> writes.
        self._speculative: Dict[int, List[DiskWrite]] = {0: []}
        self.image = ReplicaDiskImage()
        # -- statistics --
        self.writes_shipped = 0
        self.bytes_shipped = 0
        self.writes_discarded = 0

    # -- primary-side data path ------------------------------------------------
    @property
    def open_epoch(self) -> int:
        return self._open_epoch

    def record_write(self, offset: int, length: int) -> DiskWrite:
        """A guest write: streamed to the secondary's speculative buffer."""
        if length <= 0:
            raise ValueError(f"write length must be positive: {length}")
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        write = DiskWrite(
            sequence=self._sequence,
            epoch=self._open_epoch,
            offset=offset,
            length=length,
            issued_at=self.sim.now,
        )
        self._sequence += 1
        self._speculative[self._open_epoch].append(write)
        self.writes_shipped += 1
        self.bytes_shipped += length
        return write

    def barrier(self) -> int:
        """Checkpoint starting: close the open write epoch."""
        sealed = self._open_epoch
        self._open_epoch += 1
        self._speculative[self._open_epoch] = []
        return sealed

    # -- secondary-side commit path ------------------------------------------------
    def commit_through(self, epoch: int) -> List[DiskWrite]:
        """Checkpoint ``epoch`` acknowledged: apply its writes.

        Commits every speculative epoch ≤ ``epoch`` in sequence order;
        never touches the still-open epoch.
        """
        committed: List[DiskWrite] = []
        for epoch_id in sorted(self._speculative):
            if epoch_id > epoch or epoch_id >= self._open_epoch:
                continue
            committed.extend(self._speculative.pop(epoch_id))
        committed.sort(key=lambda write: write.sequence)
        for write in committed:
            write.committed_at = self.sim.now
            self.image.apply(write)
        return committed

    def discard_speculative(self) -> List[DiskWrite]:
        """Failover: drop everything not covered by an acked checkpoint.

        After this, the replica disk matches the last committed epoch
        exactly — the invariant that keeps the resumed guest's
        filesystem consistent with its memory image.
        """
        discarded: List[DiskWrite] = []
        for epoch_id in sorted(self._speculative):
            discarded.extend(self._speculative[epoch_id])
        self._speculative = {self._open_epoch: []}
        self.writes_discarded += len(discarded)
        return discarded

    # -- introspection -----------------------------------------------------------
    @property
    def speculative_writes(self) -> int:
        return sum(len(writes) for writes in self._speculative.values())

    def __repr__(self) -> str:
        return (
            f"<DiskReplicator {self.name!r} epoch={self._open_epoch} "
            f"speculative={self.speculative_writes} "
            f"committed={self.image.committed_writes}>"
        )
