"""The per-engine corruption surface and replica audit logic.

One :class:`IntegrityMonitor` rides each replication engine.  It plays
both sides of the integrity game:

* **corruption surface** — the fault injector dispatches the silent
  corruption kinds here (``translator-drift``, ``replica-bitrot``,
  ``torn-apply``).  Corruption is applied *semantically*: the payload
  is parsed through the translator's intermediate representation,
  perturbed architecturally (a flipped control-register bit, a rotted
  register, a truncated device record), and rebuilt in the same format
  — so every injected corruption is invisible to wire checksums but
  visible to the semantic digest, exactly the failure mode the paper's
  heterogeneous translation risks.  All draws come from the engine's
  ``integrity.<vm>`` named stream, created lazily on first injection,
  so runs without corruption faults consume zero draws;
* **auditor** — :meth:`audit` recomputes the semantic root from the
  replica's post-translation committed payload and compares it to the
  attestation the primary shipped (the background scrubber calls this
  on its bandwidth budget; detection feeds the repair ladder).  A clean
  verdict is memoised per write version of the replica's committed
  state, so re-auditing an unchanged replica skips the re-parse and
  re-hash while still returning the bytes the scrubber charges.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..vm.vcpu import CONTROL_REGISTERS, GP_REGISTERS
from .config import IntegrityConfig
from .digest import semantic_root

#: Fault-kind strings (mirrors :class:`repro.faults.spec.FaultKind`).
TRANSLATOR_DRIFT = "translator-drift"
REPLICA_BITROT = "replica-bitrot"
TORN_APPLY = "torn-apply"

#: What each repair rung can fix (see DESIGN §18's escalation ladder).
RUNG_SCOPES = {
    "page-refetch": ("page",),
    "incremental-resync": ("page", "epoch"),
    "full-reseed": ("page", "epoch", "stream"),
}

#: Kind -> (scope, human cause).
_KIND_SCOPE = {
    REPLICA_BITROT: "page",
    TORN_APPLY: "epoch",
    TRANSLATOR_DRIFT: "stream",
}


@dataclass
class CorruptionEvent:
    """One injected (or discovered) corruption of the replica state."""

    kind: str
    vm: str
    scope: str
    epoch: int
    injected_at: float
    detail: str = ""
    #: The clean payload this corruption displaced (repair restores it).
    pristine: Optional[dict] = field(default=None, repr=False)
    detected_at: Optional[float] = None
    repaired_at: Optional[float] = None
    #: Repair rung that cleared it ("epoch-overwrite" = a later clean
    #: checkpoint replaced the corrupt state before the ladder ran).
    repaired_by: Optional[str] = None
    #: A clean epoch displaced the corruption before it was *detected*
    #: — the scrubber missed this one.
    healed_at: Optional[float] = None
    quarantined: bool = False

    @property
    def open(self) -> bool:
        """Corruption still present on the replica (or unresolved)."""
        return (
            self.repaired_at is None
            and self.healed_at is None
            and not self.quarantined
        )

    @property
    def detected(self) -> bool:
        return self.detected_at is not None

    def latent_window(self, until: float) -> float:
        """Seconds a failover would have promoted this corrupt state.

        The window opens at injection and closes at detection (from
        which point the refuse-failover guard holds promotion), at a
        clean-epoch overwrite, or at repair — whichever came first; an
        unresolved corruption stays latent to ``until``.
        """
        for stamp in (self.detected_at, self.healed_at, self.repaired_at):
            if stamp is not None:
                return max(0.0, stamp - self.injected_at)
        return max(0.0, until - self.injected_at)


class IntegrityMonitor:
    """Corruption surface + semantic auditor of one engine's replica."""

    def __init__(self, sim, engine, config: IntegrityConfig):
        self.sim = sim
        self.engine = engine
        self.config = config
        self.events: List[CorruptionEvent] = []
        self._drift_armed = False
        #: ``(session, session.version)`` of the last clean audit: an
        #: unchanged committed state cannot have started mismatching.
        self._clean_key: Optional[Tuple[object, int]] = None

    # -- plumbing ------------------------------------------------------------
    @property
    def bus(self):
        return self.sim.telemetry

    @property
    def session(self):
        return self.engine.replica_session

    @property
    def vm_name(self) -> str:
        vm = self.engine.vm
        return vm.name if vm is not None else self.engine.name

    def _stream(self):
        return self.sim.random.stream(f"integrity.{self.vm_name}")

    def attach(self, *pipelines) -> None:
        """Hook translator-drift injection after each pipeline's translate."""
        for pipeline in pipelines:
            if pipeline is not None and pipeline.has_stage("ship-state"):
                pipeline.add_fault_hook("ship-state", self._drift_hook)

    # -- corruption surface (FaultInjector dispatch target) ------------------
    def inject(self, kind: str) -> str:
        """Apply one corruption kind; returns the injection detail."""
        if kind == TRANSLATOR_DRIFT:
            self._drift_armed = True
            return f"translator drift armed on {self.vm_name}"
        if kind == REPLICA_BITROT:
            return self._corrupt_replica(kind)
        if kind == TORN_APPLY:
            return self._corrupt_replica(kind)
        raise ValueError(f"unknown corruption kind {kind!r}")

    def clear_drift(self) -> str:
        """Revert a transient translator-drift fault."""
        self._drift_armed = False
        return f"translator drift cleared on {self.vm_name}"

    def _record(
        self, kind: str, epoch: int, pristine: Optional[dict], detail: str
    ) -> CorruptionEvent:
        event = CorruptionEvent(
            kind=kind,
            vm=self.vm_name,
            scope=_KIND_SCOPE[kind],
            epoch=epoch,
            injected_at=self.sim.now,
            detail=detail,
            pristine=pristine,
        )
        self.events.append(event)
        self.bus.counter(
            "integrity.corrupted", 1.0, vm=self.vm_name, kind=kind
        )
        return event

    def _corrupt_replica(self, kind: str) -> str:
        """Rot the replica's committed state (bitrot / torn apply)."""
        session = self.session
        payload = session.last_payload if session is not None else None
        if payload is None:
            return f"{kind} on {self.vm_name}: no committed replica state"
        hypervisor = session.hypervisor
        if not (hypervisor.host.is_up and hypervisor.is_responsive):
            # A down replica host holds no state to rot; loading into
            # it would raise out of the fault process.
            return (
                f"{kind} on {self.vm_name}: replica host "
                f"{hypervisor.host.name} is down, nothing corrupted"
            )
        corrupted, detail = self._perturb(payload, kind)
        if corrupted is None:
            return f"{kind} on {self.vm_name}: {detail}"
        session.overwrite_payload(corrupted)
        self._record(
            kind, session.last_applied_epoch, pristine=payload, detail=detail
        )
        return f"{kind} on {self.vm_name}: {detail}"

    def _drift_hook(self, ctx, stage) -> None:
        """Pipeline hook (before ship-state): corrupt the translation.

        Runs after the translate stage, so ``ctx.payload`` is the
        post-translation form the replica will commit — while the
        attestation (computed pre-translation) stays honest.  The clean
        payload object is kept as the event's pristine copy; the
        primary's own structures are never touched.
        """
        if not self._drift_armed or ctx.payload is None:
            return
        corrupted, detail = self._perturb(ctx.payload, TRANSLATOR_DRIFT)
        if corrupted is None:
            return
        clean = ctx.payload
        ctx.payload = corrupted
        for event in self.events:
            if event.kind == TRANSLATOR_DRIFT and event.open:
                # Same armed fault corrupting another epoch: track the
                # newest corrupted epoch and its clean form.
                event.epoch = ctx.epoch
                event.pristine = clean
                event.detail = detail
                return
        self._record(TRANSLATOR_DRIFT, ctx.epoch, pristine=clean, detail=detail)

    # -- architectural perturbations -----------------------------------------
    def _perturb(
        self, payload: dict, kind: str
    ) -> Tuple[Optional[dict], str]:
        """Parse, architecturally mutate, and rebuild one payload.

        Going through the intermediate representation guarantees the
        mutation is digest-visible guest state (registers, MSRs, device
        fields) rather than format framing, and that the rebuilt
        payload still parses — silent corruption, not a wire error.
        """
        translator = self.engine.translator
        format_id = payload.get("format")
        try:
            state = translator.parse(payload, use_cache=False)
        except (KeyError, TypeError, ValueError):
            return None, "payload already unparseable"
        if not state.vcpus:
            return None, "no vCPU state to corrupt"
        state = copy.deepcopy(state)
        rng = self._stream()
        vcpu = state.vcpus[rng.randrange(len(state.vcpus))]
        if kind == TRANSLATOR_DRIFT:
            register = rng.choice(CONTROL_REGISTERS)
            bit = rng.randrange(48)
            vcpu.control[register] ^= 1 << bit
            detail = (
                f"drifted vcpu{vcpu.index} {register} bit {bit} in translation"
            )
        elif kind == REPLICA_BITROT:
            register = rng.choice(GP_REGISTERS)
            mask = rng.getrandbits(64) | 1
            vcpu.gp[register] ^= mask
            detail = f"rotted vcpu{vcpu.index} {register} (mask {mask:#x})"
        else:  # TORN_APPLY
            if state.devices:
                index = rng.randrange(len(state.devices))
                state.devices[index]["fields"] = {}
                detail = (
                    f"device {state.devices[index]['kind']}#"
                    f"{state.devices[index]['instance']} torn mid-apply"
                )
            else:
                for register in GP_REGISTERS[: rng.randrange(2, 6)]:
                    vcpu.gp[register] = 0
                detail = f"vcpu{vcpu.index} registers torn mid-apply"
        return translator.build(state, format_id), detail

    # -- audit ----------------------------------------------------------------
    def audit(self) -> Tuple[int, List[CorruptionEvent]]:
        """One scrub pass; returns ``(audited_bytes, newly_detected)``.

        Recomputes the semantic root from the replica's committed
        post-translation payload, folds the attestation's carried
        memory leaf back in, and compares roots.  A mismatch (or an
        unparseable payload) marks every open corruption detected; a
        clean root closes events a later epoch silently displaced.

        A clean verdict is memoised per ``(session, session.version)``:
        every write to the committed payload or attestation goes through
        ``ReplicaSession.apply`` or ``overwrite_payload``, which bump the
        version, so an audit of an unchanged version skips the re-parse
        and re-hash.  Only host work is skipped — the audited bytes are
        returned (and charged by the scrubber) on every pass, and the
        verdict handling below runs as before.
        """
        from ..migration.engine import state_payload_bytes

        session = self.session
        if session is None:
            return 0, []
        attestation = session.last_attestation
        payload = session.last_payload
        if attestation is None or payload is None:
            return 0, []
        audited = state_payload_bytes(attestation.vcpus, attestation.devices)
        key = (session, session.version)
        clean = key == self._clean_key
        if not clean:
            try:
                state = self.engine.translator.parse(payload, use_cache=False)
                clean = (
                    semantic_root(state, attestation.memory_leaf)
                    == attestation.root
                )
            except (KeyError, TypeError, ValueError, IndexError):
                clean = False
            self._clean_key = key if clean else None
        now = self.sim.now
        if clean:
            for event in self.events:
                if not event.open:
                    continue
                if session.last_applied_epoch > event.epoch:
                    if event.detected:
                        event.repaired_at = now
                        event.repaired_by = "epoch-overwrite"
                    else:
                        event.healed_at = now
            if not self.outstanding():
                session.corruption_suspected = False
            return audited, []
        newly = [
            event
            for event in self.events
            if event.open and not event.detected
        ]
        if not newly:
            # Mismatch with no recorded injection: unattributed rot.
            # Record it so the ladder (and the alarm) still run.
            event = CorruptionEvent(
                kind="unattributed",
                vm=self.vm_name,
                scope="epoch",
                epoch=session.last_applied_epoch,
                injected_at=now,
                detail="digest mismatch with no recorded injection",
            )
            self.events.append(event)
            newly = [event]
        for event in newly:
            event.detected_at = now
        session.corruption_suspected = True
        return audited, newly

    def outstanding(self) -> List[CorruptionEvent]:
        """Detected-but-unrepaired corruption awaiting the ladder."""
        return [
            event for event in self.events if event.open and event.detected
        ]

    # -- repair (driven by IntegrityRepairController) -------------------------
    def rung_repair(self, event: CorruptionEvent, rung: str) -> bool:
        """Attempt one ladder rung; True when it cleared the corruption."""
        if event.scope not in RUNG_SCOPES.get(rung, ()):
            return False
        session = self.session
        if (
            session is not None
            and event.pristine is not None
            and session.last_applied_epoch == event.epoch
        ):
            session.overwrite_payload(event.pristine)
        event.repaired_at = self.sim.now
        event.repaired_by = rung
        if session is not None and not self.outstanding():
            session.corruption_suspected = False
        return True

    def quarantine(self, event: CorruptionEvent) -> None:
        """Terminal rung: the replica must never be promoted."""
        event.quarantined = True
        session = self.session
        if session is not None and self.config.refuse_failover:
            session.quarantined = True
