"""Vulnerability-window analysis: HERE vs patching vs hypervisor transplant.

The paper positions HERE against two families of related work (§1, §9):

* **patching / live update** (Orthus, VM-PHU, Hy-FiX): protection only
  exists once a patch is *available and applied* — "the system could
  have been brought down well before a patch is widely available";
* **hypervisor transplant** (HyperTP): switches to a different
  hypervisor once a vulnerability is *known*, shrinking the window to
  disclosure + transplant time, but "can only be used once a
  vulnerability is already known";
* **HERE**: the heterogeneous replica exists *before* anything is
  known, so a zero-day DoS costs one failover (the RTO) instead of an
  outage that lasts until mitigation.

This module turns that argument into arithmetic over a disclosure
timeline and an attacker model, producing per-strategy exposure
windows and expected outage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class VulnerabilityTimeline:
    """Key instants in one vulnerability's life (seconds, any epoch).

    ``exploit_available`` may precede ``disclosure`` by months — the
    zero-day case the paper is about.
    """

    exploit_available: float
    disclosure: float
    patch_available: float
    patch_applied: float

    def __post_init__(self):
        if not (
            self.exploit_available
            <= self.disclosure
            <= self.patch_available
            <= self.patch_applied
        ):
            raise ValueError(
                "timeline must satisfy exploit <= disclosure <= "
                "patch available <= patch applied"
            )

    @property
    def zero_day_period(self) -> float:
        """Time the exploit exists before anyone defends."""
        return self.disclosure - self.exploit_available


@dataclass(frozen=True)
class AttackerModel:
    """How hard the vulnerability is being exercised."""

    #: DoS attacks launched per day while the target is exposed.
    attacks_per_day: float = 1.0
    #: Outage per successful attack without replication (reboot+restore).
    outage_per_attack: float = 300.0

    def __post_init__(self):
        if self.attacks_per_day < 0 or self.outage_per_attack < 0:
            raise ValueError("attacker model values must be >= 0")


@dataclass(frozen=True)
class ExposureReport:
    """One strategy's exposure to one vulnerability."""

    strategy: str
    #: Seconds during which an attack takes the service down.
    exposed_seconds: float
    #: Outage per successful attack during the exposed window.
    outage_per_attack: float

    def expected_outage(self, attacker: AttackerModel) -> float:
        """Expected outage seconds over the vulnerability's life."""
        attacks = attacker.attacks_per_day * self.exposed_seconds / 86_400.0
        return attacks * self.outage_per_attack


def patching_exposure(
    timeline: VulnerabilityTimeline, attacker: AttackerModel
) -> ExposureReport:
    """Patch-based defence: exposed until the patch is *applied*."""
    return ExposureReport(
        strategy="patching",
        exposed_seconds=timeline.patch_applied - timeline.exploit_available,
        outage_per_attack=attacker.outage_per_attack,
    )


def transplant_exposure(
    timeline: VulnerabilityTimeline,
    attacker: AttackerModel,
    transplant_time: float = 60.0,
) -> ExposureReport:
    """HyperTP: exposed until disclosure + one hypervisor transplant.

    Strictly better than patching (a transplant needs no patch), but
    helpless during the whole zero-day period.
    """
    if transplant_time < 0:
        raise ValueError("transplant time must be >= 0")
    return ExposureReport(
        strategy="hypervisor-transplant",
        exposed_seconds=timeline.zero_day_period + transplant_time,
        outage_per_attack=attacker.outage_per_attack,
    )


def here_exposure(
    timeline: VulnerabilityTimeline,
    attacker: AttackerModel,
    recovery_time: float = 0.1,
) -> ExposureReport:
    """HERE: never exposed to *outage* — each attack costs one RTO.

    The window during which the attacker can *trigger failovers* is the
    same as patching's (until the primary is fixed), but the cost per
    attack collapses from a reboot-scale outage to the failover RTO,
    and after the first failover the same exploit bounces off the
    heterogeneous secondary entirely.
    """
    if recovery_time < 0:
        raise ValueError("recovery time must be >= 0")
    return ExposureReport(
        strategy="HERE",
        exposed_seconds=timeline.patch_applied - timeline.exploit_available,
        outage_per_attack=recovery_time,
    )


def here_reprotection_exposure(
    timeline: VulnerabilityTimeline,
    attacker: AttackerModel,
    recovery_time: float = 0.1,
    unprotected_window: float = 10.0,
) -> ExposureReport:
    """HERE with a *measured* re-protection window.

    :func:`here_exposure` prices every attack at one RTO, which assumes
    redundancy is instantly restored.  In reality the service runs
    unprotected until a fresh backup is seeded (the ``reprotection``
    span the fault subsystem measures); an attacker who fires again
    inside that window causes a full reboot-scale outage.  The expected
    cost per attack is therefore the RTO plus the follow-up probability
    times the unprotected outage.
    """
    if recovery_time < 0 or unprotected_window < 0:
        raise ValueError("times must be >= 0")
    follow_up_probability = min(
        1.0, attacker.attacks_per_day * unprotected_window / 86_400.0
    )
    return ExposureReport(
        strategy="HERE (measured re-protection)",
        exposed_seconds=timeline.patch_applied - timeline.exploit_available,
        outage_per_attack=recovery_time
        + follow_up_probability * attacker.outage_per_attack,
    )


def microreboot_exposure(
    timeline: VulnerabilityTimeline,
    attacker: AttackerModel,
    success_prob: float = 0.76,
    blackout: float = 0.5,
) -> ExposureReport:
    """Pure in-place recovery (ReHype): no replica at all.

    Each attack costs the microreboot blackout when the rebuild comes
    up consistent, and a full reboot-scale outage when latent
    corruption survives — per ReHype's caveat, exploit-corrupted state
    is exactly the case with the *lowest* success probability, so this
    strategy is priced with the CVE-class default.  Exposure lasts as
    long as patching's: nothing here removes the vulnerability.
    """
    if not 0.0 <= success_prob <= 1.0:
        raise ValueError(f"success_prob must be in [0, 1]: {success_prob}")
    if blackout < 0:
        raise ValueError("blackout must be >= 0")
    return ExposureReport(
        strategy="recover-in-place",
        exposed_seconds=timeline.patch_applied - timeline.exploit_available,
        outage_per_attack=success_prob * blackout
        + (1.0 - success_prob) * attacker.outage_per_attack,
    )


def hybrid_recovery_exposure(
    timeline: VulnerabilityTimeline,
    attacker: AttackerModel,
    success_prob: float = 0.76,
    blackout: float = 0.5,
    recovery_time: float = 0.1,
    unprotected_window: float = 10.0,
) -> ExposureReport:
    """Hybrid: microreboot first, HERE failover as the fallback.

    A successful microreboot costs its blackout and restores redundancy
    incrementally (the replica kept its last acked epoch, so no re-seed
    window worth pricing).  A failed one degenerates to the measured
    HERE failover + re-protection cost — the fallback is what caps the
    downside the pure policy pays in full.
    """
    if not 0.0 <= success_prob <= 1.0:
        raise ValueError(f"success_prob must be in [0, 1]: {success_prob}")
    if blackout < 0:
        raise ValueError("blackout must be >= 0")
    fallback = here_reprotection_exposure(
        timeline, attacker,
        recovery_time=recovery_time,
        unprotected_window=unprotected_window,
    )
    return ExposureReport(
        strategy="hybrid (microreboot + HERE)",
        exposed_seconds=timeline.patch_applied - timeline.exploit_available,
        outage_per_attack=success_prob * blackout
        + (1.0 - success_prob) * fallback.outage_per_attack,
    )


def scrubbed_integrity_exposure(
    timeline: VulnerabilityTimeline,
    attacker: AttackerModel,
    recovery_time: float = 0.1,
    latent_window: float = 0.25,
) -> ExposureReport:
    """HERE with attested checkpoints and a background scrubber.

    Plain HERE silently assumes the replica it promotes is *correct* —
    translator drift, replica bitrot or a torn apply makes a failover
    restore garbage, which costs the full reboot-scale outage.  With
    epoch attestation plus scrubbing, corrupt state is promotable only
    inside the *measured latent window* (corruption -> detection; the
    refuse-failover guard holds promotion afterwards).  An attack that
    fires inside that window still pays the outage; the rest collapse
    to one RTO.
    """
    if recovery_time < 0 or latent_window < 0:
        raise ValueError("times must be >= 0")
    window_probability = min(
        1.0, attacker.attacks_per_day * latent_window / 86_400.0
    )
    return ExposureReport(
        strategy="HERE (scrubbed integrity)",
        exposed_seconds=timeline.patch_applied - timeline.exploit_available,
        outage_per_attack=recovery_time
        + window_probability * attacker.outage_per_attack,
    )


def compare_strategies(
    timeline: VulnerabilityTimeline,
    attacker: AttackerModel,
    transplant_time: float = 60.0,
    here_recovery_time: float = 0.1,
    here_unprotected_window: Optional[float] = None,
    recovery_success_prob: Optional[float] = None,
    recovery_blackout: float = 0.5,
    latent_corruption_window: Optional[float] = None,
) -> List[Dict]:
    """Rows for the related-work exposure table.

    Pass ``here_unprotected_window`` (a measured re-protection window,
    seconds) to append the fourth row pricing HERE's post-failover
    0-redundancy period.  Pass ``recovery_success_prob`` (and
    optionally a measured ``recovery_blackout``) to append the
    in-place-recovery column pair: pure ReHype microreboot and the
    hybrid microreboot-then-failover policy.  Pass
    ``latent_corruption_window`` (seconds, e.g.
    :func:`repro.analysis.latent_corruption_window` over a corruption
    campaign) to append the scrubbed-integrity row bounding how long a
    corrupt replica stays promotable.
    """
    reports = [
        patching_exposure(timeline, attacker),
        transplant_exposure(timeline, attacker, transplant_time),
        here_exposure(timeline, attacker, here_recovery_time),
    ]
    if here_unprotected_window is not None:
        reports.append(
            here_reprotection_exposure(
                timeline,
                attacker,
                recovery_time=here_recovery_time,
                unprotected_window=here_unprotected_window,
            )
        )
    if recovery_success_prob is not None:
        reports.append(
            microreboot_exposure(
                timeline, attacker,
                success_prob=recovery_success_prob,
                blackout=recovery_blackout,
            )
        )
        reports.append(
            hybrid_recovery_exposure(
                timeline, attacker,
                success_prob=recovery_success_prob,
                blackout=recovery_blackout,
                recovery_time=here_recovery_time,
                unprotected_window=(
                    here_unprotected_window
                    if here_unprotected_window is not None
                    else 10.0
                ),
            )
        )
    if latent_corruption_window is not None:
        reports.append(
            scrubbed_integrity_exposure(
                timeline, attacker,
                recovery_time=here_recovery_time,
                latent_window=latent_corruption_window,
            )
        )
    return [
        {
            "strategy": report.strategy,
            "exposed_days": report.exposed_seconds / 86_400.0,
            "outage_per_attack_s": report.outage_per_attack,
            "expected_outage_s": report.expected_outage(attacker),
        }
        for report in reports
    ]

