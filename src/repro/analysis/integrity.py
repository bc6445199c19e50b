"""Silent-corruption exposure analysis.

Attestation and scrubbing (``repro.integrity``) bound how long a
corrupt replica stays *promotable*: the latent window opens when
corruption lands and closes at detection (the refuse-failover guard
holds promotion from then on), at a clean-epoch overwrite, or at
repair.  These helpers reduce the per-corruption windows a campaign
harvests into the summary numbers the README and the exposure table
quote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Union


@dataclass(frozen=True)
class LatentWindowReport:
    """Summary of how long corrupt state stayed promotable."""

    count: int
    mean_seconds: float
    max_seconds: float
    total_seconds: float

    def rows(self) -> List[dict]:
        return [
            {"metric": "corruptions observed", "value": self.count},
            {"metric": "mean latent window (s)", "value": self.mean_seconds},
            {"metric": "max latent window (s)", "value": self.max_seconds},
            {"metric": "total latent seconds", "value": self.total_seconds},
        ]


def latent_corruption_window(
    source: Union[Iterable[float], object],
) -> LatentWindowReport:
    """Reduce per-corruption latent windows to summary statistics.

    ``source`` is either an iterable of per-corruption windows
    (seconds), such as an :class:`~repro.integrity.IntegrityTally`'s
    ``latent_windows``, or a chaos
    :class:`~repro.faults.campaign.CampaignResult`, whose ``trials``
    each carry a ``latent_windows`` list.  An empty source yields NaN
    means/maxes, the same convention the campaign fingerprint
    string-encodes.
    """
    trials = getattr(source, "trials", None)
    if trials is not None:
        windows = [w for trial in trials for w in trial.latent_windows]
    else:
        windows = list(source)
    if any(w < 0 for w in windows):
        raise ValueError("latent windows must be >= 0")
    if not windows:
        return LatentWindowReport(0, math.nan, math.nan, 0.0)
    return LatentWindowReport(
        count=len(windows),
        mean_seconds=sum(windows) / len(windows),
        max_seconds=max(windows),
        total_seconds=sum(windows),
    )
