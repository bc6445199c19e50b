"""The trial-runner registry.

A *trial runner* is a plain function ``fn(params: dict) -> dict``
registered under a ``kind`` string; the dict is the trial's metrics.
:class:`~repro.experiments.runner.SweepRunner` workers look the kind
up by name, so a trial description stays a picklable payload and the
actual code travels by import (or, under the default ``fork`` start
method, by inherited process memory — which lets tests register
throwaway kinds).
"""

from __future__ import annotations

from typing import Callable, Dict

TrialRunner = Callable[[dict], dict]

_RUNNERS: Dict[str, TrialRunner] = {}


def register_trial(kind: str) -> Callable[[TrialRunner], TrialRunner]:
    """Decorator: register ``fn`` as the runner for ``kind``.

    Re-registering a kind overwrites it (last wins), which keeps
    test fixtures and interactive reloads painless.
    """

    def decorator(fn: TrialRunner) -> TrialRunner:
        _RUNNERS[kind] = fn
        return fn

    return decorator


def resolve_trial(kind: str) -> TrialRunner:
    """Return the runner for ``kind``; built-ins register on demand."""
    if kind not in _RUNNERS:
        # Built-in kinds live in presets; importing it registers them.
        from . import presets  # noqa: F401
    try:
        return _RUNNERS[kind]
    except KeyError:
        raise KeyError(
            f"no trial runner registered for kind {kind!r}; "
            f"known kinds: {sorted(_RUNNERS)}"
        ) from None

