"""Benchmark-suite configuration.

Makes ``benchmarks/`` importable as a package root so the shared
``harness`` module resolves regardless of invocation directory, and
always echoes experiment output (benchmarks exist to *print* the
paper's tables and figures).

It also pins every figure's numbers: the ``benchmark`` fixture is
wrapped so the value each test's benchmarked call returns is hashed
(SHA-256 over canonical JSON) and checked against
``golden_figures.json``, keyed by the test's node id.  The shape
assertions in each file are the paper's claims; the golden catches a
change that moves a number inside those bounds.  Refresh it only when
a change is meant to move a figure::

    REPRO_BENCH_WRITE=1 PYTHONPATH=src python -m pytest benchmarks/ \\
        --ignore=benchmarks/test_perf_smoke.py

The same variable makes the smoke tests rewrite their ``BENCH_*.json``
baselines (``BENCH_fleet.json`` records a wall-clock rate), so restore
any of those the change did not mean to move.
"""

import dataclasses
import enum
import hashlib
import json
import math
import os
import sys

import pytest
from pytest_benchmark.fixture import BenchmarkFixture

sys.path.insert(0, os.path.dirname(__file__))

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_figures.json")
WRITE = os.environ.get("REPRO_BENCH_WRITE") == "1"

_written = {}


def canonical(value):
    """A JSON-ready tree for ``value``; raises on anything else.

    Floats keep their ``repr`` (``json`` writes them that way), NaN
    and infinities become strings, dataclasses become dicts and tuples
    become lists; dict keys are the ``repr`` of their canonical scalar
    (an enum key by its value).  There is no ``repr`` fallback: an object without a
    canonical form fails the test, so a digest never depends on an
    address or a default ``__repr__``.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        value = float(value)  # a numpy float64 keeps the plain repr
        return value if math.isfinite(value) else repr(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            name = canonical(key)
            if not isinstance(name, (str, int, float)) or isinstance(
                name, bool
            ):
                raise TypeError(f"no canonical form for dict key {key!r}")
            name = name if isinstance(name, str) else repr(name)
            if name in out:
                raise TypeError(f"dict keys collide as {name!r}")
            out[name] = canonical(item)
        return out
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    raise TypeError(
        f"no canonical form for {type(value).__name__}: return the "
        "figure's rows from the benchmarked call instead"
    )


def digest(value) -> str:
    text = json.dumps(
        canonical(value), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _load_golden() -> dict:
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


class _PinnedBenchmark(BenchmarkFixture):
    """pytest-benchmark's fixture, with the returned value pinned.

    pytest-benchmark insists the ``benchmark`` argument is one of its
    own fixtures, so the plugin's instance is re-classed rather than
    wrapped.
    """

    nodeid = ""

    def __call__(self, *args, **kwargs):
        return self._pin(super().__call__(*args, **kwargs))

    def pedantic(self, *args, **kwargs):
        return self._pin(super().pedantic(*args, **kwargs))

    def _pin(self, result):
        if result is None:
            raise TypeError(
                f"{self.nodeid}: the benchmarked call returned nothing to "
                "pin; return the figure's rows"
            )
        value = digest(result)
        if WRITE:
            _written[self.nodeid] = value
            return result
        expected = _load_golden().get(self.nodeid)
        assert expected is not None, (
            f"{self.nodeid} has no golden digest; refresh with "
            "REPRO_BENCH_WRITE=1"
        )
        assert value == expected, (
            f"{self.nodeid}: figure digest {value} != golden {expected}"
        )
        return result


@pytest.fixture
def benchmark(benchmark, request):
    benchmark.__class__ = _PinnedBenchmark
    benchmark.nodeid = request.node.nodeid
    return benchmark


def pytest_sessionfinish(session):
    if not (WRITE and _written):
        return
    golden = _load_golden()
    golden.update(_written)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
