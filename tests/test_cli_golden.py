"""Golden CLI output: the printed tables of fixed-seed runs, byte for byte.

Each case runs one ``repro`` command in-process and compares its exit
code and stdout with a committed text file under ``tests/golden_cli/``.
Only the wall-clock figures of the ``throughput:`` line are masked; the
simulated event count on that line is compared like everything else.

Regenerate the files (only when a change is *meant* to alter the
output) with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import os
import re
import sys

import pytest

from repro.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden_cli")

_CHAOS = ["chaos", "--trials", "1", "--seed", "7", "--vms", "1",
          "--recovery-time", "20"]

CASES = {
    "chaos-default": _CHAOS,
    "chaos-lossy": _CHAOS + ["--preset", "lossy"],
    "chaos-recovery": _CHAOS + ["--preset", "recovery"],
    "chaos-corruption": _CHAOS + ["--preset", "corruption"],
    "chaos-serving": _CHAOS + ["--serving-users", "1000"],
    # The phi-accrual detector on both declaration paths: an answered
    # probe from a hung hypervisor and unanswered probes on a partition.
    "chaos-phi": [
        "chaos", "--trials", "4", "--seed", "1", "--vms", "1",
        "--recovery-time", "20", "--detector", "phi",
        "--kinds", "hypervisor-hang,link-partition", "--faults", "2",
    ],
    "fleet-hybrid": [
        "fleet", "--zones", "2", "--vms", "4", "--seed", "5", "--faults", "2",
        "--kind", "hypervisor-crash", "--recovery-policy", "hybrid",
    ],
}

_WALL = re.compile(r"in [0-9.]+s wall — [0-9,]+ steps/sec")


def render(argv):
    """``exit: <code>`` then the command's stdout, wall clock masked."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(list(argv))
    out = _WALL.sub("in <wall>s wall — <rate> steps/sec", buffer.getvalue())
    return f"exit: {code}\n{out}"


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.txt")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    with open(golden_path(name), encoding="utf-8") as handle:
        expected = handle.read()
    assert render(CASES[name]) == expected


#: SHA-256 of the ``chaos-phi`` run's ``--trace`` JSONL: pins what the
#: tables do not show (probe attributes, failure reasons, event and
#: process names).  Update it only when the trace is meant to change.
CHAOS_PHI_TRACE_SHA256 = (
    "d44aa9ed6e96ce36ef750ee0a5c1dc1b0c9718fe3310772d3ab27e0ae55f753d"
)


def test_chaos_phi_trace_matches_digest(tmp_path):
    trace = tmp_path / "phi.jsonl"
    render(CASES["chaos-phi"] + ["--trace", str(trace)])
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == CHAOS_PHI_TRACE_SHA256


if __name__ == "__main__":  # pragma: no cover
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case, argv in sorted(CASES.items()):
        with open(golden_path(case), "w", encoding="utf-8") as handle:
            handle.write(render(argv))
        print(f"wrote {golden_path(case)}", file=sys.stderr)
