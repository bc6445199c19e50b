"""Compare two ``bench/run.py --out`` result files.

    python3 bench/compare.py parent.json change.json

Prints, per workload and end-to-end metric, the parent and change
values, the relative delta and the bound ``BENCHMARK.json`` fixes,
judged by :class:`repro.experiments.RegressionGate`; then whether each
workload's ``sim_digest`` is unchanged.  Exits 1 when a metric worsened
beyond its bound, a run was incorrect, or a digest changed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from workloads import ROOT, use_checkout


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    use_checkout()
    from repro.analysis import render_table
    from repro.experiments import RegressionGate, Tolerance

    end_to_end = _load(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]
    bounds = {metric["name"]: metric["bound"] for metric in end_to_end}
    gate = RegressionGate(per_metric={
        metric["name"]: Tolerance(
            relative=metric["bound"],
            absolute=0.0,
            direction="at-most" if metric["better"] == "lower" else "at-least",
        )
        for metric in end_to_end
    })
    parent = _load(args.parent)["workloads"]
    change = _load(args.change)["workloads"]

    rows, ok = [], True
    for workload in sorted(set(parent) | set(change)):
        before = parent.get(workload, {})
        after = change.get(workload, {})

        def values(result):
            return {
                name: entry["value"]
                for name, entry in result.get("metrics", {}).items()
                if name in bounds
            }

        report = gate.compare(values(before), values(after))
        ok = ok and report.passed
        for delta in report.deltas:
            rows.append({
                "workload": workload,
                "metric": delta.metric,
                "parent": delta.baseline,
                "change": delta.current,
                "delta %": 100.0 * delta.relative_delta,
                "bound %": 100.0 * bounds[delta.metric],
                "verdict": delta.verdict,
            })
        same = before.get("sim_digest") == after.get("sim_digest")
        correct = before.get("correct") and after.get("correct")
        ok = ok and same and bool(correct)
        rows.append({
            "workload": workload,
            "metric": "sim_digest",
            "verdict": ("unchanged" if same else "CHANGED")
            + ("" if correct else ", incorrect run"),
        })
    print(render_table(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
