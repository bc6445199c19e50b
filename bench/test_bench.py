"""Tests of the benchmark itself: run with ``python -m pytest bench/``."""

import json
import os

import pytest

import run
from tracer import CALL, RESUME, SPAWN, GeneratorProxy, Tracer
from workloads import (
    REFERENCE_SEED,
    ROOT,
    WORKLOADS,
    expected_path,
    fingerprint,
    sim_digest,
    use_checkout,
)

use_checkout()


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _body():
    received = yield 1
    try:
        yield received
    except KeyError as error:
        yield f"caught {error.args[0]}"
    return "done"


def test_proxy_preserves_send_throw_return_under_yield_from():
    tracer = Tracer()
    stat = tracer.stat("layer")

    def outer():
        return (yield from GeneratorProxy(_body(), tracer, stat))

    def drive():
        generator = outer()
        assert next(generator) == 1
        assert generator.send("x") == "x"
        assert generator.throw(KeyError("k")) == "caught k"
        with pytest.raises(StopIteration) as stop:
            generator.send(None)
        return stop.value.value

    result, _ = tracer.measure(drive)
    assert result == "done"
    assert stat.calls == 4


def test_proxy_preserves_name_and_close():
    tracer = Tracer()
    inner = _body()
    proxy = GeneratorProxy(inner, tracer, tracer.stat("layer"))
    assert proxy.__name__ == "_body"
    tracer.measure(lambda: next(proxy))
    proxy.close()
    assert inner.gi_frame is None


def test_proxy_under_simulation_process_keeps_value_name_and_interrupts():
    from repro.simkernel import Simulation
    from repro.simkernel.errors import Interrupt

    def worker(sim):
        try:
            yield sim.timeout(5.0)
        except Interrupt as interrupt:
            yield sim.timeout(1.0)
            return f"interrupted by {interrupt.cause}"
        return "finished"

    def scenario():
        sim = Simulation(seed=0)
        process = sim.process(worker(sim))
        sim.schedule_callback(1.0, lambda: process.interrupt("test"))
        sim.run()
        return process

    tracer = Tracer()
    with tracer.installed():
        process, _ = tracer.measure(scenario)
    assert isinstance(process._generator, GeneratorProxy)
    assert process.name == "worker"
    assert process.value == "interrupted by test"
    # start, interrupt (throw), wake-up after the second timeout.
    assert tracer.stats["unattributed"].own[RESUME] == 3


def test_self_time_arithmetic_on_a_fake_clock():
    ticks = iter([0, 10, 30, 100, 160, 200])
    tracer = Tracer(clock=lambda: next(ticks))
    link = tracer._timed(lambda: None, "hardware.link")
    vm = tracer._timed(lambda: link(), "vm")

    _, wall = tracer.measure(vm)

    assert wall == 200
    raw = {layer: stat.self_ns for layer, stat in tracer.stats.items()}
    assert raw == {"hardware.link": 70, "vm": 80, "unattributed": 50}
    # Calibration: each layer pays its own entries' inner cost and its
    # direct children's outer cost.
    tracer.cost[CALL] = (5.0, 7.0)
    report = tracer.layer_report()
    assert report["hardware.link"] == (65.0, 1)
    assert report["vm"] == (68.0, 1)
    assert report["unattributed"] == (43.0, 0)


def test_each_generator_resumption_is_timed_on_a_fake_clock():
    ticks = iter([0, 10, 15, 40, 60, 100, 130, 200])
    tracer = Tracer(clock=lambda: next(ticks))

    def body():
        yield
        yield

    stage = tracer._proxied(body, "stage")
    tracer.measure(lambda: list(stage()))

    stat = tracer.stats["stage"]
    assert stat.self_ns == 5 + 20 + 30
    assert stat.calls == 3
    assert tracer.spawns("stage") == 1
    assert tracer.stats["unattributed"].self_ns == 200 - 55


def test_calibration_measures_a_cost_for_every_entry_kind():
    tracer = Tracer()
    tracer.calibrate(entries=2_000, rounds=1)
    for kind in (CALL, RESUME, SPAWN):
        inner, outer = tracer.cost[kind]
        assert inner >= 0.0 and outer >= 0.0
        assert inner + outer > 0.0


def test_uninstall_restores_every_patched_attribute_by_identity():
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched
    try:
        assert len(patched) > 40
        for owner, name, original in patched:
            assert owner.__dict__[name] is not original
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    for owner, name, original in patched:
        assert owner.__dict__[name] is original
    assert tracer.patched == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_digest_equals_untraced_and_reference(name):
    workload = WORKLOADS[name]
    untraced = workload.campaign(REFERENCE_SEED).run()
    tracer = Tracer()
    with tracer.installed():
        traced, _ = tracer.measure(
            lambda: workload.campaign(REFERENCE_SEED).run()
        )
    expected = _load(expected_path(name))
    assert sim_digest(fingerprint(untraced)) == expected["sim_digest"]
    assert sim_digest(fingerprint(traced)) == expected["sim_digest"]
    # Opt-in features this workload leaves off never ran.
    assert not [
        layer
        for layer, (_, calls) in tracer.layer_report().items()
        if calls and workload.is_off(layer)
    ]
    # The tracer's counts agree with the ones the campaign reports.
    if hasattr(untraced, "total_events_processed"):
        assert tracer.events == untraced.total_events_processed
        assert (
            tracer.spawns("replication.pipeline.commit-release")
            == untraced.total_checkpoints
        )
    elif hasattr(untraced, "events_processed"):
        assert tracer.events == untraced.events_processed


@pytest.mark.parametrize("name, bench", [
    ("chaos-membench", "BENCH_perf.json"),
    ("fleet-zone-outage", "BENCH_fleet.json"),
    ("serving-study", "BENCH_serving.json"),
])
def test_reference_fingerprints_agree_with_committed_benches(name, bench):
    ours = _load(expected_path(name))["fingerprint"]
    committed = _load(os.path.join(ROOT, bench))["fingerprint"]
    shared = sorted(set(ours) & set(committed))
    assert shared
    assert [ours[key] for key in shared] == [committed[key] for key in shared]


def test_integrity_reference_agrees_with_committed_bench():
    ours = _load(expected_path("integrity-scrub"))["fingerprint"]
    committed = _load(os.path.join(ROOT, "BENCH_integrity.json"))
    assert sorted(ours) == committed["fingerprint_keys"]
    for key, value in committed["metrics"].items():
        if key in ours:
            # Fingerprints round floats to nine decimals.
            assert ours[key] == pytest.approx(value, abs=1e-9), key


def test_benchmark_json_names_what_run_reports():
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {
        m["name"]: m["unit"] for m in bench["end_to_end"]
    } == run.END_TO_END_UNITS
    assert {
        m["name"]: m["unit"] for m in bench["per_layer"]
    } == run.PER_LAYER_UNITS
