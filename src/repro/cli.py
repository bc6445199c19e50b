"""Command-line interface: ``python -m repro <command>``.

A thin operational front end over the library, mirroring what an
operator would do with the real system's tooling:

* ``repro demo``       — the DoS-attack-to-failover kill chain;
* ``repro replicate``  — protect a loaded VM and report statistics;
* ``repro migrate``    — one live migration, Xen stock vs HERE;
* ``repro table1``     — the vulnerability study (Table 1);
* ``repro coverage``   — the Table 2 coverage matrix, derived live;
* ``repro fleet``      — a fleet-scale campaign on the sharded kernel:
  correlated outage -> failovers -> queued re-protection onto spares;
* ``repro serve``      — user-visible tail latency (p50/p99/p999, SLO
  violations) of one crash under every fault-tolerance strategy;
* ``repro sweep``      — a parallel, cached experiment sweep with
  optional regression gating (``--baseline``);
* ``repro profile``    — any other command under cProfile;
* ``repro experiments``— list every table/figure benchmark and how to
  run it.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, fields
from typing import List, Optional

from .analysis import render_table
from .cluster import DeploymentSpec, ProtectedDeployment, ScenarioRunner
from .faults import CampaignConfig
from .faults.campaign import CHAOS_PRESETS
from .fleet import FleetCampaignConfig, FleetSpec
from .hardware.units import GIB, MIB
from .integrity import IntegrityConfig
from .recovery import MicrorebootConfig, RecoveryPolicy
from .security import build_default_database, table1_stats
from .serving import ServingConfig, StudyConfig
from .workloads import MemoryMicrobenchmark


def _checked(convert, accept, what: str):
    """An argparse type: ``convert(text)``, rejected unless ``accept``s."""
    noun = "an integer" if convert is int else "a number"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}")
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_non_negative_int = _checked(int, lambda v: v >= 0, "a non-negative integer")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a positive number")
_non_negative_float = _checked(
    float, lambda v: 0 <= v < math.inf, "a finite non-negative number"
)
_probability = _checked(float, lambda v: 0.0 <= v <= 1.0, "a probability in [0, 1]")


def _in_units(unit: int, cast=float):
    """An argparse type: a positive count of ``unit`` as ``cast(count * unit)``."""
    return lambda text: cast(_positive_float(text) * unit)


_memory_gib = _in_units(GIB, int)  # GiB -> whole bytes
_memory_mib = _in_units(MIB, int)  # MiB -> whole bytes
_gib_per_s = _in_units(GIB)  # GiB/s -> bytes per second


def _comma_list(text: str) -> List[str]:
    """argparse type: the non-empty entries of a comma list."""
    return [entry.strip() for entry in text.split(",") if entry.strip()]


_POLICIES = [policy.value for policy in RecoveryPolicy]

#: Every config-backed flag, keyed by ``(config class, field)`` in the
#: order the flags are listed.  An entry holds only what the dataclass
#: cannot: ``flag`` where the flag is not the field name with dashes,
#: and the argparse keywords (parser, choices, action, help).  The
#: default is the field's own; :func:`add_options` adds the flags and
#: :func:`from_args` builds the config back from them.
_FLAGS = {
    (DeploymentSpec, "engine"): dict(choices=["here", "remus", "colo"]),
    (DeploymentSpec, "period"): dict(type=float, help="Remus period / HERE T_max (seconds)"),
    (DeploymentSpec, "comparison_interval"): dict(
        type=float, help="COLO output-comparison interval (seconds)"),
    (DeploymentSpec, "target_degradation"): dict(
        flag="degradation", type=float,
        help="HERE's target degradation D in [0, 1); 0 pins T to T_max"),
    (DeploymentSpec, "memory_bytes"): dict(flag="memory-gib", type=_memory_gib),
    (DeploymentSpec, "seed"): dict(type=int),
    (CampaignConfig, "trials"): dict(type=_positive_int),
    (CampaignConfig, "seed"): dict(type=int),
    (CampaignConfig, "vms"): dict(type=_positive_int),
    (CampaignConfig, "faults_per_trial"): dict(
        flag="faults", type=_positive_int, help="faults injected per trial"),
    (CampaignConfig, "detector"): dict(
        choices=["heartbeat", "phi"],
        help="failure detector: fixed miss threshold or adaptive phi-accrual"),
    (CampaignConfig, "kinds"): dict(
        type=_comma_list,
        help="comma list of fault kinds to draw from (default depends on --preset)"),
    (CampaignConfig, "miss_threshold"): dict(
        type=_positive_int, help="consecutive heartbeat misses before failover"),
    (CampaignConfig, "degraded_miss_threshold"): dict(
        type=_positive_int,
        help="misses tolerated while the transport reports the link lossy-but-alive "
             "(default 12 under --preset lossy)"),
    (CampaignConfig, "recovery_time"): dict(
        type=float, help="seconds each trial runs after the fault window"),
    (CampaignConfig, "recovery_policy"): dict(
        choices=_POLICIES,
        help="answer to a dead primary hypervisor: replica failover (default), "
             "ReHype-style in-place microreboot, or microreboot with failover "
             "fallback (default under --preset recovery: hybrid)"),
    (MicrorebootConfig, "rebuild_time_min"): dict(
        flag="rebuild-min", type=_positive_float,
        help="lower bound of the seeded hypervisor rebuild-time draw (s)"),
    (MicrorebootConfig, "rebuild_time_max"): dict(
        flag="rebuild-max", type=_positive_float,
        help="upper bound of the seeded hypervisor rebuild-time draw (s)"),
    (MicrorebootConfig, "deadline"): dict(
        type=_positive_float,
        help="escalate a microreboot still in flight after this long (s)"),
    (ServingConfig, "users"): dict(
        type=_positive_int, help="open-loop users in the served population"),
    (ServingConfig, "rate_per_user"): dict(
        type=_positive_float, help="requests per second per user"),
    (ServingConfig, "demand"): dict(
        type=_positive_float, help="per-request service demand at full capacity (seconds)"),
    (ServingConfig, "slo"): dict(
        type=_positive_float,
        help="latency SLO (seconds); lost or over-SLO requests count as violations"),
    (ServingConfig, "hedge"): dict(
        type=_probability,
        help="probability a request is cloned to the replica (first response wins; "
             "serve: > 0 adds the hedged columns)"),
    (StudyConfig, "duration"): dict(
        type=_positive_float, help="serving window length (simulated seconds)"),
    (StudyConfig, "crash_at"): dict(
        type=_positive_float,
        help="primary-hypervisor crash offset into the window (seconds)"),
    (StudyConfig, "seed"): dict(type=int),
    (IntegrityConfig, "scrub_interval"): dict(
        type=_positive_float, help="seconds between scrubber audit passes"),
    (IntegrityConfig, "scrub_bandwidth"): dict(
        flag="scrub-bandwidth-gib", type=_gib_per_s,
        help="audit bandwidth budget (GiB/s of replica state re-read per scrub pass)"),
    (IntegrityConfig, "refuse_failover"): dict(
        flag="promote-suspect-replicas", action="store_false",
        help="let failover promote a replica whose state is corruption-suspect or "
             "quarantined (default: refuse and alarm)"),
    (FleetSpec, "zones"): dict(type=_positive_int),
    (FleetSpec, "racks_per_zone"): dict(flag="racks", type=_positive_int, help="racks per zone"),
    (FleetSpec, "hosts_per_rack"): dict(type=_positive_int),
    (FleetSpec, "spares"): dict(
        type=_positive_int, help="spare-pool hosts (round-robined over zones)"),
    (FleetSpec, "vms"): dict(type=_positive_int),
    (FleetSpec, "vm_memory_bytes"): dict(flag="vm-memory-mib", type=_memory_mib),
    (FleetSpec, "quantum"): dict(
        type=_positive_float,
        help="sharded-kernel quantum = control-loop cadence (seconds)"),
    (FleetSpec, "seed"): dict(type=int),
    (FleetCampaignConfig, "faults"): dict(type=_positive_int),
    # nargs=1 hands the config a one-kind list.
    (FleetCampaignConfig, "kinds"): dict(
        flag="kind", nargs=1,
        choices=["zone-outage", "rack-outage", "hypervisor-crash", "hypervisor-hang"],
        help="which fault kind the campaign draws: correlated outages (zone/rack) or "
             "per-host hypervisor faults (the microreboot-recoverable class)"),
    (FleetCampaignConfig, "settle_time"): dict(
        type=_positive_float, help="protection warm-up before the fault window"),
    (FleetCampaignConfig, "fault_window"): dict(type=_positive_float),
    (FleetCampaignConfig, "recovery_time"): dict(type=_positive_float),
    (FleetSpec, "anti_affinity"): dict(
        choices=["none", "rack", "zone"],
        help="failure-domain separation the planner enforces per pair"),
    (FleetSpec, "max_vms_per_link"): dict(
        type=_positive_int, help="link budget: VMs sharing one replication pair"),
    (FleetSpec, "recovery_policy"): dict(
        choices=_POLICIES,
        help="fleet-wide answer to a dead primary hypervisor "
             "(zone overrides are available on FleetSpec)"),
}


def _entries(classes, prefix: str):
    """``(class, field, flag name, argparse keywords)`` per table entry of ``classes``."""
    for (cls, name), entry in _FLAGS.items():
        if cls in classes:
            keywords = dict(entry)
            flag = keywords.pop("flag", name.replace("_", "-"))
            yield cls, name, prefix + flag, keywords


def add_options(group, *classes, prefix: str = "", defaults=None,
                skip=(), only=None) -> None:
    """Add the flags of ``classes`` to ``group``, in table order.

    Each flag is ``--<prefix><name>`` and defaults to its field's
    default unless ``defaults`` (keyed by field) says otherwise;
    ``skip``/``only`` leave out fields or keep just the named ones.
    """
    field_defaults = {(cls, f.name): f.default for cls in classes for f in fields(cls)}
    defaults = defaults or {}
    for cls, name, flag, keywords in _entries(classes, prefix):
        if name in skip or (only is not None and name not in only):
            continue
        default = defaults.get(name, field_defaults[cls, name])
        group.add_argument(f"--{flag}", default=default, **keywords)


def from_args(cls, args, prefix: str = "", preset=None, **fixed):
    """``cls`` built from the flags :func:`add_options` added.

    A flag left at None falls back to ``preset`` (field -> value), then
    to the field's default; ``fixed`` values win over both.
    """
    values = dict(preset or {})
    for _cls, name, flag, _keywords in _entries((cls,), prefix):
        value = getattr(args, flag.replace("-", "_"))
        if value is not None:
            values[name] = value
    values.update(fixed)
    return cls(**values)


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="stream a JSONL telemetry trace of the run to PATH",
    )


def _attach_trace(sim, args):
    """Subscribe a JSONL trace writer if ``--trace`` was given.

    Subscribing enables the bus; returns the writer (close it when the
    run completes) or None when tracing is off.
    """
    if getattr(args, "trace", None) is None:
        return None
    from .telemetry import TraceWriter

    writer = TraceWriter(args.trace)
    sim.telemetry.subscribe(writer)
    return writer


def _add_overlays(parser: argparse.ArgumentParser) -> None:
    """The serving and integrity overlay flags ``chaos`` and ``fleet`` share."""
    serving = parser.add_argument_group("serving overlay")
    serving.add_argument(
        "--serving-users", type=_non_negative_int, default=0,
        help="open-loop users whose tail latency each "
             "trial measures post hoc from the bus (0 = off, the "
             "default — fingerprints and traces are unchanged)",
    )
    add_options(serving, ServingConfig, prefix="serving-", skip={"users"})
    integrity = parser.add_argument_group("integrity overlay")
    integrity.add_argument(
        "--integrity", action="store_true",
        help="arm the checkpoint-integrity overlay (epoch attestation, "
             "background replica scrubbing, repair escalation) on every "
             "engine (chaos: implied by --preset corruption)",
    )
    add_options(integrity, IntegrityConfig)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "HERE: heterogeneous VM replication (Middleware '23) — "
            "simulated testbed CLI"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser(
        "demo", help="DoS exploit -> heterogeneous failover kill chain"
    )
    demo.add_argument("--seed", type=int, default=7)

    replicate = subparsers.add_parser(
        "replicate", help="protect a loaded VM and report statistics"
    )
    add_options(replicate, DeploymentSpec, skip={"seed"})
    replicate.add_argument(
        "--load", type=_probability, default=0.3,
        help="memory microbenchmark load fraction",
    )
    replicate.add_argument("--duration", type=_positive_float, default=120.0)
    add_options(replicate, DeploymentSpec, only={"seed"})
    _add_trace_argument(replicate)

    migrate = subparsers.add_parser(
        "migrate", help="one live migration (Xen stock vs HERE)"
    )
    migrate.add_argument("--mode", choices=["xen", "here"], default="here")
    migrate.add_argument("--memory-gib", type=_positive_float, default=8.0)
    migrate.add_argument("--load", type=_probability, default=0.0)
    migrate.add_argument("--seed", type=int, default=0)
    _add_trace_argument(migrate)

    subparsers.add_parser(
        "table1", help="Table 1: DoS vulnerability statistics"
    )
    coverage = subparsers.add_parser(
        "coverage", help="Table 2: coverage matrix from live scenarios"
    )
    coverage.add_argument("--seed", type=int, default=11)

    plan = subparsers.add_parser(
        "plan", help="heterogeneous replica placement for a fleet"
    )
    plan.add_argument("--xen-hosts", type=_positive_int, default=1)
    plan.add_argument("--kvm-hosts", type=_non_negative_int, default=2)
    plan.add_argument("--host-memory-gib", type=_positive_float, default=64.0)
    plan.add_argument(
        "--vms", default="db:32,web:8,cache:16",
        help="comma list of name:memory_gib entries (primaries on Xen)",
    )

    chaos = subparsers.add_parser(
        "chaos", help="seeded chaos campaign: faults -> failover -> re-protection",
    )
    _add_overlays(chaos)
    chaos.add_argument(
        "--preset",
        choices=["default", *CHAOS_PRESETS],
        default="default",
        help="'lossy' draws link impairments and runs the hardened "
             "transport (reliable chunked commit + degradation ladder); "
             "'recovery' draws hypervisor crashes/hangs and answers "
             "them with the hybrid microreboot-then-failover policy; "
             "'corruption' "
             "injects silent state corruption (translator drift, "
             "replica bitrot, torn applies) and arms the integrity "
             "overlay — attestation, scrubbing, repair escalation",
    )
    # None defers to the --preset entry, then to the field default.
    add_options(chaos, CampaignConfig,
                defaults=dict(kinds=None, recovery_policy=None))
    chaos.add_argument(
        "--recovery-success-prob", dest="success_prob", type=_probability,
        default=None,
        help="override every fault class's microreboot success "
             "probability with one value in [0, 1] (default: per-class "
             "model — crash 0.88, hang 0.94, CVE 0.76)",
    )
    add_options(chaos, MicrorebootConfig, prefix="recovery-")
    _add_trace_argument(chaos)

    serve = subparsers.add_parser(
        "serve",
        help="user-visible tail latency of one crash under every "
             "fault-tolerance strategy",
    )
    serve.add_argument(
        "--strategy",
        choices=["all", "remus", "here", "colo", "failover",
                 "hybrid-recovery"],
        default="all",
        help="run one strategy or the whole five-way comparison",
    )
    add_options(serve, ServingConfig, StudyConfig,
                defaults=dict(users=50_000, rate_per_user=0.02))

    fleet = subparsers.add_parser(
        "fleet",
        help="fleet-scale campaign: zone outage -> failovers -> "
             "queued re-protection onto spares",
    )
    _add_overlays(fleet)
    add_options(fleet, FleetSpec, FleetCampaignConfig,
                defaults=dict(spares=3, settle_time=3.0))

    from .experiments.presets import SWEEP_PRESETS

    sweep = subparsers.add_parser(
        "sweep",
        help="parallel, cached experiment sweep with regression gating",
    )
    sweep.add_argument(
        "--preset",
        choices=SWEEP_PRESETS,
        default="chaos",
        help="which built-in trial matrix to run",
    )
    sweep.add_argument("--trials", type=_positive_int, default=None,
                       help="trial count (chaos-style and fleet presets; "
                            "default 4)")
    sweep.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes (1 = in-process serial)")
    sweep.add_argument("--seed", type=int, default=None,
                       help="sweep seed (default: 0 for chaos-style and "
                            "fleet presets, the benchmark seed otherwise)")
    sweep.add_argument("--duration", type=_positive_float, default=None,
                       help="per-trial measure window in simulated "
                            "seconds (serving/ycsb/table6 presets)")
    sweep.add_argument("--recovery-time", type=_positive_float, default=None,
                       help="chaos-style and fleet presets: post-fault "
                            "run time per trial (default 30)")
    sweep.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="content-addressed result cache "
                            "(default .repro-results)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="ignore cached results; re-run and refresh")
    sweep.add_argument("--log", default=None, metavar="PATH",
                       help="JSONL sweep log (default "
                            "<cache-dir>/sweeps.jsonl)")
    sweep.add_argument("--timeout", type=_positive_float, default=None,
                       help="per-trial wall-clock timeout in seconds")
    sweep.add_argument("--retries", type=_non_negative_int, default=None,
                       help="retries for crashed/timed-out trials "
                            "(default 0)")
    sweep.add_argument("--baseline", default=None, metavar="PATH",
                       help="gate the sweep against this BENCH json")
    sweep.add_argument("--tolerance", type=_non_negative_float, default=0.05,
                       help="relative per-metric gate tolerance")
    sweep.add_argument("--emit-bench", default=None, metavar="PATH",
                       help="write the BENCH_sweep.json payload to PATH")

    profile = subparsers.add_parser(
        "profile",
        help="run another command under cProfile and rank host-time "
             "hot spots",
    )
    profile.add_argument(
        "--sort", choices=["cumulative", "tottime", "ncalls"],
        default="cumulative", help="pstats sort key",
    )
    profile.add_argument("--limit", type=_positive_int, default=20,
                         help="rows of profiler output to print")
    profile.add_argument(
        "target", metavar="command",
        choices=sorted(name for name in _COMMANDS if name != "profile"),
        help="the command to profile",
    )
    profile.add_argument("target_args", nargs=argparse.REMAINDER,
                         metavar="args", help="that command's arguments")

    subparsers.add_parser(
        "experiments", help="list every paper table/figure benchmark"
    )
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_demo(args) -> int:
    from .security import (
        ExploitInjector,
        ExploitSource,
        PostAttackOutcome,
        pick_dos_exploit,
    )

    deployment = ProtectedDeployment(
        DeploymentSpec(engine="here", period=2.0, memory_bytes=4 * GIB,
                       seed=args.seed)
    )
    MemoryMicrobenchmark(deployment.sim, deployment.vm, load=0.2).start()
    deployment.start_protection()
    deployment.attach_service()
    sim = deployment.sim
    exploit = pick_dos_exploit(
        build_default_database(), "Xen",
        source=ExploitSource.GUEST_USER,
        outcome=PostAttackOutcome.CRASH, seed=args.seed,
    )
    injector = ExploitInjector(sim)
    attack_time = sim.now + 10.0
    injector.launch_at(exploit, deployment.primary, attack_time)
    report = sim.run_until_triggered(
        deployment.failover.completed, limit=sim.now + 60.0
    )
    print(f"exploit:        {exploit.cve.cve_id} "
          f"({exploit.cve.attack_vector.value})")
    print(f"first shot:     {injector.log[0].detail}")
    print(f"detection:      {report.detected_at - attack_time:.3f}s "
          f"after the attack")
    print(f"resumption:     {report.resumption_time * 1000:.1f} ms on "
          f"{report.replica_hypervisor}")
    second = injector.launch(exploit, deployment.secondary)
    print(f"second shot:    {'SUCCEEDED' if second.succeeded else 'BOUNCED'}"
          f" — {second.detail}")
    return 0


def _replicate_deployment(args) -> ProtectedDeployment:
    if not 0.0 <= args.degradation < 1.0:
        raise ValueError("--degradation must be in [0, 1)")
    return ProtectedDeployment(from_args(
        DeploymentSpec, args,
        # Remus and COLO both need matching device models on the two
        # sides; only HERE crosses hypervisor families.
        secondary_flavor="kvm" if args.engine == "here" else "xen",
        period=args.period if args.period > 0 else math.inf,
    ))


def _cmd_replicate(args, deployment) -> int:
    trace = _attach_trace(deployment.sim, args)
    workload = MemoryMicrobenchmark(
        deployment.sim, deployment.vm, load=args.load
    )
    workload.start()
    deployment.start_protection()
    mark = workload.mark()
    try:
        deployment.run_for(args.duration)
        # Measure before the trace close-out below extends the run,
        # so traced and untraced invocations report identical tables.
        throughput = workload.throughput_since(mark)
        if trace is not None:
            # Close the session cleanly so the trace carries the
            # whole-run replication.session span.
            deployment.engine.halt("run complete")
            deployment.run_for(1.0)
    finally:
        if trace is not None:
            trace.close()
    stats = deployment.stats
    if args.engine == "colo":
        rows = [
            {"metric": "comparison interval (s)", "value": args.comparison_interval},
            {"metric": "seeding (s)", "value": stats.seeding_duration},
            {"metric": "comparisons", "value": stats.comparison_count},
            {"metric": "divergences", "value": stats.divergence_count},
            {"metric": "divergence rate (%)", "value": stats.divergence_rate * 100},
            {"metric": "total sync (s)", "value": stats.total_sync_time()},
        ]
    else:
        rows = [
            {"metric": "controller", "value": deployment.engine.config.controller.describe()},
            {"metric": "seeding (s)", "value": stats.seeding_duration},
            {"metric": "checkpoints", "value": stats.checkpoint_count},
            {"metric": "mean period (s)", "value": stats.mean_period()},
            {"metric": "mean pause (ms)", "value": stats.mean_pause_duration() * 1000},
            {"metric": "mean degradation (%)", "value": stats.mean_degradation() * 100},
        ]
    rate = workload.work_rate()
    print(render_table([
        {"metric": "engine", "value": args.engine},
        *rows,
        {"metric": "workload ops/s", "value": throughput},
        {"metric": "workload slowdown (%)",
         "value": 100 * (1 - throughput / rate) if rate else 0.0},
    ]))
    return 0


def _cmd_migrate(args) -> int:
    from .hardware import build_testbed
    from .hypervisor import KvmHypervisor, XenHypervisor
    from .migration import MigrationConfig, MigrationEngine, MigrationMode
    from .simkernel import Simulation
    from .workloads import IdleWorkload

    sim = Simulation(seed=args.seed)
    testbed = build_testbed(sim)
    xen = XenHypervisor(sim, testbed.primary)
    mode = (
        MigrationMode.XEN_DEFAULT if args.mode == "xen" else MigrationMode.HERE
    )
    if mode is MigrationMode.XEN_DEFAULT:
        destination = XenHypervisor(sim, testbed.secondary)
    else:
        destination = KvmHypervisor(sim, testbed.secondary)
    vm = xen.create_vm(
        "guest", vcpus=4, memory_bytes=int(args.memory_gib * GIB)
    )
    vm.start()
    if args.load > 0:
        MemoryMicrobenchmark(sim, vm, load=args.load).start()
    else:
        IdleWorkload(sim, vm).start()
    engine = MigrationEngine(
        sim, xen, destination, testbed.interconnect,
        config=MigrationConfig(mode=mode),
    )
    trace = _attach_trace(sim, args)
    process = sim.process(engine.migrate("guest"))
    try:
        stats = sim.run_until_triggered(process, limit=1e6)
    finally:
        if trace is not None:
            trace.close()
    print(render_table([stats.summary()]))
    return 0 if stats.succeeded else 1


def _cmd_table1(_args) -> int:
    rows = table1_stats(build_default_database())
    print(render_table(
        rows,
        columns=["product", "cves", "avail", "avail_pct", "dos", "dos_pct"],
        title="Table 1: DoS vulnerability stats by hypervisor, 2013-2020",
    ))
    return 0


def _cmd_coverage(args) -> int:
    runner = ScenarioRunner(seed=args.seed, settle_time=15.0)
    results = runner.coverage_matrix_results()
    print(render_table([
        {
            "scenario": result.name,
            "survived": result.service_survived,
            "paper": "Yes" if result.expected_covered else "No",
            "match": result.matches_expectation,
        }
        for result in results
    ], title="Table 2 coverage, derived from live scenarios"))
    return 0 if all(r.matches_expectation for r in results) else 1


def _cmd_experiments(_args) -> int:
    experiments = [
        ("Fig. 1", "benchmarks/test_fig1_strategy_coverage.py"),
        ("Table 1", "benchmarks/test_table1_vuln_stats.py"),
        ("Table 2", "benchmarks/test_table2_coverage.py"),
        ("Table 5 + §8.2", "benchmarks/test_table5_dos_analysis.py"),
        ("Fig. 5", "benchmarks/test_fig5_linear_model.py"),
        ("Fig. 6", "benchmarks/test_fig6_migration_times.py"),
        ("Fig. 7", "benchmarks/test_fig7_resumption.py"),
        ("Fig. 8", "benchmarks/test_fig8_checkpoint_transfer.py"),
        ("Fig. 9", "benchmarks/test_fig9_dynamic_period.py"),
        ("Fig. 10", "benchmarks/test_fig10_ycsb_period.py"),
        ("Fig. 11", "benchmarks/test_fig11_ycsb_fixed_period.py"),
        ("Fig. 12", "benchmarks/test_fig12_ycsb_degradation.py"),
        ("Fig. 13", "benchmarks/test_fig13_ycsb_combined.py"),
        ("Fig. 14", "benchmarks/test_fig14_spec_fixed_period.py"),
        ("Fig. 15", "benchmarks/test_fig15_spec_degradation.py"),
        ("Fig. 16", "benchmarks/test_fig16_spec_combined.py"),
        ("Fig. 17", "benchmarks/test_fig17_sockperf_latency.py"),
        ("§8.2 demo", "benchmarks/test_sec82_dos_failover.py"),
        ("§8.7 overhead", "benchmarks/test_sec87_overhead.py"),
        ("§6 mitigation", "benchmarks/test_sec6_mitigation.py"),
        ("§3.1 COLO baseline", "benchmarks/test_baseline_colo.py"),
        ("ablations", "benchmarks/test_ablation_*.py"),
    ]
    print(render_table(
        [{"experiment": name, "bench": path} for name, path in experiments],
        title="Run any of these with: pytest <bench> --benchmark-only -s",
    ))
    return 0


def _cmd_plan(args) -> int:
    from .cluster import PlacementRequest, ReplicationPlanner
    from .hardware import Host, MemorySpec
    from .hypervisor import KvmHypervisor, XenHypervisor
    from .simkernel import Simulation

    sim = Simulation(seed=0)
    memory = MemorySpec(total_bytes=int(args.host_memory_gib * GIB))
    fleet = []
    for index in range(args.xen_hosts):
        fleet.append(
            XenHypervisor(sim, Host(sim, f"xen-{index}", memory=memory))
        )
    for index in range(args.kvm_hosts):
        fleet.append(
            KvmHypervisor(sim, Host(sim, f"kvm-{index}", memory=memory))
        )
    xen_primaries = [h for h in fleet if h.flavor == "xen"]
    requests = []
    try:
        for index, entry in enumerate(args.vms.split(",")):
            name, _colon, gib = entry.strip().partition(":")
            if not name or not gib:
                raise ValueError(f"malformed VM entry {entry!r}")
            requests.append(
                PlacementRequest(
                    name,
                    xen_primaries[index % len(xen_primaries)],
                    int(float(gib) * GIB),
                )
            )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    result = ReplicationPlanner(fleet).plan(requests)
    print(render_table(
        [
            {
                "vm": placement.vm_name,
                "primary": placement.primary.host.name,
                "secondary": placement.secondary.host.name,
            }
            for placement in result.placements
        ],
        title="Heterogeneous replication plan",
    ))
    for vm_name, reason in result.unplaced.items():
        print(f"UNPLACED {vm_name}: {reason}")
    return 0 if result.fully_placed else 1


def _chaos_config(args) -> CampaignConfig:
    preset = dict(CHAOS_PRESETS.get(args.preset, {}))
    if "degraded_miss_threshold" in preset:
        # A raised --miss-threshold lifts the preset's tolerance with it.
        preset["degraded_miss_threshold"] = max(
            preset["degraded_miss_threshold"], args.miss_threshold
        )
    return from_args(
        CampaignConfig, args, preset=preset,
        # The rebuild-time flags win over the uniform-probability model.
        microreboot=from_args(
            MicrorebootConfig, args, prefix="recovery-",
            preset=None if args.success_prob is None
            else asdict(MicrorebootConfig.with_uniform_prob(args.success_prob)),
        ),
        serving=from_args(ServingConfig, args, prefix="serving-")
        if args.serving_users else None,
        integrity=from_args(IntegrityConfig, args)
        if args.integrity or "integrity" in preset else None,
    )


def _cmd_chaos(args, config) -> int:
    import time

    from .faults import ChaosCampaign
    from .profiling import throughput_line
    from .telemetry import TraceWriter

    subscribers = [] if args.trace is None else [TraceWriter(args.trace)]
    started = time.perf_counter()
    try:
        result = ChaosCampaign(config, subscribers=subscribers).run()
    finally:
        for writer in subscribers:
            writer.close()
    wall = time.perf_counter() - started
    print(render_table(
        result.summary_rows(),
        title=f"Chaos campaign (seed={config.seed}, "
              f"detector={config.detector})",
    ))
    print(render_table(
        [
            {
                "trial": trial.index,
                "faults": "; ".join(trial.faults) or "none",
                "failovers": trial.failovers,
                "recovered": trial.recoveries,
                "dropped": trial.dropped_vms,
                "mean unprotected (s)": (
                    sum(trial.unprotected_windows.values())
                    / len(trial.unprotected_windows)
                ) if trial.unprotected_windows else float("nan"),
                "nines": trial.nines,
                **({
                    "corrupt (inj/det/rep)":
                        f"{trial.corruptions_injected}/"
                        f"{trial.corruptions_detected}/"
                        f"{trial.corruptions_repaired}",
                } if config.integrity is not None else {}),
            }
            for trial in result.trials
        ],
        title="Per-trial outcomes",
    ))
    print(throughput_line(result.total_events_processed, wall))
    return 0 if result.total_dropped_vms == 0 else 1


def _serve_config(args) -> StudyConfig:
    return from_args(StudyConfig, args, serving=from_args(ServingConfig, args))


def _cmd_serve(args, config) -> int:
    from .analysis.serving import strategy_comparison_rows
    from .serving import STRATEGIES, ServingStudy

    study = ServingStudy(config)
    strategies = STRATEGIES if args.strategy == "all" else (args.strategy,)
    outcomes = {name: study.run_strategy(name) for name in strategies}
    print(render_table(
        strategy_comparison_rows(outcomes, order=strategies),
        title=f"User-visible latency by strategy (seed={config.seed}, "
              f"{config.serving.aggregate_rate:g} req/s, "
              f"SLO={config.serving.slo:g}s, crash at {config.crash_at:g}s)",
    ))
    return 0


def _fleet_config(args) -> FleetCampaignConfig:
    spec = from_args(
        FleetSpec, args,
        integrity=from_args(IntegrityConfig, args) if args.integrity else None,
    )
    return from_args(
        FleetCampaignConfig, args, spec=spec,
        serving=from_args(ServingConfig, args, prefix="serving-")
        if args.serving_users else None,
    )


def _cmd_fleet(args, config) -> int:
    import time

    from .fleet import FleetCampaign
    from .profiling import throughput_line

    campaign = FleetCampaign(config)
    started = time.perf_counter()
    try:
        result = campaign.run()
    except RuntimeError as error:
        # The fleet cannot be stood up: unplaceable VMs, or initial
        # seeding missed its deadline.
        print(f"error: {error}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - started
    print(render_table(
        result.summary_rows(),
        title=f"Fleet campaign (seed={config.spec.seed}, "
              f"kind={config.kinds[0].value}, "
              f"quantum={config.spec.quantum:g}s)",
    ))
    if result.fault_descriptions:
        print(render_table(
            [{"fault": detail} for detail in result.fault_descriptions],
            title="Injected faults",
        ))
    reprotected = [r for r in campaign.orchestrator.reprotections if not r.failed]
    if reprotected:
        print(render_table(
            [
                {
                    "vm": record.vm_name,
                    "spare": record.spare_host,
                    "unprotected (s)": record.unprotected_window,
                }
                for record in reprotected
            ],
            title="Re-protections",
        ))
    print(throughput_line(result.events_processed, wall))
    return 0 if result.dropped_vms == 0 else 1


def _sweep_events(outcomes) -> float:
    """Total simulated events across sweep outcomes (0.0 when absent).

    Chaos/lossy trials report per-trial ``events_processed`` inside
    their serialized trial payload; fleet trials report it as a flat
    metric.  Presets without event counts yield 0, which suppresses
    the steps/sec line.
    """
    total = 0.0
    for outcome in outcomes:
        metrics = outcome.metrics or {}
        trial = metrics.get("trial")
        if isinstance(trial, dict):
            total += float(trial.get("events_processed", 0) or 0)
        else:
            total += float(metrics.get("events_processed", 0) or 0)
    return total


def _cmd_sweep(args) -> int:
    import inspect
    import json
    import os

    from .experiments import (
        DEFAULT_CACHE_DIR,
        RegressionGate,
        ResultStore,
        SweepLog,
        SweepRunner,
        Tolerance,
        load_baseline,
    )
    from .experiments.presets import SWEEP_PRESETS

    build = SWEEP_PRESETS[args.preset]
    # A preset accepts its builder's named parameters and the keywords
    # the preset binds; a catch-all ``**overrides`` accepts nothing.
    accepted = set(getattr(build, "keywords", {})) | {
        name
        for name, parameter in inspect.signature(build).parameters.items()
        if parameter.kind is not parameter.VAR_KEYWORD
    }
    given = {
        flag: getattr(args, flag)
        for flag in ("trials", "seed", "duration", "recovery_time",
                     "timeout", "retries")
        if getattr(args, flag) is not None
    }
    for flag in given:
        if flag not in accepted:
            print(f"error: --{flag.replace('_', '-')} does not apply to "
                  f"--preset {args.preset}", file=sys.stderr)
            return 2
    try:
        specs = build(**given)
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    cache_dir = args.cache_dir or DEFAULT_CACHE_DIR
    store = ResultStore(cache_dir)
    log = SweepLog(args.log or os.path.join(cache_dir, "sweeps.jsonl"))
    runner = SweepRunner(
        jobs=args.jobs,
        store=store,
        use_cache=not args.no_cache,
        log=log,
    )
    result = runner.run(specs)

    print(render_table(
        result.summary_rows(),
        title=f"Sweep '{args.preset}' ({len(specs)} trials, "
              f"jobs={args.jobs})",
    ))
    print(render_table(
        [
            {
                "trial": outcome.spec.name,
                "status": outcome.status,
                "cached": outcome.cached,
                "wall (s)": outcome.wall_clock,
            }
            for outcome in result.outcomes
        ],
        title="Per-trial outcomes",
    ))
    events = _sweep_events(result.outcomes)
    if events:
        from .profiling import throughput_line

        print(throughput_line(events, result.wall_clock))

    exit_code = 0 if not result.failed_outcomes else 1
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as error:
            print(f"error: cannot load baseline: {error}", file=sys.stderr)
            return 2
        report = RegressionGate(Tolerance(relative=args.tolerance)).compare(
            baseline, result.metric_summary()
        )
        print(render_table(
            report.summary_rows(),
            title=f"Regression gate vs {args.baseline} "
                  f"({'PASS' if report.passed else 'FAIL'})",
        ))
        if not report.passed:
            exit_code = 1

    if args.emit_bench is not None:
        with open(args.emit_bench, "w", encoding="utf-8") as handle:
            json.dump(result.to_bench(name=args.preset), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"bench payload written to {args.emit_bench}")
    return exit_code


def _cmd_profile(args) -> int:
    from .profiling import profile_call

    code, stats_text = profile_call(
        lambda: main([args.target, *args.target_args]),
        sort=args.sort, limit=args.limit,
    )
    print(stats_text, end="")
    return code


_COMMANDS = {
    "demo": _cmd_demo,
    "profile": _cmd_profile,
    "sweep": _cmd_sweep,
    "chaos": _cmd_chaos,
    "fleet": _cmd_fleet,
    "serve": _cmd_serve,
    "plan": _cmd_plan,
    "replicate": _cmd_replicate,
    "migrate": _cmd_migrate,
    "table1": _cmd_table1,
    "coverage": _cmd_coverage,
    "experiments": _cmd_experiments,
}


#: Commands whose flags first build a config (replicate: its
#: deployment), then run with it.  A ValueError while building is a
#: usage error; an error while running keeps its traceback.
_CONFIGS = {
    "chaos": _chaos_config,
    "fleet": _fleet_config,
    "serve": _serve_config,
    "replicate": _replicate_deployment,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    if args.command not in _CONFIGS:
        return command(args)
    try:
        config = _CONFIGS[args.command](args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return command(args, config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
