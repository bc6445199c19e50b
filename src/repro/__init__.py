"""HERE: Fast VM Replication on Heterogeneous Hypervisors (Middleware '23).

A full Python reproduction of Decourcelle et al.'s heterogeneous VM
replication system, built on a deterministic discrete-event simulation
of the virtualization substrate.  See DESIGN.md for the substitution
map (real hardware -> simulated substrate) and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.

Quick start::

    from repro import DeploymentSpec, ProtectedDeployment

    spec = DeploymentSpec(engine="here", target_degradation=0.3, period=25.0)
    deployment = ProtectedDeployment(spec)
    deployment.start_protection()
    deployment.run_for(60.0)
    print(deployment.stats.summary())

Packages:

* :mod:`repro.simkernel`   -- discrete-event kernel
* :mod:`repro.hardware`    -- hosts, NICs, links, cost models
* :mod:`repro.vm`          -- guest VMs, dirty tracking, devices
* :mod:`repro.hypervisor`  -- simulated Xen and KVM/kvmtool
* :mod:`repro.net`         -- service network + output commit
* :mod:`repro.migration`   -- live migration (stock Xen and HERE)
* :mod:`repro.replication` -- Remus baseline, HERE, Algorithm 1, failover
* :mod:`repro.security`    -- CVE dataset, analyses, exploit injection
* :mod:`repro.workloads`   -- membench, YCSB+LSM store, SPEC, Sockperf
* :mod:`repro.analysis`    -- measurement, fitting, reporting
* :mod:`repro.cluster`     -- deployments, scenarios, libvirt-ish facade
* :mod:`repro.telemetry`   -- simulation-wide event bus, traces, metrics
* :mod:`repro.faults`      -- fault injection, adaptive detection,
  re-protection, chaos campaigns
"""

from .cluster import DeploymentSpec, ProtectedDeployment, unprotected_baseline
from .replication import EngineRecipe, here_engine, remus_engine
from .simkernel import Simulation
from .telemetry import MetricsAggregator, Recorder, TraceWriter, recorder_from_trace

__version__ = "1.0.0"

__all__ = [
    "DeploymentSpec",
    "EngineRecipe",
    "MetricsAggregator",
    "ProtectedDeployment",
    "Recorder",
    "Simulation",
    "TraceWriter",
    "__version__",
    "here_engine",
    "recorder_from_trace",
    "remus_engine",
    "unprotected_baseline",
]
