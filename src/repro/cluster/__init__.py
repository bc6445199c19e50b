"""Cluster orchestration: deployments, scenarios, management facade."""

from .deployment import (
    DeploymentSpec,
    ProtectedDeployment,
    ProtectedFleet,
    unprotected_baseline,
)
from .facade import DomainSpec, VirtConnection, VirtManager
from .fleetplan import (
    ANTI_AFFINITY_SCOPES,
    FleetConstraints,
    FleetPlanner,
    HostLocation,
    Topology,
)
from .planner import (
    Placement,
    PlacementRequest,
    PlanResult,
    ReplicationPlanner,
)
from .scenarios import ScenarioResult, ScenarioRunner

__all__ = [
    "ANTI_AFFINITY_SCOPES",
    "DeploymentSpec",
    "DomainSpec",
    "FleetConstraints",
    "FleetPlanner",
    "HostLocation",
    "Placement",
    "PlacementRequest",
    "PlanResult",
    "ProtectedDeployment",
    "ProtectedFleet",
    "ReplicationPlanner",
    "ScenarioResult",
    "ScenarioRunner",
    "Topology",
    "VirtConnection",
    "VirtManager",
    "unprotected_baseline",
]
