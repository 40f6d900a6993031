"""Failure propagation on two-plane transport networks.

Stochastic compartment dynamics (SI/SIS/SIR/SID) model an infection-like
failure spreading over a graph's control plane; two deterministic cascade
engines model overload propagation through controller failover and
data-plane rerouting. Everything is reproducible from a single 64-bit
seed.
"""

from .cascades import (
    CascadeTrace,
    Demand,
    HorizontalScenario,
    Injection,
    ScenarioError,
    VerticalScenario,
    assign_switches,
    compute_loads,
    route_demand,
    run_horizontal,
    run_vertical,
)
from .epidemic import (
    AggregateStats,
    EpidemicError,
    EpidemicParams,
    SimulationTrace,
    StateVector,
    infection_probability,
    initial_state,
    monte_carlo,
    run,
    step,
)
from .metrics import (
    StabilizationResult,
    SweepResult,
    dp_connectivity,
    failed_fraction,
    outbreak_size,
    stabilization_time,
    threshold_sweep,
)
from .rng import derive_seed, splitmix64
from .topology import (
    GeneratorParamError,
    Network,
    TopologyError,
    ValidationReport,
    barabasi_albert,
    connected_components,
    erdos_renyi,
    generate_topology,
    grid,
    load_edge_list,
    ring,
    serialize_edge_list,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateStats",
    "CascadeTrace",
    "Demand",
    "EpidemicError",
    "EpidemicParams",
    "GeneratorParamError",
    "HorizontalScenario",
    "Injection",
    "Network",
    "ScenarioError",
    "SimulationTrace",
    "StabilizationResult",
    "StateVector",
    "SweepResult",
    "TopologyError",
    "ValidationReport",
    "VerticalScenario",
    "assign_switches",
    "barabasi_albert",
    "compute_loads",
    "connected_components",
    "derive_seed",
    "dp_connectivity",
    "erdos_renyi",
    "failed_fraction",
    "generate_topology",
    "grid",
    "infection_probability",
    "initial_state",
    "load_edge_list",
    "monte_carlo",
    "outbreak_size",
    "ring",
    "route_demand",
    "run",
    "run_horizontal",
    "run_vertical",
    "serialize_edge_list",
    "splitmix64",
    "stabilization_time",
    "step",
    "threshold_sweep",
    "validate",
]
