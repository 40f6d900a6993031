"""Failure propagation on two-plane transport networks.

Stochastic compartment dynamics (SI/SIS/SIR/SID) model an infection-like
failure spreading over a graph's control plane; two deterministic cascade
engines model overload propagation through controller failover and
data-plane rerouting. Everything is reproducible from a single 64-bit
seed.

`import failprop` loads no submodule: each name in `__all__` resolves on
first use, from the module that defines it, so a program that uses only
one engine never loads the other.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the names it exports
_EXPORTS = {
    "cascades": (
        "CascadeTrace", "Demand", "HorizontalScenario", "Injection", "ScenarioError",
        "VerticalScenario", "assign_switches", "compute_loads", "route_demand",
        "run_horizontal", "run_vertical",
    ),
    "epidemic": (
        "AggregateStats", "EpidemicError", "EpidemicParams", "SimulationTrace",
        "StateVector", "infection_probability", "initial_state", "monte_carlo", "run",
        "step",
    ),
    "metrics": (
        "StabilizationResult", "SweepResult", "dp_connectivity", "outbreak_size",
        "stabilization_time", "threshold_sweep",
    ),
    "rng": ("derive_seed", "splitmix64"),
    "topology": (
        "GeneratorParamError", "Network", "TopologyError", "barabasi_albert",
        "connected_components", "erdos_renyi", "generate_topology", "grid",
        "load_edge_list", "ring", "serialize_edge_list", "validate",
    ),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE)


def __getattr__(name: str):
    if name in _MODULE:
        return getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
    if name in _EXPORTS:  # a defining module itself, read as `failprop.<module>`
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
