"""Summary quantities read off epidemic traces and state vectors, and the threshold sweep."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .epidemic import (
    D,
    EpidemicParams,
    SimulationTrace,
    StateVector,
    _absorbed,
    _check_run,
    map_tasks,
    monte_carlo,
)
from .rng import derive_seed
from .topology import InputError, Network, _fmt, connected_components


class MetricsError(InputError):
    pass


def outbreak_size(trace: SimulationTrace) -> float:
    """Fraction of nodes that were ever infected.

    Counts entries into I from the event log; a node can only reach D
    through I, so I-entries already cover every node the failure touched.
    """
    return len(trace.ever_infected) / trace.node_count


def dp_connectivity(net: Network, sv: StateVector) -> float:
    """Size of the largest component after removing D nodes, over node_count.

    A node whose control plane is merely infected still forwards, so S, I
    and R nodes all stay in the graph; only D (data plane down) nodes are
    cut out. Established connections inside one surviving component are
    the traffic this fraction stands for.
    """
    if len(sv.states) != net.node_count:
        raise MetricsError(
            f"state vector has {len(sv.states)} entries for {net.node_count} nodes"
        )
    alive = [v for v in range(net.node_count) if sv.states[v] != D]
    if not alive:
        return 0.0
    comps = connected_components(net, alive)
    return max(len(c) for c in comps) / net.node_count


@dataclass(frozen=True)
class StabilizationResult:
    tick: int
    stabilized: bool


def stabilization_time(trace: SimulationTrace) -> StabilizationResult:
    """The tick of the last state change in the event log (0 if it has none).

    The run stabilized when no node moved at the final recorded tick, or
    when the last row has no I and no D (a fixed point in every model).
    Equal counts do not mean no node moved: an SIS node that recovers in
    the tick another is infected leaves them as they were.
    """
    t = trace.events[-1][0] if trace.events else 0
    return StabilizationResult(t, t < trace.final_tick or _absorbed(trace.counts[-1]))


@dataclass(frozen=True)
class SweepResult:
    """Outbreak response along a parameter grid, with run bookkeeping."""

    grid: tuple[float, ...]
    response: tuple[float, ...]  # mean outbreak fraction per grid point
    stderr: tuple[float, ...]
    n_runs: int
    epsilon: float

    @property
    def threshold_estimate(self) -> float | None:
        """Smallest grid value whose response exceeds epsilon, if any."""
        for b, r in zip(self.grid, self.response):
            if r > self.epsilon:
                return b
        return None

    def csv(self) -> str:
        lines = ["param,mean_outbreak,stderr,n_runs"]
        for b, r, se in zip(self.grid, self.response, self.stderr):
            lines.append(f"{_fmt(b)},{_fmt(r)},{_fmt(se)},{self.n_runs}")
        th = self.threshold_estimate
        lines.append(f"threshold_estimate={'none' if th is None else _fmt(th)}")
        return "\n".join(lines) + "\n"


def threshold_sweep(
    net: Network,
    seeds,
    template: EpidemicParams,
    grid,
    n_runs: int,
    max_ticks: int,
    epsilon: float = 0.05,
    base_seed: int = 0,
    stop: str = "absorb",
    n_jobs: int = 1,
) -> SweepResult:
    """Mean outbreak fraction as beta walks the grid, template fixed otherwise.

    Grid point i reruns monte_carlo with the stream derived from
    (base_seed, i), so the whole sweep is reproducible from one seed and
    independent of execution order. The caller runs point 0 and the others
    run through `map_tasks`, in forked workers when n_jobs > 1, each point's
    replicas serially, so the result is the same for every n_jobs. A free
    worker takes the next point, so the costlier high-beta points do not
    queue behind one worker. Every argument is checked before any worker
    is forked.
    """
    grid = tuple(float(b) for b in grid)
    if not grid:
        raise MetricsError("grid must be nonempty")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise MetricsError("grid must be strictly increasing")
    if not 0.0 < epsilon < 1.0:
        raise MetricsError(f"epsilon must be in (0, 1), got {epsilon}")
    seeds = _check_run(net, seeds, max_ticks, stop, n_runs)._active
    points = [replace(template, beta=b) for b in grid]
    net.adj  # built here, before any worker forks, so the workers share it
    job = (net, seeds, points, n_runs, max_ticks, base_seed, stop)
    with map_tasks(_point, job, range(1, len(grid)), n_jobs) as results:
        response, stderrs = zip(_point(job, 0), *results)
    return SweepResult(grid, response, stderrs, n_runs, epsilon)


def _point(job, i):
    """Grid point i of a sweep as (mean outbreak, its standard error)."""
    net, seeds, points, n_runs, max_ticks, base_seed, stop = job
    agg = monte_carlo(net, seeds, points[i], max_ticks, stop,
                      n_runs=n_runs, base_seed=derive_seed(base_seed, i))
    return agg.mean_outbreak, agg.stderr_outbreak
