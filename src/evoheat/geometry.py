"""Time-dependent weighted graphs standing in for closed manifolds with moving metrics.

A graph carries two families indexed by time t in [0, T]: positive vertex weights
(the volume measure of each cell) and nonnegative edge conductances (the Dirichlet
form coefficients).  The Dirichlet energy of a vertex function u at time t is

    energy(u, t) = sum_edges c_e(t) * (u_i - u_j)**2

and the weighted l2 pairing uses the vertex weights at the same time.  Both families
are frozen at their t = 0 values for t < 0, so stepping schemes may look one step
into the past without a special case at the start.

Circle scenarios discretize a metric a(t,x)^2 dx^2 on a circle of coordinate length
2*pi with N equispaced vertices:

    vertex weight   w_i(t) = a(t, x_i) * dx          (dx = 2*pi/N)
    conductance     c_i(t) = 1 / (dx * a(t, x_i + dx/2))

i.e. the conformal factor is sampled at vertices for the measure and at half-edges
for the conductances.  The product torus uses diag(a(t)^2, b(t)^2) on a 2*pi-periodic
grid; the 2d analogue gives x-edge conductance (b/a)*(dy/dx) and cell volume a*b*dx*dy.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from .linalg import SolvePlan, solve_plan

__all__ = [
    "ScenarioError",
    "TimeWeightedGraph",
    "Scenario",
    "SCENARIO_KINDS",
    "build_scenario",
    "tabulated_graph",
    "vertex_weights",
    "edge_conductances",
    "dirichlet_energy",
]

# Queries may overshoot the horizon by accumulated float noise from j*delta grids.
_TIME_FUZZ = 1e-9


class ScenarioError(ValueError):
    """Scenario parameters cannot produce a valid graph on the requested horizon."""


@dataclass(frozen=True)
class TimeWeightedGraph:
    """A finite graph with time-dependent vertex weights and edge conductances.

    ``edges`` is an (E, 2) int array of unordered pairs i < j, no self loops or
    duplicates, and the edge set must be connected.  The edges never change in
    time, so one ``plan`` serves every step operator of the graph.
    ``weights_at(t)`` returns the vertex weight vector (all entries positive),
    ``conductances_at(t)`` the edge coefficient vector (entries >= 0).  Callables
    must accept any t in [0, horizon]; negative times are clamped to 0 by the
    module-level accessors, so the callables themselves are only ever queried
    inside [0, horizon].

    ``coords`` optionally holds vertex coordinates (angles or positions) used by
    initial-data profiles; graphs without natural coordinates leave it None.

    ``lattice`` is (nx, ny) when the builder knows the edges to be the periodic
    nx x ny lattice with vertex ix * ny + iy (``product_torus``); the plan then
    takes the spectral CG preconditioner, and checks the claim against the
    edges.  Other graphs leave it None.
    """

    n_vertices: int
    edges: np.ndarray
    weights_at: Callable[[float], np.ndarray]
    conductances_at: Callable[[float], np.ndarray]
    horizon: float
    coords: Optional[np.ndarray] = None
    lattice: Optional[tuple[int, int]] = None

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def plan(self) -> SolvePlan:
        """The ``solve_plan`` that ``spd_solve`` takes for the graph's operators.

        Built on first use, which for a validated graph is its connectivity check.
        """
        return solve_plan(self.n_vertices, self.edges, self.lattice)

    @classmethod
    def static(cls, weights, edges, conductances, horizon: float = 1.0,
               coords=None) -> "TimeWeightedGraph":
        """Convenience constructor for a time-independent graph (tests use it a lot)."""
        w = np.asarray(weights, dtype=float)
        c = np.asarray(conductances, dtype=float)
        e = _normalize_edges(edges, len(w))
        G = cls(len(w), e, lambda t: w, lambda t: c, float(horizon), coords)
        _validate_graph(G, "static")
        return G


def _normalize_edges(edges, n: int) -> np.ndarray:
    e = np.asarray(edges, dtype=np.int64)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ScenarioError("edges: expected an (E, 2) array of vertex pairs")
    if e.size and (e.min() < 0 or e.max() >= n):
        raise ScenarioError("edges: vertex index out of range")
    if np.any(e[:, 0] == e[:, 1]):
        raise ScenarioError("edges: self loops are not allowed")
    e = np.sort(e, axis=1)
    ranked = e[np.lexsort((e[:, 1], e[:, 0]))]
    if (ranked[1:] == ranked[:-1]).all(axis=1).any():
        raise ScenarioError("edges: duplicate edge")
    return e


def _clamp_time(G: TimeWeightedGraph, t: float) -> float:
    """Map query time into [0, horizon]: freeze below 0, reject beyond the horizon."""
    if t > G.horizon + _TIME_FUZZ * max(1.0, G.horizon):
        raise ValueError(f"time {t} beyond graph horizon {G.horizon}")
    return min(max(float(t), 0.0), G.horizon)


def vertex_weights(G: TimeWeightedGraph, t: float) -> np.ndarray:
    """Vertex weight vector at time t (t < 0 returns the t = 0 weights)."""
    return np.asarray(G.weights_at(_clamp_time(G, t)), dtype=float)


def edge_conductances(G: TimeWeightedGraph, t: float) -> np.ndarray:
    """Edge conductance vector at time t (t < 0 returns the t = 0 values)."""
    return np.asarray(G.conductances_at(_clamp_time(G, t)), dtype=float)


def dirichlet_energy(G: TimeWeightedGraph, t: float, values: np.ndarray) -> float:
    """sum_e c_e(t) * (u_i - u_j)**2 for the vertex function ``values``."""
    u = np.asarray(values, dtype=float)
    if u.shape != (G.n_vertices,):
        raise ValueError(f"values has shape {u.shape}, expected ({G.n_vertices},)")
    if G.n_edges == 0:
        return 0.0
    return _dirichlet_form(G, edge_conductances(G, t), u)


def _dirichlet_form(G: TimeWeightedGraph, c: np.ndarray, u: np.ndarray) -> float:
    """sum_e c_e * (u_i - u_j)**2 with the conductance row ``c`` already read."""
    d = u[G.edges[:, 0]] - u[G.edges[:, 1]]
    return float(np.dot(c, d * d))


# ---------------------------------------------------------------------------
# scenario catalog
# ---------------------------------------------------------------------------

SCENARIO_KINDS = (
    "static_circle",
    "conformal_circle",
    "product_torus",
    "shrinking_sphere_analogue",
    "pinching_circle",
    "oscillating_metric",
    "custom_tabulated",
)

_DEFAULTS: dict[str, dict[str, Any]] = {
    "static_circle": {"n": 64},
    "conformal_circle": {"n": 64, "amp": 0.5, "omega": 1.0, "k_spatial": 0, "growth": 0.0},
    "product_torus": {"nx": 32, "ny": 32, "ax_amp": 0.3, "ax_omega": 2.0,
                      "by_amp": 0.2, "by_omega": 3.0},
    "shrinking_sphere_analogue": {"radius0": 2.0},
    "pinching_circle": {"n": 128, "amplitude": 0.9, "sharpness": 2.0},
    "oscillating_metric": {"n": 64, "amp": 0.5, "omega": 4.0 * math.pi, "k_spatial": 1},
    "custom_tabulated": {},
}


@dataclass(frozen=True)
class Scenario:
    """A named scenario: kind, horizon, and kind-specific parameters.

    Unknown parameter names are rejected at build time so config typos fail loudly.
    """

    kind: str
    T: float = 1.0
    params: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        d = dict(d)
        kind = d.pop("kind", None)
        if kind not in SCENARIO_KINDS:
            raise ScenarioError(f"kind: unknown scenario kind {kind!r}, "
                                f"expected one of {', '.join(SCENARIO_KINDS)}")
        T = float(d.pop("T", 1.0))
        return cls(kind=kind, T=T, params=d)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "T": self.T, **self.params}


def _merged_params(spec: Scenario) -> dict:
    defaults = _DEFAULTS[spec.kind]
    unknown = set(spec.params) - set(defaults) - ({"path", "table"} if spec.kind == "custom_tabulated" else set())
    if unknown:
        raise ScenarioError(f"{spec.kind}: unknown parameters {sorted(unknown)}")
    out = dict(defaults)
    out.update(spec.params)
    return out


def _circle_graph(n: int, T: float,
                  a_at: Callable[[np.ndarray], Callable[[float], np.ndarray]]) -> TimeWeightedGraph:
    """The circle graph of the metric a(t, x)^2 dx^2.

    ``a_at(x)`` returns t -> a(t, x) at the fixed points x, so a factor that
    does not depend on t is computed once per graph, at the vertices and at
    the half-edges.
    """
    n = int(n)
    if n < 3:
        raise ScenarioError(f"n: circle needs at least 3 vertices, got {n}")
    dx = 2.0 * math.pi / n
    x = dx * np.arange(n)
    a_vertex = a_at(x)
    a_half = a_at(x + 0.5 * dx)
    idx = np.arange(n)
    edges = _normalize_edges(np.column_stack([idx, (idx + 1) % n]), n)

    def weights_at(t: float) -> np.ndarray:
        return a_vertex(t) * dx

    def conductances_at(t: float) -> np.ndarray:
        return 1.0 / (dx * a_half(t))

    return TimeWeightedGraph(n, edges, weights_at, conductances_at, float(T),
                             coords=x[:, None])


def build_scenario(spec: Scenario) -> TimeWeightedGraph:
    """Construct the graph for a scenario, validating it on a fine time sample."""
    if spec.kind not in SCENARIO_KINDS:
        raise ScenarioError(f"kind: unknown scenario kind {spec.kind!r}")
    if not (spec.T > 0 and math.isfinite(spec.T)):
        raise ScenarioError(f"T: horizon must be positive and finite, got {spec.T}")
    p = _merged_params(spec)
    T = float(spec.T)

    if spec.kind == "static_circle":
        G = _circle_graph(p["n"], T, lambda x: lambda t: np.ones_like(x))

    elif spec.kind in ("conformal_circle", "oscillating_metric"):
        amp, omega = float(p["amp"]), float(p["omega"])
        k = int(p["k_spatial"])
        growth = float(p.get("growth", 0.0))
        if abs(amp) >= 1.0:
            raise ScenarioError(f"{spec.kind}: |amp| must be < 1, got {amp}")

        def a_at(x):
            spatial = np.cos(k * x) if k else np.ones_like(x)

            def a(t):
                osc = amp * math.sin(omega * t)
                return math.exp(growth * t) * (1.0 + osc * spatial)
            return a

        G = _circle_graph(p["n"], T, a_at)

    elif spec.kind == "pinching_circle":
        amp = float(p["amplitude"])
        q = float(p["sharpness"])
        if not (0.0 < amp):
            raise ScenarioError(f"pinching_circle: amplitude must be positive, got {amp}")
        if amp * T >= 1.0:
            raise ScenarioError(
                f"pinching_circle: pinch time {1.0 / amp:.6g} is within the horizon T={T}")

        def a_at(x):
            rho = amp * ((1.0 + np.cos(x - math.pi)) / 2.0) ** q
            return lambda t: 1.0 - t * rho

        G = _circle_graph(p["n"], T, a_at)

    elif spec.kind == "product_torus":
        G = _torus_graph(p, T)

    elif spec.kind == "shrinking_sphere_analogue":
        G = _octahedron_graph(float(p["radius0"]), T)

    else:  # custom_tabulated
        if "path" in p:
            with open(p["path"]) as f:
                doc = json.load(f)
        elif "table" in p:
            doc = p["table"]
        else:
            raise ScenarioError("custom_tabulated: needs 'path' or an inline 'table'")
        G = _table_graph(doc)  # validated once, below, on [0, T]
        if G.horizon < T - _TIME_FUZZ:
            raise ScenarioError(
                f"custom_tabulated: table covers [0, {G.horizon}], horizon T={T} not reached")
        G = TimeWeightedGraph(G.n_vertices, G.edges, G.weights_at, G.conductances_at,
                              T, G.coords)

    _validate_graph(G, spec.kind)
    return G


def _torus_graph(p: dict, T: float) -> TimeWeightedGraph:
    nx_, ny = int(p["nx"]), int(p["ny"])
    if nx_ < 3 or ny < 3:
        raise ScenarioError(f"nx/ny: torus needs at least 3 vertices per axis, got {nx_}x{ny}")
    for name in ("ax_amp", "by_amp"):
        if abs(float(p[name])) >= 1.0:
            raise ScenarioError(f"product_torus: |{name}| must be < 1, got {p[name]}")
    dx = 2.0 * math.pi / nx_
    dy = 2.0 * math.pi / ny
    n = nx_ * ny

    def vid(ix, iy):
        return ix * ny + iy

    ex, ey = [], []
    for ix in range(nx_):
        for iy in range(ny):
            ex.append((vid(ix, iy), vid((ix + 1) % nx_, iy)))
            ey.append((vid(ix, iy), vid(ix, (iy + 1) % ny)))
    edges = _normalize_edges(np.array(ex + ey), n)
    n_x_edges = len(ex)

    ax_amp, ax_omega = float(p["ax_amp"]), float(p["ax_omega"])
    by_amp, by_omega = float(p["by_amp"]), float(p["by_omega"])

    def a_of(t):
        return 1.0 + ax_amp * math.sin(ax_omega * t)

    def b_of(t):
        return 1.0 + by_amp * math.sin(by_omega * t)

    def weights_at(t: float) -> np.ndarray:
        return np.full(n, a_of(t) * b_of(t) * dx * dy)

    def conductances_at(t: float) -> np.ndarray:
        a, b = a_of(t), b_of(t)
        c = np.empty(len(edges))
        c[:n_x_edges] = (b / a) * (dy / dx)
        c[n_x_edges:] = (a / b) * (dx / dy)
        return c

    ix_grid, iy_grid = np.divmod(np.arange(n), ny)
    coords = np.column_stack([ix_grid * dx, iy_grid * dy])
    return TimeWeightedGraph(n, edges, weights_at, conductances_at, T, coords, (nx_, ny))


def _octahedron_graph(radius0: float, T: float) -> TimeWeightedGraph:
    """Shrinking round-sphere analogue on the octahedron graph.

    Vertex weights carry the sphere area split evenly and shrink by the factor
    (1 - 2t/radius0**2), the rate at which a round 2-sphere of initial radius
    radius0 loses area under curvature flow; conductances stay constant because
    the Dirichlet form of a surface is invariant under uniform scaling.  The
    measure only shrinks, so the certified growth rate of this family is 0 (the
    curvature-floor convention gives the same: the initial scalar curvature is
    positive, so its negative part vanishes).
    """
    if radius0 <= 0:
        raise ScenarioError(f"radius0: must be positive, got {radius0}")
    t_collapse = radius0 ** 2 / 2.0
    if T >= t_collapse:
        raise ScenarioError(
            f"shrinking_sphere_analogue: collapse time {t_collapse:.6g} is within T={T}")
    # vertices: +x,-x,+y,-y,+z,-z; edges join every non-antipodal pair
    coords = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                       [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float) * radius0
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)
             if not (i // 2 == j // 2)]
    edges = _normalize_edges(np.array(pairs), 6)
    area0 = 4.0 * math.pi * radius0 ** 2
    base_w = np.full(6, area0 / 6.0)
    base_c = np.ones(len(edges))

    def weights_at(t: float) -> np.ndarray:
        return base_w * (1.0 - 2.0 * t / radius0 ** 2)

    return TimeWeightedGraph(6, edges, weights_at, lambda t: base_c, T, coords)


def tabulated_graph(doc: dict) -> TimeWeightedGraph:
    """Build a graph from a tabulated-samples document.

    Expected keys: ``n_vertices`` (int), ``edges`` ([[i, j], ...]), ``times``
    (strictly increasing, starting at 0), ``weights`` (one positive row of length
    n_vertices per time), ``conductances`` (one nonnegative row of length n_edges
    per time).  Weights interpolate log-linearly between samples, so the growth
    rate ``energy_estimate`` certifies on any run grid is at most the steepest
    knot-to-knot slope of log w; conductances interpolate linearly.  The horizon
    is the last tabulated time.
    """
    G = _table_graph(doc)
    _validate_graph(G, "custom_tabulated")
    return G


def _table_graph(doc: dict) -> TimeWeightedGraph:
    """``tabulated_graph`` before its validation."""
    for key in ("n_vertices", "edges", "times", "weights", "conductances"):
        if key not in doc:
            raise ScenarioError(f"{key}: missing from tabulated scenario")
    n = int(doc["n_vertices"])
    if n < 1:
        raise ScenarioError(f"n_vertices: must be >= 1, got {n}")
    edges = _normalize_edges(doc["edges"], n)

    times = np.asarray(doc["times"], dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ScenarioError("times: need at least two time samples")
    if abs(times[0]) > _TIME_FUZZ:
        raise ScenarioError(f"times: must start at 0, got {times[0]}")
    if np.any(np.diff(times) <= 0):
        raise ScenarioError("times: must be strictly increasing")

    try:
        W = np.asarray(doc["weights"], dtype=float)
        C = np.asarray(doc["conductances"], dtype=float)
    except ValueError as exc:
        raise ScenarioError(f"weights/conductances: ragged table ({exc})") from exc
    if W.shape != (len(times), n):
        raise ScenarioError(
            f"weights: expected shape {(len(times), n)}, got {W.shape}")
    if C.shape != (len(times), len(edges)):
        raise ScenarioError(
            f"conductances: expected shape {(len(times), len(edges))}, got {C.shape}")
    if not np.all(W > 0):
        raise ScenarioError("weights: all entries must be positive")
    if not np.all(C >= 0):
        raise ScenarioError("conductances: entries must be nonnegative")

    logW = np.log(W)
    t0, t1 = float(times[0]), float(times[-1])

    def _locate(t: float):
        t = min(max(t, t0), t1)
        k = int(np.searchsorted(times, t, side="right")) - 1
        k = min(max(k, 0), len(times) - 2)
        theta = (t - times[k]) / (times[k + 1] - times[k])
        return k, theta

    def weights_at(t: float) -> np.ndarray:
        k, theta = _locate(t)
        return np.exp((1.0 - theta) * logW[k] + theta * logW[k + 1])

    def conductances_at(t: float) -> np.ndarray:
        k, theta = _locate(t)
        return (1.0 - theta) * C[k] + theta * C[k + 1]

    return TimeWeightedGraph(n, edges, weights_at, conductances_at, t1)


def _validate_graph(G: TimeWeightedGraph, kind: str) -> None:
    """Shapes and positivity on a fine time sample, and connectivity.

    Connectivity is read from the graph's solve plan, which this builds.
    """
    if G.plan.components > 1:
        raise ScenarioError(f"{kind}: graph is not connected")
    for t in np.linspace(0.0, G.horizon, 33):
        w = vertex_weights(G, float(t))
        c = edge_conductances(G, float(t))
        if w.shape != (G.n_vertices,):
            raise ScenarioError(f"{kind}: weights have shape {w.shape} at t={float(t):.6g}")
        if c.shape != (G.n_edges,):
            raise ScenarioError(f"{kind}: conductances have shape {c.shape} at t={float(t):.6g}")
        if not np.all(w > 0):
            raise ScenarioError(f"{kind}: nonpositive vertex weight at t={float(t):.6g}")
        if not np.all(c >= 0):
            raise ScenarioError(f"{kind}: negative conductance at t={float(t):.6g}")
