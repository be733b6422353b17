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
import sys
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
    "weight_table",
    "conductance_table",
    "vertex_weights",
    "edge_conductances",
    "dirichlet_energy",
]

# Queries may overshoot the horizon by accumulated float noise from j*delta grids.
_TIME_FUZZ = 1e-9


class ScenarioError(ValueError):
    """A scenario, initial-data or input-file value is mistyped or makes no valid graph."""


def read_json(key: str, path: str):
    """The JSON document at ``path``, an input file named by the config key ``key``."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError as exc:
        raise ScenarioError(f"{key}: no such file {path!r}") from exc
    except OSError as exc:  # a directory, or a file this process may not read
        raise ScenarioError(f"{key}: cannot read {path!r} ({exc.strerror})") from exc
    except ValueError as exc:  # a json.JSONDecodeError, or bytes that are no UTF-8 text
        raise ScenarioError(f"{key}: {path!r} is not valid JSON ({exc})") from exc


def is_finite_real(v) -> bool:
    """A JSON number a double holds: NaN, Infinity and a bool are not."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and -sys.float_info.max <= v <= sys.float_info.max)


# The JSON type a config value must have, by the type of its default: an int
# default takes integers, a float default finite reals (integers included).
JSON_TYPES: dict[type, tuple[str, Callable[[Any], bool]]] = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite real number", is_finite_real),
    str: ("a string", lambda v: isinstance(v, str)),
    dict: ("an object", lambda v: isinstance(v, dict)),
}


def check_type(key: str, value, default) -> None:
    """Raise ScenarioError unless ``value`` has the JSON type of ``default``."""
    what, check = JSON_TYPES[type(default)]
    if not check(value):
        raise ScenarioError(f"{key}: must be {what}, got {value!r}")


def typed_params(owner: str, defaults: dict, given: dict) -> dict:
    """``defaults`` updated by ``given``, each of whose keys must be known and typed alike."""
    unknown = set(given) - set(defaults)
    if unknown:
        raise ScenarioError(f"{owner}: unknown parameters {sorted(unknown)}")
    for key, value in given.items():
        check_type(key, value, defaults[key])
    return {**defaults, **given}


@dataclass(frozen=True)
class TimeWeightedGraph:
    """A finite graph with time-dependent vertex weights and edge conductances.

    ``edges`` is an (E, 2) int array of unordered pairs i < j, no self loops or
    duplicates, and the edge set must be connected.  The edges never change in
    time, so one ``plan`` serves every step operator of the graph.
    ``weights_at(times)`` takes a 1-D float array of times and returns one row
    of vertex weights per time (all entries positive), a (len(times), n)
    array; ``conductances_at(times)`` returns the (len(times), E) edge
    coefficients (entries >= 0).  Row k must not depend on the other times,
    so a table is bitwise the stack of its one-row tables.  Callables must
    accept any times in [0, horizon]; negative times are clamped to 0 by the
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
    weights_at: Callable[[np.ndarray], np.ndarray]
    conductances_at: Callable[[np.ndarray], np.ndarray]
    horizon: float
    coords: Optional[np.ndarray] = None
    lattice: Optional[tuple[int, int]] = None

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def plan(self) -> SolvePlan:
        """The ``solve_plan`` that ``spd_prepare`` takes for the graph's operators.

        Built on first use, which for a validated graph is its connectivity check.
        """
        return solve_plan(self.n_vertices, self.edges, self.lattice)

    @functools.cached_property
    def laplacian_modes(self) -> np.ndarray:
        """Column k is d * v_k for v_k the k-th eigenvector, by ascending eigenvalue, of
        d S d at t = 0 (S the conductance Laplacian, d = w**-0.5); one ``eigh``, on first use."""
        n, (i, j) = self.n_vertices, self.edges.T
        c = edge_conductances(self, 0.0)
        S = np.zeros((n, n))
        S[i, j] -= c
        S[j, i] -= c
        # each vertex's degree summed in edge order, both ends of an edge in turn
        S[np.diag_indices(n)] = np.bincount(self.edges.ravel(), np.repeat(c, 2), n)
        d = 1.0 / np.sqrt(vertex_weights(self, 0.0))
        return d[:, None] * np.linalg.eigh(d[:, None] * S * d[None, :])[1]

    @classmethod
    def static(cls, weights, edges, conductances, horizon: float = 1.0,
               coords=None) -> "TimeWeightedGraph":
        """Convenience constructor for a time-independent graph (tests use it a lot)."""
        w = np.asarray(weights, dtype=float)
        c = np.asarray(conductances, dtype=float)
        e = _normalize_edges(edges, len(w))
        G = cls(len(w), e, lambda ts: np.tile(w, (len(ts), 1)),
                lambda ts: np.tile(c, (len(ts), 1)), float(horizon), coords)
        _validate_graph(G, "static")
        return G


def _normalize_edges(edges, n: int) -> np.ndarray:
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:  # no edges, as [] or [[]]
        e = e.reshape(0, 2)
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


def _clamp_times(G: TimeWeightedGraph, times) -> np.ndarray:
    """Map query times into [0, horizon]: freeze below 0, reject beyond the horizon."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"times has shape {t.shape}, expected a 1-D array")
    beyond = t > G.horizon + _TIME_FUZZ * max(1.0, G.horizon)
    if beyond.any():
        raise ValueError(f"time {float(t[beyond][0])} beyond graph horizon {G.horizon}")
    return np.minimum(np.maximum(t, 0.0), G.horizon)


def weight_table(G: TimeWeightedGraph, times) -> np.ndarray:
    """Vertex weights at each of ``times``, one row per time (t < 0 reads t = 0)."""
    return np.asarray(G.weights_at(_clamp_times(G, times)), dtype=float)


def conductance_table(G: TimeWeightedGraph, times) -> np.ndarray:
    """Edge conductances at each of ``times``, one row per time (t < 0 reads t = 0)."""
    return np.asarray(G.conductances_at(_clamp_times(G, times)), dtype=float)


def vertex_weights(G: TimeWeightedGraph, t: float) -> np.ndarray:
    """Vertex weight vector at time t, the one-row ``weight_table``."""
    return weight_table(G, [t])[0]


def edge_conductances(G: TimeWeightedGraph, t: float) -> np.ndarray:
    """Edge conductance vector at time t, the one-row ``conductance_table``."""
    return conductance_table(G, [t])[0]


def dirichlet_energy(G: TimeWeightedGraph, t: float, values: np.ndarray) -> float:
    """sum_e c_e(t) * (u_i - u_j)**2 for the vertex function ``values``."""
    u = np.asarray(values, dtype=float)
    if u.shape != (G.n_vertices,):
        raise ValueError(f"values has shape {u.shape}, expected ({G.n_vertices},)")
    if G.n_edges == 0:
        return 0.0
    d = u[G.edges[:, 0]] - u[G.edges[:, 1]]
    return float(np.dot(edge_conductances(G, t), d * d))


# ---------------------------------------------------------------------------
# scenario catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A named scenario: kind, horizon, and kind-specific parameters.

    Unknown or mistyped parameters are rejected at build time so config typos fail loudly.
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
        T = d.pop("T", 1.0)
        check_type("T", T, 1.0)
        return cls(kind=kind, T=float(T), params=d)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "T": self.T, **self.params}


def build_scenario(spec: Scenario) -> TimeWeightedGraph:
    """Construct the graph for a scenario, validating it on a fine time sample."""
    if spec.kind not in SCENARIO_KINDS:
        raise ScenarioError(f"kind: unknown scenario kind {spec.kind!r}")
    if not (spec.T > 0 and math.isfinite(spec.T)):
        raise ScenarioError(f"T: horizon must be positive and finite, got {spec.T}")
    defaults, build = _KINDS[spec.kind]
    G = build(spec.T, **typed_params(spec.kind, defaults, spec.params))
    _validate_graph(G, spec.kind)
    return G


def _circle_graph(n: int, T: float,
                  a_at: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]]
                  ) -> TimeWeightedGraph:
    """The circle graph of the metric a(t, x)^2 dx^2.

    ``a_at(x)`` returns times -> the (len(times), len(x)) table of a(t, x) at
    the fixed points x, so a factor that does not depend on t is computed once
    per graph, at the vertices and at the half-edges.  The table is a fresh
    array, which the coefficients overwrite in place.
    """
    if n < 3:
        raise ScenarioError(f"n: circle needs at least 3 vertices, got {n}")
    dx = 2.0 * math.pi / n
    x = dx * np.arange(n)
    a_vertex, a_half = a_at(x), a_at(x + 0.5 * dx)
    idx = np.arange(n)
    edges = _normalize_edges(np.column_stack([idx, (idx + 1) % n]), n)

    def weights_at(ts: np.ndarray) -> np.ndarray:
        a = a_vertex(ts)
        a *= dx
        return a

    def conductances_at(ts: np.ndarray) -> np.ndarray:
        a = a_half(ts)
        a *= dx
        return np.divide(1.0, a, out=a)

    return TimeWeightedGraph(n, edges, weights_at, conductances_at, T, coords=x[:, None])


def _conformal_circle(T: float, n: int, amp: float, omega: float, k_spatial: int,
                      growth: float = 0.0) -> TimeWeightedGraph:
    if abs(amp) >= 1.0:
        raise ScenarioError(f"amp: |amp| must be < 1, got {amp}")
    # a(t, x) < e^(growth*t) * (1 + |amp|) must stay a finite double on [0, T]
    if growth * T > math.log(sys.float_info.max / (1.0 + abs(amp))):
        raise ScenarioError(f"growth: e^(growth*T) overflows on [0, T={T}], got {growth}")
    # and dx * a(t, x) >= dx * e^(growth*t) * (1 - |amp|) must stay a normal double, so
    # 1/(dx*a) is finite: only a negative growth can break it, at t = T (dx = 2*pi/n)
    if n >= 3 and growth * T < math.log(sys.float_info.min * n / (2 * math.pi * (1 - abs(amp)))):
        raise ScenarioError(f"growth: 1/(dx*a) overflows on [0, T={T}] with n={n}, got {growth}")

    def a_at(x):
        spatial = np.cos(k_spatial * x) if k_spatial else np.ones_like(x)

        def a(ts: np.ndarray) -> np.ndarray:
            # math.exp and math.sin per time: numpy's may round differently
            times = ts.tolist()
            wave = np.array([amp * math.sin(omega * t) for t in times])
            table = np.multiply(wave[:, None], spatial)
            table += 1.0
            table *= np.array([math.exp(growth * t) for t in times])[:, None]
            return table

        return a

    return _circle_graph(n, T, a_at)


def _pinching_circle(T: float, n: int, amplitude: float, sharpness: float) -> TimeWeightedGraph:
    if not (0.0 < amplitude):
        raise ScenarioError(f"pinching_circle: amplitude must be positive, got {amplitude}")
    if amplitude * T >= 1.0:
        raise ScenarioError(
            f"pinching_circle: pinch time {1.0 / amplitude:.6g} is within the horizon T={T}")

    def a_at(x):
        rho = amplitude * ((1.0 + np.cos(x - math.pi)) / 2.0) ** sharpness
        return lambda ts: 1.0 - ts[:, None] * rho

    return _circle_graph(n, T, a_at)


def _torus_graph(T: float, nx: int, ny: int, ax_amp: float, ax_omega: float,
                 by_amp: float, by_omega: float) -> TimeWeightedGraph:
    if nx < 3 or ny < 3:
        raise ScenarioError(f"nx/ny: torus needs at least 3 vertices per axis, got {nx}x{ny}")
    for name, amp in (("ax_amp", ax_amp), ("by_amp", by_amp)):
        if abs(amp) >= 1.0:
            raise ScenarioError(f"product_torus: |{name}| must be < 1, got {amp}")
    dx = 2.0 * math.pi / nx
    dy = 2.0 * math.pi / ny
    n = nx * ny
    # vertex ix * ny + iy; its x edge comes first, its y edge n edges later
    ix, iy = np.divmod(np.arange(n), ny)
    edges = _normalize_edges(np.concatenate([
        np.column_stack([ix * ny + iy, (ix + 1) % nx * ny + iy]),
        np.column_stack([ix * ny + iy, ix * ny + (iy + 1) % ny])]), n)

    def scales(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """a(t) and b(t) at each time, with math.sin per time."""
        times = ts.tolist()
        return (np.array([1.0 + ax_amp * math.sin(ax_omega * t) for t in times]),
                np.array([1.0 + by_amp * math.sin(by_omega * t) for t in times]))

    def weights_at(ts: np.ndarray) -> np.ndarray:
        a, b = scales(ts)
        return np.repeat((a * b * dx * dy)[:, None], n, axis=1)

    def conductances_at(ts: np.ndarray) -> np.ndarray:
        a, b = scales(ts)
        c = np.empty((len(ts), len(edges)))
        c[:, :n] = ((b / a) * (dy / dx))[:, None]
        c[:, n:] = ((a / b) * (dx / dy))[:, None]
        return c

    coords = np.column_stack([ix * dx, iy * dy])
    return TimeWeightedGraph(n, edges, weights_at, conductances_at, T, coords, (nx, ny))


def _octahedron_graph(T: float, radius0: float) -> TimeWeightedGraph:
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
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6) if i // 2 != j // 2]
    edges = _normalize_edges(np.array(pairs), 6)
    area0 = 4.0 * math.pi * radius0 ** 2
    base_w = np.full(6, area0 / 6.0)
    base_c = np.ones(len(edges))

    def weights_at(ts: np.ndarray) -> np.ndarray:
        return base_w * (1.0 - 2.0 * ts / radius0 ** 2)[:, None]

    return TimeWeightedGraph(6, edges, weights_at, lambda ts: np.tile(base_c, (len(ts), 1)),
                             T, coords)


def typed_array(key: str, value, like) -> np.ndarray:
    """``value``, nested lists of entries of ``like``'s JSON type, as an array."""
    what, check = JSON_TYPES[type(like)]

    def typed(v) -> bool:
        return all(map(typed, v)) if isinstance(v, (list, tuple)) else check(v)

    if not typed(value):
        raise ScenarioError(f"{key}: every entry must be {what}")
    try:
        return np.asarray(value, dtype=type(like))
    except (ValueError, OverflowError) as exc:
        raise ScenarioError(f"{key}: malformed table ({exc})") from exc


def _custom_tabulated(T: float, path: str, table: dict) -> TimeWeightedGraph:
    """A graph tabulated on a time grid: an inline ``table``, or the JSON object at ``path``.

    The table holds ``n_vertices`` (int), ``edges`` ([[i, j], ...] of ints),
    ``times`` (strictly increasing, starting at 0 and reaching T), ``weights`` (one
    positive row of length n_vertices per time) and ``conductances`` (one
    nonnegative row of length n_edges per time); every number must be finite.
    Weights interpolate log-linearly between samples, so the growth rate
    ``energy_estimate`` certifies on any run grid is at most the steepest
    knot-to-knot slope of log w; conductances interpolate linearly.
    """
    if path:
        table = read_json("path", path)
        check_type("table", table, {})
    elif not table:
        raise ScenarioError("custom_tabulated: needs 'path' or an inline 'table'")
    for key in ("n_vertices", "edges", "times", "weights", "conductances"):
        if key not in table:
            raise ScenarioError(f"{key}: missing from tabulated scenario")
    n = table["n_vertices"]
    check_type("n_vertices", n, 1)
    if n < 1:
        raise ScenarioError(f"n_vertices: must be >= 1, got {n}")
    edges = _normalize_edges(typed_array("edges", table["edges"], 0), n)

    times = typed_array("times", table["times"], 0.0)
    if times.ndim != 1 or len(times) < 2:
        raise ScenarioError("times: need at least two time samples")
    if abs(times[0]) > _TIME_FUZZ:
        raise ScenarioError(f"times: must start at 0, got {times[0]}")
    if np.any(np.diff(times) <= 0):
        raise ScenarioError("times: must be strictly increasing")

    W = typed_array("weights", table["weights"], 0.0)
    C = typed_array("conductances", table["conductances"], 0.0)
    if W.shape != (len(times), n):
        raise ScenarioError(f"weights: expected shape {(len(times), n)}, got {W.shape}")
    if C.shape != (len(times), len(edges)):
        raise ScenarioError(
            f"conductances: expected shape {(len(times), len(edges))}, got {C.shape}")
    if not np.all(W > 0):
        raise ScenarioError("weights: all entries must be positive")
    if not np.all(C >= 0):
        raise ScenarioError("conductances: entries must be nonnegative")

    logW = np.log(W)
    t0, t1 = float(times[0]), float(times[-1])
    if t1 < T - _TIME_FUZZ:
        raise ScenarioError(
            f"custom_tabulated: table covers [0, {t1}], horizon T={T} not reached")

    def _locate(ts: np.ndarray):
        """Each time's knot interval k and its place theta in it, as a column."""
        t = np.minimum(np.maximum(ts, t0), t1)
        k = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 2)
        theta = (t - times[k]) / (times[k + 1] - times[k])
        return k, theta[:, None]

    def weights_at(ts: np.ndarray) -> np.ndarray:
        k, theta = _locate(ts)
        return np.exp((1.0 - theta) * logW[k] + theta * logW[k + 1])

    def conductances_at(ts: np.ndarray) -> np.ndarray:
        k, theta = _locate(ts)
        return (1.0 - theta) * C[k] + theta * C[k + 1]

    return TimeWeightedGraph(n, edges, weights_at, conductances_at, T)


# Each kind's parameters with their typed defaults, and the builder that takes
# the horizon and every parameter by name.
_KINDS: dict[str, tuple[dict[str, Any], Callable[..., TimeWeightedGraph]]] = {
    "static_circle": ({"n": 64}, lambda T, n: _circle_graph(
        n, T, lambda x: lambda ts: np.ones((len(ts), len(x))))),
    "conformal_circle": ({"n": 64, "amp": 0.5, "omega": 1.0, "k_spatial": 0, "growth": 0.0},
                         _conformal_circle),
    "product_torus": ({"nx": 32, "ny": 32, "ax_amp": 0.3, "ax_omega": 2.0,
                       "by_amp": 0.2, "by_omega": 3.0}, _torus_graph),
    "shrinking_sphere_analogue": ({"radius0": 2.0}, _octahedron_graph),
    "pinching_circle": ({"n": 128, "amplitude": 0.9, "sharpness": 2.0}, _pinching_circle),
    "oscillating_metric": ({"n": 64, "amp": 0.5, "omega": 4.0 * math.pi, "k_spatial": 1},
                           _conformal_circle),
    "custom_tabulated": ({"path": "", "table": {}}, _custom_tabulated),
}
SCENARIO_KINDS = tuple(_KINDS)


def _validate_graph(G: TimeWeightedGraph, kind: str) -> None:
    """Shapes, positivity and finiteness on a fine time sample, and connectivity.

    Connectivity is read from the graph's solve plan, which this builds.
    """
    if G.plan.components > 1:
        raise ScenarioError(f"{kind}: graph is not connected")
    times = np.linspace(0.0, G.horizon, 33)
    W, C = weight_table(G, times), conductance_table(G, times)
    if W.shape != (len(times), G.n_vertices):
        raise ScenarioError(f"{kind}: weights have shape {W.shape} at {len(times)} times, "
                            f"expected {(len(times), G.n_vertices)}")
    if C.shape != (len(times), G.n_edges):
        raise ScenarioError(f"{kind}: conductances have shape {C.shape} at {len(times)} times, "
                            f"expected {(len(times), G.n_edges)}")
    # the first time that fails a check, the checks in this order
    checks = (((W > 0).all(axis=1), "nonpositive vertex weight"),
              ((C >= 0).all(axis=1), "negative conductance"),
              (np.isfinite(W).all(axis=1) & np.isfinite(C).all(axis=1),
               "infinite weight or conductance"))
    for k, t in enumerate(times):
        for ok, what in checks:
            if not ok[k]:
                raise ScenarioError(f"{kind}: {what} at t={float(t):.6g}")
