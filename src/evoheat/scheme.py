"""Implicit Euler steps and the shifted-chain interpolation of the step sequence.

One step of length h at time t maps u_prev to the minimizer of

    energy(u, t) + (1/h) * ||u - u_prev||^2_{m_t}

which is the solution of (M_t + h S_t) u = M_t u_prev.  Because the system matrix
is an M-matrix and rows of (M_t + h S_t)^{-1} M_t sum to one, every step obeys the
maximum principle, preserves mass against the current measure, and is monotone in
the data; the scheme is linear in u_prev.

``run_sweep`` materializes the step sequence on a finer grid of spacing
delta = h/m by running m independent chains: the sample at t = j*delta is a full
step of length h taken at time t from the sample at t - h, with the convention
that times below zero hold the initial value.  Chain j mod m never reads another
chain, so evaluation order cannot change results.  Samples at multiples of h
reproduce the plain step sequence.  This differs from resolvent-style
interpolation (``verify.degiorgi_family``), which shortens the step to reach
intermediate times; with moving coefficients the shortened step loses the uniform
energy bounds, which is the point of the comparison tooling in ``verify``.

``run_sweep`` steps chain families from several initial values, with every
step size of a list at once, in rounds of m grid times solved together with the
graph's ``plan``, which alone decides the solver; every family comes out bitwise
as if run alone, one (N*m + 1, n) array whose row j is the sample at
t = j*delta.  It only steps: how far the rows lie from the exact steps is
certified by the checks in ``verify``, from the stored rows.

Vertex functions are plain float vectors of length n.  A value's time is its
place on the grid, never a tag it carries: ``ChainFamily.times()`` gives the
time of each family row, and with m = 1 row k is u_k at t = k*h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _TIME_FUZZ, TimeWeightedGraph, conductance_table, weight_table
from .linalg import SolverError, blocks, prepared_floats, spd_prepare, spd_solve_prepared

__all__ = [
    "ChainFamily",
    "run_sweep",
    "steps_within_horizon",
    "truncate",
]


def _vertex_values(u, G: TimeWeightedGraph, name: str) -> np.ndarray:
    """``u`` as a float vector, checked to be finite with one entry per vertex."""
    v = np.asarray(u, dtype=float)
    if v.shape != (G.n_vertices,):
        raise ValueError(f"{name} has shape {v.shape}, graph has {G.n_vertices} vertices")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


def truncate(u: np.ndarray, n: float) -> np.ndarray:
    """Clamp values to [-n, n] entrywise.  Idempotent."""
    if n <= 0:
        raise ValueError(f"truncation level must be positive, got {n}")
    return np.clip(np.asarray(u, dtype=float), -n, n)


def steps_within_horizon(T: float, h: float) -> int:
    """N = round(T/h), reduced if rounding would step past the horizon."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    N = int(round(T / h))
    if N * h > T + _TIME_FUZZ * max(1.0, T):
        N -= 1
    if N < 1:
        raise ValueError(f"step h={h} does not fit the horizon T={T}")
    return N


@dataclass(frozen=True)
class ChainFamily:
    """Samples of the shifted interpolation on the grid t_j = j * delta.

    values[j] is the sample at time j*delta for j = 0..N*m, delta = h/m,
    horizon = N*h.  values[0] is the initial value; values[::m] is the plain
    step sequence u_0, ..., u_N and values[1:] everything that came out of a
    minimization; row j >= 1 was produced by a full step of length h from row
    j - m (the initial value when j < m).  Chain index = j mod m.
    """

    h: float
    m: int
    values: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")

    @property
    def delta(self) -> float:
        return self.h / self.m

    @property
    def n_steps(self) -> int:
        return (len(self.values) - 1) // self.m

    @property
    def horizon(self) -> float:
        return self.n_steps * self.h

    def times(self) -> np.ndarray:
        """The grid times j*delta of the rows of ``values``."""
        return np.arange(len(self.values)) * self.delta


def run_sweep(G: TimeWeightedGraph, initials: list[np.ndarray], h_list: list[float],
              m: int = 4, rel_tol: float = 1e-10) -> list[list[ChainFamily]]:
    """Run all m chains of the shifted interpolation up to the horizon, from each
    initial value and with each step size in h_list.

    Returns one list of families per entry of h_list, one family per initial
    value, each bitwise as if run alone.  Sample j >= 1 is a full step of length
    h at its own time j*delta from the sample one h earlier (the initial value
    for j < m), so the grid of step h, N = ``steps_within_horizon(T, h)``, runs
    in rounds: round r holds rows r*m + 1 .. r*m + m.  Round r of the sweep is
    round r of every grid with N > r, in h_list order, each operator assembled
    once and solved for every family in one ``spd_solve_prepared`` call; whole
    rounds are prepared ahead in one ``spd_prepare`` call, a ``blocks`` batch of
    rounds at a time, from one weight and one conductance table.  A failed solve
    (a right-hand side whose norm overflows included) raises SolverError naming
    its round's first grid time and h; so does a solved row that is not finite,
    naming its own, whether or not a later round reads it.  Raises ValueError
    before any read unless m is an integer >= 1.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    initials = [_vertex_values(u0, G, "u0") for u0 in initials]
    if not h_list:
        raise ValueError("h_list must not be empty")
    hs = [float(h) for h in h_list]
    Ns = [steps_within_horizon(G.horizon, h) for h in hs]
    # every grid's rows in one array, the rows of grid k from base[k] on
    base = np.cumsum([0] + [N * m + 1 for N in Ns])
    values = np.empty((len(initials), base[-1], G.n_vertices))
    values[:, base[:-1]] = np.reshape(initials, (len(initials), 1, G.n_vertices))
    # the (grid, row) pairs each round solves
    rounds = [[(k, j) for k, N in enumerate(Ns) if N > r for j in range(r * m + 1, r * m + m + 1)]
              for r in range(max(Ns))]
    floats = prepared_floats(G.plan)
    for block in blocks([len(pairs) * floats for pairs in rounds]):
        chunk = rounds[block.start:block.stop]
        steps = [(j * (hs[k] / m), hs[k]) for pairs in chunk for k, j in pairs]
        times, step_lengths = zip(*steps)
        weights = weight_table(G, times)
        prepared = spd_prepare(G.plan, weights, conductance_table(G, times), step_lengths)
        start = 0
        for pairs in chunk:
            grid, row = np.array(pairs).T
            rows, prevs = base[grid] + row, base[grid] + np.maximum(row - m, 0)
            mass = weights[start:start + len(pairs)]
            with np.errstate(over="ignore", invalid="ignore"):
                rhs = mass[:, None, :] * values[:, prevs].swapaxes(0, 1)
            try:
                solved = spd_solve_prepared(prepared, rhs, rel_tol, start)
            except SolverError as exc:  # a right-hand side that overflows, or no convergence
                t, h = steps[start]
                raise SolverError(f"the round from t = {t:.6g} (h = {h:g}): {exc}",
                                  exc.relative_residual) from None
            finite = np.isfinite(solved).all(axis=(1, 2))
            if not finite.all():
                t, h = steps[start + np.flatnonzero(~finite)[0]]
                raise SolverError(f"the solve at t = {t:.6g} (h = {h:g}) returned "
                                  "non-finite values", float("nan"))
            values[:, rows] = solved.swapaxes(0, 1)
            start += len(pairs)
    return [[ChainFamily(h=h, m=int(m), values=run[b:e]) for run in values]
            for h, b, e in zip(hs, base[:-1], base[1:])]
