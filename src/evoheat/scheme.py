"""Implicit Euler steps and the shifted-chain interpolation of the step sequence.

One step of length h at time t maps u_prev to the minimizer of

    energy(u, t) + (1/h) * ||u - u_prev||^2_{m_t}

which is the solution of (M_t + h S_t) u = M_t u_prev.  Because the system matrix
is an M-matrix and rows of (M_t + h S_t)^{-1} M_t sum to one, every step obeys the
maximum principle, preserves mass against the current measure, and is monotone in
the data; the scheme is linear in u_prev.

``run_interpolated`` materializes the step sequence on a finer grid of spacing
delta = h/m by running m independent chains: the sample at t = j*delta is a full
step of length h taken at time t from the sample at t - h, with the convention
that times below zero hold the initial value.  Chain j mod m never reads another
chain, so evaluation order cannot change results.  Samples at multiples of h
reproduce the plain step sequence.  This differs from resolvent-style
interpolation (``verify.degiorgi_family``), which shortens the step to reach
intermediate times; with moving coefficients the shortened step loses the uniform
energy bounds, which is the point of the comparison tooling in ``verify``.

``run_families`` steps several chain families from different initial values
through the same operators, a round of m grid times at a time, building and
factoring each operator once; every family comes out bitwise as if run alone.
A family is one (N*m + 1, n) array whose row j is the sample at t = j*delta.
The package steps only in such rounds: every solve is one ``spd_solve`` call
with the graph's ``plan``, which alone decides the solver.  Each family also
carries its solver-error certificate, built from the same right-hand sides and
weights the round solved with (see ``ChainFamily.solve_error``).

Vertex functions are plain float vectors of length n.  A value's time is its
place on the grid, never a tag it carries: ``ChainFamily.times()`` gives the
time of each family row, and with m = 1 row k is u_k at t = k*h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import _TIME_FUZZ, TimeWeightedGraph, edge_conductances, vertex_weights
from .linalg import SpdOperator, spd_solve

__all__ = [
    "ChainFamily",
    "operator_at",
    "run_interpolated",
    "run_families",
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


def operator_at(G: TimeWeightedGraph, t: float, h: float) -> SpdOperator:
    """The step operator M_t + h * S_t."""
    return SpdOperator(vertex_weights(G, t), G.edges, edge_conductances(G, t), h)


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

    solve_error[j] bounds how far values[j] lies from the exact step sequence in
    the sup norm (0 at row 0).  Row j solves (M_t + h S_t) x = M_t x_prev to a
    residual of at most rel_tol * ||M_t x_prev||_2; the matrix is strictly
    diagonally dominant by the weights w_i(t), so the solve misses the exact x
    by at most that residual over min_i w_i(t) (Varah 1975).  The exact step is
    a sup-norm contraction, so these per-step errors add up along each chain.
    """

    h: float
    m: int
    values: np.ndarray
    solve_error: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")
        if np.shape(self.solve_error) != (len(self.values),):
            raise ValueError(f"solve_error has shape {np.shape(self.solve_error)}, "
                             f"expected ({len(self.values)},)")
        if not (np.isfinite(self.solve_error).all() and (self.solve_error >= 0).all()):
            raise ValueError("solve_error must be finite and nonnegative")

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


def run_interpolated(G: TimeWeightedGraph, u0: np.ndarray, h: float,
                     m: int = 4, rel_tol: float = 1e-10) -> ChainFamily:
    """Run all m chains of the shifted interpolation up to the horizon.

    Every sample j >= 1 solves a full step of length h at its own time j*delta
    against the sample one h earlier (the initial value for j < m).  The chains
    are computed in a single j-sweep; since chain j mod m only ever reads its own
    past, this is identical to running them separately.
    """
    return run_families(G, [u0], h, m, rel_tol=rel_tol)[0]


def run_families(G: TimeWeightedGraph, initials: list[np.ndarray], h: float,
                 m: int = 4, rel_tol: float = 1e-10,
                 on_row: Optional[Callable[[np.ndarray], None]] = None) -> list[ChainFamily]:
    """``run_interpolated`` from each initial value, sharing every operator.

    Row j reads only row j - m, so the grid times run in rounds of m: each
    round's m operators are assembled once and solved together for all
    families; a family's samples are bitwise those of running it alone, and so
    is its ``solve_error``: row j adds rel_tol * ||rhs_j||_2 / min(mass_j) to
    row j - m's bound, from the right-hand side and weights it was solved with.
    ``on_row``, when given, is called with each finished row of the first
    family in grid order, row 0 (its initial value) first.
    """
    initials = [_vertex_values(u0, G, "u0") for u0 in initials]
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    N = steps_within_horizon(G.horizon, h)
    delta = h / m
    values = np.empty((len(initials), N * m + 1, G.n_vertices))
    values[:, 0] = initials
    bound = np.zeros(values.shape[:2])
    if on_row is not None:
        on_row(values[0, 0])
    for start in range(1, N * m + 1, m):
        rows = list(range(start, start + m))
        prevs = [max(j - m, 0) for j in rows]
        ops = [operator_at(G, j * delta, h) for j in rows]
        mass = np.array([A.mass for A in ops])
        rhs = mass[:, None, :] * values[:, prevs].swapaxes(0, 1)
        bound[:, rows] = (bound[:, prevs]
                          + rel_tol * np.linalg.norm(rhs, axis=2).T / mass.min(axis=1))
        values[:, rows] = spd_solve(ops, rhs, rel_tol, G.plan).swapaxes(0, 1)
        if on_row is not None:
            for j in rows:
                on_row(values[0, j])
    return [ChainFamily(h=float(h), m=int(m), values=run, solve_error=err)
            for run, err in zip(values, bound)]
