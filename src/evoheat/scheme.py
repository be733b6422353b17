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

``run_sweep`` steps chain families from several initial values through the
same operators, with every step size of a list at once; every family comes out
bitwise as if run alone.  A family is one (N*m + 1, n) array whose row j is the
sample at t = j*delta.  The package steps only in rounds of m grid times, every
grid's round r built and solved together, with the graph's ``plan``, which
alone decides the solver: whole rounds are prepared ahead (``spd_prepare``, as
many as ``rounds_ahead`` allows, straight from the weight and conductance
tables of their grid times) and each round is one ``spd_solve_prepared``
call.  Each family also carries its solver-error certificate, built from the
same right-hand sides and weights the round solved with (see
``ChainFamily.solve_error``).

Vertex functions are plain float vectors of length n.  A value's time is its
place on the grid, never a tag it carries: ``ChainFamily.times()`` gives the
time of each family row, and with m = 1 row k is u_k at t = k*h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _TIME_FUZZ, TimeWeightedGraph, conductance_table, weight_table
from .linalg import SolverError, rounds_ahead, spd_prepare, spd_solve_prepared

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


def run_sweep(G: TimeWeightedGraph, initials: list[np.ndarray], h_list: list[float],
              m: int = 4, rel_tol: float = 1e-10) -> list[list[ChainFamily]]:
    """Run all m chains of the shifted interpolation up to the horizon, from each
    initial value and with each step size in h_list.

    Returns one list of families per entry of h_list, one family per initial
    value.  Every sample j >= 1 solves a full step of length h at its own time
    j*delta against the sample one h earlier (the initial value for j < m).
    Row j of a grid reads only row j - m, so the grid of step h,
    N = ``steps_within_horizon(T, h)``, runs in rounds: round r holds its rows
    r*m + 1 .. r*m + m.  Round r of the sweep is round r of every grid with
    N > r, in h_list order, each operator assembled once and solved for every
    family in one ``spd_solve_prepared`` call.  Whole rounds are prepared ahead
    in one ``spd_prepare`` call, as many as ``rounds_ahead`` allows, from one
    weight and one conductance table over the chunk's grid times.  A family's
    samples are bitwise those of running it alone, and so is its
    ``solve_error``: row j adds rel_tol * ||rhs_j||_2 / min(mass_j) to row
    j - m's bound, from the right-hand side and weights it was solved with.
    Before a round is solved, every row's bound must be finite, or SolverError
    names its grid time: a right-hand side whose norm overflows cannot be
    certified.  After it, every solved row must be finite, or SolverError names
    its grid time and h, whether or not a later round reads the row.
    """
    initials = [_vertex_values(u0, G, "u0") for u0 in initials]
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not h_list:
        raise ValueError("h_list must not be empty")
    hs = [float(h) for h in h_list]
    Ns = [steps_within_horizon(G.horizon, h) for h in hs]
    # every grid's rows in one array, the rows of grid k from base[k] on
    base = np.cumsum([0] + [N * m + 1 for N in Ns])
    values = np.empty((len(initials), base[-1], G.n_vertices))
    bounds = np.zeros(values.shape[:2])
    values[:, base[:-1]] = np.reshape(initials, (len(initials), 1, G.n_vertices))
    # the (grid, row) pairs each round solves
    rounds = [[(k, j) for k, N in enumerate(Ns) if N > r for j in range(r * m + 1, r * m + m + 1)]
              for r in range(max(Ns))]
    r = 0
    while r < len(rounds):
        chunk = rounds[r:r + rounds_ahead([len(pairs) for pairs in rounds[r:]], G.plan)]
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
                bound = (bounds[:, prevs]
                         + rel_tol * np.linalg.norm(rhs, axis=2).T / mass.min(axis=1))
            if not np.isfinite(bound).all():
                t, h = steps[start + np.flatnonzero(~np.isfinite(bound).all(axis=0))[0]]
                raise SolverError(
                    f"the right-hand side at t = {t:.6g} (h = {h:g}) "
                    "is too large: its norm or solver-error bound is not finite", float("nan"))
            bounds[:, rows] = bound
            solved = spd_solve_prepared(prepared, rhs, rel_tol, start)
            finite = np.isfinite(solved).all(axis=(1, 2))
            if not finite.all():
                t, h = steps[start + np.flatnonzero(~finite)[0]]
                raise SolverError(f"the solve at t = {t:.6g} (h = {h:g}) returned "
                                  "non-finite values", float("nan"))
            values[:, rows] = solved.swapaxes(0, 1)
            start += len(pairs)
        r += len(chunk)
    return [[ChainFamily(h=h, m=int(m), values=run[b:e], solve_error=err[b:e])
             for run, err in zip(values, bounds)] for h, b, e in zip(hs, base[:-1], base[1:])]
