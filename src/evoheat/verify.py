"""Checks for the discrete estimates: energy, extremum, contraction, weak form.

The central bound: a chain family run from u0 with volume growth rate c0 (so
that vertex weights grow at most like exp(c0 * dt) along the run's grid)
satisfies, with a0 = ||u0||^2 weighted by the t=0 measure,

    max_j ||sample_j||^2_{m_{t_j}}              <= exp(c0 * horizon) * a0
    sum_{j>=1} delta * energy(sample_j, t_j)    <= exp(c0 * horizon) * a0

each on its own.  (The two left-hand sides do not admit the common bound jointly:
for a static metric the first alone already equals the right side at t = 0 while
the second is positive, so a summed form is unverifiable by design, not by bug.
What the step-by-step induction gives is ``a_l + 2 * sum_{k<=l} h*E(u_k) <=
exp(c0*l*h) * a0`` per index, of which the two bounds above are the corollaries.)
EnergyReport.passed is the conjunction of the two; margin measures the worse one.

The dissipation quadrature runs over the produced samples j = 1..N*m, which for
m = 1 is exactly the step-sequence sum sum_k h * energy(u_k, kh); including the
j = 0 sample would charge the scheme for the raw initial datum's Dirichlet
energy, which it does not control.  It is ``l2h1_interp_norm`` of those rows,
which ``energy_estimate`` sums for all chain families of one grid in one sweep
that reads each coefficient row once.  The same sweep certifies c0 from the
weight rows it reads, so no caller needs to know how.

The checks read the grid rows in blocks, one coefficient table per block, and do
each block's arithmetic whole: per-row dot products by ``_row_dots``, the same
BLAS call ``np.dot`` makes, and running sums added left to right in row order by
``_sum_in_order``, so every report is bitwise the one a row-by-row loop gives.

Every check reads the initial value from the chain's row 0 and its solver error
from the chain's own ``solve_error``, the per-row certificate that
``run_sweep`` builds from the right-hand sides and weights it solved with.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (_TIME_FUZZ, TimeWeightedGraph, conductance_table, dirichlet_energy,
                       vertex_weights, weight_table)
from .linalg import (half_edge_layout, rounds_ahead, rows_within_budget, spd_prepare,
                     spd_solve_prepared)
from .profiles import make_initial_data
from .scheme import ChainFamily, _vertex_values, run_sweep, steps_within_horizon

__all__ = [
    "weighted_l2_sq",
    "weighted_l2",
    "SLACK",
    "report_json",
    "EnergyReport",
    "energy_estimate",
    "ExtremumReport",
    "extremum_check",
    "ContractionReport",
    "contraction_report",
    "OracleError",
    "OracleResult",
    "semidiscrete_oracle",
    "oracle_value_at",
    "ConvergenceRow",
    "chain_error_vs_oracle",
    "convergence_table",
    "fit_order",
    "TestFunction",
    "default_test_catalog",
    "WeakResidualRow",
    "weak_residual",
    "AttainmentReport",
    "initial_attainment_check",
    "l2h1_interp_norm",
    "degiorgi_family",
]


# The relative slack of the energy and attainment bounds, written as each
# report's ``slack``: a bound passes when its left side is <= rhs * (1 + SLACK).
SLACK = 1e-8


def weighted_l2_sq(values: np.ndarray, weights: np.ndarray) -> float:
    """sum_i w_i * v_i^2, the squared l2 norm against a discrete measure."""
    return float(np.dot(weights, values * values))


def weighted_l2(values: np.ndarray, weights: np.ndarray) -> float:
    return math.sqrt(weighted_l2_sq(values, weights))


def _row_blocks(start: int, stop: int, floats_per_row: int):
    """Consecutive ranges covering start..stop-1, each of ``rows_within_budget`` rows:
    the grid rows whose coefficient tables one read holds."""
    block = rows_within_budget(floats_per_row)
    return (range(first, min(first + block, stop)) for first in range(start, stop, block))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i of ``a`` dotted with row i of ``b``, or with ``b`` itself if it is a
    vector.  A stacked matmul of rows by columns calls BLAS ddot once per row, as
    ``np.dot`` does on the same rows, so each entry is bitwise ``np.dot(a[i], b[i])``."""
    return np.matmul(a[:, None, :], b[..., :, None])[:, 0, 0]


def _sum_in_order(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ..., added left to right.  From Python 3.12
    the builtin sum() of floats is compensated and np.sum adds pairwise, and the
    artifact bytes must depend on neither."""
    for term in terms.tolist():
        total += term
    return total


def _edge_gaps(G: TimeWeightedGraph, values: np.ndarray) -> np.ndarray:
    """u_i - u_j along every edge (i, j) of G, for the vertex function ``values``
    or for each of its rows (one ``take`` per edge end, not a 2-D fancy index)."""
    gaps = values.take(G.edges[:, 0], axis=-1)
    gaps -= values.take(G.edges[:, 1], axis=-1)
    return gaps


def _dirichlet_rows(G: TimeWeightedGraph, C: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_e C[k, e] * (u_i - u_j)**2 for each row k of ``values``."""
    gaps = _edge_gaps(G, values)
    gaps *= gaps
    return _row_dots(C, gaps)


def _growth_rates(log_prev: np.ndarray, W: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """For each row k of the weight table W, the largest rate over the vertices
    from the row before it: (log W[k] - log W[k-1]) / steps[k], where the row
    before W[0] is the one whose log is ``log_prev``.  A weight that is 0 at both
    ends (-inf - -inf, NaN) sets no rate; a NaN or +inf left means that row's
    pair admits no c0."""
    logs = np.empty((len(W) + 1, W.shape[1]))
    logs[0] = log_prev
    np.log(W, out=logs[1:])
    pairs = np.diff(logs, axis=0)
    pairs /= steps[:, None]
    tops = pairs.max(axis=1)
    if not (tops < np.inf).all():
        stays_zero = (logs[1:] == -np.inf) & (logs[:-1] == -np.inf)
        tops = np.where(stays_zero, -np.inf, pairs).max(axis=1)
    return tops


def report_json(report) -> dict:
    """A report dataclass as a JSON object: its fields in order, ``passed`` as "pass"."""
    return asdict(report, dict_factory=lambda items: {
        ("pass" if key == "passed" else key): value for key, value in items})


# ---------------------------------------------------------------------------
# energy estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyReport:
    """Outcome of the energy estimate on one chain family.

    sup_l2      max over all grid samples of the weighted squared l2 norm
    dissipation sum_{j>=1} delta * energy(sample_j, t_j)
    rhs         exp(c0_used * horizon) * ||u0||^2_{m_0}
    margin      (rhs - max(sup_l2, dissipation)) / rhs  (0 when rhs == 0)
    passed      sup_l2 <= rhs*(1+SLACK) and dissipation <= rhs*(1+SLACK)
    """

    sup_l2: float
    dissipation: float
    rhs: float
    c0_used: float
    slack: float
    passed: bool
    margin: float


def energy_estimate(chains: list[ChainFamily], G: TimeWeightedGraph) -> list[EnergyReport]:
    """Both sides of the energy estimate, one report per chain family of one grid.

    The families must share h, m and row count; each one's initial value is its
    row 0.  Each grid row's coefficients are read once for all of them, in
    tables of ``rows_within_budget`` rows, and each family's block of rows is
    judged in whole-block operations; each report is bitwise the family's report
    alone, and the row-by-row one.  The sweep certifies c0 from the weight rows
    it reads: the largest rate (log w_i(t_j) - log w_i(t_{j-1})) / (t_j - t_{j-1}),
    clamped at 0, bounds the growth over every grid pair and so over the grid,
    which is all the estimate consumes.  A weight that is 0 at both ends of a
    pair does not grow and sets no rate; a pair whose rate is NaN or +inf (a
    weight leaving 0, a NaN weight) admits no c0, and raises ValueError naming
    the first such grid time.  A bound exp(c0 * horizon) * a0 that is no finite
    double raises ValueError naming c0.
    """
    if not chains:
        raise ValueError("energy_estimate needs at least one chain family")
    first = chains[0]
    if any((c.h, c.m, len(c.values)) != (first.h, first.m, len(first.values)) for c in chains):
        raise ValueError("chain families must share h, m and row count")
    times = first.times()
    delta = first.delta
    w = vertex_weights(G, times[0])
    a0 = [weighted_l2_sq(c.values[0], w) for c in chains]
    sup_l2 = list(a0)
    rate = -np.inf
    log_w = np.log(w)
    dissipation = [0.0] * len(chains)
    for rows in _row_blocks(1, len(times), G.n_vertices + G.n_edges):
        span = slice(rows.start, rows.stop)
        W = weight_table(G, times[span])
        # the first pair joins the previous block's last row
        tops = _growth_rates(log_w, W, np.diff(times[rows.start - 1:rows.stop]))
        no_c0 = ~(tops < np.inf)
        if no_c0.any():
            k = int(no_c0.argmax())
            raise ValueError(f"energy_estimate: weight growth rate {tops[k]} at grid "
                             f"time t={times[rows.start + k]:.6g} admits no c0")
        rate = max(rate, tops.max())
        log_w = np.log(W[-1])
        C = conductance_table(G, times[span])
        for f, c in enumerate(chains):
            v = c.values[span]
            sup_l2[f] = max(sup_l2[f], *_row_dots(W, v * v).tolist())
            dissipation[f] = _sum_in_order(dissipation[f], delta * _dirichlet_rows(G, C, v))
    c0 = max(0.0, float(rate))
    try:
        rhs = [math.exp(c0 * first.horizon) * a for a in a0]
    except OverflowError:
        rhs = [math.inf]
    if not all(map(math.isfinite, rhs)):
        raise ValueError(f"c0: exp(c0 * horizon) * ||u0||^2 is not finite for c0={c0}, "
                         f"horizon={first.horizon}")
    return [EnergyReport(sup_l2=sup, dissipation=diss, rhs=bound, c0_used=c0,
                         slack=SLACK, passed=bool(max(sup, diss) <= bound * (1.0 + SLACK)),
                         margin=0.0 if bound == 0.0 else (bound - max(sup, diss)) / bound)
            for sup, diss, bound in zip(sup_l2, dissipation, rhs)]


# ---------------------------------------------------------------------------
# extremum (maximum principle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremumReport:
    lo: float
    hi: float
    worst_violation: float
    tol: float
    passed: bool


def extremum_check(chain: ChainFamily) -> ExtremumReport:
    """Every sample must stay inside [min u0, max u0] up to solver error.

    u0 is the chain's row 0.  The exact steps obey the maximum principle, so a
    computed sample leaves the range by at most its distance from the exact one.
    The tolerance is the largest entry of the chain's ``solve_error`` (0 for
    exact solves), plus a rounding floor of 1e-12 * (max|u0| + 1).
    """
    u0 = chain.values[0]
    lo = float(u0.min())
    hi = float(u0.max())
    produced = chain.values[1:]
    worst = max(float(produced.max()) - hi, lo - float(produced.min()), 0.0)
    tol = 1e-12 * (float(np.max(np.abs(u0))) + 1.0) + float(chain.solve_error.max())
    return ExtremumReport(lo=lo, hi=hi, worst_violation=worst, tol=tol,
                          passed=worst <= tol)


# ---------------------------------------------------------------------------
# contraction / linearity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionReport:
    linearity_residual: float
    linearity_tol: float
    difference_energy: EnergyReport
    passed: bool


def contraction_report(G: TimeWeightedGraph, chain_u: ChainFamily, chain_v: ChainFamily,
                       chain_d: ChainFamily,
                       difference_energy: EnergyReport) -> ContractionReport:
    """Judge chains run from u0, v0 and u0 - v0 on the same grid.

    The sample-wise difference of the first two must match the third (the scheme
    is a fixed linear solve per step), and ``difference_energy``, chain_d's
    ``energy_estimate`` report with the c0 of the other checks, must pass: that
    is the contraction bound between the two solutions.  The linearity
    tolerance is the largest row-wise sum of the three chains' ``solve_error``,
    plus a rounding floor of 1e-9 times the data norms.
    """
    gap = chain_u.values - chain_v.values
    gap -= chain_d.values
    residual = float(np.abs(gap, out=gap).max())
    solve_error = float((chain_u.solve_error + chain_v.solve_error + chain_d.solve_error).max())
    w0 = vertex_weights(G, 0.0)
    tol = solve_error + 1e-9 * (weighted_l2(chain_u.values[0], w0)
                                + weighted_l2(chain_v.values[0], w0))
    return ContractionReport(linearity_residual=residual, linearity_tol=tol,
                             difference_energy=difference_energy,
                             passed=bool(difference_energy.passed and residual <= tol))


# ---------------------------------------------------------------------------
# semi-discrete reference flow
# ---------------------------------------------------------------------------

class OracleError(ValueError):
    """The reference flow failed its halving self-check (or blew up)."""


@dataclass(frozen=True)
class OracleResult:
    """Reference trajectory of u' = -M_t^{-1} S_t u on a uniform grid.

    values[i] is the state at time i*dt, dt = horizon/n_steps, i = 0..n_steps.
    """

    values: np.ndarray
    horizon: float
    self_check: float

    @property
    def n_steps(self) -> int:
        return len(self.values) - 1

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


def semidiscrete_oracle(G: TimeWeightedGraph, u0: np.ndarray, T: float,
                        n_steps: int = 4096, self_check_tol: float = 1e-10) -> OracleResult:
    """Classical RK4 integration of the exact-in-time flow u' = -M_t^{-1} S_t u.

    n_steps must be even and large enough that halving it moves the trajectory
    by less than ``self_check_tol`` in the weighted l2 norm at the coarse grid
    times (checked by actually running both; failure raises).  The step count
    also has to respect RK4's stability window for the stiffest graph mode, so
    err on the large side; the cost is linear in n_steps.

    The fine run (n_steps) and the halved run advance together: each halved
    step follows the two fine steps it spans, and the gap between the two runs
    is measured at its end, so only the fine trajectory is kept.  The windows
    run in blocks, as many as keep the block's operators and coefficient
    tables within ``rows_within_budget``.  A block reads one weight and one
    conductance table over its distinct stage times, the exact floats each run
    computes (``np.unique``), and assembles the rate operator once per time on
    the graph's ``half_edge_layout``: off[k, i] = c / w_i along the half-edge
    in slot k of vertex i, overflow half-edges alike.  A time two consecutive
    blocks share is read by both.  A stage evaluates it in difference form,

        (-M_t^{-1} S_t y)_i = sum_k off[k, i] * (y[nbr[k, i]] - y_i),

    so a constant stays exactly constant.  The coefficient callables are pure,
    so the result is bitwise that of two separate runs on this stage form.  It
    differs from the same RK4 on the edge-list form -stiffness_apply(edges, c, y)
    / w by rounding only, at most 8 * n_steps * eps * max|u0| in the tests.
    """
    u0 = _vertex_values(u0, G, "u0")
    if not (0 < T <= G.horizon + _TIME_FUZZ * max(1.0, G.horizon)):
        raise ValueError(f"T = {T} outside (0, {G.horizon}]")
    if n_steps < 2 or n_steps % 2:
        raise ValueError(f"n_steps must be even and >= 2, got {n_steps}")
    n = G.n_vertices
    layout = half_edge_layout(n, G.edges)
    overflow = len(layout.over_rows) > 0
    half = n_steps // 2
    dt = T / n_steps
    dt_half = T / half
    gathered = np.empty(layout.nbr.shape)
    buffers = np.empty((5, n))

    def read(stage_times: np.ndarray) -> dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Each distinct one of ``stage_times`` (compared exactly), read once, to
        its (off, overflow off, weights); the weights serve the self-check."""
        times = np.unique(stage_times)
        w, c = weight_table(G, times), conductance_table(G, times)
        return dict(zip(times.tolist(), zip(c[:, layout.slot_edge] / w[:, None, :],
                                             c[:, layout.over_edges] / w[:, layout.over_rows],
                                             w)))

    def rate(t: float, y: np.ndarray, out: np.ndarray) -> None:
        off, over_off, _ = ops[t]
        # the indices are in range by construction; mode="raise" would buffer the copy
        diff = y.take(layout.nbr, out=gathered, mode="clip")
        diff -= y
        diff *= off
        np.add.reduce(diff, axis=0, out=out)
        if overflow:
            out += np.bincount(layout.over_rows, minlength=n, weights=over_off
                               * (y[layout.over_cols] - y[layout.over_rows]))

    def rk4_step(t: float, dt: float, y: np.ndarray, out: np.ndarray) -> None:
        """out = y + dt/6 (k1 + 2 k2 + 2 k3 + k4), each operation in that order."""
        k1, k2, k3, k4, stage = buffers
        rate(t, y, k1)
        np.multiply(k1, 0.5 * dt, out=stage)
        stage += y
        rate(t + 0.5 * dt, stage, k2)
        np.multiply(k2, 0.5 * dt, out=stage)
        stage += y
        rate(t + 0.5 * dt, stage, k3)
        np.multiply(k3, dt, out=stage)
        stage += y
        rate(t + dt, stage, k4)
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= dt / 6.0
        np.add(y, k2, out=out)

    fine = np.empty((n_steps + 1, n))
    fine[0] = u0
    y_half = u0.copy()
    self_check = 0.0
    # a window computes at most 10 stage times, rk4_step's and the self-check's
    windows = rows_within_budget(
        10 * (layout.nbr.size + len(layout.over_rows) + n + G.n_edges))
    for first in range(0, half, windows):
        window = np.arange(first, min(first + windows, half))
        # the floats rk4_step and the self-check compute, in the same operations
        t_fine, t_next, t_half = 2 * window * dt, (2 * window + 1) * dt, window * dt_half
        ops = read(np.concatenate([
            t_fine, t_fine + 0.5 * dt, t_fine + dt, t_next, t_next + 0.5 * dt, t_next + dt,
            t_half, t_half + 0.5 * dt_half, t_half + dt_half, (window + 1) * dt_half]))
        # a step past RK4's stability window overflows; the self-check below fails it
        with np.errstate(over="ignore", invalid="ignore"):
            for i in window.tolist():
                rk4_step(2 * i * dt, dt, fine[2 * i], fine[2 * i + 1])
                rk4_step((2 * i + 1) * dt, dt, fine[2 * i + 1], fine[2 * i + 2])
                rk4_step(i * dt_half, dt_half, y_half, y_half)
                w_end = ops[(i + 1) * dt_half][2]
                # np.maximum keeps a NaN gap (both runs overflowed), which max() would drop
                self_check = float(np.maximum(self_check,
                                              weighted_l2(fine[2 * i + 2] - y_half, w_end)))
    if not (self_check < self_check_tol):  # NaN from a blown-up run fails too
        raise OracleError(
            f"oracle self-check failed: halving n_steps={n_steps} moves the "
            f"trajectory by {self_check:.3e} (tolerance {self_check_tol:.1e})")
    return OracleResult(fine, float(T), self_check)


def oracle_value_at(oracle: OracleResult, t) -> np.ndarray:
    """Oracle trajectory at time t, linearly interpolated between grid samples; at
    a 1-D array of times, one row per time, each bitwise the row at that time alone."""
    pos = np.asarray(t, dtype=float) / oracle.dt
    i = np.clip(np.floor(pos + _TIME_FUZZ), 0, oracle.n_steps).astype(np.intp)
    frac = (pos - i)[..., None]
    value = (1.0 - frac) * oracle.values[i]
    value += frac * oracle.values[np.minimum(i + 1, oracle.n_steps)]
    on_grid = (frac <= _TIME_FUZZ) | (i == oracle.n_steps)[..., None]
    np.copyto(value, oracle.values[i], where=on_grid)
    return value


# ---------------------------------------------------------------------------
# convergence table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    m: int
    error: float
    observed_order: Optional[float]


def chain_error_vs_oracle(chain: ChainFamily, G: TimeWeightedGraph,
                          oracle: OracleResult) -> float:
    """max over chain grid times of the weighted l2 distance to the oracle.

    The grid rows come in blocks of ``rows_within_budget`` rows, one weight table
    and one ``oracle_value_at`` call per block, and the result is bitwise the
    max over the rows one at a time."""
    times = chain.times()
    err = 0.0
    for rows in _row_blocks(0, len(times), G.n_vertices):
        span = slice(rows.start, rows.stop)
        gap = chain.values[span] - oracle_value_at(oracle, times[span])
        gap *= gap
        sq = _row_dots(weight_table(G, times[span]), gap)
        err = max(err, *map(math.sqrt, sq.tolist()))
    return err


def convergence_table(G: TimeWeightedGraph, u0: np.ndarray, h_list, m: int = 1,
                      oracle_steps: int = 4096, rel_tol: float = 1e-10) -> list[ConvergenceRow]:
    """Errors of chain runs from u0 against the semi-discrete oracle for each h.

    One ``run_sweep`` steps every h of h_list in lockstep.  observed_order
    between consecutive rows is log(err ratio)/log(h ratio); it is None on the
    first row and whenever an error sits at rounding level (below 1e-13), where
    the quotient measures noise.  Every h is checked against the horizon before
    the oracle runs.
    """
    for h in h_list:
        steps_within_horizon(G.horizon, float(h))
    oracle = semidiscrete_oracle(G, u0, G.horizon, oracle_steps)
    rows: list[ConvergenceRow] = []
    prev: Optional[ConvergenceRow] = None
    families = run_sweep(G, [u0], [float(h) for h in h_list], m, rel_tol=rel_tol)
    for h, [chain] in zip(h_list, families):
        err = chain_error_vs_oracle(chain, G, oracle)
        order = None
        if prev is not None and prev.error > 1e-13 and err > 1e-13 and prev.h != h:
            order = math.log(prev.error / err) / math.log(prev.h / h)
        row = ConvergenceRow(h=float(h), m=int(m), error=err, observed_order=order)
        rows.append(row)
        prev = row
    return rows


def fit_order(rows: list[ConvergenceRow]) -> Optional[float]:
    """Least-squares slope of log error on log h (errors > 1e-13); None without two distinct h."""
    pts = [(math.log(r.h), math.log(r.error)) for r in rows if r.error > 1e-13]
    if len({x for x, _ in pts}) < 2:
        return None
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    xs = xs - xs.mean()
    return float(np.dot(xs, ys - ys.mean()) / np.dot(xs, xs))


# ---------------------------------------------------------------------------
# weak-form residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Separable space-time test function psi(x) * phi(t) with exact phi'."""

    name: str
    space: np.ndarray
    profile: Callable[[float], float]
    profile_dt: Callable[[float], float]


def default_test_catalog(G: TimeWeightedGraph, T: float) -> list[TestFunction]:
    """Low spatial harmonics times {sin(pi t/T), t(T-t)/T^2}, both vanishing at 0 and T.

    A graph without coordinates has only the harmonics k < n; the others are left out.
    """
    catalog = []
    for k in (k for k in (1, 2) if G.coords is not None or k < G.n_vertices):
        psi = make_initial_data(G, {"profile": "harmonic", "k": k})
        catalog.append(TestFunction(
            name=f"k{k}_sin", space=psi,
            profile=lambda t, T=T: math.sin(math.pi * t / T),
            profile_dt=lambda t, T=T: (math.pi / T) * math.cos(math.pi * t / T)))
        catalog.append(TestFunction(
            name=f"k{k}_poly", space=psi,
            profile=lambda t, T=T: t * (T - t) / T ** 2,
            profile_dt=lambda t, T=T: (T - 2.0 * t) / T ** 2))
    return catalog


@dataclass(frozen=True)
class WeakResidualRow:
    name: str
    residual: float
    normalization: float


def weak_residual(chain: ChainFamily, G: TimeWeightedGraph,
                  test_fns: list[TestFunction]) -> list[WeakResidualRow]:
    """Defect of the chain family in the weak formulation, per test function.

    Left-endpoint quadrature over j = 0..N*m-1 of

        sum_i u_j,i psi_i (w_i(t_j) phi'(t_j) - phi(t_j) loss_j,i)
      - sum_e c_e(t_j) (u_j,i - u_j,i') (psi_i - psi_i') phi(t_j)

    where loss_j = (w(t_j) - w(t_{j+1})) / delta is the forward volume loss over
    one delta; no term divides by a weight, so a weight of 0 is harmless.  Shrinks
    like O(h) as the chain refines.  Profiles must vanish at t = 0 and the horizon.
    The grid times come in blocks of ``rows_within_budget`` rows, each block's
    terms in whole-block operations, and each sum adds its terms left to right
    in j, so every row is bitwise the one a loop over j gives.
    """
    delta = chain.delta
    T = chain.horizon
    nm = len(chain.values) - 1
    phis, dphis = [], []
    for fn in test_fns:
        phi = np.array([fn.profile(j * delta) for j in range(nm)])
        scale = float(np.max(np.abs(phi))) if nm else 0.0
        for endpoint in (0.0, T):
            if abs(fn.profile(endpoint)) > 1e-12 * (scale + 1.0):
                raise ValueError(f"test function {fn.name}: profile must vanish "
                                 f"at t={endpoint}, got {fn.profile(endpoint)}")
        phis.append(phi)
        dphis.append(np.array([fn.profile_dt(j * delta) for j in range(nm)]))

    # a block of grid times at a time, from tables of ``rows_within_budget`` rows;
    # each weight row is read once and carried into the next block's first loss
    d_psis = [_edge_gaps(G, fn.space) for fn in test_fns]
    psi_sqs = [fn.space * fn.space for fn in test_fns]
    acc = [0.0] * len(test_fns)
    norm = [0.0] * len(test_fns)
    w_next = vertex_weights(G, 0.0)
    for js in _row_blocks(0, nm, G.n_vertices + G.n_edges):
        # W[k] is the weight row at t_{js.start + k}, k = 0..len(js)
        W = np.concatenate([w_next[None], weight_table(G, [(j + 1) * delta for j in js])])
        C = conductance_table(G, [j * delta for j in js])
        w, w_next = W[:-1], W[-1]
        u = chain.values[js.start:js.stop]
        wu = w * u
        loss_u = w - W[1:]
        loss_u /= delta
        loss_u *= u
        d_u = _edge_gaps(G, u)
        for f, fn in enumerate(test_fns):
            phi, dphi = phis[f][js.start:js.stop], dphis[f][js.start:js.stop]
            mass_term = dphi * _row_dots(wu, fn.space) - phi * _row_dots(loss_u, fn.space)
            energy_term = phi * _row_dots(C, d_u * d_psis[f])
            acc[f] = _sum_in_order(acc[f], delta * (mass_term - energy_term))
            norm[f] = _sum_in_order(norm[f],
                                    delta * np.abs(phi) * np.sqrt(_row_dots(w, psi_sqs[f])))
    return [WeakResidualRow(name=fn.name, residual=abs(a), normalization=nrm)
            for fn, a, nrm in zip(test_fns, acc, norm)]


# ---------------------------------------------------------------------------
# attainment of the initial value, interpolation norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttainmentReport:
    """Outcome of ``initial_attainment_check`` at one grid time t_small."""

    t_small: float
    distance: float
    minimality_bound_sq: float
    solver_error: float
    passed: bool


def initial_attainment_check(chain: ChainFamily, G: TimeWeightedGraph,
                             t_small: float) -> AttainmentReport:
    """Weighted l2 distance of the sample at t_small from u0 (row 0), less its solver
    error, judged by the minimality bound dist^2 <= h * energy(u0, t_small).  The
    solver error is the row's ``solve_error`` entry times sqrt(sum w), with the
    weights the distance uses.

    t_small must be a grid time (within 1e-9) in (0, h]: the bound holds for the
    first-chain samples, one full step from u0, and no later.  At fixed t_small/h
    the distance shrinks like sqrt(h) or better; at fixed h it does NOT tend to 0
    with t_small.  The 1e-30 floor admits a rounding distance where the bound is
    0 (constant u0) and the solves were exact.
    """
    delta = chain.delta
    j = int(round(t_small / delta))
    if abs(j * delta - t_small) > _TIME_FUZZ * max(1.0, chain.horizon):
        raise ValueError(f"t_small = {t_small} is not on the delta-grid "
                         f"(delta = {delta})")
    if not (1 <= j <= chain.m):
        raise ValueError(f"t_small = {t_small} outside the first step (0, {chain.h}]")
    w = vertex_weights(G, j * delta)
    u0 = chain.values[0]
    distance = weighted_l2(chain.values[j] - u0, w)
    bound = chain.h * dirichlet_energy(G, t_small, u0)
    solver_error = float(chain.solve_error[j]) * math.sqrt(float(w.sum()))
    passed = max(distance - solver_error, 0.0) ** 2 <= bound * (1.0 + SLACK) + 1e-30
    return AttainmentReport(float(t_small), distance, bound, solver_error, passed)


def l2h1_interp_norm(values: np.ndarray, times, G: TimeWeightedGraph, dt: float) -> float:
    """sum_j dt * energy(values[j], times[j]) over the rows of ``values``.

    One conductance table per block of ``rows_within_budget`` rows, each block's
    energies in whole-block operations, the terms added left to right in row
    order: bitwise the row-by-row sum."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != G.n_vertices:
        raise ValueError(f"values has shape {values.shape}, expected (rows, {G.n_vertices})")
    times = np.asarray(times, dtype=float)
    total = 0.0
    for rows in _row_blocks(0, len(values), G.n_edges):
        span = slice(rows.start, rows.stop)
        C = conductance_table(G, times[span])
        total = _sum_in_order(total, dt * _dirichlet_rows(G, C, values[span]))
    return total


def degiorgi_family(G: TimeWeightedGraph, seq: np.ndarray, h: float, m: int,
                    rel_tol: float = 1e-10) -> np.ndarray:
    """Resolvent interpolation of the step sequence ``seq`` (rows u_0..u_N) on the
    delta-grid: row j - 1 is the value at t = j*delta, j = 1..N*m.

    At t = (k-1)*h + s, s in (0, h], it solves (M_t + s S_t) u = M_t u_{k-1}:
    s -> 0 returns u_{k-1} and s = h reproduces u_k's defining system, but never
    the shifted chains' intermediate samples, whose proximal weight stays 1/h.
    No solve reads another, so the m grid times of each step interval form a
    round, and as many rounds as ``rounds_ahead`` allows are prepared in one
    ``spd_prepare`` call, from one weight and one conductance table, and solved
    in one ``spd_solve_prepared`` call.  Raises ValueError before any solve
    unless h > 0, m is an integer >= 1 and seq is finite, with N >= 1 and one
    column per vertex.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    seq = np.asarray(seq, dtype=float)
    if seq.ndim != 2 or seq.shape[1] != G.n_vertices:
        raise ValueError(f"seq has shape {seq.shape}, expected (N + 1, {G.n_vertices})")
    if not np.isfinite(seq).all():
        raise ValueError("seq must be finite")
    N = len(seq) - 1
    if N < 1:
        raise ValueError("seq must contain the initial value and at least one step")
    delta = h / m
    out = np.empty((N * m, G.n_vertices))
    first = 0  # the step intervals solved in one call: first, ..., stop - 1
    while first < N:
        stop = first + rounds_ahead([m] * (N - first), G.plan)
        rows = range(first * m, stop * m)  # row i: t = (i + 1)*delta in interval i // m
        times = [(i + 1) * delta for i in rows]
        weights = weight_table(G, times)
        prepared = spd_prepare(G.plan, weights, conductance_table(G, times),
                               [t - (i // m) * h for i, t in zip(rows, times)])
        rhs = weights * np.repeat(seq[first:stop], m, axis=0)
        out[rows.start:rows.stop] = spd_solve_prepared(prepared, rhs[:, None], rel_tol)[:, 0]
        first = stop
    return out
