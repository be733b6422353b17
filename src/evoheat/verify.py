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

The checks read the grid rows in ``linalg.blocks``, one coefficient table per
block, and do each block's arithmetic whole: per-row dot products by
``_row_dots``, the same BLAS call ``np.dot`` makes, and running sums added left
to right in row order by ``_sum_in_order``, so every report is bitwise the one a
row-by-row loop gives.

Every check reads the initial value from the chain's row 0.  The checks that
allow for solver error take the run's ``rel_tol`` and certify its solves from
the stored rows (``solve_error``), not on the stepper's word.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (_TIME_FUZZ, TimeWeightedGraph, conductance_table, dirichlet_energy,
                       vertex_weights, weight_table)
from .linalg import (SolverError, blocks, half_edge_layout, prepared_floats, spd_prepare,
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
    "solve_error",
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


def _one_grid(chains: list[ChainFamily], who: str) -> ChainFamily:
    """The first of ``chains``, which must be nonempty and share h, m and row count."""
    if not chains:
        raise ValueError(f"{who} needs at least one chain family")
    first = chains[0]
    if any((c.h, c.m, len(c.values)) != (first.h, first.m, len(first.values)) for c in chains):
        raise ValueError("chain families must share h, m and row count")
    return first


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
    row 0.  Each grid row's coefficients are read once for all of them, one
    table per block of rows from ``blocks``, and each family's block of rows is
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
    first = _one_grid(chains, "energy_estimate")
    times = first.times()
    delta = first.delta
    w = vertex_weights(G, times[0])
    a0 = [weighted_l2_sq(c.values[0], w) for c in chains]
    sup_l2 = list(a0)
    rate = -np.inf
    log_w = np.log(w)
    dissipation = [0.0] * len(chains)
    for block in blocks([G.n_vertices + G.n_edges] * (len(times) - 1)):
        rows = range(block.start + 1, block.stop + 1)  # the grid rows from 1 on
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
# solver-error certificate, extremum (maximum principle)
# ---------------------------------------------------------------------------

def solve_error(chains: list[ChainFamily], G: TimeWeightedGraph, rel_tol: float) -> np.ndarray:
    """Solver-error certificate of each chain family solved to ``rel_tol``: entry
    [f, j] bounds how far row j of family f lies from the exact steps, sup norm.

    Row j solves (M_t + h S_t) x = M_t x_prev, t = j*delta, x_prev its row j - m,
    to a residual of at most rel_tol * ||M_t x_prev||_2, and the matrix is
    diagonally dominant by w(t), so x misses the exact step by at most that over
    min_i w_i(t) (Varah 1975).  The exact step is a sup-norm contraction, so the
    terms add up along each chain (``np.add.accumulate`` over the (N, m) rows),
    each family alone; an overflow leaves inf, which the checks refuse.
    """
    first = _one_grid(chains, "solve_error")
    times, m = first.times(), first.m
    bound = np.zeros((len(chains), len(times)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for block in blocks([3 * G.n_vertices] * (len(times) - 1)):  # w, rhs and its squares
            rows = np.arange(block.start + 1, block.stop + 1)  # the grid rows from 1 on
            W = weight_table(G, times[rows])
            for f, c in enumerate(chains):
                norms = np.linalg.norm(c.values[np.maximum(rows - m, 0)] * W, axis=-1)
                bound[f, rows] = rel_tol * norms / W.min(axis=1)
        by_step = bound[:, 1:].reshape(len(chains), -1, m)  # a view: [f, r, i] is row r*m + i + 1
        np.add.accumulate(by_step, axis=1, out=by_step)
    return bound


def _certified(tol: float, t: float, h: float) -> float:
    """``tol``, or SolverError naming grid time t if it is not finite (it would pass anything)."""
    if not math.isfinite(tol):
        raise SolverError(f"the solver-error certificate at t = {t:.6g} (h = {h:g}) "
                          "is not finite", math.nan)
    return tol


@dataclass(frozen=True)
class ExtremumReport:
    lo: float
    hi: float
    worst_violation: float
    tol: float
    passed: bool


def extremum_check(chain: ChainFamily, G: TimeWeightedGraph, rel_tol: float) -> ExtremumReport:
    """Every sample must stay inside [min u0, max u0] up to solver error.

    u0 is the chain's row 0.  The exact steps obey the maximum principle, so a
    computed sample leaves the range by at most its distance from the exact one.
    The tolerance is the largest entry of the chain's ``solve_error`` at ``rel_tol``
    (0 for exact solves) plus a rounding floor of 1e-12 * (max|u0| + 1), or
    SolverError if not finite.
    """
    u0 = chain.values[0]
    lo = float(u0.min())
    hi = float(u0.max())
    produced = chain.values[1:]
    worst = max(float(produced.max()) - hi, lo - float(produced.min()), 0.0)
    errors = solve_error([chain], G, rel_tol)[0]
    tol = _certified(1e-12 * (float(np.max(np.abs(u0))) + 1.0) + float(errors.max()),
                     chain.times()[errors.argmax()], chain.h)
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
                       chain_d: ChainFamily, difference_energy: EnergyReport,
                       rel_tol: float) -> ContractionReport:
    """Judge chains run from u0, v0 and u0 - v0 on the same grid.

    The sample-wise difference of the first two must match the third (the scheme
    is a fixed linear solve per step), and ``difference_energy``, chain_d's
    ``energy_estimate`` report with the c0 of the other checks, must pass: that
    is the contraction bound between the two solutions.  The linearity tolerance
    is the largest row-wise sum of the three chains' ``solve_error`` at ``rel_tol``
    plus a rounding floor of 1e-9 times the data norms, or SolverError if not finite.
    """
    gap = chain_u.values - chain_v.values
    gap -= chain_d.values
    residual = float(np.abs(gap, out=gap).max())
    w0 = vertex_weights(G, 0.0)
    floor = 1e-9 * (weighted_l2(chain_u.values[0], w0) + weighted_l2(chain_v.values[0], w0))
    with np.errstate(over="ignore", invalid="ignore"):
        errors = sum(solve_error([chain_u, chain_v, chain_d], G, rel_tol))
    tol = _certified(float(errors.max()) + floor, chain_u.times()[errors.argmax()], chain_u.h)
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

    The fine run (n_steps) and the halved run advance in lockstep, one window
    per halved step i.  The fine run's even step 2i and the halved step i are
    one RK4 step on a (2, n) state, row 0 the fine run's and row 1 the halved
    run's, each row with its own stage operators and step length; the odd fine
    step 2i + 1 follows alone.  The gap between the runs is taken at the end of
    the window, time (i + 1) * dt_half, so only the fine trajectory is kept.

    The windows run in ``blocks``.  A block reads one weight and one
    conductance table over its distinct stage times, the exact floats each run
    computes (``np.unique``), and assembles the rate operator once per time on
    the graph's ``half_edge_layout``: off[k, i] = c / w_i along the half-edge
    in slot k of vertex i, overflow half-edges alike.  Fancy indexing stacks
    each window's nine stage operators (start, middle and end of its three
    steps): six for the two-row step and three for the lone one, each stage's
    contiguous.  A window counts against ``PREPARE_BUDGET`` at ten stage times'
    coefficient rows and operators, nine stacked operators and five vertex rows
    (its three states and two of the self-check).  A time two consecutive
    blocks share is read by both.  A stage evaluates the rate in difference
    form,

        (-M_t^{-1} S_t y)_i = sum_k off[k, i] * (y[nbr[k, i]] - y_i),

    so a constant stays exactly constant.  Each row goes through the
    operations of a one-row run in the same order, and the coefficient
    callables are pure, so the result is bitwise that of two separate runs on
    this stage form.  It differs from the same RK4 on the edge-list form
    -stiffness_apply(edges, c, y) / w by rounding only, at most
    8 * n_steps * eps * max|u0| in the tests.
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
    # the step lengths a window's three steps take: fine even, halved, fine odd
    step_lengths = np.array([dt, dt_half, dt])
    stage_offsets = np.array([0.0 * step_lengths, 0.5 * step_lengths, step_lengths])
    # each step's start is a multiple of its length: 2i dt, i dt_half, (2i + 1) dt
    slot_scale, slot_shift = np.array([2, 1, 2]), np.array([0, 0, 1])
    # (dt, dt / 2, dt / 6) as whole rows, row 0 the fine run's and row 1 the halved
    # run's: a full row multiplies faster than a scalar or a broadcast column
    row_dt = np.repeat(step_lengths[:2, None], n, axis=1)
    pair_steps = (row_dt, 0.5 * row_dt, row_dt / 6.0)
    lone_steps = tuple(step[0] for step in pair_steps)
    # the neighbour of half-edge slot k of vertex i in row r, at r * n + nbr[k, i] of
    # the raveled (2, n) state, so a (K, 2, n) gather broadcasts against the state,
    # and the overflow half-edges' rows offset likewise for one bincount
    pair_nbr = layout.nbr[:, None, :] + n * np.arange(2)[:, None]
    over_bins = (layout.over_rows + n * np.arange(2)[:, None]).ravel()
    buffers = np.empty((5, 2, n))
    pair_scratch = (pair_nbr, np.empty(pair_nbr.shape), *buffers)
    lone_scratch = (layout.nbr, np.empty(layout.nbr.shape), *buffers[:, 0])

    def rate(off: np.ndarray, over_off: np.ndarray, y: np.ndarray, out: np.ndarray,
             nbr: np.ndarray, gathered: np.ndarray) -> None:
        """out = -M^{-1} S y for the contiguous state y of one row (n,) or two (2, n),
        each row on its own operator: ``off`` is (K, n) or (K, 2, n), ``over_off``
        (n_over,) or (2, n_over)."""
        # the indices are in range by construction; mode="raise" would buffer the copy
        diff = y.take(nbr, out=gathered, mode="clip")
        diff -= y
        diff *= off
        np.add.reduce(diff, axis=0, out=out)
        if overflow:
            flow = y[..., layout.over_cols] - y[..., layout.over_rows]
            flow *= over_off
            out += np.bincount(over_bins[:flow.size], weights=flow.ravel(),
                               minlength=out.size).reshape(out.shape)

    def rk4_step(offs: np.ndarray, overs: np.ndarray, steps, y: np.ndarray,
                 out: np.ndarray, scratch) -> None:
        """out = y + dt/6 (k1 + 2 k2 + 2 k3 + k4), each operation in that order, on
        the stage operators (offs[s], overs[s]) at the step's start, middle and end."""
        step, half_step, sixth = steps
        nbr, gathered, k1, k2, k3, k4, stage = scratch
        rate(offs[0], overs[0], y, k1, nbr, gathered)
        np.multiply(k1, half_step, out=stage)
        stage += y
        rate(offs[1], overs[1], stage, k2, nbr, gathered)
        np.multiply(k2, half_step, out=stage)
        stage += y
        rate(offs[1], overs[1], stage, k3, nbr, gathered)
        np.multiply(k3, step, out=stage)
        stage += y
        rate(offs[2], overs[2], stage, k4, nbr, gathered)
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= sixth
        np.add(y, k2, out=out)

    table = layout.nbr.size + len(layout.over_rows)
    # ten stage times' tables and operators, nine stacked operators, five vertex rows
    window_floats = 10 * (n + G.n_edges + table) + 9 * table + 5 * n
    windows = list(blocks([window_floats] * half))
    most = max(map(len, windows))
    # a block's states: window j's fine state 2i, halved state i and fine state 2i + 1
    # at states[j], so the two-row step reads two adjacent rows and writes fine 2i + 1
    # and the next window's halved state, two rows apart
    states = np.empty((most + 1, 3, n))
    states[0, :2] = u0
    rows = states.reshape(-1, n)
    pair_ends = [rows[3 * j + 2:3 * j + 5:2] for j in range(most)]
    fine = np.empty((n_steps + 1, n))
    fine[0] = u0
    self_check = 0.0
    for block in windows:
        size = len(block)
        window = np.arange(block.start, block.stop)
        # the floats a one-row run computes, in the same operations: stage_times[j, s, r]
        # is window j's stage s (start, middle, end) of the fine even step (r = 0), the
        # halved step (1) and the fine odd step (2)
        starts = (np.multiply.outer(window, slot_scale) + slot_shift) * step_lengths
        stage_times = starts[:, None, :] + stage_offsets
        times, index = np.unique(np.concatenate([stage_times.ravel(), (window + 1) * dt_half]),
                                 return_inverse=True)
        w, c = weight_table(G, times), conductance_table(G, times)
        stage_index = index[:stage_times.size].reshape(stage_times.shape)
        off = c[:, layout.slot_edge] / w[:, None, :]
        over_off = c[:, layout.over_edges] / w[:, layout.over_rows]
        # window j's stage s operators, each contiguous: pair_offs[j, s] (K, 2, n) of
        # its two-row step, lone_offs[j, s] (K, n) of its odd fine step
        pair_offs = off[stage_index[:, :, None, :2], np.arange(len(layout.nbr))[:, None]]
        lone_offs = off[stage_index[:, :, 2]]
        pair_overs, lone_overs = over_off[stage_index[:, :, :2]], over_off[stage_index[:, :, 2]]
        # a step past RK4's stability window overflows; the self-check below fails it
        with np.errstate(over="ignore", invalid="ignore"):
            for pair, pair_end, odd, even, pair_off, pair_over, lone_off, lone_over in zip(
                    states[:, :2], pair_ends, states[:, 2], states[1:, 0],
                    pair_offs, pair_overs, lone_offs, lone_overs):
                rk4_step(pair_off, pair_over, pair_steps, pair, pair_end, pair_scratch)
                rk4_step(lone_off, lone_over, lone_steps, odd, even, lone_scratch)
            ends = states[1:size + 1]
            odd_even = fine[2 * block.start + 1:2 * block.stop + 1].reshape(size, 2, n)
            odd_even[:, 0] = states[:size, 2]
            odd_even[:, 1] = ends[:, 0]
            gaps = ends[:, 0] - ends[:, 1]
            gaps *= gaps
            # np.maximum keeps a NaN gap (both runs overflowed), which max() would drop
            self_check = float(np.maximum.reduce(
                np.sqrt(_row_dots(w[index[stage_times.size:]], gaps)), initial=self_check))
        states[0] = states[size]
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

    The grid rows come in ``blocks``, one weight table and one
    ``oracle_value_at`` call per block, and the result is bitwise the max over
    the rows one at a time."""
    times = chain.times()
    err = 0.0
    for rows in blocks([G.n_vertices] * len(times)):
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
    The grid times come in ``blocks``, each block's terms in whole-block
    operations, and each sum adds its terms left to right in j, so every row is
    bitwise the one a loop over j gives.
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

    # a block of grid times at a time, one table each; each weight row is read
    # once and carried into the next block's first loss
    d_psis = [_edge_gaps(G, fn.space) for fn in test_fns]
    psi_sqs = [fn.space * fn.space for fn in test_fns]
    acc = [0.0] * len(test_fns)
    norm = [0.0] * len(test_fns)
    w_next = vertex_weights(G, 0.0)
    for js in blocks([G.n_vertices + G.n_edges] * nm):
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


def initial_attainment_check(chain: ChainFamily, G: TimeWeightedGraph, t_small: float,
                             rel_tol: float) -> AttainmentReport:
    """Weighted l2 distance of the sample at t_small from u0 (row 0), less its solver
    error, judged by the minimality bound dist^2 <= h * energy(u0, t_small).  The
    solver error is the row's ``solve_error`` at ``rel_tol`` times sqrt(sum w), with
    the weights the distance uses; one that is not finite raises SolverError.

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
    solver_error = _certified(float(solve_error([chain], G, rel_tol)[0, j])
                              * math.sqrt(float(w.sum())), j * delta, chain.h)
    passed = max(distance - solver_error, 0.0) ** 2 <= bound * (1.0 + SLACK) + 1e-30
    return AttainmentReport(float(t_small), distance, bound, solver_error, passed)


def l2h1_interp_norm(values: np.ndarray, times, G: TimeWeightedGraph, dt: float) -> float:
    """sum_j dt * energy(values[j], times[j]) over the rows of ``values``.

    One conductance table per block of rows from ``blocks``, each block's
    energies in whole-block operations, the terms added left to right in row
    order: bitwise the row-by-row sum."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != G.n_vertices:
        raise ValueError(f"values has shape {values.shape}, expected (rows, {G.n_vertices})")
    times = np.asarray(times, dtype=float)
    total = 0.0
    for rows in blocks([G.n_edges] * len(values)):
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
    round, and each ``blocks`` batch of rounds is prepared in one ``spd_prepare``
    call, from one weight and one conductance table, and solved in one
    ``spd_solve_prepared`` call.  Raises ValueError before any solve
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
    for steps in blocks([m * prepared_floats(G.plan)] * N):  # step intervals solved at once
        rows = range(steps.start * m, steps.stop * m)  # row i: t = (i+1)*delta, interval i // m
        times = [(i + 1) * delta for i in rows]
        weights = weight_table(G, times)
        prepared = spd_prepare(G.plan, weights, conductance_table(G, times),
                               [t - (i // m) * h for i, t in zip(rows, times)])
        rhs = weights * np.repeat(seq[steps.start:steps.stop], m, axis=0)
        out[rows.start:rows.stop] = spd_solve_prepared(prepared, rhs[:, None], rel_tol)[:, 0]
    return out
