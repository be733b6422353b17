"""Acceptance battery.

One test per criterion; each prints a single "criterion NN PASS/FAIL: ..." line
(collected again in the terminal summary by conftest).  Tolerances are part of
the criteria and are not to be loosened here.
"""

import math

import numpy as np
import pytest

import evoheat as eh
from evoheat.geometry import Scenario

from helpers import (dense_solve, exact_solves, growth_reference, random_static_graph,
                     step_operator)

MATRIX_REL_TOL = 1e-12
SLACK = 1e-8

CATALOG = [
    Scenario(kind="static_circle", T=1.0, params={"n": 64}),
    Scenario(kind="conformal_circle", T=1.0, params={"n": 64}),
    Scenario(kind="product_torus", T=1.0, params={"nx": 32, "ny": 32}),
    Scenario(kind="shrinking_sphere_analogue", T=1.0, params={}),
    Scenario(kind="pinching_circle", T=1.0, params={"n": 128}),
    Scenario(kind="oscillating_metric", T=1.0, params={"n": 64}),
]
H_M = [(0.1, 1), (0.1, 4), (0.02, 1), (0.02, 4)]


@pytest.fixture(scope="module")
def matrix_runs():
    """Chain families for every catalog scenario and (h, m) pair, random data."""
    runs = []
    for idx, spec in enumerate(CATALOG):
        G = eh.build_scenario(spec)
        rng = np.random.default_rng(100 + idx)
        u0 = rng.standard_normal(G.n_vertices)
        for h, m in H_M:
            chain = eh.run_sweep(G, [u0], [h], m, rel_tol=MATRIX_REL_TOL)[0][0]
            runs.append((spec, G, u0, chain))
    return runs


def test_criterion_01_energy_estimate(matrix_runs, criterion_line):
    failures = []
    for spec, G, u0, chain in matrix_runs:
        [rep] = eh.energy_estimate([chain], G, slack=SLACK)
        if not rep.passed:
            failures.append((spec.kind, chain.h, chain.m, rep))
    ok = criterion_line(
        1, not failures,
        "energy estimate on 6 scenarios x h in {0.1, 0.02} x m in {1, 4}, slack 1e-8")
    assert ok, failures


def test_criterion_02_pinching_stress(criterion_line):
    # drive the largest |d/dt log conductance| through 10, 100, 1000 by placing
    # the pinch amplitude so the rate is attained at the half-edge sample nearest
    # the pinch point at t = T
    n, T, q = 128, 1.0, 2.0
    dx = 2 * math.pi / n
    shape_at_half_edge = ((1 + math.cos(dx / 2)) / 2) ** q
    failures = []
    for speed in (10.0, 100.0, 1000.0):
        rho = speed / (1.0 + T * speed)
        amp = rho / shape_at_half_edge
        spec = Scenario(kind="pinching_circle", T=T,
                        params={"n": n, "amplitude": amp, "sharpness": q})
        G = eh.build_scenario(spec)

        grid = np.linspace(0.0, T, 2001)
        logc = np.log(np.array([eh.edge_conductances(G, float(t)) for t in grid]))
        realized = float(np.max(np.diff(logc, axis=0) / np.diff(grid)[:, None]))
        rate_ok = 0.8 * speed <= realized <= speed * (1 + 1e-6)

        u0 = np.random.default_rng(42).standard_normal(n)
        chain = eh.run_sweep(G, [u0], [0.05], m=2, rel_tol=MATRIX_REL_TOL)[0][0]
        [rep] = eh.energy_estimate([chain], G, slack=SLACK)
        if not (rate_ok and rep.c0_used == 0.0 and rep.passed and rep.margin >= 0.0):
            failures.append((speed, realized, rep))
    ok = criterion_line(
        2, not failures,
        "pinching: certified growth bound stays 0, margins stay >= 0 "
        "at conductance log-speeds 10, 100, 1000")
    assert ok, failures


def test_criterion_03_maximum_principle(matrix_runs, criterion_line):
    failures = []
    for spec, G, u0, chain in matrix_runs:
        rep = eh.extremum_check(exact_solves(chain))
        if not rep.passed:
            failures.append((spec.kind, chain.h, chain.m, rep))
    ok = criterion_line(
        3, not failures,
        "maximum principle on the matrix, violation <= 1e-12 * (max|u0| + 1)")
    assert ok, failures


def test_criterion_04_contraction_pairs(criterion_line):
    h, m = 0.1, 2
    failures = []
    for idx, spec in enumerate(CATALOG):
        G = eh.build_scenario(spec)
        rng = np.random.default_rng(500 + idx)
        for pair in range(10):
            u0 = rng.standard_normal(G.n_vertices)
            v0 = rng.standard_normal(G.n_vertices)
            d0 = u0 - v0
            chains = eh.run_sweep(G, [u0, v0, d0], [h], m, rel_tol=MATRIX_REL_TOL)[0]
            [energy_d] = eh.energy_estimate(chains[2:], G, slack=SLACK)
            rep = eh.contraction_report(G, *chains, energy_d)
            if not rep.passed:
                failures.append((spec.kind, pair, rep))
    ok = criterion_line(
        4, not failures,
        "contraction and linearity on 10 random pairs per scenario "
        "(tol: solver-derived bound plus a 1e-9 * data norms rounding floor)")
    assert ok, failures


def test_criterion_05_convergence_order(criterion_line):
    spec = Scenario(kind="static_circle", T=1.0, params={"n": 64})
    G = eh.build_scenario(spec)
    u0 = eh.make_initial_data(G, {"profile": "harmonic", "k": 1})
    oracle = eh.semidiscrete_oracle(G, u0, 1.0, n_steps=4800)
    h_list = [0.1, 0.05, 0.025, 0.0125]
    rows = []
    prev = None
    for h in h_list:
        chain = eh.run_sweep(G, [u0], [h], m=1, rel_tol=MATRIX_REL_TOL)[0][0]
        err = eh.chain_error_vs_oracle(chain, G, oracle)
        order = None
        if prev is not None:
            order = math.log(prev[1] / err) / math.log(prev[0] / h)
        rows.append(eh.ConvergenceRow(h=h, m=1, error=err, observed_order=order))
        prev = (h, err)
    order = eh.fit_order(rows)
    ok = criterion_line(
        5, (oracle.self_check < 1e-10 and rows[-1].error < rows[0].error
            and order is not None and 0.8 <= order <= 1.2),
        f"first-order convergence to the reference flow "
        f"(fitted order {order:.3f}, oracle self-check {oracle.self_check:.2e})")
    assert ok, rows


def _solver_floor(G, chain, fn):
    """How far fn's weak residual can move when every sample is off by solve_error.

    The residual is linear in the samples, and solve_error, the largest entry of
    the chain's ``solve_error``, bounds each produced sample's sup-norm error; row 0
    is the exact initial value.  So the floor is solve_error times the l1 norm of the
    quadrature weights on rows 1.., term by term as in ``weak_residual``: the
    time-derivative and decay-rate terms weigh u_i by w_i |psi_i|, the energy
    term each edge difference by c_e |psi_i - psi_i'|, which counts each end once.
    """
    d_psi = np.abs(fn.space[G.edges[:, 0]] - fn.space[G.edges[:, 1]])
    abs_psi = np.abs(fn.space)
    gain = 0.0
    for j in range(1, len(chain.values) - 1):
        t = j * chain.delta
        w = eh.vertex_weights(G, t)
        rate = (1.0 - eh.vertex_weights(G, (j + 1) * chain.delta) / w) / chain.delta
        gain += chain.delta * (
            abs(fn.profile_dt(t)) * float(np.dot(w, abs_psi))
            + abs(fn.profile(t)) * (float(np.dot(w * np.abs(rate), abs_psi))
                                    + 2.0 * float(np.dot(eh.edge_conductances(G, t), d_psi))))
    return float(chain.solve_error.max()) * gain


def test_criterion_06_weak_residual_shrinks(criterion_line):
    # The metric is uniform in space, so the k = 2 functions' exact residuals
    # vanish: theirs are rounding, judged against the solver floor, not each other.
    spec = Scenario(kind="conformal_circle", T=1.0, params={"n": 64})
    G = eh.build_scenario(spec)
    u0 = eh.make_initial_data(G, {"profile": "harmonic", "k": 1})
    fns = eh.default_test_catalog(G, 1.0)
    res, floor = {}, {}
    for h in (0.1, 0.0125):
        chain = eh.run_sweep(G, [u0], [h], m=1, rel_tol=MATRIX_REL_TOL)[0][0]
        res[h] = {r.name: r.residual for r in eh.weak_residual(chain, G, fns)}
        floor[h] = {fn.name: _solver_floor(G, chain, fn) for fn in fns}
    above = [fn.name for fn in fns if res[0.1][fn.name] > floor[0.1][fn.name]]
    below = [fn.name for fn in fns if fn.name not in above]
    ok = criterion_line(
        6, all(res[0.0125][f] < res[0.1][f] for f in above)
        and all(res[0.0125][f] <= floor[0.0125][f] for f in below),
        "weak-form residual shrinks from h = 0.1 to h = 0.0125 on "
        f"{', '.join(above) or 'none'}; stays below the solver floor on "
        f"{', '.join(below) or 'none'}")
    assert ok, (res, floor)


def test_criterion_07_initial_attainment(criterion_line):
    spec = Scenario(kind="static_circle", T=1.0, params={"n": 64})
    G = eh.build_scenario(spec)
    u0 = eh.make_initial_data(G, {"profile": "harmonic", "k": 1})
    dists = []
    for h in (0.1, 0.05, 0.025, 0.0125):
        chain = eh.run_sweep(G, [u0], [h], m=1, rel_tol=MATRIX_REL_TOL)[0][0]
        dists.append(eh.initial_attainment_check(chain, G, h).distance)
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))

    h = 0.1
    A = step_operator(G, h, h)
    x = dense_solve(A, A.mass * u0)
    dense_dist = eh.weighted_l2(x - u0, eh.vertex_weights(G, h))
    agree = abs(dists[0] - dense_dist) <= 1e-9
    ok = criterion_line(
        7, decreasing and agree,
        "attainment distance decreases over the h-sweep and matches "
        "the dense one-step solve to 1e-9")
    assert ok, (dists, dense_dist)


def test_criterion_08_interpolation_norms(criterion_line):
    spec = Scenario(kind="oscillating_metric", T=1.0, params={"n": 64})
    G = eh.build_scenario(spec)
    u0 = np.random.default_rng(8).standard_normal(64)
    chain = eh.run_sweep(G, [u0], [0.05], m=4, rel_tol=MATRIX_REL_TOL)[0][0]
    [rep] = eh.energy_estimate([chain], G, slack=SLACK)
    shifted = eh.l2h1_interp_norm(chain.values[1:], chain.times()[1:], G, dt=chain.delta)
    dg = eh.degiorgi_family(G, chain.values[::chain.m], chain.h, chain.m,
                            rel_tol=MATRIX_REL_TOL)
    resolvent = eh.l2h1_interp_norm(dg, chain.times()[1:], G, dt=chain.delta)
    ratio = resolvent / shifted
    ok = criterion_line(
        8, rep.passed and ratio >= 1.0 - 1e-9,
        f"shifted-chain l2h1 stays within the energy bound; "
        f"resolvent/shifted ratio {ratio:.4f} >= 1")
    assert ok, (rep, ratio)


def test_criterion_09_dense_agreement(criterion_line):
    worst = 0.0
    for seed in range(20):
        G = random_static_graph(seed)
        rng = np.random.default_rng(seed + 900)
        u0 = rng.standard_normal(G.n_vertices)
        h = float(rng.uniform(0.05, 0.5))
        step = eh.run_sweep(G, [u0], [h], 1, rel_tol=1e-14)[0][0].values[1]
        A = step_operator(G, h, h)
        dense = dense_solve(A, A.mass * u0)
        rel = np.linalg.norm(step - dense) / np.linalg.norm(dense)
        worst = max(worst, rel)
    ok = criterion_line(
        9, worst <= 1e-12,
        f"iterative step matches the dense solve on 20 random graphs, n <= 8 "
        f"(worst relative gap {worst:.2e})")
    assert ok, worst


def test_criterion_10_truncation_contraction(criterion_line):
    spec = Scenario(kind="conformal_circle", T=1.0, params={"n": 64})
    G = eh.build_scenario(spec)
    u0 = np.random.default_rng(11).standard_cauchy(64)
    w0 = eh.vertex_weights(G, 0.0)
    failures = []
    for h in (0.1, 0.02):
        chain_full = eh.run_sweep(G, [u0], [h], m=1, rel_tol=MATRIX_REL_TOL)[0][0]
        c0 = growth_reference(G, chain_full.times())
        bound_factor = math.exp(c0 * chain_full.horizon)
        for level in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            u0n = eh.truncate(u0, level)
            trunc_err = eh.weighted_l2_sq(u0 - u0n, w0)
            chain_n = eh.run_sweep(G, [u0n], [h], m=1, rel_tol=MATRIX_REL_TOL)[0][0]
            times = chain_full.times()
            diff_sup = max(
                eh.weighted_l2_sq(sf - sn, eh.vertex_weights(G, t))
                for t, sf, sn in zip(times, chain_full.values, chain_n.values))
            diff_l2h1 = sum(
                chain_full.delta * eh.dirichlet_energy(G, t, sf - sn)
                for t, sf, sn in zip(times[1:], chain_full.values[1:], chain_n.values[1:]))
            bound = bound_factor * trunc_err
            if not (diff_sup <= bound * (1 + SLACK)
                    and diff_l2h1 <= bound * (1 + SLACK)):
                failures.append((h, level, trunc_err, diff_sup, diff_l2h1, bound))
    ok = criterion_line(
        10, not failures,
        "truncated-data run differences obey the contraction bound "
        "at levels 1..32 for h in {0.1, 0.02}")
    assert ok, failures
