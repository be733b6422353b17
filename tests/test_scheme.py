"""Step operator, step sequence, shifted chains, resolvent interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import evoheat as eh
import evoheat.scheme as scheme

from helpers import build, lone_step, per_round_families, star_ring_graph

# Single-edge graph, unit weights and conductance, h = 1.  The step system is
# [[2, -1], [-1, 2]] u = u_prev, worked out by hand:
#   u_prev = (1, 0)  ->  (2/3, 1/3)
#   u_prev = (1, -1) ->  (1/3, -1/3)   (odd eigenvector, factor 1/(1 + h*lambda), lambda = 2)
TWO_VERTEX = eh.TimeWeightedGraph.static(np.ones(2), np.array([[0, 1]]), np.ones(1), 4.0)

# a moving metric with spatial variation, reused all over this module
MOVING = build("conformal_circle", n=12, amp=0.4, omega=2.0, k_spatial=1)

TWO_VERTEX_U0 = np.array([1.0, -1.0])


def test_euler_step_hand_value():
    [chain] = eh.run_sweep(TWO_VERTEX, [[1.0, 0.0]], [1.0], m=1, rel_tol=1e-14)[0]
    assert_allclose(chain.values[1], [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)


def test_step_sequence_eigen_decay():
    [chain] = eh.run_sweep(TWO_VERTEX, [[1.0, -1.0]], [1.0], m=1, rel_tol=1e-14)[0]
    seq = chain.values[1:]
    assert seq.shape == (4, 2)
    assert_allclose(seq[0], [1.0 / 3.0, -1.0 / 3.0], rtol=1e-12)
    assert_allclose(seq[2], [1.0 / 27.0, -1.0 / 27.0], rtol=1e-11)


def test_constants_are_fixed_points():
    u0 = np.full(MOVING.n_vertices, 2.5)
    chain = eh.run_sweep(MOVING, [u0], [0.25], m=3, rel_tol=1e-13)[0][0]
    for s in chain.values:
        assert_allclose(s, 2.5, rtol=1e-11)


def test_interpolation_with_m1_is_the_step_sequence():
    u0 = np.random.default_rng(0).standard_normal(MOVING.n_vertices)
    chain = eh.run_sweep(MOVING, [u0], [0.25], m=1, rel_tol=1e-12)[0][0]
    assert chain.n_steps == 4
    want = u0
    for k, (got, t) in enumerate(zip(chain.values[1:], chain.times()[1:]), start=1):
        want = lone_step(MOVING, k * 0.25, 0.25, want, rel_tol=1e-12)
        assert np.array_equal(got, want)
        assert t == k * 0.25  # the time the step was taken at


def test_chain_samples_at_step_multiples_match_step_sequence():
    u0 = np.random.default_rng(1).standard_normal(MOVING.n_vertices)
    chain = eh.run_sweep(MOVING, [u0], [0.25], m=2, rel_tol=1e-12)[0][0]
    seq = eh.run_sweep(MOVING, [u0], [0.25], m=1, rel_tol=1e-12)[0][0].values[1:]
    for k in range(1, 5):
        # with m a power of two the grid times coincide bitwise, so the solves do too
        assert chain.times()[2 * k] == k * 0.25
        assert np.array_equal(chain.values[2 * k], seq[k - 1])
    disc = chain.values[::chain.m]
    assert np.array_equal(disc[0], u0)
    assert np.array_equal(disc[3], seq[2])


def test_early_samples_step_from_initial_value():
    u0 = np.cos(MOVING.coords[:, 0])
    h, m = 0.25, 4
    chain = eh.run_sweep(MOVING, [u0], [h], m, rel_tol=1e-12)[0][0]
    delta = h / m
    for j in (1, 2, 3):
        want = lone_step(MOVING, j * delta, h, u0, rel_tol=1e-12)
        assert np.array_equal(chain.values[j], want)


def test_shifted_sample_differs_from_shortened_step():
    # both live at t = delta, but the chain keeps the full proximal weight 1/h
    u0 = np.cos(MOVING.coords[:, 0])
    h, m = 0.25, 4
    chain = eh.run_sweep(MOVING, [u0], [h], m, rel_tol=1e-12)[0][0]
    short = eh.degiorgi_family(MOVING, chain.values[::m], h, m, rel_tol=1e-12)[0]
    assert np.abs(chain.values[1] - short).max() > 1e-3


def test_chains_are_independent_of_evaluation_order():
    u0 = np.random.default_rng(2).standard_normal(MOVING.n_vertices)
    h, m = 0.25, 3
    chain = eh.run_sweep(MOVING, [u0], [h], m, rel_tol=1e-10)[0][0]
    delta = h / m
    for r in reversed(range(m)):  # walk the chains backwards, one at a time
        prev = u0
        for j in range(r if r else m, chain.n_steps * m + 1, m):
            prev = lone_step(MOVING, j * delta, h, prev, rel_tol=1e-10)
            assert np.array_equal(chain.values[j], prev)


def test_degiorgi_limits():
    h, m = 0.25, 1000
    seq = eh.run_sweep(TWO_VERTEX, [TWO_VERTEX_U0], [h], m=1, rel_tol=1e-13)[0][0].values
    dg = eh.degiorgi_family(TWO_VERTEX, seq[:3], h, m, rel_tol=1e-13)
    # delta -> 0 collapses onto the left endpoint of the step interval: on the odd
    # eigenvector the step of length delta = h/m divides u_1 by 1 + 2*delta
    near = dg[m]  # t = h + h/m
    assert np.abs(near - seq[1]).max() <= 2 * (h / m) * np.abs(seq[1]).max()
    # delta = h reproduces the defining system of the next step value
    att = dg[2 * m - 1]  # t = 2h
    assert_allclose(att, seq[2], rtol=0, atol=1e-10)


def test_truncate_clamps_and_is_idempotent():
    u = np.array([-5.0, 0.25, 7.0])
    v = eh.truncate(u, 2.0)
    assert np.array_equal(v, [-2.0, 0.25, 2.0])
    assert np.array_equal(eh.truncate(v, 2.0), v)
    with pytest.raises(ValueError):
        eh.truncate(u, 0.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 10.0))
def test_truncation_never_raises_energy(seed, level):
    rng = np.random.default_rng(seed)
    u = 3.0 * rng.standard_normal(MOVING.n_vertices)
    t = float(rng.uniform(0.0, 1.0))
    before = eh.dirichlet_energy(MOVING, t, u)
    after = eh.dirichlet_energy(MOVING, t, eh.truncate(u, level))
    assert after <= before * (1 + 1e-12) + 1e-15


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_maximum_principle(seed):
    u0 = np.random.default_rng(seed).standard_normal(MOVING.n_vertices)
    chain = eh.run_sweep(MOVING, [u0], [0.2], m=2, rel_tol=1e-12)[0][0]
    rep = eh.extremum_check(chain, MOVING, 0.0)  # judged by the rounding floor alone
    assert rep.passed, rep


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_comparison_monotone(seed):
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(MOVING.n_vertices)
    v0 = u0 + np.abs(rng.standard_normal(MOVING.n_vertices))
    tol = 1e-12 * (np.abs(v0).max() + 1.0)
    cu, cv = eh.run_sweep(MOVING, [u0, v0], [0.2], m=1, rel_tol=1e-13)[0]
    assert cu.n_steps == 5
    assert np.min(cv.values[1:] - cu.values[1:]) >= -tol


def test_mass_conserved_against_current_measure():
    u0 = eh.make_initial_data(MOVING, {"profile": "bump", "width": 0.5})
    prev = u0
    chain = eh.run_sweep(MOVING, [u0], [0.1], m=1, rel_tol=1e-12)[0][0]
    for k, uk in enumerate(chain.values[1:], start=1):
        w = eh.vertex_weights(MOVING, k * 0.1)
        drift = abs(np.dot(w, uk) - np.dot(w, prev))
        assert drift <= 1e-10 * np.dot(w, np.abs(prev))
        prev = uk


def test_dissipation_identity():
    u0 = np.random.default_rng(5).standard_normal(MOVING.n_vertices)
    prev = u0
    chain = eh.run_sweep(MOVING, [u0], [0.1], m=1, rel_tol=1e-13)[0][0]
    for k, uk in enumerate(chain.values[1:], start=1):
        w = eh.vertex_weights(MOVING, k * 0.1)
        lhs = 2 * 0.1 * eh.dirichlet_energy(MOVING, k * 0.1, uk)
        rhs = -2 * np.dot(w * (uk - prev), uk)
        assert_allclose(lhs, rhs, rtol=1e-7, atol=1e-13)
        prev = uk


def test_exact_scalings_are_bitwise():
    # doubling and negation commute with every float operation in the solve,
    # on the direct path (MOVING) and on the CG path (the torus)
    for G in (MOVING, build("product_torus", nx=8, ny=8)):
        u0 = np.random.default_rng(6).standard_normal(G.n_vertices)
        base = eh.run_sweep(G, [u0], [0.25], m=2, rel_tol=1e-10)[0][0]
        doubled = eh.run_sweep(G, [2.0 * u0], [0.25], m=2, rel_tol=1e-10)[0][0]
        negated = eh.run_sweep(G, [-u0], [0.25], m=2, rel_tol=1e-10)[0][0]
        for s, d, n in zip(base.values, doubled.values, negated.values):
            assert np.array_equal(d, 2.0 * s)
            assert np.array_equal(n, -s)


def test_linearity_within_tolerance():
    rng = np.random.default_rng(7)
    u0 = rng.standard_normal(MOVING.n_vertices)
    v0 = rng.standard_normal(MOVING.n_vertices)
    a, b = 0.3, -1.7
    w0 = a * u0 + b * v0
    cu = eh.run_sweep(MOVING, [u0], [0.2], m=2, rel_tol=1e-12)[0][0]
    cv = eh.run_sweep(MOVING, [v0], [0.2], m=2, rel_tol=1e-12)[0][0]
    cw = eh.run_sweep(MOVING, [w0], [0.2], m=2, rel_tol=1e-12)[0][0]
    w_init = eh.vertex_weights(MOVING, 0.0)
    scale = eh.weighted_l2(u0, w_init) + eh.weighted_l2(v0, w_init)
    for su, sv, sw in zip(cu.values, cv.values, cw.values):
        gap = np.abs(sw - (a * su + b * sv)).max()
        assert gap <= 1e-9 * scale


def test_steps_within_horizon():
    assert eh.steps_within_horizon(1.0, 0.25) == 4
    assert eh.steps_within_horizon(1.0, 0.3) == 3
    assert eh.steps_within_horizon(1.0, 0.35) == 2  # round(1/0.35) = 3 would overshoot
    with pytest.raises(ValueError):
        eh.steps_within_horizon(1.0, 2.0)


def test_runs_reject_bad_initial_value():
    with pytest.raises(ValueError, match="shape"):
        eh.run_sweep(TWO_VERTEX, [[1.0, 0.0, 0.0]], [1.0], m=2)[0][0]
    with pytest.raises(ValueError):
        eh.run_sweep(TWO_VERTEX, [[1.0, 0.0]], [1.0], m=0)[0][0]


def _record_reads_and_builds(monkeypatch):
    """The names of the coefficient table reads and operator preparations that
    ``scheme`` makes from here on, in call order."""
    calls = []
    for name in ("weight_table", "conductance_table", "spd_prepare"):
        monkeypatch.setattr(scheme, name, lambda *args, name=name: calls.append(name))
    return calls


@pytest.mark.parametrize("bad, message", [
    ([1.0, np.nan], "finite"), ([np.inf, 0.0], "finite"), ([[1.0, 0.0]], "shape"), ([1.0], "shape"),
], ids=["nan", "inf", "matrix", "short"])
def test_run_families_rejects_bad_initial_value_before_any_solve(bad, message, monkeypatch):
    calls = _record_reads_and_builds(monkeypatch)
    with pytest.raises(ValueError, match=message):
        eh.run_sweep(TWO_VERTEX, [[1.0, 0.0], bad], [1.0], m=1)[0]
    assert calls == []


@pytest.mark.parametrize("h", [0.0, -1.0])
def test_run_families_rejects_nonpositive_step_before_any_solve(h, monkeypatch):
    calls = _record_reads_and_builds(monkeypatch)
    with pytest.raises(ValueError, match="h must be positive"):
        eh.run_sweep(TWO_VERTEX, [[1.0, 0.0]], [h], m=1)[0]
    assert calls == []


@pytest.mark.parametrize("G", [MOVING, build("product_torus", nx=8, ny=8, T=0.5)],
                         ids=["direct", "cg"])
def test_families_stepped_together_match_each_run_alone(G):
    rng = np.random.default_rng(8)
    initials = [rng.standard_normal(G.n_vertices) for _ in range(3)]
    together = eh.run_sweep(G, initials, [0.1], m=2, rel_tol=1e-10)[0]
    for u0, family in zip(initials, together):
        alone = eh.run_sweep(G, [u0], [0.1], m=2, rel_tol=1e-10)[0][0]
        assert len(family.values) == len(alone.values)
        assert np.array_equal(family.times(), alone.times())
        for got, want in zip(family.values, alone.values):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("m", [2.5, 2.0])
def test_run_sweep_rejects_an_m_that_is_no_integer(m, monkeypatch):
    # the rejection comes before the first coefficient read or preparation
    calls = []
    for name in ("weight_table", "conductance_table", "spd_prepare"):
        monkeypatch.setattr(scheme, name, lambda *args, name=name: calls.append(name))
    with pytest.raises(ValueError, match="m must be an integer >= 1, got 2.[05]"):
        eh.run_sweep(MOVING, [np.ones(MOVING.n_vertices)], [0.25], m=m)
    assert calls == []


# ---------------------------------------------------------------------------
# the sweep: rounds prepared ahead, grids in lockstep
# ---------------------------------------------------------------------------

# a repeated h, and one (0.03) that does not divide T = 1 (33 steps reach 0.99)
SWEEP_H = [0.1, 0.05, 0.1, 0.03]
SWEEP_GRAPHS = {"direct": MOVING, "lattice-cg": build("product_torus", nx=8, ny=8),
                "star-cg": star_ring_graph()}


def _round_floats(G, rounds, m=3):
    """The prepared floats of the first ``rounds`` rounds of a SWEEP_H sweep."""
    return rounds * len(SWEEP_H) * m * eh.linalg.prepared_floats(G.plan)


@pytest.mark.parametrize("budget_rounds", [None, 0, 3])
@pytest.mark.parametrize("name", list(SWEEP_GRAPHS))
def test_sweep_matches_the_per_round_loop_bitwise(name, budget_rounds, monkeypatch):
    # None keeps PREPARE_BUDGET, which holds many rounds of these small graphs;
    # 0 prepares one round at a time, 3 three rounds
    G = SWEEP_GRAPHS[name]
    assert (G.plan.ordering is not None) == (name == "direct")
    assert (G.plan.lattice is not None) == (name == "lattice-cg")
    assert (G.plan.layout is not None and len(G.plan.layout.over_rows) > 0) == (name == "star-cg")
    if budget_rounds is not None:
        monkeypatch.setattr(eh.linalg, "PREPARE_BUDGET", _round_floats(G, budget_rounds))
    rng = np.random.default_rng(21)
    initials = [rng.standard_normal(G.n_vertices) for _ in range(2)]
    sweep = eh.run_sweep(G, initials, SWEEP_H, m=3, rel_tol=1e-10)
    assert [len(families) for families in sweep] == [2] * len(SWEEP_H)
    for h, families in zip(SWEEP_H, sweep):
        values = per_round_families(G, initials, h, 3, 1e-10)
        for family, want in zip(families, values):
            assert family.h == h and family.m == 3
            assert np.array_equal(family.values, want)


@pytest.mark.parametrize("budget_rounds", [None, 0, 3])
def test_sweep_chunks_stay_within_the_budget(budget_rounds, monkeypatch):
    G = MOVING
    if budget_rounds is not None:
        monkeypatch.setattr(eh.linalg, "PREPARE_BUDGET", _round_floats(G, budget_rounds))
    budget = eh.linalg.PREPARE_BUDGET
    prepared, solves = [], []
    real_prepare, real_solve = scheme.spd_prepare, scheme.spd_solve_prepared

    def preparing(*tables):
        prepared.append(real_prepare(*tables))
        return prepared[-1]

    def solving(chunk, rhs, rel_tol, start=0):
        assert chunk is prepared[-1]  # a chunk is solved before the next is prepared
        solves.append((len(prepared) - 1, start, len(rhs)))
        return real_solve(chunk, rhs, rel_tol, start)

    monkeypatch.setattr(scheme, "spd_prepare", preparing)
    monkeypatch.setattr(scheme, "spd_solve_prepared", solving)
    eh.run_sweep(G, [np.ones(G.n_vertices)], SWEEP_H, m=3)
    assert len(solves) == 33  # one per round: h = 0.03 takes 33 steps
    for i, chunk in enumerate(prepared):
        rounds = [(start, T) for c, start, T in solves if c == i]
        # the rounds of a chunk solve it once, in order, operator by operator
        done = 0
        for start, T in rounds:
            assert start == done
            done += T
        assert done == chunk.count
        floats = chunk.count * eh.linalg.prepared_floats(G.plan)
        assert floats <= budget or len(rounds) == 1
    if budget_rounds == 0:
        assert len(prepared) == len(solves)
    elif budget_rounds == 3:
        assert 1 < len(prepared) < len(solves)


def test_sweep_builds_each_rows_operator_once(monkeypatch):
    # every row's coefficients are one row of a chunk's tables, and its operator
    # is built once, from those rows: one row of the tables handed to spd_prepare
    monkeypatch.setattr(eh.linalg, "PREPARE_BUDGET", _round_floats(MOVING, 3))
    rows = {"weights": [], "conductances": []}
    steps = []
    real_prepare = scheme.spd_prepare

    def counting(name, table):
        def counted(G, times):
            rows[name].extend(times)
            return table(G, times)
        return counted

    def preparing(plan, mass, coeffs, hs):
        steps.extend((w.tobytes(), c.tobytes(), h) for w, c, h in zip(mass, coeffs, hs))
        return real_prepare(plan, mass, coeffs, hs)

    monkeypatch.setattr(scheme, "weight_table", counting("weights", scheme.weight_table))
    monkeypatch.setattr(scheme, "conductance_table",
                        counting("conductances", scheme.conductance_table))
    monkeypatch.setattr(scheme, "spd_prepare", preparing)
    eh.run_sweep(MOVING, [np.ones(MOVING.n_vertices)], SWEEP_H, m=3)
    want = [(j * (h / 3), h) for h in SWEEP_H
            for j in range(1, 3 * eh.steps_within_horizon(MOVING.horizon, h) + 1)]
    assert sorted(rows["weights"]) == sorted(rows["conductances"]) == sorted(t for t, _ in want)
    assert sorted(steps) == sorted((eh.vertex_weights(MOVING, t).tobytes(),
                                    eh.edge_conductances(MOVING, t).tobytes(), h)
                                   for t, h in want)
