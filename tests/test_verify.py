"""Energy/extremum/contraction checks, reference flow, weak residual, attainment."""

import dataclasses
import math
import random
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import evoheat as eh
import evoheat.verify
from helpers import (build, chain_error_reference, energy_reference, growth_reference,
                     l2h1_reference, lone_step, star_ring_graph, varah_bounds,
                     weak_residual_reference)

# exp(-2), the exact decay of the odd mode on the unit two-vertex graph over T = 1
E_MINUS_2 = 0.1353352832366127

TWO_VERTEX = eh.TimeWeightedGraph.static(np.ones(2), np.array([[0, 1]]), np.ones(1), 4.0)
MOVING = build("conformal_circle", n=12, amp=0.4, omega=2.0, k_spatial=1)


def _star_ring_table():
    """The star ring of CI's byte-determinism step: a hub joined to 16 leaves,
    the leaves joined in a ring, so the hub's 13 half-edges past the least
    degree (3) overflow the half-edge layout's table."""
    rng = random.Random(16)
    leaves = 16
    edges = ([[0, i] for i in range(1, leaves + 1)]
             + [sorted([i, i % leaves + 1]) for i in range(1, leaves + 1)])
    times = [0.0, 0.5, 1.0]
    return build("custom_tabulated", T=1.0, table={
        "n_vertices": leaves + 1, "edges": edges, "times": times,
        "weights": [[round(rng.uniform(0.5, 2.0), 3) for _ in range(leaves + 1)]
                    for _ in times],
        "conductances": [[round(rng.uniform(0.1, 2.0), 3) for _ in edges] for _ in times]})


STAR_RING = _star_ring_table()
assert len(eh.half_edge_layout(STAR_RING.n_vertices, STAR_RING.edges).over_rows) == 13


# ---------------------------------------------------------------------------
# semi-discrete reference flow
# ---------------------------------------------------------------------------

def test_oracle_two_vertex_decay():
    oracle = eh.semidiscrete_oracle(TWO_VERTEX, np.array([1.0, -1.0]), 1.0, n_steps=1024)
    assert oracle.self_check < 1e-10
    assert_allclose(oracle.values[-1], [E_MINUS_2, -E_MINUS_2], rtol=1e-9)
    assert oracle.times()[-1] == pytest.approx(1.0, abs=1e-12)


def test_oracle_conformal_closed_form():
    # a(t, x) = e^t scales the flow by e^{-2t}; each circle harmonic decays by
    # exp(-lambda_k * (1 - e^{-2T}) / 2) with the discrete eigenvalue
    # lambda_k = 4 sin^2(k dx / 2) / dx^2.
    n = 16
    G = build("conformal_circle", n=n, amp=0.0, growth=1.0)
    u0 = eh.make_initial_data(G, {"profile": "harmonic", "k": 1})
    dx = 2 * math.pi / n
    lam = 4 * math.sin(dx / 2) ** 2 / dx ** 2
    factor = math.exp(-lam * (1.0 - math.exp(-2.0)) / 2.0)
    oracle = eh.semidiscrete_oracle(G, u0, 1.0, n_steps=512)
    # atol floor: the entries at the cosine zeros are pure rounding noise
    assert_allclose(oracle.values[-1], factor * u0,
                    rtol=1e-9, atol=1e-14)


@pytest.mark.parametrize("G", [MOVING, STAR_RING], ids=["moving", "star_ring"])
def test_oracle_constant_is_exact(G):
    u0 = np.full(G.n_vertices, 3.0)
    oracle = eh.semidiscrete_oracle(G, u0, 1.0, n_steps=64)
    assert oracle.self_check == 0.0
    for s in oracle.values:
        assert np.array_equal(s, u0)


def test_oracle_rejects_odd_or_unstable_steps():
    with pytest.raises(ValueError):
        eh.semidiscrete_oracle(TWO_VERTEX, np.array([1.0, 0.0]), 1.0, n_steps=7)
    stiff = build("static_circle", n=32)
    with pytest.raises(ValueError, match="self-check"):
        eh.semidiscrete_oracle(stiff, eh.make_initial_data(stiff, {"profile": "random"}),
                               1.0, n_steps=2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_overflow_in_both_runs_fails_self_check():
    # one step overflows both runs, so every gap between them is NaN; the
    # self-check reports it, and numpy warns of nothing on the way
    G = eh.TimeWeightedGraph.static(np.ones(2), np.array([[0, 1]]), np.array([1e80]))
    with pytest.raises(eh.OracleError, match="self-check"):
        eh.semidiscrete_oracle(G, np.array([1.0, -1.0]), 1.0, n_steps=4)


def test_oracle_value_interpolates():
    oracle = eh.semidiscrete_oracle(TWO_VERTEX, np.array([1.0, -1.0]), 1.0, n_steps=512)
    dt = 1.0 / 512
    assert np.array_equal(eh.oracle_value_at(oracle, 3 * dt), oracle.values[3])
    mid = eh.oracle_value_at(oracle, 1.5 * dt)
    want = 0.5 * (oracle.values[1] + oracle.values[2])
    assert_allclose(mid, want, rtol=1e-12)


def test_oracle_value_at_an_array_of_times_is_each_time_alone():
    # grid times, times within the fuzz of one, midpoints, 0 and the horizon: the
    # rows of one call equal the interpolation written out per time, bitwise
    oracle = eh.semidiscrete_oracle(MOVING, eh.make_initial_data(MOVING, {"profile": "random"}),
                                    1.0, n_steps=64, self_check_tol=1.0)
    dt = oracle.dt
    times = np.array([0.0, 3 * dt, 3 * dt - 1e-12, 3 * dt + 1e-12, 1.5 * dt, 0.3, 1.0 - 0.5 * dt,
                      1.0, 1.0 + 1e-12])
    rows = eh.oracle_value_at(oracle, times)
    assert rows.shape == (len(times), MOVING.n_vertices)
    for t, row in zip(times, rows):
        pos = t / dt
        i = min(max(int(math.floor(pos + 1e-9)), 0), oracle.n_steps)
        frac = pos - i
        want = (oracle.values[i] if frac <= 1e-9 or i == oracle.n_steps
                else (1.0 - frac) * oracle.values[i] + frac * oracle.values[i + 1])
        assert np.array_equal(row, want)
        assert np.array_equal(eh.oracle_value_at(oracle, t), want)


def _difference_rate(G, t, y):
    """-M_t^{-1} S_t y as the oracle evaluates it, the operator built here:
    sum over the half-edges (i, j) out of vertex i of (c / w_i) * (y_j - y_i)."""
    layout = eh.half_edge_layout(G.n_vertices, G.edges)
    w, c = eh.vertex_weights(G, t), eh.edge_conductances(G, t)
    out = np.add.reduce(c[layout.slot_edge] / w * (y[layout.nbr] - y), axis=0)
    if len(layout.over_rows):
        rows, cols = layout.over_rows, layout.over_cols
        out = out + np.bincount(rows, minlength=len(y), weights=c[layout.over_edges] / w[rows]
                                * (y[cols] - y[rows]))
    return out


def _stiffness_rate(G, t, y):
    """-M_t^{-1} S_t y through the edge-list Laplacian ``stiffness_apply``."""
    return -eh.stiffness_apply(G.edges, eh.edge_conductances(G, t), y) / eh.vertex_weights(G, t)


def _two_run_rk4(G, u0, T, n_steps, rate=_difference_rate):
    """The reference flow written out plainly: a fine and a halved RK4 run, kept
    whole and compared afterwards, every stage operator built where it is used."""
    def run(n):
        dt = T / n
        ys = [u0.copy()]
        for i in range(n):
            t, y = i * dt, ys[-1]
            k1 = rate(G, t, y)
            k2 = rate(G, t + 0.5 * dt, y + 0.5 * dt * k1)
            k3 = rate(G, t + 0.5 * dt, y + 0.5 * dt * k2)
            k4 = rate(G, t + dt, y + dt * k3)
            ys.append(y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        return ys

    fine, coarse = run(n_steps), run(n_steps // 2)
    dt = T / n_steps
    gap = 0.0
    for i, yc in enumerate(coarse):
        gap = max(gap, eh.weighted_l2(fine[2 * i] - yc, eh.vertex_weights(G, i * (2 * dt))))
    return fine, [i * dt for i in range(n_steps + 1)], gap


def _tabulated_square():
    return build("custom_tabulated", T=1.0, table={
        "n_vertices": 4,
        "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
        "times": [0.0, 0.5, 1.0],
        "weights": [[1.0, 2.0, 1.5, 1.0], [2.0, 1.0, 1.0, 1.5], [1.0, 1.5, 2.0, 1.0]],
        "conductances": [[1.0, 0.5, 2.0, 1.0], [2.0, 1.0, 1.0, 0.0], [1.0, 2.0, 0.5, 1.0]],
    })


@pytest.mark.parametrize("G, T, n_steps", [
    (MOVING, 1.0, 1024),                                     # dyadic horizon
    (MOVING, 0.7, 1000),                                     # stage times differ by ulps
    (build("product_torus", T=1.3, nx=5, ny=6), 1.3, 1000),
    (_tabulated_square(), 1.0, 1024),
    (STAR_RING, 1.0, 1024),                                  # overflow half-edges
    (TWO_VERTEX, 1.0, 1024),                                 # one half-edge slot (K = 1)
    (build("pinching_circle", n=32, amplitude=0.9), 0.9, 2048),  # weights down to 0.19 dx
    (MOVING, 0.004, 2),                                      # one window
], ids=["dyadic", "non_dyadic", "torus", "tabulated", "star_ring", "two_vertex", "pinching",
        "one_window"])
def test_oracle_bitwise_equals_two_separate_runs(G, T, n_steps):
    u0 = eh.make_initial_data(G, {"profile": "harmonic", "k": 1})
    values, times, gap = _two_run_rk4(G, u0, T, n_steps)
    oracle = eh.semidiscrete_oracle(G, u0, T, n_steps=n_steps)
    assert len(oracle.values) == n_steps + 1
    for s, st, want, t in zip(oracle.values, oracle.times(), values, times):
        assert np.array_equal(s, want)
        assert st == t
    assert oracle.self_check == gap
    assert 0.0 < gap < 1e-10


@pytest.mark.parametrize("G, n_steps", [
    (MOVING, 1024),
    (build("conformal_circle", n=128, k_spatial=1), 8192),   # the converge workload's oracle
    (STAR_RING, 1024),
], ids=["moving", "circle128", "star_ring"])
def test_oracle_matches_stiffness_form_within_rounding(G, n_steps):
    # Both forms round each stage differently; the flow does not amplify those
    # differences, so they add up to at most a few ulps of |u0| per step.
    u0 = eh.make_initial_data(G, {"profile": "harmonic", "k": 1})
    values, _, _ = _two_run_rk4(G, u0, 1.0, n_steps, rate=_stiffness_rate)
    oracle = eh.semidiscrete_oracle(G, u0, 1.0, n_steps=n_steps)
    bound = 8 * n_steps * np.finfo(float).eps * np.abs(u0).max()
    assert np.abs(oracle.values - np.array(values)).max() <= bound


def _counted(fn, calls, key, rows=len):
    """fn, adding the rows its last argument asks for to calls[key]."""
    def counted(*args):
        calls[key] += rows(args[-1])
        return fn(*args)
    return counted


def _counting_rows(G, rows):
    """A copy of G whose coefficient callables add the rows they return to ``rows``."""
    return eh.TimeWeightedGraph(
        G.n_vertices, G.edges, _counted(G.weights_at, rows, "weights"),
        _counted(G.conductances_at, rows, "conductances"), G.horizon, G.coords)


def test_oracle_evaluates_coefficients_once_per_stage_time():
    rows = {"weights": 0, "conductances": 0}
    G = _counting_rows(MOVING, rows)
    u0 = eh.make_initial_data(G, {"profile": "harmonic", "k": 1})
    eh.semidiscrete_oracle(G, u0, 1.0, n_steps=64, self_check_tol=1e-6)
    # stage times of the fine run are k/128, k = 0..128; the halved run's are among them
    assert rows == {"weights": 2 * 64 + 1, "conductances": 2 * 64 + 1}


def test_oracle_window_blocks_change_no_bit(monkeypatch):
    # with a budget of one float every window is a block of its own, which reads
    # its five distinct stage times (the halved run's are among them), and the
    # trajectory is bitwise that of one block
    u0 = eh.make_initial_data(MOVING, {"profile": "harmonic", "k": 1})
    alone = eh.semidiscrete_oracle(MOVING, u0, 1.0, n_steps=64, self_check_tol=1e-6)
    monkeypatch.setattr(eh.linalg, "PREPARE_BUDGET", 1)
    rows = {"weights": 0, "conductances": 0}
    oracle = eh.semidiscrete_oracle(_counting_rows(MOVING, rows), u0, 1.0, n_steps=64,
                                    self_check_tol=1e-6)
    assert rows == {"weights": 5 * 32, "conductances": 5 * 32}
    assert np.array_equal(oracle.values, alone.values)
    assert oracle.self_check == alone.self_check


# ---------------------------------------------------------------------------
# energy estimate
# ---------------------------------------------------------------------------

def test_energy_estimate_static_constant():
    G = build("static_circle", n=8)
    u0 = np.full(8, 2.0)
    chain = eh.run_sweep(G, [u0], [0.2], m=2, rel_tol=1e-13)[0][0]
    [rep] = eh.energy_estimate([chain], G)
    # ||u0||^2 = 4 * 2*pi both sides; dissipation is solver noise only
    assert_allclose(rep.rhs, 8 * math.pi, rtol=1e-13)
    assert_allclose(rep.sup_l2, rep.rhs, rtol=1e-10)
    assert rep.dissipation <= 1e-16
    assert rep.passed
    assert rep.c0_used == 0.0


def test_energy_estimate_zero_data():
    G = build("static_circle", n=8)
    u0 = np.zeros(8)
    chain = eh.run_sweep(G, [u0], [0.2], m=2)[0][0]
    [rep] = eh.energy_estimate([chain], G)
    assert rep.rhs == 0.0 and rep.sup_l2 == 0.0 and rep.margin == 0.0
    assert rep.passed


def test_energy_estimate_moving_metric_has_margin():
    u0 = np.random.default_rng(3).standard_normal(12)
    chain = eh.run_sweep(MOVING, [u0], [0.1], m=2, rel_tol=1e-12)[0][0]
    [rep] = eh.energy_estimate([chain], MOVING)
    assert rep.c0_used > 0
    assert rep.passed
    assert 0.0 < rep.margin < 1.0


def test_energy_estimate_detects_uncovered_growth():
    # weights grow like e^t, and a family whose constant rows grow like e^{2t}
    # outgrows the certified bound: ||u_j||^2 reaches e^{5T} a0 against e^{c0 T} a0
    G = build("conformal_circle", n=8, amp=0.0, growth=1.0)
    times = np.arange(5) * 0.25
    chain = eh.ChainFamily(0.25, 1, np.outer(2.5 * np.exp(2.0 * times), np.ones(8)))
    [rep] = eh.energy_estimate([chain], G)
    assert rep.c0_used == pytest.approx(1.0, rel=1e-12)
    assert not rep.passed
    assert rep.margin < -1.0


def _two_vertex_weights(first, second=lambda t: math.exp(2.0 * t)):
    """The unit-edge two-vertex graph with weights (first(t), second(t)), by default
    second(t) = e^{2t}, unvalidated."""
    return eh.TimeWeightedGraph(2, np.array([[0, 1]]),
                                lambda ts: np.array([[first(t), second(t)] for t in ts]),
                                lambda ts: np.ones((len(ts), 1)), 1.0)


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_energy_estimate_certifies_past_a_weight_that_stays_zero():
    # weight 0 on the rows at t = 0.5 and 0.75: that vertex does not grow, so the
    # certified rate is the other vertex's 2, not a NaN clamped to 0
    G = _two_vertex_weights(lambda t: 1.0 if t < 0.5 else 0.0)
    chain = eh.ChainFamily(0.25, 1, np.zeros((5, 2)))
    [rep] = eh.energy_estimate([chain], G)
    assert rep.c0_used == 2.0 and rep.passed


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("first, rate, time", [
    (lambda t: 0.0 if t < 0.5 else 1.0, "inf", "0.5"),  # stays 0, then leaves 0
    (lambda t: float("nan") if t > 0.6 else 1.0, "nan", "0.75"),  # a NaN weight
])
def test_energy_estimate_rejects_a_rate_that_admits_no_c0(monkeypatch, first, rate, time):
    G = _two_vertex_weights(first)
    chain = eh.ChainFamily(0.25, 1, np.zeros((5, 2)))
    with pytest.raises(ValueError, match=f"rate {rate} at grid time t={time} "):
        eh.energy_estimate([chain], G)
    # blocks of two rows (three floats each): rows 1-2 (t = 0.25, 0.5) and 3-4, so
    # the pair ending at t = 0.75 straddles the blocks; the first bad pair is named
    monkeypatch.setattr(eh.linalg, "PREPARE_BUDGET", 2 * 3)
    with pytest.raises(ValueError, match=f"rate {rate} at grid time t={time} "):
        eh.energy_estimate([chain], G)


# exp(1000) overflows; exp(709) is a double, but not times a0 = 4
@pytest.mark.parametrize("c0", [1000.0, 709.0])
def test_energy_estimate_rejects_a_bound_that_is_not_finite(c0):
    # vertex 0's weight e^{c0 (t - 1/2)} certifies c0; vertex 1 holds a0
    G = _two_vertex_weights(lambda t: math.exp(c0 * (t - 0.5)), second=lambda t: 1.0)
    chain = eh.ChainFamily(0.5, 1, np.full((3, 2), 2.0))
    certified = growth_reference(G, chain.times())
    assert certified == pytest.approx(c0, rel=1e-12)
    with pytest.raises(ValueError, match=f"^c0: .* not finite for c0={certified!r}, "
                                         "horizon=1.0$"):
        eh.energy_estimate([chain], G)


def test_energy_estimate_rejects_a_certified_c0_whose_bound_overflows():
    # log w climbs by 1380 over [0, 1]: the certified c0 overflows exp(c0 * horizon)
    G = build("custom_tabulated", T=1.0, table={
        "n_vertices": 2, "edges": [[0, 1]], "times": [0.0, 1.0],
        "weights": [[1e-300, 1.0], [1e300, 1.0]], "conductances": [[1.0], [1.0]]})
    chain = eh.ChainFamily(0.5, 1, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="^c0: .* not finite for c0=1381.55"):
        eh.energy_estimate([chain], G)


def test_energy_estimate_rejects_empty_or_mismatched_families():
    G = build("static_circle", n=8)
    chain = eh.run_sweep(G, [np.ones(8)], [0.25], m=2)[0][0]
    with pytest.raises(ValueError, match="at least one"):
        eh.energy_estimate([], G)
    other_h = dataclasses.replace(chain, h=0.125)
    other_m = dataclasses.replace(chain, m=1)
    fewer_rows = dataclasses.replace(chain, values=chain.values[:-2])
    for other in (other_h, other_m, fewer_rows):
        for chains in ([chain, other], [other, chain, chain]):
            with pytest.raises(ValueError, match="share h, m and row count"):
                eh.energy_estimate(chains, G)


def _energy_alone(chain, G, c0, slack=1e-8):
    """The energy estimate of one family written out plainly: every coefficient
    row read where it is used, the dissipation through ``l2h1_interp_norm``."""
    rhs = math.exp(c0 * chain.horizon) * eh.weighted_l2_sq(chain.values[0],
                                                           eh.vertex_weights(G, 0.0))
    times = chain.times()
    sup_l2 = max(eh.weighted_l2_sq(v, eh.vertex_weights(G, t))
                 for t, v in zip(times, chain.values))
    dissipation = eh.l2h1_interp_norm(chain.values[1:], times[1:], G, dt=chain.delta)
    lhs = max(sup_l2, dissipation)
    return eh.EnergyReport(sup_l2, dissipation, rhs, float(c0), float(slack),
                           bool(lhs <= rhs * (1.0 + slack)),
                           0.0 if rhs == 0.0 else (rhs - lhs) / rhs)


def _bits(report):
    return [x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(report)]


@pytest.mark.parametrize("families", [1, 2, 5])
@pytest.mark.parametrize("graph", [build("conformal_circle", n=256, k_spatial=1),
                                   build("product_torus", nx=12, ny=12)],
                         ids=["circle256_band", "torus12_cg"])
def test_energy_estimate_families_together_equal_each_alone(graph, families):
    rng = np.random.default_rng(12)
    initials = [rng.standard_normal(graph.n_vertices) for _ in range(families)]
    chains = eh.run_sweep(graph, initials, [0.1], m=3)[0]
    c0 = growth_reference(graph, chains[0].times())
    reports = eh.energy_estimate(chains, graph)
    assert len(reports) == families
    for chain, report in zip(chains, reports):
        [alone] = eh.energy_estimate([chain], graph)
        assert _bits(report) == _bits(alone) == _bits(_energy_alone(chain, graph, c0))


def _count_coefficient_reads(monkeypatch, G):
    """A copy of G whose coefficient callables count the rows they return, and
    weight and conductance accessors in ``evoheat.verify`` that count the rows
    they read.  Returns the copy, the callables' counts (reads by any path) and
    the accessors' counts."""
    at_graph = {"weights": 0, "conductances": 0}
    in_verify = {"weights": 0, "conductances": 0}
    counting = _counting_rows(G, at_graph)
    for name, key, rows in (("weight_table", "weights", len),
                            ("conductance_table", "conductances", len),
                            ("vertex_weights", "weights", lambda t: 1),
                            ("edge_conductances", "conductances", lambda t: 1)):
        if hasattr(evoheat.verify, name):
            monkeypatch.setattr(evoheat.verify, name,
                                _counted(getattr(evoheat.verify, name), in_verify, key, rows))
    return counting, at_graph, in_verify


@pytest.mark.parametrize("families", [1, 5])
def test_energy_estimate_reads_each_grid_row_once(monkeypatch, families):
    rng = np.random.default_rng(13)
    chains = eh.run_sweep(MOVING, [rng.standard_normal(12) for _ in range(families)],
                          [0.25], m=2)[0]
    nm = len(chains[0].values) - 1
    certified = growth_reference(MOVING, chains[0].times())
    # c0 is certified inside the sweep from the rows it reads anyway
    G, at_graph, in_verify = _count_coefficient_reads(monkeypatch, MOVING)
    reports = eh.energy_estimate(chains, G)
    assert at_graph == in_verify == {"weights": nm + 1, "conductances": nm}
    assert all(r.c0_used == certified for r in reports)
    assert certified > 0.0


def test_weak_residual_reads_each_grid_row_once(monkeypatch):
    chain = eh.run_sweep(MOVING, [np.random.default_rng(14).standard_normal(12)],
                                [0.25], m=2)[0][0]
    nm = len(chain.values) - 1
    catalog = eh.default_test_catalog(MOVING, chain.horizon)
    G, at_graph, in_verify = _count_coefficient_reads(monkeypatch, MOVING)
    eh.weak_residual(chain, G, catalog)
    assert at_graph == in_verify == {"weights": nm + 1, "conductances": nm}


def test_checks_read_the_same_rows_and_bits_in_one_row_blocks(monkeypatch):
    # a budget of one float makes every table one row: the rows carried from one
    # block into the next (log w, the next weight row) must change no bit or count
    G = build("conformal_circle", n=16, amp=0.4, omega=2.0, k_spatial=1, growth=0.3)
    u0 = eh.make_initial_data(G, {"profile": "random"})
    chains = eh.run_sweep(G, [u0, -0.5 * u0], [0.25], m=2)[0]
    catalog = eh.default_test_catalog(G, chains[0].horizon)
    oracle = eh.semidiscrete_oracle(G, u0, 1.0, n_steps=64, self_check_tol=1.0)

    def checks(graph):
        return (eh.energy_estimate(chains, graph), eh.weak_residual(chains[0], graph, catalog),
                eh.chain_error_vs_oracle(chains[0], graph, oracle),
                eh.l2h1_interp_norm(chains[0].values, chains[0].times(), graph, 0.125))

    want = checks(G)
    monkeypatch.setattr(eh.linalg, "PREPARE_BUDGET", 1)
    rows = {"weights": 0, "conductances": 0}
    assert checks(_counting_rows(G, rows)) == want
    nm = len(chains[0].values) - 1
    # energy (nm + 1, nm), weak residual (nm + 1, nm), oracle error (nm + 1, 0), l2h1 (0, nm + 1)
    assert rows == {"weights": 3 * (nm + 1), "conductances": 3 * nm + 1}


def _one_vertex_table():
    return build("custom_tabulated", T=1.0, table={
        "n_vertices": 1, "edges": [], "times": [0.0, 1.0], "weights": [[1.0], [2.0]],
        "conductances": [[], []]})


def _hex(x):
    return [_hex(y) for y in x] if isinstance(x, (list, tuple)) else \
        x.hex() if isinstance(x, float) else x


@pytest.mark.parametrize("block_rows", [1, 2, 3, None])
@pytest.mark.parametrize("graph", [
    build("conformal_circle", n=16, amp=0.4, omega=2.0, k_spatial=1, growth=0.3),
    build("product_torus", nx=8, ny=8, ax_amp=0.3, by_amp=0.2), STAR_RING, _one_vertex_table()],
    ids=["circle16_band", "torus8_lattice", "star_ring", "one_vertex"])
def test_blocked_checks_equal_their_row_by_row_references(monkeypatch, graph, block_rows):
    # each check's blocks hold block_rows rows of its own coefficient floats per row
    # (None: the whole grid in one block); every result is bitwise the row loop's
    rng = np.random.default_rng(29)
    u0 = rng.standard_normal(graph.n_vertices)
    # at m = 3 most grid times fall between the oracle's samples
    chains = eh.run_sweep(graph, [u0, rng.standard_normal(graph.n_vertices)], [0.25], m=3)[0]
    chain, times = chains[0], chains[0].times()
    catalog = eh.default_test_catalog(graph, chain.horizon)
    oracle = eh.semidiscrete_oracle(graph, u0, 1.0, n_steps=64, self_check_tol=1.0)
    n, E = graph.n_vertices, graph.n_edges

    def blocks_of(floats_per_row):
        rows = len(times) if block_rows is None else block_rows
        monkeypatch.setattr(eh.linalg, "PREPARE_BUDGET", rows * max(1, floats_per_row))

    blocks_of(n + E)
    sup_l2, dissipation, c0 = energy_reference(chains, graph)
    got = eh.energy_estimate(chains, graph)
    assert _hex([[r.sup_l2 for r in got], [r.dissipation for r in got], got[0].c0_used]) \
        == _hex([sup_l2, dissipation, c0])
    assert _hex([(r.name, r.residual, r.normalization)
                 for r in eh.weak_residual(chain, graph, catalog)]) \
        == _hex(weak_residual_reference(chain, graph, catalog))
    blocks_of(E)
    assert _hex(eh.l2h1_interp_norm(chain.values, times, graph, chain.delta)) \
        == _hex(l2h1_reference(chain.values, times, graph, chain.delta))
    blocks_of(n)
    assert _hex(eh.chain_error_vs_oracle(chain, graph, oracle)) \
        == _hex(chain_error_reference(chain, graph, oracle))
    assert E > 0 or dissipation == [0.0, 0.0]


def test_chain_error_vs_oracle_is_the_loop_over_times():
    # the weighted l2 distance to oracle_value_at at each grid time, max over the
    # times in order; at h = 0.1, m = 3 most grid times fall between oracle samples
    u0 = eh.make_initial_data(MOVING, {"profile": "random"})
    oracle = eh.semidiscrete_oracle(MOVING, u0, 1.0, n_steps=64, self_check_tol=1.0)
    [chain] = eh.run_sweep(MOVING, [u0], [0.1], m=3)[0]
    want = 0.0
    for t, v in zip(chain.times(), chain.values):
        want = max(want, eh.weighted_l2(v - eh.oracle_value_at(oracle, t),
                                        eh.vertex_weights(MOVING, t)))
    got = eh.chain_error_vs_oracle(chain, MOVING, oracle)
    assert type(got) is float and got.hex() == want.hex() and got > 0.0


def test_energy_report_json_uses_pass_key():
    d = eh.report_json(eh.EnergyReport(1.0, 0.5, 2.0, 0.0, 1e-8, True, 0.5))
    assert d == {"sup_l2": 1.0, "dissipation": 0.5, "rhs": 2.0, "c0_used": 0.0,
                 "slack": 1e-8, "pass": True, "margin": 0.5}
    assert list(d) == ["sup_l2", "dissipation", "rhs", "c0_used", "slack", "pass", "margin"]
    # a nested report is written the same way
    energy = eh.EnergyReport(1.0, 0.5, 2.0, 0.0, 1e-8, False, 0.5)
    nested = eh.report_json(eh.ContractionReport(0.0, 1e-9, energy, True))
    assert list(nested) == ["linearity_residual", "linearity_tol", "difference_energy", "pass"]
    assert nested["difference_energy"] == {**d, "pass": False} and nested["pass"] is True


# ---------------------------------------------------------------------------
# extremum and contraction
# ---------------------------------------------------------------------------

def test_extremum_flags_fabricated_violation():
    bad = eh.ChainFamily(h=0.1, m=1, values=np.array([[0.0, 1.0], [0.2, 1.5]]))
    rep = eh.extremum_check(bad, TWO_VERTEX, 0.0)
    assert rep.lo == 0.0 and rep.hi == 1.0
    assert rep.worst_violation == pytest.approx(0.5)
    assert not rep.passed


def test_extremum_tolerance_is_the_solver_bound_over_the_chain():
    rng = np.random.default_rng(9)
    u0 = rng.standard_normal(12)
    floor = 1e-12 * (np.abs(u0).max() + 1.0)
    for rel_tol in (1e-12, 1e-6):
        chain = eh.run_sweep(MOVING, [u0], [0.25], m=2, rel_tol=rel_tol)[0][0]
        solve_error = float(eh.solve_error([chain], MOVING, rel_tol).max())
        rep = eh.extremum_check(chain, MOVING, rel_tol)
        assert rep.passed
        # per chain (j mod m), rel_tol * ||M_t x_prev||_2 / min_i w_i(t) summed
        # over the steps so far; the tolerance is the largest sum plus the floor
        sums = [0.0, 0.0]
        for j, t in enumerate(chain.times()[1:], start=1):
            w = eh.vertex_weights(MOVING, t)
            sums[j % 2] += rel_tol * np.linalg.norm(w * chain.values[max(j - 2, 0)]) / w.min()
        assert solve_error == pytest.approx(max(sums), rel=1e-12)
        assert rep.tol == floor + solve_error
        assert eh.extremum_check(chain, MOVING, 0.0).tol == floor  # exact solves


def test_extremum_flags_sample_pushed_past_derived_bound():
    u0 = np.random.default_rng(10).standard_normal(12)
    chain = eh.run_sweep(MOVING, [u0], [0.25], m=2, rel_tol=1e-8)[0][0]
    rep = eh.extremum_check(chain, MOVING, 1e-8)
    assert rep.passed and rep.tol > 1e-9
    samples = chain.values.copy()
    samples[len(samples) // 2, 5] = u0.max() + 1.5 * rep.tol
    bad = dataclasses.replace(chain, values=samples)
    bad_rep = eh.extremum_check(bad, MOVING, 1e-8)
    assert bad_rep.tol < 1.1 * rep.tol  # later samples step from the pushed one
    assert bad_rep.worst_violation > bad_rep.tol
    assert not bad_rep.passed


def _contraction(u0, v0):
    """contraction_report on chains from u0, v0 and u0 - v0 over MOVING, h=0.25, m=2."""
    chains = eh.run_sweep(MOVING, [u0, v0, u0 - v0], [0.25], m=2, rel_tol=1e-10)[0]
    [energy_d] = eh.energy_estimate(chains[2:], MOVING)
    return eh.contraction_report(MOVING, *chains, energy_d, 1e-10)


def test_contraction_identical_data():
    u0 = np.random.default_rng(4).standard_normal(12)
    rep = _contraction(u0, u0)
    assert rep.linearity_residual == 0.0
    assert rep.difference_energy.rhs == 0.0
    assert rep.passed


def test_contraction_exact_scaling():
    # v0 = 2 u0 makes the difference run the bitwise negation of the u0 run
    u0 = np.random.default_rng(5).standard_normal(12)
    v0 = 2.0 * u0
    rep = _contraction(u0, v0)
    assert rep.linearity_residual == 0.0
    assert rep.passed


def test_contraction_tolerance_follows_solver_tolerance():
    rng = np.random.default_rng(6)
    u0, v0 = rng.standard_normal(12), rng.standard_normal(12)
    initials = [u0, v0, u0 - v0]
    w0 = eh.vertex_weights(MOVING, 0.0)
    floor = 1e-9 * (eh.weighted_l2(u0, w0) + eh.weighted_l2(v0, w0))
    tols = []
    for rel_tol in (1e-12, 1e-6):
        chains = eh.run_sweep(MOVING, initials, [0.25], m=2, rel_tol=rel_tol)[0]
        solve_error = float(sum(eh.solve_error(chains, MOVING, rel_tol)).max())
        [energy_d] = eh.energy_estimate(chains[2:], MOVING)
        rep = eh.contraction_report(MOVING, *chains, energy_d, rel_tol)
        assert rep.passed
        tols.append(rep.linearity_tol)
        # per chain (j mod m), rel_tol * ||M_t x_prev||_2 / min_i w_i(t) summed over
        # the steps so far and the three families; the tolerance is the largest sum
        sums = [0.0, 0.0]
        for j, t in enumerate(chains[0].times()[1:], start=1):
            w = eh.vertex_weights(MOVING, t)
            prev = max(j - 2, 0)
            sums[j % 2] += sum(rel_tol * np.linalg.norm(w * c.values[prev]) / w.min()
                               for c in chains)
        assert solve_error == pytest.approx(max(sums), rel=1e-12)
        assert rep.linearity_tol == solve_error + floor
    assert floor < tols[0] < 2 * floor
    assert tols[1] > 1e3 * tols[0]


@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("graph", [build("conformal_circle", n=256, k_spatial=1),
                                   build("product_torus", nx=12, ny=12), STAR_RING],
                         ids=["circle256_band", "torus12_cg", "star_ring"])
def test_run_solve_error_equals_the_varah_reference(graph, m):
    rng = np.random.default_rng(8)
    initials = [rng.standard_normal(graph.n_vertices) for _ in range(3)]
    chains = eh.run_sweep(graph, initials, [0.1], m=m, rel_tol=1e-8)[0]
    certificate = eh.solve_error(chains, graph, 1e-8)
    assert np.array_equal(certificate, varah_bounds(graph, chains, 1e-8))
    assert (certificate[:, 0] == 0.0).all() and (certificate[:, -1] > 0.0).all()
    # each family's certificate is its own: alone it is the same, bitwise
    [alone] = eh.run_sweep(graph, initials[1:2], [0.1], m=m, rel_tol=1e-8)[0]
    assert np.array_equal(eh.solve_error([alone], graph, 1e-8)[0], certificate[1])


def test_solve_error_rejects_empty_or_mismatched_families():
    G = build("static_circle", n=8)
    chain = eh.run_sweep(G, [np.ones(8)], [0.25], m=2)[0][0]
    with pytest.raises(ValueError, match="at least one"):
        eh.solve_error([], G, 1e-10)
    with pytest.raises(ValueError, match="share h, m and row count"):
        eh.solve_error([chain, dataclasses.replace(chain, values=chain.values[:-2])], G, 1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_tolerance_on_a_certificate_that_overflows_names_its_grid_time():
    # each family's certificate is finite, the three chains' row-wise sum is not:
    # a step adds 1e-10 * ||M u||_2 / min w = 1.5e307 for u and v, 3e307 for u - v,
    # so the sum passes the largest double (1.8e308) at the third step, t = 0.5
    G = build("custom_tabulated", T=1.0, table={
        "n_vertices": 2, "edges": [[0, 1]], "times": [0.0, 1.0],
        "weights": [[1e-300, 1.0], [1e-300, 1.0]], "conductances": [[1.0], [1.0]]})
    u0, v0 = np.array([0.0, 1.5e17]), np.array([0.0, -1.5e17])
    chains = eh.run_sweep(G, [u0, v0, u0 - v0], [0.2], m=2)[0]
    errors = eh.solve_error(chains, G, 1e-10)
    assert np.isfinite(errors).all()
    [energy_d] = eh.energy_estimate(chains[2:], G)
    with pytest.raises(eh.SolverError, match=r"certificate at t = 0.5 \(h = 0.2\) is not finite"):
        eh.contraction_report(G, *chains, energy_d, 1e-10)
    # a certificate that is itself inf fails the extremum and attainment tolerances
    with pytest.raises(eh.SolverError, match=r"certificate at t = 0.1 \(h = 0.2\)"):
        eh.extremum_check(chains[0], G, 1e300)
    with pytest.raises(eh.SolverError, match=r"certificate at t = 0.2 \(h = 0.2\)"):
        eh.initial_attainment_check(chains[0], G, 0.2, 1e300)


def test_contraction_catches_difference_chain_off_by_tenfold_bound():
    rng = np.random.default_rng(7)
    u0, v0 = rng.standard_normal(12), rng.standard_normal(12)
    chain_u, chain_v, chain_d = eh.run_sweep(
        MOVING, [u0, v0, u0 - v0], [0.25], m=2, rel_tol=1e-8)[0]
    [energy_d] = eh.energy_estimate([chain_d], MOVING)
    rep = eh.contraction_report(MOVING, chain_u, chain_v, chain_d, energy_d, 1e-8)
    assert rep.passed

    j = len(chain_d.values) // 2
    samples = chain_d.values.copy()
    samples[j, 3] += 10.0 * rep.linearity_tol
    bad_d = dataclasses.replace(chain_d, values=samples)
    [bad_energy] = eh.energy_estimate([bad_d], MOVING)
    bad = eh.contraction_report(MOVING, chain_u, chain_v, bad_d, bad_energy, 1e-8)
    assert bad.difference_energy.passed
    # the certificate is read from the rows, and later rows step from the pushed one
    assert bad.linearity_tol == pytest.approx(rep.linearity_tol, rel=1e-6)
    assert bad.linearity_residual > 9.0 * bad.linearity_tol
    assert not bad.passed


# ---------------------------------------------------------------------------
# convergence bookkeeping
# ---------------------------------------------------------------------------

def test_convergence_table_first_order():
    G = build("static_circle", n=16)
    rows = eh.convergence_table(G, eh.make_initial_data(G, {"profile": "harmonic", "k": 1}),
                                [0.2, 0.1, 0.05], m=1, oracle_steps=512)
    errs = [r.error for r in rows]
    assert errs[0] > errs[1] > errs[2] > 0
    assert rows[0].observed_order is None
    for r in rows[1:]:
        assert 0.7 < r.observed_order < 1.3
    assert 0.8 < eh.fit_order(rows) < 1.2


def test_convergence_table_constant_data():
    G = build("conformal_circle", n=8)
    rows = eh.convergence_table(G, np.ones(8), [0.2, 0.1], m=1, oracle_steps=64, rel_tol=1e-13)
    assert all(r.error <= 1e-10 for r in rows)


def test_fit_order_edge_cases():
    exact = [eh.ConvergenceRow(0.4, 1, 0.8, None), eh.ConvergenceRow(0.1, 1, 0.2, None)]
    assert_allclose(eh.fit_order(exact), 1.0, rtol=1e-12)
    tiny = [eh.ConvergenceRow(0.4, 1, 1e-14, None), eh.ConvergenceRow(0.1, 1, 1e-15, None)]
    assert eh.fit_order(tiny) is None


def test_fit_order_of_one_distinct_h_is_none():
    # a repeated h leaves nothing to fit: no slope, and no 0/0 on the way
    rows = [eh.ConvergenceRow(0.1, 1, 0.3, None), eh.ConvergenceRow(0.1, 1, 0.2, None)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eh.fit_order(rows) is None


# ---------------------------------------------------------------------------
# weak residual
# ---------------------------------------------------------------------------

def test_weak_residual_quadrature_rate():
    # constant solution on a static circle: the defect is purely the left-endpoint
    # quadrature error of phi', which is (delta/2)(phi'(0) - phi'(T)) to leading
    # order, i.e. 2*pi^2*delta for phi = sin(pi t).
    G = build("static_circle", n=8)
    u0 = np.ones(8)
    fn = eh.TestFunction(name="const_sin", space=np.ones(8),
                         profile=lambda t: math.sin(math.pi * t),
                         profile_dt=lambda t: math.pi * math.cos(math.pi * t))
    res = {}
    for h in (0.1, 0.05):
        chain = eh.run_sweep(G, [u0], [h], m=1, rel_tol=1e-13)[0][0]
        (row,) = eh.weak_residual(chain, G, [fn])
        res[h] = row.residual
    assert_allclose(res[0.1], 2 * math.pi ** 2 * 0.1, rtol=0.02)
    assert 1.9 < res[0.1] / res[0.05] < 2.1


def test_weak_residual_zero_profile():
    G = build("static_circle", n=8)
    chain = eh.run_sweep(G, [np.ones(8)], [0.25], m=1)[0][0]
    fn = eh.TestFunction("null", np.ones(8), lambda t: 0.0, lambda t: 0.0)
    (row,) = eh.weak_residual(chain, G, [fn])
    assert row.residual == 0.0 and row.normalization == 0.0


def test_weak_residual_requires_vanishing_profile():
    G = build("static_circle", n=8)
    chain = eh.run_sweep(G, [np.ones(8)], [0.25], m=1)[0][0]
    fn = eh.TestFunction("cos", np.ones(8),
                         lambda t: math.cos(math.pi * t),
                         lambda t: -math.pi * math.sin(math.pi * t))
    with pytest.raises(ValueError, match="vanish"):
        eh.weak_residual(chain, G, [fn])


def test_weak_residual_equals_per_function_loop():
    # the loop over test functions outside the loop over grid times, with every
    # coefficient row tabulated up front; the rows must agree bitwise
    G = build("conformal_circle", n=16, amp=0.4, omega=2.0, k_spatial=1, growth=0.3)
    chain = eh.run_sweep(G, [eh.make_initial_data(G, {"profile": "random"})], [0.1], m=3)[0][0]
    fns = eh.default_test_catalog(G, chain.horizon)
    delta, nm = chain.delta, len(chain.values) - 1
    w = [eh.vertex_weights(G, j * delta) for j in range(nm + 1)]
    loss = [(w[j] - w[j + 1]) / delta for j in range(nm)]
    cond = [eh.edge_conductances(G, j * delta) for j in range(nm)]
    want = []
    for fn in fns:
        phis = np.array([fn.profile(j * delta) for j in range(nm)])
        acc = norm = 0.0
        psi = fn.space
        for j in range(nm):
            u = chain.values[j]
            mass_term = fn.profile_dt(j * delta) * float(np.dot(w[j] * u, psi)) \
                - phis[j] * float(np.dot(loss[j] * u, psi))
            d_u = u[G.edges[:, 0]] - u[G.edges[:, 1]]
            d_psi = psi[G.edges[:, 0]] - psi[G.edges[:, 1]]
            acc += delta * (mass_term - phis[j] * float(np.dot(cond[j], d_u * d_psi)))
            norm += delta * abs(phis[j]) * eh.weighted_l2(psi, w[j])
        want.append((fn.name, abs(acc), norm))
    got = [(r.name, r.residual, r.normalization) for r in eh.weak_residual(chain, G, fns)]
    assert got == want


def test_weak_residual_is_finite_where_a_weight_vanishes():
    # unvalidated: vertex 0's weight reaches 0 at t = 0.5 and stays 0 to the last
    # grid time, so any division by w(t_j) would give 0/0
    base = build("static_circle", n=8)
    G = eh.TimeWeightedGraph(
        8, base.edges,
        lambda ts: np.column_stack([np.maximum(1.0 - 2.0 * ts, 0.0), np.ones((len(ts), 7))]),
        base.conductances_at, 1.0)
    chain = eh.ChainFamily(0.25, 1, np.random.default_rng(0).standard_normal((5, 8)))
    fn = eh.TestFunction("sin", np.ones(8), lambda t: math.sin(math.pi * t),
                         lambda t: math.pi * math.cos(math.pi * t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (row,) = eh.weak_residual(chain, G, [fn])
    assert math.isfinite(row.residual) and math.isfinite(row.normalization)


def test_weak_residual_validates_before_evaluating_coefficients():
    calls = []
    base = build("static_circle", n=8)
    G = eh.TimeWeightedGraph(8, base.edges, lambda ts: calls.append(ts) or np.ones((len(ts), 8)),
                             base.conductances_at, 1.0)
    chain = eh.ChainFamily(0.25, 1, np.ones((5, 8)))
    good = eh.TestFunction("sin", np.ones(8), lambda t: math.sin(math.pi * t),
                           lambda t: math.pi * math.cos(math.pi * t))
    bad = eh.TestFunction("cos", np.ones(8), lambda t: math.cos(math.pi * t),
                          lambda t: -math.pi * math.sin(math.pi * t))
    with pytest.raises(ValueError, match="cos"):
        eh.weak_residual(chain, G, [good, bad])
    assert calls == []


def test_weak_residual_shrinks_with_h():
    G = build("conformal_circle", n=16, amp=0.4, omega=2.0, k_spatial=1)
    u0 = eh.make_initial_data(G, {"profile": "harmonic", "k": 1})
    fns = eh.default_test_catalog(G, 1.0)
    assert [f.name for f in fns] == ["k1_sin", "k1_poly", "k2_sin", "k2_poly"]
    coarse = eh.weak_residual(eh.run_sweep(G, [u0], [0.2], m=1, rel_tol=1e-12)[0][0], G, fns)
    fine = eh.weak_residual(eh.run_sweep(G, [u0], [0.05], m=1, rel_tol=1e-12)[0][0], G, fns)
    for c, f in zip(coarse, fine):
        assert f.residual < c.residual


# ---------------------------------------------------------------------------
# initial attainment, interpolation norms, resolvent family
# ---------------------------------------------------------------------------

def test_attainment_grid_validation():
    G = build("static_circle", n=8)
    chain = eh.run_sweep(G, [np.ones(8)], [0.1], m=4)[0][0]
    with pytest.raises(ValueError, match="grid"):
        eh.initial_attainment_check(chain, G, 0.03, 1e-10)
    # on the grid, but past the first step, where the minimality bound does not hold
    for t_small in (0.0, 0.125, 1.0):
        with pytest.raises(ValueError, match="outside"):
            eh.initial_attainment_check(chain, G, t_small, 1e-10)


def test_attainment_minimality_bound():
    u0 = eh.make_initial_data(MOVING, {"profile": "harmonic", "k": 2})
    h = 0.1
    chain = eh.run_sweep(MOVING, [u0], [h], m=4, rel_tol=1e-12)[0][0]
    delta = h / 4
    for j in (1, 2, 4):  # first-chain samples take one full step from u0
        t = j * delta
        rep = eh.initial_attainment_check(chain, MOVING, t, 1e-12)
        bound = h * eh.dirichlet_energy(MOVING, t, u0)
        assert rep.minimality_bound_sq == bound
        assert rep.distance ** 2 <= bound * (1 + 1e-8)
        assert rep.passed


@pytest.mark.parametrize("h, m", [(0.1, 4), (0.22, 10), (0.1, 3)])
@pytest.mark.parametrize("graph", [build("conformal_circle", n=256, k_spatial=1),
                                   build("product_torus", nx=12, ny=12)],
                         ids=["circle256_band", "torus12_cg"])
def test_attainment_report_equals_the_verdict_written_out(graph, h, m):
    # the verdict as the verify command formed it by hand.  At h = 0.22, m = 10, h
    # itself is not m * delta; at h = 0.1, m = 3 no grid time j * delta is the
    # decimal t_small, and the torus weights at the two times differ
    u0 = eh.make_initial_data(graph, {"profile": "random"})
    [chain] = eh.run_sweep(graph, [u0], [h], m, rel_tol=1e-8)[0]
    delta = h / m
    for j, t_small in [(j, round(j * delta, 12)) for j in (1, m // 2)] + [(m, h)]:
        w = eh.vertex_weights(graph, j * delta)  # the weights row j was solved with
        distance = eh.weighted_l2(chain.values[j] - u0, w)
        bound = h * eh.dirichlet_energy(graph, t_small, u0)
        certificate = float(eh.solve_error([chain], graph, 1e-8)[0, j])
        solver_error = certificate * math.sqrt(float(w.sum()))
        passed = max(distance - solver_error, 0.0) ** 2 <= bound * (1.0 + 1e-8) + 1e-30
        want = eh.AttainmentReport(t_small, distance, bound, solver_error, passed)
        got = eh.initial_attainment_check(chain, graph, t_small, 1e-8)
        assert _bits(got) == _bits(want)
        assert got.passed and solver_error > 0.0


def test_attainment_shrinks_with_h():
    G = build("static_circle", n=16)
    u0 = eh.make_initial_data(G, {"profile": "harmonic", "k": 1})
    dists = []
    for h in (0.2, 0.1, 0.05):
        chain = eh.run_sweep(G, [u0], [h], m=1, rel_tol=1e-12)[0][0]
        dists.append(eh.initial_attainment_check(chain, G, h, 1e-12).distance)
    assert dists[0] > dists[1] > dists[2]


def test_l2h1_norm_hand_value():
    s = np.array([[1.0, 0.0]])
    assert eh.l2h1_interp_norm(s, [0.5], TWO_VERTEX, dt=0.25) == 0.25
    assert eh.l2h1_interp_norm(np.empty((0, 2)), [], TWO_VERTEX, dt=0.25) == 0.0


def test_l2h1_norm_sums_plainly_left_to_right():
    # each 1e-16 term is below half an ulp of 1.0, so a plain running sum never
    # moves while a compensated one (Python >= 3.12's sum()) ends near 1 + 1e-14
    rows = np.array([[1.0, 0.0]] + [[1e-8, 0.0]] * 100)
    times = np.linspace(0.0, 4.0, len(rows))
    terms = [eh.dirichlet_energy(TWO_VERTEX, t, v) for t, v in zip(times, rows)]
    assert terms[0] == 1.0 and math.fsum(terms) > 1.0
    assert eh.l2h1_interp_norm(rows, times, TWO_VERTEX, dt=1.0) == 1.0


@pytest.mark.parametrize("block_rows", [3, None])
def test_energy_dissipation_sums_plainly_left_to_right(monkeypatch, block_rows):
    # as for the l2h1 norm: each 0.25 * 1e-16 term is below half an ulp of 0.25, so
    # a plain running sum never moves, while a compensated or pairwise one does
    rows = np.array([[0.0, 0.0], [1.0, 0.0]] + [[1e-8, 0.0]] * 15)
    chain = eh.ChainFamily(0.25, 1, rows)
    terms = [0.25 * eh.dirichlet_energy(TWO_VERTEX, t, v)
             for t, v in zip(chain.times()[1:], rows[1:])]
    assert terms[0] == 0.25 and math.fsum(terms) > 0.25
    if block_rows is not None:
        monkeypatch.setattr(eh.linalg, "PREPARE_BUDGET", block_rows * 3)
    [report] = eh.energy_estimate([chain], TWO_VERTEX)
    assert report.dissipation == 0.25


def test_degiorgi_family_grid_and_static_ratio(monkeypatch):
    G = build("static_circle", n=16)
    u0 = eh.make_initial_data(G, {"profile": "harmonic", "k": 2})
    h, m = 0.2, 4
    chain = eh.run_sweep(G, [u0], [h], m, rel_tol=1e-12)[0][0]
    seq = chain.values[::m]
    dg = eh.degiorgi_family(G, seq, h, m, rel_tol=1e-12)
    assert len(dg) == len(chain.values[1:])
    # row j - 1 is the resolvent value at the grid time t = j*delta: a step of the
    # shortened length t - (k-1)*h from u_{k-1}, k the step interval holding t
    for j, t in enumerate(chain.times()[1:], start=1):
        k = (j - 1) // m + 1
        want = lone_step(G, t, t - (k - 1) * h, seq[k - 1], rel_tol=1e-12)
        assert np.array_equal(dg[j - 1], want)
    # at step multiples the resolvent solves the stepping system itself
    assert_allclose(dg[m - 1], seq[1], atol=1e-9)
    # statically, the shortened step smooths strictly less mode by mode
    times = chain.times()[1:]
    shifted_norm = eh.l2h1_interp_norm(chain.values[1:], times, G, chain.delta)
    dg_norm = eh.l2h1_interp_norm(dg, times, G, chain.delta)
    assert dg_norm >= shifted_norm * (1 - 1e-12)
    # every rejection comes before the first coefficient read or preparation
    calls = []
    for name in ("weight_table", "conductance_table", "spd_prepare"):
        monkeypatch.setattr(eh.verify, name, lambda *args, name=name: calls.append(name))
    nan_row = seq.copy()
    nan_row[1, 3] = np.nan
    for bad_seq, bad_h, bad_m, message in [
            (seq[:1], h, m, "at least one step"), (seq, 0.0, m, "h must be positive"),
            (seq, h, 0, "m must be an integer"), (seq, h, 2.5, "m must be an integer"),
            (nan_row, h, m, "finite"), (seq[:, :3], h, m, "shape")]:
        with pytest.raises(ValueError, match=message):
            eh.degiorgi_family(G, bad_seq, bad_h, bad_m)
    assert calls == []


@pytest.mark.parametrize("graph", [MOVING, STAR_RING], ids=["band", "star_cg"])
def test_degiorgi_family_batches_keep_to_the_budget(monkeypatch, graph):
    # at budgets of one step interval, three intervals and the default (which
    # holds every interval of these small graphs), the rows are bitwise equal
    h, m = 0.1, 3
    seq = np.random.default_rng(31).standard_normal((11, graph.n_vertices))
    interval = m * eh.linalg.prepared_floats(graph.plan)
    real_prepare = eh.verify.spd_prepare
    results = []
    for intervals, batches in [(None, 1), (1, 10), (3, 4)]:
        if intervals is not None:
            monkeypatch.setattr(eh.linalg, "PREPARE_BUDGET", intervals * interval)
        budget = eh.linalg.PREPARE_BUDGET
        sizes = []

        def preparing(plan, mass, coeffs, hs):
            sizes.append(len(hs))
            return real_prepare(plan, mass, coeffs, hs)

        monkeypatch.setattr(eh.verify, "spd_prepare", preparing)
        results.append(eh.degiorgi_family(graph, seq, h, m))
        assert len(sizes) == batches and sum(sizes) == 10 * m
        assert all(k % m == 0 and (k * interval // m <= budget or k == m) for k in sizes)
    assert all(np.array_equal(r, results[0]) for r in results)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_degiorgi_family_rejects_data_whose_right_hand_side_norm_overflows():
    # finite rows near 1e160: the right-hand sides' 2-norms overflow, and the
    # solve raises instead of returning x = 0
    G = star_ring_graph()
    seq = 1e160 * np.random.default_rng(3).standard_normal((3, G.n_vertices))
    with pytest.raises(eh.SolverError, match="overflows to inf"):
        eh.degiorgi_family(G, seq, 0.1, 2)
