"""Graph construction conventions, growth bounds, tabulated input."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import evoheat as eh
from evoheat.geometry import Scenario, ScenarioError

from helpers import build, growth_reference

# Circle conventions frozen by hand for N = 4 equispaced vertices on length 2*pi:
# vertex weight a*dx with a = 1, conductance 1/(dx*a) with dx = pi/2.
QUARTER_WEIGHT = 1.5707963267948966  # 2*pi/4
QUARTER_COND = 0.6366197723675814  # 4/(2*pi)


def test_static_circle_conventions():
    G = build("static_circle", n=4)
    assert G.n_vertices == 4
    assert G.n_edges == 4
    assert_allclose(eh.vertex_weights(G, 0.0), QUARTER_WEIGHT, rtol=1e-15)
    assert_allclose(eh.edge_conductances(G, 0.7), QUARTER_COND, rtol=1e-15)
    # total volume is the circumference
    assert_allclose(eh.vertex_weights(G, 0.3).sum(), 2 * math.pi, rtol=1e-14)


def _conformal_a(amp, omega, k, growth):
    return lambda t, x: math.exp(growth * t) * (1.0 + amp * math.sin(omega * t) * np.cos(k * x))


def _pinching_a(amplitude, sharpness):
    return lambda t, x: 1.0 - t * (amplitude * ((1.0 + np.cos(x - math.pi)) / 2.0) ** sharpness)


@pytest.mark.parametrize("kind, params, a", [
    ("conformal_circle", dict(n=24, amp=0.3, omega=2.0, k_spatial=0, growth=-0.7),
     _conformal_a(0.3, 2.0, 0, -0.7)),
    ("conformal_circle", dict(n=24, amp=0.3, omega=2.0, k_spatial=2, growth=0.4),
     _conformal_a(0.3, 2.0, 2, 0.4)),
    ("oscillating_metric", dict(n=24), _conformal_a(0.5, 4.0 * math.pi, 1, 0.0)),
    ("pinching_circle", dict(n=24, amplitude=0.8, sharpness=3.0), _pinching_a(0.8, 3.0)),
], ids=["conformal_k0", "conformal_k2", "oscillating", "pinching"])
def test_circle_coefficients_equal_the_documented_formula(kind, params, a):
    # the time-independent factors are computed once per graph; the
    # coefficients keep the bits of a(t, x) evaluated afresh
    G = build(kind, **params)
    dx = 2.0 * math.pi / params["n"]
    x = dx * np.arange(params["n"])
    for t in (0.0, 0.125, 0.3, 0.77, 1.0):
        assert np.array_equal(eh.vertex_weights(G, t), a(t, x) * dx)
        assert np.array_equal(eh.edge_conductances(G, t), 1.0 / (dx * a(t, x + dx / 2)))


def test_conformal_exponential_weights():
    # a(t, x) = exp(t), so at t = 1 every weight is e * 2*pi/4
    G = build("conformal_circle", n=4, amp=0.0, growth=1.0)
    assert_allclose(eh.vertex_weights(G, 1.0), math.e * QUARTER_WEIGHT, rtol=1e-14)
    assert_allclose(eh.edge_conductances(G, 1.0), QUARTER_COND / math.e, rtol=1e-14)


@pytest.mark.parametrize("coefficient", [eh.vertex_weights, eh.edge_conductances],
                         ids=["vertex_weights", "edge_conductances"])
@pytest.mark.parametrize("kind", eh.SCENARIO_KINDS)
def test_negative_time_frozen(kind, coefficient):
    G = build(kind, table=_table_doc()) if kind == "custom_tabulated" else build(kind)
    for t in (-1e-12, -0.3, -1.0):
        assert np.array_equal(coefficient(G, t), coefficient(G, 0.0))


def _ring_table(n=19, knots=(0.0, 0.3, 0.7, 1.0)):
    """A tabulated ring whose rows are longer than a SIMD register, with random knots."""
    rng = np.random.default_rng(19)
    return {"n_vertices": n, "edges": [[i, (i + 1) % n] for i in range(n)], "times": list(knots),
            "weights": rng.uniform(0.5, 2.0, (len(knots), n)).tolist(),
            "conductances": rng.uniform(0.0, 2.0, (len(knots), n)).tolist()}


# every scenario kind, and a static graph, each on [0, 1]
TABLE_GRAPHS = {
    "static_circle": build("static_circle", n=9),
    "conformal_circle": build("conformal_circle", n=17, amp=0.4, omega=3.0, k_spatial=2,
                              growth=0.7),
    "product_torus": build("product_torus", nx=3, ny=5),
    "shrinking_sphere_analogue": build("shrinking_sphere_analogue"),
    "pinching_circle": build("pinching_circle", n=13),
    "oscillating_metric": build("oscillating_metric", n=11),
    "custom_tabulated": build("custom_tabulated", table=_ring_table()),
    "static": eh.TimeWeightedGraph.static([1.0, 2.0, 0.5], [[0, 1], [1, 2]], [0.5, 0.0]),
}


def test_table_graphs_cover_every_scenario_kind():
    assert set(eh.SCENARIO_KINDS) < set(TABLE_GRAPHS)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(TABLE_GRAPHS)),
       times=st.lists(st.one_of(st.sampled_from([0.0, 1.0, -0.0, -0.5]),
                                st.floats(-1.0, 1.0, allow_nan=False)),
                      min_size=1, max_size=40))
def test_table_is_the_stack_of_its_one_row_tables(name, times):
    # a row of a table must not depend on the other times read with it, so one
    # block read gives every row bitwise as a read of its time alone would
    G = TABLE_GRAPHS[name]
    W, C = eh.weight_table(G, times), eh.conductance_table(G, times)
    assert W.shape == (len(times), G.n_vertices) and C.shape == (len(times), G.n_edges)
    for t, w, c in zip(times, W, C):
        assert np.array_equal(w, eh.vertex_weights(G, t))
        assert np.array_equal(c, eh.edge_conductances(G, t))
        if t < 0:  # frozen below 0
            assert np.array_equal(w, eh.vertex_weights(G, 0.0))


def test_table_beyond_the_horizon_rejected():
    G = build("static_circle", n=4, T=0.5)
    with pytest.raises(ValueError, match="^time 0.6 beyond graph horizon 0.5$"):
        eh.weight_table(G, [0.1, 0.6, 0.7])
    with pytest.raises(ValueError, match="^time 0.6 beyond graph horizon 0.5$"):
        eh.conductance_table(G, [0.6])


def test_time_beyond_horizon_rejected():
    G = build("static_circle", n=4, T=0.5)
    with pytest.raises(ValueError):
        eh.vertex_weights(G, 0.6)


def test_edges_sorted_and_valid():
    G = build("product_torus", nx=3, ny=4)
    assert G.n_vertices == 12
    assert G.n_edges == 24
    assert np.all(G.edges[:, 0] < G.edges[:, 1])


def test_torus_declares_its_lattice_and_the_plan_checks_it():
    G = build("product_torus", nx=3, ny=4)
    assert G.lattice == (3, 4) and G.plan.lattice.shape == (3, 4)
    # x edges (ix, iy) - (ix + 1, iy) come first, as the torus builds them
    assert G.plan.lattice.axis.tolist() == [0] * 12 + [1] * 12
    swapped = dataclasses.replace(G, lattice=(4, 3))
    with pytest.raises(ValueError, match="not the periodic 4x3 lattice"):
        swapped.plan


def test_octahedron_shape():
    G = build("shrinking_sphere_analogue", radius0=2.0)
    assert G.n_vertices == 6
    assert G.n_edges == 12
    area = 4 * math.pi * 4.0
    assert_allclose(eh.vertex_weights(G, 0.0).sum(), area, rtol=1e-14)
    # weights shrink linearly, conductances do not move
    assert_allclose(eh.vertex_weights(G, 1.0), (area / 6) * 0.5, rtol=1e-14)
    assert np.array_equal(eh.edge_conductances(G, 1.0), eh.edge_conductances(G, 0.0))


def test_dirichlet_energy_hand_value():
    G = build("static_circle", n=4)
    u = np.array([1.0, 0.0, 0.0, 0.0])
    # two edges see the unit jump
    assert_allclose(eh.dirichlet_energy(G, 0.0, u), 2 * QUARTER_COND, rtol=1e-14)
    assert eh.dirichlet_energy(G, 0.0, np.full(4, 3.7)) == 0.0


def _c0_used(G, h, m):
    """The growth rate ``energy_estimate`` certifies on the (h, m) chain grid.

    c0 depends on the grid alone, so the chain's values are zeros and nothing is solved.
    """
    rows = eh.steps_within_horizon(G.horizon, h) * m + 1
    chain = eh.ChainFamily(h, m, np.zeros((rows, G.n_vertices)), np.zeros(rows))
    [report] = eh.energy_estimate([chain], G)
    return report.c0_used


def test_volume_growth_bound_static_is_zero():
    G = build("static_circle", n=8)
    assert _c0_used(G, 0.1, 1) == 0.0


def test_volume_growth_bound_exponential_exact():
    # log w is linear in t with slope exactly 1, any grid recovers it
    G = build("conformal_circle", n=8, amp=0.0, growth=1.0)
    for h, m in ((0.13, 1), (0.25, 2), (0.22, 10)):
        assert_allclose(_c0_used(G, h, m), 1.0, rtol=1e-12)


def test_volume_growth_bound_shrinking_is_zero():
    G = build("pinching_circle", n=16, amplitude=0.6)
    assert _c0_used(G, 0.05, 1) == 0.0


def test_volume_growth_bound_refinement_monotone():
    # the fine grid (delta = 0.125) holds every point of the coarse one (0.25)
    G = build("conformal_circle", n=16, amp=0.5, omega=3.0, k_spatial=1)
    assert _c0_used(G, 0.25, 1) <= _c0_used(G, 0.25, 2) + 1e-12


@pytest.mark.parametrize("kind, params", [
    ("conformal_circle", {"n": 32, "amp": 0.5, "omega": 3.0, "k_spatial": 2, "growth": 0.4}),
    ("product_torus", {"nx": 6, "ny": 5}),
    ("oscillating_metric", {"n": 16}),
])
def test_volume_growth_bound_equals_stacked_rates(kind, params):
    # every grid row tabulated, then one vectorized difference quotient
    G = build(kind, **params)
    grid = np.arange(41) * 0.025  # the grid of h = 0.1, m = 4
    logw = np.stack([np.log(eh.vertex_weights(G, t)) for t in grid])
    rates = np.diff(logw, axis=0) / np.diff(grid)[:, None]
    assert _c0_used(G, 0.1, 4) == max(0.0, float(rates.max()))


@pytest.mark.parametrize("h, m", [(0.1, 4), (0.22, 10), (0.05, 1)])
@pytest.mark.parametrize("kind", eh.SCENARIO_KINDS)
def test_certified_c0_equals_the_growth_reference(kind, h, m):
    G = build(kind, table=_table_doc()) if kind == "custom_tabulated" else build(kind)
    times = np.arange(eh.steps_within_horizon(G.horizon, h) * m + 1) * (h / m)
    assert _c0_used(G, h, m) == growth_reference(G, times)


def test_scenario_roundtrip():
    spec = Scenario(kind="pinching_circle", T=0.5, params={"n": 32, "amplitude": 0.7})
    again = Scenario.from_dict(spec.to_dict())
    assert again == spec


@pytest.mark.parametrize("as_int, as_float", [
    ({"kind": "conformal_circle", "n": 16, "T": 1, "amp": 0, "omega": 2, "growth": 1},
     {"kind": "conformal_circle", "n": 16, "T": 1.0, "amp": 0.0, "omega": 2.0, "growth": 1.0}),
    ({"kind": "product_torus", "nx": 4, "ny": 5, "ax_amp": 0, "ax_omega": 3, "by_omega": 1},
     {"kind": "product_torus", "nx": 4, "ny": 5, "ax_amp": 0.0, "ax_omega": 3.0,
      "by_omega": 1.0}),
    ({"kind": "pinching_circle", "n": 16, "T": 1, "sharpness": 3},
     {"kind": "pinching_circle", "n": 16, "T": 1.0, "sharpness": 3.0}),
    ({"kind": "shrinking_sphere_analogue", "T": 1, "radius0": 3},
     {"kind": "shrinking_sphere_analogue", "T": 1.0, "radius0": 3.0}),
], ids=["conformal", "torus", "pinching", "sphere"])
def test_integer_spelling_of_a_real_builds_the_same_bits(as_int, as_float):
    # an integer is a valid real, and the builders use it as the float it spells
    G, H = (eh.build_scenario(Scenario.from_dict(d)) for d in (as_int, as_float))
    assert type(Scenario.from_dict(as_int).T) is float and G.horizon == H.horizon
    for t in (0.0, 0.3, 0.77, 1.0):
        assert np.array_equal(eh.vertex_weights(G, t), eh.vertex_weights(H, t))
        assert np.array_equal(eh.edge_conductances(G, t), eh.edge_conductances(H, t))


@pytest.mark.parametrize("as_int, as_float", [
    ({"profile": "constant", "value": 2}, {"profile": "constant", "value": 2.0}),
    ({"profile": "bump", "center": 3, "width": 1},
     {"profile": "bump", "center": 3.0, "width": 1.0}),
    ({"profile": "random", "scale": 2}, {"profile": "random", "scale": 2.0}),
], ids=["constant", "bump", "random"])
def test_integer_spelling_of_a_real_makes_the_same_data(as_int, as_float):
    G = build("static_circle", n=8)
    u, v = eh.make_initial_data(G, as_int), eh.make_initial_data(G, as_float)
    assert u.dtype == v.dtype == np.float64 and np.array_equal(u, v)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("static_circle", {"n": 2}),
        ("conformal_circle", {"amp": 1.0}),
        ("conformal_circle", {"bogus": 3}),
        ("product_torus", {"nx": 2}),
        ("oscillating_metric", {"amp": -1.5}),
        ("no_such_kind", {}),
        ("custom_tabulated", {}),  # neither a path nor a table
    ],
)
def test_bad_scenarios_rejected(kind, params):
    with pytest.raises(ScenarioError):
        build(kind, **params)


@pytest.mark.parametrize("growth, fragment", [
    (720.0, "^growth: e\\^\\(growth\\*T\\) overflows on \\[0, T=1.0\\], got 720.0$"),
    (-720.0, "^growth: 1/\\(dx\\*a\\) overflows on \\[0, T=1.0\\] with n=64, got -720.0$"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # rejected before numpy divides by a
def test_conformal_growth_that_overflows_is_rejected(growth, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        build("conformal_circle", n=64, growth=growth)
    build("conformal_circle", n=64, growth=growth / 2)  # e^360 and e^-360 are doubles


def test_nonpositive_horizon_rejected():
    with pytest.raises(ScenarioError):
        build("static_circle", T=0.0, n=4)


def test_pinching_past_collapse_rejected():
    with pytest.raises(ScenarioError, match="pinch"):
        build("pinching_circle", T=2.0, n=16, amplitude=0.9)


def test_sphere_past_collapse_rejected():
    with pytest.raises(ScenarioError):
        build("shrinking_sphere_analogue", T=1.0, radius0=1.0)


def test_all_catalog_kinds_build():
    for kind in eh.SCENARIO_KINDS:
        if kind == "custom_tabulated":
            continue
        G = build(kind, T=0.5)
        assert G.horizon == 0.5
        assert np.all(eh.vertex_weights(G, 0.25) > 0)


def _table_doc():
    return {
        "n_vertices": 3,
        "edges": [[0, 1], [1, 2], [0, 2]],
        "times": [0.0, 1.0],
        "weights": [[1.0, 2.0, 4.0], [4.0, 2.0, 1.0]],
        "conductances": [[1.0, 1.0, 0.0], [3.0, 1.0, 2.0]],
    }


def test_tabulated_interpolation():
    G = build("custom_tabulated", T=1.0, table=_table_doc())
    assert G.horizon == 1.0
    # weights interpolate geometrically, conductances linearly
    assert_allclose(eh.vertex_weights(G, 0.5), [2.0, 2.0, 2.0], rtol=1e-14)
    assert_allclose(eh.edge_conductances(G, 0.5), [2.0, 1.0, 1.0], rtol=1e-14)
    assert_allclose(eh.vertex_weights(G, 1.0), [4.0, 2.0, 1.0], rtol=1e-15)


def test_tabulated_roundtrip_through_json():
    doc = json.loads(json.dumps(_table_doc()))
    G = build("custom_tabulated", T=1.0, table=doc)
    assert G.n_edges == 3


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d["weights"][1].append(1.0), "weights"),
        (lambda d: d["weights"][0].__setitem__(0, 0.0), "weights"),
        (lambda d: d["conductances"][0].__setitem__(1, -1.0), "conductances"),
        (lambda d: d["times"].__setitem__(1, 0.0), "times"),
        (lambda d: d["times"].__setitem__(0, 0.5), "times"),
        (lambda d: d["edges"].__setitem__(0, [0, 0]), "edge"),
        (lambda d: d["edges"].__setitem__(0, [0, 7]), "edge"),
        (lambda d: d["edges"].insert(1, [1, 0]), "edges: duplicate edge"),  # reverses (0, 1)
        (lambda d: d["edges"].__setitem__(1, [1, 1]), "edges: self loops are not allowed"),
        (lambda d: d.pop("times"), "times"),
        (lambda d: d.__setitem__("n_vertices", 0), "^n_vertices: must be >= 1, got 0$"),
        (lambda d: d.update(times=[0.0], weights=d["weights"][:1],
                            conductances=d["conductances"][:1]),
         "^times: need at least two time samples$"),
        (lambda d: d["weights"].append([1.0, 1.0, 1.0]),
         "^weights: expected shape \\(2, 3\\), got \\(3, 3\\)$"),
        (lambda d: d.__setitem__("conductances", [row[:2] for row in d["conductances"]]),
         "^conductances: expected shape \\(2, 3\\), got \\(2, 2\\)$"),
        (lambda d: d["times"].__setitem__(1, 0.5), "not reached"),
    ],
)
def test_tabulated_rejects_malformed(mutate, fragment):
    doc = _table_doc()
    mutate(doc)
    with pytest.raises(ScenarioError, match=fragment):
        build("custom_tabulated", T=1.0, table=doc)


def test_bump_profile_needs_coordinates():
    G = build("custom_tabulated", T=1.0, table=_table_doc())
    with pytest.raises(ValueError, match="^profile: bump needs vertex coordinates"):
        eh.make_initial_data(G, {"profile": "bump"})


def test_laplacian_modes_equal_the_dense_operator_basis():
    # the reference assembles S edge by edge, in edge order; edge 0 conducts 0 at t = 0
    G = build("custom_tabulated", T=1.0, table={**_table_doc(), "conductances": [
        [0.0, 1.0, 0.5], [3.0, 1.0, 2.0]]})
    c = eh.edge_conductances(G, 0.0)
    S = np.zeros((3, 3))
    for (i, j), ce in zip(G.edges, c):
        S[i, i] += ce
        S[j, j] += ce
        S[i, j] -= ce
        S[j, i] -= ce
    d = 1.0 / np.sqrt(eh.vertex_weights(G, 0.0))
    _, vecs = np.linalg.eigh(d[:, None] * S * d[None, :])
    assert np.array_equal(G.laplacian_modes, d[:, None] * vecs)
    assert G.laplacian_modes is G.laplacian_modes  # computed once per graph


def test_disconnected_graph_rejected():
    with pytest.raises(ScenarioError, match="connect"):
        eh.TimeWeightedGraph.static(
            np.ones(4), np.array([[0, 1], [2, 3]]), np.ones(2), 1.0
        )


@pytest.mark.parametrize("weights, edges, conductances, fragment", [
    ([1.0, 0.0, 1.0], [[0, 1], [1, 2]], [1.0, 1.0], "^static: nonpositive vertex weight at t=0$"),
    ([1.0, 1.0, 1.0], [[0, 1], [1, 2]], [1.0, -1.0], "^static: negative conductance at t=0$"),
    ([1.0, 1.0, 1.0], [0, 1, 1, 2], [1.0, 1.0], "^edges: expected an \\(E, 2\\) array"),
], ids=["weight", "conductance", "edges"])
def test_bad_static_graph_rejected(weights, edges, conductances, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        eh.TimeWeightedGraph.static(weights, edges, conductances)


@pytest.mark.parametrize("edges", [[], [[]]], ids=["flat", "nested"])
def test_one_vertex_graph_has_no_edges(edges):
    G = eh.TimeWeightedGraph.static([1.0], edges, [])
    assert G.n_vertices == 1 and G.edges.shape == (0, 2)
    chain = eh.run_sweep(G, [[3.0]], [0.25], m=2)[0][0]
    assert np.array_equal(chain.values, np.full((9, 1), 3.0))


@pytest.mark.parametrize("edges", [[[1, 2], [2, 3]], [[0, 1], [1, 2]]])  # 0 or 3 alone
def test_graph_with_an_isolated_end_vertex_rejected(edges):
    with pytest.raises(ScenarioError, match="static: graph is not connected"):
        eh.TimeWeightedGraph.static(np.ones(4), np.array(edges), np.ones(2), 1.0)
