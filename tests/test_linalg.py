"""Operator assembly and the conjugate-gradient solver against hand values."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import evoheat as eh

from helpers import (build, dense_solve, lone_step, prepare, random_operator, rcm_reference,
                     solve, star_ring_graph, step_operator)

# (mass + h*stiffness) on the single-edge graph, h = 1, unit coefficients:
# A = [[2, -1], [-1, 2]], so A @ (1, 0) = (2, -1) and A^-1 (1, 0) = (2/3, 1/3).
SOLVE_2X2 = np.array([2.0 / 3.0, 1.0 / 3.0])


def _single_edge_operator():
    return eh.SpdOperator(
        mass=np.ones(2), edges=np.array([[0, 1]]), coeffs=np.ones(1), h=1.0
    )


def _stencil(A):
    """A assembled on its own half-edge layout, as ``cg_solve`` takes it."""
    return eh.StencilOperator(A.mass, A.coeffs, A.h, eh.half_edge_layout(A.n, A.edges))


def _direct_plan(A):
    """The solve plan of A's graph, checked to take the direct band path."""
    plan = eh.solve_plan(A.n, A.edges)
    assert plan.ordering is not None and plan.layout is None
    return plan


def test_apply_hand_value():
    A = _single_edge_operator()
    assert np.array_equal(A.apply(np.array([1.0, 0.0])), [2.0, -1.0])


def test_apply_constant_sees_only_mass():
    A = random_operator(3)
    x = np.full(A.n, 0.7)
    assert np.array_equal(A.apply(x), A.mass * x)


def test_diagonal_matches_dense():
    # three operators on a star ring, each with its own weights, conductances
    # and h: the diagonal a batch assembles, on the band path and on the CG path
    # with its overflow half-edges, is each operator's own
    base = _star_ring_operator(4)
    rng = np.random.default_rng(12)
    ops = [eh.SpdOperator(base.mass * rng.uniform(0.5, 2.0, base.n), base.edges,
                          base.coeffs * rng.uniform(0.5, 2.0, len(base.coeffs)), h)
           for h in (0.1, 0.3, 0.7)]
    perm, bandwidth, _ = eh.rcm_ordering(base.n, base.edges)
    ordering = eh.linalg._band_ordering(base.edges, perm, bandwidth)
    band = prepare(ops, eh.linalg.SolvePlan(base.edges, 1, ordering, None))
    layout = eh.half_edge_layout(base.n, base.edges)
    cg = prepare(ops, eh.linalg.SolvePlan(base.edges, 1, None, layout))
    for t, A in enumerate(ops):
        want = np.diag(A.dense())
        # band position p = b*s + i, vertex perm[p], is entry (i, i) of diagonal block b
        at_positions = np.diagonal(band.D[:, :, t, 0], axis1=0, axis2=1).ravel()
        assert_allclose(at_positions[:A.n], want[perm], rtol=1e-14)
        assert_allclose(cg.stencils[t].diag, want, rtol=1e-14)


def test_dense_is_symmetric():
    M = random_operator(5).dense()
    assert np.array_equal(M, M.T)


def test_cg_hand_value():
    x = eh.cg_solve(_stencil(_single_edge_operator()), np.array([1.0, 0.0]), rel_tol=1e-14)
    assert_allclose(x, SOLVE_2X2, rtol=1e-12)


def test_cg_zero_rhs():
    x = eh.cg_solve(_stencil(_single_edge_operator()), np.zeros(2))
    assert np.array_equal(x, np.zeros(2))


def test_cg_residual_contract():
    for seed, rel_tol in [(0, 1e-8), (1, 1e-12), (2, 1e-12)]:
        A = random_operator(seed)
        b = np.random.default_rng(seed + 50).standard_normal(A.n)
        x = eh.cg_solve(_stencil(A), b, rel_tol=rel_tol)
        res = np.linalg.norm(A.apply(x) - b)
        assert res <= rel_tol * np.linalg.norm(b) * (1 + 1e-12)


def test_cg_reports_failure():
    # 1e-18 is below what the 8-vertex solve can reach, so it runs into the
    # cap of 50 n iterations, with the residual still far from underflow
    A = random_operator(7)
    assert A.n == 8
    b = np.random.default_rng(8).standard_normal(A.n)
    with pytest.raises(eh.SolverError) as excinfo:
        eh.cg_solve(_stencil(A), b, rel_tol=1e-18)
    assert excinfo.value.relative_residual > 0.0
    assert "no convergence in 400 iterations" in str(excinfo.value)


class _FlippingOperator:
    """0.75 I on four vertices, with an apply error of +-0.25 I whose sign flips
    on every call: CG's own products see 0.5 I, its true-residual checks I."""

    n = 4

    def __init__(self):
        self.sign = 1.0

    def apply(self, x, out):
        self.sign = -self.sign
        return np.multiply(x, 0.75 + 0.25 * self.sign, out=out)

    def precondition(self, r, out):
        out[:] = r
        return out


def test_cg_reports_the_true_residual_that_missed():
    # every iteration drives the recurrence residual to exactly 0, and every true
    # residual is b or -b: the cap runs out right after the recurrence met the
    # target, and the error must give the true residual, not the recurrence's 0
    with pytest.raises(eh.SolverError) as excinfo:
        eh.cg_solve(_FlippingOperator(), np.array([1.0, -2.0, 0.5, 3.0]), rel_tol=1e-10)
    assert excinfo.value.relative_residual == 1.0
    assert str(excinfo.value) == ("cg_solve: no convergence in 200 iterations "
                                  "(relative residual 1.000e+00, target 1.000e-10)")


def test_cg_reports_underflowed_residual_and_target_not_indefiniteness():
    # rel_tol 0 drives the residual to underflow, where p.Ap becomes exactly 0
    A = random_operator(7)
    b = np.random.default_rng(8).standard_normal(A.n)
    with pytest.raises(eh.SolverError) as excinfo:
        eh.cg_solve(_stencil(A), b, rel_tol=0.0)
    message = str(excinfo.value)
    assert 0.0 < excinfo.value.relative_residual < 1e-100
    assert f"relative residual {excinfo.value.relative_residual:.3e}" in message
    assert "target 0.000e+00" in message
    assert "positive definite" not in message
    # a negative curvature still names the operator
    negative = eh.SpdOperator(mass=-np.ones(2), edges=np.empty((0, 2), dtype=int),
                              coeffs=np.empty(0), h=1.0)
    with pytest.raises(eh.SolverError, match="not positive definite"):
        eh.cg_solve(_stencil(negative), np.ones(2))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_operator_symmetry_and_positivity(seed):
    A = random_operator(seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(A.n)
    y = rng.standard_normal(A.n)
    lhs = float(np.dot(y, A.apply(x)))
    rhs = float(np.dot(x, A.apply(y)))
    assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
    quad = float(np.dot(x, A.apply(x)))
    mass_quad = float(np.dot(x * A.mass, x))
    # the stiffness part is a sum of squares, so the quadratic form dominates the mass part
    assert quad >= mass_quad - 1e-9 * (abs(quad) + 1.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_cg_matches_dense(seed):
    A = random_operator(seed)
    b = np.random.default_rng(seed + 2).standard_normal(A.n)
    x = eh.cg_solve(_stencil(A), b, rel_tol=1e-13)
    y = dense_solve(A, b)
    assert_allclose(x, y, rtol=0, atol=1e-10 * (np.abs(y).max() + 1.0))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_apply_matches_dense(seed):
    A = random_operator(seed)
    x = np.random.default_rng(seed + 3).standard_normal(A.n)
    assert_allclose(A.apply(x), A.dense() @ x, rtol=1e-12, atol=1e-13)


# ---------------------------------------------------------------------------
# direct path: reverse Cuthill-McKee order and block cyclic reduction
# ---------------------------------------------------------------------------

def _ring_operator(seed, n, closed, offsets=(1,)):
    """Vertex i joined to i + o for each offset o, wrapping round when closed (a
    circulant), on n relabelled vertices, some conductances zero.  With offset 1
    alone this is a cycle or a path."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(n)
    pairs = [(label[i], label[i + o]) for o in offsets for i in range(n - o)]
    if closed:
        pairs += [(label[i], label[(i + o) % n]) for o in offsets for i in range(max(n - o, 0), n)]
    edges = []
    for i, j in pairs:  # first occurrence of each pair, no loops
        if i != j and (min(i, j), max(i, j)) not in edges:
            edges.append((min(i, j), max(i, j)))
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    coeffs = rng.uniform(0.1, 2.0, len(edges))
    coeffs[rng.uniform(size=len(coeffs)) < 0.25] = 0.0
    return eh.SpdOperator(mass=rng.uniform(0.5, 2.0, n), edges=edges, coeffs=coeffs,
                          h=float(rng.uniform(0.01, 0.5)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40), st.booleans(),
       st.sampled_from([(1,), (1, 2), (1, 3)]))
@example(seed=0, n=1, closed=False, offsets=(1,))  # one vertex, no edges: b = 0
@example(seed=0, n=4, closed=True, offsets=(1, 2))  # K4: b = 3, n = b + 1
@example(seed=0, n=5, closed=True, offsets=(1, 2))  # K5: b = 4, n = b + 1
@example(seed=0, n=7, closed=True, offsets=(1, 2))  # b = 4, one full block and a padded one
@example(seed=1, n=23, closed=True, offsets=(1, 2))  # b = 5, n not a multiple of b
def test_banded_matches_dense_on_cycles_and_paths(seed, n, closed, offsets):
    A = _ring_operator(seed, n, closed, offsets)
    perm, bandwidth, components = eh.rcm_ordering(A.n, A.edges)
    assert sorted(perm.tolist()) == list(range(n)) and components == 1
    if offsets == (1,):
        assert bandwidth == (2 if closed and n >= 3 else min(n - 1, 1))
    assert bandwidth <= max(n - 1, 0)
    ordering = eh.linalg._band_ordering(A.edges, perm, bandwidth)
    b = np.random.default_rng(seed + 4).standard_normal(n)
    # the band solver itself, also on orders wider than the direct path takes
    [[x]] = solve([A], b[None, None], 1e-13, eh.linalg.SolvePlan(A.edges, 1, ordering, None))
    y = dense_solve(A, b)
    assert_allclose(x, y, rtol=0, atol=1e-12 * (np.abs(y).max() + 1.0))


def test_operators_and_columns_solved_together_match_each_alone(monkeypatch):
    # three stiff operators on one graph of bandwidth 5, each with its own h, 8
    # columns each: at rel_tol 1.6e-13 some columns pass at once and others need
    # refinement
    base = _ring_operator(0, 200, True, (1, 2))
    rng = np.random.default_rng(4)
    ops = [eh.SpdOperator(mass=base.mass * rng.uniform(0.5, 2.0, base.n), edges=base.edges,
                          coeffs=1e4 * base.coeffs * rng.uniform(0.5, 2.0, len(base.coeffs)),
                          h=base.h * scale) for scale in (1.0, 0.8, 1.2)]
    plan = _direct_plan(base)
    assert plan.ordering.bandwidth == 5
    rhs = rng.standard_normal((3, 8, base.n))
    together = solve(ops, rhs, 1.6e-13, plan)

    passes = []
    real = eh.linalg._bcr_solve

    def counting(*args):
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(eh.linalg, "_bcr_solve", counting)
    refined = []
    for t, A in enumerate(ops):
        for c in range(rhs.shape[1]):
            passes.clear()
            [[alone]] = solve([A], rhs[t, c][None, None], 1.6e-13, plan)
            assert np.array_equal(together[t, c], alone)
            refined.append(len(passes) > 1)
    assert any(refined) and not all(refined)
    # every contiguous slice of one preparation, refinements included, solves
    # as the operators did together
    prepared = prepare(ops, plan)
    for start, stop in [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]:
        passes.clear()
        part = eh.spd_solve_prepared(prepared, rhs[start:stop], 1.6e-13, start)
        assert np.array_equal(part, together[start:stop])
        # a slice refines when one of its operators' columns refined alone
        assert (len(passes) > 1) == any(refined[start * rhs.shape[1]:stop * rhs.shape[1]])
    with pytest.raises(ValueError, match="rhs has shape"):
        eh.spd_solve_prepared(prepared, rhs[1:], 1.6e-13, 2)  # runs past the last operator


def test_direct_path_rejects_an_operator_that_is_not_positive_definite():
    A = _ring_operator(5, 30, True)
    mass = A.mass.copy()
    mass[7] = -3.0  # e_7^T A e_7 = -3 + h * (at most two conductances of 2) < 0
    bad = eh.SpdOperator(mass=mass, edges=A.edges, coeffs=A.coeffs, h=A.h)
    with pytest.raises(eh.SolverError, match="not positive definite"):
        solve([bad], np.ones((1, 1, A.n)), 1e-10, _direct_plan(A))


def test_banded_residual_contract():
    for seed, rel_tol in [(0, 1e-8), (1, 1e-12), (2, 1e-12)]:
        A = _ring_operator(seed, 64, closed=True)
        rhs = np.random.default_rng(seed + 50).standard_normal((3, A.n))
        for x, b in zip(solve([A], rhs[None], rel_tol, _direct_plan(A))[0], rhs):
            res = np.linalg.norm(A.apply(x) - b)
            assert res <= rel_tol * np.linalg.norm(b)


def test_banded_reports_failure():
    A = _ring_operator(7, 16, closed=True)
    b = np.random.default_rng(8).standard_normal(A.n)
    with pytest.raises(eh.SolverError) as excinfo:
        solve([A], b[None, None], 0.0, _direct_plan(A))
    assert excinfo.value.relative_residual > 0.0
    assert "refinements" in str(excinfo.value)


def test_banded_reports_a_nan_column():
    A = _ring_operator(7, 16, closed=True)
    rhs = np.random.default_rng(8).standard_normal((1, 2, A.n))
    rhs[0, 1, 3] = np.nan
    with pytest.raises(eh.SolverError, match=r"not finite: \|\|b\|\|_2 = nan") as excinfo:
        solve([A], rhs, 1e-10, _direct_plan(A))
    assert np.isnan(excinfo.value.relative_residual)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("graph", ["circle", "star"])
def test_a_non_finite_right_hand_side_is_rejected_before_solving(monkeypatch, graph, entry):
    # one NaN or infinite entry makes ||b||_2 non-finite, and no iteration can
    # meet a target set from it: the band path raises before its first solve, so
    # it refines nothing, and CG before its first iteration, so it applies the
    # operator not once (it used to run all 50 n iterations on a NaN)
    G = build("conformal_circle", n=64) if graph == "circle" else star_ring_graph()
    A = step_operator(G, 0.0, 0.1)
    plan = eh.solve_plan(A.n, A.edges)
    assert (plan.ordering is None) == (graph == "star")
    prepared = prepare([A], plan)
    calls = []
    real_apply, real_bcr_solve = eh.linalg.StencilOperator.apply, eh.linalg._bcr_solve

    def apply(self, x, out):
        calls.append("apply")
        return real_apply(self, x, out)

    def bcr_solve(factors, f):
        calls.append("bcr_solve")
        return real_bcr_solve(factors, f)

    monkeypatch.setattr(eh.linalg.StencilOperator, "apply", apply)
    monkeypatch.setattr(eh.linalg, "_bcr_solve", bcr_solve)
    rhs = np.random.default_rng(9).standard_normal((1, 1, A.n))
    rhs[0, 0, 5] = entry
    with pytest.raises(eh.SolverError, match="a right-hand side is not finite") as excinfo:
        eh.spd_solve_prepared(prepared, rhs, 1e-10)
    assert np.isnan(excinfo.value.relative_residual)
    assert calls == []
    # the same column, finite, solves through the counted function
    rhs[0, 0, 5] = 1.0
    eh.spd_solve_prepared(prepared, rhs, 1e-10)
    assert set(calls) == {"apply" if graph == "star" else "bcr_solve"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("graph", ["cycle", "star"])
def test_a_right_hand_side_whose_norm_overflows_raises(graph):
    # entries near 1e160 are finite doubles, but their squares overflow ||b||_2
    # to inf, and the target rel_tol * inf would accept x = 0: both paths raise
    # before solving, without a warning
    A = _ring_operator(1, 16, closed=True) if graph == "cycle" else _star_ring_operator(4)
    plan = eh.solve_plan(A.n, A.edges)
    assert (plan.ordering is None) == (graph == "star")
    rhs = np.random.default_rng(5).standard_normal((1, 2, A.n))
    rhs[0, 1] *= 1e160
    with pytest.raises(eh.SolverError, match="overflows to inf") as excinfo:
        solve([A], rhs, 1e-10, plan)
    assert np.isnan(excinfo.value.relative_residual)
    # 1e150 squares to a finite double: that column solves to the contract
    rhs[0, 1] *= 1e-10
    [x] = solve([A], rhs, 1e-10, plan)
    assert np.linalg.norm(A.apply(x[1]) - rhs[0, 1]) <= 1e-10 * np.linalg.norm(rhs[0, 1])


def test_banded_zero_rhs():
    A = _single_edge_operator()
    [[x]] = solve([A], np.zeros((1, 1, 2)), 0.0, _direct_plan(A))
    assert np.array_equal(x, np.zeros(2))


def _cg_calls_per_step(monkeypatch, G):
    calls = []
    real = eh.linalg.cg_solve

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(eh.linalg, "cg_solve", counting)
    u0 = eh.make_initial_data(G, {"profile": "random", "seed": 1})
    lone_step(G, 0.1, 0.1, u0)
    return len(calls)


def _random_edges(rng, n):
    """Up to 2n random edges on n vertices, without loops or repeats; with few
    edges the graph falls apart into several components."""
    pairs = {tuple(sorted(int(v) for v in rng.choice(n, size=2, replace=False)))
             for _ in range(int(rng.integers(0, 2 * n + 1)))} if n >= 2 else set()
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def test_rcm_ordering_matches_the_adjacency_list_search():
    # perm, bandwidth and components of the lexsorted search are the sorted
    # adjacency lists' on random graphs, connected or not, and on the
    # benchmark's graphs
    rng = np.random.default_rng(31)
    graphs = [(n, _random_edges(rng, n)) for n in rng.integers(1, 40, 300).tolist()]
    assert any(rcm_reference(n, e)[2] > 1 for n, e in graphs)
    graphs += [(G.n_vertices, G.edges) for G in (
        build("product_torus", nx=48, ny=48),
        *(build("conformal_circle", n=n, k_spatial=1) for n in (1024, 64, 128)))]
    for n, edges in graphs:
        perm, bandwidth, components = eh.rcm_ordering(n, edges)
        want = rcm_reference(n, edges)
        assert np.array_equal(perm, want[0]) and (bandwidth, components) == want[1:]


def test_narrow_graphs_take_the_direct_path(monkeypatch):
    circle = build("conformal_circle", n=256, k_spatial=1)
    assert circle.plan.ordering.bandwidth == 2 and circle.plan.layout is None
    assert _cg_calls_per_step(monkeypatch, circle) == 0


def test_wide_graphs_take_cg(monkeypatch):
    torus = build("product_torus", nx=48, ny=48)
    assert eh.rcm_ordering(torus.n_vertices, torus.edges)[1] == 95
    assert torus.plan.ordering is None and torus.plan.layout is not None
    assert _cg_calls_per_step(monkeypatch, torus) == 1


def test_only_band_plans_build_block_indices(monkeypatch):
    torus = build("product_torus", nx=12, ny=12)
    circle = build("conformal_circle", n=64)
    built = []
    real = eh.linalg._band_ordering

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(eh.linalg, "_band_ordering", counting)
    plan = eh.solve_plan(torus.n_vertices, torus.edges)
    assert plan.ordering is None and plan.layout is not None and plan.components == 1
    assert built == []  # a CG plan carries no block indices and builds none
    plan = eh.solve_plan(circle.n_vertices, circle.edges)
    assert len(built) == 1 and plan.ordering is not None and plan.layout is None
    assert len(plan.ordering.diag_index) == 64 and plan.ordering.block_size == 2


# ---------------------------------------------------------------------------
# CG path: half-edge layout and the assembled stencil operator
# ---------------------------------------------------------------------------

def _star_ring_operator(seed):
    """A star around vertex 0 joined to a ring on the leaves, plus random chords.

    The hub's degree dwarfs the leaves', so most of its half-edges land in the
    layout's overflow list; some conductances are zero.
    """
    rng = np.random.default_rng(seed)
    leaves = int(rng.integers(5, 30))
    n = leaves + 1
    pairs = {(0, i) for i in range(1, n)}
    pairs |= {tuple(sorted((i, i % leaves + 1))) for i in range(1, n)}
    for _ in range(int(rng.integers(0, leaves // 2 + 1))):  # too few to make it regular
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        pairs.add((i, j))
    label = rng.permutation(n)
    edges = np.sort(label[np.array(sorted(pairs), dtype=np.int64)], axis=1)
    coeffs = rng.uniform(0.1, 2.0, len(edges))
    coeffs[rng.uniform(size=len(coeffs)) < 0.25] = 0.0
    return eh.SpdOperator(mass=rng.uniform(0.5, 2.0, n), edges=edges, coeffs=coeffs,
                          h=float(rng.uniform(0.01, 0.5)))


def _layout_half_edges(layout):
    """Every (row, neighbour, edge) triple the layout stores, sorted."""
    K, n = layout.nbr.shape
    rows = np.concatenate([np.repeat(np.arange(n)[None, :], K, axis=0).ravel(),
                           layout.over_rows])
    cols = np.concatenate([layout.nbr.ravel(), layout.over_cols])
    eids = np.concatenate([layout.slot_edge.ravel(), layout.over_edges])
    return sorted(zip(rows.tolist(), cols.tolist(), eids.tolist()))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_stencil_matches_operator_and_dense(seed, star):
    A = _star_ring_operator(seed) if star else random_operator(seed)
    layout = eh.half_edge_layout(A.n, A.edges)
    halves = [(int(i), int(j), e) for e, (i, j) in enumerate(A.edges)]
    assert _layout_half_edges(layout) == sorted(halves + [(j, i, e) for i, j, e in halves])
    degree = np.bincount(A.edges.ravel(), minlength=A.n)
    assert layout.nbr.shape == (degree.min(), A.n)
    assert len(layout.over_rows) == 2 * len(A.edges) - A.n * degree.min()
    if star:
        assert len(layout.over_rows) > 0

    S = eh.StencilOperator(A.mass, A.coeffs, A.h, layout)
    rng = np.random.default_rng(seed + 5)
    x = rng.standard_normal(A.n)
    scale = np.abs(A.dense()) @ np.abs(x)
    assert_allclose(S.apply(x, np.empty(A.n)), A.apply(x), rtol=0, atol=1e-14 * scale.max())
    assert_allclose(S.diag, np.diag(A.dense()), rtol=1e-14)

    b = rng.standard_normal(A.n)
    y = dense_solve(A, b)
    x = eh.cg_solve(S, b, rel_tol=1e-13)
    assert_allclose(x, y, rtol=0, atol=1e-10 * (np.abs(y).max() + 1.0))


def test_torus_layout_has_no_overflow():
    torus = build("product_torus", nx=8, ny=8)
    layout = torus.plan.layout
    assert layout.nbr.shape == (4, 64) and len(layout.over_rows) == 0
    assert torus.plan.layout is layout  # built once per graph


def _held_floats(prepared):
    """The floats of the distinct arrays a ``PreparedOperators`` keeps alive."""
    owners = {}

    def walk(x):
        if isinstance(x, np.ndarray):
            if x.dtype == np.float64:
                owner = x if x.base is None else x.base
                owners[id(owner)] = owner.size
        elif isinstance(x, (list, tuple)):
            for y in x:
                walk(y)
        elif isinstance(x, eh.StencilOperator):
            walk([getattr(x, name) for name in x.__slots__])

    walk(tuple(prepared))
    return sum(owners.values())


@pytest.mark.parametrize("graph", ["cycle", "ring-grid", "path", "lattice", "star"])
def test_prepared_floats_counts_what_a_preparation_holds(graph):
    if graph == "lattice":
        G = build("product_torus", nx=6, ny=5)
        ops = [step_operator(G, t, 0.1) for t in (0.1, 0.2, 0.3)]
        plan = G.plan
    else:
        A = {"cycle": lambda: _ring_operator(1, 37, True),
             "ring-grid": lambda: _ring_operator(2, 23, True, (1, 2)),
             "path": lambda: _ring_operator(3, 9, False),
             "star": lambda: _star_ring_operator(4)}[graph]()
        ops = [A, A]
        plan = eh.solve_plan(A.n, A.edges)
    assert (plan.ordering is None) == (graph in ("lattice", "star"))
    prepared = prepare(ops, plan)
    assert prepared.count == len(ops)
    assert _held_floats(prepared) == len(ops) * eh.linalg.prepared_floats(plan)


@pytest.mark.parametrize("graph", ["cycle", "star"])
def test_spd_prepare_rejects_tables_that_are_no_batch(graph):
    A = _ring_operator(1, 12, True) if graph == "cycle" else _star_ring_operator(4)
    plan = eh.solve_plan(A.n, A.edges)
    assert (plan.ordering is None) == (graph == "star")
    W, C = np.tile(A.mass, (2, 1)), np.tile(A.coeffs, (2, 1))
    for mass, coeffs, h in [(W[:0], C[:0], []), (W, C, [A.h]), (W[0], C[:1], [A.h]),
                            (W, C[:, 1:], [A.h, A.h]), (W, C, A.h)]:
        with pytest.raises(ValueError, match="step lengths"):
            eh.spd_prepare(plan, mass, coeffs, h)


def _cut(operators, per_op):
    """The ``blocks`` of rounds of ``operators`` operators each, as (start, stop)."""
    return [(b.start, b.stop) for b in eh.linalg.blocks([k * per_op for k in operators])]


def test_blocks_keep_to_the_budget(monkeypatch):
    per_op = eh.linalg.prepared_floats(build("conformal_circle", n=64).plan)
    monkeypatch.setattr(eh.linalg, "PREPARE_BUDGET", 10 * per_op)
    assert _cut([4, 4, 4, 4], per_op) == [(0, 2), (2, 4)]
    assert _cut([4, 3, 3, 1], per_op) == [(0, 3), (3, 4)]
    assert _cut([12, 4], per_op) == [(0, 1), (1, 2)]  # at least one round
    assert _cut([2], per_op) == [(0, 1)]


def test_blocks_edge_cases(monkeypatch):
    monkeypatch.setattr(eh.linalg, "PREPARE_BUDGET", 10)
    assert _cut([], 1) == []
    assert _cut([0, 0, 0], 1) == [(0, 3)]  # zero-float items share one block
    assert _cut([0, 4, 0, 0, 6, 0, 1], 1) == [(0, 6), (6, 7)]
    # an item over the budget stands alone, and the items after it start afresh
    assert _cut([3, 11, 3, 3], 1) == [(0, 1), (1, 2), (2, 4)]
    assert _cut([11], 1) == [(0, 1)]


def test_blocks_cover_every_index_once_in_order(monkeypatch):
    monkeypatch.setattr(eh.linalg, "PREPARE_BUDGET", 10)
    rng = np.random.default_rng(17)
    for _ in range(50):
        floats = rng.integers(0, 14, size=rng.integers(1, 30)).tolist()
        cut = list(eh.linalg.blocks(floats))
        assert [i for b in cut for i in b] == list(range(len(floats)))
        for b in cut:
            # within the budget or one item, and as long as the budget holds
            assert sum(floats[i] for i in b) <= 10 or len(b) == 1
            assert b.stop == len(floats) or sum(floats[b.start:b.stop + 1]) > 10


def test_spd_solve_assembles_once_per_operator(monkeypatch):
    assembled = []
    real = eh.linalg.StencilOperator

    def counting(*args):
        assembled.append(args)
        return real(*args)

    monkeypatch.setattr(eh.linalg, "StencilOperator", counting)
    torus = build("product_torus", nx=48, ny=48)
    A = step_operator(torus, 0.1, 0.1)
    rhs = np.random.default_rng(3).standard_normal((3, A.n))
    [xs] = solve([A], rhs[None], 1e-10, torus.plan)
    assert len(assembled) == 1
    for x, b in zip(xs, rhs):
        assert np.linalg.norm(A.apply(x) - b) <= 1e-10 * np.linalg.norm(b) * (1 + 1e-6)


# ---------------------------------------------------------------------------
# CG path: the spectral preconditioner on periodic lattices
# ---------------------------------------------------------------------------

def _lattice_edges(nx, ny):
    """The periodic nx x ny lattice, vertex ix * ny + iy: x edges, then y edges."""
    v = np.arange(nx * ny).reshape(nx, ny)
    return np.sort(np.concatenate([
        np.column_stack([v.ravel(), np.roll(v, -1, axis=0).ravel()]),
        np.column_stack([v.ravel(), np.roll(v, -1, axis=1).ravel()])]), axis=1)


def _conformal_lattice_operator(k, contrast, h):
    """M + h S on the k x k lattice of the metric e^{2u} (dx^2 + dy^2).

    Weights e^{2u} dx dy, smooth, with max / min = contrast; conductances 1, as
    the 2-d Dirichlet form does not see a conformal factor.
    """
    d = 2.0 * np.pi / k
    x = d * np.arange(k)
    s = np.sin(x)[:, None] * np.cos(x)[None, :] + 0.5 * np.sin(2.0 * x)[None, :]
    two_u = np.log(contrast) * (s - s.min()) / (s.max() - s.min())
    return eh.SpdOperator(mass=np.exp(two_u).ravel() * d * d, edges=_lattice_edges(k, k),
                          coeffs=np.ones(2 * k * k), h=h)


def _applies_per_solve(monkeypatch):
    """A list that gets one entry per ``cg_solve`` call: its ``StencilOperator.apply`` calls."""
    per_solve = []
    real_apply = eh.linalg.StencilOperator.apply
    real_cg = eh.linalg.cg_solve

    def apply(self, x, out):
        per_solve[-1] += 1
        return real_apply(self, x, out)

    def cg(*args, **kwargs):
        per_solve.append(0)
        return real_cg(*args, **kwargs)

    monkeypatch.setattr(eh.linalg.StencilOperator, "apply", apply)
    monkeypatch.setattr(eh.linalg, "cg_solve", cg)
    return per_solve


def test_product_torus_solves_take_one_cg_iteration(monkeypatch):
    # weights and per-axis conductances are uniform in space, so the spectral
    # preconditioner is the exact inverse: one iteration's mat-vec, then the one
    # that checks the true residual.  On the square torus the axes' conductances
    # b/a and a/b differ at every grid time but t = 0.
    torus = build("product_torus", nx=12, ny=12)
    assert torus.plan.ordering is None and torus.plan.lattice.shape == (12, 12)
    per_solve = _applies_per_solve(monkeypatch)
    u0 = eh.make_initial_data(torus, {"profile": "random", "seed": 3})
    eh.run_sweep(torus, [u0], [0.1], m=4)
    assert per_solve == [2] * 40


def test_spectral_preconditioner_beats_jacobi_on_a_varying_lattice(monkeypatch):
    A = _conformal_lattice_operator(128, 10.0, 0.02)
    spectral = eh.solve_plan(A.n, A.edges, (128, 128))
    jacobi = eh.solve_plan(A.n, A.edges)
    assert spectral.lattice is not None and jacobi.lattice is None
    rhs = np.random.default_rng(5).standard_normal((1, 2, A.n))
    per_solve = _applies_per_solve(monkeypatch)
    [xs] = solve([A], rhs, 1e-10, spectral)
    [xj] = solve([A], rhs, 1e-10, jacobi)
    assert max(per_solve[:2]) < min(per_solve[2:])
    # both residuals are at most 1e-10 ||b|| and A >= min(mass) I
    for x, y, b in zip(xs, xj, rhs[0]):
        assert np.linalg.norm(x - y) <= 2e-10 * np.linalg.norm(b) / A.mass.min()
    [[alone]] = solve([A], rhs[:, 1:], 1e-10, spectral)
    assert np.array_equal(alone, xs[1])  # bitwise the column solved alongside another


def test_a_lattice_hint_that_does_not_match_the_edges_raises():
    edges = _lattice_edges(12, 16)
    assert eh.solve_plan(192, edges, (12, 16)).lattice.shape == (12, 16)
    assert eh.solve_plan(192, edges[:, ::-1], (12, 16)).lattice is not None  # orientation
    for shape in [(16, 12), (8, 24), (2, 96), (12, 15)]:
        with pytest.raises(ValueError, match="lattice"):
            eh.solve_plan(192, edges, shape)
    diagonal = edges.copy()
    diagonal[0] = [0, 17]  # (0, 0) to (1, 1) in place of (0, 0) to (1, 0)
    with pytest.raises(ValueError, match="lattice"):
        eh.solve_plan(192, diagonal, (12, 16))
