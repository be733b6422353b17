"""Shared test fixtures: seeded random graphs, scenario shortcuts and solve references."""

import dataclasses

import numpy as np

import evoheat as eh
from evoheat.geometry import Scenario


def build(kind, T=1.0, **params):
    return eh.build_scenario(Scenario(kind=kind, T=T, params=params))


def random_static_graph(seed, n_min=2, n_max=8, horizon=1.0):
    """Connected graph with random weights/conductances (some conductances zero)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    edges = set()
    for i in range(1, n):
        edges.add((int(rng.integers(0, i)), i))  # spanning tree
    for _ in range(int(rng.integers(0, n))):
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        edges.add((i, j))
    edges = sorted(edges)
    weights = rng.uniform(0.5, 2.0, n)
    cond = rng.uniform(0.1, 2.0, len(edges))
    cond[rng.uniform(size=len(cond)) < 0.25] = 0.0
    return eh.TimeWeightedGraph.static(weights, np.array(edges), cond, horizon)


def step_operator(G, t, h):
    """The step operator M_t + h S_t of G, from one-row coefficient reads."""
    return eh.SpdOperator(eh.vertex_weights(G, t), G.edges, eh.edge_conductances(G, t), h)


def random_operator(seed):
    G = random_static_graph(seed)
    rng = np.random.default_rng(seed + 10_000)
    h = float(rng.uniform(0.01, 0.5))
    return step_operator(G, 0.0, h)


def prepare(ops, plan):
    """``spd_prepare`` on the operators ops, all on the graph of ``plan``: their
    weights, conductances and step lengths stacked into the tables it takes."""
    return eh.spd_prepare(plan, np.array([A.mass for A in ops]),
                          np.array([A.coeffs for A in ops]), [A.h for A in ops])


def solve(ops, rhs, rel_tol, plan):
    """Solve ops[t] x = rhs[t, c] for every column, on one preparation of all of ops."""
    return eh.spd_solve_prepared(prepare(ops, plan), rhs, rel_tol)


def lone_step(G, t, h, u_prev, rel_tol=1e-10):
    """One implicit step of length h at time t, solved alone: (M_t + h S_t) u = M_t u_prev.

    The operator and the solve are the ones a chain's round uses, so a chain
    sample must equal this bitwise.
    """
    A = step_operator(G, t, h)
    rhs = A.mass * np.asarray(u_prev, dtype=float)
    return solve([A], rhs[None, None], rel_tol, G.plan)[0, 0]


def dense_solve(A, b):
    """Direct solve through the dense assembly of A: the small-system reference."""
    return np.linalg.solve(A.dense(), np.asarray(b, dtype=float))


def varah_bounds(G, families, rel_tol):
    """Reference solver-error bounds of a run's families, one row per family.

    Row j adds rel_tol * ||M_t x_prev||_2 / min_i w_i(t), t = j*delta, to row
    j - m's bound, with the weights evaluated afresh at every grid time.  The
    arithmetic is the order ``run_sweep`` uses, so its ``solve_error`` must
    equal this bitwise.
    """
    m = families[0].m
    times = families[0].times()
    bound = np.zeros((len(families), len(times)))
    for j in range(1, len(times)):
        w = eh.vertex_weights(G, times[j])
        prev = max(j - m, 0)
        norms = np.linalg.norm(w * np.stack([f.values[prev] for f in families]), axis=1)
        bound[:, j] = bound[:, prev] + rel_tol * norms / float(w.min())
    return bound


def exact_solves(chain):
    """``chain`` with a zero solver-error bound, so checks judge it by their rounding floors."""
    return dataclasses.replace(chain, solve_error=np.zeros(len(chain.values)))


def growth_reference(G, time_grid):
    """The weight growth rate certified on a time grid, written out on its own.

    The max over adjacent grid pairs (t1, t2) and vertices of
    max(0, log(w_i(t2)/w_i(t1)) / (t2 - t1)), in the arithmetic order
    ``energy_estimate`` uses when it certifies c0, so its ``c0_used`` must equal
    this bitwise on the chain's grid.
    """
    grid = np.asarray(time_grid, dtype=float)
    dt = np.diff(grid)
    rate = -np.inf
    prev = np.log(eh.vertex_weights(G, grid[0]))
    for t, gap in zip(grid[1:], dt):
        cur = np.log(eh.vertex_weights(G, t))
        rate = np.maximum(rate, ((cur - prev) / gap).max())
        prev = cur
    return max(0.0, float(rate))


def star_ring_graph(leaves=16, seed=16, T=1.0):
    """A hub joined to ``leaves`` leaves, the leaves joined in a ring, with tabulated
    weights and conductances: a wide band, so CG takes it, and the hub's half-edges
    past the least degree (3) overflow the neighbour table."""
    rng = np.random.default_rng(seed)
    edges = ([[0, i] for i in range(1, leaves + 1)]
             + [sorted([i, i % leaves + 1]) for i in range(1, leaves + 1)])
    times = [0.0, 0.5 * T, T]
    table = {"n_vertices": leaves + 1, "edges": edges, "times": times,
             "weights": rng.uniform(0.5, 2.0, (len(times), leaves + 1)).tolist(),
             "conductances": rng.uniform(0.1, 2.0, (len(times), len(edges))).tolist()}
    return build("custom_tabulated", T=T, table=table)


def per_round_families(G, initials, h, m, rel_tol):
    """The families ``run_sweep`` steps for one h, one round of m grid times per preparation.

    The loop the package stepped with before rounds were prepared ahead and
    grids stepped in lockstep: each round builds its m operators from one-row
    coefficient reads, then prepares and solves them together.  Returns
    (values, solve_error), one row per initial value, which a sweep must
    reproduce bitwise.
    """
    N = eh.steps_within_horizon(G.horizon, h)
    delta = h / m
    values = np.empty((len(initials), N * m + 1, G.n_vertices))
    values[:, 0] = initials
    bound = np.zeros(values.shape[:2])
    for start in range(1, N * m + 1, m):
        rows = list(range(start, start + m))
        prevs = [max(j - m, 0) for j in rows]
        ops = [step_operator(G, j * delta, h) for j in rows]
        mass = np.array([A.mass for A in ops])
        rhs = mass[:, None, :] * values[:, prevs].swapaxes(0, 1)
        bound[:, rows] = (bound[:, prevs]
                          + rel_tol * np.linalg.norm(rhs, axis=2).T / mass.min(axis=1))
        values[:, rows] = solve(ops, rhs, rel_tol, G.plan).swapaxes(0, 1)
    return values, bound
