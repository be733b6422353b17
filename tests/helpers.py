"""Shared test fixtures: seeded random graphs, scenario shortcuts and solve references."""

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
    arithmetic is the order ``solve_error`` uses, so it must equal this bitwise.
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
    coefficient reads, then prepares and solves them together.  Returns the
    values, one family per initial value, which a sweep must reproduce bitwise.
    """
    N = eh.steps_within_horizon(G.horizon, h)
    delta = h / m
    values = np.empty((len(initials), N * m + 1, G.n_vertices))
    values[:, 0] = initials
    for start in range(1, N * m + 1, m):
        rows = list(range(start, start + m))
        prevs = [max(j - m, 0) for j in rows]
        ops = [step_operator(G, j * delta, h) for j in rows]
        mass = np.array([A.mass for A in ops])
        rhs = mass[:, None, :] * values[:, prevs].swapaxes(0, 1)
        values[:, rows] = solve(ops, rhs, rel_tol, G.plan).swapaxes(0, 1)
    return values


# The checks written out one grid row (and one family or test function) at a
# time, every coefficient row read where it is used and every running sum added
# left to right: the blocked checks of ``evoheat.verify`` must equal these bitwise.

def energy_reference(chains, G):
    """``energy_estimate`` row by row: sup_l2 and dissipation per family, and the
    certified c0."""
    times = chains[0].times()
    delta = chains[0].delta
    w = eh.vertex_weights(G, times[0])
    sup_l2 = [eh.weighted_l2_sq(c.values[0], w) for c in chains]
    dissipation = [0.0] * len(chains)
    rate = -np.inf
    log_w = np.log(w)
    for j in range(1, len(times)):
        w = eh.vertex_weights(G, times[j])
        log_prev, log_w = log_w, np.log(w)
        pair = (log_w - log_prev) / (times[j] - times[j - 1])
        top = pair.max()
        if not top < np.inf:
            top = pair[~((log_w == -np.inf) & (log_prev == -np.inf))].max(initial=-np.inf)
            if not top < np.inf:
                raise ValueError(f"energy_estimate: weight growth rate {top} at grid "
                                 f"time t={times[j]:.6g} admits no c0")
        rate = max(rate, top)
        for f, c in enumerate(chains):
            sup_l2[f] = max(sup_l2[f], eh.weighted_l2_sq(c.values[j], w))
            dissipation[f] += delta * eh.dirichlet_energy(G, times[j], c.values[j])
    return sup_l2, dissipation, max(0.0, float(rate))


def l2h1_reference(values, times, G, dt):
    """``l2h1_interp_norm`` row by row."""
    total = 0.0
    for v, t in zip(values, times):
        total += dt * eh.dirichlet_energy(G, t, v)
    return total


def chain_error_reference(chain, G, oracle):
    """``chain_error_vs_oracle`` row by row, the oracle read one time at a time."""
    err = 0.0
    for t, v in zip(chain.times(), chain.values):
        err = max(err, eh.weighted_l2(v - eh.oracle_value_at(oracle, t),
                                      eh.vertex_weights(G, t)))
    return err


def weak_residual_reference(chain, G, test_fns):
    """``weak_residual`` row by row: (name, residual, normalization) per function."""
    delta, nm = chain.delta, len(chain.values) - 1
    acc = [0.0] * len(test_fns)
    norm = [0.0] * len(test_fns)
    for j in range(nm):
        w, w_next = eh.vertex_weights(G, j * delta), eh.vertex_weights(G, (j + 1) * delta)
        cond = eh.edge_conductances(G, j * delta)
        u = chain.values[j]
        d_u = u[G.edges[:, 0]] - u[G.edges[:, 1]]
        for f, fn in enumerate(test_fns):
            psi = fn.space
            phi = np.float64(fn.profile(j * delta))
            mass_term = (fn.profile_dt(j * delta) * float(np.dot(w * u, psi))
                         - phi * float(np.dot((w - w_next) / delta * u, psi)))
            d_psi = psi[G.edges[:, 0]] - psi[G.edges[:, 1]]
            acc[f] += delta * (mass_term - phi * float(np.dot(cond, d_u * d_psi)))
            norm[f] += delta * abs(phi) * eh.weighted_l2(psi, w)
    return [(fn.name, abs(a), n) for fn, a, n in zip(test_fns, acc, norm)]


def rcm_reference(n, edges):
    """``rcm_ordering`` written as adjacency lists, each sorted by a (degree,
    index) key: (perm, bandwidth, components)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj = [[] for _ in range(n)]
    for i, j in edges.tolist():
        adj[i].append(j)
        adj[j].append(i)
    degree = [len(a) for a in adj]
    for a in adj:
        a.sort(key=lambda v: (degree[v], v))
    visit = [-1] * n
    order = []
    components = 0
    for start in sorted(range(n), key=lambda v: (degree[v], v)):
        if visit[start] >= 0:
            continue
        visit[start] = len(order)
        components += 1
        head = len(order)
        order.append(start)
        while head < len(order):
            for w in adj[order[head]]:
                if visit[w] < 0:
                    visit[w] = len(order)
                    order.append(w)
            head += 1
    p = np.array(visit, dtype=np.int64)[edges]
    bandwidth = int(np.abs(p[:, 0] - p[:, 1]).max(initial=0))
    return np.array(order[::-1], dtype=np.int64), bandwidth, components
